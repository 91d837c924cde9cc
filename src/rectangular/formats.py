"""Text formats: tables, partial arrays, graph pairs, matrix pairs, and the
JSON census emission.

Files are always 0-based.  Parsing and rendering round-trip bit-exactly
after one normalization pass; renderers accept a one_based flag that shifts
displayed symbols only.

A symbol grid is read and written through a spelling table: ``str(v)`` for
each symbol v (``str(v + 1)`` when one_based) and "." for an empty cell.  A
row whose tokens are all in the table is mapped through it whole; a row
with any other token goes through ``strict_int`` token by token, which
takes spellings such as "007" and "-0" and names the first bad entry.  The
parsed values are built unchecked, as the parse has checked every entry.
"""

from __future__ import annotations

from .core import (
    CONSTRUCT_BOUND,
    BoolMatrix,
    GraphPair,
    Groupoid,
    PartialArray,
    _unchecked,
    check_order,
    graph_pair_to_matrices,
    matrices_to_graph_pair,
)


class FormatError(ValueError):
    """Malformed input text; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def strict_int(token: str) -> int:
    """int(token) for ASCII digits after an optional minus; ValueError for
    the rest of what int() takes, such as "+1", "0_0" and non-ASCII digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _lines(text: str) -> list[str]:
    r"""The lines of text broken at "\n" alone, one trailing empty line
    dropped: ``splitlines()`` of text with no other break.  splitlines()
    itself also breaks at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029,
    so it would read one file line as two."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _parse_order(lines: list[str]) -> int:
    if not lines:
        raise FormatError(1, "empty input; expected an order line")
    token = lines[0].strip()
    try:
        order = strict_int(token)
    except ValueError:
        raise FormatError(1, f"expected the order, got {token!r}") from None
    if order < 1:
        raise FormatError(1, f"order must be positive, got {order}")
    check_order(order, bound=CONSTRUCT_BOUND, limit="files are")
    return order


def _reject_trailing(lines: list[str], end: int) -> None:
    """Raise on the first non-blank line from index end on."""
    for i in range(end, len(lines)):
        if lines[i].strip():
            raise FormatError(i + 1, f"unexpected text after the structure: {lines[i]!r}")


def _parse_grid(text: str, allow_empty: bool, noun: str) -> tuple[int, tuple]:
    """The order and rows of a symbol grid; "." marks an empty cell where
    allow_empty holds, read through the spelling table."""
    lines = _lines(text)
    order = _parse_order(lines)
    if len(lines) < 1 + order:
        raise FormatError(len(lines) + 1, f"expected {order} {noun} lines")
    spellings = {str(v): v for v in range(order)}
    if allow_empty:
        spellings["."] = None
    rows = []
    for i in range(order):
        line_no = i + 2
        tokens = lines[1 + i].split()
        if len(tokens) != order:
            raise FormatError(line_no, f"expected {order} entries, got {len(tokens)}")
        try:
            rows.append(tuple(map(spellings.__getitem__, tokens)))
            continue
        except KeyError:
            pass
        row = []
        for col, token in enumerate(tokens):
            if allow_empty and token == ".":
                row.append(None)
                continue
            try:
                value = strict_int(token)
            except ValueError:
                raise FormatError(line_no, f"bad entry {token!r} in column {col}") from None
            if not 0 <= value < order:
                raise FormatError(
                    line_no, f"entry {value} out of range 0..{order - 1} in column {col}"
                )
            row.append(value)
        rows.append(tuple(row))
    _reject_trailing(lines, 1 + order)
    return order, tuple(rows)


def _render_grid(order: int, rows, one_based: bool) -> str:
    """The text of a symbol grid, written through the spelling table."""
    shift = 1 if one_based else 0
    spellings = {v: str(v + shift) for v in range(order)}
    spellings[None] = "."
    body = "\n".join([" ".join(map(spellings.__getitem__, row)) for row in rows])
    return f"{order}\n{body}\n"


def parse_table(text: str) -> Groupoid:
    return _unchecked(Groupoid, *_parse_grid(text, False, "table"))


def render_table(g: Groupoid, one_based: bool = False) -> str:
    return _render_grid(g.order, g.table, one_based)


def parse_partial(text: str) -> PartialArray:
    return _unchecked(PartialArray, *_parse_grid(text, True, "array"))


def render_partial(p: PartialArray, one_based: bool = False) -> str:
    return _render_grid(p.order, p.cells, one_based)


def _parse_bit_rows(lines: list[str], start: int, order: int, what: str) -> tuple[int, ...]:
    rows = []
    for i in range(order):
        line_no = start + i + 1
        if start + i >= len(lines):
            raise FormatError(line_no, f"missing {what} row {i}")
        raw = lines[start + i].strip()
        # int(..., 2) alone would also take "0b1", "1_0", blanks and non-ASCII digits
        if len(raw) != order or raw.strip("01"):
            raise FormatError(line_no, f"expected {order} characters of 0/1, got {raw!r}")
        rows.append(int(raw[::-1], 2))
    return tuple(rows)


def _render_bit_rows(rows: tuple[int, ...], order: int) -> str:
    """Each row as its binary string reversed, so bit j is character j."""
    return "\n".join(format(row, f"0{order}b")[::-1] for row in rows)


def parse_graph_pair(text: str) -> GraphPair:
    lines = _lines(text)
    order = _parse_order(lines)
    red = _parse_bit_rows(lines, 1, order, "red")
    sep = 1 + order
    if sep >= len(lines) or lines[sep].strip():
        raise FormatError(sep + 1, "expected a blank line between the relations")
    green = _parse_bit_rows(lines, sep + 1, order, "green")
    _reject_trailing(lines, sep + 1 + order)
    return GraphPair(order, red, green)


def render_graph_pair(gp: GraphPair) -> str:
    return (f"{gp.order}\n{_render_bit_rows(gp.red, gp.order)}\n\n"
            f"{_render_bit_rows(gp.green, gp.order)}\n")


def parse_matrix(text: str) -> BoolMatrix:
    lines = _lines(text)
    order = _parse_order(lines)
    rows = _parse_bit_rows(lines, 1, order, "matrix")
    _reject_trailing(lines, 1 + order)
    return BoolMatrix(order, rows)


def render_matrix(m: BoolMatrix) -> str:
    return f"{m.order}\n{_render_bit_rows(m.rows, m.order)}\n"


def parse_matrix_pair(text: str) -> tuple[BoolMatrix, BoolMatrix]:
    """Two matrices in the paired two-grid layout (same as graph pairs)."""
    return graph_pair_to_matrices(parse_graph_pair(text))


def render_matrix_pair(a: BoolMatrix, b: BoolMatrix) -> str:
    return render_graph_pair(matrices_to_graph_pair(a, b))


def census_json(result, kind: str) -> str:
    """The JSON of a census.CensusResult; band blow-ups give order (n, m).

    The text is ``json.dumps(payload, indent=2)``'s, written without json.
    The object's fields, at indent 2, are the order (an int, or a band's
    [n, m], one side a line at indent 4), the class, the mode, the count,
    and the tables: null where the census lists none, else a list of flat
    tables at indent 4, one entry a line at indent 6, the entries spelled
    through a spelling table.  The class and mode must be the censuses'
    names, so no string needs escaping.
    """
    mode = result.mode
    if kind not in ("rectangular", "central", "band-blowups") or \
            mode not in ("labeled", "isomorphism", "isotopy"):
        raise ValueError(f"not a census class and mode: {kind!r}, {mode!r}")
    order, tables = result.order, result.tables
    if tables is None:
        body = "null"
    elif not tables:
        body = "[]"
    else:
        spellings = [str(v) for v in range(order)]
        body = "[\n" + ",\n".join([
            "    [\n      " + ",\n      ".join(map(spellings.__getitem__, g.flat())) + "\n    ]"
            for g in tables]) + "\n  ]"
    if not isinstance(order, int):
        order = "[\n    " + ",\n    ".join(map(str, order)) + "\n  ]"
    return (f'{{\n  "order": {order},\n  "class": "{kind}",\n  "mode": "{mode}",\n'
            f'  "count": {result.count},\n  "tables": {body}\n}}\n')
