"""The predicate suite: defining properties, equational special cases, and
partial-array conditions.

Every ``*_violation`` function returns the first witness tuple in a fixed
scan order, or ``None``.  Witnesses are what the CLI prints when a check
comes out false.  ``CHECKS``, from ``checklist``, lists every property
``check`` evaluates: its model, its violation and its predicate, by name.
The boolean predicates are built from it, with ``is_congruence``: each is
whether its violation finds no witness.

Most violations are one of three computations:

* The equational ones (idempotence, associativity, centrality and the rest)
  come from one table, ``NAMED_IDENTITIES``, which ``CHECKS`` takes in.  Each
  identity is checked by one evaluator,
  ``identities.identity_counterexample``, imported on the first call, which
  ``FiniteGroup`` also uses for associativity; ``identities`` says how it
  finds the lexicographically first failing tuple.
* Unique two-step paths (p2, p4, matrix symmetry and ``derive_plus``) go
  through ``core.two_step_middles``, on graph pairs from ``core``'s model
  conversions.
* The symbols of each row and column, ``core.line_symbol_sets``, give the
  symbols that share a line with each symbol (pair-disjointness of full and
  partial arrays, maximality) and, transposed, the rows and columns that
  hold each symbol (rectangularity); fullness asks which symbols occur at
  all.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .checklist import CHECKS, NAMED_IDENTITIES
from .core import (
    BoolMatrix,
    GraphPair,
    Groupoid,
    Partition,
    PartialArray,
    bits_of,
    groupoid_to_graph_pair,
    line_symbol_sets,
    matrices_to_graph_pair,
    transpose_bits,
    two_step_middles,
)


def rectangularity_violation(g: Groupoid) -> tuple[int, int, int] | None:
    """First (symbol, row, col) where the symbol's rectangle is broken.

    A table is rectangular iff each symbol's cells are exactly the product of
    the rows and the columns it occurs in; it suffices to compare cell counts
    and then locate an offending cell.
    """
    n = g.order
    rows, cols = (transpose_bits(sets, n) for sets in line_symbol_sets(g.table))
    counts = Counter(chain.from_iterable(g.table))
    for x in range(n):
        if counts[x] != rows[x].bit_count() * cols[x].bit_count():
            for r in bits_of(rows[x]):
                for c in bits_of(cols[x]):
                    if g.table[r][c] != x:
                        return (x, r, c)
    return None


def _mates(sets: list[int]) -> list[int]:
    """For each symbol, the other symbols sharing one of the lines with it."""
    mates = [0] * len(sets)
    for m in set(sets):
        for x in bits_of(m):
            mates[x] |= m
    return [m & ~(1 << x) for x, m in enumerate(mates)]


def _pair_in_row_and_column(rows) -> tuple[int, int, int, int] | None:
    """First (x, y, row, col) with the pair {x, y} in both a row and a column."""
    n = len(rows)
    row_sets, col_sets = line_symbol_sets(rows)
    rowmate, colmate = _mates(row_sets), _mates(col_sets)
    for x in range(n):
        both = rowmate[x] & colmate[x]
        if both:
            y = next(bits_of(both))
            pair = 1 << x | 1 << y
            row = next(i for i, m in enumerate(row_sets) if m & pair == pair)
            col = next(j for j, m in enumerate(col_sets) if m & pair == pair)
            return (x, y, row, col)
    return None


def p1_violation(g: Groupoid) -> tuple[int, int, int, int] | None:
    """First (x, y, row, col) with the pair {x, y} in both a row and a column."""
    return _pair_in_row_and_column(g.table)


def p2_violation(gp: GraphPair) -> tuple[int, int, int] | None:
    """First (a, b, count) whose red-green two-step path count is not 1."""
    return two_step_middles(gp.red, gp.green)[1]


def p4_violation(a: BoolMatrix, b: BoolMatrix) -> tuple[int, int, int] | None:
    """First (i, j, value) where the integer product entry differs from 1."""
    return p2_violation(matrices_to_graph_pair(a, b))


def fullness_violation(g: Groupoid) -> tuple[int] | None:
    """The least symbol that never occurs in the table."""
    missing = set(range(g.order)).difference(chain.from_iterable(g.table))
    return (min(missing),) if missing else None


def maximality_violation(g: Groupoid) -> tuple[int, int] | None:
    """A pair of distinct symbols co-occurring in no row and no column."""
    n = g.order
    rowmate, colmate = map(_mates, line_symbol_sets(g.table))
    full = (1 << n) - 1
    for x in range(n):
        missing = full & ~(rowmate[x] | colmate[x]) & ~(1 << x)
        if missing:
            # co-occurrence is symmetric, so the first hit has y > x
            return (x, next(bits_of(missing)))
    return None


def _equational(name: str, identities: tuple[str, ...]):
    """The violation named name that checks identities in turn."""
    def violation(g: Groupoid) -> tuple[int, ...] | None:
        from .identities import identity_counterexample
        for identity in identities:
            witness = identity_counterexample(g, identity)
            if witness is not None:
                return witness
        return None

    violation.__doc__ = f"First failing tuple of {', then '.join(identities)}."
    violation.__name__ = violation.__qualname__ = name
    return violation


globals().update({name: _equational(name, identities)
                  for name, _, identities in NAMED_IDENTITIES.values()})


def matrix_symmetry_violation(g: Groupoid) -> tuple[str, int, int, int] | None:
    """First (direction, a, b, count) where a two-step path count is not 1.

    Direction "red-green" corresponds to the product AB, "green-red" to BA.
    """
    gp = groupoid_to_graph_pair(g)
    for direction, first, second in (("red-green", gp.red, gp.green),
                                     ("green-red", gp.green, gp.red)):
        bad = two_step_middles(first, second)[1]
        if bad is not None:
            return (direction, *bad)
    return None


def derive_plus(g: Groupoid) -> Groupoid:
    """The companion operation: a + b is the middle node of the unique
    green-red two-step path from a to b.

    Requires ``is_matrix_symmetric(g)``; together the two operations satisfy
    (a*b)+(b*c) = b and (a+b)*(b+c) = b.
    """
    gp = groupoid_to_graph_pair(g)
    table, bad = two_step_middles(gp.green, gp.red)
    if bad is not None:
        a, b, k = bad
        raise ValueError(f"not matrix-symmetric: pair ({a},{b}) has {k} green-red paths")
    return Groupoid(g.order, table)


def partial_latin_violation(p: PartialArray) -> tuple[str, int, int] | None:
    """First (axis, index, symbol) with a repeated symbol in a row or column."""
    for axis, lines in (("row", p.cells), ("col", zip(*p.cells))):
        for i, line in enumerate(lines):
            seen = 0
            for e in line:
                if e is None:
                    continue
                if seen >> e & 1:
                    return (axis, i, e)
                seen |= 1 << e
    return None


def partial_p1_violation(p: PartialArray) -> tuple[int, int, int, int] | None:
    """First (x, y, row, col) with the pair {x, y} in both a row and a column."""
    return _pair_in_row_and_column(p.cells)


def blackburn_violation(
    p: PartialArray,
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]] | None:
    """Two equal-symbol cells whose opposite corner is occupied.

    Returns ((i, j), (k, l), corner) where corner is the offending filled
    cell (i, l) or (k, j).
    """
    by_symbol: dict[int, list[tuple[int, int]]] = {}
    for i, j, e in p.filled():
        by_symbol.setdefault(e, []).append((i, j))
    for cells in by_symbol.values():
        for a in range(len(cells)):
            i, j = cells[a]
            for b in range(a + 1, len(cells)):
                k, l = cells[b]
                if i == k or j == l:
                    continue
                if p.cells[i][l] is not None:
                    return ((i, j), (k, l), (i, l))
                if p.cells[k][j] is not None:
                    return ((i, j), (k, l), (k, j))
    return None


def congruence_violation(g: Groupoid, p: Partition) -> tuple[int, int, int, int] | None:
    """First (a, a', b, b') with a=a', b=b' mod p but a*b != a'*b' mod p."""
    if p.order != g.order:
        raise ValueError(f"partition order {p.order} differs from groupoid order {g.order}")
    idx = p.block_index
    t = g.table
    n = g.order
    for block in p.blocks:
        for ai in range(len(block)):
            a = block[ai]
            for a2 in block[ai + 1:]:
                for b in range(n):
                    if idx[t[a][b]] != idx[t[a2][b]]:
                        return (a, a2, b, b)
                    if idx[t[b][a]] != idx[t[b][a2]]:
                        return (b, b, a, a2)
    return None


def _predicate(violation_name: str, name: str):
    """The predicate named name.  It looks its violation up by name on each
    call, so a caller that wraps the violation finds the wrapper."""
    def predicate(*args, **kwargs) -> bool:
        return globals()[violation_name](*args, **kwargs) is None

    predicate.__doc__ = f"Whether {violation_name} finds no witness."
    predicate.__name__ = predicate.__qualname__ = name
    return predicate


globals().update({name: _predicate(violation, name) for violation, name in
                  [*(row[1:] for row in CHECKS.values()),
                   ("congruence_violation", "is_congruence")]})
