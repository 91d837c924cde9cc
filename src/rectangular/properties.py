"""The predicate suite: defining properties, equational special cases, and
partial-array conditions.

Every ``*_violation`` function returns the first witness tuple in a fixed
scan order, or ``None``.  Witnesses are what the CLI prints when a check
comes out false.  ``CHECKS`` lists every property ``check`` evaluates: its
model, its violation and its predicate, by name.  The boolean predicates are
built from it, with ``is_congruence``: each is whether its violation finds
no witness.

Most violations are one of three computations:

* The equational ones (idempotence, associativity, centrality and the rest)
  come from one table, ``NAMED_IDENTITIES``, which ``CHECKS`` takes in.
  Each identity is checked by one evaluator, ``core.identity_counterexample``,
  which ``FiniteGroup`` also uses for associativity.  It computes each side
  as a sequence over the last variable (``bytes`` composed by
  ``bytes.translate`` up to order 256, tuples gathered by
  ``operator.itemgetter`` above), and scans the other variables in
  alphabetical order, so the witness is the lexicographically first failing
  tuple.
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

from .core import (
    BoolMatrix,
    GraphPair,
    Groupoid,
    Partition,
    PartialArray,
    bits_of,
    groupoid_to_graph_pair,
    identity_counterexample,
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


# The equational properties, keyed by their ``check`` name: the name of the
# violation, the name of the predicate, and the identities checked in turn.
# A violation returns the first failing tuple of the first identity that
# fails; the violations are built below and bound under these names.
_IDEMPOTENCE = "a*a=a"
NAMED_IDENTITIES = {
    "idempotent": ("idempotence_violation", "is_idempotent", (_IDEMPOTENCE,)),
    "associative": ("associativity_violation", "is_associative", ("(a*b)*c=a*(b*c)",)),
    "central": ("centrality_violation", "is_central", ("(x*y)*(y*z)=y",)),
    "undirected-eq": ("undirected_eq_violation", "satisfies_undirected_eq",
                      ("(a*b)*(c*a)=a",)),
    "partitioned": ("partitioned_eqs_violation", "satisfies_partitioned_eqs",
                    (_IDEMPOTENCE, "(a*b)*c=a*c")),
    "dually-partitioned": ("dually_partitioned_eqs_violation",
                           "satisfies_dually_partitioned_eqs", (_IDEMPOTENCE, "a*(b*c)=a*c")),
    "left-reabsorption": ("left_reabsorption_violation", "satisfies_left_reabsorption",
                          ("a*(a*b)=a*b",)),
    "right-reabsorption": ("right_reabsorption_violation", "satisfies_right_reabsorption",
                           ("(a*b)*b=a*b",)),
}


def _equational(name: str, identities: tuple[str, ...]):
    """The violation named name that checks identities in turn."""
    def violation(g: Groupoid) -> tuple[int, ...] | None:
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


# Every property ``check`` evaluates, keyed by its ``check`` name: the model
# its file holds (a ``formats`` parser per model), the name of its
# violation and the name of its predicate.
CHECKS = {
    "rectangular": ("groupoid", "rectangularity_violation", "is_rectangular"),
    "p1": ("groupoid", "p1_violation", "satisfies_p1"),
    "p2": ("graphpair", "p2_violation", "satisfies_p2"),
    "p4": ("matrices", "p4_violation", "satisfies_p4"),
    "matrix-symmetric": ("groupoid", "matrix_symmetry_violation", "is_matrix_symmetric"),
    "full": ("groupoid", "fullness_violation", "is_full"),
    "maximal": ("groupoid", "maximality_violation", "is_maximal"),
    "partial-p1": ("partial", "partial_p1_violation", "is_partial_p1"),
    "partial-latin": ("partial", "partial_latin_violation", "is_partial_latin"),
    "blackburn": ("partial", "blackburn_violation", "has_blackburn"),
    **{name: ("groupoid", violation, predicate)
       for name, (violation, predicate, _) in NAMED_IDENTITIES.items()},
}


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
