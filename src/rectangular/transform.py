"""Conversions between the four models, plus quotient, product, subalgebra
and the square lift.

The four model conversions live in ``core``.  The groupoid <-> graph-pair
maps are exact inverses on rectangular input; graph_pair_to_groupoid
validates the unique-path property while extracting and fails fast with
the offending pair.
"""

from __future__ import annotations

from .core import (  # noqa: F401  (the conversions are re-exported)
    Groupoid,
    Partition,
    check_elements,
    graph_pair_to_groupoid,
    graph_pair_to_matrices,
    groupoid_to_graph_pair,
    matrices_to_graph_pair,
    pair_groupoid,
)


class ClosureError(ValueError):
    """A subset is not closed under the operation; carries the witness."""

    def __init__(self, a: int, b: int, product: int):
        super().__init__(f"subset not closed: {a}*{b} = {product} escapes")
        self.witness = (a, b, product)


def quotient(g: Groupoid, p: Partition) -> Groupoid:
    """The quotient table on the blocks of a congruence, indexed by least
    element.  The result need not be rectangular even when g is."""
    from .properties import congruence_violation
    bad = congruence_violation(g, p)
    if bad is not None:
        a, a2, b, b2 = bad
        raise ValueError(
            f"partition is not a congruence: ({a},{a2},{b},{b2}) maps to "
            f"different blocks"
        )
    idx = p.block_index
    reps = [block[0] for block in p.blocks]
    k = len(reps)
    table = tuple(
        tuple(idx[g.table[reps[i]][reps[j]]] for j in range(k))
        for i in range(k)
    )
    return Groupoid(k, table)


def direct_product(g: Groupoid, h: Groupoid) -> Groupoid:
    """Componentwise product on pairs, flattened as (a, b) -> a*|h| + b."""
    return pair_groupoid(g.order, h.order,
                         lambda a, b, c, d: (g.table[a][c], h.table[b][d]))


def subalgebra(g: Groupoid, subset: set[int] | frozenset[int]) -> Groupoid:
    """Restrict to a closed subset, reindexed by the sorted subset.

    Raises ClosureError with the escaping pair when the subset is not closed.
    """
    check_elements(subset, g.order, "subset")
    if not subset:
        raise ValueError("subset must be nonempty")
    members = sorted(subset)
    where = {x: i for i, x in enumerate(members)}
    table = []
    for a in members:
        row = []
        for b in members:
            v = g.table[a][b]
            if v not in where:
                raise ClosureError(a, b, v)
            row.append(where[v])
        table.append(tuple(row))
    return Groupoid(len(members), tuple(table))


def square_lift(g: Groupoid) -> Groupoid:
    """The operation (a,b) . (c,d) = (a*c, c) on pairs, flattened row-major.

    The lift is rectangular for every input, and first-coordinate projection
    is a surjective homomorphism onto the input.
    """
    return pair_groupoid(g.order, g.order, lambda a, b, c, d: (g.table[a][c], c))
