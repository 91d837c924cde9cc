"""Constructions: constants, pair-shift tables, rectangular bands, blow-ups,
one-element and split extensions, the partition construction, and graph
pairs from group factorizations.

Abstract carriers (A x B and the like) are always flattened row-major with
the left factor major (``core.pair_groupoid``), so every constructor
returns plain structures on ``0..n-1``.
"""

from __future__ import annotations

from itertools import chain, product
from math import prod

from .core import (
    CONSTRUCT_BOUND,
    FiniteGroup,
    GraphPair,
    Groupoid,
    Mapping,
    Partition,
    PartitionSystem,
    bits_of,
    check_elements,
    check_order,
    mask_of,
    opposite,
    pair_groupoid,
)
from .properties import is_rectangular


def _require_rectangular(g: Groupoid, what: str) -> None:
    if not is_rectangular(g):
        raise ValueError(f"{what} requires a rectangular groupoid")


def constant_groupoid(n: int, a: int) -> Groupoid:
    """Every product equals a."""
    check_order(n, bound=CONSTRUCT_BOUND)
    check_elements([a], n, "symbol")
    return Groupoid(n, tuple(tuple(a for _ in range(n)) for _ in range(n)))


def evans_central(m: int) -> Groupoid:
    """The order-m^2 groupoid on pairs with (a,b) * (c,d) = (b,c).

    Satisfies the central equation (x*y)*(y*z) = y.
    """
    return pair_groupoid(m, m, lambda a, b, c, d: (b, c))


def rectangular_band(n: int, m: int) -> Groupoid:
    """The idempotent associative groupoid on pairs with (a,b)*(c,d) = (a,d)."""
    return pair_groupoid(n, m, lambda a, b, c, d: (a, d))


def simple_blow_up(g: Groupoid, a: int) -> Groupoid:
    """Adjoin a new element e that multiplies exactly as a does.

    e*x = a*x, x*e = x*a, e*e = a*a, so rectangles grow by one duplicated
    row and column.  The result is rectangular and not full: the new element
    never occurs as a product.
    """
    n = g.order
    check_elements([a], n, "anchor")
    check_order(n + 1, bound=CONSTRUCT_BOUND)
    _require_rectangular(g, "simple_blow_up")
    table = [list(row) + [row[a]] for row in g.table]
    table.append(list(g.table[a]) + [g.table[a][a]])
    return Groupoid(n + 1, tuple(tuple(r) for r in table))


def left_extension(g: Groupoid, a: int) -> Groupoid:
    """Adjoin e with x*e = x*a, e*e = e, and e*x = a*x unless a*x = a, then e.

    The anchor must be idempotent: a non-idempotent anchor puts a*a in both
    the new row and the new column, which forces the corner cell away from e
    and breaks rectangularity.
    """
    n = g.order
    check_elements([a], n, "anchor")
    check_order(n + 1, bound=CONSTRUCT_BOUND)
    if g.table[a][a] != a:
        raise ValueError(f"anchor {a} is not idempotent: {a}*{a} = {g.table[a][a]}")
    _require_rectangular(g, "left_extension")
    e = n
    table = [list(row) + [row[a]] for row in g.table]
    last = [g.table[a][x] if g.table[a][x] != a else e for x in range(n)]
    table.append(last + [e])
    return Groupoid(n + 1, tuple(tuple(r) for r in table))


def right_extension(g: Groupoid, a: int) -> Groupoid:
    """Mirror of left_extension: conjugate by the opposite operation, once
    the anchor and the result order are checked."""
    check_elements([a], g.order, "anchor")
    check_order(g.order + 1, bound=CONSTRUCT_BOUND)
    return opposite(left_extension(opposite(g), a))


def _check_split_maps(a: Groupoid, b: Groupoid, f: Mapping, g: Mapping) -> None:
    check_order(a.order + b.order, bound=CONSTRUCT_BOUND)
    if f.domain != a.order or f.codomain != b.order:
        raise ValueError(
            f"f must map the first carrier (size {a.order}) into the second "
            f"(size {b.order}); got domain {f.domain}, codomain {f.codomain}"
        )
    if g.domain != b.order or g.codomain != a.order:
        raise ValueError(
            f"g must map the second carrier (size {b.order}) into the first "
            f"(size {a.order}); got domain {g.domain}, codomain {g.codomain}"
        )
    _require_rectangular(a, "split extension")
    _require_rectangular(b, "split extension")


def left_split_extension(a: Groupoid, b: Groupoid, f: Mapping, g: Mapping) -> Groupoid:
    """Join two tables on A followed by B; the left operand picks the algebra.

    x*y is x *_A y, x *_A g(y), x *_B f(y) or x *_B y according to where x
    and y live.  In the array this copies columns of A into the top-right
    block and columns of B into the bottom-left block.
    """
    _check_split_maps(a, b, f, g)
    na = a.order
    top = [row + tuple([row[v] for v in g.images]) for row in a.table]
    bottom = [tuple([na + row[v] for v in f.images + tuple(range(b.order))])
              for row in b.table]
    return Groupoid(na + b.order, tuple(top + bottom))


def right_split_extension(a: Groupoid, b: Groupoid, f: Mapping, g: Mapping) -> Groupoid:
    """Join two tables on A followed by B; the right operand picks the algebra.

    Copies rows of B into the top-right block and rows of A into the
    bottom-left block: the opposite of the left split of the opposites,
    built once the result order is checked.
    """
    check_order(a.order + b.order, bound=CONSTRUCT_BOUND)
    return opposite(left_split_extension(opposite(a), opposite(b), f, g))


def partition_construction(ps: PartitionSystem) -> GraphPair:
    """Red: reflexive cliques on the base blocks.  Green: each node points to
    its class in its block's companion partition.

    The output satisfies the unique-path property, and its groupoid satisfies
    a*a = a and (a*b)*c = a*c.
    """
    n = ps.order
    red = [0] * n
    green = [0] * n
    for block, theta in zip(ps.base.blocks, ps.companions):
        bmask = mask_of(block)
        for x in block:
            red[x] = bmask
            green[x] = mask_of(theta.blocks[theta.block_of(x)])
    return GraphPair(n, tuple(red), tuple(green))


def is_partitioned_pair(gp: GraphPair) -> bool:
    """Red is a union of reflexive cliques and green has a loop on each node."""
    for x in range(gp.order):
        row = gp.red[x]
        if not row >> x & 1 or not gp.green[x] >> x & 1:
            return False
        # within a clique all rows coincide
        if any(gp.red[y] != row for y in bits_of(row)):
            return False
    return True


def extract_partition_system(gp: GraphPair) -> PartitionSystem:
    """Recover the base and companion partitions from a partitioned pair.

    Inverse of partition_construction on its image.
    """
    if not is_partitioned_pair(gp):
        raise ValueError("pair is not partitioned (red cliques + green loops)")
    n = gp.order
    # blocks ordered by least element, matching Partition normalization
    base_blocks = sorted({tuple(bits_of(gp.red[x])) for x in range(n)})
    base = Partition(n, tuple(base_blocks))
    companions = []
    for block in base_blocks:
        theta_blocks = {gp.green[x] for x in block}
        companions.append(Partition(n, tuple(tuple(bits_of(m)) for m in theta_blocks)))
    return PartitionSystem(base, tuple(companions))


def cyclic_group(n: int) -> FiniteGroup:
    """Addition modulo n: the abelian group of one factor."""
    return abelian_group(n)


def abelian_group(*moduli: int) -> FiniteGroup:
    """Direct product of cyclic groups, flattened row-major.

    Element (x, y) of G x Z_m is x*m + y, a mixed-radix sum.  Row y of Z_m
    is 0..m-1 rotated left by y, so row (x, y) of the product is, for each
    entry s of row x of G, the block s*m .. s*m + m - 1 rotated left by y.
    The rotations are slices of one block per s, so they share its ints.
    """
    if not moduli:
        raise ValueError("moduli must be a nonempty list of positive integers")
    for m in moduli:
        check_order(m, "modulus")
    check_order(prod(moduli), bound=CONSTRUCT_BOUND)
    table: tuple[tuple[int, ...], ...] = ((0,),)
    for m in moduli:
        blocks = [tuple(range(s * m, s * m + m)) for s in range(len(table))]
        rotated = [[b[y:] + b[:y] for b in blocks] for y in range(m)]
        table = tuple(tuple(chain.from_iterable(map(rotated[y].__getitem__, row)))
                      for row in table for y in range(m))
    return FiniteGroup(len(table), table)


def group_factorization_pair(gamma: FiniteGroup, h: set[int] | frozenset[int],
                             k: set[int] | frozenset[int]) -> GraphPair:
    """Red: edges (g, g*h') for h' in h.  Green: edges (g, g*k') for k' in k.

    Requires an exact factorization: |h| * |k| = |gamma| with all products
    h'*k' distinct.
    """
    n = gamma.order
    for name, members in (("h", h), ("k", k)):
        if not members:
            raise ValueError(f"{name} must be nonempty")
        check_elements(members, n, name)
    hs, ks = sorted(h), sorted(k)
    if len(hs) * len(ks) != n:
        raise ValueError(
            f"|h|*|k| = {len(hs)}*{len(ks)} != {n}; not an exact factorization"
        )
    seen: dict[int, tuple[int, int]] = {}
    for x, y in product(hs, ks):
        v = gamma.mul(x, y)
        if v in seen:
            raise ValueError(
                f"not an exact factorization: {v} = {seen[v][0]}*{seen[v][1]} "
                f"= {x}*{y}"
            )
        seen[v] = (x, y)
    red = tuple(mask_of(gamma.mul(g, x) for x in hs) for g in range(n))
    green = tuple(mask_of(gamma.mul(g, y) for y in ks) for g in range(n))
    return GraphPair(n, red, green)


def _left_cosets(gamma: FiniteGroup, h: list[int]) -> list[tuple[int, ...]]:
    cosets = []
    assigned = set()
    for g in range(gamma.order):
        if g in assigned:
            continue
        coset = tuple(sorted({gamma.mul(g, x) for x in h}))
        cosets.append(coset)
        assigned.update(coset)
    return cosets


def coset_construction(gamma: FiniteGroup, h_subgroup: set[int] | frozenset[int],
                       t: set[int] | frozenset[int]) -> GraphPair:
    """Partitioned pair from a subgroup and a left-coset transversal.

    Red is the union of reflexive cliques on the left cosets of the
    subgroup; from a coset with transversal representative t0, the node
    t0*h points greenly at {t0*s*h : s in t}.
    """
    n = gamma.order
    check_elements(h_subgroup, n, "subgroup")
    check_elements(t, n, "transversal")
    hs = sorted(h_subgroup)
    ts = sorted(t)
    if gamma.identity not in hs:
        raise ValueError("subgroup must contain the identity")
    for x, y in product(hs, hs):
        if gamma.mul(x, y) not in h_subgroup:
            raise ValueError(f"not a subgroup: {x}*{y} escapes")
    # closure + identity + finiteness already forces inverses
    if gamma.identity not in ts:
        raise ValueError("transversal must contain the identity")
    cosets = _left_cosets(gamma, hs)
    reps = {}
    for coset in cosets:
        inside = [s for s in ts if s in coset]
        if len(inside) != 1:
            raise ValueError(
                f"transversal meets coset {coset} {len(inside)} times; "
                f"it must hit each left coset exactly once"
            )
        reps[coset] = inside[0]
    base = Partition(n, tuple(cosets))
    companions = []
    for coset in base.blocks:
        t0 = reps[coset]
        theta_blocks = []
        for x in hs:
            theta_blocks.append(tuple(sorted(
                gamma.mul(gamma.mul(t0, s), x) for s in ts
            )))
        companions.append(Partition(n, tuple(theta_blocks)))
    return partition_construction(PartitionSystem(base, tuple(companions)))
