"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's bitset machinery: literal
quantifier loops, plain integer matrix products, and set bookkeeping, so a
disagreement always points at exactly one side.
"""

import warnings
from itertools import combinations, permutations, product
from math import comb

from rectangular.core import BoolMatrix, GraphPair, Groupoid, PartialArray


def quasi_rectangular(g: Groupoid) -> bool:
    """Literal check of: a*b = c*d = x  implies  a*d = c*b = x."""
    t = g.table
    n = g.order
    for a, b, c, d in product(range(n), repeat=4):
        x = t[a][b]
        if t[c][d] == x and (t[a][d] != x or t[c][b] != x):
            return False
    return True


def p1_by_sets(g: Groupoid) -> bool:
    """Pair-disjointness via explicit pair sets."""
    row_pairs = set()
    col_pairs = set()
    n = g.order
    for i in range(n):
        row = [g.table[i][j] for j in range(n)]
        col = [g.table[j][i] for j in range(n)]
        for bucket, line in ((row_pairs, row), (col_pairs, col)):
            for x, y in combinations(sorted(set(line)), 2):
                bucket.add((x, y))
    return not row_pairs & col_pairs


def shared_pair_witness(cells) -> tuple[int, int, int, int] | None:
    """First (x, y, row, col), x then y ascending, with the symbols x != y
    both in some row and both in some column, which are the first such."""
    n = len(cells)
    rows = [set(row) for row in cells]
    cols = [set(col) for col in zip(*cells)]
    for x in range(n):
        for y in range(n):
            both_rows = [i for i in range(n) if {x, y} <= rows[i]]
            both_cols = [j for j in range(n) if {x, y} <= cols[j]]
            if x != y and both_rows and both_cols:
                return (x, y, both_rows[0], both_cols[0])
    return None


def two_step_by_counting(n: int, first: set, second: set):
    """Middle nodes of the unique paths a -> c -> b over two edge sets.

    Returns (table, None) with table[a][b] = c, or (None, (a, b, count))
    for the first pair in row-major order without exactly one such path.
    """
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            paths = [c for c in range(n) if (a, c) in first and (c, b) in second]
            if len(paths) != 1:
                return None, (a, b, len(paths))
            row.append(paths[0])
        table.append(tuple(row))
    return tuple(table), None


def p2_by_counting(gp: GraphPair) -> bool:
    return two_step_by_counting(gp.order, gp.red_edges(), gp.green_edges())[1] is None


def incidence_edges(g: Groupoid) -> tuple[set, set]:
    """Red edges (a, a*b) and green edges (a*b, b) of the groupoid's graph pair."""
    n = g.order
    red = {(a, g.table[a][b]) for a in range(n) for b in range(n)}
    green = {(g.table[a][b], b) for a in range(n) for b in range(n)}
    return red, green


_IDEMPOTENT = (1, lambda t, a: t[a][a] == a)

# Each equational predicate as its equations, taken in turn: (number of
# variables, the equation as a test on one tuple of values).
LITERAL_IDENTITIES = {
    "idempotence_violation": [_IDEMPOTENT],
    "associativity_violation": [(3, lambda t, a, b, c: t[t[a][b]][c] == t[a][t[b][c]])],
    "centrality_violation": [(3, lambda t, x, y, z: t[t[x][y]][t[y][z]] == y)],
    "undirected_eq_violation": [(3, lambda t, a, b, c: t[t[a][b]][t[c][a]] == a)],
    "partitioned_eqs_violation": [
        _IDEMPOTENT, (3, lambda t, a, b, c: t[t[a][b]][c] == t[a][c])],
    "dually_partitioned_eqs_violation": [
        _IDEMPOTENT, (3, lambda t, a, b, c: t[a][t[b][c]] == t[a][c])],
    "left_reabsorption_violation": [(2, lambda t, a, b: t[a][t[a][b]] == t[a][b])],
    "right_reabsorption_violation": [(2, lambda t, a, b: t[t[a][b]][b] == t[a][b])],
}


def literal_identity_violation(name: str, g: Groupoid):
    """The first failing tuple of the predicate's first failing equation,
    each equation scanned over product(range(n), repeat=k)."""
    for arity, holds in LITERAL_IDENTITIES[name]:
        for values in product(range(g.order), repeat=arity):
            if not holds(g.table, *values):
                return values
    return None


class _Element:
    """A symbol of a table; Python's * on two of them is the table's product."""

    def __init__(self, table, value):
        self.table, self.value = table, value

    def __mul__(self, other):
        if not isinstance(other, _Element):
            return NotImplemented
        return _Element(self.table, self.table[self.value][other.value])


def identity_violation_by_eval(g: Groupoid, identity: str):
    """The first failing tuple of product(range(n), repeat=k) over the k
    letters of identity in alphabetical order, each side read by Python's
    own parser with * as the table's product; None where it holds, and
    "malformed" where Python cannot read both sides as products of letters.
    """
    sides = identity.split("=")
    if len(sides) != 2:
        return "malformed"
    names = sorted({ch for ch in identity if ch.isalpha()})
    for values in product(range(g.order), repeat=len(names)):
        env = {name: _Element(g.table, v) for name, v in zip(names, values)}
        try:
            with warnings.catch_warnings():
                # a string such as "1(x)" compiles with a SyntaxWarning
                # before it fails with a TypeError
                warnings.simplefilter("ignore", SyntaxWarning)
                left, right = (eval(side, {"__builtins__": {}}, env) for side in sides)
        except (SyntaxError, TypeError, NameError):
            return "malformed"
        if not (isinstance(left, _Element) and isinstance(right, _Element)):
            return "malformed"
        if left.value != right.value:
            return values
    return None


def matmul(a: BoolMatrix, b: BoolMatrix) -> list[list[int]]:
    n = a.order
    ag, bg = a.to_grid(), b.to_grid()
    return [[sum(ag[i][k] * bg[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def all_tables(n: int):
    """Every groupoid of order n (n^(n*n) of them; keep n tiny)."""
    for flat in product(range(n), repeat=n * n):
        yield Groupoid(n, tuple(flat[i * n:(i + 1) * n] for i in range(n)))


def automorphism_count(g: Groupoid) -> int:
    n = g.order
    count = 0
    for sigma in permutations(range(n)):
        if all(sigma[g.table[a][b]] == g.table[sigma[a]][sigma[b]]
               for a in range(n) for b in range(n)):
            count += 1
    return count


def automorphism_count_by_idempotents(g: Groupoid) -> int:
    """automorphism_count(g), with the candidates cut to the permutations
    that map idempotents to idempotents, as every automorphism does."""
    n = g.order
    fixed = [a for a in range(n) if g.table[a][a] == a]
    moved = [a for a in range(n) if g.table[a][a] != a]
    count = 0
    for images in product(permutations(fixed), permutations(moved)):
        sigma = dict(zip(fixed + moved, images[0] + images[1]))
        if all(sigma[g.table[a][b]] == g.table[sigma[a]][sigma[b]]
               for a in range(n) for b in range(n)):
            count += 1
    return count


def isotopy_reps_by_merging(iso_reps) -> tuple[Groupoid, ...]:
    """The least member of each isotopy class, by merging the isomorphism
    class representatives pairwise with are_isotopic, the slow path that
    the isotopy census's orbit absorption replaces."""
    from rectangular.isotopy import are_isotopic

    classes: list[list[Groupoid]] = []
    for g in iso_reps:
        for cls in classes:
            if are_isotopic(cls[0], g) is not None:
                cls.append(g)
                break
        else:
            classes.append([g])
    return tuple(sorted((min(cls, key=Groupoid.flat) for cls in classes),
                        key=Groupoid.flat))


def random_groupoid(rng, n: int) -> Groupoid:
    return Groupoid(n, tuple(tuple(rng.randrange(n) for _ in range(n))
                             for _ in range(n)))


def random_partial(rng, n: int, fill: float) -> PartialArray:
    cells = tuple(
        tuple(rng.randrange(n) if rng.random() < fill else None
              for _ in range(n))
        for _ in range(n)
    )
    return PartialArray(n, cells)


def random_graph_pair(rng, n: int) -> GraphPair:
    rows = lambda: tuple(rng.randrange(1 << n) for _ in range(n))
    return GraphPair(n, rows(), rows())


def random_permutation(rng, n: int) -> tuple[int, ...]:
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def blow_up_count_exact(n: int, m: int) -> int:
    """Inclusion-exclusion over the coincidence points of the corner maps.

    A one-element blow-up of the n x m band is a pair of maps f: B->A (new
    row, one value per column block) and g: A->B (new column) such that
    g(f(b)) = b for exactly one b, which pins the corner.
    """
    return sum((-1) ** (k - 1) * k * comb(m, k) * falling(n, k)
               * n ** (m - k) * m ** (n - k)
               for k in range(1, min(n, m) + 1))


def blow_up_pair_counts(n: int, m: int) -> tuple[int, int]:
    """Walk all n^m * m^n corner map pairs f: B->A, g: A->B of the n x m band.

    Returns the number of pairs where g o f has exactly one fixed point (the
    blow-up count) and the number where that fixed point is also the only
    periodic point of g o f (spanning trees of K_{n,m} with a marked edge).
    """
    exact = single = 0
    for f in product(range(n), repeat=m):
        for g in product(range(m), repeat=n):
            h = [g[f[b]] for b in range(m)]
            if sum(1 for b in range(m) if h[b] == b) != 1:
                continue
            exact += 1
            # m steps carry every point of B onto the cycle it falls into
            periodic = set()
            for b in range(m):
                for _ in range(m):
                    b = h[b]
                periodic.add(b)
            if len(periodic) == 1:
                single += 1
    return exact, single


def symmetric_group_3():
    """Cayley table of the permutations of three points."""
    from rectangular.core import FiniteGroup

    elems = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(elems)}
    table = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in elems)
        for p in elems
    )
    return FiniteGroup(6, table)
