"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's bitset machinery: literal
quantifier loops, plain integer matrix products, and set bookkeeping, so a
disagreement always points at exactly one side.  The one exception is the
census's former placement engine, ``_placements`` with its cell check
``_can_place``: it fills any given cells of a partial table from per-cell
options, keeping each symbol's row and column masks.  It produced the pinned
blow-up counts, which ``blow_up_count_by_search`` recounts with it, and
``rect_flats_by_placement`` is the reference for the census's row-major
rectangular search.  Likewise ``loops_first_min`` is the central census's
former representative walk over bitset rows, kept as the canonical form
that compares the orderly census with its unpruned search.
"""

import warnings
from itertools import combinations, islice, permutations, product
from math import comb

from rectangular.construct import rectangular_band
from rectangular.core import (
    BoolMatrix,
    GraphPair,
    Groupoid,
    PartialArray,
    flat_isotopes,
    line_symbol_sets,
    mask_of,
    transpose_bits,
)


def quasi_rectangular(g: Groupoid) -> bool:
    """Literal check of: a*b = c*d = x  implies  a*d = c*b = x."""
    t = g.table
    n = g.order
    for a, b, c, d in product(range(n), repeat=4):
        x = t[a][b]
        if t[c][d] == x and (t[a][d] != x or t[c][b] != x):
            return False
    return True


def rectangularity_witness(g: Groupoid) -> tuple[int, int, int] | None:
    """The least symbol x whose cells are not all of its rows x its
    columns, with the first cell of that product, in row-major order, that
    does not hold x; None where every symbol fills its rectangle."""
    n = g.order
    cells = {x: set() for x in range(n)}
    for a in range(n):
        for b in range(n):
            cells[g.table[a][b]].add((a, b))
    for x in range(n):
        rows = sorted({a for a, _ in cells[x]})
        cols = sorted({b for _, b in cells[x]})
        for r in rows:
            for c in cols:
                if (r, c) not in cells[x]:
                    return (x, r, c)
    return None


def missing_symbol(g: Groupoid) -> tuple[int] | None:
    """The least symbol that occurs in no row of the table, or None."""
    for x in range(g.order):
        if all(x not in row for row in g.table):
            return (x,)
    return None


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


class _Elements:
    """Symbols of a table, one per tuple of a block of tuples; Python's * on
    two of them is the table's product, tuple by tuple."""

    def __init__(self, table, values):
        self.table, self.values = table, values

    def __mul__(self, other):
        if not isinstance(other, _Elements):
            return NotImplemented
        return _Elements(self.table, [self.table[a][b]
                                      for a, b in zip(self.values, other.values)])


def identity_violation_by_eval(g: Groupoid, identity: str):
    """The first failing tuple of product(range(n), repeat=k) over the k
    letters of identity in alphabetical order, each side read by Python's
    own parser with * as the table's product; None where it holds, and
    "malformed" where Python cannot read both sides as products of letters.

    Each side is evaluated on a block of consecutive tuples at once.
    """
    sides = identity.split("=")
    if len(sides) != 2:
        return "malformed"
    names = sorted({ch for ch in identity if ch.isalpha()})
    try:
        with warnings.catch_warnings():
            # a string such as "1(x)" compiles with a SyntaxWarning
            # before it fails with a TypeError
            warnings.simplefilter("ignore", SyntaxWarning)
            # eval drops the leading blanks of a string; compile does not
            codes = [compile(side.lstrip(" \t"), "<side>", "eval") for side in sides]
    except SyntaxError:
        return "malformed"
    tuples = product(range(g.order), repeat=len(names))
    while block := list(islice(tuples, 4096)):
        env = {name: _Elements(g.table, list(column))
               for name, column in zip(names, zip(*block))}
        try:
            left, right = (eval(code, {"__builtins__": {}}, env) for code in codes)
        except (TypeError, NameError):
            return "malformed"
        if not (isinstance(left, _Elements) and isinstance(right, _Elements)):
            return "malformed"
        for values, u, v in zip(block, left.values, right.values):
            if u != v:
                return values
    return None


def isotopic_by_triples(g: Groupoid, h: Groupoid):
    """The first (alpha, beta, gamma) image sequences, in lexicographic
    order, with h(a, b) = gamma^-1(g(alpha(a), beta(b))) in every cell, or
    None: a literal walk over all n!^3 triples."""
    n = g.order
    for alpha, beta, gamma in product(permutations(range(n)), repeat=3):
        if all(gamma[h.table[a][b]] == g.table[alpha[a]][beta[b]]
               for a in range(n) for b in range(n)):
            return alpha, beta, gamma
    return None


def least_relabeling(g: Groupoid) -> tuple[int, ...]:
    """The least flattened table h, over every sigma in Sym(n), with
    h[sigma(a)][sigma(b)] = sigma(g[a][b]) in every cell."""
    n = g.order
    best = None
    for sigma in permutations(range(n)):
        h = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                h[sigma[a]][sigma[b]] = sigma[g.table[a][b]]
        flat = tuple(e for row in h for e in row)
        if best is None or flat < best:
            best = flat
    return best


def first_isomorphism(g: Groupoid, h: Groupoid) -> tuple[int, ...] | None:
    """The first sigma of permutations(range(n)) with
    h[sigma(a)][sigma(b)] = sigma(g[a][b]) in every cell, or None."""
    n = g.order
    for sigma in permutations(range(n)):
        if all(h.table[sigma[a]][sigma[b]] == sigma[g.table[a][b]]
               for a in range(n) for b in range(n)):
            return sigma
    return None


def render_bit_row(row: int, order: int) -> str:
    """Bit j of row as character j, one bit at a time."""
    return "".join("1" if row >> j & 1 else "0" for j in range(order))


def parse_bit_row(raw: str, order: int) -> int | None:
    """The row whose bit j is character j of raw, one character at a time;
    None unless raw is exactly order characters of 0 and 1."""
    if len(raw) != order or any(ch not in "01" for ch in raw):
        return None
    return sum(1 << j for j, ch in enumerate(raw) if ch == "1")


def matmul(a: BoolMatrix, b: BoolMatrix) -> list[list[int]]:
    n = a.order
    ag, bg = a.to_grid(), b.to_grid()
    return [[sum(ag[i][k] * bg[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def all_tables(n: int):
    """Every groupoid of order n (n^(n*n) of them; keep n tiny)."""
    for flat in product(range(n), repeat=n * n):
        yield Groupoid(n, tuple(flat[i * n:(i + 1) * n] for i in range(n)))


def monoid_tables(n: int):
    """Every associative table on 0..n-1 with identity 0, as row tuples
    (1, 2, 11 and 156 at orders 1 to 4; keep n tiny)."""
    free = range(1, n)
    for cells in product(range(n), repeat=(n - 1) ** 2):
        t = [tuple(range(n))] + [(a, *cells[(a - 1) * (n - 1):a * (n - 1)]) for a in free]
        if all(t[t[x][y]][z] == t[x][t[y][z]] for x in free for y in free for z in free):
            yield tuple(t)


def first_without_inverse(table, identity: int) -> int | None:
    """The first a with no b such that a*b = identity = b*a: the literal
    two-sided scan over pairs."""
    n = len(table)
    return next((a for a in range(n)
                 if not any(table[a][b] == identity == table[b][a] for b in range(n))),
                None)


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


def flat_matrix(rows) -> tuple[int, ...]:
    """A 0/1 matrix of bitset rows as its row-major tuple of entries."""
    n = len(rows)
    return tuple(rows[i] >> j & 1 for i in range(n) for j in range(n))


def loops_first_orbit(rows, m: int) -> set[tuple[int, ...]]:
    """Every relabeling of an order-m*m matrix by a permutation that keeps
    0..m-1 first, as flat 0/1 tuples: its images by the isotope kernel with
    alpha = beta = p and gamma the identity."""
    n = m * m
    ident = tuple(range(n))
    perms = [lo + hi for lo in permutations(range(m)) for hi in permutations(range(m, n))]
    return set(flat_isotopes(n, [(p, p, ident) for p in perms])(flat_matrix(rows)))


def loops_first_min(rows: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Minimum relabeling of a loops-first matrix over the permutations that
    keep loops first: the class representative of its orbit.

    Any isomorphism between two loops-first solutions maps loops to loops, so
    equal minima characterise isomorphic solutions exactly.  Cells are
    compared in growing-corner order, layer d being (i, d) for i < d, then
    (d, j) for j <= d, so a partial relabeling fixes a prefix of the cell
    sequence and a branch is cut once its prefix exceeds the best sequence's.
    """
    n = m * m
    best: list[int] = []
    best_p: list[int] = []
    p: list[int] = []
    prefix: list[int] = []

    def dfs(d: int) -> None:
        nonlocal best, best_p
        if d == n:
            if not best or prefix < best:
                best, best_p = prefix.copy(), p.copy()
            return
        lo, hi = (0, m) if d < m else (m, n)
        for orig in range(lo, hi):
            if orig in p:
                continue
            p.append(orig)
            prefix.extend([rows[p[i]] >> orig & 1 for i in range(d)])
            prefix.extend([rows[orig] >> p[j] & 1 for j in range(d + 1)])
            if not best or prefix <= best[:len(prefix)]:
                dfs(d + 1)
            del prefix[len(prefix) - 2 * d - 1:]
            p.pop()

    dfs(0)
    return tuple(mask_of(j for j in range(n) if rows[best_p[i]] >> best_p[j] & 1)
                 for i in range(n))


def central_matrices_by_row_subsets(m: int):
    """Yield every order-m*m 0/1 matrix B with BB = J and loops exactly at
    0..m-1, each as its tuple of rows, a row being the frozenset of its
    columns.

    BB = J says that the rows indexed by row i, line i, tile the columns;
    every row an m-subset, that is the same as line i's rows being pairwise
    disjoint.  So the search takes m-subsets as rows, row i holding i exactly
    when i < m, and keeps each line's set rows pairwise disjoint, so that a
    complete line tiles the columns.  An unset row must miss every set row
    of each line it joins; the next row set is an unset row with the fewest
    subsets left, so a line with one unset row forces that row, its only
    subset being the columns the line misses.
    """
    n = m * m
    subsets = [set(c) for c in combinations(range(n), m)]
    candidates = [[s for s in subsets if (i in s) == (i < m)] for i in range(n)]
    rows: list[set | None] = [None] * n

    def search():
        blocked = {t: set() for t in range(n) if rows[t] is None}
        for line in rows:
            if line is None:
                continue
            members = [rows[j] for j in line if rows[j] is not None]
            seen = set().union(*members)
            if len(seen) != m * len(members):
                return
            for j in line:
                if rows[j] is None:
                    blocked[j] |= seen
        if not blocked:
            yield tuple(map(frozenset, rows))
            return
        options = {t: [s for s in candidates[t] if not s & b] for t, b in blocked.items()}
        t = min(options, key=lambda t: len(options[t]))
        for s in options[t]:
            rows[t] = s
            yield from search()
        rows[t] = None

    yield from search()


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


def one_cell_change(g: Groupoid, a: int, b: int) -> Groupoid:
    """g with the symbol in cell (a, b) moved on to the next one, mod n."""
    rows = [list(row) for row in g.table]
    rows[a][b] = (rows[a][b] + 1) % g.order
    return Groupoid(g.order, tuple(map(tuple, rows)))


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


def _can_place(n, table, row_masks, col_masks, r, c, y) -> bool:
    """May symbol y go at (r, c) without breaking any symbol's rectangle?"""
    rbit = 1 << r
    cbit = 1 << c
    for z in range(n):
        if z != y and row_masks[z] & rbit and col_masks[z] & cbit:
            return False  # cell is demanded by z's rectangle
    rm = row_masks[y]
    while rm:
        low = rm & -rm
        rm ^= low
        z = table[low.bit_length() - 1][c]
        if z is not None and z != y:
            return False
    cm = col_masks[y]
    trow = table[r]
    while cm:
        low = cm & -cm
        cm ^= low
        z = trow[low.bit_length() - 1]
        if z is not None and z != y:
            return False
    return True


def _placements(table: list[list[int | None]], cells: list[tuple[int, int]], options: list):
    """Fill cells[k] of the partial table from options[k], in order, keeping
    every symbol's rectangle consistent; None marks an empty cell.

    Each symbol's row and column masks start as the transposes of the
    table's ``core.line_symbol_sets``.  Yields the table itself, filled in place,
    once per complete filling.  ``rect_flats_by_placement`` starts from an
    empty table; ``blow_up_count_by_search`` starts from the band with its
    new row and column empty.
    """
    n = len(table)
    row_masks, col_masks = (list(transpose_bits(sets, n)) for sets in line_symbol_sets(table))

    def dfs(idx):
        if idx == len(cells):
            yield table
            return
        r, c = cells[idx]
        for y in options[idx]:
            if not _can_place(n, table, row_masks, col_masks, r, c, y):
                continue
            old_rm, old_cm = row_masks[y], col_masks[y]
            table[r][c] = y
            row_masks[y] |= 1 << r
            col_masks[y] |= 1 << c
            yield from dfs(idx + 1)
            table[r][c] = None
            row_masks[y], col_masks[y] = old_rm, old_cm

    yield from dfs(0)


def rect_flats_by_placement(n: int, firsts):
    """Yield every rectangular order-n table whose entry 0*0 is in firsts,
    as a flat tuple, in lex order: ``_placements`` on an empty table, its
    cells in row-major order."""
    cells = [(r, c) for r in range(n) for c in range(n)]
    options = [firsts] + [range(n)] * (n * n - 1)
    for table in _placements([[None] * n for _ in range(n)], cells, options):
        yield tuple([y for row in table for y in row])


def blow_up_count_by_search(n: int, m: int) -> int:
    """Count the blow-ups of the n x m band by cell search: the band's table
    with an empty new row and column, filled by the former census placement engine
    with products inside the band, each symbol's cells kept a rectangle."""
    band = rectangular_band(n, m)
    size = n * m
    e = size  # the new element: fill its row and column around the band
    table = [list(row) + [None] for row in band.table] + [[None] * (size + 1)]
    cells = [(e, y) for y in range(size + 1)] + [(x, e) for x in range(size)]
    # products stay inside the band
    return sum(1 for _ in _placements(table, cells, [range(size)] * len(cells)))


def blow_up_pair_counts(n: int, m: int) -> dict[int, int]:
    """Walk all n^m * m^n corner map pairs f: B->A, g: A->B of the n x m band.

    Counts the pairs where g o f has exactly one fixed point (the blow-ups)
    by the number k of periodic points of g o f.  The k = 1 pairs, whose
    fixed point is the only periodic point, are the spanning trees of
    K_{n,m} with a marked edge.
    """
    counts: dict[int, int] = {}
    for f in product(range(n), repeat=m):
        for g in product(range(m), repeat=n):
            h = [g[f[b]] for b in range(m)]
            if sum(1 for b in range(m) if h[b] == b) != 1:
                continue
            # m steps carry every point of B onto the cycle it falls into
            periodic = set()
            for b in range(m):
                for _ in range(m):
                    b = h[b]
                periodic.add(b)
            counts[len(periodic)] = counts.get(len(periodic), 0) + 1
    return counts


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


def rect_census_by_full_absorption(n: int, mode: str) -> list[tuple[int, ...]]:
    """The least flat table of each isomorphism or isotopy class of
    rectangular order-n tables, sorted, by absorbing orbits over every
    labeled table: the tables with 0*0 = 0, renamed by the symbol swap
    0 <-> v for every v, all n shards sorted together, and every orbit
    absorbed over the whole list by bisection."""
    from bisect import bisect_left

    from rectangular.census import _rect_flats

    flats = [f for f in _rect_flats(n) if f[0] == 0]
    base = len(flats)
    for v in range(1, n):
        swap = [v if y == 0 else 0 if y == v else y for y in range(n)]
        flats.extend(tuple([swap[y] for y in flats[i]]) for i in range(base))
    flats.sort()
    perms = list(permutations(range(n)))
    triples = ([(s, s, s) for s in perms] if mode == "isomorphism"
               else list(product(perms, repeat=3)))
    images = flat_isotopes(n, triples)
    seen = bytearray(len(flats))
    firsts = []
    for i, flat in enumerate(flats):
        if seen[i]:
            continue
        firsts.append(flat)
        for image in images(flat):
            j = bisect_left(flats, image)
            if j < len(flats) and flats[j] == image:
                seen[j] = 1
    return firsts


def abelian_group_table(*moduli: int) -> tuple[tuple[int, ...], ...]:
    """The Cayley table of Z_m1 x ... x Z_mk, its elements the tuples of
    product() over the moduli in order, each sum looked up in a dict."""
    elements = list(product(*(range(m) for m in moduli)))
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[tuple((a + b) % m for a, b, m in zip(x, y, moduli))]
                       for y in elements)
                 for x in elements)


def stirling2(n: int, k: int) -> int:
    """S(n, k), the partitions of n things into k nonempty sets, by the
    recurrence S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
