"""Exhaustive censuses: rectangular tables, central groupoids (BB = J
matrices), and one-element blow-ups of rectangular bands.

Every rectangular table search is one row-major fill of an empty table,
``_rect_flats``: it keeps the symbols placed so far in each row and each
column, the orientation of ``core.line_symbol_sets``, and from those alone
takes the ones that fit the next cell.  The labeled count lists nothing:
``count_rectangular`` is a transfer over rows, each row a set partition of
the columns.  The band blow-ups run no search either: they are counted in
closed form, a sum over the periodic points of the corner maps, up to band
order 10 000.  The central
search works on the matrix model: row i's out-neighbours must index rows
that tile the column set.  BB = J forces BJ = JB, hence every row and
column sum equals sqrt(n) and the trace is sqrt(n), so loops can be pinned
to the first sqrt(n) indices.  The rows are set in index order, so one
blocked mask per row, the columns already covered in the lines the row
joins, stands for every tiling it takes part in; its own line's rows must
be pairwise disjoint, and a line with one row left forces that row.  The
relabelings that keep the loops first, Sym(0..m-1) x Sym(m..n-1), then act
on the solutions, and the isomorphism classes are their orbits.

Every class census deduplicates by orbit absorption (``_orbit_firsts``,
after McKay, "Isomorph-free exhaustive generation", 1998): the labeled
solutions are sorted, and each one that no earlier orbit has claimed starts
a new class, whose every image is looked up in the sorted list and marked.
Permuting rows, columns and symbols independently maps rectangles to
rectangles, so the rectangular tables of an order are closed under isotopy
as well as relabeling; the first member of each orbit met is the least
table of its class among those listed.  The images are isotopes by
``core.flat_isotopes``, h(a, b) = gamma^-1(g(alpha(a), beta(b))).  Relabeling
a matrix by p relabels its groupoid by p, so the central orbits are absorbed
over the solutions' tables by the same kernel, with alpha = beta = gamma.

Each census lists only the shards where a class's least table can lie, so
there is no worker pool (``jobs`` is checked but has no effect).  A table
with 0*0 = 0 is less than every table with 0*0 > 0.  gamma can rename any
symbol to 0, so every isotopy class has its least table in the 0*0 = 0
shard.  A relabeling moves an idempotent to 0, so an isomorphism class with
an idempotent has its least table there too; an idempotent-free class has
no member with 0*0 = 0, and relabeling 1 and 0*0 puts its least table in
the 0*0 = 1 shard.  No edge of a central matrix joins two loops, so its
first rows are the loop at 0 plus m - 1 non-loops: one orbit under
Sym(m..n-1), whose least row alone is searched.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, factorial, isqrt, prod

from .core import (
    CapacityError,
    Groupoid,
    Value,
    bits_of,
    check_order,
    flat_isotopes,
    make_groupoid,
    mask_of,
    set_field,
    two_step_middles,
)

RECT_LIST_BOUND = 3       # full labeled listing
RECT_COUNT_BOUND = 5      # labeled counting, by the row transfer
RECT_ISO_BOUND = 4        # isomorphism classes
RECT_ISOTOPY_BOUND = 3
ITER_BOUND = 5            # streaming generator
CENTRAL_BOUND = 16
ORBIT_BOUND = 10 ** 5     # largest relabeling group orbit absorption walks
BLOW_UP_BOUND = 10 ** 4   # band order n*m of the blow-up count


class CensusResult(Value):
    """A census's class count and, where listed, its tables; a band
    blow-up census gives the band's sides (n, m) as its order."""

    def __init__(self, order: int | tuple[int, int], mode: str, count: int,
                 tables: tuple[Groupoid, ...] | None, note: str | None = None):
        set_field(self, "order", order)
        set_field(self, "mode", mode)
        set_field(self, "count", count)
        set_field(self, "tables", tables)
        set_field(self, "note", note)


def _rect_flats(n: int, firsts):
    """Yield every rectangular order-n table whose entry 0*0 is in firsts,
    as a flat tuple, in lex order.

    The cells are filled in row-major order.  rows[r] and cols[c] are the
    bitsets of the symbols placed so far in row r and column c; above is
    the OR of the rows before r and left the OR of the columns before c.
    Every earlier cell is filled and every later one is empty, so y fits at
    (r, c) exactly when no other symbol is already in both row r and column
    c (its rectangle claims the cell), every earlier row holding y holds it
    in column c, and every earlier column holding y holds it in row r.  Two
    symbols in rows[r] & cols[c] leave no candidate, and one leaves only
    itself.  The candidates are taken low to high.
    """
    full, size = (1 << n) - 1, n * n
    rows, cols = [0] * n, [0] * n
    flat = [0] * size

    def fill(k, above, left):
        r, c = divmod(k, n)
        row, col = rows[r], cols[c]
        both = row & col
        if both & (both - 1):
            return
        fits = (both or full) & ~(above & ~col) & ~(left & ~row)
        for y in bits_of(fits if k else fits & mask_of(firsts)):
            rows[r], cols[c] = row | 1 << y, col | 1 << y
            flat[k] = y
            if k + 1 == size:
                yield tuple(flat)
            elif c + 1 == n:
                yield from fill(k + 1, above | rows[r], 0)
            else:
                yield from fill(k + 1, above, left | cols[c])
        rows[r], cols[c] = row, col

    yield from fill(0, 0, 0)


def iter_rectangular_tables(n: int):
    """Stream every rectangular groupoid of order n in lex table order."""
    check_order(n, bound=ITER_BOUND, limit="streaming is")
    return (make_groupoid(n, flat) for flat in _rect_flats(n, range(n)))


def _orbit_firsts(items: list, images) -> list:
    """The first member of each orbit met in a walk over the sorted list
    items; images(item) yields the item's whole orbit.

    Each time the walk meets an item no earlier orbit has claimed, every
    image of it is looked up in an index of items and marked, so the
    images are computed once per orbit, not once per item.  Images missing
    from items are ignored.
    """
    index = {item: i for i, item in enumerate(items)}
    seen = bytearray(len(items))
    firsts = []
    for i, item in enumerate(items):
        if seen[i]:
            continue
        firsts.append(item)
        for image in images(item):
            j = index.get(image)
            if j is not None:
                seen[j] = 1
    return firsts


def _column_partitions(n: int) -> list[tuple[int, ...]]:
    """Every set partition of the n columns, as a tuple of block bitmasks."""
    parts: list[tuple[int, ...]] = [()]
    for c in range(n):
        bit = 1 << c
        parts = [p[:i] + (b | bit,) + p[i + 1:] for p in parts for i, b in enumerate(p)] \
            + [p + (bit,) for p in parts]
    return parts


def count_rectangular(n: int) -> tuple[tuple[int, ...], int]:
    """(U(n, 1..n), the labeled count) for the rectangular tables of order n.

    U(n, k) counts the partitions of the n x n grid into k rectangles R x C;
    labeling them injectively by the n symbols gives n!/(n-k)! tables each.
    A transfer over rows: row r splits the columns into the column sets of
    its rectangles, a set partition.  The state is the multiset of column
    sets of the rectangles met so far, a sorted tuple of masks, so k_B, the
    number with column set B, is the multiplicity of B.  Each block B of
    the next row either opens a new rectangle (one more x) or joins one of
    the k_B open ones (weight k_B), the Stirling recurrence.  States with
    more than n rectangles can take no injective labeling and are dropped.
    """
    check_order(n, bound=RECT_COUNT_BOUND, limit="mode labeled is")
    parts = _column_partitions(n)
    states = {(): 1}
    for _ in range(n):
        after: dict[tuple[int, ...], int] = {}
        for state, ways in states.items():
            have = {b: state.count(b) for b in state}
            room = n - len(state)
            for part in parts:
                new = tuple(b for b in part if b not in have)
                old = [b for b in part if b in have]
                for j in range(min(len(old), room - len(new)) + 1):
                    for opened in combinations(old, j):
                        key = tuple(sorted(state + new + opened))
                        after[key] = after.get(key, 0) + ways * prod(
                            have[b] for b in old if b not in opened)
        states = after
    u = [0] * (n + 1)
    for state, ways in states.items():
        u[len(state)] += ways
    return tuple(u[1:]), sum(factorial(n) // factorial(n - k) * u[k] for k in range(1, n + 1))


def enumerate_rectangular(n: int, mode: str = "labeled", jobs: int = 1) -> CensusResult:
    """Census of rectangular groupoids of order n.

    mode "labeled": all tables, listed up to order 3 and counted by
    ``count_rectangular`` up to order 5.
    mode "isomorphism": the least labeled table of each isomorphism class,
    order <= 4.
    mode "isotopy": the least table of each isotopy class, order <= 3.

    The class modes absorb the orbits of the isotope kernel over the sorted
    tables of the shards that hold the least tables, as the module
    docstring says: isotopy over the 0*0 = 0 shard, isomorphism over it and
    then over the idempotent-free tables with 0*0 = 1, the 0 <-> 1 symbol
    swap of the first shard.  jobs is checked but has no effect.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    bound = {"labeled": RECT_COUNT_BOUND,
             "isomorphism": RECT_ISO_BOUND,
             "isotopy": RECT_ISOTOPY_BOUND}.get(mode)
    if bound is None:
        raise ValueError(f"unknown mode {mode!r}")
    check_order(n, bound=bound, limit=f"mode {mode} is")

    if mode == "labeled":
        if n > RECT_LIST_BOUND:
            return CensusResult(n, mode, count_rectangular(n)[1], None,
                                note=f"listing is bounded at order {RECT_LIST_BOUND}")
        tables = tuple(make_groupoid(n, f) for f in _rect_flats(n, range(n)))
        return CensusResult(n, mode, len(tables), tables)

    perms = list(permutations(range(n)))
    zero = list(_rect_flats(n, (0,)))
    if mode == "isotopy":
        firsts = _orbit_firsts(zero, flat_isotopes(n, list(product(perms, repeat=3))))
    else:
        images = flat_isotopes(n, [(s, s, s) for s in perms])
        swap = (1, 0, *range(2, n)) if n > 1 else (0,)
        # the swap of t is idempotent at a exactly where t[a][a] = swap[a]
        free = sorted(tuple([swap[y] for y in t]) for t in zero
                      if all(t[a * (n + 1)] != swap[a] for a in range(n)))
        firsts = _orbit_firsts(zero, images) + _orbit_firsts(free, images)
    tables = tuple(make_groupoid(n, f) for f in firsts)
    return CensusResult(n, mode, len(tables), tables)


def _row_candidates(m: int) -> list[list[int]]:
    """Per row index: the popcount-m masks obeying the pinned-loop rule.

    No edge joins two loops: if i and j were loops with i -> j, then
    i -> i -> j and i -> j -> j would be two paths.  So a loop row takes its
    m - 1 other columns from the non-loops m..n-1 only.
    """
    n = m * m
    cand: list[list[int]] = []
    for t in range(n):
        if t < m:
            masks = [1 << t | mask_of(rest) for rest in combinations(range(m, n), m - 1)]
        else:
            others = [j for j in range(n) if j != t]
            masks = [mask_of(rest) for rest in combinations(others, m)]
        masks.sort()
        cand.append(masks)
    return cand


def _central_solutions(m: int, first_row: int) -> list[tuple[int, ...]]:
    """All BB = J matrices with loops at rows 0..m-1 and row 0 first_row,
    as bitset row tuples in lex order.

    Rows are set in index order, so the unset rows are those after the
    current one.  Line i is the set of rows that row i indexes; each row has
    m ones, so a line tiles the columns exactly when its rows are pairwise
    disjoint.  union[i] is the OR of line i's rows set so far.  A candidate
    for row t must miss the blocked mask, the OR of the unions of the lines
    that row t joins, and the rows of its own line must be pairwise
    disjoint.  A line left with one unset row forces that row to the
    columns its union misses.
    """
    n = m * m
    full = (1 << n) - 1
    cand = _row_candidates(m)
    rows = [0] * n
    union = [0] * n
    forced: dict[int, int] = {}
    out: list[tuple[int, ...]] = []

    def force(k: int, fmask: int, trail: list[int]) -> bool:
        if (fmask >> k & 1) != (k < m) or fmask.bit_count() != m:
            return False
        if k in forced:
            return forced[k] == fmask
        forced[k] = fmask
        trail.append(k)
        return True

    def assign(t: int) -> None:
        if t == n:
            out.append(tuple(rows))
            return
        # a forced row replaces the candidates; force() checked its diagonal
        # bit and its popcount
        options = (forced[t],) if t in forced else cand[t]
        done = (2 << t) - 1  # rows 0..t, the rows set once row t is
        joined = [i for i in range(t) if rows[i] >> t & 1]
        blocked = 0
        for i in joined:
            blocked |= union[i]
        for mask in options:
            if mask & blocked:
                continue
            rows[t] = mask
            own = 0
            for k in bits_of(mask & done):
                if rows[k] & own:
                    break
                own |= rows[k]
            else:
                union[t] = own
                for i in joined:
                    union[i] |= mask
                trail: list[int] = []
                for i in joined + [t]:
                    rest = rows[i] & ~done
                    if rest.bit_count() == 1 and not force(
                            rest.bit_length() - 1, full ^ union[i], trail):
                        break
                else:
                    assign(t + 1)
                for k in trail:
                    del forced[k]
                for i in joined:
                    union[i] ^= mask

    if force(0, first_row, []):  # the first row is checked like a forced one
        assign(0)
    return out


def _loops_first_min(rows: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Minimum relabeling of a loops-first matrix over the permutations that
    keep loops first: the class representative of its orbit.

    Any isomorphism between two loops-first solutions maps loops to loops, so
    equal minima characterise isomorphic solutions exactly.  The census calls
    it once per class, on the first member of each orbit, and on every
    solution only where an orbit is too large to absorb.  Cells are compared
    in growing-corner order, layer d being (i, d) for i < d, then (d, j) for
    j <= d, so a partial relabeling fixes a prefix of the cell sequence and
    a branch is cut once its prefix exceeds the best sequence's.
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


def _central_table(rows: tuple[int, ...]) -> Groupoid:
    """The central groupoid of a BB = J matrix: a*b is the middle of the
    unique path a -> c -> b in the graph of B (Knuth 1970)."""
    table, bad = two_step_middles(rows, rows)
    if bad is not None:
        raise RuntimeError(f"central search returned a matrix B with B*B != J: "
                           f"witness {bad}")
    return Groupoid(len(rows), table)


def enumerate_central(n: int, long_run: bool = False, jobs: int = 1) -> CensusResult:
    """Census of central groupoids of order n, up to isomorphism.

    Orders must be perfect squares; non-squares report zero solutions.
    Order 16 is far beyond desk scale and must be requested with long_run.

    Row 0 is its loop plus m - 1 non-loops (``_row_candidates``), and
    Sym(m..n-1) moves any such row to the least one, so the search runs
    that row alone.  jobs is checked but has no effect.
    """
    check_order(n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    m = isqrt(n)
    if m * m != n:
        return CensusResult(n, "isomorphism", 0, (),
                            note="no central groupoids: order is not a perfect square")
    check_order(n, bound=CENTRAL_BOUND, limit="central census is")
    if n == 16 and not long_run:
        raise CapacityError("order 16 is far beyond desk scale; pass long_run or --long-run")

    solutions = _central_solutions(m, _row_candidates(m)[0][0])
    if factorial(m) * factorial(n - m) <= ORBIT_BOUND:
        rows_of = {_central_table(rows).flat(): rows for rows in solutions}
        loops_first = [(p, p, p) for p in (lo + hi for lo in permutations(range(m))
                                           for hi in permutations(range(m, n)))]
        solutions = [rows_of[flat] for flat in
                     _orbit_firsts(sorted(rows_of), flat_isotopes(n, loops_first))]
    reps = {_loops_first_min(rows, m) for rows in solutions}
    tables = sorted(map(_central_table, reps), key=Groupoid.flat)
    return CensusResult(n, "isomorphism", len(tables), tuple(tables))


def enumerate_band_blow_ups(n: int, m: int) -> int:
    """Count one-element extensions of the n x m rectangular band whose
    result is rectangular with every product inside the band.

    Such an extension by e is fixed by its new row, e*(c,d) = (f(d), d) for
    a map f from the m column indices to the n row indices, and its new
    column, (a,b)*e = (a, g(a)) for a map g back.  It is rectangular exactly
    when g o f has exactly one fixed point q, which pins e*e = (f(q), q).  So
    the result is the number of map pairs (f, g) where g o f has exactly one
    fixed point, counted in closed form by the number k of periodic points
    of g o f.  They lie on alternating cycles through k points of each
    side, chosen in C(n,k) C(m,k) ways; f maps them onto each other in k!
    ways and g in the k D(k-1) ways that leave g o f one fixed point, D
    counting derangements; the other points form a rooted forest onto the
    cycles, in k(n+m-k) n^(m-k-1) m^(n-k-1) ways.  The k = 1 term is the
    paper's n^(m-1) m^(n-1) (n+m-1), the only one when min(n, m) <= 2; at
    3 x 3 the terms are 405 + 0 + 18 = 423.
    """
    for side in (n, m):
        check_order(side, "side")
    check_order(n * m, bound=BLOW_UP_BOUND, limit="band blow-up census is")
    total, derangements, before = 0, 1, 0  # D(k-1) and D(k-2)
    for k in range(1, min(n, m) + 1):
        # an exponent is -1 where k = m or k = n: raise both by one and
        # divide n m back out, which is exact
        forest = k * (n + m - k) * n ** (m - k) * m ** (n - k) // (n * m)
        total += comb(n, k) * comb(m, k) * factorial(k) * k * derangements * forest
        derangements, before = (k - 1) * (derangements + before), derangements
    return total
