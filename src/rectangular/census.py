"""Exhaustive censuses: rectangular tables, central groupoids (BB = J
matrices), and one-element blow-ups of rectangular bands.

Every rectangular search, the band blow-ups included, runs through one
placement engine, ``_placements``: it fills given cells of a partial table
and keeps each symbol's cells a rectangle at every step.  The central
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
as well as relabeling; the first member of each isomorphism or isotopy
orbit is the least table of its class.  The images are isotopes by
``core.flat_isotopes``, h(a, b) = gamma^-1(g(alpha(a), beta(b))).

Each census searches one first cell or one first row; symmetry gives the
rest, so there is no worker pool (``jobs`` is checked but has no effect).
Renaming symbols 0 and v maps the rectangular tables with 0*0 = 0 onto
those with 0*0 = v.  No edge of a central matrix joins two loops, so its
first rows are the loop at 0 plus m - 1 non-loops: one orbit under
Sym(m..n-1), whose least row alone is searched.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import factorial, isqrt

from .construct import rectangular_band
from .core import (
    CapacityError,
    Groupoid,
    bits_of,
    flat_isotopes,
    make_groupoid,
    mask_of,
    two_step_middles,
)

RECT_LIST_BOUND = 3       # full labeled listing
RECT_COUNT_BOUND = 4      # labeled counting / isomorphism classes
RECT_ISOTOPY_BOUND = 3
ITER_BOUND = 5            # streaming generator
CENTRAL_BOUND = 16
ORBIT_BOUND = 10 ** 5     # largest relabeling group orbit absorption walks
BLOW_UP_BOUND = 12


@dataclass(frozen=True)
class CensusResult:
    order: int | tuple[int, int]  # a band blow-up census gives the band's sides
    mode: str
    count: int
    tables: tuple[Groupoid, ...] | None
    note: str | None = None


def _can_place(n, table, filled, row_masks, col_masks, r, c, y) -> bool:
    """May symbol y go at (r, c) without breaking any symbol's rectangle?"""
    rbit = 1 << r
    cbit = 1 << c
    for z in range(n):
        if z != y and row_masks[z] & rbit and col_masks[z] & cbit:
            return False  # cell is demanded by z's rectangle
    rm = row_masks[y]
    while rm:
        low = rm & -rm
        r2 = low.bit_length() - 1
        rm ^= low
        if filled[r2] & cbit and table[r2][c] != y:
            return False
    cm = col_masks[y]
    frow = filled[r]
    trow = table[r]
    while cm:
        low = cm & -cm
        c2 = low.bit_length() - 1
        cm ^= low
        if frow >> c2 & 1 and trow[c2] != y:
            return False
    return True


def _placements(table: list[list[int]], cells: list[tuple[int, int]], options: list):
    """Fill cells[k] of the partial table from options[k], in order, keeping
    every symbol's rectangle consistent; -1 marks an empty cell.

    Yields the table itself, filled in place, once per complete filling.
    """
    n = len(table)
    filled = [0] * n
    row_masks = [0] * n
    col_masks = [0] * n
    for r, row in enumerate(table):
        for c, y in enumerate(row):
            if y >= 0:
                filled[r] |= 1 << c
                row_masks[y] |= 1 << r
                col_masks[y] |= 1 << c

    def dfs(idx):
        if idx == len(cells):
            yield table
            return
        r, c = cells[idx]
        for y in options[idx]:
            if not _can_place(n, table, filled, row_masks, col_masks, r, c, y):
                continue
            old_rm, old_cm = row_masks[y], col_masks[y]
            table[r][c] = y
            filled[r] |= 1 << c
            row_masks[y] |= 1 << r
            col_masks[y] |= 1 << c
            yield from dfs(idx + 1)
            table[r][c] = -1
            filled[r] &= ~(1 << c)
            row_masks[y], col_masks[y] = old_rm, old_cm

    yield from dfs(0)


def _rect_flats(n: int, firsts):
    """Yield every rectangular order-n table whose entry 0*0 is in firsts,
    as a flat tuple, in lex order."""
    cells = [(r, c) for r in range(n) for c in range(n)]
    options = [firsts] + [range(n)] * (n * n - 1)
    for table in _placements([[-1] * n for _ in range(n)], cells, options):
        yield tuple([y for row in table for y in row])


def iter_rectangular_tables(n: int):
    """Stream every rectangular groupoid of order n in lex table order."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > ITER_BOUND:
        raise CapacityError(f"streaming bound is order {ITER_BOUND}")
    for flat in _rect_flats(n, range(n)):
        yield make_groupoid(n, flat)


def _orbit_firsts(items: list, images) -> list:
    """The first member of each orbit met in a walk over the sorted list
    items; images(item) yields the item's whole orbit.

    Each time the walk meets an item no earlier orbit has claimed, every
    image of it is looked up in items by bisection and marked, so the
    images are computed once per orbit, not once per item.  Images missing
    from items are ignored.
    """
    seen = bytearray(len(items))
    firsts = []
    for i, item in enumerate(items):
        if seen[i]:
            continue
        firsts.append(item)
        for image in images(item):
            j = bisect_left(items, image)
            if j < len(items) and items[j] == image:
                seen[j] = 1
    return firsts


def enumerate_rectangular(n: int, mode: str = "labeled", jobs: int = 1) -> CensusResult:
    """Census of rectangular groupoids of order n.

    mode "labeled": all tables (listed up to order 3, counted at order 4).
    mode "isomorphism": canonical class representatives, order <= 4.
    mode "isotopy": the least table of each isotopy class, order <= 3.

    Every mode searches only the tables with 0*0 = 0 and gets the rest by
    renaming symbols 0 and v; the class modes absorb the orbits of the
    isotope kernel over the sorted tables, as the module docstring says.
    jobs is checked but has no effect.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if mode not in ("labeled", "isomorphism", "isotopy"):
        raise ValueError(f"unknown mode {mode!r}")
    bound = {"labeled": RECT_COUNT_BOUND,
             "isomorphism": RECT_COUNT_BOUND,
             "isotopy": RECT_ISOTOPY_BOUND}[mode]
    if n > bound:
        raise CapacityError(f"mode {mode} is bounded at order {bound}")

    flats = list(_rect_flats(n, (0,)))
    base = len(flats)
    for v in range(1, n):  # the tables with 0*0 = v: swap symbols 0 and v
        swap = [v if y == 0 else 0 if y == v else y for y in range(n)]
        flats.extend(tuple([swap[y] for y in flats[i]]) for i in range(base))
    flats.sort()
    if mode == "labeled":
        if n > RECT_LIST_BOUND:
            return CensusResult(n, mode, len(flats), None,
                                note=f"listing is bounded at order {RECT_LIST_BOUND}")
        return CensusResult(n, mode, len(flats),
                            tuple(make_groupoid(n, f) for f in flats))

    perms = list(permutations(range(n)))
    triples = ([(s, s, s) for s in perms] if mode == "isomorphism"
               else list(product(perms, repeat=3)))
    tables = tuple(make_groupoid(n, f) for f in _orbit_firsts(flats, flat_isotopes(n, triples)))
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


def _matrix_relabelings(m: int):
    """The loops-first relabelings of a bitset-row matrix: row i and
    column j of the image are row and column p[i], p[j] of the original,
    for every p in Sym(0..m-1) x Sym(m..n-1)."""
    n = m * m
    moves = [(p, [p.index(j) for j in range(n)])
             for p in (lo + hi for lo in permutations(range(m))
                       for hi in permutations(range(m, n)))]

    def relabelings(rows):
        bits = [tuple(bits_of(row)) for row in rows]
        for p, inv in moves:
            yield tuple([sum(1 << inv[b] for b in bits[i]) for i in p])
    return relabelings


def _loops_first_min(rows: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Minimum relabeling of a loops-first matrix over the permutations that
    keep loops first: the class representative of its orbit.

    Any isomorphism between two loops-first solutions maps loops to loops, so
    equal minima characterise isomorphic solutions exactly.  The census calls
    it once per class, on the first member of each orbit, and on every
    solution only where an orbit is too large to absorb.  Cells are compared
    in growing-corner order, which lets the search prune on partial
    relabelings.
    """
    n = m * m
    best: list[int] | None = None
    best_p: list[int] | None = None
    version = 0
    p: list[int] = []
    prefix: list[int] = []
    used = [False] * n

    def layer(d: int) -> list[int]:
        pd = p[d]
        rd = rows[pd]
        out = [rows[p[i]] >> pd & 1 for i in range(d)]
        out.extend(rd >> p[j] & 1 for j in range(d))
        out.append(rd >> pd & 1)
        return out

    # state: 0 = prefix equals the best prefix, -1 = strictly below best (or
    # no best yet).  When a descendant replaces best, the current path is by
    # construction a prefix of the new best, so the state resets to 0.
    def dfs(d: int, state: int) -> None:
        nonlocal best, best_p, version
        if d == n:
            if best is None or state == -1:
                best = prefix.copy()
                best_p = p.copy()
                version += 1
            return
        lo, hi = (0, m) if d < m else (m, n)
        for orig in range(lo, hi):
            if used[orig]:
                continue
            used[orig] = True
            p.append(orig)
            cells = layer(d)
            new_state = state
            pruned = False
            if best is not None and state == 0:
                base = len(prefix)
                for off, bit in enumerate(cells):
                    ref = best[base + off]
                    if bit > ref:
                        pruned = True
                        break
                    if bit < ref:
                        new_state = -1
                        break
            if not pruned:
                seen = version
                prefix.extend(cells)
                dfs(d + 1, new_state)
                del prefix[len(prefix) - len(cells):]
                if version != seen:
                    state = 0
            p.pop()
            used[orig] = False

    dfs(0, -1)
    assert best_p is not None
    out = []
    for i in range(n):
        ri = rows[best_p[i]]
        out.append(mask_of(j for j in range(n) if ri >> best_p[j] & 1))
    return tuple(out)


def enumerate_central(n: int, long_run: bool = False, jobs: int = 1) -> CensusResult:
    """Census of central groupoids of order n, up to isomorphism.

    Orders must be perfect squares; non-squares report zero solutions.
    Order 16 is far beyond desk scale and must be requested with long_run.

    Row 0 is its loop plus m - 1 non-loops (``_row_candidates``), and
    Sym(m..n-1) moves any such row to the least one, so the search runs
    that row alone.  jobs is checked but has no effect.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    m = isqrt(n)
    if m * m != n:
        return CensusResult(n, "isomorphism", 0, (),
                            note="no central groupoids: order is not a perfect square")
    if n > CENTRAL_BOUND:
        raise CapacityError(f"central census is bounded at order {CENTRAL_BOUND}")
    if n == 16 and not long_run:
        raise CapacityError("order 16 takes far longer than desk scale; pass long_run")

    solutions = sorted(_central_solutions(m, _row_candidates(m)[0][0]))
    if factorial(m) * factorial(n - m) <= ORBIT_BOUND:
        solutions = _orbit_firsts(solutions, _matrix_relabelings(m))
    reps = {_loops_first_min(rows, m) for rows in solutions}
    tables = []
    for rows in sorted(reps):
        # a*b is the middle of the unique path a -> c -> b in the graph of B;
        # the table is central exactly when B*B = J (Knuth 1970)
        table, bad = two_step_middles(rows, rows)
        if bad is not None:
            raise RuntimeError(f"central search returned a matrix B with B*B != J: "
                               f"witness {bad}")
        tables.append(Groupoid(n, table))
    tables.sort(key=Groupoid.flat)
    return CensusResult(n, "isomorphism", len(tables), tuple(tables))


def enumerate_band_blow_ups(n: int, m: int) -> int:
    """Count one-element extensions of the n x m rectangular band whose
    result is rectangular with every product inside the band.

    Such an extension by e is fixed by its new row, e*(c,d) = (f(d), d) for
    a map f from the m column indices to the n row indices, and its new
    column, (a,b)*e = (a, g(a)) for a map g back.  It is rectangular exactly
    when g o f has exactly one fixed point q, which pins e*e = (f(q), q).  So
    the result is the number of map pairs (f, g) where g o f has exactly one
    fixed point.  The closed form n^(m-1) * m^(n-1) * (n+m-1) counts only
    the pairs where that point is the only periodic point of g o f; it
    agrees only when min(n, m) <= 2 (at 3 x 3 it gives 405, not 423).
    """
    if n < 1 or m < 1:
        raise ValueError("both factors must be positive")
    size = n * m
    if size > BLOW_UP_BOUND:
        raise CapacityError(f"band blow-up census is bounded at band order {BLOW_UP_BOUND}")
    band = rectangular_band(n, m)
    e = size  # the new element: fill its row and column around the band
    table = [list(row) + [-1] for row in band.table] + [[-1] * (size + 1)]
    cells = [(e, y) for y in range(size + 1)] + [(x, e) for x in range(size)]
    # products stay inside the band
    return sum(1 for _ in _placements(table, cells, [range(size)] * len(cells)))
