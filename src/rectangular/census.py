"""Exhaustive censuses: rectangular tables, central groupoids (BB = J
matrices), and one-element blow-ups of rectangular bands.

Every rectangular table search is one row-major fill of an empty table,
``_rect_flats``: it keeps the symbols placed so far in each row and each
column, the orientation of ``core.line_symbol_sets``, and from those alone
takes the ones that fit the next cell.  Permuting rows, columns and symbols
independently maps rectangles to rectangles, so the rectangular tables of
an order are closed under isotopy as well as relabeling.  The class
censuses make the fill orderly (Read, "Every one a winner", 1978): when a
row is complete, ``_still_live`` compares it with each isotope by the
group's moves over the rows both have filled, each move its permutations,
read from the flat table in the convention of ``core.flat_isotopes``.  One
already smaller cuts the branch and one already larger is dropped, so a
complete table that survives is no greater than any isotope of it: the
search reaches each class once, at its least table, and deduplicates
nothing afterwards.  The labeled count lists nothing: ``count_rectangular``
is a transfer over rows, each row a set partition of the columns.  The band
blow-ups run no search either: they are counted in closed form, a sum over
the periodic points of the corner maps, up to band order 10 000.

The central search works on the matrix model: row i's out-neighbours must
index rows that tile the column set.  BB = J forces BJ = JB, hence every
row and column sum equals sqrt(n) and the trace is sqrt(n), so loops can
be pinned to the first sqrt(n) indices.  The rows are set in index order,
so one blocked mask per row, the columns already covered in the lines the
row joins, stands for every tiling it takes part in; its own line's rows
must be pairwise disjoint, and a line with one row left forces that row.
No edge of a central matrix joins two loops, so its first rows are the
loop at 0 plus m - 1 non-loops: one orbit under Sym(m..n-1), of which one
row alone is searched.  The isomorphism classes are the orbits of the
relabelings that keep the loops first, Sym(0..m-1) x Sym(m..n-1), and the
search is orderly by the same kernel: relabeling the complement J - B,
flat and 0/1, by p is the move alpha = beta = p, gamma the identity, so
after each row ``_still_live`` cuts every branch that some relabeling
already makes smaller, and one solution per class survives.  The survivor
is the class's representative: the greatest B, that is the least
complement J - B read row-major, under the loops-first relabelings; the
census lists the tables in lex order of their flat table.  There is no
worker pool (``jobs`` is checked but has no effect).
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, factorial, isqrt, prod

from .core import (
    Groupoid,
    Value,
    _unchecked,
    bits_of,
    check_order,
    isotope_moves,
    mask_of,
    set_field,
    two_step_middles,
)

RECT_LIST_BOUND = 3       # full labeled listing
RECT_COUNT_BOUND = 5      # labeled counting, by the row transfer
RECT_ISO_BOUND = 4        # isomorphism classes
RECT_ISOTOPY_BOUND = 4    # isotopy classes
ITER_BOUND = 5            # streaming generator
CENTRAL_BOUND = 9         # the largest square whose 3! 6! relabelings fit a move list
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


def _moves(n: int, triples) -> list:
    """The orderly search's moves on flat order-n tables: per (alpha, beta,
    gamma) in triples other than the identity, its first untied row and its
    permutations alpha, beta and gamma^-1 (``core.isotope_moves``), which read
    its image off g."""
    ident = tuple(range(n))
    moved = (triple for triple in triples if not triple[0] == triple[1] == triple[2] == ident)
    return [(0, *move) for move in isotope_moves(n, moved)]


def _still_live(flat: list[int], n: int, live: list, r: int) -> list | None:
    """The moves of live left live once row r of the flat order-n table g
    is filled, or None where one of them maps g below itself.

    A move h(a, b) = gamma^-1(g(alpha(a), beta(b))) is compared with g row
    by row, as lists, from its first untied row.  Image row a is read off
    row alpha(a) of the flat g, so the comparison stops at the first row a
    that either table has not filled.  h and g differ in no earlier cell,
    so a first differing row that is smaller in h holds for every
    completion: the branch is cut.  A larger one holds too: the move is
    dropped for the subtree.  A move that ties stays live and resumes at
    its first untied row.  So a table that passes its last row is no
    greater than any of its images: the least of its orbit (Read 1978).
    """
    kept = []
    for move in live:
        a, alpha, beta, gamma_inv = move
        while a <= r and alpha[a] <= r:
            x = alpha[a] * n
            image = [gamma_inv[flat[x + y]] for y in beta]
            row = flat[a * n:a * n + n]
            if image != row:
                if image < row:
                    return None
                break
            a += 1
        else:
            kept.append(move if a == move[0] else (a, alpha, beta, gamma_inv))
    return kept


def _rect_flats(n: int, triples=()):
    """Yield the rectangular order-n tables as flat tuples, in lex order:
    all of them, or with triples only the least table of each orbit under
    the isotopes by the (alpha, beta, gamma) in triples.

    The cells are filled in row-major order.  rows[r] and cols[c] are the
    bitsets of the symbols placed so far in row r and column c; above is
    the OR of the rows before r and left the OR of the columns before c.
    Every earlier cell is filled and every later one is empty, so y fits at
    (r, c) exactly when no other symbol is already in both row r and column
    c (its rectangle claims the cell), every earlier row holding y holds it
    in column c, and every earlier column holding y holds it in row r.  Two
    symbols in rows[r] & cols[c] leave no candidate, and one leaves only
    itself.  The candidates are taken low to high.  With triples the search
    is orderly: each time a row is complete, ``_still_live`` checks the
    live moves and cuts the branch where one is already smaller.
    """
    full, size = (1 << n) - 1, n * n
    rows, cols = [0] * n, [0] * n
    flat = [0] * size

    def fill(k, above, left, live):
        r, c = divmod(k, n)
        row, col = rows[r], cols[c]
        both = row & col
        if both & (both - 1):
            return
        fits = (both or full) & ~(above & ~col) & ~(left & ~row)
        for y in bits_of(fits):
            rows[r], cols[c] = row | 1 << y, col | 1 << y
            flat[k] = y
            if c + 1 < n:
                yield from fill(k + 1, above, left | cols[c], live)
                continue
            after = _still_live(flat, n, live, r) if live else live
            if after is None:
                continue
            if k + 1 == size:
                yield tuple(flat)
            else:
                yield from fill(k + 1, above | rows[r], 0, after)
        rows[r], cols[c] = row, col

    yield from fill(0, 0, 0, _moves(n, triples))


def _groupoids(n: int, flats):
    """The flat order-n tables as groupoids, unchecked: the search yields valid ones."""
    starts = range(0, n * n, n)
    return (_unchecked(Groupoid, n, tuple([flat[i:i + n] for i in starts])) for flat in flats)


def iter_rectangular_tables(n: int):
    """Stream every rectangular groupoid of order n in lex table order."""
    check_order(n, bound=ITER_BOUND, limit="streaming is")
    return _groupoids(n, _rect_flats(n))


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
    mode "isotopy": the least table of each isotopy class, order <= 4.

    The class modes run the orderly search, ``_rect_flats`` with the n!
    relabelings (alpha = beta = gamma) or all n!^3 isotopy triples: it
    reaches only the least table of each orbit, in lex order, so nothing
    is deduplicated afterwards.  jobs is checked but has no effect.
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
        triples = ()
    else:
        perms = list(permutations(range(n)))
        triples = ([(s, s, s) for s in perms] if mode == "isomorphism"
                   else product(perms, repeat=3))
    tables = tuple(_groupoids(n, _rect_flats(n, triples)))
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


def _central_solutions(m: int, first_row: int, relabelings=()) -> list[tuple[int, ...]]:
    """All BB = J matrices with loops at rows 0..m-1 and row 0 first_row,
    as bitset row tuples in lex order; with relabelings, permutations of
    the n indices, only those whose complement J - B none of them maps
    below itself.

    Rows are set in index order, so the unset rows are those after the
    current one.  Line i is the set of rows that row i indexes; each row has
    m ones, so a line tiles the columns exactly when its rows are pairwise
    disjoint.  union[i] is the OR of line i's rows set so far.  A candidate
    for row t must miss the blocked mask, the OR of the unions of the lines
    that row t joins, and the rows of its own line must be pairwise
    disjoint.  A line left with one unset row forces that row to the
    columns its union misses.  flat is the complement J - B as row-major
    0/1 entries; relabeling it by p is the move alpha = beta = p, gamma the
    identity (which keeps every entry), checked by ``_still_live`` once
    each row is set.
    """
    n = m * m
    full = (1 << n) - 1
    cand = _row_candidates(m)
    rows = [0] * n
    flat = [0] * (n * n)
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

    def assign(t: int, live: list) -> None:
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
                    flat[t * n:t * n + n] = [~mask >> j & 1 for j in range(n)]
                    after = _still_live(flat, n, live, t) if live else live
                    if after is not None:
                        assign(t + 1, after)
                for k in trail:
                    del forced[k]
                for i in joined:
                    union[i] ^= mask

    if force(0, first_row, []):  # the first row is checked like a forced one
        ident = tuple(range(n))
        assign(0, _moves(n, [(p, p, ident) for p in relabelings]))
    return out


def _central_table(rows: tuple[int, ...]) -> Groupoid:
    """The central groupoid of a BB = J matrix: a*b is the middle of the
    unique path a -> c -> b in the graph of B (Knuth 1970)."""
    table, bad = two_step_middles(rows, rows)
    if bad is not None:
        raise RuntimeError(f"central search returned a matrix B with B*B != J: "
                           f"witness {bad}")
    return _unchecked(Groupoid, len(rows), table)  # every middle is a node


def enumerate_central(n: int, jobs: int = 1) -> CensusResult:
    """Census of central groupoids of order n, up to isomorphism.

    Orders must be perfect squares; non-squares report zero solutions.

    Row 0 is its loop plus m - 1 non-loops (``_row_candidates``), and
    Sym(m..n-1) moves any such row to any other, so the search runs one
    row alone: the least, whose non-loops m..2m-2 come first, so the lines
    it joins fill and force rows soonest.  The orderly search compares the
    complement J - B as 0/1 rows, where this row is the least too, so the
    least solution of each class, the one that survives, starts with it.
    (On B the least row would be the last candidate, from which the
    search forces late and makes many times the calls.)  The search is
    bounded at order 9: at order 16 no move list fits Sym(4) x Sym(12).
    The survivor of each class is its representative: the greatest B,
    that is the least complement J - B read row-major, under the
    loops-first relabelings.  The tables are listed in lex order of their
    flat table.  jobs is checked but has no effect.
    """
    check_order(n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    m = isqrt(n)
    if m * m != n:
        return CensusResult(n, "isomorphism", 0, (),
                            note="no central groupoids: order is not a perfect square")
    check_order(n, bound=CENTRAL_BOUND, limit="central census is")

    relabelings = [lo + hi for lo in permutations(range(m))
                   for hi in permutations(range(m, n))]
    solutions = _central_solutions(m, _row_candidates(m)[0][0], relabelings)
    tables = sorted(map(_central_table, solutions), key=Groupoid.flat)
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
