import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import comb, factorial, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from rectangular import census
from rectangular.census import (
    CensusResult,
    enumerate_band_blow_ups,
    enumerate_central,
    enumerate_rectangular,
    iter_rectangular_tables,
)
from rectangular.core import (
    BoolMatrix,
    CapacityError,
    Groupoid,
    Permutation,
    flat_isotopes,
    line_symbol_sets,
    make_groupoid,
    mask_of,
    opposite,
)
from rectangular.construct import evans_central
from rectangular.isotopy import are_isomorphic, are_isotopic, canonical_form, relabel
from rectangular.properties import is_central, is_rectangular

import oracles

ORDER_2_TABLES = {
    (0, 0, 0, 0), (1, 1, 1, 1),          # constants
    (0, 0, 1, 1), (1, 1, 0, 0),          # row patterns
    (0, 1, 0, 1), (1, 0, 1, 0),          # column patterns
}

# frozen regression values from the exhaustive runs, cross-checked against
# the brute-force oracle where feasible
ORDER_3_LABELED = 267
ORDER_3_ISO = 49
ORDER_3_ISOTOPY = 9
ORDER_4_LABELED = 42676
ORDER_4_ISO = 1864
CENTRAL_4_CLASSES = 1
CENTRAL_9_LABELED = 15840  # loops-first solutions over all 28 first rows, by two searches


@lru_cache(maxsize=None)
def _iso_reps(n):
    return enumerate_rectangular(n, "isomorphism").tables


@lru_cache(maxsize=None)
def _isotopy_reps(n):
    return enumerate_rectangular(n, "isotopy").tables


_REPS = {"isomorphism": _iso_reps, "isotopy": _isotopy_reps}


def _triples(n, mode):
    """The relabelings (alpha = beta = gamma) or every isotopy triple."""
    perms = list(permutations(range(n)))
    return [(s, s, s) for s in perms] if mode == "isomorphism" else list(product(perms, repeat=3))


def _orderly_survivors(n, mode, flats, rng):
    """The flats that survive ``_still_live`` threaded over their rows as
    ``_rect_flats`` does, each call on a copy whose rows after r hold other
    symbols.  Each verdict is checked against a literal rule on the full
    images from ``flat_isotopes``: with K a move's first row a where a > r
    or alpha(a) > r, the branch is cut exactly when some live move's image
    is smaller over the rows before K; otherwise the moves whose image
    ties there live on, resuming at row K."""
    ident = tuple(range(n))
    moved = [t for t in _triples(n, mode) if t != (ident, ident, ident)]
    moves = census._moves(n, moved)
    keys = [(alpha, beta, tuple(gamma_inv)) for _, alpha, beta, gamma_inv in moves]
    images = flat_isotopes(n, moved)
    survivors = []
    for flat in flats:
        image_of, live = dict(zip(keys, images(flat))), moves
        for r in range(n):
            probe = list(flat[:(r + 1) * n]) + [(y + rng.randrange(1, n)) % n
                                                 for y in flat[(r + 1) * n:]]
            verdict = census._still_live(probe, n, live, r)
            cut, tied = False, []
            for _, alpha, beta, gamma_inv in live:
                k = next((a for a in range(n) if a > r or alpha[a] > r), n)
                image = image_of[alpha, beta, tuple(gamma_inv)][:k * n]
                cut = cut or image < flat[:k * n]
                if image == flat[:k * n]:
                    tied.append((k, alpha, beta, gamma_inv))
            if cut:
                assert verdict is None
                break
            assert verdict == tied
            live = verdict
        else:
            survivors.append(flat)
    return survivors


@lru_cache(maxsize=None)
def _bb_equals_j_order_4():
    """Every 4x4 0/1 matrix whose square is all-ones, as bitset rows."""
    found = []
    for code in range(1 << 16):
        rows = [code >> (4 * i) & 15 for i in range(4)]
        if all(sum((rows[i] >> k & 1) & (rows[k] >> j & 1)
                   for k in range(4)) == 1
               for i in range(4) for j in range(4)):
            found.append(tuple(rows))
    return found


class TestRectangular:
    def test_order_one(self):
        r = enumerate_rectangular(1)
        assert r.count == 1 and r.tables == (make_groupoid(1, [0]),)

    def test_order_two_labeled(self):
        r = enumerate_rectangular(2, "labeled")
        assert r.count == 6
        assert {g.flat() for g in r.tables} == ORDER_2_TABLES

    def test_order_two_labeled_matches_brute_force(self):
        truth = {g.flat() for g in oracles.all_tables(2)
                 if oracles.quasi_rectangular(g)}
        assert truth == ORDER_2_TABLES

    def test_order_two_classes(self):
        assert enumerate_rectangular(2, "isomorphism").count == 5
        assert enumerate_rectangular(2, "isotopy").count == 3

    def test_order_three_counts(self):
        labeled = enumerate_rectangular(3, "labeled")
        assert labeled.count == ORDER_3_LABELED
        truth = sum(1 for g in oracles.all_tables(3)
                    if oracles.quasi_rectangular(g))
        assert labeled.count == truth
        assert enumerate_rectangular(3, "isomorphism").count == ORDER_3_ISO
        assert enumerate_rectangular(3, "isotopy").count == ORDER_3_ISOTOPY

    def test_every_emitted_table_is_rectangular(self):
        for mode in ("labeled", "isomorphism", "isotopy"):
            for g in enumerate_rectangular(3, mode).tables:
                assert is_rectangular(g)

    def test_labeled_count_equals_class_orbit_sum(self):
        for n in (2, 3, 4):
            labeled = enumerate_rectangular(n, "labeled").count
            reps = _iso_reps(n)
            orbit_sum = sum(factorial(n) // oracles.automorphism_count(g)
                            for g in reps)
            assert labeled == orbit_sum

    def test_iso_reps_are_the_canonical_forms(self):
        # orbit absorption against canonicalizing every labeled table
        for n in range(1, 5):
            slow = sorted({canonical_form(g).flat() for g in iter_rectangular_tables(n)})
            assert [g.flat() for g in _iso_reps(n)] == slow

    def test_isotopy_orbits_match_the_pairwise_merge(self):
        # isotopy orbit absorption against merging iso classes with are_isotopic
        for n in range(1, 4):
            assert enumerate_rectangular(n, "isotopy").tables == \
                oracles.isotopy_reps_by_merging(_iso_reps(n))

    def test_orderly_search_matches_the_absorption_over_every_shard(self):
        for n in range(1, 5):
            assert [g.flat() for g in _iso_reps(n)] == \
                oracles.rect_census_by_full_absorption(n, "isomorphism")
            assert [g.flat() for g in _isotopy_reps(n)] == \
                oracles.rect_census_by_full_absorption(n, "isotopy")

    @pytest.mark.parametrize("mode", ["isomorphism", "isotopy"])
    def test_each_rep_is_the_literal_least_of_its_orbit(self, mode):
        # every image of the rep by the whole group, the identity among
        # them, is computed; none may be smaller
        for n in range(1, 5):
            images = flat_isotopes(n, _triples(n, mode))
            for g in _REPS[mode](n):
                assert min(images(g.flat())) == g.flat()

    def test_the_orderly_kernel_row_by_row_against_the_literal_rule(self):
        rng = random.Random(24)
        for n in range(1, 4):
            assert _orderly_survivors(n, "isotopy", census._rect_flats(n), rng) == \
                [g.flat() for g in _isotopy_reps(n)]
        sample = rng.sample(list(census._rect_flats(4)), 400)
        reps = {g.flat() for g in _iso_reps(4)}
        assert _orderly_survivors(4, "isomorphism", sample, rng) == \
            [f for f in sample if f in reps]

    @pytest.mark.parametrize("mode", ["isomorphism", "isotopy"])
    def test_the_reps_orbits_partition_the_labeled_tables(self, mode):
        # disjoint orbits that cover every labeled table: each table lies
        # in the orbit of exactly one rep
        for n in range(1, 4):
            images = flat_isotopes(n, _triples(n, mode))
            orbits = [set(images(g.flat())) for g in _REPS[mode](n)]
            labeled = {g.flat() for g in enumerate_rectangular(n, "labeled").tables}
            assert set().union(*orbits) == labeled
            assert sum(map(len, orbits)) == len(labeled)

    def test_kernel_built_tables_equal_the_checked_constructor(self):
        tables = [g for n in range(1, 4) for g in iter_rectangular_tables(n)]
        tables += enumerate_rectangular(3, "labeled").tables + _iso_reps(4)
        for g in tables:
            checked = make_groupoid(g.order, g.flat())
            assert (g, hash(g), repr(g)) == (checked, hash(checked), repr(checked))

    def test_least_tables_lie_in_the_first_two_shards(self):
        # a class with an idempotent starts 0*0 = 0, an idempotent-free one 0*0 = 1
        reps = _iso_reps(4)
        firsts = [g.table[0][0] for g in reps]
        idempotent = [any(g.table[a][a] == a for a in range(4)) for g in reps]
        assert firsts == [0 if i else 1 for i in idempotent]
        assert (firsts.count(0), firsts.count(1)) == (1243, 621)

    def test_isotopy_classes_are_isotopy_inequivalent(self):
        reps = enumerate_rectangular(3, "isotopy").tables
        for i, g in enumerate(reps):
            for h in reps[i + 1:]:
                assert are_isotopic(g, h) is None

    def test_order_four_counts_only(self):
        r = enumerate_rectangular(4, "labeled")
        assert r.count == ORDER_4_LABELED
        assert r.tables is None

    def test_determinism_and_jobs(self):
        a = enumerate_rectangular(3, "labeled", jobs=1)
        b = enumerate_rectangular(3, "labeled", jobs=2)
        c = enumerate_rectangular(3, "labeled", jobs=1)
        assert a == b == c

    def test_capacity_bounds(self):
        with pytest.raises(CapacityError):
            enumerate_rectangular(6, "labeled")
        with pytest.raises(CapacityError):
            enumerate_rectangular(5, "isotopy")
        with pytest.raises(ValueError, match="unknown mode"):
            enumerate_rectangular(2, "upto-nothing")

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -5):
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                enumerate_rectangular(2, jobs=jobs)
            with pytest.raises(ValueError, match="jobs must be at least 1"):
                enumerate_central(4, jobs=jobs)

    def test_stream_matches_labeled(self):
        streamed = [g.flat() for g in iter_rectangular_tables(2)]
        assert sorted(streamed) == sorted(ORDER_2_TABLES)
        for n in range(1, 4):
            streamed = [g.flat() for g in iter_rectangular_tables(n)]
            assert all(a < b for a, b in zip(streamed, streamed[1:]))
            assert streamed == [g.flat() for g in enumerate_rectangular(n, "labeled").tables]
        # the search's order-4 stream, a quarter of it in each 0*0 shard
        flats = list(census._rect_flats(4))
        assert len(flats) == ORDER_4_LABELED
        assert Counter(f[0] for f in flats) == {v: ORDER_4_LABELED // 4 for v in range(4)}
        assert flats == [g.flat() for g in iter_rectangular_tables(4)]
        with pytest.raises(CapacityError):
            next(iter_rectangular_tables(6))
        # the arguments are checked at the call, not at the first next()
        with pytest.raises(CapacityError, match="^streaming is bounded at order 5, got 6$"):
            iter_rectangular_tables(6)
        with pytest.raises(ValueError, match="order must be positive, got 0"):
            iter_rectangular_tables(0)

    def test_symbol_swap_maps_the_first_shard_onto_each_other(self):
        # the oracle's absorption lists the tables with 0*0 = 0 and
        # renames symbols 0 <-> v to reach those with 0*0 = v
        for n in range(1, 5):
            flats = list(census._rect_flats(n))
            first = [f for f in flats if f[0] == 0]
            for v in range(n):
                swap = {0: v, v: 0}
                assert sorted(tuple(swap.get(y, y) for y in f) for f in first) \
                    == [f for f in flats if f[0] == v]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_search_equals_the_placement_engine(self, n):
        # the census search against the former engine, which checks each
        # cell against every symbol's row and column masks
        flats = list(census._rect_flats(n))
        assert flats == list(oracles.rect_flats_by_placement(n, range(n)))
        for v in range(n):
            assert [f for f in flats if f[0] == v] == \
                list(oracles.rect_flats_by_placement(n, (v,)))

    def test_order_five_search_starts_as_the_placement_engine(self):
        count = 20_000
        assert list(islice(census._rect_flats(5), count)) == \
            list(islice(oracles.rect_flats_by_placement(5, range(5)), count))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_search_equals_the_brute_force_filter(self, n):
        assert list(census._rect_flats(n)) == [
            g.flat() for g in oracles.all_tables(n) if oracles.quasi_rectangular(g)]


@settings(max_examples=10, deadline=None, database=None)
@given(st.integers(min_value=0))
def test_canonical_form_of_any_relabeling_is_the_rep(seed):
    rng = random.Random(seed)  # one random relabeling per representative
    for rep in _iso_reps(4):
        sigma = Permutation(tuple(rng.sample(range(4), 4)))
        assert canonical_form(relabel(rep, sigma)) == rep


class TestCentral:
    def test_order_one(self):
        r = enumerate_central(1)
        assert r.count == 1
        assert r.tables == (make_groupoid(1, [0]),)

    def test_order_four_against_brute_force(self):
        r = enumerate_central(4)
        assert r.count == CENTRAL_4_CLASSES
        labeled = _bb_equals_j_order_4()
        assert len(labeled) == 12
        classes = set()
        for rows in labeled:
            best = None
            for p in permutations(range(4)):
                rel = tuple(sum(((rows[p[i]] >> p[j]) & 1) << j
                                for j in range(4)) for i in range(4))
                best = rel if best is None or rel < best else best
            classes.add(best)
        assert len(classes) == r.count

    def test_order_four_contains_evans(self):
        r = enumerate_central(4)
        assert any(are_isomorphic(evans_central(2), g) is not None
                   for g in r.tables)

    def test_outputs_are_central(self):
        for g in enumerate_central(4).tables:
            assert is_central(g)
            assert is_rectangular(g)

    def test_closed_under_opposite(self):
        r = enumerate_central(4)
        forms = {canonical_form(g).flat() for g in r.tables}
        assert {canonical_form(opposite(g)).flat() for g in r.tables} == forms

    def test_non_square_orders_report_empty(self):
        for n in (2, 3, 6, 8):
            r = enumerate_central(n)
            assert r.count == 0 and r.tables == ()
            assert "square" in r.note

    def test_squares_past_order_nine_exceed_the_bound(self):
        assert census.CENTRAL_BOUND == 9
        for n in (16, 25):
            with pytest.raises(CapacityError,
                               match=f"^central census is bounded at order 9, got {n}$"):
                enumerate_central(n)

    def test_determinism(self):
        assert enumerate_central(4) == enumerate_central(4, jobs=2)

    def test_no_edge_joins_two_loops(self):
        # i -> i -> j and i -> j -> j would be two paths; brute force at order 4
        for rows in _bb_equals_j_order_4():
            loops = [i for i in range(4) if rows[i] >> i & 1]
            assert len(loops) == 2
            assert not any(rows[i] >> j & 1 for i in loops for j in loops if i != j)

    def test_search_matches_brute_force_at_order_four(self):
        # for every first row, the brute-force matrices with loops exactly at
        # {0, 1} and that row first, in sorted order; over all first rows,
        # the row-subset search, which shares no census code
        labeled = _bb_equals_j_order_4()
        found = []
        for rest in combinations(range(1, 4), 1):
            row = 1 | mask_of(rest)
            want = sorted(rows for rows in labeled if rows[0] == row
                          and [i for i in range(4) if rows[i] >> i & 1] == [0, 1])
            assert census._central_solutions(2, row) == want
            found += want
        assert len(found) == 2
        assert sorted(tuple(map(mask_of, rows))
                      for rows in oracles.central_matrices_by_row_subsets(2)) == sorted(found)

    def test_order_nine_search_is_sorted_and_squares_to_j(self):
        m, n = 3, 9
        solutions = census._central_solutions(m, census._row_candidates(m)[0][0])
        assert all(a < b for a, b in zip(solutions, solutions[1:]))
        for rows in solutions:
            assert [i for i in range(n) if rows[i] >> i & 1] == [0, 1, 2]
            b = BoolMatrix(n, rows)
            assert oracles.matmul(b, b) == [[1] * n] * n

    def test_first_rows_with_a_second_loop_have_no_solutions(self):
        for m in (2, 3):
            n = m * m
            rows = [1 | mask_of(rest) for rest in combinations(range(1, n), m - 1)
                    if min(rest) < m]
            assert len(rows) == comb(n - 1, m - 1) - comb(n - m, m - 1)
            for fr in rows:
                assert census._central_solutions(m, fr) == []

    def test_first_rows_are_one_stabilizer_orbit(self):
        # the orbit of the least first row under Sym(1..m-1) x Sym(m..n-1),
        # by brute force, is every candidate first row, each once
        for m in (1, 2, 3):
            n = m * m
            first = census._row_candidates(m)[0]
            stabilizer = [(0,) + lo + hi for lo in permutations(range(1, m))
                          for hi in permutations(range(m, n))]
            orbit = {mask_of(p[j] for j in range(n) if first[0] >> j & 1)
                     for p in stabilizer}
            assert first == sorted(orbit)
            assert len(first) == comb(n - m, m - 1)

    def test_order_nine_orbit_counts(self):
        m, n = 3, 9
        reps = enumerate_central(n).tables
        group = factorial(m) * factorial(n - m)  # 4320 loops-first relabelings
        assert sum(group // oracles.automorphism_count_by_idempotents(g)
                   for g in reps) == CENTRAL_9_LABELED
        assert sum(1 for _ in oracles.central_matrices_by_row_subsets(m)) == CENTRAL_9_LABELED
        first = census._row_candidates(m)[0]
        solutions = census._central_solutions(m, first[0])
        assert len(first) == 15
        assert len(first) * len(solutions) == CENTRAL_9_LABELED
        # another row of the orbit: the highest non-loops
        other = 1 | mask_of(range(n - (m - 1), n))
        assert other == first[-1]
        assert len(census._central_solutions(m, other)) == len(solutions)
        # the orderly search keeps one solution per class
        loops_first = [lo + hi for lo in permutations(range(m))
                       for hi in permutations(range(m, n))]
        assert len(census._central_solutions(m, first[0], loops_first)) == len(reps)

    def test_orderly_census_matches_the_unpruned_search_from_every_first_row(self):
        # every C(n-1, m-1) first row to order 4, those with a second loop
        # included; at order 9 the least first row, whose orbit holds every
        # first row with solutions
        for n in (1, 4, 9):
            m = isqrt(n)
            firsts = ([census._row_candidates(m)[0][0]] if n == 9 else
                      [1 | mask_of(rest) for rest in combinations(range(1, n), m - 1)])
            slow = {oracles.loops_first_min(rows, m)
                    for first in firsts for rows in census._central_solutions(m, first)}
            fast = [oracles.loops_first_min(line_symbol_sets(g.table)[0], m)
                    for g in enumerate_central(n).tables]
            assert len(fast) == len(slow)
            assert set(fast) == slow

    def test_loops_first_min_is_the_least_corner_sequence(self):
        # brute force over all of Sym(0..m-1) x Sym(m..n-1): the relabeling
        # whose cells, read in growing-corner order, form the least sequence
        def least(rows, m):
            n = m * m
            best = None
            for p in (lo + hi for lo in permutations(range(m))
                      for hi in permutations(range(m, n))):
                cell = [[rows[p[i]] >> p[j] & 1 for j in range(n)] for i in range(n)]
                seq = [b for d in range(n) for b in (
                    [cell[i][d] for i in range(d)] + cell[d][:d + 1])]
                if best is None or seq < best[0]:
                    best = (seq, tuple(mask_of(j for j in range(n) if cell[i][j])
                                       for i in range(n)))
            return best[1]

        order_4 = [rows for rows in _bb_equals_j_order_4()
                   if [i for i in range(4) if rows[i] >> i & 1] == [0, 1]]
        order_9 = census._central_solutions(3, census._row_candidates(3)[0][0])[::100]
        assert len(order_4) == 2 and len(order_9) == 11
        for m, sample in ((2, order_4), (3, order_9)):
            for rows in sample:
                assert oracles.loops_first_min(rows, m) == least(rows, m)

    def test_each_solution_lies_in_the_orbit_of_exactly_one_survivor(self, monkeypatch):
        # the survivors are what the census's own search returns; every
        # solution of the unpruned search, from every first row (those with
        # a second loop included), lies in the orbit of exactly one, and
        # each survivor's complement J - B is the least of its orbit as a
        # flat 0/1 tuple, so the survivor itself is the greatest; the
        # census's tables are the survivors', in flat order
        search = census._central_solutions
        survivors = {}

        def spy(m, *args):
            survivors[m] = search(m, *args)
            return survivors[m]
        monkeypatch.setattr(census, "_central_solutions", spy)
        for n in (4, 9):
            m = isqrt(n)
            result = enumerate_central(n)
            assert result.count == len(survivors[m])
            assert result.tables == tuple(sorted(map(census._central_table, survivors[m]),
                                                 key=Groupoid.flat))
            orbits = [oracles.loops_first_orbit(rows, m) for rows in survivors[m]]
            assert list(map(oracles.flat_matrix, survivors[m])) == list(map(max, orbits))
            for rest in combinations(range(1, n), m - 1):
                for rows in search(m, 1 | mask_of(rest)):
                    assert sum(oracles.flat_matrix(rows) in orbit for orbit in orbits) == 1

    def test_idempotent_automorphism_oracle_agrees(self):
        for g in (*enumerate_central(4).tables, *_iso_reps(3)):
            assert oracles.automorphism_count_by_idempotents(g) == \
                oracles.automorphism_count(g)

    def test_non_central_search_result_is_an_error(self, monkeypatch):
        # the identity matrix B has B*B = B, whose entry (0, 1) is 0, not 1
        monkeypatch.setattr(census, "_central_solutions",
                            lambda m, first_row, relabelings=(): [(1, 2, 4, 8)])
        with pytest.raises(RuntimeError, match=r"B\*B != J: witness \(0, 1, 0\)"):
            enumerate_central(4)


class TestBandBlowUps:
    def test_smallest(self):
        assert enumerate_band_blow_ups(1, 1) == 1

    def test_two_by_two(self):
        assert enumerate_band_blow_ups(2, 2) == 12

    def test_matches_coincidence_count_everywhere_feasible(self):
        # dual route: the periodic-point sum vs inclusion-exclusion over the
        # coincidence points of the corner maps
        for n in range(1, 30):
            for m in range(1, 30):
                assert enumerate_band_blow_ups(n, m) == \
                    oracles.blow_up_count_exact(n, m), (n, m)

    def test_truncated_product_formula_matches_up_to_width_two(self):
        # the closed form n^(m-1) m^(n-1) (n+m-1) equals the exact count
        # exactly when min(n, m) <= 2; the first divergence is (3, 3)
        formula = lambda n, m: n ** (m - 1) * m ** (n - 1) * (n + m - 1)
        for n, m in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]:
            assert enumerate_band_blow_ups(n, m) == formula(n, m)
        assert enumerate_band_blow_ups(3, 3) == 423
        assert formula(3, 3) == 405

    def test_capacity(self):
        assert enumerate_band_blow_ups(4, 4) == oracles.blow_up_count_exact(4, 4)
        for n, m in [(1, 10001), (101, 100)]:
            with pytest.raises(CapacityError):
                enumerate_band_blow_ups(n, m)
        with pytest.raises(ValueError):
            enumerate_band_blow_ups(0, 2)


class TestCountRectangular:
    def test_transfer_equals_the_search(self):
        # U(n, k) times n!/(n-k)! is the number of listed tables with k symbols
        for n in range(1, 5):
            u, labeled = census.count_rectangular(n)
            by_symbols = Counter(len(set(f)) for f in census._rect_flats(n))
            assert labeled == sum(by_symbols.values())
            assert [u[k - 1] * oracles.falling(n, k) for k in range(1, n + 1)] == \
                [by_symbols[k] for k in range(1, n + 1)]

    def test_closed_forms(self):
        for n in range(1, 6):
            u, labeled = census.count_rectangular(n)
            assert len(u) == n and u[0] == 1
            assert labeled == sum(oracles.falling(n, k) * u[k - 1] for k in range(1, n + 1))
            if n >= 2:
                assert u[1] == 2 ** n - 2
            if n >= 3:
                assert u[2] == 2 * oracles.stirling2(n, 3) + 2 * (2 ** n - 2) * (2 ** (n - 1) - 1)
        assert (u, labeled) == ((1, 30, 950, 14795, 183902), 23901245)

    def test_labeled_census_counts_through_the_transfer(self, monkeypatch):
        monkeypatch.setattr(census, "_rect_flats", None)  # no listing runs
        r = enumerate_rectangular(4, "labeled")
        assert (r.count, r.tables, r.note) == (ORDER_4_LABELED, None,
                                               "listing is bounded at order 3")


class _CountingList(list):
    """A list that counts the cells read from it by subscript."""

    reads = 0

    def __getitem__(self, key):
        self.reads += len(range(*key.indices(len(self)))) if isinstance(key, slice) else 1
        return super().__getitem__(key)


class TestOrderlyKernel:
    # the row checks made and the live moves offered to them, then the
    # classes: a faster ``_still_live`` must walk the same search tree
    @pytest.mark.parametrize("census_of, want", [
        (lambda: enumerate_rectangular(4, "isomorphism"), (5846, 64449, 1864)),
        (lambda: enumerate_rectangular(4, "isotopy"), (879, 7960053, 65)),
        (lambda: enumerate_central(9), (160, 122552, 6))],
        ids=["iso-o4", "isotopy-o4", "central-o9"])
    def test_the_search_tree_is_pinned(self, monkeypatch, census_of, want):
        calls = moves = 0
        kernel = census._still_live

        def counting(flat, n, live, r):
            nonlocal calls, moves
            calls += 1
            moves += len(live)
            return kernel(flat, n, live, r)

        monkeypatch.setattr(census, "_still_live", counting)
        count = census_of().count
        assert (calls, moves, count) == want

    @staticmethod
    def _thread(flats, n, moves, scramble, seen):
        """Both kernels on each flat's rows in turn, as the searches call
        them: rows after r scrambled, the live moves those the last call
        kept.  seen counts the cuts, drops and resumed moves."""
        for flat in flats:
            live = moves
            for r in range(n):
                probe = list(flat[:(r + 1) * n]) + [scramble(y) for y in flat[(r + 1) * n:]]
                verdict = census._still_live(probe, n, live, r)
                assert verdict == oracles.still_live_by_row_lists(probe, n, live, r)
                if verdict is None:
                    seen["cut"] += 1
                    break
                seen["drop"] += len(live) - len(verdict)
                seen["resume"] += sum(a > 0 for a, *_ in verdict)
                live = verdict

    @pytest.mark.parametrize("mode", ["isomorphism", "isotopy"])
    def test_cell_by_cell_equals_the_row_lists(self, mode):
        rng = random.Random(32)
        seen = Counter()
        for n in (2, 3, 4):
            moves = census._moves(n, _triples(n, mode))
            if len(moves) > 2000:
                moves = rng.sample(moves, 2000)
            tables = list(census._rect_flats(n))
            flats = rng.sample(tables, min(len(tables), 40)) + [
                tuple(rng.randrange(n) for _ in range(n * n)) for _ in range(20)]
            self._thread(flats, n, moves, lambda y: (y + rng.randrange(1, n)) % n, seen)
        assert min(seen["cut"], seen["drop"], seen["resume"]) > 0

    def test_cell_by_cell_equals_the_row_lists_on_central_complements(self):
        rng = random.Random(32)
        m, n = 3, 9
        ident = tuple(range(n))
        relabelings = [lo + hi for lo in permutations(range(m))
                       for hi in permutations(range(m, n))]
        moves = census._moves(n, [(p, p, ident) for p in relabelings])
        solutions = census._central_solutions(m, census._row_candidates(m)[0][0])
        rows = rng.sample(solutions, 20) + [
            tuple(mask_of(rng.sample(range(n), m)) for _ in range(n)) for _ in range(10)]
        flats = [[~b >> j & 1 for b in bs for j in range(n)] for bs in rows]
        seen = Counter()
        self._thread(flats, n, moves, lambda y: 1 - y, seen)
        assert min(seen["cut"], seen["drop"], seen["resume"]) > 0

    def test_the_first_differing_cell_decides_and_ends_the_reads(self):
        # h = gamma^-1(g) with gamma the swap of 0 and 1: larger than g at
        # cell (0, 0) drops the move, smaller cuts the branch
        n = 4
        move = census._moves(n, [((0, 1, 2, 3), (0, 1, 2, 3), (1, 0, 2, 3))])
        for row, want in (((0, 1, 2, 3), []), ((1, 0, 2, 3), None)):
            flat = _CountingList(row * n)
            assert census._still_live(flat, n, move, n - 1) == want
            assert flat.reads == 2
            flat = _CountingList(row * n)
            assert oracles.still_live_by_row_lists(flat, n, move, n - 1) == want
            assert flat.reads == 2 * n


def test_census_result_is_frozen():
    r = enumerate_rectangular(2)
    assert isinstance(r, CensusResult)
    with pytest.raises(AttributeError):
        r.count = 7
