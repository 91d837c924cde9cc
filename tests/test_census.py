import random

import pytest

from rectangular import census
from rectangular.census import (
    CensusResult,
    enumerate_band_blow_ups,
    enumerate_central,
    enumerate_rectangular,
    iter_rectangular_tables,
)
from rectangular.core import CapacityError, make_groupoid, opposite
from rectangular.construct import evans_central
from rectangular.isotopy import are_isomorphic, are_isotopic, canonical_form
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
        from math import factorial

        for n in (2, 3):
            labeled = enumerate_rectangular(n, "labeled").count
            reps = enumerate_rectangular(n, "isomorphism").tables
            orbit_sum = sum(factorial(n) // oracles.automorphism_count(g)
                            for g in reps)
            assert labeled == orbit_sum

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
            enumerate_rectangular(5, "labeled")
        with pytest.raises(CapacityError):
            enumerate_rectangular(4, "isotopy")
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
        with pytest.raises(CapacityError):
            next(iter_rectangular_tables(6))


class TestCentral:
    def test_order_one(self):
        r = enumerate_central(1)
        assert r.count == 1
        assert r.tables == (make_groupoid(1, [0]),)

    def test_order_four_against_brute_force(self):
        r = enumerate_central(4)
        assert r.count == CENTRAL_4_CLASSES
        # oracle: every 4x4 0/1 matrix whose square is all-ones
        labeled = []
        for code in range(1 << 16):
            rows = [code >> (4 * i) & 15 for i in range(4)]
            if all(sum((rows[i] >> k & 1) & (rows[k] >> j & 1)
                       for k in range(4)) == 1
                   for i in range(4) for j in range(4)):
                labeled.append(tuple(rows))
        assert len(labeled) == 12
        from itertools import permutations

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

    def test_order_16_needs_long_run_flag(self):
        with pytest.raises(CapacityError, match="long_run"):
            enumerate_central(16)
        with pytest.raises(CapacityError):
            enumerate_central(25, long_run=True)

    def test_determinism(self):
        assert enumerate_central(4) == enumerate_central(4, jobs=2)

    def test_non_central_search_result_is_an_error(self, monkeypatch):
        # the identity matrix B has B*B = B, whose entry (0, 1) is 0, not 1
        monkeypatch.setattr(census, "_central_solutions",
                            lambda m, first_row=None: [(1, 2, 4, 8)])
        with pytest.raises(RuntimeError, match=r"B\*B != J: witness \(0, 1, 0\)"):
            enumerate_central(4)


class TestBandBlowUps:
    def test_smallest(self):
        assert enumerate_band_blow_ups(1, 1) == 1

    def test_two_by_two(self):
        assert enumerate_band_blow_ups(2, 2) == 12

    def test_matches_coincidence_count_everywhere_feasible(self):
        # dual route: cell-level search vs the closed-form count of corner
        # map pairs with a unique coincidence point
        for n in range(1, 10):
            for m in range(1, 10):
                if n * m > 9:
                    continue
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
        with pytest.raises(CapacityError):
            enumerate_band_blow_ups(4, 4)
        with pytest.raises(ValueError):
            enumerate_band_blow_ups(0, 2)


def test_census_result_is_frozen():
    r = enumerate_rectangular(2)
    assert isinstance(r, CensusResult)
    with pytest.raises(AttributeError):
        r.count = 7
