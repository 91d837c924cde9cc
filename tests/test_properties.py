import random
from itertools import product

import pytest

from rectangular.core import BoolMatrix, GraphPair, Partition, PartialArray, make_groupoid, opposite
from rectangular.properties import (
    associativity_violation,
    blackburn_violation,
    centrality_violation,
    congruence_violation,
    derive_plus,
    fullness_violation,
    has_blackburn,
    idempotence_violation,
    is_associative,
    is_central,
    is_congruence,
    is_full,
    is_idempotent,
    is_matrix_symmetric,
    is_maximal,
    is_partial_latin,
    is_partial_p1,
    is_rectangular,
    left_reabsorption_violation,
    matrix_symmetry_violation,
    maximality_violation,
    p1_violation,
    p2_violation,
    p4_violation,
    partial_latin_violation,
    partial_p1_violation,
    rectangularity_violation,
    right_reabsorption_violation,
    satisfies_dually_partitioned_eqs,
    satisfies_left_reabsorption,
    satisfies_p1,
    satisfies_p2,
    satisfies_p4,
    satisfies_partitioned_eqs,
    satisfies_right_reabsorption,
    satisfies_undirected_eq,
)
from rectangular.construct import evans_central, rectangular_band
from rectangular.transform import groupoid_to_graph_pair

import fixtures as fx
import oracles

FARMERS = GraphPair.from_edges(4, [(x, 0) for x in range(4)],
                               [(0, x) for x in range(4)])
B_MATRIX = BoolMatrix.from_grid([[1, 1, 0, 0],
                                 [0, 0, 1, 1],
                                 [0, 0, 1, 1],
                                 [1, 1, 0, 0]])


class TestRectangular:
    def test_fixtures(self):
        assert is_rectangular(fx.C4)
        assert is_rectangular(fx.Q5)
        assert not is_rectangular(fx.I3)

    def test_i3_witness_symbol(self):
        # symbol 2 sits in rows {0,1,2} x cols {1,2} but misses (1,1),(2,1)
        witness = rectangularity_violation(fx.I3)
        assert witness is not None and witness[0] == 2

    def test_equals_quasi_identity_on_all_small_tables(self):
        for n in (1, 2, 3):
            for g in oracles.all_tables(n):
                assert is_rectangular(g) == oracles.quasi_rectangular(g)

    def test_equals_quasi_identity_on_random_order_six(self):
        rng = random.Random(6)
        for _ in range(1000):
            g = oracles.random_groupoid(rng, 6)
            assert is_rectangular(g) == oracles.quasi_rectangular(g)


class TestP1:
    def test_fixtures(self):
        assert satisfies_p1(fx.M4A)
        assert satisfies_p1(fx.M4B)

    def test_latin_square_fails(self):
        latin = make_groupoid(2, [0, 1, 1, 0])
        witness = p1_violation(latin)
        assert witness is not None and set(witness[:2]) == {0, 1}

    def test_matches_set_oracle(self):
        rng = random.Random(1)
        for n in (1, 2, 3):
            for g in oracles.all_tables(n):
                assert satisfies_p1(g) == oracles.p1_by_sets(g)
        for _ in range(500):
            g = oracles.random_groupoid(rng, 5)
            assert satisfies_p1(g) == oracles.p1_by_sets(g)


class TestP2:
    def test_farmers_market(self):
        assert satisfies_p2(FARMERS)

    def test_example_matrix_pair_as_graphs(self):
        gp = GraphPair(4, B_MATRIX.rows, B_MATRIX.rows)
        assert satisfies_p2(gp)

    def test_empty_red_fails_with_zero_count(self):
        gp = GraphPair(2, (0, 0), (3, 3))
        assert p2_violation(gp) == (0, 0, 0)

    def test_matches_counting_oracle_on_random_pairs(self):
        rng = random.Random(2)
        for _ in range(1000):
            gp = oracles.random_graph_pair(rng, rng.randrange(1, 6))
            assert satisfies_p2(gp) == oracles.p2_by_counting(gp)


class TestP4:
    def test_example_two(self):
        assert satisfies_p4(B_MATRIX, B_MATRIX)
        assert all(v == 1 for row in oracles.matmul(B_MATRIX, B_MATRIX) for v in row)

    def test_example_one(self):
        a = BoolMatrix.from_grid([[1, 0, 0, 0]] * 4)
        b = BoolMatrix.from_grid([[1, 1, 1, 1]] + [[0, 0, 0, 0]] * 3)
        assert satisfies_p4(a, b)
        assert not satisfies_p4(b, a)

    def test_identity_fails(self):
        eye = BoolMatrix.from_grid([[1, 0], [0, 1]])
        assert p4_violation(eye, eye) == (0, 1, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="orders differ"):
            satisfies_p4(BoolMatrix.ones(2), BoolMatrix.ones(3))

    def test_product_equivalence_random(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randrange(1, 6)
            a = BoolMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            b = BoolMatrix(n, tuple(rng.randrange(1 << n) for _ in range(n)))
            truth = all(v == 1 for row in oracles.matmul(a, b) for v in row)
            assert satisfies_p4(a, b) == truth


class TestFullMaximal:
    def test_constant(self):
        assert not is_full(fx.C4)
        assert not is_maximal(fx.C4)
        assert fullness_violation(fx.C4) == (1,)

    def test_m4a_full_not_maximal(self):
        assert is_full(fx.M4A)
        assert maximality_violation(fx.M4A) == (0, 3)

    def test_m4b_maximal(self):
        assert is_maximal(fx.M4B)
        assert is_full(fx.M4B)

    def test_trivial_vacuously_maximal(self):
        trivial = make_groupoid(1, [0])
        assert is_full(trivial) and is_maximal(trivial)


class TestEquations:
    def test_rectangular_band_satisfies_everything(self):
        g = rectangular_band(2, 3)
        assert is_idempotent(g)
        assert is_associative(g)
        assert satisfies_partitioned_eqs(g)
        assert satisfies_dually_partitioned_eqs(g)
        assert satisfies_undirected_eq(g)

    def test_evans_is_central(self):
        assert is_central(evans_central(2))
        assert centrality_violation(fx.X4) is not None

    def test_i3_reabsorption(self):
        assert is_idempotent(fx.I3)
        # (0*1)*1 = 2*1 = 1 but 0*1 = 2
        assert right_reabsorption_violation(fx.I3) == (0, 1)
        assert fx.I3.table[fx.I3.table[0][1]][1] == 1
        assert fx.I3.table[0][1] == 2
        # the mirrored identity holds everywhere on this table
        assert satisfies_left_reabsorption(fx.I3)

    def test_idempotent_rectangular_satisfies_both_reabsorptions(self):
        for g in (fx.T5A, fx.T5B, fx.Q5, rectangular_band(3, 2)):
            assert is_idempotent(g) and is_rectangular(g)
            assert satisfies_left_reabsorption(g)
            assert satisfies_right_reabsorption(g)

    def test_violation_reports_first_tuple(self):
        assert idempotence_violation(fx.C4) == (1,)
        latin = make_groupoid(2, [0, 1, 1, 0])
        assert associativity_violation(latin) is None  # Z2 is a group
        assert centrality_violation(latin) == (0, 0, 1)


class TestMatrixSymmetry:
    def test_x4_is_matrix_symmetric(self):
        assert is_matrix_symmetric(fx.X4)

    def test_constant_is_not(self):
        witness = matrix_symmetry_violation(fx.C4)
        assert witness is not None and witness[0] == "green-red"

    def test_trivial_is(self):
        assert is_matrix_symmetric(make_groupoid(1, [0]))

    def test_derive_plus_identities_on_x4(self):
        plus = derive_plus(fx.X4)
        star = fx.X4.table
        add = plus.table
        for a, b, c in product(range(4), repeat=3):
            assert add[star[a][b]][star[b][c]] == b
            assert star[add[a][b]][add[b][c]] == b

    def test_derive_plus_trivial(self):
        trivial = make_groupoid(1, [0])
        assert derive_plus(trivial) == trivial

    def test_derive_plus_rejects_constant(self):
        with pytest.raises(ValueError, match="green-red"):
            derive_plus(fx.C4)


class TestPartialArrays:
    def test_b3(self):
        assert is_partial_latin(fx.B3)
        assert has_blackburn(fx.B3)
        assert not is_partial_p1(fx.B3)
        witness = partial_p1_violation(fx.B3)
        assert witness is not None

    def test_empty_array_satisfies_everything(self):
        empty = PartialArray(3, ((None,) * 3,) * 3)
        assert is_partial_latin(empty)
        assert is_partial_p1(empty)
        assert has_blackburn(empty)

    def test_total_latin_square_is_not_partial_p1(self):
        latin = PartialArray(2, ((0, 1), (1, 0)))
        assert is_partial_latin(latin)
        assert not is_partial_p1(latin)

    def test_total_arrays_agree_with_groupoid_predicates(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randrange(1, 5)
            g = oracles.random_groupoid(rng, n)
            p = PartialArray(n, g.table)
            assert is_partial_p1(p) == satisfies_p1(g)

    def test_blackburn_violation_witness(self):
        p = PartialArray(2, ((0, 1), (None, 0)))
        assert blackburn_violation(p) == ((0, 0), (1, 1), (0, 1))
        assert partial_latin_violation(p) is None
        # the first corner (0, 1) is empty, so the witness is the second
        assert blackburn_violation(PartialArray(2, ((0, None), (1, 0)))) == \
            ((0, 0), (1, 1), (1, 0))
        # two equal cells in one line span no rectangle
        assert blackburn_violation(PartialArray(2, ((0, 0), (None, None)))) is None

    def test_latin_violation_axis(self):
        p = PartialArray(2, ((0, 0), (None, None)))
        assert partial_latin_violation(p) == ("row", 0, 0)
        assert partial_latin_violation(PartialArray(2, ((1, None), (1, None)))) == ("col", 0, 1)
        # rows are scanned before columns: row 2 repeats 2, column 0 repeats 1
        both = PartialArray(3, ((1, None, None), (1, None, None), (2, None, 2)))
        assert partial_latin_violation(both) == ("row", 2, 2)

    def test_blackburn_theorem_on_random_arrays(self):
        # pair-disjoint partial Latin squares always have empty opposite corners
        rng = random.Random(5)
        checked = 0
        for _ in range(1200):
            n = rng.randrange(3, 7)
            p = oracles.random_partial(rng, n, rng.uniform(0.1, 0.7))
            checked += 1
            if is_partial_latin(p) and is_partial_p1(p):
                assert has_blackburn(p)
        assert checked >= 1000


class TestCongruence:
    def test_q5_partition(self):
        assert is_congruence(fx.Q5, Partition(5, ((0, 1, 2, 3), (4,))))

    def test_singleton_partition_always_congruence(self):
        rng = random.Random(7)
        for _ in range(50):
            g = oracles.random_groupoid(rng, 4)
            assert is_congruence(g, Partition.singletons(4))
            assert is_congruence(g, Partition.single_block(4))

    def test_spec_order_two_cases(self):
        assert is_congruence(make_groupoid(2, [0, 0, 1, 1]),
                             Partition.single_block(2))
        assert is_congruence(make_groupoid(2, [0, 1, 1, 0]),
                             Partition(2, ((0,), (1,))))

    def test_violation_witness(self):
        g = make_groupoid(3, [0, 1, 2, 1, 2, 0, 2, 0, 1])  # Z3
        bad = congruence_violation(g, Partition(3, ((0, 1), (2,))))
        assert bad is not None
        a, a2, b, b2 = bad
        idx = Partition(3, ((0, 1), (2,))).block_index
        assert idx[g.table[a][b]] != idx[g.table[a2][b2]]
        # rows 0 and 1 agree mod the partition, so the witness is a column
        assert congruence_violation(make_groupoid(3, [0, 2, 0] * 3),
                                    Partition(3, ((0, 1), (2,)))) == (0, 0, 0, 1)

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="differs"):
            is_congruence(fx.C4, Partition.singletons(3))


class TestModelAgreement:
    def test_three_way_equivalence_small(self):
        for n in (1, 2, 3):
            for g in oracles.all_tables(n):
                rect = is_rectangular(g)
                assert satisfies_p1(g) == rect
                assert satisfies_p2(groupoid_to_graph_pair(g)) == rect

    def test_three_way_equivalence_random_larger(self):
        rng = random.Random(8)
        for _ in range(1000):
            n = rng.randrange(4, 7)
            g = oracles.random_groupoid(rng, n)
            rect = is_rectangular(g)
            assert satisfies_p1(g) == rect
            assert satisfies_p2(groupoid_to_graph_pair(g)) == rect

    def test_p2_iff_p4_on_incidence(self):
        rng = random.Random(9)
        for _ in range(500):
            gp = oracles.random_graph_pair(rng, rng.randrange(1, 6))
            a = BoolMatrix(gp.order, gp.red)
            b = BoolMatrix(gp.order, gp.green)
            assert satisfies_p2(gp) == satisfies_p4(a, b)


PREDICATES_SELF_DUAL = [
    is_rectangular,
    satisfies_p1,
    is_full,
    is_maximal,
    is_idempotent,
    is_associative,
    is_central,
    satisfies_undirected_eq,
    is_matrix_symmetric,
]


class TestDuality:
    def test_self_dual_predicates_on_all_order_three_tables(self):
        for g in oracles.all_tables(3):
            opp = opposite(g)
            for pred in PREDICATES_SELF_DUAL:
                assert pred(g) == pred(opp), pred.__name__

    def test_partitioned_swaps_with_dually_partitioned(self):
        for g in oracles.all_tables(3):
            opp = opposite(g)
            assert satisfies_partitioned_eqs(g) == satisfies_dually_partitioned_eqs(opp)
            assert satisfies_dually_partitioned_eqs(g) == satisfies_partitioned_eqs(opp)
