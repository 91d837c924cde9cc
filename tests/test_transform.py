import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rectangular.core import (
    BoolMatrix,
    GraphPair,
    Groupoid,
    IsotopyTriple,
    Partition,
    Permutation,
    dual_graph_pair,
    make_groupoid,
    opposite,
)
from rectangular.construct import evans_central, rectangular_band
from rectangular.census import iter_rectangular_tables
from rectangular.isotopy import apply_isotopy
from rectangular.properties import (
    is_associative,
    is_central,
    is_idempotent,
    is_rectangular,
    satisfies_p2,
    satisfies_p4,
)
from rectangular.transform import (
    ClosureError,
    direct_product,
    graph_pair_to_groupoid,
    graph_pair_to_matrices,
    groupoid_to_graph_pair,
    matrices_to_graph_pair,
    quotient,
    square_lift,
    subalgebra,
)

import fixtures as fx
import oracles

TRIVIAL = make_groupoid(1, [0])


class TestGraphPairMaps:
    def test_constant_gives_farmers_market(self):
        gp = groupoid_to_graph_pair(fx.C4)
        assert gp.red_edges() == {(x, 0) for x in range(4)}
        assert gp.green_edges() == {(0, x) for x in range(4)}

    def test_farmers_market_gives_constant(self):
        gp = GraphPair.from_edges(4, [(x, 0) for x in range(4)],
                                  [(0, x) for x in range(4)])
        assert graph_pair_to_groupoid(gp) == fx.C4

    def test_trivial(self):
        gp = groupoid_to_graph_pair(TRIVIAL)
        assert gp.red_edges() == gp.green_edges() == {(0, 0)}

    def test_x4_red_is_the_example_matrix(self):
        gp = groupoid_to_graph_pair(fx.X4)
        b = BoolMatrix.from_grid([[1, 1, 0, 0],
                                  [0, 0, 1, 1],
                                  [0, 0, 1, 1],
                                  [1, 1, 0, 0]])
        assert gp.red == b.rows
        assert satisfies_p2(gp)

    def test_equal_relations_pair_regenerates_itself(self):
        # red = green = B is a unique-path pair; its groupoid is the X4
        # table with the symbols 2 and 3 renamed into each other
        b = BoolMatrix.from_grid([[1, 1, 0, 0],
                                  [0, 0, 1, 1],
                                  [0, 0, 1, 1],
                                  [1, 1, 0, 0]])
        gp = GraphPair(4, b.rows, b.rows)
        g = graph_pair_to_groupoid(gp)
        assert g == make_groupoid(4, [0, 0, 1, 1,
                                      3, 3, 2, 2,
                                      3, 3, 2, 2,
                                      0, 0, 1, 1])
        assert is_rectangular(g)
        assert groupoid_to_graph_pair(g) == gp

    def test_complete_pair_is_rejected_with_count(self):
        full = GraphPair(2, (3, 3), (3, 3))
        with pytest.raises(ValueError, match=r"\(0,0\) has 2"):
            graph_pair_to_groupoid(full)

    def test_round_trip_on_all_small_rectangular(self):
        for n in (1, 2, 3):
            for g in iter_rectangular_tables(n):
                gp = groupoid_to_graph_pair(g)
                assert satisfies_p2(gp)
                assert graph_pair_to_groupoid(gp) == g

    def test_duality_square_commutes(self):
        for n in (1, 2, 3):
            for g in iter_rectangular_tables(n):
                lhs = groupoid_to_graph_pair(opposite(g))
                rhs = dual_graph_pair(groupoid_to_graph_pair(g))
                assert lhs == rhs


class TestMatrixMaps:
    def test_example_two(self):
        b = BoolMatrix.from_grid([[1, 1, 0, 0],
                                  [0, 0, 1, 1],
                                  [0, 0, 1, 1],
                                  [1, 1, 0, 0]])
        gp = GraphPair(4, b.rows, b.rows)
        assert graph_pair_to_matrices(gp) == (b, b)

    def test_example_one(self):
        gp = groupoid_to_graph_pair(fx.C4)
        a, b = graph_pair_to_matrices(gp)
        assert a == BoolMatrix.from_grid([[1, 0, 0, 0]] * 4)
        assert b == BoolMatrix.from_grid([[1, 1, 1, 1]] + [[0, 0, 0, 0]] * 3)
        assert satisfies_p4(a, b)

    def test_round_trip_random(self):
        rng = random.Random(10)
        for _ in range(1000):
            gp = oracles.random_graph_pair(rng, rng.randrange(1, 6))
            a, b = graph_pair_to_matrices(gp)
            assert matrices_to_graph_pair(a, b) == gp

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matrices_to_graph_pair(BoolMatrix.ones(2), BoolMatrix.ones(3))


class TestQuotient:
    def test_q5_collapse_is_not_rectangular(self):
        q = quotient(fx.Q5, Partition(5, ((0, 1, 2, 3), (4,))))
        assert q == make_groupoid(2, [0, 0, 0, 1])
        assert not is_rectangular(q)
        assert is_rectangular(fx.Q5) and is_idempotent(fx.Q5)

    def test_singleton_partition_is_identity(self):
        assert quotient(fx.X4, Partition.singletons(4)) == fx.X4

    def test_single_block_collapses_to_trivial(self):
        assert quotient(fx.C4, Partition.single_block(4)) == TRIVIAL

    def test_non_congruence_rejected_with_quadruple(self):
        z3 = make_groupoid(3, [0, 1, 2, 1, 2, 0, 2, 0, 1])
        with pytest.raises(ValueError, match="not a congruence"):
            quotient(z3, Partition(3, ((0, 1), (2,))))


class TestDirectProduct:
    def test_trivial_is_identity_both_sides(self):
        assert direct_product(TRIVIAL, fx.X4) == fx.X4
        assert direct_product(fx.X4, TRIVIAL) == fx.X4

    def test_projections_give_band(self):
        left = make_groupoid(2, [0, 0, 1, 1])
        right = make_groupoid(2, [0, 1, 0, 1])
        assert direct_product(left, right) == rectangular_band(2, 2)

    def test_constant_times_constant(self):
        c2 = make_groupoid(2, [0, 0, 0, 0])
        p = direct_product(c2, c2)
        assert is_rectangular(p)
        assert p.table[3][3] == 0

    def test_preserved_properties(self):
        samples = [TRIVIAL, fx.X4, rectangular_band(2, 2), evans_central(2),
                   make_groupoid(2, [0, 0, 1, 1])]
        for g, h in product(samples, repeat=2):
            p = direct_product(g, h)
            for pred in (is_rectangular, is_idempotent, is_associative, is_central):
                if pred(g) and pred(h):
                    assert pred(p), pred.__name__


class TestSubalgebra:
    def test_x4_pair_is_not_closed(self):
        with pytest.raises(ClosureError) as info:
            subalgebra(fx.X4, {0, 1})
        assert info.value.witness == (1, 0, 2)

    def test_full_carrier_round_trips(self):
        assert subalgebra(fx.X4, set(range(4))) == fx.X4

    def test_single_idempotent(self):
        assert subalgebra(fx.C4, {0}) == TRIVIAL

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            subalgebra(fx.C4, set())

    def test_reindexing_by_sorted_subset(self):
        sub = subalgebra(fx.Q5, {0, 2})
        assert sub == make_groupoid(2, [0, 1, 0, 1])


class TestSquareLift:
    def test_latin_square_lift(self):
        latin = make_groupoid(2, [0, 1, 1, 0])
        lift = square_lift(latin)
        assert lift == make_groupoid(4, [0, 0, 3, 3,
                                         0, 0, 3, 3,
                                         2, 2, 1, 1,
                                         2, 2, 1, 1])
        assert not is_rectangular(latin)
        assert is_rectangular(lift)

    def test_trivial(self):
        assert square_lift(TRIVIAL) == TRIVIAL

    def test_projection_is_surjective_homomorphism(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randrange(2, 6)
            g = oracles.random_groupoid(rng, n)
            lift = square_lift(g)
            assert is_rectangular(lift)
            proj = lambda x: x // n
            seen = set()
            for a in range(n * n):
                seen.add(proj(a))
                for b in range(n * n):
                    assert proj(lift.table[a][b]) == g.table[proj(a)][proj(b)]
            assert seen == set(range(n))


def test_pair_constructors_match_their_pair_definitions():
    # each pair is numbered by its place in product(range(n), range(m)),
    # which is the row-major order with the left factor major
    def literal(n, m, op):
        pairs = list(product(range(n), range(m)))
        return Groupoid(n * m, tuple(tuple(pairs.index(op(x, y)) for y in pairs)
                                     for x in pairs))

    rng = random.Random(7)
    for n, m in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        assert rectangular_band(n, m) == literal(n, m, lambda x, y: (x[0], y[1]))
        g = oracles.random_groupoid(rng, n)
        h = oracles.random_groupoid(rng, m)
        assert direct_product(g, h) == literal(
            n, m, lambda x, y: (g.table[x[0]][y[0]], h.table[x[1]][y[1]]))
    for n in (1, 2, 3, 4):
        assert evans_central(n) == literal(n, n, lambda x, y: (x[1], y[0]))
        g = oracles.random_groupoid(rng, n)
        assert square_lift(g) == literal(n, n, lambda x, y: (g.table[x[0]][y[0]], y[0]))


SMALL_RECTANGULAR = [g for n in (1, 2, 3) for g in iter_rectangular_tables(n)]


@st.composite
def tables(draw, max_order=6):
    n = draw(st.integers(1, max_order))
    return make_groupoid(n, draw(st.lists(st.integers(0, n - 1),
                                          min_size=n * n, max_size=n * n)))


@st.composite
def rectangular_tables(draw):
    """One of the rectangular tables of order 3 or less, or an isotope of
    the square lift of any table of order 3 or less (orders 1, 4 and 9)."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SMALL_RECTANGULAR))
    lift = square_lift(draw(tables(max_order=3)))
    triple = [Permutation(tuple(draw(st.permutations(range(lift.order)))))
              for _ in range(3)]
    return apply_isotopy(lift, IsotopyTriple(*triple))


@st.composite
def graph_pairs(draw, max_order=8):
    n = draw(st.integers(1, max_order))
    rows = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    return GraphPair(n, tuple(draw(rows)), tuple(draw(rows)))


@settings(max_examples=200, deadline=None, database=None)
@given(rectangular_tables())
def test_graph_pair_of_a_rectangular_table_gives_it_back(g):
    assert is_rectangular(g)
    assert graph_pair_to_groupoid(groupoid_to_graph_pair(g)) == g


@settings(max_examples=200, deadline=None, database=None)
@given(graph_pairs())
def test_matrices_of_a_graph_pair_give_it_back(gp):
    assert matrices_to_graph_pair(*graph_pair_to_matrices(gp)) == gp
