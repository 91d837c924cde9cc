import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rectangular.core import (
    BoolMatrix,
    FiniteGroup,
    GraphPair,
    Groupoid,
    IsotopyTriple,
    Mapping,
    Partition,
    PartialArray,
    PartitionSystem,
    Permutation,
    Transversal,
    TRIVIAL,
    compose,
    dual_graph_pair,
    identity_counterexample,
    make_groupoid,
    opposite,
    transpose,
)
from rectangular.construct import evans_central, rectangular_band
from rectangular.isotopy import relabel

import fixtures as fx
import oracles


def test_make_groupoid_fixture():
    assert make_groupoid(4, [0] * 16) == fx.C4
    assert make_groupoid(1, [0]) == TRIVIAL


def test_make_groupoid_range_error_names_cell():
    with pytest.raises(ValueError, match=r"entry 2 out of range at \(1,1\)"):
        make_groupoid(2, [0, 0, 1, 2])


def test_make_groupoid_size_error():
    with pytest.raises(ValueError, match="expected 4 entries"):
        make_groupoid(2, [0, 0, 1])
    with pytest.raises(ValueError, match="positive"):
        make_groupoid(0, [])


def test_opposite_constant_is_fixed():
    assert opposite(fx.C4) == fx.C4


def test_opposite_involution():
    assert opposite(opposite(fx.X4)) == fx.X4
    assert opposite(opposite(fx.Q5)) == fx.Q5


def test_opposite_swaps_projections():
    left = make_groupoid(2, [0, 0, 1, 1])
    right = make_groupoid(2, [0, 1, 0, 1])
    assert opposite(left) == right


def test_dual_graph_pair_involution_and_singletons():
    gp = GraphPair.from_edges(2, [(0, 1)], [(1, 0)])
    dual = dual_graph_pair(gp)
    assert dual.red_edges() == {(0, 1)}
    assert dual.green_edges() == {(1, 0)}
    assert dual_graph_pair(dual) == gp


def test_transpose_all_ones_and_identity():
    assert transpose(BoolMatrix.ones(3)) == BoolMatrix.ones(3)
    eye = BoolMatrix.from_grid([[1, 0], [0, 1]])
    assert transpose(eye) == eye


def test_transpose_by_hand():
    b = BoolMatrix.from_grid([[1, 1, 0, 0],
                              [0, 0, 1, 1],
                              [0, 0, 1, 1],
                              [1, 1, 0, 0]])
    expected = BoolMatrix.from_grid([[1, 0, 0, 1],
                                     [1, 0, 0, 1],
                                     [0, 1, 1, 0],
                                     [0, 1, 1, 0]])
    assert transpose(b) == expected
    assert transpose(transpose(b)) == b


def test_graph_pair_edge_round_trip():
    edges_r = {(0, 0), (1, 2), (2, 1)}
    edges_g = {(0, 1), (2, 2)}
    gp = GraphPair.from_edges(3, edges_r, edges_g)
    assert gp.red_edges() == edges_r
    assert gp.green_edges() == edges_g
    assert gp.has_red(1, 2) and not gp.has_red(2, 2)


def test_graph_pair_rejects_out_of_range():
    with pytest.raises(ValueError):
        GraphPair.from_edges(2, [(0, 2)], [])


def test_bool_matrix_rejects_non_bits():
    with pytest.raises(ValueError, match="not 0 or 1"):
        BoolMatrix.from_grid([[0, 2], [0, 0]])


@pytest.mark.parametrize("make, what", [
    (lambda n, rows: GraphPair(n, rows, (0,) * max(n, 0)), "red relation"),
    (lambda n, rows: GraphPair(n, (0,) * max(n, 0), rows), "green relation"),
    (BoolMatrix, "matrix"),
])
def test_bit_rows_are_checked_naming_the_relation_or_matrix(make, what):
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^order must be positive, got {n}$"):
            make(n, ())
    with pytest.raises(ValueError, match=rf"^{what} needs 3 rows$"):
        make(3, (0, 0))
    for bad in (8, -1):
        with pytest.raises(ValueError, match=rf"^{what} has bits outside 0\.\.2$"):
            make(3, (0, bad, 7))
    assert make(3, [0, 7, 5]) is not None


def test_partial_array_validation():
    with pytest.raises(ValueError, match="out of range"):
        fx.B3.__class__(2, ((0, 3), (None, 1)))
    assert not fx.B3.is_total()
    total = fx.B3.__class__(2, ((0, 1), (1, 0)))
    assert total.to_groupoid() == make_groupoid(2, [0, 1, 1, 0])


def test_non_integer_entries_are_value_errors():
    # one entry check for every square table: an int in range, or None in a
    # partial array's empty cell
    with pytest.raises(ValueError, match=r"entry 0.5 out of range at \(0,0\)"):
        PartialArray(2, ((0.5, None), (None, None)))
    with pytest.raises(ValueError, match=r"entry 1.0 out of range at \(0,1\)"):
        FiniteGroup(2, ((0, 1.0), (1, 0)))
    with pytest.raises(ValueError, match=r"entry None out of range at \(1,0\)"):
        Groupoid(2, ((0, 0), (None, 0)))


@pytest.mark.parametrize("make, message", [
    (lambda: Permutation((0.0, 1)), "permutation: 0.0"),
    (lambda: Mapping((0.5,), 2), "mapping: 0.5"),
    (lambda: GraphPair(1, (1.0,), (1,)), "red relation: 1.0"),
    (lambda: BoolMatrix(1, (1.0,)), "matrix: 1.0"),
    (lambda: Transversal(2, ((0.0, 0), (1, 1))), "transversal: 0.0"),
    (lambda: Groupoid(2.0, ((0, 1), (1, 0))), "groupoid table order: 2.0"),
    (lambda: Partition(2, ((0.0,), (1,))), "block (0.0,): 0.0"),
    (lambda: GraphPair(2.0, (1, 2), (1, 2)), "order: 2.0"),
])
def test_non_integer_values_are_value_errors(make, message):
    # a float equal to an int would pass the range checks
    with pytest.raises(ValueError, match=rf"^{re.escape(message)} is not an integer$"):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Groupoid(2, ((0, 1),)), "groupoid table must be exactly 2x2"),
    (lambda: BoolMatrix.from_grid([[0, 1], [1]]), "matrix must be square; row 1 has 1 entries"),
    (lambda: PartialArray(2, ((0, None), (1, 0))).to_groupoid(),
     "partial array has empty cells"),
    (lambda: compose(Permutation((0, 1)), Permutation((0, 1, 2))), "permutation orders differ"),
    (lambda: Partition(2, ((), (0, 1))), "empty block in partition"),
    (lambda: PartitionSystem(Partition.singletons(2), (Partition.single_block(2),)),
     "need one companion partition per base block (2), got 1"),
    (lambda: PartitionSystem(Partition.single_block(2), (Partition.singletons(3),)),
     "companion partition order differs from base order"),
], ids=["groupoid-rows", "matrix-row", "partial-to-groupoid", "compose", "empty-block",
        "companion-count", "companion-order"])
def test_malformed_values_are_value_errors_with_their_text(make, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        make()


def test_permutation_validation_and_inverse():
    p = Permutation((2, 0, 1))
    assert p.inverse().images == (1, 2, 0)
    assert compose(p, p.inverse()) == Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_isotopy_triple_orders_must_agree():
    with pytest.raises(ValueError):
        IsotopyTriple(Permutation.identity(2), Permutation.identity(2),
                      Permutation.identity(3))
    assert IsotopyTriple.identity(4).inverse() == IsotopyTriple.identity(4)


def test_partition_normalization_and_validation():
    p = Partition(4, ((3, 1), (0, 2)))
    assert p.blocks == ((0, 2), (1, 3))
    assert p.block_of(3) == 1
    with pytest.raises(ValueError, match="overlap"):
        Partition(3, ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="cover"):
        Partition(3, ((0, 1),))
    for block in ((0, -1), (0, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"block {block}: {block[1]} is outside 0..2")):
            Partition(3, (block, (1, 2)))


def test_partition_system_transversal_check():
    base = Partition(4, ((0, 1), (2, 3)))
    theta = Partition(4, ((0, 2), (1, 3)))
    ps = PartitionSystem(base, (theta, theta))
    assert ps.order == 4
    bad = Partition(4, ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match="transversal"):
        PartitionSystem(base, (bad, bad))


def test_finite_group_validation():
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup(2, ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(3, ((0, 1, 2), (1, 2, 1), (2, 0, 0)))
    s3 = oracles.symmetric_group_3()
    assert s3.order == 6
    assert s3.mul(s3.identity, 4) == 4


def test_transversal_validation():
    Transversal(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Transversal(2, ((0, 0), (1, 0)))


def test_mapping_validation():
    m = Mapping((0, 0, 1), 2)
    assert m.domain == 3 and m.apply(2) == 1
    with pytest.raises(ValueError):
        Mapping((0, 2), 2)


def test_values_are_immutable_and_hashable():
    seen = {fx.C4, fx.X4, fx.C4}
    assert len(seen) == 2
    with pytest.raises(AttributeError):
        fx.C4.order = 5


MALFORMED_IDENTITIES = [
    ("(x*y=y", "a '(' is not closed"),
    ("x*y=y)", "')' after the term 'y'"),
    ("xy=x", "'y' after the term 'x'"),
    ("x*", "exactly one '='"),
    ("x*=x", "a variable or '(' is due at 'the end'"),
    ("x=y=z", "exactly one '='"),
    ("1*x=x", "a variable or '(' is due at '1*x'"),
    ("x**y=x", "a variable or '(' is due at '*y'"),
    ("x*y", "exactly one '='"),
    ("()=x", "a variable or '(' is due at ')'"),
    ("x" + "*x" * 100 + "=x", "longer than 200 characters"),
]


@pytest.mark.parametrize("identity, why", MALFORMED_IDENTITIES)
def test_malformed_identity_is_a_value_error_naming_it(identity, why):
    g = make_groupoid(2, [0, 1, 1, 0])
    pattern = re.escape(f"malformed identity {identity!r}: ") + ".*" + re.escape(why)
    with pytest.raises(ValueError, match=pattern):
        identity_counterexample(g, identity)


def test_identity_whitespace_is_ignored():
    g = make_groupoid(2, [0, 0, 1, 0])
    assert identity_counterexample(g, "x*y = y*x") == identity_counterexample(g, "x*y=y*x") \
        == (0, 1)
    assert identity_counterexample(g, " ( x ) * x = x ") == (1,)


# orders 1-3, then seeded relabelings at orders 16 and 64 that satisfy some
# identities, and a one-cell change of each
_LARGE = [relabel(g, Permutation(oracles.random_permutation(random.Random(seed), g.order)))
          for seed, g in enumerate([evans_central(4), rectangular_band(4, 4),
                                    evans_central(8), rectangular_band(8, 8)])]
IDENTITY_TABLES = [make_groupoid(1, [0]), make_groupoid(2, [0, 0, 1, 0]),
                   make_groupoid(3, [1, 2, 0, 0, 0, 2, 2, 1, 1])] + _LARGE + [
    oracles.one_cell_change(g, g.order // 3, g.order // 2) for g in _LARGE]


IDENTITY_ALPHABET = "xyz*()= 1"
_terms = st.recursive(
    st.sampled_from("xyz"),
    lambda inner: st.tuples(inner, inner, st.booleans()).map(
        lambda t: f"({t[0]}*{t[1]})" if t[2] else f"{t[0]} * {t[1]}"),
    max_leaves=6)


@st.composite
def _near_identities(draw):
    """A well-formed identity with up to two characters inserted or deleted."""
    text = draw(st.tuples(_terms, _terms).map("=".join))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(IDENTITY_ALPHABET)) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    return text


@settings(max_examples=300, deadline=None, database=None)
@given(st.text(alphabet=IDENTITY_ALPHABET, max_size=40) | _near_identities())
def test_any_identity_string_evaluates_or_is_a_value_error(identity):
    # against Python's own parser reading * as the table's product
    for g in IDENTITY_TABLES:
        want = oracles.identity_violation_by_eval(g, identity)
        if want == "malformed":
            with pytest.raises(ValueError, match="malformed identity"):
                identity_counterexample(g, identity)
        else:
            assert identity_counterexample(g, identity) == want
