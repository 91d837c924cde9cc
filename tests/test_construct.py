import random
import re
from itertools import combinations, product

import pytest

from rectangular import construct
from rectangular.core import (
    CONSTRUCT_BOUND,
    CapacityError,
    GraphPair,
    Mapping,
    Partition,
    PartitionSystem,
    bits_of,
    make_groupoid,
    opposite,
)
from rectangular.construct import (
    abelian_group,
    constant_groupoid,
    coset_construction,
    cyclic_group,
    evans_central,
    extract_partition_system,
    group_factorization_pair,
    is_partitioned_pair,
    left_extension,
    left_split_extension,
    partition_construction,
    rectangular_band,
    right_extension,
    right_split_extension,
    simple_blow_up,
)
from rectangular.census import iter_rectangular_tables
from rectangular.properties import (
    is_associative,
    is_central,
    is_full,
    is_idempotent,
    is_rectangular,
    satisfies_p2,
    satisfies_partitioned_eqs,
)
from rectangular.transform import graph_pair_to_groupoid, groupoid_to_graph_pair

import fixtures as fx
import oracles

TRIVIAL = make_groupoid(1, [0])


def random_rectangular(rng, max_order=5):
    """Sample small rectangular groupoids through the constructions."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randrange(1, max_order + 1)
        return constant_groupoid(n, rng.randrange(n))
    if kind == 1:
        n = rng.randrange(1, 3)
        m = rng.randrange(1, max_order // n + 1)
        return rectangular_band(n, m)
    if kind == 2:
        base = rectangular_band(rng.randrange(1, 3), rng.randrange(1, 3))
        if base.order < max_order:
            return simple_blow_up(base, rng.randrange(base.order))
        return base
    flats = [g for g in iter_rectangular_tables(3)]
    return flats[rng.randrange(len(flats))]


class TestConstant:
    def test_c4(self):
        assert constant_groupoid(4, 0) == fx.C4

    def test_trivial(self):
        assert constant_groupoid(1, 0) == TRIVIAL

    def test_range_error(self):
        with pytest.raises(ValueError, match=r"^symbol: 5 is outside 0\.\.1$"):
            constant_groupoid(2, 5)

    @pytest.mark.parametrize("n", [0, -2])
    def test_order_error_comes_before_the_range_error(self, n):
        with pytest.raises(ValueError, match=rf"^order must be positive, got {n}$"):
            constant_groupoid(n, 0)

    def test_full_only_at_order_one(self):
        assert is_full(constant_groupoid(1, 0))
        assert not is_full(constant_groupoid(3, 1))


class TestEvans:
    def test_trivial(self):
        assert evans_central(1) == TRIVIAL

    def test_order_four_is_central(self):
        g = evans_central(2)
        assert g.order == 4
        assert is_central(g)
        assert is_rectangular(g)

    def test_order_nine_is_central(self):
        g = evans_central(3)
        assert g.order == 9
        assert is_central(g)


class TestBand:
    def test_one_row_band_is_right_projection(self):
        g = rectangular_band(1, 3)
        assert g == make_groupoid(3, [0, 1, 2] * 3)

    def test_band_2_2(self):
        g = rectangular_band(2, 2)
        assert is_idempotent(g) and is_associative(g) and is_rectangular(g)

    def test_band_2_3_clique_structure(self):
        g = rectangular_band(2, 3)
        gp = groupoid_to_graph_pair(g)
        # red: 2 reflexive cliques of size 3 (the row blocks)
        red_blocks = {gp.red[x] for x in range(6)}
        assert red_blocks == {0b000111, 0b111000}
        for x in range(6):
            assert gp.red[x] >> x & 1
        # green: 3 cliques of size 2 (the column blocks)
        green_blocks = {gp.green[x] for x in range(6)}
        assert green_blocks == {0b001001, 0b010010, 0b100100}


class TestBlowUp:
    def test_blow_up_of_trivial_is_constant(self):
        assert simple_blow_up(TRIVIAL, 0) == constant_groupoid(2, 0)

    def test_blow_up_of_band(self):
        g = simple_blow_up(rectangular_band(2, 2), 0)
        assert g.order == 5
        assert is_rectangular(g)
        assert not is_full(g)

    def test_blow_up_twice(self):
        g = simple_blow_up(simple_blow_up(rectangular_band(2, 2), 0), 2)
        assert is_rectangular(g)

    def test_new_element_multiplies_like_anchor(self):
        g = simple_blow_up(fx.X4, 3)
        for x in range(4):
            assert g.table[4][x] == fx.X4.table[3][x]
            assert g.table[x][4] == fx.X4.table[x][3]
        assert g.table[4][4] == fx.X4.table[3][3]

    def test_range_error(self):
        with pytest.raises(ValueError, match=r"^anchor: 1 is outside 0\.\.0$"):
            simple_blow_up(TRIVIAL, 1)

    def test_requires_rectangular(self):
        with pytest.raises(ValueError, match="rectangular"):
            simple_blow_up(make_groupoid(2, [0, 1, 1, 0]), 0)


class TestOneElementExtensions:
    def test_left_extension_of_trivial(self):
        assert left_extension(TRIVIAL, 0) == make_groupoid(2, [0, 0, 1, 1])

    def test_right_extension_of_trivial(self):
        assert right_extension(TRIVIAL, 0) == make_groupoid(2, [0, 1, 0, 1])

    def test_left_extension_of_band(self):
        g = left_extension(rectangular_band(2, 2), 0)
        assert g.order == 5
        assert is_rectangular(g)

    def test_idempotence_is_preserved(self):
        rng = random.Random(20)
        for _ in range(100):
            g = random_rectangular(rng)
            if not is_idempotent(g):
                continue
            a = rng.randrange(g.order)
            assert is_idempotent(left_extension(g, a))
            assert is_idempotent(right_extension(g, a))

    def test_right_is_opposite_conjugate_of_left(self):
        rng = random.Random(21)
        count = 0
        while count < 100:
            g, a = self._admissible(rng)
            if g is None:
                continue
            count += 1
            assert right_extension(g, a) == opposite(left_extension(opposite(g), a))

    @staticmethod
    def _admissible(rng):
        g = random_rectangular(rng)
        anchors = [a for a in range(g.order) if g.table[a][a] == a]
        if not anchors:
            return None, None
        return g, rng.choice(anchors)

    def test_extensions_preserve_rectangularity(self):
        rng = random.Random(22)
        count = 0
        while count < 500:
            g, a = self._admissible(rng)
            if g is None:
                continue
            count += 1
            assert is_rectangular(left_extension(g, a))
            assert is_rectangular(right_extension(g, a))

    def test_non_idempotent_anchor_is_rejected(self):
        # with a non-idempotent anchor the corner cell cannot satisfy the
        # rectangle of a*a, so the construction refuses it
        g = constant_groupoid(3, 2)
        with pytest.raises(ValueError, match="not idempotent"):
            left_extension(g, 1)
        with pytest.raises(ValueError, match="not idempotent"):
            right_extension(g, 0)


class TestSplitExtensions:
    def test_left_split_of_trivials(self):
        g = left_split_extension(TRIVIAL, TRIVIAL, Mapping((0,), 1), Mapping((0,), 1))
        assert g.order == 2
        assert is_rectangular(g)

    def test_left_split_block_structure(self):
        a = rectangular_band(1, 2)
        b = make_groupoid(2, [0, 0, 1, 1])
        f = Mapping((1, 0), 2)
        g = Mapping((0, 1), 2)
        s = left_split_extension(a, b, f, g)
        na = a.order
        # diagonal blocks are the factors (B shifted)
        for x, y in product(range(na), repeat=2):
            assert s.table[x][y] == a.table[x][y]
            assert s.table[na + x][na + y] == b.table[x][y] + na
        # top right: columns of A copied via g; bottom left: columns of B via f
        for x in range(na):
            for y in range(b.order):
                assert s.table[x][na + y] == a.table[x][g.apply(y)]
        for x in range(b.order):
            for y in range(na):
                assert s.table[na + x][y] == b.table[x][f.apply(y)] + na

    def test_right_split_block_structure(self):
        a = rectangular_band(2, 1)
        b = make_groupoid(2, [0, 1, 0, 1])
        f = Mapping((0, 1), 2)
        g = Mapping((1, 1), 2)
        s = right_split_extension(a, b, f, g)
        na = a.order
        for x in range(na):
            for y in range(b.order):
                assert s.table[x][na + y] == b.table[f.apply(x)][y] + na
        for x in range(b.order):
            for y in range(na):
                assert s.table[na + x][y] == a.table[g.apply(x)][y]

    def test_right_split_is_opposite_conjugate_of_left(self):
        rng = random.Random(23)
        for _ in range(100):
            a = random_rectangular(rng, max_order=3)
            b = random_rectangular(rng, max_order=3)
            f = Mapping(tuple(rng.randrange(b.order) for _ in range(a.order)), b.order)
            g = Mapping(tuple(rng.randrange(a.order) for _ in range(b.order)), a.order)
            lhs = right_split_extension(a, b, f, g)
            rhs = opposite(left_split_extension(opposite(a), opposite(b), f, g))
            assert lhs == rhs

    def test_splits_preserve_rectangularity(self):
        rng = random.Random(24)
        for _ in range(200):
            a = random_rectangular(rng, max_order=4)
            b = random_rectangular(rng, max_order=4)
            f = Mapping(tuple(rng.randrange(b.order) for _ in range(a.order)), b.order)
            g = Mapping(tuple(rng.randrange(a.order) for _ in range(b.order)), a.order)
            assert is_rectangular(left_split_extension(a, b, f, g))
            assert is_rectangular(right_split_extension(a, b, f, g))

    def test_mapping_mismatch_rejected(self):
        with pytest.raises(ValueError, match="f must map"):
            left_split_extension(TRIVIAL, TRIVIAL, Mapping((0, 0), 1), Mapping((0,), 1))
        with pytest.raises(ValueError, match=re.escape(
                "g must map the second carrier (size 3) into the first (size 2); "
                "got domain 2, codomain 2")):
            left_split_extension(constant_groupoid(2, 0), constant_groupoid(3, 0),
                                 Mapping((0, 0), 3), Mapping((0, 0), 2))


class TestPartitionConstruction:
    def test_two_by_two_blocks(self):
        base = Partition(4, ((0, 1), (2, 3)))
        theta = Partition(4, ((0, 2), (1, 3)))
        gp = partition_construction(PartitionSystem(base, (theta, theta)))
        assert satisfies_p2(gp)
        assert gp.red[0] == gp.red[1] == 0b0011
        assert gp.red[2] == gp.red[3] == 0b1100
        g = graph_pair_to_groupoid(gp)
        assert satisfies_partitioned_eqs(g)

    def test_trivial_order_one(self):
        ps = PartitionSystem(Partition.singletons(1), (Partition.single_block(1),))
        gp = partition_construction(ps)
        assert satisfies_p2(gp)

    def test_single_base_block_gives_right_projection(self):
        n = 4
        ps = PartitionSystem(Partition.single_block(n), (Partition.singletons(n),))
        gp = partition_construction(ps)
        assert satisfies_p2(gp)
        assert graph_pair_to_groupoid(gp) == make_groupoid(n, list(range(n)) * n)

    def test_extraction_regenerates(self):
        base = Partition(6, ((0, 1, 2), (3, 4, 5)))
        theta = Partition(6, ((0, 3), (1, 4), (2, 5)))
        gp = partition_construction(PartitionSystem(base, (theta, theta)))
        assert is_partitioned_pair(gp)
        assert partition_construction(extract_partition_system(gp)) == gp

    def test_extraction_rejects_unpartitioned(self):
        gp = groupoid_to_graph_pair(fx.C4)
        with pytest.raises(ValueError, match="not partitioned"):
            extract_partition_system(gp)


class TestGroups:
    def test_cyclic(self):
        z4 = cyclic_group(4)
        assert z4.identity == 0
        assert z4.mul(3, 2) == 1

    def test_abelian_product(self):
        g = abelian_group(2, 3)
        assert g.order == 6
        # (1,0) + (1,2) = (0,2)
        assert g.mul(3, 5) == 2

    @pytest.mark.parametrize("moduli", [(1,), (2,), (5,), (6,), (2, 2), (2, 3), (3, 2),
                                        (2, 2, 2), (4, 2, 3), (1, 3), (3, 1, 2)])
    def test_abelian_is_the_direct_product_of_cyclic_tables(self, moduli):
        # element (x, y) of G x Z_m is x * m + y: the left factor is major
        table = [[0]]
        for m in moduli:
            z = cyclic_group(m).table
            table = [[table[x1][x2] * m + z[y1][y2]
                      for x2 in range(len(table)) for y2 in range(m)]
                     for x1 in range(len(table)) for y1 in range(m)]
        g = abelian_group(*moduli)
        assert g.order == len(table)
        assert g.table == tuple(tuple(row) for row in table)

    @pytest.mark.parametrize("moduli", [(1,), (2,), (7,), (2, 2), (2, 3), (3, 1, 2), (4, 2, 3),
                                        (5, 4), (2,) * 6, (300,), (2, 150)])
    def test_abelian_table_matches_the_literal_sum_and_lookup(self, moduli):
        assert abelian_group(*moduli).table == oracles.abelian_group_table(*moduli)

    def test_factorization_z6(self):
        gp = group_factorization_pair(cyclic_group(6), {0, 3}, {0, 1, 2})
        assert satisfies_p2(gp)

    def test_factorization_trivial_subgroup(self):
        z4 = cyclic_group(4)
        gp = group_factorization_pair(z4, {0}, {0, 1, 2, 3})
        assert gp.red_edges() == {(x, x) for x in range(4)}
        assert gp.green_edges() == {(a, b) for a in range(4) for b in range(4)}

    def test_factorization_collision_reported(self):
        with pytest.raises(ValueError, match="not an exact factorization"):
            group_factorization_pair(cyclic_group(4), {0, 1}, {0, 1})

    def test_factorization_sizes_are_checked(self):
        with pytest.raises(ValueError, match=r"^h must be nonempty$"):
            group_factorization_pair(cyclic_group(4), set(), {0})
        with pytest.raises(ValueError, match=re.escape(
                "|h|*|k| = 1*2 != 4; not an exact factorization")):
            group_factorization_pair(cyclic_group(4), {0}, {0, 1})

    def test_abelian_needs_a_modulus(self):
        with pytest.raises(ValueError, match=r"^moduli must be a nonempty list of positive "
                                             r"integers$"):
            abelian_group()

    def test_translations_are_automorphisms(self):
        groups = [cyclic_group(k) for k in range(2, 9)] + [oracles.symmetric_group_3()]
        found = 0
        for gamma in groups:
            n = gamma.order
            for hsize in range(1, n + 1):
                if n % hsize:
                    continue
                for h in combinations(range(n), hsize):
                    for k in combinations(range(n), n // hsize):
                        try:
                            gp = group_factorization_pair(gamma, set(h), set(k))
                        except ValueError:
                            continue
                        found += 1
                        assert satisfies_p2(gp)
                        for t in range(n):
                            for a in range(n):
                                for b in bits_of(gp.red[a]):
                                    assert gp.has_red(gamma.mul(t, a), gamma.mul(t, b))
                                for b in bits_of(gp.green[a]):
                                    assert gp.has_green(gamma.mul(t, a), gamma.mul(t, b))
        assert found > 50


class TestCosetConstruction:
    def test_agrees_with_factorization_on_z6(self):
        z6 = cyclic_group(6)
        assert coset_construction(z6, {0, 3}, {0, 1, 2}) == \
            group_factorization_pair(z6, {0, 3}, {0, 1, 2})

    def test_whole_group_subgroup(self):
        z4 = cyclic_group(4)
        gp = coset_construction(z4, set(range(4)), {0})
        assert gp.red_edges() == {(a, b) for a in range(4) for b in range(4)}
        assert gp.green_edges() == {(x, x) for x in range(4)}

    def test_z4_proper_subgroup(self):
        gp = coset_construction(cyclic_group(4), {0, 2}, {0, 1})
        assert satisfies_p2(gp)
        assert is_partitioned_pair(gp)

    def test_s3_nonabelian(self):
        s3 = oracles.symmetric_group_3()
        sub = None
        for trio in combinations(range(6), 3):
            if s3.identity in trio and all(s3.mul(a, b) in trio for a in trio for b in trio):
                sub = set(trio)
                break
        assert sub is not None
        others = sorted(set(range(6)) - sub)
        t = {s3.identity, others[0]}
        gp = coset_construction(s3, sub, t)
        assert satisfies_p2(gp)

    def test_bad_subgroup_rejected(self):
        with pytest.raises(ValueError, match="not a subgroup"):
            coset_construction(cyclic_group(4), {0, 1}, {0, 2})

    def test_bad_transversal_rejected(self):
        with pytest.raises(ValueError, match="transversal"):
            coset_construction(cyclic_group(4), {0, 2}, {0, 2})

    def test_identity_is_required(self):
        with pytest.raises(ValueError, match=r"^subgroup must contain the identity$"):
            coset_construction(cyclic_group(4), {1, 3}, {0, 1})
        with pytest.raises(ValueError, match=r"^transversal must contain the identity$"):
            coset_construction(cyclic_group(4), {0, 2}, {1, 2})

    @pytest.mark.parametrize("moduli", [(1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,),
                                        (2, 4), (2, 2, 2), (9,), (3, 3)])
    def test_agrees_with_factorization_on_abelian_groups(self, moduli):
        # every subgroup h and every left-coset transversal t holding the
        # identity: both constructions give red row g*h and green row g*t
        gamma = abelian_group(*moduli)
        n = gamma.order
        pairs = 0
        for rest in range(1 << (n - 1)):
            h = {0, *(x for x in range(1, n) if rest >> (x - 1) & 1)}
            if any(gamma.mul(x, y) not in h for x in h for y in h):
                continue
            cosets = {frozenset(gamma.mul(g, x) for x in h) for g in range(n)}
            others = [sorted(c) for c in cosets if 0 not in c]
            for reps in product(*others):
                t = {0, *reps}
                assert coset_construction(gamma, h, t) == group_factorization_pair(gamma, h, t)
                pairs += 1
        assert pairs


class TestConstructorsSatisfyDefiningPredicates:
    def test_constants_and_bands_and_evans(self):
        for n in range(1, 13):
            assert is_rectangular(constant_groupoid(n, n - 1))
        # every band the blow-up search oracle extends
        sizes = [(n, m) for n in range(1, 13) for m in range(1, 12 // n + 1)]
        assert len(sizes) == 35
        for n, m in sizes:
            assert is_rectangular(rectangular_band(n, m)), (n, m)
        for m in (1, 2, 3):
            g = evans_central(m)
            assert is_central(g) and is_rectangular(g)

    def test_partition_systems_of_order_four(self):
        # every partition system on four points yields a unique-path pair
        def partitions(universe):
            if not universe:
                yield []
                return
            first, *rest = universe
            for smaller in partitions(rest):
                for i, block in enumerate(smaller):
                    yield smaller[:i] + [[first] + block] + smaller[i + 1:]
                yield [[first]] + smaller

        n = 4
        all_parts = [Partition(n, tuple(map(tuple, blocks)))
                     for blocks in partitions(list(range(n)))]
        count = 0
        for base in all_parts:
            choices = []
            for block in base.blocks:
                fits = [theta for theta in all_parts
                        if all(len(set(block) & set(tb)) == 1 for tb in theta.blocks)]
                choices.append(fits)
            for combo in product(*choices):
                gp = partition_construction(PartitionSystem(base, combo))
                assert satisfies_p2(gp)
                assert satisfies_partitioned_eqs(graph_pair_to_groupoid(gp))
                count += 1
        assert count > 10


@pytest.fixture(scope="module")
def bound_table():
    """A table of the largest order a construction builds, made once."""
    return constant_groupoid(CONSTRUCT_BOUND, 0)


# each build takes the order-2048 table; those that add to it must refuse
# before they build anything
@pytest.mark.parametrize("build", [
    lambda big: constant_groupoid(CONSTRUCT_BOUND + 1, 0),
    lambda big: evans_central(46),  # order 2116
    lambda big: rectangular_band(1, CONSTRUCT_BOUND + 1),
    lambda big: cyclic_group(CONSTRUCT_BOUND + 1),
    lambda big: abelian_group(3, 683),  # order 2049
    lambda big: simple_blow_up(big, 0),
    lambda big: left_extension(big, 0),
    lambda big: right_extension(big, 0),
    lambda big: left_split_extension(big, TRIVIAL, Mapping((0,) * CONSTRUCT_BOUND, 1),
                                     Mapping((0,), CONSTRUCT_BOUND)),
    lambda big: right_split_extension(big, TRIVIAL, Mapping((0,) * CONSTRUCT_BOUND, 1),
                                      Mapping((0,), CONSTRUCT_BOUND)),
], ids=["constant", "evans", "band", "cyclic", "abelian", "blowup", "left-ext", "right-ext",
        "left-split", "right-split"])
def test_constructions_above_their_bound_raise_capacity_error(build, bound_table, monkeypatch):
    # the right-hand forms refuse before they transpose their inputs
    def no_opposite(g):
        raise AssertionError("an opposite was built above the bound")
    monkeypatch.setattr(construct, "opposite", no_opposite)
    with pytest.raises(CapacityError, match="bounded at order 2048"):
        build(bound_table)
