import random
from itertools import permutations

import pytest

from rectangular.core import (
    CapacityError,
    IsotopyTriple,
    Permutation,
    make_groupoid,
)
from rectangular.construct import constant_groupoid, evans_central, rectangular_band
from rectangular.census import enumerate_central, iter_rectangular_tables
from rectangular.isotopy import (
    _isotopy_profile,
    apply_isotopy,
    are_isomorphic,
    are_isotopic,
    canonical_form,
    find_transversal,
    idempotent_isotope,
    relabel,
)
from rectangular.properties import (
    is_full,
    is_idempotent,
    is_matrix_symmetric,
    is_rectangular,
)

import fixtures as fx
import oracles

from test_construct import random_rectangular

TRIVIAL = make_groupoid(1, [0])

# column permutation and symbol transposition that carry T5A onto T5B
T5_BETA = Permutation((2, 3, 1, 0, 4))
T5_GAMMA = Permutation((0, 2, 1, 3, 4))


def random_triple(rng, n):
    return IsotopyTriple(Permutation(oracles.random_permutation(rng, n)),
                         Permutation(oracles.random_permutation(rng, n)),
                         Permutation(oracles.random_permutation(rng, n)))


class TestApplyIsotopy:
    def test_identity_triple(self):
        assert apply_isotopy(fx.X4, IsotopyTriple.identity(4)) == fx.X4

    def test_documented_t5_witness(self):
        triple = IsotopyTriple(Permutation.identity(5), T5_BETA, T5_GAMMA)
        assert apply_isotopy(fx.T5A, triple) == fx.T5B

    def test_order_mismatch(self):
        with pytest.raises(ValueError, match="differs"):
            apply_isotopy(fx.X4, IsotopyTriple.identity(5))

    def test_kernel_is_the_literal_convention(self):
        # h(a, b) = gamma^-1(g(alpha(a), beta(b))), written out cell by cell
        rng = random.Random(35)
        for n in range(1, 6):
            for _ in range(100):
                g = oracles.random_groupoid(rng, n)
                t = random_triple(rng, n)
                alpha, beta, gamma = t.alpha.images, t.beta.images, t.gamma.images
                literal = [[gamma.index(g.table[alpha[a]][beta[b]]) for b in range(n)]
                           for a in range(n)]
                assert apply_isotopy(g, t) == make_groupoid(n, sum(literal, []))

    def test_relabel_is_the_inverse_triple(self):
        rng = random.Random(36)
        for n in range(1, 6):
            for _ in range(100):
                g = oracles.random_groupoid(rng, n)
                sigma = Permutation(oracles.random_permutation(rng, n))
                inv = sigma.inverse()
                h = relabel(g, sigma)
                assert h == apply_isotopy(g, IsotopyTriple(inv, inv, inv))
                s = sigma.images
                assert all(h.table[s[a]][s[b]] == s[g.table[a][b]]
                           for a in range(n) for b in range(n))

    def test_componentwise_inverse_round_trips(self):
        rng = random.Random(30)
        for _ in range(500):
            n = rng.randrange(1, 6)
            g = oracles.random_groupoid(rng, n)
            t = random_triple(rng, n)
            assert apply_isotopy(apply_isotopy(g, t), t.inverse()) == g

    def test_isotopes_of_rectangular_are_rectangular(self):
        rng = random.Random(31)
        for _ in range(500):
            g = random_rectangular(rng)
            h = apply_isotopy(g, random_triple(rng, g.order))
            assert is_rectangular(h)


class TestAreIsotopic:
    def test_t5_pair(self):
        witness = are_isotopic(fx.T5A, fx.T5B)
        assert witness is not None
        assert apply_isotopy(fx.T5A, witness) == fx.T5B

    def test_reflexive(self):
        for g in (fx.X4, fx.T5A, TRIVIAL):
            witness = are_isotopic(g, g)
            assert witness is not None
            assert apply_isotopy(g, witness) == g

    def test_constant_not_isotopic_to_projection(self):
        c2 = constant_groupoid(2, 0)
        left = make_groupoid(2, [0, 0, 1, 1])
        assert are_isotopic(c2, left) is None

    def test_symmetric_and_transitive_on_small_rectangular(self):
        tables = list(iter_rectangular_tables(2))
        for g in tables:
            for h in tables:
                w = are_isotopic(g, h)
                if w is not None:
                    assert are_isotopic(h, g) is not None
        # transitivity spot check across the order-2 classes
        for g in tables:
            for h in tables:
                for k in tables:
                    if are_isotopic(g, h) and are_isotopic(h, k):
                        assert are_isotopic(g, k) is not None

    def test_witness_is_the_first_triple_of_the_literal_walk(self):
        # all order-2 pairs, then seeded order-3 pairs: half of them
        # isotopes, and pairs that share their isotopy profile, so that
        # the full search decides and finds no witness for some of them
        rng = random.Random(37)
        tables = list(oracles.all_tables(2))
        pairs = [(g, h) for g in tables for h in tables]
        for _ in range(150):
            g = oracles.random_groupoid(rng, 3)
            h = (apply_isotopy(g, random_triple(rng, 3)) if rng.random() < 0.5
                 else oracles.random_groupoid(rng, 3))
            pairs.append((g, h))
        searched_none = 0
        while searched_none < 10:
            g, h = oracles.random_groupoid(rng, 3), oracles.random_groupoid(rng, 3)
            if _isotopy_profile(g) == _isotopy_profile(h):
                pairs.append((g, h))
                searched_none += oracles.isotopic_by_triples(g, h) is None
        for g, h in pairs:
            w = are_isotopic(g, h)
            got = None if w is None else (w.alpha.images, w.beta.images, w.gamma.images)
            assert got == oracles.isotopic_by_triples(g, h)

    def test_order_mismatch_and_capacity(self):
        with pytest.raises(ValueError):
            are_isotopic(fx.X4, fx.T5A)
        big = constant_groupoid(7, 0)
        with pytest.raises(CapacityError):
            are_isotopic(big, big)


class TestAreIsomorphic:
    def test_t5_pair_is_not_isomorphic(self):
        assert are_isomorphic(fx.T5A, fx.T5B) is None

    def test_orders_must_agree(self):
        with pytest.raises(ValueError, match=r"^orders differ: 2 vs 3$"):
            are_isomorphic(constant_groupoid(2, 0), constant_groupoid(3, 0))
        with pytest.raises(ValueError,
                           match=r"^permutation order differs from groupoid order$"):
            relabel(constant_groupoid(2, 0), Permutation.identity(3))

    def test_identity_witness_on_equal_tables(self):
        w = are_isomorphic(fx.X4, fx.X4)
        assert w == Permutation.identity(4)

    def test_constant_relabeling(self):
        a = constant_groupoid(2, 0)
        b = constant_groupoid(2, 1)
        w = are_isomorphic(a, b)
        assert w == Permutation((1, 0))
        assert relabel(a, w) == b

    def test_projections_are_not_isomorphic(self):
        left = make_groupoid(2, [0, 0, 1, 1])
        dual = make_groupoid(2, [1, 1, 0, 0])
        assert are_isomorphic(left, dual) is None
        assert are_isotopic(left, dual) is not None

    def test_witness_is_verified_on_random_relabelings(self):
        rng = random.Random(32)
        for _ in range(200):
            n = rng.randrange(1, 5)
            g = oracles.random_groupoid(rng, n)
            sigma = Permutation(oracles.random_permutation(rng, n))
            h = relabel(g, sigma)
            w = are_isomorphic(g, h)
            assert w is not None
            assert relabel(g, w) == h

    def test_agrees_with_the_literal_walk(self):
        rng = random.Random(35)
        for i in range(300):
            n = rng.randrange(1, 6)
            g = oracles.random_groupoid(rng, n)
            h = (relabel(g, Permutation(oracles.random_permutation(rng, n))) if i % 2
                 else oracles.random_groupoid(rng, n))
            self.check_witness(g, h)

    def test_order_nine_pairs_agree_with_the_literal_walk(self):
        g = evans_central(3)
        sigma = Permutation(oracles.random_permutation(random.Random(36), 9))
        assert self.check_witness(g, relabel(g, sigma)) is not None
        a, b = enumerate_central(9).tables[:2]
        assert _isotopy_profile(a) == _isotopy_profile(b)
        assert self.check_witness(a, b) is None

    @staticmethod
    def check_witness(g, h):
        w = are_isomorphic(g, h)
        want = oracles.first_isomorphism(g, h)
        assert (None if w is None else w.images) == want
        assert w is None or relabel(g, w) == h
        return w


class TestCanonicalForm:
    def test_constant_relabels_to_zero(self):
        assert canonical_form(constant_groupoid(3, 2)) == constant_groupoid(3, 0)

    def test_orbit_constancy(self):
        rng = random.Random(33)
        for _ in range(500):
            n = rng.randrange(1, 5)
            g = oracles.random_groupoid(rng, n)
            sigma = Permutation(oracles.random_permutation(rng, n))
            assert canonical_form(g) == canonical_form(relabel(g, sigma))

    def test_idempotent(self):
        rng = random.Random(34)
        for _ in range(100):
            g = oracles.random_groupoid(rng, 4)
            cf = canonical_form(g)
            assert canonical_form(cf) == cf

    def test_equals_the_least_relabeling(self):
        rng = random.Random(37)
        tables = [*oracles.all_tables(2),
                  *(oracles.random_groupoid(rng, n) for n in range(1, 6) for _ in range(12))]
        for g in tables:
            assert canonical_form(g).flat() == oracles.least_relabeling(g)

    def test_respects_isomorphism_exactly(self):
        tables = list(iter_rectangular_tables(2))
        for g in tables:
            for h in tables:
                same = canonical_form(g) == canonical_form(h)
                assert same == (are_isomorphic(g, h) is not None)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            canonical_form(constant_groupoid(10, 0))


class TestTransversal:
    def test_constant_has_none(self):
        assert find_transversal(fx.C4) is None

    def test_idempotent_tables_use_the_diagonal(self):
        for g in (rectangular_band(2, 2), fx.T5A):
            t = find_transversal(g)
            assert t is not None
            assert t.cells == tuple((i, i) for i in range(g.order))

    def test_latin_square_has_one(self):
        latin = make_groupoid(3, [0, 1, 2, 1, 2, 0, 2, 0, 1])
        assert find_transversal(latin) is not None

    def test_first_in_row_major_order_against_brute_force(self):
        # the least column permutation, in lex order, whose cells hold
        # distinct symbols; random tables of orders 1-5 and every
        # rectangular table of order 3
        def first(g):
            n = g.order
            return next((tuple(enumerate(cols)) for cols in permutations(range(n))
                         if len({g.table[r][c] for r, c in enumerate(cols)}) == n), None)

        rng = random.Random(7)
        tables = [make_groupoid(n, [rng.randrange(n) for _ in range(n * n)])
                  for n in range(1, 6) for _ in range(60)]
        tables += iter_rectangular_tables(3)
        found = 0
        for g in tables:
            t = find_transversal(g)
            assert (None if t is None else t.cells) == first(g)
            found += t is not None
        assert 0 < found < len(tables)


class TestIdempotentIsotope:
    def test_already_idempotent_is_fixed(self):
        triple, h = idempotent_isotope(fx.T5A)
        assert h == fx.T5A
        assert triple.alpha == Permutation.identity(5)

    def test_constant_has_none(self):
        assert idempotent_isotope(fx.C4) is None

    def test_matches_transversal_and_is_idempotent(self):
        for n in (1, 2, 3):
            for g in iter_rectangular_tables(n):
                result = idempotent_isotope(g)
                assert (result is not None) == (find_transversal(g) is not None)
                if result is not None:
                    triple, h = result
                    assert apply_isotopy(g, triple) == h
                    assert is_idempotent(h)
                    assert is_rectangular(h)


class TestIsotopyInvariants:
    def test_rectangular_full_image_size_invariant(self):
        rng = random.Random(35)
        for _ in range(300):
            n = rng.randrange(1, 6)
            g = oracles.random_groupoid(rng, n)
            h = apply_isotopy(g, random_triple(rng, n))
            assert is_rectangular(g) == is_rectangular(h)
            assert is_full(g) == is_full(h)
            image = lambda t: len({e for row in t.table for e in row})
            assert image(g) == image(h)

    def test_idempotence_is_not_invariant(self):
        band = rectangular_band(2, 2)
        swap = Permutation((1, 0, 2, 3))
        isotope = apply_isotopy(band, IsotopyTriple(
            Permutation.identity(4), Permutation.identity(4), swap))
        assert is_idempotent(band)
        assert not is_idempotent(isotope)

    def test_matrix_symmetry_survives_aligned_isotopies(self):
        # with alpha = beta the two-operation symmetry is conjugated, not
        # destroyed; general triples can and do destroy it (see below)
        rng = random.Random(36)
        for g in (fx.X4, evans_central(2), TRIVIAL):
            assert is_matrix_symmetric(g)
            for _ in range(100):
                shared = Permutation(oracles.random_permutation(rng, g.order))
                gamma = Permutation(oracles.random_permutation(rng, g.order))
                h = apply_isotopy(g, IsotopyTriple(shared, shared, gamma))
                assert is_matrix_symmetric(h)

    def test_matrix_symmetry_is_not_invariant_in_general(self):
        # a pure column permutation already destroys the second product:
        # 4608 of the 13824 isotopes of this table are not matrix-symmetric
        triple = IsotopyTriple(Permutation.identity(4),
                               Permutation((0, 2, 3, 1)),
                               Permutation.identity(4))
        h = apply_isotopy(fx.X4, triple)
        assert h.table == ((0, 1, 1, 0), (2, 3, 3, 2), (2, 3, 3, 2), (0, 1, 1, 0))
        assert is_rectangular(h)
        assert not is_matrix_symmetric(h)
