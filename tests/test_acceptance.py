"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Two criteria record where
the paper's stated claims differ from what holds under this package's
definitions, and each asserts the fact that holds: 02, that the closed-form
extension count n^(m-1) * m^(n-1) * (n+m-1) counts spanning trees with a
marked edge, the first term of the exact sum over periodic points, and so
matches the blow-up count only when min(n, m) <= 2; 07d,
that "partitioned both ways iff associative" needs idempotence.  Every
criterion is meant to pass, so any failure here is a regression.
"""

import random
from itertools import product

from rectangular.census import (
    enumerate_band_blow_ups,
    enumerate_central,
    enumerate_rectangular,
    iter_rectangular_tables,
)
from rectangular.core import (
    BoolMatrix,
    IsotopyTriple,
    Partition,
    Permutation,
    bits_of,
    make_groupoid,
    transpose_bits,
)
from rectangular.construct import (
    coset_construction,
    cyclic_group,
    extract_partition_system,
    group_factorization_pair,
    is_partitioned_pair,
    partition_construction,
)
from rectangular.isotopy import apply_isotopy, are_isomorphic, are_isotopic
from rectangular.properties import (
    derive_plus,
    has_blackburn,
    is_associative,
    is_central,
    is_congruence,
    is_idempotent,
    is_matrix_symmetric,
    is_partial_latin,
    is_partial_p1,
    is_rectangular,
    right_reabsorption_violation,
    satisfies_dually_partitioned_eqs,
    satisfies_left_reabsorption,
    satisfies_p1,
    satisfies_p2,
    satisfies_p4,
    satisfies_partitioned_eqs,
    satisfies_undirected_eq,
)
from rectangular.transform import (
    graph_pair_to_groupoid,
    graph_pair_to_matrices,
    groupoid_to_graph_pair,
    quotient,
    square_lift,
)

import fixtures as fx
import oracles


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} {name} failed"


def all_small_rectangular():
    for n in (1, 2, 3, 4):
        yield from iter_rectangular_tables(n)


def test_criterion_01_central_census_order_nine():
    result = enumerate_central(9)
    ok = result.count == 6 and all(is_central(g) for g in result.tables)
    ok = ok and len({g.flat() for g in result.tables}) == 6
    report(1, "order-9 central census has exactly 6 classes", ok)


def test_criterion_02_band_extension_counts():
    # A one-element extension of the n x m band is fixed by its new row, a
    # map f: B->A, and its new column, a map g: A->B; it is rectangular
    # exactly when g o f has one fixed point, which pins the corner.  Four
    # independent counts of these must agree at every size the cell search
    # reaches: the census's periodic-point sum, the cell search, the
    # inclusion-exclusion oracle and a literal walk over all (f, g).  The
    # published closed form is the sum's k = 1 term, the pairs whose fixed
    # point is the only periodic point of g o f (spanning trees of K_{n,m}
    # with a marked edge): it equals that walk count everywhere, and the
    # blow-up count only when min(n, m) <= 2.  At (3,3) the paper's 405 is
    # the tree count; the blow-ups number 423 = 405 + 0 + 18 over k = 1, 2, 3.
    closed = lambda n, m: n ** (m - 1) * m ** (n - 1) * (n + m - 1)
    pinned = {(1, 1): 1, (2, 2): 12, (2, 3): 48, (3, 2): 48,
              (3, 3): 423, (3, 4): 2808}
    sizes = [(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12]
    ok = closed(3, 3) == 405 and oracles.blow_up_pair_counts(3, 3) == {1: 405, 3: 18}
    for n, m in sizes:
        by_periodic = oracles.blow_up_pair_counts(n, m)
        exact = sum(by_periodic.values())
        ok = ok and enumerate_band_blow_ups(n, m) == exact
        ok = ok and oracles.blow_up_count_by_search(n, m) == exact
        ok = ok and oracles.blow_up_count_exact(n, m) == exact
        ok = ok and pinned.get((n, m), exact) == exact
        ok = ok and closed(n, m) == by_periodic[1]
        ok = ok and (exact == by_periodic[1]) == (min(n, m) <= 2)
    report(2, f"blow-up counts agree four ways on {len(sizes)} band sizes; "
              "the closed form counts marked spanning trees", ok)


def test_criterion_03_order_five_isotopic_pair():
    ok = all([
        is_rectangular(fx.T5A), is_idempotent(fx.T5A),
        is_rectangular(fx.T5B), is_idempotent(fx.T5B),
    ])
    witness = are_isotopic(fx.T5A, fx.T5B)
    ok = ok and witness is not None and apply_isotopy(fx.T5A, witness) == fx.T5B
    # the documented witness: column permutation (0 2 1 3) inverse to the
    # published cycle, entry transposition (1 2), identity row map
    documented = IsotopyTriple(Permutation.identity(5),
                               Permutation((2, 3, 1, 0, 4)),
                               Permutation((0, 2, 1, 3, 4)))
    ok = ok and apply_isotopy(fx.T5A, documented) == fx.T5B
    ok = ok and are_isomorphic(fx.T5A, fx.T5B) is None
    report(3, "isotopic but non-isomorphic idempotent pair", ok)


def test_criterion_04_quotient_counterexample():
    blocks = Partition(5, ((0, 1, 2, 3), (4,)))
    ok = is_rectangular(fx.Q5) and is_idempotent(fx.Q5)
    ok = ok and is_congruence(fx.Q5, blocks)
    ok = ok and not is_rectangular(quotient(fx.Q5, blocks))
    report(4, "idempotent quotient loses rectangularity", ok)


def test_criterion_05_variety_separation():
    ok = is_idempotent(fx.I3) and not is_rectangular(fx.I3)
    # the identity (a*b)*b = a*b fails at (0,1): (0*1)*1 = 2*1 = 1 but 0*1 = 2
    ok = ok and right_reabsorption_violation(fx.I3) == (0, 1)
    t = fx.I3.table
    ok = ok and t[t[0][1]][1] == 1 and t[0][1] == 2
    # the mirrored direction a*(a*b) = a*b holds on this table; only the
    # right-hand absorption separates it from the variety
    ok = ok and satisfies_left_reabsorption(fx.I3)
    report(5, "idempotent-variety separation witness", ok)


def test_criterion_06_equivalence_round_trips():
    ok = True
    count = 0
    for g in all_small_rectangular():
        count += 1
        gp = groupoid_to_graph_pair(g)
        ok = ok and satisfies_p2(gp)
        ok = ok and satisfies_p4(*graph_pair_to_matrices(gp))
        ok = ok and graph_pair_to_groupoid(gp) == g
        ok = ok and satisfies_p1(g)
        if not ok:
            break
    # the equivalence also needs the negative direction on non-rectangular
    # tables, which the enumerator never emits
    for g in oracles.all_tables(2):
        ok = ok and (satisfies_p1(g) == is_rectangular(g)
                     == satisfies_p2(groupoid_to_graph_pair(g)))
    report(6, f"model equivalences on all {count} rectangular tables to order 4", ok)


def _relations_symmetric(gp) -> bool:
    return (gp.red == transpose_bits(gp.red, gp.order)
            and gp.green == transpose_bits(gp.green, gp.order))


def test_criterion_07a_two_operation_symmetry():
    ok = True
    for g in all_small_rectangular():
        ms = is_matrix_symmetric(g)
        try:
            plus = derive_plus(g)
            derived = True
        except ValueError:
            derived = False
        ok = ok and ms == derived
        if derived:
            t, p = g.table, plus.table
            n = g.order
            ok = ok and all(
                p[t[a][b]][t[b][c]] == b and t[p[a][b]][p[b][c]] == b
                for a, b, c in product(range(n), repeat=3)
            )
        if not ok:
            break
    report(7, "(a) companion operation exists iff both products are all-ones", ok)


def test_criterion_07b_undirected_equation():
    ok = all(
        satisfies_undirected_eq(g) == _relations_symmetric(groupoid_to_graph_pair(g))
        for g in all_small_rectangular()
    )
    report(7, "(b) triple equation iff both relations symmetric", ok)


def test_criterion_07c_partitioned_shape_and_reconstruction():
    ok = True
    for g in all_small_rectangular():
        gp = groupoid_to_graph_pair(g)
        part = satisfies_partitioned_eqs(g)
        ok = ok and part == is_partitioned_pair(gp)
        if part:
            ok = ok and partition_construction(extract_partition_system(gp)) == gp
        if not ok:
            break
    report(7, "(c) partitioned equations iff clique shape, reconstruction exact", ok)


def test_criterion_07d_partitioned_both_ways_iff_associative():
    # The stated form "partitioned and dually partitioned iff associative"
    # is false here: both equation sets contain a*a = a (the loops of 07c),
    # so an associative non-idempotent table, such as the constant order-2
    # table, is never partitioned both ways.  Checked instead on every
    # rectangular table to order 4: partitioned both ways iff associative
    # and idempotent; partitioned both ways implies associative; and the
    # stated form breaks on exactly the 93 associative non-idempotent tables.
    corrected = implies = True
    breaks, associative_non_idempotent = [], []
    for g in all_small_rectangular():
        both = satisfies_partitioned_eqs(g) and satisfies_dually_partitioned_eqs(g)
        assoc, idem = is_associative(g), is_idempotent(g)
        corrected = corrected and both == (assoc and idem)
        implies = implies and (assoc or not both)
        if both != assoc:
            breaks.append(g.table)
        if assoc and not idem:
            associative_non_idempotent.append(g.table)
    ok = corrected and implies and breaks == associative_non_idempotent
    ok = ok and len(breaks) == 93 and breaks[0] == ((0, 0), (0, 0))
    report(7, "(d) partitioned both ways iff associative and idempotent; "
              "the stated form breaks on the 93 associative non-idempotent tables", ok)


def test_criterion_08_blackburn():
    rng = random.Random(88)
    ok = is_partial_latin(fx.B3) and has_blackburn(fx.B3) and not is_partial_p1(fx.B3)
    checked = 0
    while checked < 1000:
        n = rng.randrange(3, 7)
        p = oracles.random_partial(rng, n, rng.uniform(0.15, 0.75))
        checked += 1
        if is_partial_latin(p) and is_partial_p1(p):
            ok = ok and has_blackburn(p)
    report(8, f"empty-corner property on {checked} random partial arrays", ok)


def test_criterion_09_square_lift():
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        n = rng.randrange(2, 6)
        g = oracles.random_groupoid(rng, n)
        lift = square_lift(g)
        ok = ok and is_rectangular(lift)
        seen = set()
        for a in range(n * n):
            seen.add(a // n)
            for b in range(n * n):
                ok = ok and lift.table[a][b] // n == g.table[a // n][b // n]
        ok = ok and seen == set(range(n))
        if not ok:
            break
    report(9, "square lift is rectangular with a projection onto the base", ok)


def test_criterion_10_group_constructions():
    z6 = cyclic_group(6)
    gp = group_factorization_pair(z6, {0, 3}, {0, 1, 2})
    ok = satisfies_p2(gp)
    for t in range(6):
        for a in range(6):
            for b in bits_of(gp.red[a]):
                ok = ok and gp.has_red(z6.mul(t, a), z6.mul(t, b))
            for b in bits_of(gp.green[a]):
                ok = ok and gp.has_green(z6.mul(t, a), z6.mul(t, b))
    ok = ok and coset_construction(z6, {0, 3}, {0, 1, 2}) == gp
    report(10, "group factorization pair with regular translations", ok)


def test_criterion_11_small_order_baselines():
    labeled = enumerate_rectangular(2, "labeled")
    classes = enumerate_rectangular(2, "isomorphism")
    brute = [g for g in oracles.all_tables(2) if oracles.quasi_rectangular(g)]
    ok = labeled.count == 6 == len(brute)
    ok = ok and sorted(g.flat() for g in labeled.tables) == sorted(
        g.flat() for g in brute)
    ok = ok and classes.count == 5
    # frozen order-3 regression values, revalidated against the oracle
    three = enumerate_rectangular(3, "labeled")
    ok = ok and three.count == 267
    ok = ok and three.count == sum(
        1 for g in oracles.all_tables(3) if oracles.quasi_rectangular(g))
    ok = ok and enumerate_rectangular(3, "isomorphism").count == 49
    report(11, "small-order baseline counts against the brute-force oracle", ok)
