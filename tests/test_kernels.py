"""The shared predicate kernels against the literal scans in oracles.py.

The identity evaluator must return, for every equational ``*_violation``,
the first failing tuple of ``product(range(n), repeat=k)``; the two-step
kernel must return the middle-node table or the first pair whose plain path
count is not 1, through every public function built on it.  Every order
parameter of the package must reject non-integers and non-positive values,
and every bounded entry point must raise CapacityError past its bound, as
the one order check ``core.check_order`` does.  Every element parameter
must reject non-integers and values outside 0..n-1 with a ValueError, as
the one element check ``core.check_elements`` does.
"""

import ast
import importlib
import inspect
import random
from pathlib import Path

import pytest

import rectangular
from rectangular import census, cli, core, formats, isotopy, properties
from rectangular.census import iter_rectangular_tables
from rectangular.construct import (
    abelian_group,
    constant_groupoid,
    coset_construction,
    evans_central,
    group_factorization_pair,
    left_extension,
    rectangular_band,
    right_extension,
    simple_blow_up,
)
from rectangular.core import (
    CONSTRUCT_BOUND,
    BoolMatrix,
    CapacityError,
    FiniteGroup,
    GraphPair,
    Groupoid,
    Mapping,
    PartialArray,
    Partition,
    identity_counterexample,
)
from rectangular.transform import (
    graph_pair_to_groupoid,
    graph_pair_to_matrices,
    groupoid_to_graph_pair,
    subalgebra,
)

import oracles


def _one_cell_changes(rng, g: Groupoid, count: int):
    """Copies of a table that satisfies many identities, each with one cell
    changed, so that witnesses lie deep in the scan."""
    n = g.order
    for _ in range(count):
        rows = [list(row) for row in g.table]
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        yield Groupoid(n, tuple(map(tuple, rows)))


def _tables() -> list[Groupoid]:
    rng = random.Random(31)
    tables = [*oracles.all_tables(1), *oracles.all_tables(2),
              *iter_rectangular_tables(3)]
    for n in range(1, 7):
        tables += [oracles.random_groupoid(rng, n) for _ in range(100)]
    for g in (evans_central(2), rectangular_band(2, 3), rectangular_band(3, 2)):
        tables += [g, *_one_cell_changes(rng, g, 60)]
    return tables


TABLES = _tables()


@pytest.mark.parametrize("name", sorted(oracles.LITERAL_IDENTITIES))
def test_identity_evaluator_matches_literal_scan(name):
    violation = getattr(properties, name)
    found = 0
    for g in TABLES:
        want = oracles.literal_identity_violation(name, g)
        assert violation(g) == want, (name, g.table)
        found += want is not None
    assert 0 < found < len(TABLES)


@pytest.mark.parametrize("m", [16, 17])
def test_identity_evaluator_either_side_of_order_256(m):
    # order 256 is the largest held as bytes, order 289 is held as lists;
    # Evans's groupoid is central, and a full literal scan of it is too slow
    g = evans_central(m)
    assert properties.centrality_violation(g) is None
    changed = [oracles.one_cell_change(g, a, b) for a, b in [(0, 0), (1, 200), (3, 77)]]
    for h in changed:
        assert properties.centrality_violation(h) == \
            oracles.literal_identity_violation("centrality_violation", h)
    for h in [g] + changed:
        assert properties.associativity_violation(h) == \
            oracles.literal_identity_violation("associativity_violation", h)
        assert identity_counterexample(h, "x*y=y*x") == \
            oracles.identity_violation_by_eval(h, "x*y=y*x")
    # centrality with z first: z*x is column x, and (z*x)*(x*y) reads
    # column x*y at every entry of it
    for h in changed[:2]:
        assert identity_counterexample(h, "(z*x)*(x*y)=x") == \
            oracles.identity_violation_by_eval(h, "(z*x)*(x*y)=x")


def _middles_or_error(fn, *args):
    try:
        return fn(*args).table
    except ValueError as exc:
        return str(exc)


def test_two_step_kernel_matches_path_count_on_groupoid_pairs():
    for g in TABLES:
        n = g.order
        red, green = oracles.incidence_edges(g)
        gp = GraphPair.from_edges(n, red, green)
        table, bad = oracles.two_step_by_counting(n, red, green)
        assert properties.p2_violation(gp) == bad
        assert properties.p4_violation(BoolMatrix(n, gp.red), BoolMatrix(n, gp.green)) == bad
        assert _middles_or_error(graph_pair_to_groupoid, gp) == (
            table if bad is None
            else f"not a unique-path pair: ({bad[0]},{bad[1]}) has {bad[2]} red-green paths")

        plus, plus_bad = oracles.two_step_by_counting(n, green, red)
        assert _middles_or_error(properties.derive_plus, g) == (
            plus if plus_bad is None
            else f"not matrix-symmetric: pair ({plus_bad[0]},{plus_bad[1]}) has "
                 f"{plus_bad[2]} green-red paths")
        want = (("red-green", *bad) if bad is not None
                else ("green-red", *plus_bad) if plus_bad is not None else None)
        assert properties.matrix_symmetry_violation(g) == want


def test_two_step_kernel_matches_path_count_on_random_pairs():
    rng = random.Random(32)
    counts = set()
    for n in range(1, 7):
        for _ in range(200):
            gp = oracles.random_graph_pair(rng, n)
            table, bad = oracles.two_step_by_counting(n, gp.red_edges(), gp.green_edges())
            assert properties.p2_violation(gp) == bad
            assert properties.p4_violation(BoolMatrix(n, gp.red),
                                           BoolMatrix(n, gp.green)) == bad
            assert _middles_or_error(graph_pair_to_groupoid, gp) == (
                table if bad is None
                else f"not a unique-path pair: ({bad[0]},{bad[1]}) has {bad[2]} red-green paths")
            counts.add(None if bad is None else min(bad[2], 2))
    assert counts == {None, 0, 2}


def test_p1_and_partial_p1_match_literal_witness():
    for g in TABLES:
        want = oracles.shared_pair_witness(g.table)
        assert properties.p1_violation(g) == want
        assert properties.partial_p1_violation(PartialArray(g.order, g.table)) == want
    rng = random.Random(33)
    for n in range(1, 7):
        for _ in range(100):
            p = oracles.random_partial(rng, n, 0.5)
            assert properties.partial_p1_violation(p) == oracles.shared_pair_witness(p.cells)


def _incidence_tables():
    """Every order-3 table, then Evans's order-256 groupoid and the 16 x 16
    band, each with copies that have one cell changed."""
    yield from oracles.all_tables(3)
    rng = random.Random(35)
    for g in (evans_central(16), rectangular_band(16, 16)):
        yield g
        for _ in range(12):
            yield oracles.one_cell_change(g, rng.randrange(256), rng.randrange(256))


def test_rectangularity_and_fullness_match_literal_witnesses():
    outcomes = set()
    for g in _incidence_tables():
        want = oracles.rectangularity_witness(g), oracles.missing_symbol(g)
        assert (properties.rectangularity_violation(g),
                properties.fullness_violation(g)) == want, g.table
        outcomes.add((g.order, want[0] is None, want[1] is None))
    assert outcomes == {(3, a, b) for a in (True, False) for b in (True, False)} | {
        (256, True, True), (256, False, True)}


def test_finite_group_associativity_witness_is_the_first_literal_one():
    # tables with identity 0, so FiniteGroup reaches its associativity check
    rng = random.Random(34)
    tables = [Groupoid(n, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))
              for n in range(1, 7)]
    for n in range(2, 7):
        for _ in range(100):
            rows = [tuple(range(n))] + [(a,) + tuple(rng.randrange(n) for _ in range(n - 1))
                                        for a in range(1, n)]
            tables.append(Groupoid(n, tuple(rows)))
    outcomes = set()
    for g in tables:
        bad = oracles.literal_identity_violation("associativity_violation", g)
        try:
            FiniteGroup(g.order, g.table)
            got = None
        except ValueError as exc:
            got = str(exc)
        if bad is None:
            assert got is None or got.endswith("has no inverse")
        else:
            assert got == "table is not associative at (%d,%d,%d)" % bad
        outcomes.add(bad is None)
    assert outcomes == {True, False}


def test_finite_group_inverse_witness_is_the_first_two_sided_one():
    # FiniteGroup looks for the identity in each row: in a finite monoid a
    # right inverse is two-sided, so the witness is the literal scan's
    outcomes = []
    for n in range(1, 5):
        for table in oracles.monoid_tables(n):
            bad = oracles.first_without_inverse(table, 0)
            if bad is None:
                assert FiniteGroup(n, table).identity == 0
            else:
                with pytest.raises(ValueError, match=rf"^element {bad} has no inverse$"):
                    FiniteGroup(n, table)
            outcomes.append((n, bad))
    assert len(outcomes) == 170
    assert set(outcomes) == {(n, bad) for n in range(1, 5) for bad in (None, *range(1, n))}


def test_light_associativity_test_matches_the_literal_scan():
    rng = random.Random(36)
    tables = [*oracles.all_tables(1), *oracles.all_tables(2)]
    for n in range(1, 6):
        tables += [oracles.random_groupoid(rng, n) for _ in range(200)]
        tables += [Groupoid(n, tuple(tuple(max(a, b) for b in range(n)) for a in range(n))),
                   Groupoid(n, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))]
        # tables with identity 0 and random rows, as FiniteGroup sees them
        tables += [Groupoid(n, (tuple(range(n)),) + tuple(
            (a,) + tuple(rng.randrange(n) for _ in range(n - 1)) for a in range(1, n)))
            for _ in range(200)]
    tables += [rectangular_band(2, 2), abelian_group(2, 2)]
    outcomes = set()
    for g in tables:
        want = oracles.literal_identity_violation("associativity_violation", g) is None
        assert core._is_associative(g.table) == want, g.table
        outcomes.add((g.order, want))
    assert outcomes == {(1, True)} | {(n, w) for n in range(2, 6) for w in (True, False)}


def _left_zero_band(n):
    """x*y = x: associative, and each element generates only itself, so
    Light's test takes all n as generators."""
    return Groupoid(n, tuple((a,) * n for a in range(n)))


def test_associative_law_by_light_keeps_the_literal_witness():
    # identity_counterexample passes the associative law by Light's test and
    # scans only the tables that fail it
    rng = random.Random(38)
    associative = [rectangular_band(2, 3), rectangular_band(3, 3), abelian_group(2, 3),
                   abelian_group(8), _left_zero_band(5), _left_zero_band(7),
                   Groupoid(6, tuple(tuple(max(a, b) for b in range(6)) for a in range(6)))]
    tables = [oracles.random_groupoid(rng, n) for n in range(1, 6) for _ in range(100)]
    tables += associative + [oracles.one_cell_change(g, rng.randrange(g.order),
                                                     rng.randrange(g.order))
                             for g in associative for _ in range(5)]
    outcomes = set()
    for g in tables:
        want = oracles.literal_identity_violation("associativity_violation", g)
        for identity in ("(x*y)*z=x*(y*z)", "a*(b*c) = (a*b)*c", "p*q*r=p*(q*r)"):
            assert identity_counterexample(g, identity) == want, (g.table, identity)
        assert properties.associativity_violation(g) == want
        # other letter roles, and laws that only look like associativity
        for identity in ("z*(y*x)=(z*y)*x", "(x*y)*z=y*(x*z)", "(x*x)*y=x*(x*y)"):
            assert identity_counterexample(g, identity) == \
                oracles.identity_violation_by_eval(g, identity), (g.table, identity)
        outcomes.add(want is None)
    assert outcomes == {True, False}
    # either side of order 256, where every element is a generator
    for n in (256, 300):
        band = _left_zero_band(n)
        assert identity_counterexample(band, "(x*y)*z=x*(y*z)") is None
        changed = oracles.one_cell_change(band, 1, 2)
        assert identity_counterexample(changed, "(x*y)*z=x*(y*z)") == (1, 0, 2) == \
            oracles.literal_identity_violation("associativity_violation", changed)


@pytest.mark.parametrize("cells, text", [
    (((1, 1), (1, 2)), "table is not associative at (1,1,2)"),
    (((150, 7), (150, 299)), "table is not associative at (1,149,7)"),
])
def test_finite_group_rejects_a_cyclic_table_with_two_cells_swapped(cells, text):
    # order 300 takes the list path of the identity scan; the texts are
    # those of the full cubic scan
    n = 300
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    (a, b), (c, d) = cells
    rows[a][b], rows[c][d] = rows[c][d], rows[a][b]
    with pytest.raises(ValueError) as exc:
        FiniteGroup(n, rows)
    assert str(exc.value) == text


# The functions a traced benchmark run wraps by module attribute and names
# its spans after by __name__; every properties.*_violation is wrapped too.
TRACED = {
    "census": ("enumerate_central", "enumerate_rectangular", "enumerate_band_blow_ups"),
    "formats": ("parse_table", "render_table", "parse_graph_pair", "render_graph_pair",
                "parse_matrix_pair", "render_matrix_pair", "census_json"),
    "transform": ("groupoid_to_graph_pair", "graph_pair_to_groupoid",
                  "graph_pair_to_matrices", "matrices_to_graph_pair"),
    "isotopy": ("are_isotopic", "find_transversal"),
    "core": ("make_groupoid",),
}
# The functions it calls directly, unwrapped.
CALLED = {"census": ("iter_rectangular_tables",), "isotopy": ("canonical_form",)}


def test_traced_functions_exist_under_their_own_names():
    violations = [name for name in vars(properties) if name.endswith("_violation")]
    assert {"p2_violation", "p4_violation", "matrix_symmetry_violation"} <= set(violations)
    for module, names in [*TRACED.items(), ("properties", violations), *CALLED.items()]:
        mod = importlib.import_module(f"rectangular.{module}")
        for name in names:
            fn = getattr(mod, name)
            assert callable(fn) and fn.__name__ == name, (module, name)


def test_identity_table_binds_each_function_under_its_own_name():
    rows = properties.NAMED_IDENTITIES.values()
    # every row is scanned against its literal equations above
    assert {violation for violation, _, _ in rows} == set(oracles.LITERAL_IDENTITIES)
    for violation_name, predicate_name, _ in rows:
        violation, predicate = (getattr(properties, name)
                                for name in (violation_name, predicate_name))
        assert (violation.__name__, violation.__qualname__) == (violation_name,) * 2
        assert (predicate.__name__, predicate.__qualname__) == (predicate_name,) * 2
        assert all(predicate(g) == (violation(g) is None) for g in TABLES)
    for name in ("is_associative", "is_central", "is_idempotent",
                 "satisfies_dually_partitioned_eqs", "satisfies_partitioned_eqs",
                 "satisfies_undirected_eq"):
        assert getattr(rectangular, name) is getattr(properties, name)


def test_check_table_builds_every_predicate_from_its_violation():
    # properties.CHECKS is the one list of the properties check evaluates;
    # every predicate it names, with is_congruence, is exported and is
    # whether its violation finds no witness, on samples of its model
    assert sorted(properties.CHECKS) == sorted(cli._CHECKS)
    rng = random.Random(23)
    tables = [*oracles.all_tables(2), evans_central(2)]
    pairs = [groupoid_to_graph_pair(g) for g in tables]
    samples = {
        "groupoid": [(g,) for g in tables],
        "graphpair": [(gp,) for gp in pairs],
        "matrices": [graph_pair_to_matrices(gp) for gp in pairs],
        "partial": [(oracles.random_partial(rng, n, rng.uniform(0.2, 0.8)),)
                    for n in range(1, 5) for _ in range(25)],
        "congruence": [*((g, p) for g in tables[:-1]
                         for p in (Partition.singletons(2), Partition.single_block(2))),
                       *((oracles.random_groupoid(rng, 3), Partition(3, ((0, 1), (2,))))
                         for _ in range(10))],
    }
    rows = [*properties.CHECKS.values(), ("congruence", "congruence_violation", "is_congruence")]
    for model, violation_name, predicate_name in rows:
        assert predicate_name in rectangular.__all__
        predicate = getattr(rectangular, predicate_name)
        assert predicate is getattr(properties, predicate_name)
        assert (predicate.__name__, predicate.__qualname__) == (predicate_name,) * 2
        violation = getattr(properties, violation_name)
        outcomes = [predicate(*args) for args in samples[model]]
        assert outcomes == [violation(*args) is None for args in samples[model]]
        assert set(outcomes) == {True, False}, predicate_name


def test_modules_use_every_name_they_import():
    # __init__ re-exports by design, as do imports marked noqa: F401 on the
    # statement's first line or the name's own line
    unused = []
    for path in sorted(Path(rectangular.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and not any("noqa: F401" in line for line in marked):
                    unused.append((path.name, name))
    assert unused == []


ORDER_NAMES = ("n", "m", "order")


def _order_parameters():
    """(entry point, function, parameter) for every parameter named n, m or
    order and annotated int, in the package's exports, classes included,
    and in the classmethods of its exported classes."""
    functions = []
    for name in rectangular.__all__:
        obj = getattr(rectangular, name)
        if isinstance(obj, type) and not issubclass(obj, BaseException):
            functions += [(f"{name}.{attr}", getattr(obj, attr))
                          for attr, value in vars(obj).items() if isinstance(value, classmethod)]
            functions.append((name, obj))
        elif callable(obj) and not isinstance(obj, type):
            functions.append((name, obj))
    return [(name, fn, p.name) for name, fn in functions
            for p in inspect.signature(fn).parameters.values()
            if p.name in ORDER_NAMES and p.annotation in (int, "int")]


ORDER_PARAMETERS = _order_parameters()


def _call_with(fn, parameter: str, value):
    """fn called with value for parameter, 2 for its other orders, symbol 0
    for a, empty sequences for the rest, and the defaults."""
    args = {}
    for p in inspect.signature(fn).parameters.values():
        if p.name == parameter:
            args[p.name] = value
        elif p.default is p.empty and p.kind is not p.VAR_POSITIONAL:
            args[p.name] = 2 if p.name in ORDER_NAMES else 0 if p.name == "a" else ()
    return fn(**args)


def test_the_order_walk_reaches_functions_classes_and_classmethods():
    found = {f"{name}({parameter})" for name, _, parameter in ORDER_PARAMETERS}
    assert {"enumerate_band_blow_ups(m)", "rectangular_band(n)", "evans_central(m)",
            "make_groupoid(order)", "Groupoid(order)", "Transversal(order)",
            "GraphPair.from_edges(order)", "IsotopyTriple.identity(order)"} <= found


@pytest.mark.parametrize("name, fn, parameter", ORDER_PARAMETERS,
                         ids=[f"{name}-{parameter}" for name, _, parameter in ORDER_PARAMETERS])
def test_every_order_parameter_rejects_non_integers_and_non_positive_values(name, fn,
                                                                           parameter):
    # a float equal to an int would pass a range check and fail later in a
    # shift, an index or a range() as a TypeError
    with pytest.raises(ValueError, match="is not an integer$"):
        _call_with(fn, parameter, 2.0)
    with pytest.raises(ValueError):
        _call_with(fn, parameter, 0)


def test_abelian_group_moduli_are_checked_like_orders():
    with pytest.raises(ValueError, match="^modulus: 2.0 is not an integer$"):
        abelian_group(2.0, 2)
    with pytest.raises(ValueError, match="^modulus must be positive, got 0$"):
        abelian_group(2, 0)


Z4 = abelian_group(4)
BAND = rectangular_band(2, 2)

# Each entry point that takes elements of 0..n-1: a call with v in place of
# one element of the parameter, and n.
ELEMENT_PARAMETERS = {
    "constant_groupoid(a)": (lambda v: constant_groupoid(3, v), 3),
    "simple_blow_up(a)": (lambda v: simple_blow_up(BAND, v), 4),
    "left_extension(a)": (lambda v: left_extension(BAND, v), 4),
    "right_extension(a)": (lambda v: right_extension(BAND, v), 4),
    "group_factorization_pair(h)": (lambda v: group_factorization_pair(Z4, {0, v}, {0, 1}), 4),
    "group_factorization_pair(k)": (lambda v: group_factorization_pair(Z4, {0, 2}, {0, v}), 4),
    "coset_construction(h_subgroup)": (lambda v: coset_construction(Z4, {0, 2, v}, {0, 1}), 4),
    "coset_construction(t)": (lambda v: coset_construction(Z4, {0, 2}, {0, v}), 4),
    "subalgebra(subset)": (lambda v: subalgebra(BAND, {0, v}), 4),
    "GraphPair.from_edges(red)": (lambda v: GraphPair.from_edges(3, [(0, v)], []), 3),
    "GraphPair.from_edges(green)": (lambda v: GraphPair.from_edges(3, [], [(v, 0)]), 3),
    "Mapping(images)": (lambda v: Mapping((0, v), 3), 3),
    "Partition(blocks)": (lambda v: Partition(3, ((0, v), (1, 2))), 3),
}


@pytest.mark.parametrize("name", ELEMENT_PARAMETERS)
def test_every_element_parameter_rejects_non_integers_and_values_outside_the_range(name):
    # one element check, core.check_elements, before any sort of the input:
    # never an IndexError from a lookup or a TypeError from sorted
    call, n = ELEMENT_PARAMETERS[name]
    for bad in (1.0, "a"):
        with pytest.raises(ValueError, match=rf"^.+: {bad!r} is not an integer$"):
            call(bad)
    for bad in (-1, n):
        with pytest.raises(ValueError, match=rf"^.+: {bad} is outside 0\.\.{n - 1}$"):
            call(bad)


# Each bounded entry point one step past its bound: the call, the bound and
# the order the capacity message reports.  The constructions are checked the
# same way in test_construct.py.
BOUNDED = {
    "iter_rectangular_tables": (lambda: iter_rectangular_tables(census.ITER_BOUND + 1),
                                census.ITER_BOUND, census.ITER_BOUND + 1),
    "enumerate_rectangular-labeled": (
        lambda: census.enumerate_rectangular(census.RECT_COUNT_BOUND + 1, "labeled"),
        census.RECT_COUNT_BOUND, census.RECT_COUNT_BOUND + 1),
    "enumerate_rectangular-isomorphism": (
        lambda: census.enumerate_rectangular(census.RECT_ISO_BOUND + 1, "isomorphism"),
        census.RECT_ISO_BOUND, census.RECT_ISO_BOUND + 1),
    "count_rectangular": (lambda: census.count_rectangular(census.RECT_COUNT_BOUND + 1),
                          census.RECT_COUNT_BOUND, census.RECT_COUNT_BOUND + 1),
    "enumerate_rectangular-isotopy": (
        lambda: census.enumerate_rectangular(census.RECT_ISOTOPY_BOUND + 1, "isotopy"),
        census.RECT_ISOTOPY_BOUND, census.RECT_ISOTOPY_BOUND + 1),
    # the orders between 16 and 25 are not squares and report no solutions
    "enumerate_central": (lambda: census.enumerate_central(25), census.CENTRAL_BOUND, 25),
    "enumerate_band_blow_ups": (
        lambda: census.enumerate_band_blow_ups(1, census.BLOW_UP_BOUND + 1),
        census.BLOW_UP_BOUND, census.BLOW_UP_BOUND + 1),
    "are_isotopic": (
        lambda: isotopy.are_isotopic(constant_groupoid(7, 0), constant_groupoid(7, 0)),
        isotopy.ISOTOPY_SEARCH_BOUND, 7),
    "canonical_form": (lambda: isotopy.canonical_form(constant_groupoid(10, 0)),
                       isotopy.CANONICAL_FORM_BOUND, 10),
    "are_isomorphic": (
        lambda: isotopy.are_isomorphic(constant_groupoid(10, 0), constant_groupoid(10, 0)),
        isotopy.CANONICAL_FORM_BOUND, 10),
    **{parse: (lambda parse=parse: getattr(formats, parse)(f"{CONSTRUCT_BOUND + 1}\n"),
               CONSTRUCT_BOUND, CONSTRUCT_BOUND + 1)
       for parse in ("parse_table", "parse_partial", "parse_graph_pair", "parse_matrix",
                     "parse_matrix_pair")},
}


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_bounded_entry_points_raise_capacity_error_past_their_bound(name):
    call, bound, order = BOUNDED[name]
    with pytest.raises(CapacityError, match=f" bounded at order {bound}, got {order}$"):
        call()
