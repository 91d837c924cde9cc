"""Self-tests of the benchmark: its generator, its references and its names.

Run with ``python -m pytest bench`` from the repository root.
"""

import json
from itertools import product
from pathlib import Path

import pytest

import checks
import inputs
import reference
import run
import sessions
import tracing

SPEC = run.load_spec(Path(__file__).resolve().parent.parent)


def test_same_seed_gives_identical_files(tmp_path):
    inputs.write_inputs(7, tmp_path / "a")
    inputs.write_inputs(7, tmp_path / "b")
    inputs.write_inputs(8, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "E256.tbl").read_bytes() != (tmp_path / "c" / "E256.tbl").read_bytes()


def test_constructions_have_the_expected_verdicts():
    e, b = inputs.evans(3), inputs.band(3, 3)
    assert checks.is_central(e) and checks.is_rectangular(e)
    assert checks.is_rectangular(b) and not checks.is_central(b)
    assert all(b[b[x][y]][z] == b[x][b[y][z]] for x, y, z in product(range(9), repeat=3))
    tables = inputs.make_inputs(3)
    changed = [(r, c) for r in range(256) for c in range(256)
               if tables["E256"][r][c] != tables["E256x"][r][c]]
    assert len(changed) == 1
    assert checks.distinct_per_row(tables["B23"]) == 3
    assert checks.distinct_per_row(tables["B32"]) == 2


def _census_json(count, flats):
    return json.dumps({"order": 4, "class": "central", "mode": "isomorphism",
                       "count": count, "tables": flats}).encode()


def test_tampered_count_or_table_is_a_failure():
    check = checks.expect_census(order=4, kind="central", mode="isomorphism",
                                 count=1, table_test=checks.is_central)
    good = [v for row in inputs.evans(2) for v in row]
    assert check(0, _census_json(1, [good])) is None
    assert check(0, _census_json(2, [good, good])) is not None
    assert check(0, _census_json(1, [[0] * 16])) is not None
    assert check(2, _census_json(1, [good])) is not None


def test_tampered_witness_is_a_failure():
    e = inputs.evans(2)
    bad, later = [w for w in product(range(4), repeat=3)
                  if e[e[w[0]][w[1]]][w[2]] != e[w[0]][e[w[1]][w[2]]]][:2]
    check = checks.expect_witness("associative", e)
    assert check(1, f"false\nwitness: {bad}\n".encode()) is None
    assert check(1, f"false\nwitness: {later}\n".encode()) is not None
    good = next(w for w in product(range(4), repeat=3)
                if e[e[w[0]][w[1]]][w[2]] == e[w[0]][e[w[1]][w[2]]])
    assert check(1, f"false\nwitness: {good}\n".encode()) is not None
    assert check(0, f"false\nwitness: {bad}\n".encode()) is not None
    assert check(1, b"false\nwitness: (9, 9, 9)\n") is not None
    assert checks.expect_true()(1, b"false\n") is not None


def test_tampered_isotopy_witness_is_a_failure():
    g = inputs.band(2, 3)
    alpha, beta, gamma = [1, 0, 2, 3, 5, 4], [3, 4, 5, 0, 1, 2], [0, 2, 1, 3, 4, 5]
    h = inputs.isotope(g, alpha, beta, gamma)
    check = checks.expect_isotopy(g, h)

    def render(a, b, c):
        return "".join(f"{k}: {' '.join(map(str, p))}\n"
                       for k, p in (("alpha", a), ("beta", b), ("gamma", c))).encode()

    assert check(0, render(alpha, beta, gamma)) is None
    assert check(0, render(alpha, beta, [0, 1, 2, 3, 4, 5])) is not None
    assert check(0, render(alpha, beta, [0, 0, 1, 3, 4, 5])) is not None
    assert check(1, b"none\n") is not None


def test_malformed_output_is_a_failure():
    g = inputs.band(2, 3)
    assert checks.expect_isotopy(g, g)(0, b"alpha: 0 1 x\nbeta: 0\ngamma: 0\n") is not None
    assert checks.expect_isotopy(g, g)(0, b"\xff\xfe") is not None
    assert checks.expect_witness("central", g)(1, b"false\nwitness: \xff\n") is not None
    assert checks.expect_transversal(g)(0, b"\xff") is not None
    assert checks.expect_census(order=4, kind="central", mode="isomorphism",
                                count=1)(0, b"[1, 2]") is not None


def test_span_names_follow_the_calls():
    from rectangular import census, core, formats, properties

    tr = tracing.Tracer()
    with tr.wrapped():
        g = formats.parse_table(inputs.render_table(inputs.evans(2)))
        properties.centrality_violation(g)
        properties.associativity_violation(g)
        census.enumerate_rectangular(2, mode="isomorphism")
        census.enumerate_band_blow_ups(1, 2)
        core.make_groupoid(1, [0])
    assert properties.centrality_violation.__name__ == "centrality_violation"
    assert not hasattr(properties.centrality_violation, "__wrapped__")
    assert [s["name"] for s in tr.spans] == [
        "formats.parse_table.o4",
        "properties.centrality_violation.o4-pass",
        "properties.associativity_violation.o4-fail",
        "census.enumerate_rectangular.iso-o2",
        "census.enumerate_band_blow_ups.1x2",
        "core.make_groupoid.o1",
    ]
    assert len(tr.durations("properties.centrality_violation.o4")) == 1


def test_tally_counts_every_miss():
    tally = run.Tally()
    tally.record("a", None)
    tally.record("b", "wrong count")
    line = json.loads(run.result_line({"wall_s": 1.0},
                                      [{"name": "wall_s", "unit": "s"}], tally))
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)


def test_result_line_has_exactly_the_benchmark_metrics():
    for kind in ("end_to_end", "per_layer"):
        tally = run.Tally()
        values = {m["name"]: 1.0 for m in SPEC[kind]}
        emitted = json.loads(run.result_line(values, SPEC[kind], tally))["metrics"]
        assert list(emitted) == [m["name"] for m in SPEC[kind]]
        assert [v["unit"] for v in emitted.values()] == [m["unit"] for m in SPEC[kind]]
        del values[SPEC[kind][0]["name"]]
        with pytest.raises(RuntimeError):
            run.result_line(values, SPEC[kind], tally)


def test_sessions_cover_the_benchmark_workloads(tmp_path):
    for w in SPEC["workloads"]:
        commands = (sessions.desk(tmp_path, inputs.write_inputs(1, tmp_path))
                    if w["name"] == "desk" else sessions.census(w["name"]))
        assert commands


def test_reference_work_is_right():
    assert reference.queens(6) == 4
    assert reference.table_walk(10) == sum(((x * 7 + y * 3) % 10 * 7 + y * 3) % 10
                                           for x in range(10) for y in range(10))
