"""Traced run: the CLI sessions replayed in one process, with spans.

Each session's commands go through ``rectangular.cli.main`` in this
process, with the same output checks as the untraced run.  For the run, the
public functions of the package's modules that the CLI calls are wrapped,
so every call records a span (name, start, end, parent).  A span's name is
``<module>.<function>.<label>``, and the label comes from the call's
arguments and result: ``o<order>``, the census mode or band shape,
``-pass``/``-fail`` for a predicate, ``-found``/``-none`` for an isotopy
search, ``-jobs<N>`` for a pooled census.  The spans are kept in memory
and written to ``work/trace-<workload>-<seed>.json`` at the end.

Each session replay is a root span ``trace.<session>``; its duration sits
beside the unscaled ``wall_s`` that the untraced run of that session's
workload prints on its info line, and the difference is CLI launches and
tracing overhead.  The traced times are not scaled to a nominal host speed.  Calls the sessions do
not make (the ``--jobs 2`` censuses, the rect search/dedup split,
``make_groupoid``, the import time) run under the root span ``extras``.

The rect census is split from outside: ``enumerate_rectangular(4,
"labeled")`` is the search, ``canonical_form`` over
``iter_rectangular_tables(4)`` the deduplication.  The central census stays
one span; splitting it needs the census's private functions.

The traced run is the same for every --workload: each run must report every
per-layer metric, and those cover all three sessions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import sessions

# The functions the CLI calls through their module, wrapped for the run.
# Every ``*_violation`` function of ``properties`` is wrapped too.  Calls
# between the package's own modules bind the names at import and stay
# unwrapped, so a census's internal canonical_form calls make no spans.
WRAPPED = {
    "census": ("enumerate_central", "enumerate_rectangular", "enumerate_band_blow_ups"),
    "formats": ("parse_table", "render_table", "parse_graph_pair", "render_graph_pair",
                "parse_matrix_pair", "render_matrix_pair", "census_json"),
    "transform": ("groupoid_to_graph_pair", "graph_pair_to_groupoid",
                  "graph_pair_to_matrices", "matrices_to_graph_pair"),
    "isotopy": ("are_isotopic", "find_transversal"),
    "core": ("make_groupoid",),
}
MODES = {"labeled": "labeled", "isomorphism": "iso", "isotopy": "isotopy"}

IMPORT_LAUNCHES = 5
IMPORT_CODE = ("import time; t = time.perf_counter(); import rectangular.cli; "
               "print(time.perf_counter() - t)")


def _order(value) -> int:
    """The order of a structure, a file's text or an order argument."""
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value.split("\n", 1)[0])
    return value.order


def label(fn: str, args: tuple, kwargs: dict, result) -> str:
    """The part of a span's name after ``<module>.<function>.``."""
    if fn == "enumerate_rectangular":
        text = f"{MODES[kwargs.get('mode', args[1] if len(args) > 1 else 'labeled')]}-o{args[0]}"
    elif fn == "enumerate_band_blow_ups":
        text = f"{args[0]}x{args[1]}"
    elif fn == "census_json":
        result_in, kind = args
        text = (f"{MODES[result_in.mode] if kind == 'rectangular' else kind}"
                f"-o{result_in.order}")
    else:
        text = f"o{_order(args[0])}"
        if fn.endswith("_violation"):
            text += "-pass" if result is None else "-fail"
        elif fn == "are_isotopic":
            text += "-none" if result is None else "-found"
    jobs = kwargs.get("jobs", 1)
    return text + (f"-jobs{jobs}" if jobs > 1 else "")


class Tracer:
    """Spans kept in memory; each records the span open when it started."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._wrapped_depth = 0

    def _begin(self, name: str | None) -> dict:
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        return record

    def _end(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    def wrap(self, module: str, fn):
        """fn with a span around each call that no other wrapped call encloses.

        A module's own calls of its wrapped functions (is_central calling
        centrality_violation inside a census, say) make no spans.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._wrapped_depth:
                return fn(*args, **kwargs)
            record = self._begin(None)
            self._wrapped_depth += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._wrapped_depth -= 1
                self._end(record)
                record["name"] = f"{module}.{fn.__name__}.{label(fn.__name__, args, kwargs, result)}"
        return traced

    @contextlib.contextmanager
    def wrapped(self):
        """Wrap the WRAPPED functions for the duration; restore them after."""
        saved = []
        for name, fns in {**WRAPPED, "properties": ()}.items():
            module = importlib.import_module(f"rectangular.{name}")
            if name == "properties":
                fns = [f for f in vars(module) if f.endswith("_violation")]
            for fn in fns:
                original = getattr(module, fn)
                saved.append((module, fn, original))
                setattr(module, fn, self.wrap(name, original))
        try:
            yield
        finally:
            for module, fn, original in saved:
                setattr(module, fn, original)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans named name, or else of name-pass and name-fail."""
        for names in ((name,), (f"{name}-pass", f"{name}-fail")):
            times = [s["end"] - s["start"] for s in self.spans if s["name"] in names]
            if times:
                return times
        raise RuntimeError(f"no span named {name!r}")


def replay(tr: Tracer, cli, commands, tally) -> dict:
    """Run each command through cli.main in this process; check its output.

    Returns {argv: stdout bytes}.
    """
    outputs = {}
    for cmd in commands:
        buffer = io.StringIO()
        with tr.span(f"cli.main {cmd.argv[0]}"), contextlib.redirect_stdout(buffer):
            rc = cli.main(list(cmd.argv))
        out = buffer.getvalue().encode()
        if cmd.save is not None:
            cmd.save.write_bytes(out)
        tally.record(" ".join(cmd.argv), cmd.check(rc, out))
        outputs[cmd.argv] = out
    return outputs


def run(workload: str, seed: int, work: Path, env: dict, tally, names):
    """The traced run; returns ({metric name: value}, info).

    names are the per-layer metric names of BENCHMARK.json.  A name ending
    in ``.s`` is the median duration of the spans named without that suffix
    (see Tracer.durations); the others are computed here.
    """
    if "rectangular.cli" in sys.modules:
        raise RuntimeError("the CLI must be imported after its functions are wrapped")
    directory = work / "inputs"
    tables = inputs.write_inputs(seed, directory)
    tr = Tracer()
    with tr.wrapped():
        from rectangular import census, cli, core, isotopy

        outputs = {}
        for name, commands in (("central", sessions.census("central")),
                               ("rect", sessions.census("rect")),
                               ("desk", sessions.desk(directory, tables))):
            with tr.span(f"trace.{name}"):
                outputs.update(replay(tr, cli, commands, tally))

        with tr.span("extras"):
            result = census.enumerate_central(9, jobs=2)
            tally.record("central o9 jobs 2", None if result.count == checks.CENTRAL_O9
                         else f"count {result.count}")
            result = census.enumerate_rectangular(4, "isomorphism", jobs=2)
            tally.record("rect iso o4 jobs 2", None if result.count == checks.RECT_O4_ISO
                         else f"count {result.count}")

            # The iso census split from outside: search, then deduplication.
            with tr.span("census.iter_rectangular_tables.o4"):
                labeled = list(census.iter_rectangular_tables(4))
            with tr.span("isotopy.canonical_form.o4"):
                classes = {isotopy.canonical_form(g).flat() for g in labeled}
            tally.record("rect split", None if (len(labeled), len(classes))
                         == (checks.RECT_O4_LABELED, checks.RECT_O4_ISO)
                         else f"{len(labeled)} tables, {len(classes)} classes")

            flat = [v for row in tables["E256"] for v in row]
            for _ in range(5):
                g = core.make_groupoid(256, flat)
            tally.record("make_groupoid", None if [list(r) for r in g.table] == tables["E256"]
                         else "table differs")

            imports = []
            for _ in range(IMPORT_LAUNCHES):
                with tr.span("cli.launch"):
                    out = subprocess.run((sys.executable, "-c", IMPORT_CODE), env=env,
                                         capture_output=True, text=True)
                ok = out.returncode == 0
                tally.record("import rectangular.cli", None if ok else out.stderr[-200:])
                if ok:
                    imports.append(float(out.stdout))

    counts = {}
    for argv, out in outputs.items():
        if argv[0] == "enumerate":
            try:
                emitted = json.loads(out)
                counts[emitted["class"], emitted["mode"], str(emitted["order"])] = emitted["count"]
            except (ValueError, KeyError, TypeError):
                pass  # already counted as a failure by the command's check
    labeled_count = counts.get(("rectangular", "labeled", "4"), 0)
    iso_count = counts.get(("rectangular", "isomorphism", "4"), 0)
    metrics = {
        "census.enumerate_central.o9.classes": counts.get(("central", "isomorphism", "9"), 0),
        "census.enumerate_rectangular.labeled-o4.tables": labeled_count,
        "census.enumerate_rectangular.iso-o4.classes": iso_count,
        "census.rect-o4.dedup_yield": iso_count / labeled_count if labeled_count else 0.0,
        "cli.import.s": statistics.median(imports) if imports else 0.0,
    }
    metrics["isotopy.canonical_form.o4.us_per_call"] = (
        statistics.median(tr.durations("isotopy.canonical_form.o4")) / len(labeled) * 1e6)
    for name in names:
        if name not in metrics and name.endswith(".s"):
            metrics[name] = statistics.median(tr.durations(name[:-2]))

    trace_file = work / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "spans": tr.spans}), encoding="utf-8")
    return metrics, {"spans": len(tr.spans), "trace_file": str(trace_file)}
