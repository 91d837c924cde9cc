"""Benchmark of the rectangular workbench, run from the root of a checkout.

    python3 bench/run.py --workload {rect,desk} --seed N --seconds S --trace {0,1}

--trace 0 runs the workload's CLI session (``python -m rectangular.cli``,
one command at a time, default ``--jobs 1``) over and over for S seconds,
starting no repetition that would end after S, and reports the end-to-end
metrics:

  wall_s       session wall time: the sum over its commands of each
               command's mean wall time
  cmd_p50_s    median over the session's commands of their mean wall time
  cpu_s        the same sum over the children's user+sys CPU time
  peak_rss_mb  largest resident set of a command (median over repetitions)
  setup_s      mean wall time of a no-op launch (``check --help``)

The times are scaled to a fixed host speed.  Every few seconds the
run also launches reference.py, a fixed piece of pure-Python work that does
not use the package, and multiplies each time by REFERENCE_S over the
reference's mean time in this run.  This shared host's speed drifts by
tens of percent over minutes, and the scaled times drift far less; the
line before the result reports the unscaled times, the factor and every
sample.  The estimates are means, not medians: a launch on this host runs
either at full speed or at about half, so its times form two clusters, and
a median jumps between them as their shares change while a mean moves in
proportion, as a long command's own time does.

--trace 1 replays the sessions in this process (the central census
session too) with spans around the calls into each module and reports the
per-layer metrics (see tracing.py).

Every output is checked against a reference that does not come from the
code under test (checks.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it records
the workload, the seed and what ran.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import sessions

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / "work"

NOOP = ("check", "--help")
SETUP_LAUNCHES = 5
EVERY_S = 2.0  # a no-op and a reference launch at least this often
# The wall time of reference.py that defines the nominal host speed the
# times are scaled to.  Its mean over a run ranged from 0.21 to 0.61 s on
# the baseline host as that host's speed drifted (see baseline.json).
REFERENCE_S = 0.25


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(argv: tuple[str, ...], env: dict[str, str]):
    """Run one Python child to completion; argv follows the interpreter.

    Returns (exit code, stdout, wall seconds, CPU seconds, peak RSS in MB);
    CPU and RSS come from the child's own rusage.
    """
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen((sys.executable, *argv),
                                stdout=subprocess.PIPE, stderr=err, env=env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def launch_cli(argv: tuple[str, ...], env: dict[str, str]):
    return launch(("-m", "rectangular.cli", *argv), env)


class Tally:
    """Commands attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")
            print(f"FAIL {what}: {reason}", file=sys.stderr)


class Probes:
    """The no-op launches behind setup_s and the reference launches."""

    def __init__(self, env, tally: Tally):
        self.env, self.tally = env, tally
        self.noops: list[float] = []
        self.references: list[float] = []
        self.last = 0.0

    def noop(self) -> float:
        """Wall time of one no-op launch: interpreter, import and parser."""
        rc, out, wall, _, _ = launch_cli(NOOP, self.env)
        self.tally.record(" ".join(NOOP), None if rc == 0 and out.startswith(b"usage:")
                          else f"exit code {rc}")
        return wall

    def reference(self) -> float:
        rc, out, wall, _, _ = launch((str(HERE / "reference.py"),), self.env)
        self.tally.record("reference", None if rc == 0 and out == b"ok\n"
                          else f"exit code {rc}")
        return wall

    def both(self) -> None:
        self.noops.append(self.noop())
        self.references.append(self.reference())
        self.last = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.both()


def measure(workload: str, seed: int, seconds: float, tally: Tally):
    """Repeat the workload's session for `seconds`; return its metrics.

    Each command's time is its mean over the repetitions, and the no-op
    and reference launches are spread over the run, so that a swing of the
    host's speed in part of the run moves the result less.
    """
    env = cli_env()
    if workload == "desk":
        directory = WORK / "inputs"
        commands = sessions.desk(directory, inputs.write_inputs(seed, directory))
    else:
        commands = sessions.census(workload)
    probes = Probes(env, tally)
    probes.noop()  # warm-up: byte-compiles the package in a fresh checkout
    for _ in range(SETUP_LAUNCHES):
        probes.both()
    samples: list[list[tuple[float, float, float]]] = [[] for _ in commands]
    verdicts: dict = {}
    repetitions = 0
    start = time.perf_counter()
    last_repetition = 0.0
    while not repetitions or time.perf_counter() - start + last_repetition <= seconds:
        began = time.perf_counter()
        for i, cmd in enumerate(commands):
            rc, out, wall, cpu, rss = launch_cli(cmd.argv, env)
            samples[i].append((wall, cpu, rss))
            if cmd.save is not None:
                cmd.save.write_bytes(out)
            # Identical outputs of a command get one verdict per run.
            key = (i, rc, out)
            if key not in verdicts:
                verdicts[key] = cmd.check(rc, out)
            tally.record(" ".join(cmd.argv), verdicts[key])
            probes.due()
        repetitions += 1
        last_repetition = time.perf_counter() - began

    def per_command(k: int, estimate) -> list[float]:
        return [estimate(s[k] for s in runs) for runs in samples]

    reference = statistics.fmean(probes.references)
    unscaled = {
        "wall_s": sum(per_command(0, statistics.fmean)),
        "cmd_p50_s": statistics.median(per_command(0, statistics.fmean)),
        "cpu_s": sum(per_command(1, statistics.fmean)),
        "setup_s": statistics.fmean(probes.noops),
    }
    scale = REFERENCE_S / reference
    metrics = {name: value * scale for name, value in unscaled.items()}
    metrics["peak_rss_mb"] = max(per_command(2, statistics.median))
    info = {"repetitions": repetitions, "commands_per_repetition": len(commands),
            "seconds_measured": round(time.perf_counter() - start, 3),
            "noop_launches": len(probes.noops), "reference_s": reference,
            "scale": scale, "unscaled": unscaled,
            "samples": {"wall_s": [[round(x[0], 5) for x in runs] for runs in samples],
                        "cpu_s": [[round(x[1], 5) for x in runs] for runs in samples],
                        "reference_s": [round(x, 5) for x in probes.references],
                        "setup_s": [round(x, 5) for x in probes.noops]}}
    return metrics, info


def result_line(values: dict[str, float], spec: list[dict], tally: Tally) -> str:
    """The final JSON line: exactly spec's metrics, with spec's units."""
    want = [m["name"] for m in spec]
    if sorted(values) != sorted(want):
        raise RuntimeError(f"metrics {sorted(values)} differ from {sorted(want)}")
    failed = len(tally.failures)
    return json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "rectangular" / "cli.py").is_file():
        print(f"bench: no package source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    WORK.mkdir(exist_ok=True)
    tally = Tally()
    if args.trace:
        import tracing

        sys.path.insert(0, str(SRC))
        wanted = spec["per_layer"]
        metrics, info = tracing.run(args.workload, args.seed, WORK, cli_env(), tally,
                                    [m["name"] for m in wanted])
    else:
        metrics, info = measure(args.workload, args.seed, args.seconds, tally)
        wanted = spec["end_to_end"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **info,
                      "failures": tally.failures[:20]}))
    print(result_line(metrics, wanted, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
