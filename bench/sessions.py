"""The researcher sessions the benchmark replays.

Each session is a list of CLI commands, run one at a time (closed loop, one
user), each with the check its output must pass.  The traced run replays
the same lists in one process.

* central: the order-9 and order-4 central censuses.  Almost all of the
  time is the matrix search and its deduplication in ``census``.  One
  order-9 census takes about 30 s, so a run holds a single sample and this
  host's speed swings showed through unfiltered; it is measured only in the
  traced run, not as an end-to-end workload.
* rect: the rectangular censuses (labeled and up to isomorphism at order 4,
  up to isotopy at order 3) and the 3x4 band blow-ups.  A cell backtracker
  plus ``isotopy.canonical_form`` deduplication, so a census change that
  helps one search and costs the other shows.
* desk: about thirty check/convert/isotopy/transversal commands on seeded
  relabelings at orders 256 and 64.  Full-scan passing checks sit beside
  early-exit failing ones, so a precomputation that speeds the scans and
  taxes every check moves wall time and the per-command median apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments after ``python -m rectangular.cli``,
    the check of its (exit code, stdout), and where to save stdout for a
    later command of the chain."""

    argv: tuple[str, ...]
    check: Callable[[int, bytes], str | None]
    save: Path | None = None


CENTRAL = (
    (("enumerate", "--class", "central", "--order", "9", "--emit", "json"),
     dict(order=9, kind="central", mode="isomorphism", count=checks.CENTRAL_O9,
          table_test=checks.is_central)),
    (("enumerate", "--class", "central", "--order", "4", "--emit", "json"),
     dict(order=4, kind="central", mode="isomorphism", count=checks.CENTRAL_O4,
          table_test=checks.is_central)),
)

RECT = (
    (("enumerate", "--class", "rectangular", "--order", "4", "--up-to", "labeled",
      "--emit", "json"),
     dict(order=4, kind="rectangular", mode="labeled", count=checks.RECT_O4_LABELED)),
    (("enumerate", "--class", "rectangular", "--order", "4", "--up-to", "iso",
      "--emit", "json"),
     dict(order=4, kind="rectangular", mode="isomorphism", count=checks.RECT_O4_ISO,
          table_test=checks.is_rectangular,
          classes_test=checks.pairwise_non_isomorphic)),
    (("enumerate", "--class", "rectangular", "--order", "3", "--up-to", "isotopy",
      "--emit", "json"),
     dict(order=3, kind="rectangular", mode="isotopy", count=checks.RECT_O3_ISOTOPY,
          table_test=checks.is_rectangular,
          classes_test=checks.pairwise_non_isotopic)),
    (("enumerate", "--class", "band-blowups", "--order", "3x4", "--emit", "json"),
     dict(order=[3, 4], kind="band-blowups", mode="labeled",
          count=checks.BAND_BLOWUPS_3X4)),
)

# (property, input file, holds).  Verdicts follow from the constructions in
# inputs.py: E = Evans central, B = rectangular band, E256x = E256 with one
# cell changed, .gp / .mat = the graph pair / matrix pair of the table.
DESK_CHECKS = (
    # full-scan passing identity checks, order 256
    ("central", "E256.tbl", True),
    ("associative", "B256.tbl", True),
    ("undirected-eq", "B256.tbl", True),
    ("partitioned", "B256.tbl", True),
    # early-exit failing checks: the same identities on the other table
    ("central", "B256.tbl", False),
    ("associative", "E256.tbl", False),
    ("undirected-eq", "E256.tbl", False),
    ("partitioned", "E256.tbl", False),
    ("central", "E256x.tbl", False),
    # bitset checks
    ("rectangular", "B256.tbl", True),
    ("rectangular", "E256x.tbl", False),
    ("p1", "E256.tbl", True),
    ("matrix-symmetric", "B256.tbl", True),
    ("maximal", "E256.tbl", False),
    ("full", "B256.tbl", True),
    ("p2", "B256.gp", True),
    ("p4", "E256.mat", True),
    # order 64
    ("central", "E64.tbl", True),
    ("associative", "B64.tbl", True),
    ("associative", "E64.tbl", False),
    ("central", "B64.tbl", False),
)

# The groupoid -> graph pair -> matrices -> groupoid chain on this table.
CHAIN_TABLE = "B256"
TRANSVERSAL_TABLE = "B64"
ISOTOPY_FOUND = ("B23", "B23iso")
ISOTOPY_NONE = ("B23", "B32")


CENSUS_SESSIONS = {"central": CENTRAL, "rect": RECT}


def census(workload: str) -> list[Command]:
    """The central or rect session."""
    return [Command(argv, checks.expect_census(**want))
            for argv, want in CENSUS_SESSIONS[workload]]


def desk(directory: Path, tables: dict) -> list[Command]:
    """The desk session over the inputs written to directory."""
    def path(name: str) -> str:
        return str(directory / name)

    cmds = []
    for prop, name, holds in DESK_CHECKS:
        want = (checks.expect_true() if holds
                else checks.expect_witness(prop, tables[name.split(".")[0]]))
        cmds.append(Command(("check", "--property", prop, path(name)), want))

    table_text = inputs.render_table(tables[CHAIN_TABLE]).encode()
    pair_text = inputs.render_pair(tables[CHAIN_TABLE]).encode()
    cmds += [
        Command(("convert", "--from", "groupoid", "--to", "graphpair",
                 path(f"{CHAIN_TABLE}.tbl")),
                checks.expect_exact(pair_text), save=directory / "chain.gp"),
        Command(("convert", "--from", "graphpair", "--to", "matrices",
                 path("chain.gp")),
                checks.expect_exact(pair_text), save=directory / "chain.mat"),
        Command(("convert", "--from", "matrices", "--to", "groupoid",
                 path("chain.mat")),
                checks.expect_exact(table_text)),
        Command(("transversal", path(f"{TRANSVERSAL_TABLE}.tbl")),
                checks.expect_transversal(tables[TRANSVERSAL_TABLE])),
    ]

    a, b = ISOTOPY_FOUND
    cmds.append(Command(("isotopy", path(f"{a}.tbl"), path(f"{b}.tbl")),
                        checks.expect_isotopy(tables[a], tables[b])))
    a, b = ISOTOPY_NONE
    if checks.distinct_per_row(tables[a]) == checks.distinct_per_row(tables[b]):
        raise RuntimeError("the no-witness isotopy pair lost its invariant")
    cmds.append(Command(("isotopy", path(f"{a}.tbl"), path(f"{b}.tbl")),
                        checks.expect_exact(b"none\n", code=1)))
    return cmds
