"""Seeded input files for the desk workload.

Everything here is built literally from the definitions, without importing
the package under test, so the verdicts the benchmark expects follow from
the construction and not from the code being measured:

* ``evans(m)``: pairs with (a,b)*(c,d) = (b,c); central, rectangular, full,
  not associative, not idempotent.
* ``band(n, m)``: pairs with (a,b)*(c,d) = (a,d); rectangular, associative,
  idempotent, satisfies (a*b)*(c*a) = a and (a*b)*c = a*c, not central,
  not maximal.

Relabeling by a permutation is an isomorphism, so every property above
survives it.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path


def evans(m: int) -> list[list[int]]:
    n = m * m
    return [[(x % m) * m + y // m for y in range(n)] for x in range(n)]


def band(n: int, m: int) -> list[list[int]]:
    size = n * m
    return [[(x // m) * m + y % m for y in range(size)] for x in range(size)]


def permutation(rng: random.Random, n: int) -> list[int]:
    images = list(range(n))
    rng.shuffle(images)
    return images


def relabel(t: list[list[int]], sigma: list[int]) -> list[list[int]]:
    """The table h with h[sigma a][sigma b] = sigma(t[a][b])."""
    n = len(t)
    h = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            h[sigma[a]][sigma[b]] = sigma[t[a][b]]
    return h


def isotope(t, alpha, beta, gamma) -> list[list[int]]:
    """The table h with h(a, b) = gamma^-1(t(alpha a, beta b))."""
    n = len(t)
    inv = [0] * n
    for i, v in enumerate(gamma):
        inv[v] = i
    return [[inv[t[alpha[a]][beta[b]]] for b in range(n)] for a in range(n)]


def change_one_cell(rng: random.Random, t: list[list[int]]):
    """A copy of t with one cell changed, and the cell.

    The new symbol is one that does not occur in the cell's row.  In a
    central table that breaks (x*r)*(r*c) = r already for the first x, so
    the failing check costs about the same on every seed.
    """
    n = len(t)
    r, c = rng.randrange(n), rng.randrange(n)
    absent = sorted(set(range(n)) - set(t[r]))
    h = [row[:] for row in t]
    h[r][c] = rng.choice(absent)
    return h, (r, c)


def render_table(t: list[list[int]]) -> str:
    return f"{len(t)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in t)


def incidence(t: list[list[int]]) -> tuple[list[set[int]], list[set[int]]]:
    """Red edges (a, a*b) and green edges (a*b, b), as successor sets."""
    n = len(t)
    red = [set() for _ in range(n)]
    green = [set() for _ in range(n)]
    for a in range(n):
        for b in range(n):
            red[a].add(t[a][b])
            green[t[a][b]].add(b)
    return red, green


def render_pair(t: list[list[int]]) -> str:
    """The graph-pair file of t; a matrix-pair file has the same layout."""
    n = len(t)
    red, green = incidence(t)

    def grid(rel):
        return "".join(
            "".join("1" if j in rel[i] else "0" for j in range(n)) + "\n"
            for i in range(n))

    return f"{n}\n{grid(red)}\n{grid(green)}"


def make_inputs(seed: int) -> dict[str, list[list[int]]]:
    """Every table of the desk session, keyed by file stem."""
    rng = random.Random(f"desk:{seed}")
    e256 = relabel(evans(16), permutation(rng, 256))
    b256 = relabel(band(16, 16), permutation(rng, 256))
    e256x, _cell = change_one_cell(rng, e256)
    e64 = relabel(evans(8), permutation(rng, 64))
    b64 = relabel(band(8, 8), permutation(rng, 64))
    b23 = band(2, 3)
    b23_isotope = isotope(b23, permutation(rng, 6), permutation(rng, 6),
                          permutation(rng, 6))
    b32 = relabel(band(3, 2), permutation(rng, 6))
    return {"E256": e256, "B256": b256, "E256x": e256x, "E64": e64,
            "B64": b64, "B23": b23, "B23iso": b23_isotope, "B32": b32}


def write_inputs(seed: int, directory: Path) -> dict[str, list[list[int]]]:
    """Write ``<stem>.tbl`` for every table, plus the graph pair of B256 and
    the matrix pair of E256; return the tables."""
    tables = make_inputs(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for stem, t in tables.items():
        (directory / f"{stem}.tbl").write_text(render_table(t), encoding="utf-8")
    (directory / "B256.gp").write_text(render_pair(tables["B256"]), encoding="utf-8")
    (directory / "E256.mat").write_text(render_pair(tables["E256"]), encoding="utf-8")
    return tables
