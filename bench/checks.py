"""References the benchmark checks outputs against.

None of them comes from the package under test.  Census counts come from
independent sources (named beside each); witnesses are evaluated literally
on the input table, and an identity's witness must be its first violation
in scan order; isotopy witnesses are applied literally; a "none" isotopy
verdict rests on an invariant.  Every checker returns ``None`` when the
output is right and a short reason when it is not.
"""

from __future__ import annotations

import ast
import json
from itertools import permutations

# Census counts and their independent sources.
CENTRAL_O9 = 6          # acceptance criterion 01 (tests/test_acceptance.py)
CENTRAL_O4 = 1          # brute force over all order-4 tables (tests/test_census.py)
RECT_O4_LABELED = 42676  # orbit-sum test against the isomorphism census
RECT_O4_ISO = 1864       # orbit-sum test (tests/test_census.py)
RECT_O3_ISOTOPY = 9      # tests/test_census.py
# tests/oracles.blow_up_count_exact(3, 4), inclusion-exclusion over the corner
# maps.  The paper's closed form n^(m-1) m^(n-1) (n+m-1) gives 2592 here; it
# is the erratum of acceptance criterion 02.
BAND_BLOWUPS_3X4 = 2808


# Each identity as "does the triple violate it"; partitioned also needs
# a*a = a, which the package checks first.
IDENTITIES = {
    "central": lambda t, x, y, z: t[t[x][y]][t[y][z]] != y,
    "associative": lambda t, a, b, c: t[t[a][b]][c] != t[a][t[b][c]],
    "undirected-eq": lambda t, a, b, c: t[t[a][b]][t[c][a]] != a,
    "partitioned": lambda t, a, b, c: t[t[a][b]][c] != t[a][c],
}


def _first_violation(prop: str, t, w: tuple[int, ...]) -> bool:
    """Is w the first violation of the identity in scan order?

    The package's witnesses are the first in (x, y, z) lexicographic order,
    after the idempotence scan for "partitioned"; the literal scan stops at
    w, so it costs as much as the scan that found it.
    """
    n = len(t)
    if prop == "partitioned":
        first_bad = next((a for a in range(n) if t[a][a] != a), None)
        if len(w) == 1 or first_bad is not None:
            return w == (first_bad,)
    breaks = IDENTITIES[prop]
    x, y, z = w
    if not breaks(t, x, y, z):
        return False
    for a in range(x + 1):
        for b in range(n if a < x else y + 1):
            for c in range(n if (a, b) < (x, y) else z):
                if breaks(t, a, b, c):
                    return False
    return True


def _violates(prop: str, t, w: tuple[int, ...]) -> bool:
    """Does the witness w literally break the property named prop?"""
    if prop in IDENTITIES:
        return _first_violation(prop, t, w)
    if prop == "rectangular":
        x, r, c = w
        return (x in t[r] and any(row[c] == x for row in t) and t[r][c] != x)
    if prop == "maximal":
        x, y = w
        cols = [{row[c] for row in t} for c in range(len(t))]
        return x != y and not any({x, y} <= set(line)
                                  for line in [*t, *cols])
    raise ValueError(f"no literal check for {prop!r}")


def witness_error(prop: str, t, w) -> str | None:
    n = len(t)
    try:
        if isinstance(w, int) or not all(0 <= v < n for v in w):
            return f"{prop}: witness {w!r} is not a tuple of symbols"
        if _violates(prop, t, tuple(w)):
            return None
    except (TypeError, ValueError):
        return f"{prop}: witness {w!r} has the wrong shape"
    return f"{prop}: witness {w!r} is not a violation, or not the first"


def isotopy_error(g, h, alpha, beta, gamma) -> str | None:
    """Check h(a, b) = gamma^-1(g(alpha a, beta b)) cell by cell."""
    n = len(g)
    for name, p in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if sorted(p) != list(range(n)):
            return f"isotopy: {name} {p!r} is not a permutation"
    for a in range(n):
        for b in range(n):
            if gamma[h[a][b]] != g[alpha[a]][beta[b]]:
                return f"isotopy: witness fails at cell ({a},{b})"
    return None


def distinct_per_row(t) -> int | None:
    """The number of distinct symbols in each row, if it is the same for all.

    Isotopy preserves it, so two tables that differ in it have no witness.
    """
    counts = {len(set(row)) for row in t}
    return counts.pop() if len(counts) == 1 else None


def transversal_error(t, cells) -> str | None:
    n = len(t)
    if len(cells) != n or any(len(cell) != 2 for cell in cells):
        return f"transversal: expected {n} cells of (row, column)"
    rows = {r for r, _ in cells}
    cols = {c for _, c in cells}
    if rows != set(range(n)) or cols != set(range(n)):
        return "transversal: rows or columns repeat"
    if len({t[r][c] for r, c in cells}) != n:
        return "transversal: symbols repeat"
    return None


def is_rectangular(t) -> bool:
    """Each symbol fills exactly the rows it occurs in times the columns."""
    n = len(t)
    for x in {v for row in t for v in row}:
        rows = [r for r in range(n) if x in t[r]]
        cols = [c for c in range(n) if any(t[r][c] == x for r in range(n))]
        if any(t[r][c] != x for r in rows for c in cols):
            return False
    return True


def is_central(t) -> bool:
    n = len(t)
    return all(t[t[x][y]][t[y][z]] == y
               for x in range(n) for y in range(n) for z in range(n))


def _relabelings(t):
    n = len(t)
    for s in permutations(range(n)):
        inv = [0] * n
        for i, v in enumerate(s):
            inv[v] = i
        yield tuple(s[t[inv[a]][inv[b]]] for a in range(n) for b in range(n))


def pairwise_non_isomorphic(tables) -> bool:
    """Brute force over all relabelings; only for tiny orders."""
    seen: set[tuple[int, ...]] = set()
    for t in tables:
        orbit = set(_relabelings(t))
        if orbit & seen:
            return False
        seen |= orbit
    return True


def pairwise_non_isotopic(tables) -> bool:
    """Brute force over all isotopies; only for tiny orders."""
    n = len(tables[0])
    perms = list(permutations(range(n)))
    seen: set[tuple[int, ...]] = set()
    for t in tables:
        orbit = {tuple(inv_g[t[al[a]][be[b]]] for a in range(n) for b in range(n))
                 for al in perms for be in perms
                 for inv_g in perms}
        if orbit & seen:
            return False
        seen |= orbit
    return True


def census_error(result: dict, *, order, kind: str, mode: str, count: int,
                 table_test=None, classes_test=None) -> str | None:
    """Check one census JSON object against its independent count.

    table_test holds for every listed table; classes_test holds for the
    whole list (for example, pairwise non-isomorphic).
    """
    if not isinstance(result, dict):
        return "census: output is not a JSON object"
    head = (result.get("order"), result.get("class"), result.get("mode"))
    if head != (order, kind, mode):
        return f"census: header {head!r}, expected {(order, kind, mode)!r}"
    if result.get("count") != count:
        return f"census {kind}/{mode}: count {result.get('count')!r}, expected {count}"
    flats = result.get("tables")
    if table_test is None and classes_test is None:
        return None if flats is None else f"census {kind}: unexpected tables"
    if not isinstance(flats, list) or len(flats) != count:
        return f"census {kind}/{mode}: {count} tables expected"
    if len({tuple(f) for f in flats}) != count:
        return f"census {kind}/{mode}: tables repeat"
    n = order
    if any(len(f) != n * n or not all(isinstance(v, int) and 0 <= v < n for v in f)
           for f in flats):
        return f"census {kind}/{mode}: a table is not an order-{n} table"
    tables = [[f[i * n:(i + 1) * n] for i in range(n)] for f in flats]
    if table_test is not None and not all(map(table_test, tables)):
        return f"census {kind}/{mode}: a table fails the class's defining test"
    if classes_test is not None and not classes_test(tables):
        return f"census {kind}/{mode}: two tables are in the same class"
    return None


# --- checkers of CLI output: (exit code, stdout bytes) -> reason or None ---

def expect_exact(expected: bytes, code: int = 0):
    def check(rc: int, out: bytes) -> str | None:
        if rc != code:
            return f"exit code {rc}, expected {code}"
        if out != expected:
            return f"output differs from the expected {len(expected)} bytes"
        return None
    return check


def expect_true():
    return expect_exact(b"true\n")


def expect_witness(prop: str, t):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 1:
            return f"{prop}: exit code {rc}, expected 1"
        try:
            lines = out.decode().splitlines()
        except ValueError:
            return f"{prop}: output is not text"
        if len(lines) != 2 or lines[0] != "false" or not lines[1].startswith("witness: "):
            return f"{prop}: malformed output {out[:80]!r}"
        try:
            w = ast.literal_eval(lines[1][len("witness: "):])
        except (ValueError, SyntaxError):
            return f"{prop}: unreadable witness {lines[1]!r}"
        return witness_error(prop, t, w)
    return check


def expect_census(**spec):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"census: exit code {rc}"
        try:
            result = json.loads(out)
        except ValueError:
            return "census: output is not JSON"
        return census_error(result, **spec)
    return check


def expect_isotopy(g, h):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"isotopy: exit code {rc}, expected 0"
        perms = {}
        try:
            for line in out.decode().splitlines():
                name, _, images = line.partition(": ")
                perms[name] = [int(v) for v in images.split()]
        except ValueError:  # UnicodeDecodeError is one too
            return f"isotopy: malformed output {out[:80]!r}"
        if set(perms) != {"alpha", "beta", "gamma"}:
            return f"isotopy: malformed output {out[:80]!r}"
        return isotopy_error(g, h, perms["alpha"], perms["beta"], perms["gamma"])
    return check


def expect_transversal(t):
    def check(rc: int, out: bytes) -> str | None:
        if rc != 0:
            return f"transversal: exit code {rc}, expected 0"
        try:
            cells = [tuple(int(v) for v in line.split())
                     for line in out.decode().splitlines()]
        except ValueError:
            return f"transversal: malformed output {out[:80]!r}"
        return transversal_error(t, cells)
    return check
