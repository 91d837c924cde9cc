"""Isotopy application and search, isomorphism by a direct relabeling
search, canonical forms, transversals, and the transversal <-> idempotent-isotope link.

Orientation convention, the one of the isotope kernel ``core.flat_isotopes``:
a witness (alpha, beta, gamma) maps g to h via

    h(a, b) = gamma^-1( g(alpha(a), beta(b)) )

so the identity triple is the identity isotopy and componentwise inversion
inverts a witness.  Relabeling by sigma is the triple (sigma^-1, sigma^-1, sigma^-1).
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations

from .core import (
    CapacityError,
    Groupoid,
    IsotopyTriple,
    Permutation,
    Transversal,
    check_order,
    flat_isotopes,
    make_groupoid,
)

ISOTOPY_SEARCH_BOUND = 6
CANONICAL_FORM_BOUND = 9
TRANSVERSAL_STEP_BOUND = 10 ** 7  # column steps; proving Z_12 has none takes 4.1e7


def apply_isotopy(g: Groupoid, t: IsotopyTriple) -> Groupoid:
    if t.order != g.order:
        raise ValueError(f"triple order {t.order} differs from groupoid order {g.order}")
    images = flat_isotopes(g.order, [(t.alpha.images, t.beta.images, t.gamma.images)])
    return make_groupoid(g.order, next(images(g.flat())))


def _isotopy_profile(g: Groupoid) -> tuple[list[int], list[int], list[int]]:
    """Three sorted counts every isotope of g shares: the distinct symbols
    of each row, those of each column, and the frequency of each symbol."""
    t = g.table
    return (sorted(len(set(row)) for row in t),
            sorted(len(set(col)) for col in zip(*t)),
            sorted(Counter(e for row in t for e in row).values()))


def are_isotopic(g: Groupoid, h: Groupoid) -> IsotopyTriple | None:
    """Search for a witness mapping g to h, or None.

    Tables whose isotopy profiles differ answer None at once.  Otherwise
    the search iterates (alpha, beta) in lexicographic order; gamma is
    induced cell by cell and checked for consistency, which cuts the search
    from n!^3 to n!^2.  The first witness found is returned.
    """
    if g.order != h.order:
        raise ValueError(f"orders differ: {g.order} vs {h.order}")
    n = g.order
    check_order(n, bound=ISOTOPY_SEARCH_BOUND, limit="isotopy search is")
    if _isotopy_profile(g) != _isotopy_profile(h):
        return None
    gt, ht = g.table, h.table
    cells = [(a, b) for a in range(n) for b in range(n)]
    for alpha in permutations(range(n)):
        rows = [gt[alpha[a]] for a in range(n)]
        for beta in permutations(range(n)):
            gamma = [-1] * n
            used = 0
            ok = True
            for a, b in cells:
                key = ht[a][b]
                val = rows[a][beta[b]]
                cur = gamma[key]
                if cur < 0:
                    if used >> val & 1:
                        ok = False
                        break
                    gamma[key] = val
                    used |= 1 << val
                elif cur != val:
                    ok = False
                    break
            if not ok:
                continue
            free = iter(v for v in range(n) if not used >> v & 1)
            images = tuple(x if x >= 0 else next(free) for x in gamma)
            return IsotopyTriple(Permutation(alpha), Permutation(beta),
                                 Permutation(images))
    return None


def relabel(g: Groupoid, sigma: Permutation) -> Groupoid:
    """Rename rows, columns and symbols simultaneously by sigma."""
    if sigma.order != g.order:
        raise ValueError("permutation order differs from groupoid order")
    inv = sigma.inverse()
    return apply_isotopy(g, IsotopyTriple(inv, inv, inv))


def canonical_form(g: Groupoid) -> Groupoid:
    """The least table over all simultaneous relabelings; isomorphism-complete."""
    n = g.order
    check_order(n, bound=CANONICAL_FORM_BOUND, limit="canonical form is")
    t = g.table
    best: list[int] | None = None
    cells = [(a, b) for a in range(n) for b in range(n)]
    for inv in permutations(range(n)):
        sigma = [0] * n
        for i, v in enumerate(inv):
            sigma[v] = i
        if best is None:
            best = [sigma[t[inv[a]][inv[b]]] for a, b in cells]
            continue
        current: list[int] = []
        verdict = 0
        for idx, (a, b) in enumerate(cells):
            v = sigma[t[inv[a]][inv[b]]]
            if verdict == 0:
                if v > best[idx]:
                    verdict = 1
                    break
                if v < best[idx]:
                    verdict = -1
            current.append(v)
        if verdict == -1:
            best = current
    return make_groupoid(n, best)


def are_isomorphic(g: Groupoid, h: Groupoid) -> Permutation | None:
    """The first sigma of permutations(range(n)), in lexicographic order,
    with relabel(g, sigma) = h, or None.

    An isomorphism is an isotopy, so tables whose isotopy profiles differ
    answer None at once.  Otherwise one walk over Sym(n) tests
    h(sigma(a), sigma(b)) = sigma(g(a, b)) cell by cell and leaves each
    sigma at its first mismatch.
    """
    if g.order != h.order:
        raise ValueError(f"orders differ: {g.order} vs {h.order}")
    n = g.order
    check_order(n, bound=CANONICAL_FORM_BOUND, limit="isomorphism test is")
    if _isotopy_profile(g) != _isotopy_profile(h):
        return None
    ht = h.table
    cells = [(a, b, c) for a, row in enumerate(g.table) for b, c in enumerate(row)]
    for s in permutations(range(n)):
        for a, b, c in cells:
            if ht[s[a]][s[b]] != s[c]:
                break
        else:
            return Permutation(s)
    return None


def find_transversal(g: Groupoid) -> Transversal | None:
    """n cells, one per row and column, covering every symbol once.

    Depth-first over rows with column/symbol bitmasks, as a loop with one
    column cursor per row, so no order is too deep for the stack; returns
    the first selection in row-major order, so the result is deterministic.
    The cursors' steps, one per column examined and one per row left
    without a choice, are counted: past ``TRANSVERSAL_STEP_BOUND`` of them
    the search raises CapacityError.
    """
    n = g.order
    cols = syms = (1 << n) - 1  # the free columns and symbols
    picked = [-1] * n  # the column chosen in each row, -1 before the first
    row = steps = 0
    while 0 <= row < n:
        trow = g.table[row]
        c = picked[row]
        if c >= 0:  # back in this row: free its choice and try the next column
            cols |= 1 << c
            syms |= 1 << trow[c]
        c += 1
        while c < n and not (cols >> c & 1 and syms >> trow[c] & 1):
            c += 1
        steps += c - picked[row]
        if steps > TRANSVERSAL_STEP_BOUND:
            raise CapacityError(f"transversal search is bounded at "
                                f"{TRANSVERSAL_STEP_BOUND} column steps")
        if c < n:
            picked[row] = c
            cols ^= 1 << c
            syms ^= 1 << trow[c]
            row += 1
        else:
            picked[row] = -1
            row -= 1
    if row < 0:
        return None
    return Transversal(n, tuple(enumerate(picked)))


def idempotent_isotope(g: Groupoid) -> tuple[IsotopyTriple, Groupoid] | None:
    """An isotope with a*a = a for all a, built from a transversal.

    alpha sends each symbol to the transversal row it sits in, beta to its
    column; gamma is the identity.  Returns None exactly when no transversal
    exists.
    """
    t = find_transversal(g)
    if t is None:
        return None
    n = g.order
    row_of = [0] * n
    col_of = [0] * n
    for r, c in t.cells:
        s = g.table[r][c]
        row_of[s] = r
        col_of[s] = c
    triple = IsotopyTriple(Permutation(tuple(row_of)), Permutation(tuple(col_of)),
                           Permutation.identity(n))
    return triple, apply_isotopy(g, triple)
