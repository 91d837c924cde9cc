"""The identity evaluator, ``identity_counterexample``, holds a side over
its last variable as ``bytes`` up to order 256, composing rows with
``bytes.translate``, and as a tuple gathered by ``itemgetter`` above 256.
It decides the associative law by Light's test on a generating set
(``_is_associative``).  It scans the other variables in lexicographic order
(``_scan``).  Where one of them, v, occurs once, as a factor of a product
with a variable w, the identity reads v only through that product, and the
scan skips each value of v whose product (whose row or column, where w is
the last variable) an earlier value of v already gave.  The first failing
tuple is never skipped, so the witness is the full scan's: for centrality on
Evans's groupoid of order m^2 the scan visits m^3 pairs of values, not m^4,
whether the identity holds or fails.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator


def _parse_term(text: str, i: int) -> tuple[str | tuple, int]:
    """The product term starting at text[i], and the index after it.

    A term is a one-letter variable or a (left, right) pair; ``*`` groups
    to the left unless parentheses say otherwise.  Raises ValueError where
    no term starts.
    """
    def operand(i):
        if text[i:i + 1] == "(":
            term, i = _parse_term(text, i + 1)
            if text[i:i + 1] != ")":
                raise ValueError("a '(' is not closed")
            return term, i + 1
        if not text[i:i + 1].isalpha():
            raise ValueError(f"a variable or '(' is due at {text[i:] or 'the end'!r}")
        return text[i], i + 1

    term, i = operand(i)
    while i < len(text) and text[i] == "*":
        right, i = operand(i + 1)
        term = (term, right)
    return term, i


def _compile(term, last: str, outer: tuple, t: list, ids, compose):
    """(closure, varies) for a term.

    The closure maps the values of the ``outer`` variables, all but
    ``last``, to the term's value: a sequence over every value of ``last``,
    of the type of ids, when varies is true, else one symbol.  t holds the
    table's rows as such sequences, and compose(s, idx) is the sequence s*v
    over the v in the sequence idx.
    """
    if isinstance(term, str):
        if term == last:
            return (lambda env: ids), True
        return itemgetter(outer.index(term)), False
    (lf, lv), (rf, rv) = (_compile(side, last, outer, t, ids, compose) for side in term)
    if not (lv or rv):
        return (lambda env: t[lf(env)][rf(env)]), False
    if not lv:
        if term[1] == last:  # s*z over every z is row s
            return (lambda env: t[lf(env)]), True
        return (lambda env: compose(lf(env), rf(env))), True
    seq = type(ids)
    if term[0] == last and not rv:  # z*s over every z is column s
        cols = [seq(col) for col in zip(*t)]
        return (lambda env: cols[rf(env)]), True
    if not rv:  # u*s over the sequence u, for one symbol s
        return (lambda env: seq([t[u][s] for s in [rf(env)] for u in lf(env)])), True
    return (lambda env: seq([t[u][v] for u, v in zip(lf(env), rf(env))])), True


IDENTITY_LENGTH_BOUND = 200  # keeps the recursive parse and compile shallow


@lru_cache(maxsize=None)
def _parse_identity(identity: str) -> tuple[tuple, str, tuple]:
    """(other variables, last variable, (left term, right term)), the
    variables taken in alphabetical order; whitespace is ignored.  Raises
    ValueError, naming the identity, unless it is two terms joined by ``=``.
    """
    text = "".join(identity.split())
    try:
        if len(text) > IDENTITY_LENGTH_BOUND:
            raise ValueError(f"longer than {IDENTITY_LENGTH_BOUND} characters")
        if text.count("=") != 1:
            raise ValueError("it needs exactly one '='")
        sides = []
        for side in text.split("="):
            term, i = _parse_term(side, 0)
            if i < len(side):
                raise ValueError(f"{side[i]!r} after the term {side[:i]!r}")
            sides.append(term)
    except ValueError as exc:
        raise ValueError(f"malformed identity {identity!r}: {exc}") from None
    *outer, last = sorted({ch for ch in text if ch.isalpha()})
    return tuple(outer), last, tuple(sides)


def _sequences(table):
    """(rows, ids, compose) for the identity evaluator: the table's rows as
    sequences over 0..n-1, the sequence 0..n-1, and compose(s, idx), the
    sequence s*v over the v in the sequence idx.

    Up to order 256 every symbol fits in a byte: the sequences are bytes,
    and compose is ``idx.translate`` of row s padded to 256 bytes.  Above
    256 they are tuples, gathered by ``operator.itemgetter``.
    """
    n = len(table)
    if n <= 256:
        t = [bytes(row) for row in table]
        padded = [row + bytes(256 - n) for row in t]

        def compose(s, idx):
            return idx.translate(padded[s])
        return t, bytes(range(n)), compose
    t = [tuple(row) for row in table]

    def compose(s, idx):
        return itemgetter(*idx)(t[s])
    return t, tuple(range(n)), compose


def _is_associative_law(sides) -> bool:
    """Whether sides are (p*q)*r and p*(q*r), either first, for three
    distinct variables p, q and r."""
    for left, right in (sides, sides[::-1]):
        if isinstance(left, tuple) and isinstance(left[0], tuple):
            (p, q), r = left
            if right == (p, (q, r)) and all(isinstance(v, str) for v in (p, q, r)) \
                    and len({p, q, r}) == 3:
                return True
    return False


def _subterms(term) -> Iterator:
    """Every subterm of a term, itself included, once per occurrence."""
    yield term
    if isinstance(term, tuple):
        for side in term:
            yield from _subterms(side)


def _firsts(seq) -> list[int]:
    """The index of the first occurrence of each distinct item of seq, in
    increasing order."""
    return sorted(dict(zip(seq[::-1], range(len(seq) - 1, -1, -1))).values())


def _scan(outer: tuple, last: str, sides: tuple, t: list) -> Iterable[tuple]:
    """The tuples of values of the outer variables that the evaluator scans,
    in lexicographic order: every one, or, where an outer variable v occurs
    once, as a factor of a product with a variable w, only those in which v
    is the least of its class.

    The identity reads v only through that product.  Where w is outer, v's
    class, given w's value, is the v with one value of v*w: one symbol of
    column w (row w for w*v).  Where w is the last variable, v*z over every
    z is row v (z*v column v), and v's class is the v with one row
    (column).  Both sides over the last variable are the same across a
    class, so a failing tuple fails again, at the same last value, with v
    the least of its class, and the lexicographically first failing tuple
    is one of those scanned.  Of the variables that qualify, the one that
    leaves the fewest tuples is taken.
    """
    n, k = len(t), len(outer)
    full = range(n)
    subterms = [term for side in sides for term in _subterms(side)]
    factors = [(v, w, v == node[0]) for node in subterms
               if isinstance(node, tuple) and all(isinstance(x, str) for x in node)
               for v, w in (node, node[::-1]) if v in outer and subterms.count(v) == 1]
    cols = list(zip(*t)) if factors else None
    best, fewest = None, n ** k
    for v, w, v_left in factors:
        lines = t if v_left == (w == last) else cols
        if w == last:
            firsts = _firsts(lines)
            size = n ** (k - 1) * len(firsts)
        else:
            firsts = [_firsts(line) for line in lines]  # per value of w
            size = n ** (k - 2) * sum(map(len, firsts))
        if size < fewest:
            best, fewest = (outer.index(v), w, firsts), size
    if best is None:
        return product(full, repeat=k)
    i, w, firsts = best
    if w == last:
        return product(*[firsts if p == i else full for p in range(k)])
    j = outer.index(w)
    if j > i:  # v comes first: w ranges over the values at which v is least
        by_v = [[] for _ in full]
        for y, xs in enumerate(firsts):
            for x in xs:
                by_v[x].append(y)
        firsts = by_v
    a, b = sorted((i, j))  # the values at b, given the value x at a, are firsts[x]
    return (head + (x,) + mid + (y,) + tail
            for head in product(full, repeat=a) for x in full
            for mid in product(full, repeat=b - a - 1) for y in firsts[x]
            for tail in product(full, repeat=k - b - 1))


def identity_counterexample(g, identity: str) -> tuple[int, ...] | None:
    """The lexicographically first tuple of values, one per variable in
    alphabetical order, at which ``identity`` fails in the table of g (a
    Groupoid or a FiniteGroup).

    Each side is compiled once per call into closures that, for fixed
    values of the other variables, compute the side as a sequence over the
    last variable (``_sequences``).  The associative law, in any letters and
    either side first, is decided first by Light's test (``_is_associative``);
    only a table that fails it is scanned for the witness.  The scan runs
    over the other variables in lexicographic order (``_scan``); where one
    of them occurs once, as a factor of a product with another variable, it
    skips the values of that variable that repeat an earlier value of the
    product, or an earlier row or column, which cannot hold the first
    failure.  A malformed identity raises ValueError.
    """
    outer, last, sides = _parse_identity(identity)
    if _is_associative_law(sides) and _is_associative(g.table):
        return None
    n = g.order
    t, ids, compose = _sequences(g.table)

    def sequence(term):  # a side that does not vary is one symbol n times over
        fn, varies = _compile(term, last, outer, t, ids, compose)
        consts = None if varies else [type(ids)((s,)) * n for s in ids]
        return fn if varies else lambda env: consts[fn(env)]
    left, right = map(sequence, sides)
    for env in _scan(outer, last, sides, t):
        u, v = left(env), right(env)
        if u != v:
            return env + (next(i for i in ids if u[i] != v[i]),)
    return None


def _is_associative(table) -> bool:
    """Light's associativity test on a table.

    The elements a with x*(a*y) = (x*a)*y for every x and y are closed
    under *, so it suffices to test a set that generates the table: each
    generator is the least element outside the closure of those before it.
    For generator a and each x, row x*a must equal row x gathered through
    row a (``_sequences``).  Products of tested elements may be bracketed
    to the left, so the closure is what the generators reach by right
    multiplication; it grows by the new generator, the old elements times
    it, and the new elements times every generator, so each product is
    taken once.  A group needs at most log2(n) + 1 generators, a left-zero
    band x*y = x all n.  The law reads x only through row x, so each
    generator is tested at the first x of each distinct row alone: on
    band(n, m) that is n rows, and on band(1, m) one.
    """
    t, _, compose = _sequences(table)
    n = len(t)
    rows = _firsts(t)
    closure: set[int] = set()
    generators: list[int] = []
    for a in range(n):
        if a in closure:
            continue
        if any(compose(x, t[a]) != t[t[x][a]] for x in rows):
            return False
        generators.append(a)
        new = {a, *(t[e][a] for e in closure)} - closure
        while new:
            closure |= new
            new = {t[e][g] for e in new for g in generators} - closure
    return True
