"""Shared domain types: validated, immutable values used by every module.

Symbols, rows, columns and graph nodes are always 0-based and live in
``0..n-1``.  Edge relations and 0/1-matrix rows are stored as n-bit integers
(bit ``j`` of row ``i`` set iff ``(i, j)`` is present), so the path-counting
predicates reduce to AND + popcount.  Every type is frozen; all operations in
the package are pure functions and safe to call concurrently.

The kernels every layer shares live here too: the two-step path count
(``two_step_middles``), the symbols of each line (``line_symbol_sets``), the
identity evaluator (``identity_counterexample``), the model conversions
(``groupoid_to_graph_pair``, ``graph_pair_to_groupoid``,
``graph_pair_to_matrices``, ``matrices_to_graph_pair``) and the isotope
kernel (``flat_isotopes``), which states the one isotopy convention
h(a, b) = gamma^-1(g(alpha(a), beta(b))).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterable, Iterator


class CapacityError(RuntimeError):
    """A requested computation exceeds its configured size bound."""


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def transpose_bits(rows: tuple[int, ...], order: int) -> tuple[int, ...]:
    """Transpose an adjacency given as bitset rows."""
    cols = [0] * order
    for i, row in enumerate(rows):
        for j in bits_of(row):
            cols[j] |= 1 << i
    return tuple(cols)


def line_symbol_sets(cells) -> tuple[list[int], list[int]]:
    """Bitsets of the symbols in each row and in each column of a square
    array; None cells are empty.  For a table these are the red rows of its
    graph pair and the columns of its green relation."""
    return ([mask_of(set(row) - {None}) for row in cells],
            [mask_of(set(col) - {None}) for col in zip(*cells)])


def two_step_middles(
    first: tuple[int, ...], second: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], ...] | None, tuple[int, int, int] | None]:
    """The middle node of the unique two-step path a -> c -> b, with the
    first step in ``first`` and the second in ``second`` (bitset rows).

    Returns ``(table, None)`` with ``table[a][b] = c``, or ``(None, (a, b,
    count))`` for the first pair in row-major order whose number of such
    paths is not 1.  This one computation is the groupoid of a unique-path
    graph pair, the check AB = J on 0/1 matrices, and the p2 property.
    """
    n = len(first)
    cols = transpose_bits(second, n)
    # paths leaving a = sum of the second-step degrees of a's first-step
    # neighbours; with no empty pair, it is n exactly when every count is 1
    degree = [row.bit_count() for row in second]
    table = []
    for a, row in enumerate(first):
        mids = [(row & col).bit_length() - 1 for col in cols]
        if -1 in mids or sum(degree[c] for c in bits_of(row)) != n:
            b, count = next((b, k) for b, col in enumerate(cols)
                            if (k := (row & col).bit_count()) != 1)
            return None, (a, b, count)
        table.append(tuple(mids))
    return tuple(table), None


def groupoid_to_graph_pair(g: Groupoid) -> GraphPair:
    """Red edges (a, a*b); green edges (a*b, b)."""
    red, green_cols = line_symbol_sets(g.table)
    return GraphPair(g.order, tuple(red), transpose_bits(green_cols, g.order))


def graph_pair_to_groupoid(gp: GraphPair) -> Groupoid:
    """a*b = the middle node of the unique red-green path from a to b."""
    table, bad = two_step_middles(gp.red, gp.green)
    if bad is not None:
        a, b, k = bad
        raise ValueError(f"not a unique-path pair: ({a},{b}) has {k} red-green paths")
    return Groupoid(gp.order, table)


def graph_pair_to_matrices(gp: GraphPair) -> tuple[BoolMatrix, BoolMatrix]:
    return BoolMatrix(gp.order, gp.red), BoolMatrix(gp.order, gp.green)


def matrices_to_graph_pair(a: BoolMatrix, b: BoolMatrix) -> GraphPair:
    if a.order != b.order:
        raise ValueError(f"matrix orders differ: {a.order} vs {b.order}")
    return GraphPair(a.order, a.rows, b.rows)


def flat_isotopes(n: int, triples):
    """The isotope kernel: a function yielding the isotopes of a flat
    (row-major) order-n table g under each (alpha, beta, gamma) of image
    sequences in triples, as flat tuples h in the one convention

        h(a, b) = gamma^-1( g(alpha(a), beta(b)) )
    """
    moves = [(sorted(range(n), key=gamma.__getitem__),  # gamma^-1
              [alpha[a] * n + beta[b] for a in range(n) for b in range(n)])
             for alpha, beta, gamma in triples]

    def images(flat):
        for gamma_inv, source in moves:
            yield tuple([gamma_inv[flat[k]] for k in source])
    return images


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


def _as_list(fn, varies: bool, n: int):
    """A compiled term as a closure that always returns a list."""
    return fn if varies else (lambda env: [fn(env)] * n)


def _compile(term, last: str, outer: tuple, t: list, ids: list):
    """(closure, varies) for a term.

    The closure maps the values of the ``outer`` variables, all but
    ``last``, to the term's value: a list over every value of ``last`` when
    varies is true, else one symbol.
    """
    if isinstance(term, str):
        if term == last:
            return (lambda env: ids), True
        return itemgetter(outer.index(term)), False
    (lf, lv), (rf, rv) = (_compile(side, last, outer, t, ids) for side in term)
    if not (lv or rv):
        return (lambda env: t[lf(env)][rf(env)]), False
    if not lv:
        if term[1] == last:  # s*z over every z is row s
            return (lambda env: t[lf(env)]), True

        def row_of_list(env):
            row = t[lf(env)]
            return [row[v] for v in rf(env)]
        return row_of_list, True
    if term[0] == last and not rv:  # z*s over every z is column s
        cols = [list(col) for col in zip(*t)]
        return (lambda env: cols[rf(env)]), True
    rf = _as_list(rf, rv, len(ids))
    return (lambda env: [t[u][v] for u, v in zip(lf(env), rf(env))]), True


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


def identity_counterexample(g, identity: str) -> tuple[int, ...] | None:
    """The lexicographically first tuple of values, one per variable in
    alphabetical order, at which ``identity`` fails in the table of g (a
    Groupoid or a FiniteGroup).

    Each side is compiled once per call into closures that, for fixed
    values of the other variables, compute the side as a list over the last
    variable.  A malformed identity raises ValueError.
    """
    outer, last, sides = _parse_identity(identity)
    t = [list(row) for row in g.table]
    ids = list(range(g.order))
    left, right = [_as_list(*_compile(term, last, outer, t, ids), g.order)
                   for term in sides]
    for env in product(range(g.order), repeat=len(outer)):
        u, v = left(env), right(env)
        if u != v:
            return env + (next(i for i in ids if u[i] != v[i]),)
    return None


def _check_square(order: int, rows, what: str) -> tuple[tuple[int, ...], ...]:
    if order < 1:
        raise ValueError(f"{what} order must be positive, got {order}")
    grid = tuple(tuple(r) for r in rows)
    if len(grid) != order or any(len(r) != order for r in grid):
        raise ValueError(f"{what} must be exactly {order}x{order}")
    return grid


@dataclass(frozen=True)
class Groupoid:
    """A binary operation on ``0..n-1`` given by its Cayley table.

    ``table[a][b]`` is the product ``a * b``.
    """

    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        grid = _check_square(self.order, self.table, "groupoid table")
        for a, row in enumerate(grid):
            for b, e in enumerate(row):
                if not isinstance(e, int) or not 0 <= e < self.order:
                    raise ValueError(
                        f"entry {e} out of range at ({a},{b}); "
                        f"symbols must lie in 0..{self.order - 1}"
                    )
        object.__setattr__(self, "table", grid)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def flat(self) -> tuple[int, ...]:
        return tuple(e for row in self.table for e in row)


def make_groupoid(order: int, entries: Iterable[int]) -> Groupoid:
    """Build a Groupoid from a row-major flat entry sequence."""
    flat = tuple(entries)
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if len(flat) != order * order:
        raise ValueError(
            f"expected {order * order} entries for order {order}, got {len(flat)}"
        )
    rows = tuple(flat[i * order:(i + 1) * order] for i in range(order))
    return Groupoid(order, rows)


@dataclass(frozen=True)
class GraphPair:
    """Two edge relations (red, green) on the node set ``0..n-1``.

    Rows are n-bit masks; loops are allowed, multi-edges are not
    representable.
    """

    order: int
    red: tuple[int, ...]
    green: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        limit = 1 << self.order
        for name in ("red", "green"):
            rows = tuple(getattr(self, name))
            if len(rows) != self.order:
                raise ValueError(f"{name} relation needs {self.order} rows")
            if any(not 0 <= r < limit for r in rows):
                raise ValueError(f"{name} relation has endpoints outside 0..{self.order - 1}")
            object.__setattr__(self, name, rows)

    @classmethod
    def from_edges(cls, order: int,
                   red: Iterable[tuple[int, int]],
                   green: Iterable[tuple[int, int]]) -> "GraphPair":
        red_rows = [0] * order
        green_rows = [0] * order
        for rows, edges in ((red_rows, red), (green_rows, green)):
            for a, b in edges:
                if not (0 <= a < order and 0 <= b < order):
                    raise ValueError(f"edge ({a},{b}) outside 0..{order - 1}")
                rows[a] |= 1 << b
        return cls(order, tuple(red_rows), tuple(green_rows))

    def red_edges(self) -> set[tuple[int, int]]:
        return {(a, b) for a in range(self.order) for b in bits_of(self.red[a])}

    def green_edges(self) -> set[tuple[int, int]]:
        return {(a, b) for a in range(self.order) for b in bits_of(self.green[a])}

    def has_red(self, a: int, b: int) -> bool:
        return bool(self.red[a] >> b & 1)

    def has_green(self, a: int, b: int) -> bool:
        return bool(self.green[a] >> b & 1)


@dataclass(frozen=True)
class BoolMatrix:
    """An n x n 0/1 matrix stored as bitset rows."""

    order: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        rows = tuple(self.rows)
        limit = 1 << self.order
        if len(rows) != self.order or any(not 0 <= r < limit for r in rows):
            raise ValueError(f"matrix must be {self.order}x{self.order} with 0/1 entries")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_grid(cls, grid: Iterable[Iterable[int]]) -> "BoolMatrix":
        rows = [tuple(r) for r in grid]
        order = len(rows)
        packed = []
        for i, row in enumerate(rows):
            if len(row) != order:
                raise ValueError(f"matrix must be square; row {i} has {len(row)} entries")
            bits = 0
            for j, e in enumerate(row):
                if e not in (0, 1):
                    raise ValueError(f"entry {e} at ({i},{j}) is not 0 or 1")
                bits |= e << j
            packed.append(bits)
        return cls(order, tuple(packed))

    @classmethod
    def ones(cls, order: int) -> "BoolMatrix":
        return cls(order, tuple([(1 << order) - 1] * order))

    def bit(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def to_grid(self) -> list[list[int]]:
        return [[self.bit(i, j) for j in range(self.order)] for i in range(self.order)]


@dataclass(frozen=True)
class PartialArray:
    """An n x n array whose cells hold a symbol in ``0..n-1`` or are empty."""

    order: int
    cells: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        grid = tuple(tuple(r) for r in self.cells)
        if len(grid) != self.order or any(len(r) != self.order for r in grid):
            raise ValueError(f"cells must be exactly {self.order}x{self.order}")
        for i, row in enumerate(grid):
            for j, e in enumerate(row):
                if e is not None and not 0 <= e < self.order:
                    raise ValueError(f"entry {e} out of range at ({i},{j})")
        object.__setattr__(self, "cells", grid)

    def filled(self) -> Iterator[tuple[int, int, int]]:
        """Yield (row, col, symbol) for every filled cell."""
        for i, row in enumerate(self.cells):
            for j, e in enumerate(row):
                if e is not None:
                    yield i, j, e

    def is_total(self) -> bool:
        return all(e is not None for row in self.cells for e in row)

    def to_groupoid(self) -> Groupoid:
        if not self.is_total():
            raise ValueError("partial array has empty cells")
        return Groupoid(self.order, self.cells)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``0..n-1`` given by its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        if sorted(images) != list(range(len(images))) or not images:
            raise ValueError(f"images {images} are not a bijection of 0..{len(images) - 1}")
        object.__setattr__(self, "images", images)

    @property
    def order(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, order: int) -> "Permutation":
        return cls(tuple(range(order)))

    def apply(self, x: int) -> int:
        return self.images[x]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """outer after inner: ``x -> outer(inner(x))``."""
    if outer.order != inner.order:
        raise ValueError("permutation orders differ")
    return Permutation(tuple(outer.images[v] for v in inner.images))


@dataclass(frozen=True)
class IsotopyTriple:
    """Three equal-order permutations (alpha, beta, gamma) witnessing isotopy."""

    alpha: Permutation
    beta: Permutation
    gamma: Permutation

    def __post_init__(self):
        if not (self.alpha.order == self.beta.order == self.gamma.order):
            raise ValueError("the three permutations must have the same order")

    @property
    def order(self) -> int:
        return self.alpha.order

    @classmethod
    def identity(cls, order: int) -> "IsotopyTriple":
        e = Permutation.identity(order)
        return cls(e, e, e)

    def inverse(self) -> "IsotopyTriple":
        return IsotopyTriple(self.alpha.inverse(), self.beta.inverse(), self.gamma.inverse())


@dataclass(frozen=True)
class Partition:
    """A partition of ``0..n-1``; blocks are sorted tuples ordered by least element."""

    order: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        blocks = tuple(sorted(tuple(sorted(set(b))) for b in self.blocks))
        seen = 0
        for block in blocks:
            if not block:
                raise ValueError("empty block in partition")
            if block[0] < 0 or block[-1] >= self.order:
                raise ValueError(f"block {block} has elements outside 0..{self.order - 1}")
            bmask = mask_of(block)
            if bmask & seen:
                raise ValueError(f"block {block} overlaps another block")
            seen |= bmask
        if seen != (1 << self.order) - 1:
            raise ValueError("blocks do not cover 0..n-1")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def singletons(cls, order: int) -> "Partition":
        return cls(order, tuple((i,) for i in range(order)))

    @classmethod
    def single_block(cls, order: int) -> "Partition":
        return cls(order, (tuple(range(order)),))

    @cached_property
    def block_index(self) -> tuple[int, ...]:
        idx = [0] * self.order
        for k, block in enumerate(self.blocks):
            for x in block:
                idx[x] = k
        return tuple(idx)

    def block_of(self, x: int) -> int:
        return self.block_index[x]


@dataclass(frozen=True)
class PartitionSystem:
    """A base partition plus, per base block, a companion partition it crosses.

    Each base block must be a transversal of its companion: it meets every
    companion block in exactly one element.
    """

    base: Partition
    companions: tuple[Partition, ...]

    def __post_init__(self):
        companions = tuple(self.companions)
        if len(companions) != len(self.base.blocks):
            raise ValueError(
                f"need one companion partition per base block "
                f"({len(self.base.blocks)}), got {len(companions)}"
            )
        for block, theta in zip(self.base.blocks, companions):
            if theta.order != self.base.order:
                raise ValueError("companion partition order differs from base order")
            bmask = mask_of(block)
            for tb in theta.blocks:
                hits = (bmask & mask_of(tb)).bit_count()
                if hits != 1:
                    raise ValueError(
                        f"base block {block} meets companion block {tb} "
                        f"{hits} times; a transversal must meet it exactly once"
                    )
        object.__setattr__(self, "companions", companions)

    @property
    def order(self) -> int:
        return self.base.order


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on ``0..n-1`` given by its Cayley table."""

    order: int
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        grid = _check_square(self.order, self.table, "group table")
        n = self.order
        for a, row in enumerate(grid):
            for b, e in enumerate(row):
                if not 0 <= e < n:
                    raise ValueError(f"entry {e} out of range at ({a},{b})")
        object.__setattr__(self, "table", grid)
        identity = next(
            (e for e in range(n)
             if all(grid[e][x] == x == grid[x][e] for x in range(n))),
            None,
        )
        if identity is None:
            raise ValueError("table has no identity element")
        bad = identity_counterexample(self, "(x*y)*z=x*(y*z)")
        if bad is not None:
            raise ValueError(f"table is not associative at ({bad[0]},{bad[1]},{bad[2]})")
        for a in range(n):
            if not any(grid[a][b] == identity == grid[b][a] for b in range(n)):
                raise ValueError(f"element {a} has no inverse")
        object.__setattr__(self, "_identity", identity)

    @property
    def identity(self) -> int:
        return self._identity  # type: ignore[attr-defined]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


@dataclass(frozen=True)
class Transversal:
    """n cells of an order-n table, one in each row and one in each column."""

    order: int
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self):
        cells = tuple(tuple(c) for c in self.cells)
        rows = sorted(r for r, _ in cells)
        cols = sorted(c for _, c in cells)
        if len(cells) != self.order or rows != list(range(self.order)) \
                or cols != list(range(self.order)):
            raise ValueError("cells must hit every row and every column exactly once")
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class Mapping:
    """A total map from ``0..d-1`` into a stated codomain; not necessarily injective."""

    images: tuple[int, ...]
    codomain: int

    def __post_init__(self):
        images = tuple(self.images)
        if self.codomain < 1:
            raise ValueError("codomain must be positive")
        if any(not 0 <= v < self.codomain for v in images):
            raise ValueError(f"images {images} leave codomain 0..{self.codomain - 1}")
        object.__setattr__(self, "images", images)

    @property
    def domain(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        return self.images[x]


# The three duality involutions.

def opposite(g: Groupoid) -> Groupoid:
    """The opposite groupoid: ``a . b = b * a`` (table transpose)."""
    n = g.order
    return Groupoid(n, tuple(tuple(g.table[b][a] for b in range(n)) for a in range(n)))


def dual_graph_pair(gp: GraphPair) -> GraphPair:
    """Swap and reverse both relations: (R, G) -> (reversed G, reversed R)."""
    return GraphPair(gp.order,
                     transpose_bits(gp.green, gp.order),
                     transpose_bits(gp.red, gp.order))


def transpose(m: BoolMatrix) -> BoolMatrix:
    return BoolMatrix(m.order, transpose_bits(m.rows, m.order))


TRIVIAL = Groupoid(1, ((0,),))
