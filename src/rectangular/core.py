"""Shared domain types: validated, immutable values used by every module.

Symbols, rows, columns and graph nodes are always 0-based and live in
``0..n-1``.  Edge relations and 0/1-matrix rows are stored as n-bit integers
(bit ``j`` of row ``i`` set iff ``(i, j)`` is present), so the path-counting
predicates reduce to AND + popcount.  Every type is a ``Value``, a plain
class whose ``__init__`` validates and stores its fields and whose base
gives equality, hashing and repr over them and refuses assignment;
``_unchecked`` builds one without its checks, from fields that a kernel or a
parser has already checked.  The package does not import ``dataclasses``,
which with ``inspect`` and ``ast`` costs a CLI launch about 10 ms.  All
operations in the package are pure functions and safe to call concurrently.

The kernels every layer shares live here too: the two value checks,
``check_order`` and ``check_elements``, the two-step path count
(``two_step_middles``), the symbols of each line (``line_symbol_sets``), the
pair carrier (``pair_groupoid``, pair (a, b) of an n x m carrier being
a*m + b), the model conversions (``groupoid_to_graph_pair``,
``graph_pair_to_groupoid``, ``graph_pair_to_matrices``,
``matrices_to_graph_pair``) and the isotope kernel (``isotope_moves``,
``flat_isotopes``), which states the one isotopy convention
h(a, b) = gamma^-1(g(alpha(a), beta(b))).  The identity evaluator, which
``FiniteGroup`` calls, is in ``identities``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product
from typing import Iterable, Iterator


class CapacityError(RuntimeError):
    """A requested computation exceeds its configured size bound."""


CONSTRUCT_BOUND = 2048  # the largest order a constructor builds or a file holds


def check_order(value, name: str = "order", bound: int | None = None,
                limit: str = "constructions are") -> None:
    """The one order check: value must be a positive int, and not above
    bound where one is given.  A capacity message reads ``<limit> bounded
    at order <bound>, got <value>``."""
    _check_ints([value], name)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    if bound is not None and value > bound:
        raise CapacityError(f"{limit} bounded at order {bound}, got {value}")


def check_elements(values, n: int, what: str) -> None:
    """The one element check: every value must be an int in 0..n-1.  Run
    it before sorting the values, so a string among ints is a ValueError."""
    _check_ints(values, what)
    for v in values:
        if not 0 <= v < n:
            raise ValueError(f"{what}: {v} is outside 0..{n - 1}")


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
    """Transpose an adjacency given as bitset rows, through their binary
    strings: column k of the strings of the rows, last row first, is the
    binary string of column order-1-k."""
    cols = zip(*[format(row, f"0{order}b") for row in reversed(rows)])
    return tuple([int("".join(col), 2) for col in cols])[::-1]


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
    return _unchecked(Groupoid, gp.order, table)  # every middle is a node


def graph_pair_to_matrices(gp: GraphPair) -> tuple[BoolMatrix, BoolMatrix]:
    return BoolMatrix(gp.order, gp.red), BoolMatrix(gp.order, gp.green)


def matrices_to_graph_pair(a: BoolMatrix, b: BoolMatrix) -> GraphPair:
    if a.order != b.order:
        raise ValueError(f"matrix orders differ: {a.order} vs {b.order}")
    return GraphPair(a.order, a.rows, b.rows)


def isotope_moves(n: int, triples) -> Iterator[tuple]:
    """Each (alpha, beta, gamma) of image sequences in triples, lazily, as
    the move (alpha, beta, gamma^-1) that reads an isotope off a flat
    order-n table; the moves with one gamma share one gamma^-1 list."""
    inverse: dict = {}
    return ((alpha, beta, inverse.get(gamma)
             or inverse.setdefault(gamma, sorted(range(n), key=gamma.__getitem__)))
            for alpha, beta, gamma in triples)


def flat_isotopes(n: int, triples):
    """The isotope kernel: a function yielding the isotopes of a flat
    (row-major) order-n table g under each (alpha, beta, gamma) of image
    sequences in triples, as flat tuples h read straight from g, a move
    being its permutations, in the one convention

        h(a, b) = gamma^-1( g(alpha(a), beta(b)) )
    """
    moves = list(isotope_moves(n, triples))

    def images(flat):
        for alpha, beta, gamma_inv in moves:
            yield tuple([gamma_inv[flat[x * n + y]] for x in alpha for y in beta])
    return images


def _check_ints(values, what: str) -> None:
    """Reject every value that is not an int: a float equal to one passes a
    range check and fails later as an index, a shift or a mask bit."""
    for v in values:
        if not isinstance(v, int):
            raise ValueError(f"{what}: {v!r} is not an integer")


def _check_square(order: int, rows, what: str, empty: bool = False) -> tuple[tuple, ...]:
    """rows as a tuple grid, checked to be order x order with every entry an
    int in 0..order-1, or None (an empty cell) where empty is true."""
    check_order(order, f"{what} order")
    grid = tuple(tuple(r) for r in rows)
    if len(grid) != order or any(len(r) != order for r in grid):
        raise ValueError(f"{what} must be exactly {order}x{order}")
    for a, row in enumerate(grid):
        for b, e in enumerate(row):
            if not (isinstance(e, int) and 0 <= e < order or empty and e is None):
                raise ValueError(f"entry {e} out of range at ({a},{b}); "
                                 f"symbols must lie in 0..{order - 1}")
    return grid


def _check_bit_rows(order: int, rows, what: str) -> tuple[int, ...]:
    """rows as a tuple of order bitset rows, each a subset of 0..order-1."""
    check_order(order)
    rows = tuple(rows)
    _check_ints(rows, what)
    if len(rows) != order:
        raise ValueError(f"{what} needs {order} rows")
    if any(not 0 <= r < 1 << order for r in rows):
        raise ValueError(f"{what} has bits outside 0..{order - 1}")
    return rows


set_field = object.__setattr__  # a constructor stores each field past Value.__setattr__


class Value:
    """The base of the value types.

    A subclass's fields are the parameters of its ``__init__``, which
    validates its arguments and stores each field with ``set_field``.  Values
    compare and hash as the tuple of their fields, print as
    ``Name(field=value, ...)``, and refuse assignment and deletion.
    Instances keep a ``__dict__``, so a ``cached_property`` works.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Groupoid(Value):
    """A binary operation on ``0..n-1`` given by its Cayley table.

    ``table[a][b]`` is the product ``a * b``.
    """

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...]):
        table = _check_square(order, table, "groupoid table")
        set_field(self, "order", order)
        set_field(self, "table", table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def flat(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.table))


def pair_groupoid(n: int, m: int, op) -> Groupoid:
    """The groupoid on the pairs (a, b) with a < n and b < m, where
    op(a, b, c, d) is the pair (a,b)*(c,d).  Pair (a, b) is symbol a*m + b:
    row-major, the left factor major."""
    for side in (n, m):
        check_order(side, "side")
    check_order(n * m, bound=CONSTRUCT_BOUND)
    pairs = list(product(range(n), range(m)))
    rows = ([op(a, b, c, d) for c, d in pairs] for a, b in pairs)
    return Groupoid(n * m, tuple(tuple([x * m + y for x, y in row]) for row in rows))


def make_groupoid(order: int, entries: Iterable[int]) -> Groupoid:
    """Build a Groupoid from a row-major flat entry sequence."""
    flat = tuple(entries)
    check_order(order)
    if len(flat) != order * order:
        raise ValueError(
            f"expected {order * order} entries for order {order}, got {len(flat)}"
        )
    rows = tuple(flat[i * order:(i + 1) * order] for i in range(order))
    return Groupoid(order, rows)


def _unchecked(cls, *fields):
    """The value of type cls with the given fields, in the order of its
    ``__init__``'s parameters, built without its checks: only for fields a
    kernel or a parser has already checked, such as the tables a census
    search or a file parse built."""
    value = object.__new__(cls)
    for name, field in zip(cls._fields, fields):
        set_field(value, name, field)
    return value


class GraphPair(Value):
    """Two edge relations (red, green) on the node set ``0..n-1``.

    Rows are n-bit masks; loops are allowed, multi-edges are not
    representable.
    """

    def __init__(self, order: int, red: tuple[int, ...], green: tuple[int, ...]):
        red = _check_bit_rows(order, red, "red relation")
        green = _check_bit_rows(order, green, "green relation")
        set_field(self, "order", order)
        set_field(self, "red", red)
        set_field(self, "green", green)

    @classmethod
    def from_edges(cls, order: int,
                   red: Iterable[tuple[int, int]],
                   green: Iterable[tuple[int, int]]) -> "GraphPair":
        check_order(order)
        red_rows = [0] * order
        green_rows = [0] * order
        for rows, edges in ((red_rows, red), (green_rows, green)):
            for a, b in edges:
                check_elements((a, b), order, f"edge ({a},{b})")
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


class BoolMatrix(Value):
    """An n x n 0/1 matrix stored as bitset rows."""

    def __init__(self, order: int, rows: tuple[int, ...]):
        rows = _check_bit_rows(order, rows, "matrix")
        set_field(self, "order", order)
        set_field(self, "rows", rows)

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
        check_order(order)
        return cls(order, tuple([(1 << order) - 1] * order))

    def bit(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def to_grid(self) -> list[list[int]]:
        return [[self.bit(i, j) for j in range(self.order)] for i in range(self.order)]


class PartialArray(Value):
    """An n x n array whose cells hold a symbol in ``0..n-1`` or are empty."""

    def __init__(self, order: int, cells: tuple[tuple[int | None, ...], ...]):
        cells = _check_square(order, cells, "cells", empty=True)
        set_field(self, "order", order)
        set_field(self, "cells", cells)

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


class Permutation(Value):
    """A bijection of ``0..n-1`` given by its image sequence."""

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        _check_ints(images, "permutation")
        if sorted(images) != list(range(len(images))) or not images:
            raise ValueError(f"images {images} are not a bijection of 0..{len(images) - 1}")
        set_field(self, "images", images)

    @property
    def order(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, order: int) -> "Permutation":
        check_order(order)
        return cls(tuple(range(order)))

    def apply(self, x: int) -> int:
        return self.images[x]

    def inverse(self) -> "Permutation":
        return Permutation(tuple(sorted(range(self.order), key=self.images.__getitem__)))


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """outer after inner: ``x -> outer(inner(x))``."""
    if outer.order != inner.order:
        raise ValueError("permutation orders differ")
    return Permutation(tuple(outer.images[v] for v in inner.images))


class IsotopyTriple(Value):
    """Three equal-order permutations (alpha, beta, gamma) witnessing isotopy."""

    def __init__(self, alpha: Permutation, beta: Permutation, gamma: Permutation):
        if not (alpha.order == beta.order == gamma.order):
            raise ValueError("the three permutations must have the same order")
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "gamma", gamma)

    @property
    def order(self) -> int:
        return self.alpha.order

    @classmethod
    def identity(cls, order: int) -> "IsotopyTriple":
        e = Permutation.identity(order)
        return cls(e, e, e)

    def inverse(self) -> "IsotopyTriple":
        return IsotopyTriple(self.alpha.inverse(), self.beta.inverse(), self.gamma.inverse())


class Partition(Value):
    """A partition of ``0..n-1``; blocks are sorted tuples ordered by least element."""

    def __init__(self, order: int, blocks: tuple[tuple[int, ...], ...]):
        check_order(order)
        for block in blocks:
            check_elements(block, order, f"block {block}")
            if len(set(block)) < len(block):
                raise ValueError(f"block {block} repeats an element")
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen = 0
        for block in blocks:
            if not block:
                raise ValueError("empty block in partition")
            bmask = mask_of(block)
            if bmask & seen:
                raise ValueError(f"block {block} overlaps another block")
            seen |= bmask
        if seen != (1 << order) - 1:
            raise ValueError("blocks do not cover 0..n-1")
        set_field(self, "order", order)
        set_field(self, "blocks", blocks)

    @classmethod
    def singletons(cls, order: int) -> "Partition":
        check_order(order)
        return cls(order, tuple((i,) for i in range(order)))

    @classmethod
    def single_block(cls, order: int) -> "Partition":
        check_order(order)
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


class PartitionSystem(Value):
    """A base partition plus, per base block, a companion partition it crosses.

    Each base block must be a transversal of its companion: it meets every
    companion block in exactly one element.
    """

    def __init__(self, base: Partition, companions: tuple[Partition, ...]):
        companions = tuple(companions)
        if len(companions) != len(base.blocks):
            raise ValueError(
                f"need one companion partition per base block "
                f"({len(base.blocks)}), got {len(companions)}"
            )
        for block, theta in zip(base.blocks, companions):
            if theta.order != base.order:
                raise ValueError("companion partition order differs from base order")
            bmask = mask_of(block)
            for tb in theta.blocks:
                hits = (bmask & mask_of(tb)).bit_count()
                if hits != 1:
                    raise ValueError(
                        f"base block {block} meets companion block {tb} "
                        f"{hits} times; a transversal must meet it exactly once"
                    )
        set_field(self, "base", base)
        set_field(self, "companions", companions)

    @property
    def order(self) -> int:
        return self.base.order


class FiniteGroup(Value):
    """A finite group on ``0..n-1`` given by its Cayley table."""

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...]):
        grid = _check_square(order, table, "group table")
        set_field(self, "order", order)
        set_field(self, "table", grid)
        identity = next(
            (e for e in range(order)
             if all(grid[e][x] == x == grid[x][e] for x in range(order))),
            None,
        )
        if identity is None:
            raise ValueError("table has no identity element")
        from .identities import identity_counterexample
        bad = identity_counterexample(self, "(x*y)*z=x*(y*z)")
        if bad is not None:
            raise ValueError(f"table is not associative at ({bad[0]},{bad[1]},{bad[2]})")
        # an associative monoid by now, where a right inverse is two-sided: a*b = e
        # makes x -> a*x onto, so one-to-one, and a*(b*a) = a*e gives b*a = e
        no_inverse = next((a for a in range(order) if identity not in grid[a]), None)
        if no_inverse is not None:
            raise ValueError(f"element {no_inverse} has no inverse")
        set_field(self, "_identity", identity)

    @property
    def identity(self) -> int:
        return self._identity  # type: ignore[attr-defined]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


class Transversal(Value):
    """n cells of an order-n table, one in each row and one in each column."""

    def __init__(self, order: int, cells: tuple[tuple[int, int], ...]):
        cells = tuple(tuple(c) for c in cells)
        check_order(order)
        _check_ints([v for cell in cells for v in cell], "transversal")
        rows = sorted(r for r, _ in cells)
        cols = sorted(c for _, c in cells)
        if len(cells) != order or rows != list(range(order)) \
                or cols != list(range(order)):
            raise ValueError("cells must hit every row and every column exactly once")
        set_field(self, "order", order)
        set_field(self, "cells", cells)


class Mapping(Value):
    """A total map from ``0..d-1`` into a stated codomain; not necessarily injective."""

    def __init__(self, images: tuple[int, ...], codomain: int):
        images = tuple(images)
        check_order(codomain, "codomain")
        check_elements(images, codomain, "mapping")
        set_field(self, "images", images)
        set_field(self, "codomain", codomain)

    @property
    def domain(self) -> int:
        return len(self.images)

    def apply(self, x: int) -> int:
        return self.images[x]


# The three duality involutions.

def opposite(g: Groupoid) -> Groupoid:
    """The opposite groupoid: ``a . b = b * a`` (table transpose)."""
    return Groupoid(g.order, tuple(zip(*g.table)))


def dual_graph_pair(gp: GraphPair) -> GraphPair:
    """Swap and reverse both relations: (R, G) -> (reversed G, reversed R)."""
    return GraphPair(gp.order,
                     transpose_bits(gp.green, gp.order),
                     transpose_bits(gp.red, gp.order))


def transpose(m: BoolMatrix) -> BoolMatrix:
    return BoolMatrix(m.order, transpose_bits(m.rows, m.order))


TRIVIAL = Groupoid(1, ((0,),))
