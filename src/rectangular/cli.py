"""Command-line workbench over all modules.

A launch imports ``formats``, ``properties`` and ``core`` up front; each
subcommand imports the modules it calls (``census``, ``construct``,
``isotopy``, ``transform``) when it runs, so a ``check`` loads none of them.
The functions are called through their modules, where a caller that wraps
them finds them.

Exit codes: 0 success / property true; 1 property false or no witness found;
2 usage or malformed input; 3 capacity exceeded, a file whose order line is
above 2048 included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats, properties
from .core import CapacityError, Mapping, Partition, PartitionSystem


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _shift(value, delta: int):
    """Shift every integer in a (possibly nested) witness for display."""
    if isinstance(value, int):
        return value + delta
    if isinstance(value, (tuple, list)):
        return tuple(_shift(v, delta) for v in value)
    return value


# check name -> (model, violation name), from the one list in properties
_CHECKS = {name: row[:2] for name, row in properties.CHECKS.items()}
_PARSERS = {"groupoid": "parse_table", "graphpair": "parse_graph_pair",
            "matrices": "parse_matrix_pair", "partial": "parse_partial"}


def _load(kind: str, path: str):
    return getattr(formats, _PARSERS[kind])(_read(path))


def _cmd_check(args) -> int:
    kind, violation_name = _CHECKS[args.property]
    value = _load(kind, args.file)
    violation = getattr(properties, violation_name)
    witness = violation(*value) if kind == "matrices" else violation(value)
    if witness is None:
        print("true")
        return 0
    print("false")
    shown = _shift(witness, 1 if args.one_based else 0)
    if args.property in ("p2", "p4", "matrix-symmetric"):  # ends in a path count
        shown = shown[:-1] + witness[-1:]
    print(f"witness: {shown}")
    return 1


def _cmd_convert(args) -> int:
    from . import transform

    src = _load(args.source, args.file)
    if args.source == "groupoid":
        gp = transform.groupoid_to_graph_pair(src)
    elif args.source == "graphpair":
        gp = src
    else:
        gp = transform.matrices_to_graph_pair(*src)

    if args.target == "groupoid":
        g = src if args.source == "groupoid" else transform.graph_pair_to_groupoid(gp)
        sys.stdout.write(formats.render_table(g, one_based=args.one_based))
    elif args.target == "graphpair":
        sys.stdout.write(formats.render_graph_pair(gp))
    else:
        sys.stdout.write(formats.render_matrix_pair(*transform.graph_pair_to_matrices(gp)))
    return 0


def _ints(text: str, option: str) -> list[int]:
    """The comma or space separated integers given to option."""
    values = []
    for tok in text.replace(",", " ").split():
        try:
            values.append(formats.strict_int(tok))
        except ValueError:
            raise ValueError(f"{option}: {tok!r} is not an integer") from None
    return values


def _parse_partition(text: str, order: int, option: str) -> Partition:
    blocks = [tuple(_ints(part, option)) for part in text.split("|")]
    return Partition(order, tuple(blocks))


def _partition_order(text: str) -> int:
    return sum(len(_ints(part, "--base")) for part in text.split("|"))


def _cmd_construct(args) -> int:
    from . import construct

    kind = args.kind
    one_based = args.one_based
    if kind == "constant":
        g = construct.constant_groupoid(args.n, args.a)
    elif kind == "evans":
        g = construct.evans_central(args.m)
    elif kind == "band":
        g = construct.rectangular_band(args.n, args.m)
    elif kind in ("blowup", "left-ext", "right-ext"):
        base = formats.parse_table(_read(args.file))
        op = {"blowup": construct.simple_blow_up,
              "left-ext": construct.left_extension,
              "right-ext": construct.right_extension}[kind]
        g = op(base, args.a)
    elif kind in ("left-split", "right-split"):
        a = formats.parse_table(_read(args.file_a))
        b = formats.parse_table(_read(args.file_b))
        f = Mapping(tuple(_ints(args.f, "--f")), b.order)
        gm = Mapping(tuple(_ints(args.g, "--g")), a.order)
        op = (construct.left_split_extension if kind == "left-split"
              else construct.right_split_extension)
        g = op(a, b, f, gm)
    elif kind == "partition":
        order = _partition_order(args.base)
        base = _parse_partition(args.base, order, "--base")
        companions = tuple(_parse_partition(part, order, "--companions")
                           for part in args.companions.split(";"))
        gp = construct.partition_construction(PartitionSystem(base, companions))
        sys.stdout.write(formats.render_graph_pair(gp))
        return 0
    else:  # factorization
        gamma = (construct.cyclic_group(args.cyclic) if args.cyclic is not None
                 else construct.abelian_group(*_ints(args.abelian, "--abelian")))
        gp = construct.group_factorization_pair(
            gamma, set(_ints(args.h, "--h")), set(_ints(args.k, "--k")))
        sys.stdout.write(formats.render_graph_pair(gp))
        return 0
    sys.stdout.write(formats.render_table(g, one_based=one_based))
    return 0


def _parse_order_spec(text: str) -> tuple[int, int | None]:
    try:
        sides = [formats.strict_int(side) for side in text.split("x", 1)]
    except ValueError:
        raise ValueError(f"--order must be N or NxM, got {text!r}") from None
    return sides[0], (sides[1] if len(sides) > 1 else None)


def _cmd_enumerate(args) -> int:
    from . import census

    order, second = _parse_order_spec(args.order)
    kind = args.klass
    if args.long_run and kind != "central":
        raise ValueError("--long-run applies to the central census only")
    if kind == "band-blowups":
        if second is None:
            raise ValueError("band-blowups needs --order NxM (band side sizes)")
        if args.up_to not in (None, "labeled"):
            raise ValueError("band-blowups is a labeled count; --up-to must be labeled")
        if args.emit == "tables":
            raise ValueError("band-blowups emits counts only")
        count = census.enumerate_band_blow_ups(order, second)
        result = census.CensusResult((order, second), "labeled", count, None)
    elif second is not None:
        raise ValueError(f"class {kind} takes a single order, got {args.order!r}")
    elif kind == "central":
        if args.up_to not in (None, "iso"):
            raise ValueError("central census is always up to isomorphism")
        result = census.enumerate_central(order, long_run=args.long_run)
    else:
        mode = {"labeled": "labeled", "iso": "isomorphism",
                "isotopy": "isotopy"}[args.up_to or "iso"]
        result = census.enumerate_rectangular(order, mode=mode)

    if args.emit == "count":
        print(result.count)
        if result.note:
            print(result.note, file=sys.stderr)
    elif args.emit == "tables":
        if result.tables is None:
            raise CapacityError(result.note)
        chunks = [formats.render_table(g, one_based=args.one_based)
                  for g in result.tables]
        sys.stdout.write("\n".join(chunks))
    else:
        sys.stdout.write(formats.census_json(result, kind))
    return 0


def _render_permutation(name: str, images, one_based: bool) -> str:
    shift = 1 if one_based else 0
    return f"{name}: " + " ".join(str(v + shift) for v in images)


def _cmd_isotopy(args) -> int:
    from . import isotopy

    g = formats.parse_table(_read(args.file_a))
    h = formats.parse_table(_read(args.file_b))
    witness = isotopy.are_isotopic(g, h)
    if witness is None:
        print("none")
        return 1
    print(_render_permutation("alpha", witness.alpha.images, args.one_based))
    print(_render_permutation("beta", witness.beta.images, args.one_based))
    print(_render_permutation("gamma", witness.gamma.images, args.one_based))
    return 0


def _cmd_transversal(args) -> int:
    from . import isotopy

    g = formats.parse_table(_read(args.file))
    t = isotopy.find_transversal(g)
    if t is None:
        print("none")
        return 1
    shift = 1 if args.one_based else 0
    for r, c in t.cells:
        print(f"{r + shift} {c + shift}")
    return 0


def _int(text: str) -> int:
    return formats.strict_int(text)


_int.__name__ = "int"  # argparse's error reads "invalid int value: ..."


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--one-based", action="store_true",
                        help="display symbols and indices 1-based (files stay 0-based)")

    parser = argparse.ArgumentParser(
        prog="rectangular",
        description="Workbench for rectangular groupoids, unique-path graph "
                    "pairs, and 0/1-matrix pairs whose product is all ones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="evaluate a property of a structure file")
    p_check.add_argument("--property", required=True, choices=sorted(_CHECKS))
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_conv = sub.add_parser("convert", parents=[common],
                            help="convert between the models")
    models = ("groupoid", "graphpair", "matrices")
    p_conv.add_argument("--from", dest="source", required=True, choices=models)
    p_conv.add_argument("--to", dest="target", required=True, choices=models)
    p_conv.add_argument("file")
    p_conv.set_defaults(func=_cmd_convert)

    p_cons = sub.add_parser("construct", help="build a structure from parameters")
    cons_sub = p_cons.add_subparsers(dest="kind", required=True)
    c = cons_sub.add_parser("constant", parents=[common])
    c.add_argument("n", type=_int)
    c.add_argument("a", type=_int)
    c = cons_sub.add_parser("evans", parents=[common])
    c.add_argument("m", type=_int)
    c = cons_sub.add_parser("band", parents=[common])
    c.add_argument("n", type=_int)
    c.add_argument("m", type=_int)
    for name in ("blowup", "left-ext", "right-ext"):
        c = cons_sub.add_parser(name, parents=[common])
        c.add_argument("file")
        c.add_argument("a", type=_int)
    for name in ("left-split", "right-split"):
        c = cons_sub.add_parser(name, parents=[common])
        c.add_argument("file_a")
        c.add_argument("file_b")
        c.add_argument("--f", required=True,
                       help="comma list: image in B of each element of A")
        c.add_argument("--g", required=True,
                       help="comma list: image in A of each element of B")
    c = cons_sub.add_parser("partition", parents=[common])
    c.add_argument("--base", required=True, help='blocks, e.g. "0,1|2,3"')
    c.add_argument("--companions", required=True,
                   help='one partition per base block, ";"-separated')
    c = cons_sub.add_parser("factorization", parents=[common])
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--cyclic", type=_int, help="cyclic group order")
    group.add_argument("--abelian", help="comma list of cyclic factors")
    c.add_argument("--h", required=True, help="comma list of elements")
    c.add_argument("--k", required=True, help="comma list of elements")
    p_cons.set_defaults(func=_cmd_construct)

    p_enum = sub.add_parser("enumerate", parents=[common],
                            help="run a census")
    p_enum.add_argument("--class", dest="klass", required=True,
                        choices=("rectangular", "central", "band-blowups"))
    p_enum.add_argument("--order", required=True,
                        help="N, or NxM for band-blowups (closed-form count, N*M <= 10000)")
    p_enum.add_argument("--up-to", dest="up_to", choices=("labeled", "iso", "isotopy"),
                        help="iso by default; band-blowups takes labeled only.  "
                             "Rectangular: labeled tables are listed to order 3 and "
                             "counted to order 5, iso and isotopy classes go to "
                             "order 4")
    p_enum.add_argument("--long-run", dest="long_run", action="store_true",
                        help="allow the order-16 central census (--class central only)")
    p_enum.add_argument("--emit", default="count",
                        choices=("count", "tables", "json"))
    p_enum.set_defaults(func=_cmd_enumerate)

    p_iso = sub.add_parser("isotopy", parents=[common],
                           help="search for an isotopy witness between two tables")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")
    p_iso.set_defaults(func=_cmd_isotopy)

    p_tr = sub.add_parser("transversal", parents=[common],
                          help="find a row/column/symbol transversal of a table")
    p_tr.add_argument("file")
    p_tr.set_defaults(func=_cmd_transversal)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
