"""Command-line front end.

Subcommands: order, rank, loops, centralizer, verify, certify, explore,
registry.  Payloads go to stdout, diagnostics to stderr.  Exit statuses:
0 success, 1 verification mismatch, 2 usage errors (bad arguments,
expressions, files or registries), 3 scale limits (enumeration threshold
or height bound).  Argument ranges are checked by the parser, so any
other exception is a bug and propagates with its traceback.

`--json` swaps the human-readable payload for one JSON object carrying a
schema-version field, so scripts can pin the layout.  `-v` sends the
chromarank logger's INFO records, such as explore's per-round counts and
skip notices, to stderr; without it nothing is logged.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import chromatic, dsl, registry as registry_mod
from .arith import is_prime, p_part
from .errors import ChromarankError, HeightExceeded, ThresholdExceeded

SCHEMA = "chromarank.v1"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SCALE = 3


def _emit(args, text: str, **payload) -> None:
    if args.json:
        print(json.dumps({"schema": SCHEMA, **payload}, separators=(",", ":")))
    else:
        print(text)


def _prime_arg(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse


def _registry_for(args, p: int) -> registry_mod.Registry:
    """The registry in --registry FILE; a seeded one if FILE is absent or has no entries."""
    if args.registry and os.path.exists(args.registry):
        reg = registry_mod.Registry.load(args.registry)
        if reg.entries:
            return reg
    return registry_mod.Registry.with_defaults(p)


def _expr_group(args):
    """The command's expression, printed canonically, and the group it denotes."""
    expr = dsl.parse(args.expr)
    return dsl.print_expr(expr), dsl.evaluate(expr, args.max_order)


def _cmd_order(args) -> int:
    expr, group = _expr_group(args)
    _emit(args, str(group.order()), command="order", expr=expr, order=group.order())
    return EXIT_OK


def _cmd_rank(args) -> int:
    expr, group = _expr_group(args)
    rank = chromatic.hkr_rank(group, args.prime, args.n, args.max_order)
    _emit(args, str(rank), command="rank", expr=expr, p=args.prime, n=args.n, rank=rank)
    return EXIT_OK


def _cmd_loops(args) -> int:
    expr, group = _expr_group(args)
    dec = chromatic.commuting_tuple_classes(group, args.prime, args.height, args.max_order)
    rows = tuple(
        {
            "tuple": comp.rep.cycle_strings(),
            "centralizer_order": comp.centralizer.order(),
            "orbit_size": comp.orbit_size,
        }
        for comp in dec.components
    )
    lines = [f"components: {len(dec)}"]
    lines += [
        f"({', '.join(r['tuple'])})  centralizer={r['centralizer_order']}  orbit={r['orbit_size']}"
        for r in rows
    ]
    text = "\n".join(lines)
    _emit(args, text, command="loops", expr=expr, p=args.prime, h=args.height, components=rows)
    return EXIT_OK


def _cmd_centralizer(args) -> int:
    expr, group = _expr_group(args)
    rows = []
    for rep, size, _ in group._classes(args.max_order, args.elt_order):
        cent_order = group.order() // size  # |C(rep)| = |G| / |class|
        rows.append(
            {
                "rep": rep.cycle_string(),
                "class_size": size,
                "centralizer_order": cent_order,
                "sylow_order": p_part(cent_order, args.prime),  # by Sylow's theorem
            }
        )
    rows.sort(key=lambda r: (r["centralizer_order"], r["rep"]))
    lines = [
        f"{r['rep']}  centralizer={r['centralizer_order']}  "
        f"sylow_{args.prime}={r['sylow_order']}  class_size={r['class_size']}"
        for r in rows
    ]
    if not lines:
        lines = [f"no conjugacy classes of element order {args.elt_order}"]
    _emit(
        args,
        "\n".join(lines),
        command="centralizer",
        expr=expr,
        p=args.prime,
        elt_order=args.elt_order,
        classes=rows,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    expr, group = _expr_group(args)
    report = chromatic.verify_rank_identity(
        group, args.prime, args.n, args.t, args.max_order, label=expr
    )
    status = "pass" if report.passed else "FAIL"
    text = (
        f"{status}: lhs={report.lhs} rhs={report.rhs} "
        f"(p={args.prime}, n={args.n}, t={args.t}, components={len(report.per_component)})"
    )
    _emit(args, text, command="verify", **report.to_record())
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _cmd_certify(args) -> int:
    expr = dsl.parse(args.expr)
    reg = _registry_for(args, args.prime)
    tree = registry_mod.certify(expr, args.prime, reg, args.depth, args.max_order)
    status, derivation, text = "unknown", None, "unknown"
    if tree is not None:
        registry_mod.register_derivation(reg, tree, args.prime, args.max_order)
        if args.registry:
            reg.save(args.registry)
        status, derivation, text = "good", tree.to_record(), "good\n" + tree.render()
    _emit(
        args,
        text,
        command="certify",
        expr=dsl.print_expr(expr),
        p=args.prime,
        status=status,
        derivation=derivation,
    )
    return EXIT_OK


def _cmd_explore(args) -> int:
    reg = _registry_for(args, args.prime)
    added = registry_mod.explore(
        reg, args.prime, args.bound, args.depth, args.max_order, args.paranoid
    )
    if args.registry:
        reg.save(args.registry)
    rows = [
        {"name": e.name, "order": e.order, "rule": e.rule, "parents": list(e.parents)}
        for e in added
    ]
    lines = [f"added: {len(added)}"]
    lines += [f"{r['name']}  order={r['order']}  rule={r['rule']}" for r in rows]
    _emit(args, "\n".join(lines), command="explore", p=args.prime, bound=args.bound, added=rows)
    return EXIT_OK


def _cmd_registry(args) -> int:
    if not args.registry or not os.path.exists(args.registry):
        print(f"registry file not found: {args.registry}", file=sys.stderr)
        return EXIT_USAGE
    reg = registry_mod.Registry.load(args.registry)
    if args.action == "list":
        rows = [
            {"name": e.name, "status": e.status, "order": e.order, "rule": e.rule}
            for e in reg.entries
        ]
        lines = [
            f"{r['name']}  status={r['status']}  order={r['order']}  rule={r['rule']}"
            for r in rows
        ]
        text = "\n".join(lines) if lines else "(empty)"
        _emit(args, text, command="registry-list", prime=reg.prime, entries=rows)
        return EXIT_OK
    entry = reg.get(args.name)
    if entry is None:
        print(f"no entry named {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    rec = entry.to_record()
    lines = [f"{key}: {rec[key]}" for key in registry_mod.ENTRY_FIELDS]
    _emit(args, "\n".join(lines), command="registry-show", entry=rec)
    return EXIT_OK


def _subcommand(sub, name: str, fn, *flags, expr=True, prime=True, **options) -> None:
    """Add the subcommand name, run by fn: its expression and -p when it
    takes them, then its own flags, each (names..., add_argument keywords),
    then the flags every command shares.  options go to add_parser, so a
    command given no help= is left out of its parent's listing."""
    parser = sub.add_parser(name, **options)
    if not parser.add_help:
        # -h is one of the command's flags, so --help is attached by hand.
        parser.add_argument("--help", action="help", help="show this help message and exit")
    if expr:
        parser.add_argument("expr")
    if prime:
        parser.add_argument("-p", dest="prime", type=_prime_arg, required=True)
    for *names, keywords in flags:
        parser.add_argument(*names, **keywords)
    parser.add_argument("--json", action="store_true", help="machine-readable payload")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress at INFO to stderr"
    )
    parser.add_argument(
        "--max-order",
        type=_at_least(1),
        default=None,
        help="enumeration cap (default: CHROMARANK_MAX_ORDER or 2**21)",
    )
    parser.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chromarank",
        description="Commuting-tuple ranks, centralizers, and good-group inference "
        "for finite permutation groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    count = {"type": _at_least(0), "required": True}
    registry_file = ("--registry", {"default": None, "help": "registry file to read and update"})
    _subcommand(
        sub, "order", _cmd_order, prime=False, help="order of the group an expression denotes"
    )
    _subcommand(
        sub, "rank", _cmd_rank, ("-n", count), help="number of commuting p-power n-tuple classes"
    )
    _subcommand(
        sub,
        "loops",
        _cmd_loops,
        ("-h", {"dest": "height", **count}),
        help="commuting-tuple class decomposition",
        add_help=False,
    )
    _subcommand(
        sub,
        "centralizer",
        _cmd_centralizer,
        ("--elt-order", {"type": _at_least(1), "required": True}),
        help="centralizer orders per class of a given element order",
    )
    _subcommand(
        sub,
        "verify",
        _cmd_verify,
        ("-n", count),
        ("-t", count),
        help="check the rank factorization identity",
    )
    _subcommand(
        sub,
        "certify",
        _cmd_certify,
        registry_file,
        ("--depth", {"type": _at_least(0), "default": registry_mod.DEFAULT_SEARCH_DEPTH}),
        help="search for a goodness derivation",
    )
    _subcommand(
        sub,
        "explore",
        _cmd_explore,
        ("--bound", {"type": _at_least(1), "required": True}),
        ("--depth", {"type": _at_least(0), "default": 3}),
        registry_file,
        ("--paranoid", {"action": "store_true"}),
        expr=False,
        help="grow the registry by forward construction",
    )
    p_reg = sub.add_parser("registry", help="inspect a registry file")
    reg_sub = p_reg.add_subparsers(dest="action", required=True)
    registry_in = ("--registry", {"required": True})
    _subcommand(reg_sub, "list", _cmd_registry, registry_in, expr=False, prime=False)
    _subcommand(reg_sub, "show", _cmd_registry, ("name", {}), registry_in, expr=False, prime=False)
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.t > args.n:
            parser.error("verify needs 0 <= t <= n")
    except SystemExit as exc:
        return int(exc.code or 0)
    logger = logging.getLogger("chromarank")
    level = logger.level
    handler = logging.StreamHandler(sys.stderr)
    if args.verbose:
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        return args.fn(args)
    except (ThresholdExceeded, HeightExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except (ChromarankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
