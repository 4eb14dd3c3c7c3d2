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


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, separators=(",", ":")))
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
    path = getattr(args, "registry", None)
    if path and os.path.exists(path):
        reg = registry_mod.Registry.load(path)
        if reg.entries:
            return reg
    return registry_mod.Registry.with_defaults(p)


def _cmd_order(args) -> int:
    expr = dsl.parse(args.expr)
    group = dsl.evaluate(expr, args.max_order)
    _emit(
        args,
        {"command": "order", "expr": dsl.print_expr(expr), "order": group.order()},
        str(group.order()),
    )
    return EXIT_OK


def _cmd_rank(args) -> int:
    expr = dsl.parse(args.expr)
    group = dsl.evaluate(expr, args.max_order)
    rank = chromatic.hkr_rank(group, args.prime, args.n, args.max_order)
    _emit(
        args,
        {
            "command": "rank",
            "expr": dsl.print_expr(expr),
            "p": args.prime,
            "n": args.n,
            "rank": rank,
        },
        str(rank),
    )
    return EXIT_OK


def _cmd_loops(args) -> int:
    expr = dsl.parse(args.expr)
    group = dsl.evaluate(expr, args.max_order)
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
    for row in rows:
        tup = "(" + ", ".join(row["tuple"]) + ")"
        lines.append(
            f"{tup}  centralizer={row['centralizer_order']}  orbit={row['orbit_size']}"
        )
    _emit(
        args,
        {
            "command": "loops",
            "expr": dsl.print_expr(expr),
            "p": args.prime,
            "h": args.height,
            "components": rows,
        },
        "\n".join(lines),
    )
    return EXIT_OK


def _cmd_centralizer(args) -> int:
    expr = dsl.parse(args.expr)
    group = dsl.evaluate(expr, args.max_order)
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
        {
            "command": "centralizer",
            "expr": dsl.print_expr(expr),
            "p": args.prime,
            "elt_order": args.elt_order,
            "classes": rows,
        },
        "\n".join(lines),
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    expr = dsl.parse(args.expr)
    group = dsl.evaluate(expr, args.max_order)
    report = chromatic.verify_rank_identity(
        group,
        args.prime,
        args.n,
        args.t,
        args.max_order,
        label=dsl.print_expr(expr),
    )
    status = "pass" if report.passed else "FAIL"
    text = (
        f"{status}: lhs={report.lhs} rhs={report.rhs} "
        f"(p={args.prime}, n={args.n}, t={args.t}, components={len(report.per_component)})"
    )
    _emit(args, {"command": "verify", **report.to_record()}, text)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def _cmd_certify(args) -> int:
    expr = dsl.parse(args.expr)
    reg = _registry_for(args, args.prime)
    tree = registry_mod.certify(expr, args.prime, reg, args.depth, args.max_order)
    if tree is None:
        _emit(
            args,
            {
                "command": "certify",
                "expr": dsl.print_expr(expr),
                "p": args.prime,
                "status": "unknown",
                "derivation": None,
            },
            "unknown",
        )
        return EXIT_OK
    registry_mod.register_derivation(reg, tree, args.prime, args.max_order)
    if args.registry:
        reg.save(args.registry)
    _emit(
        args,
        {
            "command": "certify",
            "expr": dsl.print_expr(expr),
            "p": args.prime,
            "status": "good",
            "derivation": tree.to_record(),
        },
        "good\n" + tree.render(),
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
    _emit(
        args,
        {"command": "explore", "p": args.prime, "bound": args.bound, "added": rows},
        "\n".join(lines),
    )
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
        _emit(
            args,
            {"command": "registry-list", "prime": reg.prime, "entries": rows},
            "\n".join(lines) if lines else "(empty)",
        )
        return EXIT_OK
    entry = reg.get(args.name)
    if entry is None:
        print(f"no entry named {args.name!r}", file=sys.stderr)
        return EXIT_USAGE
    rec = entry.to_record()
    lines = [f"{key}: {rec[key]}" for key in registry_mod.ENTRY_FIELDS]
    _emit(args, {"command": "registry-show", "entry": rec}, "\n".join(lines))
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chromarank",
        description="Commuting-tuple ranks, centralizers, and good-group inference "
        "for finite permutation groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="order of the group an expression denotes")
    p_order.add_argument("expr")
    _add_common(p_order)
    p_order.set_defaults(fn=_cmd_order)

    p_rank = sub.add_parser("rank", help="number of commuting p-power n-tuple classes")
    p_rank.add_argument("expr")
    p_rank.add_argument("-p", dest="prime", type=_prime_arg, required=True)
    p_rank.add_argument("-n", dest="n", type=_at_least(0), required=True)
    _add_common(p_rank)
    p_rank.set_defaults(fn=_cmd_rank)

    # -h is the height flag here, so automatic help is disabled and --help
    # is reattached by hand.
    p_loops = sub.add_parser(
        "loops", help="commuting-tuple class decomposition", add_help=False
    )
    p_loops.add_argument("--help", action="help", help="show this help message and exit")
    p_loops.add_argument("expr")
    p_loops.add_argument("-p", dest="prime", type=_prime_arg, required=True)
    p_loops.add_argument("-h", dest="height", type=_at_least(0), required=True)
    _add_common(p_loops)
    p_loops.set_defaults(fn=_cmd_loops)

    p_cent = sub.add_parser(
        "centralizer", help="centralizer orders per class of a given element order"
    )
    p_cent.add_argument("expr")
    p_cent.add_argument("-p", dest="prime", type=_prime_arg, required=True)
    p_cent.add_argument("--elt-order", dest="elt_order", type=_at_least(1), required=True)
    _add_common(p_cent)
    p_cent.set_defaults(fn=_cmd_centralizer)

    p_verify = sub.add_parser("verify", help="check the rank factorization identity")
    p_verify.add_argument("expr")
    p_verify.add_argument("-p", dest="prime", type=_prime_arg, required=True)
    p_verify.add_argument("-n", dest="n", type=_at_least(0), required=True)
    p_verify.add_argument("-t", dest="t", type=_at_least(0), required=True)
    _add_common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_cert = sub.add_parser("certify", help="search for a goodness derivation")
    p_cert.add_argument("expr")
    p_cert.add_argument("-p", dest="prime", type=_prime_arg, required=True)
    p_cert.add_argument("--registry", default=None, help="registry file to read and update")
    p_cert.add_argument("--depth", type=_at_least(0), default=registry_mod.DEFAULT_SEARCH_DEPTH)
    _add_common(p_cert)
    p_cert.set_defaults(fn=_cmd_certify)

    p_exp = sub.add_parser("explore", help="grow the registry by forward construction")
    p_exp.add_argument("-p", dest="prime", type=_prime_arg, required=True)
    p_exp.add_argument("--bound", type=_at_least(1), required=True)
    p_exp.add_argument("--depth", type=_at_least(0), default=3)
    p_exp.add_argument("--registry", default=None, help="registry file to read and update")
    p_exp.add_argument("--paranoid", action="store_true")
    _add_common(p_exp)
    p_exp.set_defaults(fn=_cmd_explore)

    p_reg = sub.add_parser("registry", help="inspect a registry file")
    reg_sub = p_reg.add_subparsers(dest="action", required=True)
    p_list = reg_sub.add_parser("list")
    p_list.add_argument("--registry", required=True)
    _add_common(p_list)
    p_list.set_defaults(fn=_cmd_registry)
    p_show = reg_sub.add_parser("show")
    p_show.add_argument("name")
    p_show.add_argument("--registry", required=True)
    _add_common(p_show)
    p_show.set_defaults(fn=_cmd_registry)

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
