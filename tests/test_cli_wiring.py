"""Every subcommand of build_parser() takes the flags all commands share.

The subcommands are read from the parser itself, so a new one is covered
as soon as it exists, and a command whose parser drops a shared flag
fails here.  Only argument parsing runs: no command is executed.
"""

import argparse

import pytest

from chromarank.cli import build_parser


def _subcommands(parser, path=()):
    """(path, parser) for each leaf subcommand under parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(path, parser)]
    return [
        leaf
        for name, child in subs[0].choices.items()
        for leaf in _subcommands(child, path + (name,))
    ]


PATHS = [path for path, _ in _subcommands(build_parser())]


def _minimal_argv(path):
    """path plus a value for each required argument: 2 for -p, 1 else."""
    parser = dict(_subcommands(build_parser()))[path]
    argv = list(path)
    for action in parser._actions:
        if action.required:
            value = "2" if action.dest == "prime" else "1"
            argv += [action.option_strings[0], value] if action.option_strings else [value]
    return argv


def _refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2, argv
    assert "error:" in capsys.readouterr().err, argv


def test_subcommands_are_the_documented_ones():
    takes_p = [
        path
        for path, parser in _subcommands(build_parser())
        if "-p" in parser._option_string_actions
    ]
    assert PATHS == [
        ("order",),
        ("rank",),
        ("loops",),
        ("centralizer",),
        ("verify",),
        ("certify",),
        ("explore",),
        ("registry", "list"),
        ("registry", "show"),
    ]
    assert takes_p == [
        ("rank",),
        ("loops",),
        ("centralizer",),
        ("verify",),
        ("certify",),
        ("explore",),
    ]


@pytest.mark.parametrize("path", PATHS, ids=[" ".join(path) for path in PATHS])
def test_subcommand_takes_the_shared_flags(path, capsys):
    argv = _minimal_argv(path)
    args = build_parser().parse_args(argv)
    assert (args.json, args.verbose, args.max_order) == (False, False, None)
    assert callable(args.fn)
    args = build_parser().parse_args(argv + ["--json", "-v", "--max-order", "5"])
    assert (args.json, args.verbose, args.max_order) == (True, True, 5)
    _refused(argv + ["--max-order", "0"], capsys)
    if "-p" in argv:
        at = argv.index("-p") + 1
        _refused(argv[:at] + ["4"] + argv[at + 1 :], capsys)
