"""``repro.cli.main`` builds only the subcommand its argv names.

Every subcommand stays registered with its ``help=`` line, so the
top-level help and the unknown-command error list them all; only the
named one gets its arguments.  Help text, parsed namespaces and error
messages must equal the fully built parser's, byte for byte.
"""

import pytest

from repro import cli

COMMANDS = [name for name, _keywords, _add in cli._COMMANDS]

#: Command lines the test suite and the benchmarks run.
ARGVS = [
    ["nodes"],
    ["node", "90nm"],
    ["aging", "65nm"],
    ["capabilities"],
    ["op", "net.cir", "--tech", "90nm"],
    ["tran", "net.cir", "--tstop", "5e-6", "--dt", "1e-8",
     "--nodes", "a,b"],
    ["mc", "--samples", "16", "--quiet"],
    ["mc", "--workload", "ring", "--tech", "90nm", "--samples", "64",
     "--seed", "3", "--quiet"],
    ["mc", "--workload", "offset", "--tech", "90nm", "--samples", "64",
     "--seed", "2", "--batch-size", "128", "--checkpoint", "ck", "--quiet"],
    ["mc", "--samples", "8", "--jobs", "2", "--backend", "process",
     "--trace", "t.jsonl", "--profile", "--metrics-port", "0"],
    ["highsigma", "--samples", "256", "--snm-min-mv", "66.7", "--seed", "2",
     "--quiet"],
    ["highsigma", "--samples", "96", "--train-samples", "32",
     "--surrogate", "rbf", "--resume"],
    ["verify", "--quick", "--goldens", "g", "--skip-differential"],
    ["trace", "t.jsonl"],
    ["trace", "--diff", "aaaa", "bbbb", "--runs-dir", "r"],
    ["trace"],
    ["runs"],
    ["runs", "--runs-dir", "r", "list", "--ids"],
    ["runs", "show", "abc"],
    ["runs", "gc", "--keep", "2"],
    ["serve", "--port", "0", "--workers", "3", "--chaos"],
]


def _parse(parser, argv, capsys):
    """``(namespace or exit code, stdout, stderr)`` of one parse."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    out, err = capsys.readouterr()
    return outcome, out, err


def _lazy(argv):
    return cli.build_parser(cli._named_command(argv))


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_namespace_equals_the_full_parser(argv, capsys):
    lazy = _parse(_lazy(argv), argv, capsys)
    assert isinstance(lazy[0], dict)
    assert lazy == _parse(cli.build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", [[name, "--help"] for name in COMMANDS]
                         + [["runs", sub, "--help"]
                            for sub in ("list", "show", "gc")]
                         + [["--help"], ["-h", "mc"], []],
                         ids=" ".join)
def test_help_equals_the_full_parser(argv, capsys):
    lazy = _parse(_lazy(argv), argv, capsys)
    assert lazy == _parse(cli.build_parser(), argv, capsys)
    assert lazy[1] or lazy[2]


@pytest.mark.parametrize("argv", [["nope"], ["mc", "--nope"],
                                  ["mc", "--samples", "x"],
                                  ["runs", "nope"], ["node"],
                                  ["-x", "nodes"], ["--", "nodes"]],
                         ids=" ".join)
def test_errors_equal_the_full_parser(argv, capsys):
    lazy = _parse(_lazy(argv), argv, capsys)
    assert lazy[0] == 2 and "error:" in lazy[2]
    assert lazy == _parse(cli.build_parser(), argv, capsys)


def test_main_refuses_an_unknown_command(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["nope"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nope'" in err
    for name in COMMANDS:
        assert repr(name) in err


def test_only_the_named_command_gets_arguments():
    def n_actions(parser):
        sub = parser._subparsers._group_actions[0]
        return {name: len(p._actions) for name, p in sub.choices.items()}

    full = n_actions(cli.build_parser())
    lazy = n_actions(cli.build_parser("mc"))
    assert lazy["mc"] == full["mc"] > 20
    # The others keep only their -h.
    assert all(lazy[name] == 1 for name in COMMANDS if name != "mc")
