"""The command line is read as argparse read it.

`dcbound.cli` reads its arguments against one option table. The reference
is the argparse parser it used before (`conftest.ref_build_parser`): on a
seeded corpus of command lines built from that table, an argv the reference
accepts must give the same namespace, `-h`/`--version` must exit 0 on both,
and an argv the reference rejects must make `main` exit 1 with the usage and
one `dcbound: error:` line. The wording of each kind of error is pinned
separately, in `test_error_wording`.

Left out of the corpus, because argparse itself reads them differently
across Python 3.10-3.13:
- an explicit value of `--` (`--dot=--`, `-o--`): 3.10-3.12 store `[]`;
- a one-letter flag with more letters after it (`-vh`, `-vx`, `-verbose`)
  and a one-dash word with a space in it (`-v x`);
- `--` before the command;
- `--=x`, an empty long option with a value.
Which of two errors is reported first also differs (3.13 finds an ambiguous
prefix only when it reaches it), so the corpus compares outcomes, not
messages.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dcbound import cli

from conftest import RefUsageError, ref_build_parser

_REFERENCE = ref_build_parser()

# (good values, bad values) of the options that take one
_VALUES = {
    cli._count: (["0", "7"], ["-1", "x", "1.5", ""]),
    None: (["n=1", "0..2", "OUT", "-", "-1", ""], []),
}


def _table_words(options):
    """Each option's flags and prefixes: (words that name it uniquely,
    prefixes shared with another option)."""
    flags = [f for o in options for f in o.flags]
    unique, shared = {}, set()
    for o in options:
        unique[o] = list(o.flags)
        for f in o.flags:
            for k in range(3, len(f)):
                matches = {g for g in flags if g.startswith(f[:k])}
                if len(matches) == 1 and f[:k] not in flags:
                    unique[o].append(f[:k])
                elif len(matches) > 1:
                    shared.add(f[:k])
    return unique, sorted(shared)


def _chunks(command):
    """Argument chunks for one command, each a list of argv words, sorted
    into those the command takes ("good"), those it rejects ("bad") and
    those that ask for the help ("exit")."""
    options = cli._COMMANDS[command][1]
    unique, shared = _table_words(options)
    chunks = {"good": [], "bad": [], "exit": []}
    for o in options:
        if o.kind in ("flag", "help"):
            chunks["good" if o.kind == "flag" else "exit"] += [[w] for w in unique[o]]
            chunks["bad"].append([f"{o.flags[-1]}=1"])  # a flag takes no value
            continue
        good, bad = (o.choices, ["fast", "-1"]) if o.choices else _VALUES[o.convert]
        for w in unique[o]:
            for kind, values in (("good", good), ("bad", bad)):
                for v in values:
                    chunks[kind].append([w, v])
                    if w.startswith("--"):
                        chunks[kind].append([f"{w}={v}"])
                    elif v not in ("", "-"):
                        chunks[kind].append([f"{w}{v}"])  # -oOUT
            chunks["bad"].append([w])  # no value
    chunks["bad"] += [[w] for w in shared]
    chunks["bad"] += [["--nope"], ["-x"], ["--nope=1"], ["extra"]]
    if command == "analyze":
        chunks["good"].append(["-vv"])
    return chunks


def _corpus(seed: int, n: int):
    rng = random.Random(seed)
    commands = list(cli._COMMANDS)
    per_command = {c: _chunks(c) for c in commands}
    for _ in range(n):
        command = rng.choice(commands)
        chunks = [rng.choice(per_command[command][kind]) for kind in rng.choices(
            ["good", "bad", "exit"], [15, 4, 1], k=rng.randint(0, 4))]
        if rng.random() < 0.9:  # the file, anywhere, maybe after `--`
            file = ["--", "in.dcp"] if rng.random() < 0.1 else ["in.dcp"]
            chunks.insert(rng.randint(0, len(chunks)), file)
        if rng.random() < 0.05:
            chunks.append(["--"])
        argv = [w for chunk in chunks for w in chunk]
        r = rng.random()
        if r < 0.03:
            yield argv  # no command
        elif r < 0.06:
            yield ["--version" if r < 0.045 else "--nope", command, *argv]
        else:
            yield [command, *argv]


def _reference(argv):
    """("ok", namespace), ("exit", code) or ("error", message)."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return "ok", vars(_REFERENCE.parse_args(argv))
    except SystemExit as exc:
        return "exit", exc.code
    except RefUsageError as exc:
        return "error", str(exc)


def _outcome(argv):
    """The same for `dcbound.cli`, and the stdout and stderr of `main`."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return ("ok", vars(cli._parse(argv))), out.getvalue(), err.getvalue()
    except SystemExit as exc:
        return ("exit", exc.code), out.getvalue(), err.getvalue()
    except cli._UsageError:
        out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return ("error", code), out.getvalue(), err.getvalue()


def _check(argv):
    expected = _reference(argv)
    got, out, err = _outcome(argv)
    if expected[0] == "error":
        assert got == ("error", 1), argv
        assert out == "", argv
        *usage, last = err.splitlines()
        assert usage[0].startswith("usage: dcbound") and last.startswith("dcbound: error: ")
        assert all(line.startswith(" ") for line in usage[1:]), argv
    else:
        assert got == expected, argv
        if expected[0] == "exit":
            assert err == "" and out.startswith(("usage: dcbound", "dcbound ")), argv


@pytest.mark.parametrize("seed", range(4))
def test_command_lines_read_as_argparse_read_them(seed):
    for argv in _corpus(seed, 600):
        _check(argv)


def test_corpus_covers_each_outcome():
    outcomes = [_reference(argv) for seed in range(4) for argv in _corpus(seed, 600)]
    kinds = [kind for kind, _ in outcomes]
    assert min(kinds.count(k) for k in ("ok", "exit", "error")) >= 100
    errors = "\n".join(message for kind, message in outcomes if kind == "error")
    for message in ("required: command", "required: file", "unrecognized arguments",
                    "ambiguous option", "expected one argument", "invalid choice",
                    "invalid int value", "must be 0 or more", "not allowed with",
                    "ignored explicit argument"):
        assert message in errors


@pytest.mark.parametrize("argv", [
    ["analyze", "in.dcp", "--mo", "free", "--vb", "-v"],
    ["validate", "--mode=opt", "--assign", "n=1", "--assign=n=2", "in.dcp",
     "--override-bound", "t1=n", "--override-bound=t2=1", "--max-s", "9"],
    ["validate", "in.dcp", "--sw=0..2", "--max-steps", "0"],
    ["abstract", "-oOUT", "in.prog", "--keep", "--abs", "3"],
    ["abstract", "-o", "-", "--", "-in.prog"],
    ["resets", "--var", "x", "--va=y", "--dot", "g.dot", "--", "in.dcp"],
    ["resets", "-1", "--max-r", "2"],
], ids=["prefixes", "repeated", "equals", "short", "dash-file", "after-dashes",
        "negative-file"])
def test_accepted_forms(argv):
    expected = _reference(argv)
    assert expected[0] == "ok"
    assert _outcome(argv)[0] == expected


@pytest.mark.parametrize("argv, prog, message", [
    ([], "dcbound", "the following arguments are required: command"),
    (["check"], "dcbound", "argument command: invalid choice: 'check' (choose "
                           "from 'analyze', 'abstract', 'validate', 'resets')"),
    (["analyze"], "dcbound analyze", "the following arguments are required: file"),
    (["analyze", "a", "b", "--nope=1"], "dcbound",
     "unrecognized arguments: b --nope=1"),
    (["analyze", "a", "--mode"], "dcbound analyze",
     "argument --mode: expected one argument"),
    (["analyze", "a", "--mode", "fast"], "dcbound analyze",
     "argument --mode: invalid choice: 'fast' (choose from 'free', 'ctx', 'opt')"),
    (["validate", "a", "--max-steps", "1e3"], "dcbound validate",
     "argument --max-steps: invalid int value: '1e3'"),
    (["validate", "a", "--max-steps", "-1"], "dcbound validate",
     "argument --max-steps: must be 0 or more, got -1"),
    (["validate", "a", "--ma", "1"], "dcbound validate",
     "ambiguous option: --ma could match --max-reset-paths, --max-steps"),
    (["validate", "a", "--sweep", "0..1", "--assign", "n=1"], "dcbound validate",
     "argument --assign: not allowed with argument --sweep"),
    (["analyze", "a", "--vb=1"], "dcbound analyze",
     "argument --vb: ignored explicit argument '1'"),
    (["analyze", "a", "-v=1"], "dcbound analyze",
     "argument -v/--verbose: ignored explicit argument '1'"),
], ids=["no-command", "bad-command", "no-file", "unrecognized", "no-value",
        "bad-choice", "not-int", "negative", "ambiguous", "exclusive",
        "flag-value", "short-flag-value"])
def test_error_wording(capsys, argv, prog, message):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    *usage, last = captured.err.splitlines()
    assert captured.out == "" and last == f"dcbound: error: {message}"
    assert usage[0].startswith(f"usage: {prog} [-h] ")  # the usage of the reader that failed


def test_every_single_dash_flag_is_one_letter():
    """`_Reader.classify` reads a single-dash word by its first two
    characters (`-oFILE`), which is argparse's reading only while no
    single-dash flag has more than one letter."""
    tables = [cli._TOP, *(options for _, options in cli._COMMANDS.values())]
    single = {f for options in tables for o in options for f in o.flags
              if not f.startswith("--")}
    assert single and all(len(f) == 2 for f in single), single


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_usage_is_laid_out_as_argparse_lays_it_out(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command] if command else []
    with pytest.raises(RefUsageError):
        _REFERENCE.parse_args(argv)
    expected = capsys.readouterr().err
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(expected)


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_lists_every_option(capsys, command):
    argv = [command, "-h"] if command else ["--help"]
    with pytest.raises(SystemExit) as ei:
        cli.main(argv)
    assert ei.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {f'dcbound {command or str()}'.strip()} [-h] ")
    assert max(len(line) for line in out.splitlines()) <= 78
    words = " ".join(out.split())  # the help text, unwrapped
    rows = cli._COMMANDS[command][1] if command else cli._TOP
    for o in rows:
        assert f"\n  {', '.join(o.flags)}" in out and o.help in words
