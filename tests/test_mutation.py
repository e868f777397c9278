"""Token mutants of the `tests/data` inputs end in a documented exit code.

A mutant is one data file with 1-4 token edits: delete, duplicate, insert
or replace a token. Inserted tokens include a 5000-digit integer (more
digits than Python converts by default), punctuation, keywords, NUL and
non-ASCII text. Each mutant runs in process through one command drawn at
random: `analyze` in a random mode, `validate --sweep 0..2 --max-steps
2000`, `resets` or `abstract`. Every run must exit 0-3 without an
`internal error` line or a traceback.

The tier-1 test runs a few hundred mutants; a longer seeded run prints the
number of mutants per exit code and fails on any exit 4 or traceback:

    PYTHONPATH=src:tests python -c 'import test_mutation; test_mutation.main(3000)'
"""

import io
import random
import re
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dcbound.cli import main as dcbound

DATA = Path(__file__).parent / "data"
LONG = "9" * 5000
TOKENS = [LONG, "-" + LONG, "0", "1", "-1", "x", "n", "{", "}", ";", ":", ",", "(",
          ")", "'", "<=", "->", ":=", "+", "-", "*", "=", "?", "#", "\n", "dcp", "prog",
          "trans", "consts", "params", "vars", "entry", "exit", "guard", "when",
          "undef", "max", "min", "\x00", "é", "ß", "٣", "∞", "\U0001F600"]
_TOKEN_RE = re.compile(r"\s+|\w+|[^\w\s]")


def mutate(text: str, rng: random.Random) -> str:
    """`text` with 1-4 edits, each at a token that is not white space."""
    tokens = _TOKEN_RE.findall(text)
    for _ in range(rng.randint(1, 4)):
        at = rng.choice([i for i, t in enumerate(tokens) if not t.isspace()] or [0])
        edit = rng.choice(("delete", "duplicate", "insert", "replace"))
        if edit == "delete":
            del tokens[at]
        elif edit == "duplicate":
            tokens.insert(at, tokens[at])
        else:
            new = rng.choice(TOKENS + tokens)
            tokens[at:at + (edit == "replace")] = [new]
    return "".join(tokens)


def command(rng: random.Random) -> list[str]:
    kind = rng.choice(("analyze", "validate", "resets", "abstract"))
    if kind == "analyze":
        return [kind, "--mode", rng.choice(("free", "ctx", "opt"))]
    if kind == "validate":
        return [kind, "--sweep", "0..2", "--max-steps", "2000"]
    return [kind]


def run(argv: list[str]) -> tuple[int | str, str]:
    """(exit code, stderr) of one in-process run; the code is the traceback
    when an exception leaves `main`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dcbound(argv)
        except (Exception, SystemExit):  # each escape is a finding
            return traceback.format_exc(), err.getvalue()
    return code, err.getvalue()


def faults(code, err: str) -> bool:
    return code not in (0, 1, 2, 3) or "internal error" in err or "Traceback" in err


def run_mutants(count: int, seed: int, workdir: Path) -> tuple[Counter, list]:
    """Exit codes per mutant, and (file, argv, code, stderr) of each fault."""
    rng = random.Random(seed)
    seeds = sorted(p for p in DATA.iterdir() if p.suffix in (".dcp", ".prog"))
    codes: Counter = Counter()
    found = []
    for i in range(count):
        source = rng.choice(seeds)
        path = workdir / f"mutant{i % 8}{source.suffix}"
        path.write_text(mutate(source.read_text(), rng), encoding="utf-8")
        argv = command(rng)
        code, err = run([argv[0], str(path), *argv[1:]])
        codes[code if isinstance(code, int) else "traceback"] += 1
        if faults(code, err):
            found.append((source.name, argv, code, err[-300:]))
    return codes, found


def main(count: int = 3000, seed: int = 1) -> None:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        codes, found = run_mutants(count, seed, Path(tmp))
    print(f"{count} mutants (seed {seed}) by exit code:",
          ", ".join(f"{k}: {n}" for k, n in sorted(codes.items(), key=str)))
    for fault in found[:10]:
        print("fault:", fault)
    assert not found, f"{len(found)} mutants ended in exit 4 or a traceback"


def test_token_mutants_exit_0_to_3(tmp_path):
    codes, found = run_mutants(600, 20261020, tmp_path)
    assert not found, found[:5]
    assert len(codes) > 2  # the mutants reach more than the parse errors


# (file name, source file, the text replaced, the long literal put in it)
LONG_LITERALS = [
    ("offset.dcp", "exampleA.dcp", "j' <= j + 1", LONG),
    ("constant.dcp", "exampleA.dcp", "j' <= 0", "-" + LONG),
    ("constant.prog", "example3.prog", "b := 0", LONG),
    ("coefficient.prog", "example3.prog", "i < l", LONG + "*l"),
]


@pytest.mark.parametrize("name, source, old, literal, cmd", [
    pytest.param(name, source, old, literal, cmd, id=f"{name}-{cmd}")
    for name, source, old, literal in LONG_LITERALS
    for cmd in ("analyze", "validate", "resets", "abstract")
    if cmd != "abstract" or name.endswith(".prog")])
def test_a_long_integer_literal_is_an_input_error(tmp_path, name, source, old, literal, cmd):
    text = (DATA / source).read_text()
    new = old.rsplit(" ", 1)[0] + " " + literal  # the last word of `old` is replaced
    assert old in text
    text = text.replace(old, new, 1)
    line = next(i for i, ln in enumerate(text.splitlines(), 1) if LONG in ln)
    col = text.splitlines()[line - 1].index(literal) + 1
    path = tmp_path / name
    path.write_text(text)
    code, err = run([cmd, str(path)])
    assert code == 1
    assert err == f"{path}:{line}:{col}: integer literal of 5000 digits is too long\n"


def test_a_long_override_bound_is_a_usage_error():
    code, err = run(["validate", str(DATA / "exampleA.dcp"), "--override-bound",
                     "t1=" + "7" * 4400])
    assert code == 1
    assert err == ("dcbound: error: integer literal of 4400 digits is too long "
                   "(at offset 0)\n")


@pytest.mark.parametrize("argv, message", [
    (["validate", "exampleB.dcp", "--assign", "n=" + LONG], ""),
    (["validate", "exampleB.dcp", "--assign", "n=-" + LONG], ""),
    (["validate", "exampleB.dcp", "--max-steps", LONG], "argument --max-steps: "),
    (["analyze", "exampleB.dcp", "--max-reset-paths", LONG],
     "argument --max-reset-paths: "),
    (["abstract", "example3.prog", "--abstraction-depth", "-" + LONG],
     "argument --abstraction-depth: "),
    (["validate", "exampleB.dcp", "--sweep", "0.." + LONG], ""),
    (["validate", "exampleB.dcp", "--sweep", f" +{LONG} ..1"], ""),
], ids=["assign", "assign-negative", "max-steps", "max-reset-paths",
        "abstraction-depth", "sweep-hi", "sweep-lo"])
def test_a_long_number_on_the_command_line_is_not_echoed(argv, message):
    command, file, *rest = argv
    code, err = run([command, str(DATA / file), *rest])
    assert code == 1
    assert err.splitlines()[-1] == (f"dcbound: error: {message}integer literal of "
                                    f"5000 digits is too long")
    assert len(err) < 1000  # the usage, if any, and that line
