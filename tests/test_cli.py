"""End-to-end command-line behaviour, one test per exit path."""

import io
import os
import random
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dcbound import cli
from dcbound.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_example_a_free(capsys):
    code, out, err = run(capsys, "analyze", DATA / "exampleA.dcp", "--mode", "free")
    assert code == 0
    assert out.endswith("complexity = 2*n\n")
    assert "TB(t1) = n" in out and "TB(t2) = n" in out


def test_analyze_defaults_to_ctx(capsys):
    code, out, _ = run(capsys, "analyze", DATA / "exampleC.dcp")
    assert code == 0
    assert "TB(t2) = n" in out  # the context-sensitive value, not n*n


def test_analyze_vb_lines(capsys):
    code, out, _ = run(capsys, "analyze", DATA / "exampleB.dcp",
                       "--mode", "free", "--vb")
    assert code == 0
    assert "VB(k) = n" in out


def test_analyze_prog_input(capsys):
    code, out, err = run(capsys, "analyze", DATA / "example3.prog",
                         "--mode", "opt", "-v")
    assert code == 0
    assert "TB(t4) = l" in out
    assert "complexity = 2*l" in out
    assert "dcp" in err  # -v prints the abstracted program to stderr


def test_analyze_undefined_complexity_exit_2(capsys):
    code, out, _ = run(capsys, "analyze", DATA / "cyclic.dcp", "--mode", "free")
    assert code == 2
    assert out.endswith("complexity = undef\n")


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.dcp"
    bad.write_text("dcp\nvars: x\nentry: a\nexit: b\ntrans t: a -> b { x' <= }\n")
    code, _, err = run(capsys, "analyze", bad)
    assert code == 1
    assert "bad.dcp" in err and ":5:" in err


def test_usage_error_exit_1(capsys, tmp_path):
    unknown = tmp_path / "mystery.txt"
    unknown.write_text("???\n")
    code, _, err = run(capsys, "analyze", unknown)
    assert code == 1
    assert "mystery.txt:1:1: expected 'dcp' or 'prog' header" in err


def test_byte_identical_output(capsys):
    _, out1, _ = run(capsys, "analyze", DATA / "example2.dcp", "--mode", "free", "--vb")
    _, out2, _ = run(capsys, "analyze", DATA / "example2.dcp", "--mode", "free", "--vb")
    assert out1 == out2


def test_abstract_writes_dcp(tmp_path, capsys):
    out_path = tmp_path / "out.dcp"
    code, _, _ = run(capsys, "abstract", DATA / "example3.prog", "-o", out_path)
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("#")
    code2, out, _ = run(capsys, "analyze", out_path, "--mode", "opt")
    assert code2 == 0
    assert "complexity = 2*l" in out


def test_abstract_keep_names(capsys):
    code, out, _ = run(capsys, "abstract", DATA / "example3.prog", "--keep-names")
    assert code == 0
    assert "(l-i)' <= (l-i) - 1" in out


def test_abstract_rejects_dcp_input(capsys):
    code, _, err = run(capsys, "abstract", DATA / "exampleA.dcp")
    assert code == 1
    assert "expects a .prog" in err


def test_validate_pass(capsys):
    code, out, _ = run(capsys, "validate", DATA / "exampleA.dcp",
                       "--assign", "n=3", "--assign", "n=4")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "# n=3" in out and "# n=4" in out
    assert "t1  3  3  OK" in out


def test_validate_sweep(capsys):
    code, out, _ = run(capsys, "validate", DATA / "exampleC.dcp",
                       "--sweep", "0..2", "--mode", "ctx")
    assert code == 0
    assert out.count("#") == 3


def test_validate_injected_fault_exit_3(capsys):
    code, out, _ = run(capsys, "validate", DATA / "exampleA.dcp",
                       "--assign", "n=1", "--override-bound", "t2=0")
    assert code == 3
    assert "VIOLATION" in out
    assert out.strip().endswith("FAIL")


def test_override_bound_deep_nesting_exit_1():
    unbalanced = "(" * 3000 + "n" + ")" * 2999
    proc = subprocess.run(
        [sys.executable, "-m", "dcbound.cli", "validate",
         str(DATA / "example1.dcp"), "--assign", "n=1",
         "--override-bound", f"t1={unbalanced}"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "dcbound: error: unexpected end of input (at offset 6000)\n"


def test_override_bound_deep_nesting_is_read(capsys):
    deep = "(" * 3000 + "n + 1" + ")" * 3000
    code, out, err = run(capsys, "validate", DATA / "exampleA.dcp",
                         "--assign", "n=3", "--override-bound", f"t1={deep}")
    assert code == 0, err
    assert "t1  3  4  OK" in out


def test_validate_partial_exit_3(capsys):
    code, out, _ = run(capsys, "validate", DATA / "cyclic.dcp",
                       "--assign", "n=1", "--max-steps", "500")
    assert code == 3
    assert out.strip().endswith("PASS-PARTIAL")


def test_validate_missing_constant_exit_1(capsys):
    code, _, err = run(capsys, "validate", DATA / "example2.dcp",
                       "--assign", "n=1")
    assert code == 1
    assert "misses constants" in err


def test_resets_listing(capsys):
    code, out, _ = run(capsys, "resets", DATA / "example1.dcp")
    assert code == 0
    assert "R(p):" in out
    assert "0 -[t0]-> r -[t2a]-> p" in out
    assert "0 -[t4]-> r -[t2a]-> p" in out


def test_resets_dot(tmp_path, capsys):
    dot_path = tmp_path / "g.dot"
    code, _, _ = run(capsys, "resets", DATA / "exampleB.dcp", "--dot", dot_path)
    assert code == 0
    text = dot_path.read_text()
    assert '"k" -> "j" [label="t2"];' in text


def _loop_text(kind, k, *, diamonds):
    """One counting loop whose body is k diamonds (parallel edge pairs) in
    series, or a path through k - 1 more locations: as a .dcp whose counter
    x drains from n, or as a .prog whose counter i climbs to n."""
    if kind == "dcp":
        head = ["dcp", "consts: n", "vars: x", "entry: lb", "exit: le",
                "trans t0: lb -> l0 { x' <= n; }",
                "trans dec: l0 -> l1 guard(x) { x' <= x - 1; }",
                "trans done: l0 -> le { }"]
        keep = "x' <= x;"
    else:
        head = ["prog", "params: n", "vars: i", "entry: lb", "exit: le",
                "trans t0: lb -> l0 { i := 0; }",
                "trans step: l0 -> l1 when i < n { i := i + 1; }",
                "trans done: l0 -> le when i >= n { }"]
        keep = ""
    if diamonds:
        body = [f"trans {side}{j}: l{j} -> l{j + 1} {{ {keep} }}"
                for j in range(1, k + 1) for side in "ab"]
        last = k + 1
    else:
        body = [f"trans s{j}: l{j} -> l{j + 1} {{ {keep} }}" for j in range(1, k)]
        last = k
    back = [f"trans back: l{last} -> l0 {{ {keep} }}"]
    return "\n".join(head + body + back) + "\n"


@pytest.mark.parametrize("kind,diamonds,k", [
    ("dcp", True, 14), ("dcp", False, 1500),
    ("prog", True, 14), ("prog", True, 40),
], ids=["branchy14", "long1500", "prog-branchy14", "prog-branchy40"])
def test_dcp_without_cycle_limit(tmp_path, capsys, kind, diamonds, k):
    # 2^k simple cycles, or one cycle through 1500 locations: the bound is n,
    # and the abstraction of a .prog input lists no cycles either
    src = tmp_path / f"loop.{kind}"
    src.write_text(_loop_text(kind, k, diamonds=diamonds))
    code, out, err = run(capsys, "analyze", src, "--mode", "ctx")
    assert code == 0, err
    assert out.endswith("complexity = n\n")
    if kind == "prog":
        code, out, err = run(capsys, "abstract", src)
        assert code == 0, err
        assert "trans step: l0 -> l1 guard(v0)" in out


def test_abstraction_long_loop(tmp_path, capsys):
    # one loop through 1500 locations, decomposed without recursion
    src = tmp_path / "long.prog"
    src.write_text(_loop_text("prog", 1500, diamonds=False))
    code, out, err = run(capsys, "abstract", src)
    assert code == 0, err
    assert "trans step: l0 -> l1 guard(v0)" in out
    code, out, err = run(capsys, "analyze", src)
    assert code == 0, err
    assert out.endswith("complexity = n\n")


def test_format_sniffed_from_content(tmp_path, capsys):
    oddly_named = tmp_path / "a_program"
    oddly_named.write_text((DATA / "exampleA.dcp").read_text())
    code, out, _ = run(capsys, "analyze", oddly_named, "--mode", "free")
    assert code == 0 and out.endswith("complexity = 2*n\n")
    misnamed = tmp_path / "example3.dcp"  # the first line says prog
    misnamed.write_text((DATA / "example3.prog").read_text())
    code, out, _ = run(capsys, "analyze", misnamed, "--mode", "opt")
    assert code == 0 and out.endswith("complexity = 2*l\n")


def test_version_and_help():
    # argparse handles these via SystemExit(0)
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    with pytest.raises(SystemExit) as ei:
        main(["--help"])
    assert ei.value.code == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "dcbound.cli", str(DATA / "exampleA.dcp")],
        capture_output=True, text=True)
    assert proc.returncode != 0  # missing subcommand is a usage error
    proc = subprocess.run(
        [sys.executable, "-m", "dcbound.cli", "analyze",
         str(DATA / "exampleA.dcp"), "--mode", "free"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("complexity = 2*n\n")


def test_resets_var_filter(capsys):
    code, out, _ = run(capsys, "resets", DATA / "example1.dcp", "--var", "p")
    assert code == 0
    assert "R(p):" in out and "R(x):" not in out
    code, _, err = run(capsys, "resets", DATA / "example1.dcp", "--var", "zz")
    assert code == 1


def test_validate_prog_input(capsys):
    code, out, _ = run(capsys, "validate", DATA / "example3.prog",
                       "--mode", "opt", "--sweep", "0..3")
    assert code == 0
    assert out.strip().endswith("PASS")


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "dcbound.cli", *map(str, argv)],
                          capture_output=True, text=True)


def test_resets_past_path_cap_exit_2():
    proc = _cli("resets", DATA / "example1.dcp", "--max-reset-paths", "1")
    assert proc.returncode == 2
    assert proc.stderr == (f"{DATA / 'example1.dcp'}: "
                           "more than 1 optimal reset paths end in p\n")


def test_non_utf8_input_exit_1(tmp_path):
    bad = tmp_path / "bad.dcp"
    bad.write_bytes(b"dcp\nconsts: n\xff\n")
    proc = _cli("analyze", bad)
    assert proc.returncode == 1
    assert proc.stderr.startswith("dcbound: error:") and "UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_resets_dot_into_missing_directory_exit_1(tmp_path):
    proc = _cli("resets", DATA / "exampleB.dcp", "--dot", tmp_path / "no" / "g.dot")
    assert proc.returncode == 1
    assert proc.stderr.startswith("dcbound: error:")
    assert "Traceback" not in proc.stderr


def test_abstract_output_into_missing_directory_exit_1(tmp_path):
    proc = _cli("abstract", DATA / "example3.prog", "-o", tmp_path / "no" / "x.dcp")
    assert proc.returncode == 1
    assert proc.stderr.startswith("dcbound: error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("analyze", DATA / "example1.dcp", "--max-reset-paths"),
    ("analyze", DATA / "example3.prog", "--abstraction-depth"),
    ("validate", DATA / "exampleA.dcp", "--max-steps"),
])
def test_negative_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv, "-1")
    assert code == 1 and out == ""
    assert "must be 0 or more, got -1" in err
    code, _, _ = run(capsys, *argv, "0")
    assert code != 1


_COLLIDING = """prog
params: {params}
vars: {vars}
entry: l0
exit: {exit}
trans t0: l0 -> l1 {{ i := 0; }}
trans t1: l1 -> l1 when i < 5 {{ i := i + 1; }}
trans t2: l1 -> {exit} when i >= 5 {{ }}
"""


@pytest.mark.parametrize("params, vars_, exit_, message", [
    ("l", "i", "l", "name 'l' used as both constant and location"),
    ("n", "i, n", "le", "name 'n' used as both variable and constant"),
    ("n", "i, l1", "le", "name 'l1' used as both variable and location"),
], ids=["param-location", "param-variable", "variable-location"])
def test_prog_name_collisions_exit_1(tmp_path, params, vars_, exit_, message):
    src = tmp_path / "collide.prog"
    src.write_text(_COLLIDING.format(params=params, vars=vars_, exit=exit_))
    proc = _cli("analyze", src)
    assert proc.returncode == 1
    assert proc.stderr == f"{src}:0:0: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("dcp\nvars: x, x\nentry: a\nexit: b\ntrans t: a -> b { x' <= 0; }\n",
     "2:1: duplicate name 'x' in vars list"),
    ("dcp\nconsts: n\nvars: x\nconsts: m, n\nentry: a\nexit: b\n"
     "trans t: a -> b { x' <= n; }\n",
     "4:1: duplicate name 'n' in consts list"),
    ("dcp\nvars: x\nentry: a, c\nexit: b\ntrans t: a -> b { x' <= 0; }\n",
     "3:1: entry names more than one location"),
    ("prog\nparams: n, n\nvars: i\nentry: a\nexit: b\ntrans t: a -> b { i := n; }\n",
     "2:1: duplicate name 'n' in params list"),
    ("prog\nparams: n\nvars: i\nvars: i\nentry: a\nexit: b\n"
     "trans t: a -> b { i := n; }\n",
     "4:1: duplicate name 'i' in vars list"),
    ("prog\nparams: n\nvars: i\nentry: a\nexit: b, z\ntrans t: a -> b { i := n; }\n",
     "5:1: exit names more than one location"),
], ids=["dcp-vars", "dcp-consts-across-lines", "dcp-entry", "prog-params",
        "prog-vars-across-lines", "prog-exit"])
def test_duplicate_declarations_exit_1(tmp_path, text, message):
    src = tmp_path / "dup.txt"
    src.write_text(text)
    proc = _cli("analyze", src)
    assert proc.returncode == 1
    assert proc.stderr == f"{src}:{message}\n"


def test_validate_repeated_assign_prints_once():
    once = _cli("validate", DATA / "exampleC.dcp", "--assign", "n=1")
    twice = _cli("validate", DATA / "exampleC.dcp",
                 "--assign", "n=1", "--assign", "n=1")
    assert (twice.returncode, twice.stderr) == (0, "")
    assert twice.stdout == once.stdout
    assert len(twice.stdout.splitlines()) == 9
    assert twice.stdout.count("# n=1\n") == 1


@pytest.mark.parametrize("assign, message", [
    ("n=1,n=2", "assignment 'n=1,n=2' gives 'n' twice"),
    ("n=1,=1", "bad assignment '=1'; expected NAME=VALUE"),
    ("n=1,m=1", "assignment 'n=1,m=1': 'm' is not a constant of the program"),
], ids=["name-twice", "empty-name", "unknown-name"])
def test_validate_bad_assign_exit_1(assign, message):
    proc = _cli("validate", DATA / "exampleC.dcp", "--assign", assign)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"dcbound: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("--assign", "n=1", "--sweep", "0..2"),
    ("--sweep", "0..2", "--assign", "n=1"),
], ids=["assign-first", "sweep-first"])
def test_validate_assign_and_sweep_exclude_each_other(argv):
    proc = _cli("validate", DATA / "exampleC.dcp", *argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "not allowed with argument" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_override_bound_unknown_constant_exit_1():
    proc = _cli("validate", DATA / "exampleC.dcp", "--sweep", "0..1",
                "--override-bound", "t1=m")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("dcbound: error: bad --override-bound 't1=m': "
                           "no value for symbolic constant 'm'\n")


@pytest.mark.parametrize("bound", ["²", "①"], ids=["superscript", "circled"])
def test_override_bound_non_decimal_digit_exit_1(capsys, bound):
    # str.isdigit() holds for these, but int() reads only decimal digits
    code, out, err = run(capsys, "validate", DATA / "exampleC.dcp", "--sweep",
                         "0..1", "--override-bound", f"t1={bound}")
    assert (code, out) == (1, "")
    assert err == f"dcbound: error: unexpected character {bound!r} (at offset 0)\n"


_UNUSED_CONSTANT_PROG = """prog
params: n
vars: x, y
entry: l0
exit: le
trans t0: l0 -> l1 { x := n; y := n; }
trans t1: l1 -> l2 when y < x { x := n; y := y - 2; }
trans t2: l2 -> l1 when x >= 1 { x := 0; y := y - 2; }
trans t3: l1 -> l1 when x >= 1 { y := y - 2; }
"""


def test_abstract_declares_only_used_constants(tmp_path, capsys):
    # at depth 0 the only norm that resets to -n is discarded, so -n must
    # not become a derived constant (it used to double the validate sweep)
    path = tmp_path / "unused.prog"
    path.write_text(_UNUSED_CONSTANT_PROG)
    code, out, _ = run(capsys, "abstract", path, "--abstraction-depth", "0")
    assert code == 0
    assert "consts: n\n" in out and "symbolic constant" not in out
    code, out, _ = run(capsys, "validate", path, "--abstraction-depth", "0")
    assert code == 3 and out.endswith("PASS-PARTIAL\n")  # t3 loops unguarded
    assert [line for line in out.splitlines() if line.startswith("#")] == [
        f"# n={k}" for k in range(4)]


def test_closed_stdout_exit_1_without_traceback():
    # the reader stops after one line of about 150 KB
    proc = subprocess.Popen(
        [sys.executable, "-m", "dcbound.cli", "validate",
         str(DATA / "example2.dcp"), "--sweep", "0..9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "# m1=0, m2=0, n=0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_internal_error_is_one_line_exit_4(monkeypatch, capsys):
    def fail(args):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(cli, "_cmd_analyze", fail)
    code, out, err = run(capsys, "analyze", DATA / "exampleA.dcp")
    assert code == 4 and out == ""
    assert err == "dcbound: internal error: RuntimeError: first line second line\n"


# `main` under 1 GiB of address space, where building every valuation up
# front fails fast
_LIMITED_MAIN = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from dcbound import cli
from dcbound.cli import main
sys.exit(main())
"""


def test_validate_sweep_streams_its_valuations(tmp_path):
    # 20 constants over 0..3 are 4^20 valuations: the first one is explored
    # and printed before the next is made
    consts = [f"c{j}" for j in range(20)]
    path = tmp_path / "wide.dcp"
    path.write_text("dcp\nconsts: " + ", ".join(consts) + "\nvars: x\n"
                    "entry: lb\nexit: le\ntrans t0: lb -> le { x' <= c0; }\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", _LIMITED_MAIN, "validate", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=dict(os.environ, PYTHONUNBUFFERED="1"))
    timer = threading.Timer(30, proc.kill)
    timer.start()
    try:
        block = [proc.stdout.readline() for _ in range(3)]
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert block == ["# " + ", ".join(f"{c}=0" for c in sorted(consts)) + "\n",
                     "t0  1  1  OK\n", "VB(x)  0  0  OK\n"]


def _mutants(text: str, rng: random.Random) -> list[str]:
    """A truncation, one line cut short, a few flipped characters and the
    lines shuffled."""
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    cut = lines[:i] + [lines[i][:rng.randrange(len(lines[i]))] + "\n"] + lines[i + 1:]
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        chars[rng.randrange(len(chars))] = rng.choice("#(){};:,<=>+-*?' \nxnl0")
    shuffled = lines[:]
    rng.shuffle(shuffled)
    return ["".join(lines[:rng.randrange(len(lines))]), "".join(cut),
            "".join(chars), "".join(shuffled)]


def test_mutated_inputs_exit_with_a_documented_code(tmp_path):
    rng = random.Random(8)
    commands = [["analyze"], ["abstract"], ["resets"],
                ["validate", "--sweep", "0..1", "--max-steps", "2000"]]
    for data in sorted(DATA.iterdir()):
        mutants = [m for _ in range(3) for m in _mutants(data.read_text(), rng)]
        for k, text in enumerate(mutants):
            for suffix in (".dcp", ".prog", ""):
                path = tmp_path / f"{data.stem}-{k}{suffix}"
                path.write_text(text)
                for command in commands:
                    argv = [command[0], str(path), *command[1:]]
                    with redirect_stdout(io.StringIO()), \
                            redirect_stderr(io.StringIO()):
                        code = main(argv)
                    assert code in (0, 1, 2, 3), (argv, text)
