"""`validate` in one process and in two. Once a sweep's checks have taken
`cli._FORK_AFTER_S` and two valuations remain, a forked child checks every
second remaining valuation. Each test forces one path by setting that
threshold and the CPU probe `cli._cpus`; both paths must print the same
bytes, exit alike and leave no process behind."""

import io
import os
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dcbound import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
INPUTS = sorted(p for d in (DATA, ROOT / "bench" / "data") for p in d.iterdir()
                if p.suffix in (".dcp", ".prog"))
NO_CONSTANTS_DCP = ("dcp\nvars: x\nentry: l0\nexit: le\n"
                    "trans t0: l0 -> l1 { x' <= 3; }\n"
                    "trans t1: l1 -> l1 guard(x) { x' <= x - 1; }\n"
                    "trans t2: l1 -> le { x' <= x; }\n")

CASES = {f"{p.parent.parent.name}/{p.name}-{mode}":
         [p, "--mode", mode, "--sweep", "0..2", "--max-steps", "5000"]
         for p in INPUTS for mode in ("free", "ctx", "opt")}
CASES |= {
    "partial": [DATA / "cyclic.dcp", "--sweep", "0..3", "--max-steps", "50"],
    "fail": [DATA / "exampleA.dcp", "--sweep", "0..5", "--override-bound", "t2=1"],
    "assign": [DATA / "example2.dcp", *(a for v in ("n=2,m1=1,m2=0", "m1=3,n=0,m2=1",
                                                    "n=1,m1=0,m2=0", "m2=2,m1=1,n=3",
                                                    "n=2,m1=1,m2=0")
                                        for a in ("--assign", v))],
}


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked from this process while a test runs."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _validate(monkeypatch, cpus: int, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `validate` with one CPU (no fork) or
    two (a fork after the first valuation, when two more remain)."""
    monkeypatch.setattr(cli, "_FORK_AFTER_S", 0.0)
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["validate", *map(str, argv)])
    return code, out.getvalue(), err.getvalue()


def _reaped(pids: list[int]) -> bool:
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


@pytest.mark.parametrize("case", sorted(CASES))
def test_forked_sweep_is_byte_identical(monkeypatch, forks, case):
    serial = _validate(monkeypatch, 1, CASES[case])
    assert forks == []
    assert _validate(monkeypatch, 2, CASES[case]) == serial
    assert len(forks) == 1 and _reaped(forks)


def test_expected_verdicts_on_both_paths(monkeypatch):
    for case, code, verdict in (("partial", 3, "PASS-PARTIAL"),
                                ("fail", 3, "FAIL"), ("assign", 0, "PASS")):
        for cpus in (1, 2):
            got, out, _ = _validate(monkeypatch, cpus, CASES[case])
            assert (got, out.splitlines()[-1]) == (code, verdict), (case, cpus)
    _, out, _ = _validate(monkeypatch, 2, CASES["assign"])
    assert out.count("# ") == 4  # the repeated valuation is checked once


def test_child_checks_every_second_valuation(monkeypatch, forks):
    checked = []  # in this process only: the child appends to its own copy
    check = cli.check_soundness

    def logged(dcp, report, valuation, **kwargs):
        checked.append(valuation["n"])
        return check(dcp, report, valuation, **kwargs)

    monkeypatch.setattr(cli, "check_soundness", logged)
    code, out, _ = _validate(monkeypatch, 2, [DATA / "exampleC.dcp", "--sweep", "0..6"])
    assert code == 0 and out.count("# ") == 7
    assert checked == [0, 1, 3, 5] and len(forks) == 1


def test_program_without_constants_does_not_fork(monkeypatch, forks, tmp_path):
    path = tmp_path / "none.dcp"
    path.write_text(NO_CONSTANTS_DCP)
    serial = _validate(monkeypatch, 1, [path, "--sweep", "0..3"])
    assert serial == (0, "# (no constants)\nt0  1  1  OK\nt1  3  3  OK\n"
                         "t2  1  1  OK\nVB(x)  3  3  OK\nPASS\n", "")
    assert _validate(monkeypatch, 2, [path, "--sweep", "0..3"]) == serial
    assert forks == []


def test_short_sweep_does_not_fork(monkeypatch, forks):
    # the first valuation is checked before the sweep decides; one left
    # over is not worth a fork
    for argv in ([DATA / "exampleC.dcp", "--sweep", "0..1"],
                 [DATA / "exampleA.dcp", "--assign", "n=1", "--assign", "n=2"]):
        assert _validate(monkeypatch, 2, argv)[0] == 0
    assert forks == []


def test_no_fork_while_another_thread_runs(monkeypatch, forks):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        code, _, _ = _validate(monkeypatch, 2, [DATA / "exampleC.dcp", "--sweep", "0..5"])
    finally:
        stop.set()
        other.join()
    assert code == 0 and forks == []


def test_no_fork_without_os_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    code, out, _ = _validate(monkeypatch, 2, [DATA / "exampleC.dcp", "--sweep", "0..5"])
    assert code == 0 and out.count("# ") == 6


def test_failed_fork_checks_alone(monkeypatch):
    def fail():
        raise OSError("no process to spare")

    serial = _validate(monkeypatch, 1, [DATA / "exampleC.dcp", "--sweep", "0..5"])
    monkeypatch.setattr(os, "fork", fail)
    assert _validate(monkeypatch, 2, [DATA / "exampleC.dcp", "--sweep", "0..5"]) == serial


def _failing_at(monkeypatch, n: int, fault):
    """check_soundness, where valuation n=`n` calls `fault` first."""
    check = cli.check_soundness

    def checked(dcp, report, valuation, **kwargs):
        if valuation["n"] == n:
            fault()
        return check(dcp, report, valuation, **kwargs)

    monkeypatch.setattr(cli, "check_soundness", checked)


def test_error_in_the_child_is_reported_as_in_one_process(monkeypatch, forks):
    # n=0 is checked before the fork; of n=1.. the child takes n=2, n=4
    def fault():
        raise RuntimeError("injected\nfault")

    _failing_at(monkeypatch, 2, fault)
    serial = _validate(monkeypatch, 1, [DATA / "exampleC.dcp", "--sweep", "0..5"])
    _, first_two, _ = _validate(monkeypatch, 1, [DATA / "exampleC.dcp", "--sweep", "0..1"])
    assert serial == (4, first_two.removesuffix("PASS\n"),
                      "dcbound: internal error: RuntimeError: injected fault\n")
    assert _validate(monkeypatch, 2, [DATA / "exampleC.dcp", "--sweep", "0..5"]) == serial
    assert len(forks) == 1 and _reaped(forks)


def test_error_here_does_not_wait_for_the_child(monkeypatch, forks):
    # the parent fails on n=1 while the child is stuck on n=2: the child
    # is killed, not waited for
    parent, check = os.getpid(), cli.check_soundness

    def checked(dcp, report, valuation, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)
        elif valuation["n"] == 1:
            raise RuntimeError("injected")
        return check(dcp, report, valuation, **kwargs)

    monkeypatch.setattr(cli, "check_soundness", checked)
    start = time.monotonic()
    code, _, _ = _validate(monkeypatch, 2, [DATA / "exampleC.dcp", "--sweep", "0..5"])
    assert code == 4 and time.monotonic() - start < 30
    assert len(forks) == 1 and _reaped(forks)


def test_lost_child_leaves_its_valuations_to_the_parent(monkeypatch, forks):
    # the child exits while checking n=4; n=4 and every later valuation of
    # its share are checked by the parent
    parent = os.getpid()

    def fault():
        if os.getpid() != parent:
            os._exit(0)

    _failing_at(monkeypatch, 4, fault)
    argv = [DATA / "exampleC.dcp", "--sweep", "0..9"]
    assert _validate(monkeypatch, 2, argv) == _validate(monkeypatch, 1, argv)
    assert len(forks) == 1 and _reaped(forks)


# `main` with the fork forced, in a fresh interpreter whose only child can
# be the one `main` forks; argv[1] is a valuation of n whose check raises
_FORCED_MAIN = """\
import os, sys
from dcbound import cli
cli._FORK_AFTER_S = 0.0
cli._cpus = lambda: 2
fail_at, check = int(sys.argv.pop(1)), cli.check_soundness
def checked(dcp, report, valuation, **kwargs):
    if valuation.get("n") == fail_at:
        raise RuntimeError("injected")
    return check(dcp, report, valuation, **kwargs)
cli.check_soundness = checked
code = cli.main()
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
print(f"a child of main outlived it (exit {code})", file=sys.stderr)
sys.exit(99)
"""


@pytest.mark.parametrize("fail_at, code", [(-1, 0), (2, 4)])
def test_no_child_outlives_main(fail_at, code):
    proc = subprocess.run(
        [sys.executable, "-c", _FORCED_MAIN, str(fail_at), "validate",
         str(DATA / "example2.dcp"), "--sweep", "0..3"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.count("# ") == (64 if code == 0 else 2)


def test_closed_stdout_in_a_forked_sweep_exit_1():
    # the reader stops after one line; the child is then well into its share
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORCED_MAIN, "-1", "validate",
         str(DATA / "example2.dcp"), "--sweep", "0..9"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert (first, code, err) == ("# m1=0, m2=0, n=0\n", 1, "")
