"""Golden CLI output beyond `analyze`: `resets`, `validate --sweep 0..2` in
every mode on every input under tests/data, and `abstract` (with and without
`--keep-names`) on the `.prog` inputs. Each `<case>.out` under tests/golden/
holds the exit code on its first line (`exit: N`), then stdout byte for byte;
the `<case>.err` beside it holds stderr byte for byte.
`--max-steps 5000` keeps the capped explorations (cyclic.dcp) short; no
other input comes near it.

Run:      PYTHONPATH=src python -m pytest -q tests/test_golden_cli.py
Rewrite:  PYTHONPATH=src python tests/test_golden_cli.py   (only when the
          output is meant to change)
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dcbound.cli import main

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"
INPUTS = sorted(p.name for p in DATA.iterdir() if p.suffix in (".dcp", ".prog"))


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in INPUTS:
        cases[f"{name}-resets"] = ["resets", name]
        for mode in ("free", "ctx", "opt"):
            cases[f"{name}-validate-{mode}"] = [
                "validate", name, "--mode", mode, "--sweep", "0..2",
                "--max-steps", "5000"]
        if name.endswith(".prog"):
            cases[f"{name}-abstract"] = ["abstract", name]
            cases[f"{name}-abstract-keep-names"] = ["abstract", name, "--keep-names"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[str, str]:
    """(exit code and stdout, stderr) of one case."""
    cmd, name, *rest = argv
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([cmd, str(DATA / name), *rest])
    return f"exit: {code}\n{out.getvalue()}", err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    out, err = _run(CASES[case])
    assert out == (GOLDEN / f"{case}.out").read_text()
    assert err == (GOLDEN / f"{case}.err").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        out, err = _run(argv)
        (GOLDEN / f"{case}.out").write_text(out)
        (GOLDEN / f"{case}.err").write_text(err)
