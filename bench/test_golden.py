"""Golden corpus: `dcbound analyze --vb` output for small sizes of every
family in all three modes, compared byte for byte.

Run:      PYTHONPATH=src python -m pytest -q bench
Rewrite:  PYTHONPATH=src python bench/test_golden.py   (only when a report
          is meant to change; the rewritten files still have to pass the
          hand-derived reference check below)
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import families
from dcbound.cli import main as dcbound_main

GOLDEN = Path(__file__).resolve().parent / "golden"
SIZES = {"seq": 3, "long": 4, "branchy": 3, "chain": 3, "prognest": 3}
MODES = ("free", "ctx", "opt")
CASES = [(f, k, m) for f, k in SIZES.items() for m in MODES]


def _golden_path(family: str, k: int, mode: str) -> Path:
    return GOLDEN / f"{family}{k}-{mode}.out"


def _analyze(family: str, k: int, mode: str, tmp: Path) -> str:
    case = families.generate(family, k)
    src = tmp / f"{family}{k}{case.suffix}"
    src.write_text(case.text)
    out = io.StringIO()
    with redirect_stdout(out):
        code = dcbound_main(["analyze", str(src), "--vb", "--mode", mode])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("family,k,mode", CASES)
def test_report_matches_golden(family, k, mode, tmp_path):
    expected = _golden_path(family, k, mode).read_text()
    assert _analyze(family, k, mode, tmp_path) == expected


@pytest.mark.parametrize("family,k,mode", CASES)
def test_golden_matches_reference(family, k, mode):
    golden = _golden_path(family, k, mode).read_text()
    assert families.check_report(families.generate(family, k), golden) is None


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for family, k, mode in CASES:
            _golden_path(family, k, mode).write_text(
                _analyze(family, k, mode, Path(tmp)))
