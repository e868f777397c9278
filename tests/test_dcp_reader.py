"""The `.dcp` reader's update memo against the per-update reference reader.

`parse_dcp` parses each distinct update text once between two constants
lines and shares the constraint; `conftest.ref_parse_dcp` parses every
occurrence anew. Both must give equal programs, source lines included, or
equal diagnostics: on the example files, on seeded benchmark families, on
seeded random texts and on mutations of those texts.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from dcbound.dcp import DcpError, parse_dcp

from conftest import DATA, ref_parse_dcp

ROOT = Path(__file__).parent.parent


def _families():
    if "families" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "families", ROOT / "bench" / "families.py")
        sys.modules["families"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["families"])
    return sys.modules["families"]


def _outcome(parse, text):
    try:
        d = parse(text)
    except DcpError as exc:
        return [(x.line, x.col, x.message) for x in exc.diagnostics]
    return d, [t.line for t in d.transitions]


def _assert_same(text):
    assert _outcome(parse_dcp, text) == _outcome(ref_parse_dcp, text), text


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _random_text(rng: random.Random) -> str:
    """A small `.dcp` text whose constants may be declared on several lines,
    some after the transitions that name them, and whose updates repeat a
    few texts, sometimes name an undeclared atom and leave variables out."""
    consts = rng.sample(["n", "m", "k"], rng.randint(0, 3))
    variables = rng.sample(["x", "y", "z", "w"], rng.randint(1, 4))
    locs = [f"l{i}" for i in range(rng.randint(1, 4))]
    rigid = consts + ["0", "1", "-2"]

    def body(atoms):
        updates = []
        for v in variables:
            if rng.random() < 0.9:
                a = "q" if rng.random() < 0.02 else rng.choice(atoms)
                off = rng.choice(["", " + 1", " - 1", "+2", " -3"])
                updates.append(f"{v}' <= {a}{off};")
        rng.shuffle(updates)
        return " ".join(updates)

    trans = [f"trans t0: lb -> {locs[0]} {{ {body(rigid)} }}"]
    for i in range(1, rng.randint(2, 8)):
        src, tgt = rng.choice(locs), rng.choice(locs + ["le"])
        guard = [v for v in variables if rng.random() < 0.3]
        g = f" guard({', '.join(guard)})" if guard else ""
        trans.append(f"trans t{i}: {src} -> {tgt}{g} "
                     f"{{ {body(variables + rigid)} }}")
    lines = [f"vars: {', '.join(variables)}", "entry: lb", "exit: le", *trans]
    # each constant goes on one of up to three lines, placed anywhere
    groups: dict[int, list[str]] = {}
    for c in consts:
        groups.setdefault(rng.randrange(3), []).append(c)
    for names in groups.values():
        lines.insert(rng.randint(0, len(lines)), f"consts: {', '.join(names)}")
    return "\n".join(["dcp", *lines]) + "\n"


_BAD_UPDATES = ["x' <=", "x <= y", "x' <= y +", "x' <= y + -1", "'<= 0",
                "x' <= y z", "x' >= 1"]


def _mutants(text: str, rng: random.Random) -> list[str]:
    """Bad updates (once, twice on a line, on two lines), empty parts, and
    the constants lines moved after the transitions."""
    lines = text.splitlines()
    trans = [i for i, line in enumerate(lines) if line.startswith("trans")]
    out = []
    if trans:
        bad = rng.choice(_BAD_UPDATES)
        i, j = rng.choice(trans), rng.choice(trans)
        once, twice, spread, empty = (lines[:] for _ in range(4))
        once[i] = once[i].replace("{", f"{{ {bad};", 1)
        twice[i] = twice[i].replace("{", f"{{ {bad}; {bad};", 1)
        spread[i] = spread[i].replace("{", f"{{ {bad};", 1)
        spread[j] = spread[j].replace("}", f" {bad}; }}", 1)
        empty[i] = empty[i].replace(";", ";;", 1).replace("{", "{ ; ", 1)
        out += ["\n".join(m) + "\n" for m in (once, twice, spread, empty)]
    consts = [line for line in lines if line.startswith("consts")]
    rest = [line for line in lines if not line.startswith("consts")]
    out.append("\n".join(rest + consts) + "\n")
    if rest[1:] and consts:
        k = rng.randint(1, len(rest))
        out.append("\n".join(rest[:k] + consts + rest[k:]) + "\n")
    return out


def _family_texts():
    families = _families()
    cases = [(families.seq, 12), (families.chain, 8), (families.long, 20),
             (families.branchy, 5)]
    return [f(k, seed=seed).text for f, k in cases for seed in (None, 1, 7)]


def _data_texts():
    return [p.read_text() for d in (DATA, ROOT / "bench" / "data")
            for p in sorted(d.glob("*.dcp"))]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_data_files_read_as_the_reference_reads_them():
    for text in _data_texts():
        _assert_same(text)


def test_families_read_as_the_reference_reads_them():
    for text in _family_texts():
        _assert_same(text)


def test_random_texts_read_as_the_reference_reads_them():
    rng = random.Random(1414)
    texts = [_random_text(rng) for _ in range(300)]
    assert any(isinstance(_outcome(parse_dcp, t), tuple) for t in texts)
    for text in texts:
        _assert_same(text)


@pytest.mark.parametrize("source", ["data", "families", "random"])
def test_mutated_texts_read_as_the_reference_reads_them(source):
    rng = random.Random(1415)
    texts = {"data": _data_texts, "families": _family_texts,
             "random": lambda: [_random_text(rng) for _ in range(100)]}[source]()
    for text in texts:
        for mutant in _mutants(text, rng):
            _assert_same(mutant)


def test_repeated_updates_share_one_constraint():
    d = parse_dcp(_families().seq(4).text)
    first = {}
    for t in d.transitions:
        for u in t.updates:
            assert first.setdefault(u, u) is u
    assert len(first) < sum(len(t.updates) for t in d.transitions)
