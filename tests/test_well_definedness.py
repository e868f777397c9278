"""Well-definedness against its references.

`validate` checks each read at its source and `enforce_well_definedness`
spreads undefinedness breadth first. The references in `conftest.py` are the
liveness check and the round loop they replace: on seeded random programs
the repair must return exactly what the round loop returns, and `validate`
must accept exactly what the liveness check accepts, with a subset of its
diagnostics.
"""

import random

from dcbound import abstraction
from dcbound.abstraction import abstract_program
from dcbound.dcp import (
    Dcp,
    DifferenceConstraint,
    Transition,
    Var,
    defined_at,
    enforce_well_definedness,
    validate,
)
from dcbound.expr import IntConst, SymConst
from dcbound.program import parse_program

from conftest import (
    load_prog,
    ref_enforce_well_definedness,
    ref_well_definedness_messages,
)
from test_fuzz import _random_prog_text


def _random_dcp(rng: random.Random, undeclared: bool = False) -> Dcp:
    """2-7 locations besides the exit, 1-5 variables and at most 14
    transitions, none into the entry or out of the exit, each with one
    constraint per variable it constrains. With `undeclared`, guards and
    right-hand sides may also read the undeclared name `u`."""
    locs = [f"l{i}" for i in range(rng.randint(2, 7))]
    variables = [f"v{i}" for i in range(rng.randint(1, 5))]
    readable = variables + ["u"] * undeclared
    transitions = []
    for i in range(rng.randint(1, 14)):
        guard = sorted({g for g in readable if rng.random() < 0.15})
        updates = []
        for v in variables:
            if rng.random() < 0.3:
                continue  # left unconstrained
            kind = rng.random()
            if kind < 0.6:
                rhs = Var(rng.choice(readable))
            elif kind < 0.8:
                rhs = SymConst("n")
            else:
                rhs = IntConst(rng.randint(0, 2))
            updates.append(DifferenceConstraint(v, rhs, rng.randint(-1, 1)))
        transitions.append(Transition(
            f"t{i}", rng.choice(locs), rng.choice(locs[1:] + ["le"]),
            tuple(guard), tuple(updates)))
    return Dcp(locations=tuple(locs + ["le"]), transitions=tuple(transitions),
               entry="l0", exit="le", variables=tuple(variables),
               sym_consts=("n",))


def _cascades(d: Dcp, warnings: list[str]) -> bool:
    """Whether the repair dropped a read after round 1."""
    defined = defined_at(d)
    first = sum(g not in defined[t.source] for t in d.transitions for g in t.guard)
    first += sum(u.rhs.name not in defined[t.source] for t in d.transitions
                 for u in t.updates if isinstance(u.rhs, Var))
    return sum(w.startswith("dropped") for w in warnings) > first


def test_repair_matches_round_loop_on_random_dcps():
    rng = random.Random(20150812)
    cascaded = undeclared = 0
    for i in range(2400):
        d = _random_dcp(rng, undeclared=i % 4 == 0)
        got = enforce_well_definedness(d)
        assert got == ref_enforce_well_definedness(d), d
        cascaded += _cascades(d, got[1])
        undeclared += any(w.startswith("dropped guard u ") or ": u not" in w
                          for w in got[1])
    # the corpus reaches past round 1 and drops reads of the undeclared name
    assert cascaded > 500 and undeclared > 300, (cascaded, undeclared)


def test_repair_matches_round_loop_on_abstraction_inputs(monkeypatch):
    seen = []

    def checked(d):
        got = enforce_well_definedness(d)
        assert got == ref_enforce_well_definedness(d), d
        seen.append(_cascades(d, got[1]))
        return got

    monkeypatch.setattr(abstraction, "enforce_well_definedness", checked)
    rng = random.Random(1508)
    for _ in range(300):
        abstract_program(parse_program(_random_prog_text(rng)))
    abstract_program(load_prog("example3.prog"))
    assert len(seen) == 301 and any(seen)


def test_validate_matches_liveness_check():
    rng = random.Random(4242)
    rejected = equal = 0
    for _ in range(2000):
        d = _random_dcp(rng)
        # the reference words a read as a live variable
        got = [diag.message.replace(" is read at ", " is live at ", 1)
               for diag in validate(d)]
        ref = ref_well_definedness_messages(d)
        assert bool(got) == bool(ref), d
        # the reads themselves: a subset of the live pairs, in the same order
        assert got == [m for m in ref if m in set(got)], d
        rejected += bool(ref)
        equal += got == ref
    # both outcomes occur, and some rejections lose the pass-through lines
    assert min(rejected, 2000 - rejected) > 200 and equal < rejected, (
        rejected, equal)
