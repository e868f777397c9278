"""Brute-force concrete interpreter: ground truth for bound soundness.

Updates are upper bounds and guards are positivity tests, so pointwise-larger
states enable a superset of behaviour; exploring only the extreme choice
x' = y + c therefore dominates every admissible run for counting purposes.

The one interpreter, explore(), runs on a compiled view of the program,
built once per call: each variable has a slot (in `dcp.variables` order),
and each location a tuple of its outgoing transitions sorted by id, with
guards and updates given as slots and with constant right-hand sides
already resolved against the valuation. A state is (location, tuple of
every slot's value), None where the variable is undefined; this is
one-to-one with the (location, defined variable values) pairs of the
semantics. explore() walks all branch choices depth first, successors in
transition-id order, memoizing per-transition worst-case counts per state.
That order decides which states a capped exploration visits before it
stops, so it is part of the result.

Variables with no constraint on the taken transition become undefined in the
successor. Well-defined programs never read an undefined variable; such a
read here is an internal error, not a semantics choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from dcbound import expr
from dcbound.dcp import Dcp, Transition, defined_at
from dcbound.expr import SymConst
from dcbound.engine import BoundReport

__all__ = [
    "DEFAULT_STEP_CAP",
    "RunStats",
    "explore",
    "Verdict",
    "SoundnessRow",
    "SoundnessResult",
    "check_soundness",
]

DEFAULT_STEP_CAP = 100_000

State = tuple[str, tuple[int | None, ...]]  # (location, value per slot)


@dataclass
class RunStats:
    """Worst-case per-transition counts and per-variable maxima for one
    assignment of the symbolic constants."""

    counts: dict[str, int]
    var_max: dict[str, int | None]
    exhausted: bool
    states: int


class _UndefinedRead(RuntimeError):
    pass


# One outgoing transition, compiled: (position of its id in _View.ids,
# target, guard slots, updates). An update is (lhs slot, source slot,
# constant): the value is the constant plus the source slot's value, or the
# constant alone where the source slot is -1.
_Step = tuple[int, str, tuple[int, ...], tuple[tuple[int, int, int], ...]]


class _View:
    """A program compiled for one valuation."""

    __slots__ = ("names", "ids", "steps")

    def __init__(self, names: tuple[str, ...], ids: tuple[str, ...],
                 steps: dict[str, tuple[_Step, ...]]):
        self.names = names  # slot -> variable
        self.ids = ids  # position -> transition id, in first-seen order
        self.steps = steps  # location -> outgoing, by id


def _compile(dcp: Dcp, valuation: Mapping[str, int]) -> _View:
    missing = [c for c in dcp.sym_consts if c not in valuation]
    if missing:
        raise ValueError(f"valuation is missing constants: {', '.join(missing)}")
    # a hand-built program may name undeclared variables: they get slots too
    slot = {v: i for i, v in enumerate(dcp.variables)}
    pos = {tid: i for i, tid in enumerate(dict.fromkeys(t.id for t in dcp.transitions))}

    def step(t: Transition) -> _Step:
        updates = []
        for u in t.updates:
            lhs = slot.setdefault(u.lhs, len(slot))
            if isinstance(u.rhs, str):
                updates.append((lhs, slot.setdefault(u.rhs, len(slot)), u.offset))
            elif isinstance(u.rhs, SymConst):
                updates.append((lhs, -1, valuation[u.rhs.name] + u.offset))
            else:
                updates.append((lhs, -1, u.rhs.value + u.offset))
        guard = tuple(slot.setdefault(g, len(slot)) for g in t.guard)
        return pos[t.id], t.target, guard, tuple(updates)

    steps = {loc: tuple(step(t) for t in sorted(dcp.outgoing(loc), key=lambda t: t.id))
             for loc in dcp.locations}
    return _View(tuple(slot), tuple(pos), steps)


def _undefined(name: str) -> _UndefinedRead:
    return _UndefinedRead(f"read of undefined variable {name!r}; the program "
                          f"is not well-defined")


def _successors(view: _View, loc: str,
                values: tuple[int | None, ...]) -> list[tuple[_Step, State]]:
    """(step, successor state) for each enabled transition out of loc, in id
    order, under extreme updates."""
    out = []
    for step in view.steps[loc]:
        _, target, guard, updates = step
        for g in guard:
            x = values[g]
            if x is None:
                raise _undefined(view.names[g])
            if x <= 0:
                break
        else:
            nxt: list[int | None] = [None] * len(values)
            for lhs, src, c in updates:
                if src < 0:
                    nxt[lhs] = c
                else:
                    x = values[src]
                    if x is None:
                        raise _undefined(view.names[src])
                    nxt[lhs] = x + c
            out.append((step, (target, tuple(nxt))))
    return out


def explore(dcp: Dcp, valuation: Mapping[str, int],
            step_cap: int = DEFAULT_STEP_CAP) -> RunStats:
    """Exhaustive extreme-update exploration from the entry.

    counts[t] is the maximum number of times t occurs on any maximal run;
    var_max[v] the largest value observed for v at locations where v is
    defined on every incoming transition. exhausted is False when the state
    cap was hit or a state cycle was found (counts are then lower bounds).
    """
    view = _compile(dcp, valuation)
    defined = {loc: tuple(i for i, v in enumerate(view.names) if v in vs)
               for loc, vs in defined_at(dcp).items()}
    zeros = (0,) * len(view.ids)
    var_max: list[int | None] = [None] * len(view.names)
    exhausted = True
    states_seen = 0

    # counts by transition position once a state is done; None while it is
    # on the depth-first path (a successor found there closes a cycle)
    memo: dict[State, tuple[int, ...] | None] = {}

    start: State = (dcp.entry, (None,) * len(view.names))

    # iterative depth-first walk with explicit post-processing frames
    stack: list[tuple[State, list[tuple[_Step, State]] | None]] = [(start, None)]
    while stack:
        state, pending = stack.pop()
        if pending is None:
            if state in memo:
                continue
            states_seen += 1
            if states_seen > step_cap:
                exhausted = False
                memo[state] = zeros
                continue
            loc, values = state
            for i in defined[loc]:
                x = values[i]
                if x is not None:
                    cur = var_max[i]
                    if cur is None or x > cur:
                        var_max[i] = x
            succs = _successors(view, loc, values)
            memo[state] = None
            stack.append((state, succs))
            for _, s in succs:
                if s not in memo:
                    stack.append((s, None))
                elif memo[s] is None:
                    exhausted = False  # state cycle: unbounded behaviour
        else:
            best = None
            for step, s in pending:
                # a successor still on the path (cycle) counts the step itself
                cand = list(memo[s] or zeros)
                cand[step[0]] += 1
                best = cand if best is None else list(map(max, best, cand))
            memo[state] = zeros if best is None else tuple(best)

    return RunStats(counts=dict(zip(view.ids, memo[start])),
                    var_max={v: var_max[i] for i, v in enumerate(dcp.variables)},
                    exhausted=exhausted, states=states_seen)


# ---------------------------------------------------------------------------
# soundness checking
# ---------------------------------------------------------------------------

class Verdict(enum.Enum):
    PASS = "PASS"
    PASS_PARTIAL = "PASS-PARTIAL"
    FAIL = "FAIL"


@dataclass(frozen=True)
class SoundnessRow:
    valuation: tuple[tuple[str, int], ...]
    kind: str  # "TB" or "VB"
    name: str
    observed: int | None
    bound: int | None  # None when the bound is undefined (skipped)

    @property
    def ok(self) -> bool | None:
        if self.bound is None or self.observed is None:
            return None
        return self.observed <= self.bound

    def status(self) -> str:
        ok = self.ok
        if ok is None:
            return "SKIP"
        return "OK" if ok else "VIOLATION"


@dataclass
class SoundnessResult:
    verdict: Verdict
    rows: list[SoundnessRow]


def check_soundness(dcp: Dcp, report: BoundReport,
                    valuations: list[Mapping[str, int]],
                    step_cap: int = DEFAULT_STEP_CAP) -> SoundnessResult:
    """Compare observed worst-case counts/maxima against evaluated bounds.

    PASS: every defined bound dominates the observation and every exploration
    completed. PASS-PARTIAL: no violation, but some exploration was cut off.
    FAIL: at least one violation, with counterexample rows.
    """
    rows: list[SoundnessRow] = []
    all_exhausted = True
    for valuation in valuations:
        stats = explore(dcp, valuation, step_cap)
        key = tuple(sorted(valuation.items()))
        all_exhausted &= stats.exhausted
        for tid in sorted(report.tb):
            bound = report.tb[tid]
            val = None if bound == expr.UNDEFINED else expr.evaluate(bound, valuation)
            rows.append(SoundnessRow(key, "TB", tid, stats.counts.get(tid, 0), val))
        for v in sorted(report.vb):
            bound = report.vb[v]
            val = None if bound == expr.UNDEFINED else expr.evaluate(bound, valuation)
            observed = stats.var_max.get(v)
            if observed is None:
                continue  # never defined anywhere: nothing to compare
            rows.append(SoundnessRow(key, "VB", v, observed, val))
    if any(r.ok is False for r in rows):
        verdict = Verdict.FAIL
    elif all_exhausted:
        verdict = Verdict.PASS
    else:
        verdict = Verdict.PASS_PARTIAL
    return SoundnessResult(verdict=verdict, rows=rows)
