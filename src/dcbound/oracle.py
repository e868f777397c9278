"""Brute-force concrete interpreter: ground truth for bound soundness.

Updates are upper bounds and guards are positivity tests, so pointwise-larger
states enable a superset of behaviour; exploring only the extreme choice
x' = y + c therefore dominates every admissible run for counting purposes.
explore() walks all branch choices under that semantics, memoizing
per-transition worst-case counts on (location, defined-variable values).

Variables with no constraint on the taken transition become undefined in the
successor. Well-defined programs never read an undefined variable; such a
read here is an internal error, not a semantics choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from random import Random
from typing import Iterator, Mapping

from dcbound import expr
from dcbound.dcp import Atom, Dcp, Transition, Var, defined_at
from dcbound.expr import IntConst, SymConst
from dcbound.engine import BoundReport

__all__ = [
    "DEFAULT_STEP_CAP",
    "RunStats",
    "explore",
    "enumerate_runs",
    "random_run",
    "Verdict",
    "SoundnessRow",
    "SoundnessResult",
    "check_soundness",
]

DEFAULT_STEP_CAP = 100_000

State = tuple[str, tuple[tuple[str, int], ...]]  # (location, sorted var values)


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


def _atom_value(a: Atom, values: Mapping[str, int],
                valuation: Mapping[str, int]) -> int:
    if isinstance(a, IntConst):
        return a.value
    if isinstance(a, SymConst):
        return valuation[a.name]
    try:
        return values[a.name]
    except KeyError:
        raise _UndefinedRead(
            f"read of undefined variable {a.name!r}; the program is not "
            f"well-defined") from None


def _enabled(t: Transition, values: Mapping[str, int],
             valuation: Mapping[str, int]) -> bool:
    return all(_atom_value(Var(g), values, valuation) > 0 for g in t.guard)


def _successor(t: Transition, values: Mapping[str, int],
               valuation: Mapping[str, int]) -> dict[str, int]:
    return {u.lhs: _atom_value(u.rhs, values, valuation) + u.offset
            for u in t.updates}


def explore(dcp: Dcp, valuation: Mapping[str, int],
            step_cap: int = DEFAULT_STEP_CAP) -> RunStats:
    """Exhaustive extreme-update exploration from the entry.

    counts[t] is the maximum number of times t occurs on any maximal run;
    var_max[v] the largest value observed for v at locations where v is
    defined on every incoming transition. exhausted is False when the state
    cap was hit or a state cycle was found (counts are then lower bounds).
    """
    missing = [c for c in dcp.sym_consts if c not in valuation]
    if missing:
        raise ValueError(f"valuation is missing constants: {', '.join(missing)}")

    defined = defined_at(dcp)
    tids = [t.id for t in dcp.transitions]
    var_max: dict[str, int | None] = {v: None for v in dcp.variables}
    exhausted = True
    states_seen = 0

    memo: dict[State, dict[str, int]] = {}
    on_stack: set[State] = set()

    start: State = (dcp.entry, ())

    # iterative depth-first walk with explicit post-processing frames
    stack: list[tuple[State, list[tuple[str, State]] | None]] = [(start, None)]
    while stack:
        state, pending = stack.pop()
        loc, items = state
        values = dict(items)
        if pending is None:
            if state in memo or state in on_stack:
                continue
            states_seen += 1
            if states_seen > step_cap:
                exhausted = False
                memo[state] = {tid: 0 for tid in tids}
                continue
            for v in defined[loc]:
                if v in values:
                    cur = var_max[v]
                    var_max[v] = values[v] if cur is None else max(cur, values[v])
            succs: list[tuple[str, State]] = []
            for t in sorted(dcp.outgoing(loc), key=lambda t: t.id):
                if not _enabled(t, values, valuation):
                    continue
                nxt = _successor(t, values, valuation)
                succs.append((t.id, (t.target, tuple(sorted(nxt.items())))))
            on_stack.add(state)
            stack.append((state, succs))
            for _, s in succs:
                if s not in memo and s not in on_stack:
                    stack.append((s, None))
                elif s in on_stack:
                    exhausted = False  # state cycle: unbounded behaviour
        else:
            on_stack.discard(state)
            best = {tid: 0 for tid in tids}
            for tid, s in pending:
                sub = memo.get(s)
                if sub is None:
                    # still on stack (cycle) or capped: count the step itself
                    sub = {t: 0 for t in tids}
                for t in tids:
                    cand = sub[t] + (1 if t == tid else 0)
                    if cand > best[t]:
                        best[t] = cand
            memo[state] = best

    return RunStats(counts=memo[start], var_max=var_max,
                    exhausted=exhausted, states=states_seen)


def enumerate_runs(dcp: Dcp, valuation: Mapping[str, int], *,
                   max_runs: int = 10_000,
                   max_len: int = 10_000) -> Iterator[list[tuple[Transition, dict[str, int]]]]:
    """Yield maximal runs under extreme updates as (transition, post-state)
    sequences. Unmemoized; intended for small assignments in tests."""
    emitted = 0

    def walk(loc: str, values: dict[str, int],
             trail: list[tuple[Transition, dict[str, int]]]):
        nonlocal emitted
        if emitted >= max_runs or len(trail) >= max_len:
            return
        moved = False
        for t in sorted(dcp.outgoing(loc), key=lambda t: t.id):
            if not _enabled(t, values, valuation):
                continue
            moved = True
            nxt = _successor(t, values, valuation)
            trail.append((t, nxt))
            yield from walk(t.target, nxt, trail)
            trail.pop()
        if not moved:
            emitted += 1
            yield list(trail)

    yield from walk(dcp.entry, {}, [])


def random_run(dcp: Dcp, valuation: Mapping[str, int], rng: Random, *,
               max_len: int = 10_000, slack: int = 4) -> dict[str, int]:
    """One random admissible run: random branch choices and random update
    values from [extreme - slack, extreme]. Returns per-transition counts."""
    counts = {t.id: 0 for t in dcp.transitions}
    loc, values = dcp.entry, {}
    for _ in range(max_len):
        enabled = [t for t in sorted(dcp.outgoing(loc), key=lambda t: t.id)
                   if _enabled(t, values, valuation)]
        if not enabled:
            break
        t = rng.choice(enabled)
        nxt = {}
        for u in t.updates:
            cap = _atom_value(u.rhs, values, valuation) + u.offset
            nxt[u.lhs] = rng.randint(cap - slack, cap)
        counts[t.id] += 1
        loc, values = t.target, nxt
    return counts


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

    @property
    def violations(self) -> list[SoundnessRow]:
        return [r for r in self.rows if r.ok is False]


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
