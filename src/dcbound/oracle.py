"""Brute-force concrete interpreter: ground truth for bound soundness.

Updates are upper bounds and guards are positivity tests, so pointwise-larger
states enable a superset of behaviour; exploring only the extreme choice
x' = y + c therefore dominates every admissible run for counting purposes.

It takes only programs that `validate` accepts and raises DcpError with
`validate`'s (cached) diagnostics on any other. check_soundness() compares
a report's bounds with one exploration, under one valuation.

Build once, bind per valuation. The one interpreter, explore(), runs on a
view of the program that is built once per Dcp object and lives and dies
with it, in its instance dict: every later call on the same object (one per
valuation of a sweep) reuses it. The build gives each variable the slot of
its place in `dcp.variables`, each location an index, and each transition
the position of its place in `dcp.transitions`. It turns each location's
outgoing transitions into one generated Python function, the location's
kernel, and compiles all kernels once as one factory whose parameters are
the symbolic constants. A valuation costs one factory call, which binds the
constants and returns the kernels.

A state is one flat tuple: the location's index, then each slot's value,
None where the variable is undefined. This is one-to-one with the
(location, defined variable values) pairs of the semantics. A kernel maps a
state at its location to one entry per outgoing transition, in
transition-id order: the successor state under extreme updates, or None
where the transition's guard fails:

- guards are tested in guard order and stop at the first value <= 0;
- slots that a transition leaves unconstrained become None in the successor;
- a run of at least _SLICE_MIN slots that the transition copies unchanged
  (x' <= x) is one slice of the state, so on a wide program a kernel's
  source, and its time per state, grow with the slots a transition changes
  rather than with all slots; shorter runs are listed slot by slot.

No read needs a None test: every variable that a transition from loc reads
is in defined_at(loc), since the program is well-defined. A state at loc
other than the start state was made by a transition into loc, which
constrained every such x, and the start state sits at the entry, where
nothing is defined and so nothing is read.

No input text reaches the generated source. It holds only integers, slot,
location and position indices and fixed identifiers; constants enter as the
factory's arguments, read in place as slots are (`c0 - 2` as `s[1] - 2`).

explore() walks all branch choices depth first, successors in transition-id
order, memoizing per-transition worst-case counts per state. That order
decides which states a capped exploration visits before it stops, so it is
part of the result. The walk's stack holds states and kernel outputs
themselves, nothing that wraps them: a popped tuple is a state to visit, and
a popped list is the kernel output of the state directly beneath it, which
is then popped and folded. A state on the depth-first path thus costs its
tuple, its memo entry (None), its kernel output and two stack slots; a done
state keeps nothing beyond itself, its memo entry and its count tuple.

Once a state's successors are done, its location's fold merges their count
vectors: each one with its own step added, then one element-wise maximum,
`mx`, unrolled once per program over all transitions.
A fold is one generated template per out-degree that occurs, bound to each
location's transition positions, so the generated source stays linear in
the program's size; a fold per location with the maximum unrolled in place
would grow with locations x out-degree x transitions.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Mapping

from dcbound import expr
from dcbound.dcp import Dcp, DifferenceConstraint, defined_at, require_valid
from dcbound.expr import SymConst
from dcbound.engine import BoundReport
from dcbound.record import Frozen, Record

__all__ = [
    "DEFAULT_STEP_CAP",
    "RunStats",
    "explore",
    "Verdict",
    "worst",
    "SoundnessRow",
    "SoundnessResult",
    "check_soundness",
]

DEFAULT_STEP_CAP = 100_000

# (location index, value per slot); the memo's key, and on the walk's stack
# a state still to visit. It is the only object a state owns besides its memo
# entry and, once done, its count tuple.
State = tuple[int | None, ...]
# a location's successor under each outgoing transition, in transition-id
# order; None where the transition's guard fails. The walk pushes it above
# its state and frees it at the state's fold, so it lives only while the
# state is on the depth-first path. A list, not a tuple: the walk tells it
# from a state by its type, and a freed list lowers the collector's
# allocation count, a freed small tuple mostly goes to a free list and does
# not, so on a long path the collector would traverse each new count vector
# while young (explore on long(400) ran 1.25x slower with tuples).
Kernel = Callable[[State], list[State | None]]
# a location's kernel output, the memo and the zero vector -> the location's
# worst-case counts by transition position
Fold = Callable[[list[State | None], dict, tuple[int, ...]], tuple[int, ...]]
# a program built for the oracle: the defined slots of each location, the
# entry's location index, the factory (constants in sym_consts order ->
# kernels) and the fold of each location
Build = tuple[tuple[tuple[int, ...], ...], int, Callable[..., tuple[Kernel, ...]], tuple[Fold, ...]]

# Runs of copies at least this long become slices of the state. Per
# successor, listing slots is cheaper up to about 30 of them (CPython 3.11:
# 0.23 against 0.39 us for 12), but every listed slot is compiled once per
# program, and on a wide program with few states that cost dominates.
_SLICE_MIN = 12


class RunStats(Record):
    """Worst-case per-transition counts and per-variable maxima for one
    assignment of the symbolic constants."""

    def __init__(self, counts: dict[str, int], var_max: dict[str, int | None],
                 exhausted: bool, states: int):
        self.counts = counts
        self.var_max = var_max
        self.exhausted = exhausted
        self.states = states


def _program(dcp: Dcp) -> Build:
    """_build(dcp), kept in dcp's instance dict as a cached_property is."""
    built = vars(dcp).get("_oracle_build")
    if built is None:
        built = vars(dcp)["_oracle_build"] = _build(dcp)
    return built


def _build(dcp: Dcp) -> Build:
    require_valid(dcp)
    outgoing = [sorted(dcp.outgoing(loc), key=lambda t: t.id) for loc in dcp.locations]
    where = {loc: i for i, loc in enumerate(dcp.locations)}
    pos = {t.id: i for i, t in enumerate(dcp.transitions)}
    # transitions share update objects; the program keeps them (and so their
    # ids) alive while this runs
    updates = {id(u): u for t in dcp.transitions for u in t.updates}
    slot = {v: j for j, v in enumerate(dcp.variables)}
    width = len(slot)
    # the read of each slot; an identity copy's value is this very string
    reads = [f"s[{j + 1}]" for j in range(width)]
    param = {c: f"c{i}" for i, c in enumerate(dcp.sym_consts)}  # constant -> parameter

    def compiled(u: DifferenceConstraint) -> tuple[int, str]:
        """(lhs slot, value)"""
        off = int(u.offset)
        if isinstance(u.rhs, str):
            src = reads[slot[u.rhs]]
        elif isinstance(u.rhs, SymConst):
            src = param[u.rhs.name]
        else:
            # hex: compile() refuses a decimal literal past 4300 digits
            return slot[u.lhs], hex(int(u.rhs.value) + off)
        return slot[u.lhs], (src if not off else f"{src} + {off}" if off > 0
                             else f"{src} - {-off}")

    code = {k: compiled(u) for k, u in updates.items()}

    def successor(target: int, row: list[str]) -> str:
        # one flat tuple display, so no nesting grows with the program
        items = [str(target)]
        j = 0
        while j < width:
            k = j
            while k < width and row[k] is reads[k]:
                k += 1
            if k - j >= _SLICE_MIN:
                items.append(f"*s[{j + 1}:{k + 1}]")
            else:
                items += row[j:k + 1]
                k += 1
            j = k
        return f"({', '.join(items)},)"

    kernels = []
    for li, ts in enumerate(outgoing):
        items = []
        for t in ts:
            row = ["None"] * width
            for u in t.updates:
                lhs, row[lhs] = code[id(u)]
            succ = successor(where[t.target], row)
            conds = " and ".join(f"{reads[slot[g]]} > 0" for g in t.guard)
            items.append(f"{succ} if {conds} else None" if conds else succ)
        kernels += [f"    def k{li}(s):", f"        return [{''.join(f'{i}, ' for i in items)}]"]
    folds = []
    for k in sorted({len(ts) for ts in outgoing}):
        folds += [f"def fold{k}({', '.join(f'p{i}' for i in range(k))}):",
                  "    def fold(o, memo, zeros):",
                  f"        ({''.join(f's{i}, ' for i in range(k))}) = o",
                  "        b = None"]
        for i in range(k):
            folds += [f"        if s{i} is not None:",
                      f"            c = list(memo[s{i}] or zeros)",
                      f"            c[p{i}] += 1",
                      "            b = c if b is None else mx(b, c)"]
        folds += ["        return zeros if b is None else tuple(b)", "    return fold"]
    n = len(dcp.transitions)
    source = "\n".join([
        "def mx(b, c):",
        f"    ({''.join(f'b{i}, ' for i in range(n))}) = b",
        f"    ({''.join(f'c{i}, ' for i in range(n))}) = c",
        f"    return [{''.join(f'b{i} if b{i} > c{i} else c{i}, ' for i in range(n))}]",
        *folds,
        f"def factory({', '.join(param.values())}):",
        *kernels,
        f"    return ({''.join(f'k{i}, ' for i in range(len(outgoing)))})",
    ])
    namespace = {"__builtins__": {}, "list": list, "tuple": tuple}
    exec(compile(source, "<dcbound.oracle kernels>", "exec"), namespace)
    defined = defined_at(dcp)
    return (tuple(tuple(slot[v] for v in defined[loc]) for loc in dcp.locations),
            where[dcp.entry], namespace["factory"],
            tuple(namespace[f"fold{len(ts)}"](*(pos[t.id] for t in ts)) for ts in outgoing))


def explore(dcp: Dcp, valuation: Mapping[str, int],
            step_cap: int = DEFAULT_STEP_CAP) -> RunStats:
    """Exhaustive extreme-update exploration from the entry.

    counts[t] is the maximum number of times t occurs on any maximal run;
    var_max[v] the largest value observed for v at locations where v is
    defined on every incoming transition. exhausted is False when the state
    cap was hit or a state cycle was found (counts are then lower bounds).

    `dcp` is a program that `validate` accepts (as `parse_dcp` and
    `abstract_program` return); any other raises DcpError.
    """
    defined, entry, factory, folds = _program(dcp)
    missing = [c for c in dcp.sym_consts if c not in valuation]
    if missing:
        raise ValueError(f"valuation is missing constants: {', '.join(missing)}")
    kernels = factory(*(valuation[c] for c in dcp.sym_consts))
    zeros = (0,) * len(dcp.transitions)
    var_max: list[int | None] = [None] * len(dcp.variables)
    exhausted = True
    states_seen = 0

    # counts by transition position once a state is done; None while it is
    # on the depth-first path (a successor found there closes a cycle)
    memo: dict[State, tuple[int, ...] | None] = {}

    start: State = (entry,) + (None,) * len(dcp.variables)

    # a tuple is a state to visit; a list is the kernel output of the state
    # directly beneath it, whose fold is due once the list is popped
    stack: list[State | list[State | None]] = [start]
    while stack:
        state = stack.pop()
        if type(state) is list:
            # a successor still on the path (cycle) counts the step itself
            succs = state
            state = stack.pop()
            memo[state] = folds[state[0]](succs, memo, zeros)
            continue
        if state in memo:
            continue
        states_seen += 1
        if states_seen > step_cap:
            exhausted = False
            memo[state] = zeros
            continue
        for i in defined[state[0]]:  # never None here: see the module doc
            x = state[i + 1]
            cur = var_max[i]
            if cur is None or x > cur:
                var_max[i] = x
        succs = kernels[state[0]](state)
        memo[state] = None
        stack.append(state)
        stack.append(succs)
        for s in succs:
            if s is None:
                continue
            if s not in memo:
                stack.append(s)
            elif memo[s] is None:
                exhausted = False  # state cycle: unbounded behaviour

    return RunStats(counts={t.id: c for t, c in zip(dcp.transitions, memo[start])},
                    var_max={v: var_max[i] for i, v in enumerate(dcp.variables)},
                    exhausted=exhausted, states=states_seen)


# ---------------------------------------------------------------------------
# soundness checking
# ---------------------------------------------------------------------------

class Verdict(enum.Enum):
    """Declared from best to worst."""

    PASS = "PASS"
    PASS_PARTIAL = "PASS-PARTIAL"
    FAIL = "FAIL"


def worst(verdicts: Iterable[Verdict]) -> Verdict:
    """The worst of `verdicts`: FAIL, then PASS-PARTIAL, then PASS."""
    return max(verdicts, key=list(Verdict).index)


class SoundnessRow(Frozen):
    """One checked bound: `kind` is "TB" or "VB", and `bound` is None when
    the bound is undefined (skipped)."""

    def __init__(self, kind: str, name: str, observed: int | None, bound: int | None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "bound", bound)

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


class SoundnessResult(Record):
    def __init__(self, verdict: Verdict, rows: list[SoundnessRow]):
        self.verdict = verdict
        self.rows = rows


def check_soundness(dcp: Dcp, report: BoundReport,
                    valuation: Mapping[str, int],
                    step_cap: int = DEFAULT_STEP_CAP) -> SoundnessResult:
    """Compare the observed worst-case counts and maxima under one valuation
    of the symbolic constants against the bounds evaluated there.

    PASS: every defined bound dominates the observation and the exploration
    completed. PASS-PARTIAL: no violation, but the exploration was cut off.
    FAIL: at least one violation, with counterexample rows. A sweep checks
    each valuation on its own and folds the verdicts with `worst`.

    One loop makes the TB rows, then the VB rows, each by name: a transition
    the exploration did not count observes 0, and a variable never defined
    anywhere gets no VB row.

    `dcp` is a program that `validate` accepts (as `parse_dcp` and
    `abstract_program` return); any other raises DcpError.
    """
    stats = explore(dcp, valuation, step_cap)
    rows: list[SoundnessRow] = []
    for kind, bounds, observations in (("TB", report.tb, stats.counts),
                                       ("VB", report.vb, stats.var_max)):
        for name, bound in sorted(bounds.items()):
            observed = observations.get(name, 0 if kind == "TB" else None)
            if observed is None:
                continue  # a variable never defined anywhere
            val = None if bound == expr.UNDEFINED else expr.evaluate(bound, valuation)
            rows.append(SoundnessRow(kind, name, observed, val))
    verdict = (Verdict.FAIL if any(r.ok is False for r in rows)
               else Verdict.PASS if stats.exhausted else Verdict.PASS_PARTIAL)
    return SoundnessResult(verdict=verdict, rows=rows)
