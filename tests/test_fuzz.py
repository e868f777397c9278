"""Randomized soundness checks on generated programs.

Three generators, all seeded: valid DCPs of up to 6 locations, 4 variables
and 10 transitions whose computed bounds must dominate exhaustive (or
capped) exploration in every mode, small concrete programs whose abstracted
bounds must dominate random concrete runs, and nested counting loops whose
abstracted bounds must dominate the longest concrete run in every mode.
"""

import random

from dcbound import expr
from dcbound.dcp import DcpError, format_dcp, parse_dcp, validate
from dcbound.engine import Analysis, AnalysisMode
from dcbound.oracle import explore
from dcbound.program import HAVOC, parse_program

MODES = [AnalysisMode.FREE, AnalysisMode.CTX, AnalysisMode.OPT]


# ---------------------------------------------------------------------------
# random DCPs: entry resets from rigid atoms only, and every transition
# constrains every variable unless `omit` leaves some out; the programs
# `validate` rejects are skipped
# ---------------------------------------------------------------------------

def _random_dcp_text(rng: random.Random, locations=(1, 3), variables=(1, 3),
                     transitions=(1, 4), omit: float = 0.0) -> str:
    """Sizes are drawn from the inclusive ranges given; `omit` is the share
    of updates left out of the transitions after the entry's."""
    n_locs = rng.randint(*locations)
    locs = [f"l{i}" for i in range(1, n_locs + 1)]
    consts = ["n"] + (["m"] if rng.random() < 0.4 else [])
    variables = ["a", "b", "c", "d"][: rng.randint(*variables)]

    lines = ["dcp",
             "consts: " + ", ".join(consts),
             "vars: " + ", ".join(variables),
             "entry: lb",
             "exit: le"]

    entry_updates = []
    for v in variables:
        src = rng.choice(consts + ["0", "1"])
        off = rng.choice(["", " + 1"])
        entry_updates.append(f"{v}' <= {src}{off};")
    lines.append(f"trans t0: lb -> {locs[0]} {{ {' '.join(entry_updates)} }}")

    for i in range(rng.randint(*transitions)):
        src = rng.choice(locs)
        tgt = rng.choice(locs)
        updates = []
        for v in variables:
            if omit and rng.random() < omit:
                continue
            kind = rng.random()
            if kind < 0.5:
                c = rng.randint(-2, 2)
                tail = f" + {c}" if c > 0 else (f" - {-c}" if c < 0 else "")
                updates.append(f"{v}' <= {v}{tail};")
            else:
                other = rng.choice([w for w in variables if w != v]
                                   + consts + ["0"])
                c = rng.randint(-1, 1)
                tail = f" + {c}" if c > 0 else (f" - {-c}" if c < 0 else "")
                updates.append(f"{v}' <= {other}{tail};")
        guard_vars = [v for v in variables if rng.random() < 0.5]
        guard = f" guard({','.join(guard_vars)})" if guard_vars else ""
        lines.append(f"trans t{i + 1}: {src} -> {tgt}{guard} "
                     f"{{ {' '.join(updates)} }}")
    return "\n".join(lines) + "\n"


def _valuations(consts, values):
    out = [dict()]
    for c in consts:
        out = [dict(v, **{c: x}) for v in out for x in values]
    return out


def _assert_bounds_dominate_exploration(d, text, values):
    reports = [Analysis(d, mode).report() for mode in MODES]
    for valuation in _valuations(d.sym_consts, values):
        stats = explore(d, valuation, step_cap=1500)
        # observed counts are exact when exhausted and valid lower
        # bounds otherwise; either way no defined bound may be beaten
        for report in reports:
            for tid, bound in report.tb.items():
                if bound == expr.UNDEFINED:
                    continue
                value = expr.evaluate(bound, valuation)
                assert stats.counts[tid] <= value, (text, tid, valuation)
            for v, bound in report.vb.items():
                if bound == expr.UNDEFINED or stats.var_max.get(v) is None:
                    continue
                value = expr.evaluate(bound, valuation)
                assert stats.var_max[v] <= value, (text, v, valuation)


def test_random_dcps_bounds_dominate_exploration():
    rng = random.Random(987654)
    for _ in range(60):
        text = _random_dcp_text(rng)
        d = parse_dcp(text)
        assert validate(d) == []
        assert parse_dcp(format_dcp(d)) == d
        _assert_bounds_dominate_exploration(d, text, [0, 2, 3])


def test_larger_random_dcps_bounds_dominate_exploration():
    # 3-6 locations, 2-4 variables and 4-10 transitions after the entry's,
    # a tenth of the updates left out
    rng = random.Random(271828)
    checked = 0
    while checked < 150:
        text = _random_dcp_text(rng, locations=(3, 6), variables=(2, 4),
                                transitions=(4, 10), omit=0.1)
        try:
            d = parse_dcp(text)
        except DcpError:
            continue
        checked += 1
        _assert_bounds_dominate_exploration(d, text, [0, 1, 3])


# ---------------------------------------------------------------------------
# random concrete programs: abstracted bounds dominate random concrete runs
# ---------------------------------------------------------------------------

def _random_prog_text(rng: random.Random) -> str:
    lines = ["prog", "params: n", "vars: x, y", "entry: l0", "exit: le"]
    init_x = rng.choice(["0", "n", "1"])
    init_y = rng.choice(["0", "n", "2"])
    lines.append(f"trans t0: l0 -> l1 {{ x := {init_x}; y := {init_y}; }}")
    locs = ["l1", "l2"]
    guards = ["x > 0", "y > 0", "x < n", "y < x", "x >= 1", ""]
    n_trans = rng.randint(1, 4)
    for i in range(n_trans):
        src = rng.choice(locs)
        tgt = rng.choice(locs)
        guard = rng.choice(guards)
        when = f" when {guard}" if guard else ""
        updates = []
        for v in ["x", "y"]:
            kind = rng.random()
            if kind < 0.15:
                updates.append(f"{v} := ?;")
            elif kind < 0.55:
                updates.append(f"{v} := {v} {rng.choice(['-', '+'])} "
                               f"{rng.randint(1, 2)};")
            elif kind < 0.7:
                other = "y" if v == "x" else "x"
                updates.append(f"{v} := {other};")
            elif kind < 0.85:
                updates.append(f"{v} := {rng.choice(['n', '0', '1'])};")
            # else: leave the variable alone (implicit identity)
        lines.append(f"trans t{i + 1}: {src} -> {tgt}{when} "
                     f"{{ {' '.join(updates)} }}")
    return "\n".join(lines) + "\n"


def _random_concrete_run(prog, env0, rng, max_len=60):
    counts = {t.id: 0 for t in prog.transitions}
    loc, env = prog.entry, dict(env0)
    for _ in range(max_len):
        enabled = [t for t in prog.transitions
                   if t.source == loc and t.guard_holds(env)]
        if not enabled:
            break
        t = rng.choice(enabled)
        nxt = dict(env)
        for v, rhs in t.updates:
            nxt[v] = rng.randint(-8, 8) if rhs is HAVOC else rhs.evaluate(env)
        counts[t.id] += 1
        loc, env = t.target, nxt
    return counts


def test_random_programs_abstract_soundly():
    from dcbound.abstraction import abstract_program

    rng = random.Random(24601)
    for _ in range(40):
        text = _random_prog_text(rng)
        prog = parse_program(text)
        result = abstract_program(prog)  # re-validates its own output
        d = result.dcp
        for mode in (AnalysisMode.CTX, AnalysisMode.OPT):
            report = Analysis(d, mode).report()
            for n_value in (0, 2, 3):
                valuation = {"n": n_value}
                for kname, definition in result.derived_consts.items():
                    valuation[kname] = definition.evaluate({"n": n_value})
                for _ in range(50):
                    env0 = {v: rng.randint(-8, 8) for v in prog.variables}
                    env0["n"] = n_value
                    counts = _random_concrete_run(prog, env0, rng)
                    for tid, bound in report.tb.items():
                        if bound == expr.UNDEFINED:
                            continue
                        value = expr.evaluate(bound, valuation)
                        assert counts[tid] <= value, (text, tid, valuation)


# ---------------------------------------------------------------------------
# nested counting loops: abstracted bounds dominate the longest concrete run
# ---------------------------------------------------------------------------

def _nested_counting_text(rng: random.Random) -> str:
    """2-4 nested counters: i1 counts up to n and i_j up to i_(j-1), in
    steps of 1 or 2, sometimes with a parallel step of the other size.
    Entering level j+1 resets i_(j+1) to 0 or to the outer counter's old
    value. With an accumulator a, the innermost step adds one to a, and a
    loop after the nest counts a down."""
    k = rng.randint(2, 4)
    acc = rng.random() < 0.5
    counters = [f"i{j}" for j in range(1, k + 1)]
    lines = ["prog", "params: n",
             "vars: " + ", ".join(counters + ["a"] * acc),
             "entry: l0", "exit: le",
             f"trans t0: l0 -> l1 {{ i1 := 0;{' a := 0;' * acc} }}"]
    for j in range(1, k + 1):
        i, limit = f"i{j}", "n" if j == 1 else f"i{j - 1}"
        for s in rng.sample([1, 2], rng.randint(1, 2)):
            if j < k:
                reset = rng.choice(["0", i])
                body, target = f"{i} := {i} + {s}; i{j + 1} := {reset};", f"l{j + 1}"
            else:
                body, target = f"{i} := {i} + {s};{' a := a + 1;' * acc}", f"l{k}"
            lines.append(f"trans in{j}s{s}: l{j} -> {target} "
                         f"when {i} < {limit} {{ {body} }}")
        if j > 1:
            lines.append(f"trans out{j}: l{j} -> l{j - 1} when {i} >= {limit} {{ }}")
    if acc:
        lines += ["trans done: l1 -> lz when i1 >= n { }",
                  "trans down: lz -> lz when a > 0 { a := a - 1; }",
                  "trans end: lz -> le when a <= 0 { }"]
    else:
        lines.append("trans done: l1 -> le when i1 >= n { }")
    return "\n".join(lines) + "\n"


def _longest_counts(prog, n: int) -> dict[str, int]:
    """For each transition, the most times one run from the entry takes it.
    These programs have no havoc and always terminate, so the reachable
    states form a finite acyclic graph, searched here exhaustively."""
    names = prog.variables
    memo: dict[tuple, dict[str, int]] = {}

    def best(loc, values):
        key = (loc, values)
        if key not in memo:
            env = dict(zip(names, values), n=n)
            out = {t.id: 0 for t in prog.transitions}
            for t in prog.transitions:
                if t.source != loc or not t.guard_holds(env):
                    continue
                updates = t.update_map()
                nxt = tuple(updates[v].evaluate(env) if v in updates else env[v]
                            for v in names)
                counts = dict(best(t.target, nxt))
                counts[t.id] += 1
                out = {tid: max(out[tid], counts[tid]) for tid in out}
            memo[key] = out
        return memo[key]

    return best(prog.entry, (0,) * len(names))


def test_nested_counting_programs_abstract_soundly():
    from dcbound.abstraction import abstract_program

    rng = random.Random(31337)
    for _ in range(40):
        text = _nested_counting_text(rng)
        prog = parse_program(text)
        result = abstract_program(prog)
        reports = [Analysis(result.dcp, mode).report() for mode in MODES]
        for n_value in range(5):
            valuation = {"n": n_value}
            for kname, definition in result.derived_consts.items():
                valuation[kname] = definition.evaluate({"n": n_value})
            counts = _longest_counts(prog, n_value)
            for report in reports:
                for tid, bound in report.tb.items():
                    if bound == expr.UNDEFINED:
                        continue
                    value = expr.evaluate(bound, valuation)
                    assert counts[tid] <= value, (text, tid, valuation)
