"""Randomized soundness checks on generated programs.

Two generators, both seeded: small valid DCPs whose computed bounds must
dominate exhaustive (or capped) exploration in every mode, and small concrete
programs whose abstracted bounds must dominate random concrete runs.
"""

import random

from dcbound import expr
from dcbound.dcp import format_dcp, parse_dcp, validate
from dcbound.engine import Analysis, AnalysisMode
from dcbound.oracle import explore
from dcbound.program import HAVOC, parse_program

MODES = [AnalysisMode.FREE, AnalysisMode.CTX, AnalysisMode.OPT]


# ---------------------------------------------------------------------------
# random DCPs: every transition constrains every variable, entry resets from
# rigid atoms only, so the result is deterministic and well-defined by shape
# ---------------------------------------------------------------------------

def _random_dcp_text(rng: random.Random) -> str:
    n_locs = rng.randint(1, 3)
    locs = [f"l{i}" for i in range(1, n_locs + 1)]
    consts = ["n"] + (["m"] if rng.random() < 0.4 else [])
    variables = ["a", "b", "c"][: rng.randint(1, 3)]

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

    for i in range(rng.randint(1, 4)):
        src = rng.choice(locs)
        tgt = rng.choice(locs)
        updates = []
        for v in variables:
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


def test_random_dcps_bounds_dominate_exploration():
    rng = random.Random(987654)
    for _ in range(60):
        text = _random_dcp_text(rng)
        d = parse_dcp(text)
        assert validate(d) == []
        assert parse_dcp(format_dcp(d)) == d
        reports = [Analysis(d, mode).report() for mode in MODES]
        for valuation in _valuations(d.sym_consts, [0, 2, 3]):
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
