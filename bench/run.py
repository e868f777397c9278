"""The dcbound benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

An op is one `dcbound analyze ...` or `dcbound validate ...` invocation in a
fresh interpreter (bench/child.py), run one at a time from this process: a
closed loop with one client. Inputs are generated into bench/work/ before
any timing starts. The seed sets the order of ops in each pass and an
alpha-renaming of the identifiers in generated programs. Passes repeat while
the next one is expected to end within S seconds; every op's output is
checked against a reference that does not come from the analyzer
(bench/families.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes with in-process traced replays (bench/tracing.py) and prints the
per-layer metrics. The last line of stdout is one JSON object.
Workloads, metrics and the measured timing noise are described in
bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import families

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DATA = BENCH / "data"
WORK = BENCH / "work"
CHILD = BENCH / "child.py"

OP_TIMEOUT_S = 60.0
REFERENCE_S = 0.040     # nominal time of child.reference(), before + after main
LARGEST_RUNS = 3        # runs of the largest op per pass (one counts in wall_s)
RUN_DEADLINE_S = 150.0  # ops not started by then fail, so the run ends in time


@dataclass
class Op:
    """One CLI invocation with its expected outcome."""

    name: str
    argv: list[str]
    check: Callable[[int | None, str], str | None]  # (exit code, stdout) -> reason
    probe: bool = False  # known-defect probe: reported, not counted
    repeat: bool = False  # extra run of the largest op, not in wall_s


@dataclass
class Outcome:
    op: Op
    main_s: float | None = None
    import_s: float | None = None
    rss_mb: float | None = None
    ref_s: float | None = None   # reference computation, before + after main
    reason: str | None = None    # None when the op passed its check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _write(case: families.Case, workdir: Path) -> str:
    path = workdir / f"{case.name.replace('(', '').replace(')', '')}{case.suffix}"
    path.write_text(case.text)
    return str(path.relative_to(ROOT))


def _analyze_check(case: families.Case) -> Callable[[int | None, str], str | None]:
    def check(code: int | None, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        return families.check_report(case, stdout)
    return check


def _analyze_ops(specs, seed: int, workdir: Path, probe: bool = False,
                 modes=("free", "ctx", "opt")) -> list[Op]:
    ops = []
    for family, k in specs:
        case = families.generate(family, k, seed)
        path = _write(case, workdir)
        for mode in modes:
            ops.append(Op(f"{case.name} {mode}",
                          ["analyze", path, "--vb", "--mode", mode],
                          _analyze_check(case), probe))
    return ops


def _validate_check(code_expected: int, verdict: str, valuations: int,
                    case: families.Case | None):
    """Expected exit code, verdict and number of valuation blocks; for a
    generated program also every TB row's bound value, from the reference."""
    def check(code: int | None, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if code != code_expected:
            return f"exit {code}, expected {code_expected}"
        if not lines or lines[-1] != verdict:
            return f"verdict {lines[-1] if lines else None!r}, expected {verdict}"
        headers = [ln for ln in lines if ln.startswith("# ")]
        if len(headers) != valuations:
            return f"{len(headers)} valuations, expected {valuations}"
        if case is None:
            return None
        n = None
        for ln in lines[:-1]:
            if ln.startswith("# n="):
                n = int(ln[4:]) if ln[4:].isdigit() else None
                continue
            fields = ln.split()
            if len(fields) != 4 or n is None:
                return f"unexpected row {ln!r}"
            name, bound = fields[0], fields[2]
            if name in case.tb and bound != str(case.tb[name](n)):
                return f"{name} bound {bound} at n={n}, expected {case.tb[name](n)}"
        return None
    return check


def _validate_op(label: str, path: str, args: list[str], code: int,
                 verdict: str, valuations: int,
                 case: families.Case | None = None) -> Op:
    return Op(f"{label} {' '.join(args)}", ["validate", path, *args],
              _validate_check(code, verdict, valuations, case))


def _cross_layer_op(seed: int, workdir: Path) -> Op:
    """A small op that calls every layer, in every workload, so that no
    layer's traced time is 0 by construction; it costs about 1% of a pass."""
    case = families.generate("prognest", 2, seed)
    return _validate_op("prognest(2)", _write(case, workdir),
                        ["--mode", "opt", "--sweep", "0..4"], 0, "PASS", 5)


def analyze_wide(seed: int, workdir: Path) -> list[Op]:
    specs = [("seq", 20), ("seq", 40), ("seq", 80), ("long", 200),
             ("long", 400), ("branchy", 10), ("branchy", 12)]
    probes = [("long", 1000), ("branchy", 14)]
    return (_analyze_ops(specs, seed, workdir) + [_cross_layer_op(seed, workdir)]
            + _analyze_ops(probes, seed, workdir, probe=True, modes=("ctx",)))


def analyze_deep(seed: int, workdir: Path) -> list[Op]:
    specs = [("chain", 30), ("chain", 60), ("chain", 90), ("prognest", 5),
             ("prognest", 6), ("prognest", 7)]
    return _analyze_ops(specs, seed, workdir) + [_cross_layer_op(seed, workdir)]


def validate_sweep(seed: int, workdir: Path) -> list[Op]:
    def data(name: str) -> str:
        return str((DATA / name).relative_to(ROOT))

    chain3 = families.generate("chain", 3, seed)
    seq12 = families.generate("seq", 12, seed)
    return [
        # few valuations, deep exploration
        _validate_op("example1", data("example1.dcp"), ["--sweep", "0..30"],
                     0, "PASS", 31),
        _validate_op("exampleB", data("exampleB.dcp"), ["--sweep", "0..24"],
                     0, "PASS", 25),
        _validate_op("example3", data("example3.prog"), ["--sweep", "0..16"],
                     0, "PASS", 17),
        # many cheap valuations
        _validate_op("example2", data("example2.dcp"), ["--sweep", "0..9"],
                     0, "PASS", 1000),
        _validate_op("exampleC", data("exampleC.dcp"), ["--sweep", "0..39"],
                     0, "PASS", 40),
        _validate_op("chain(3)", _write(chain3, workdir), ["--sweep", "0..12"],
                     0, "PASS", 13, chain3),
        _validate_op("seq(12)", _write(seq12, workdir), ["--sweep", "0..40"],
                     0, "PASS", 41, seq12),
        # capped exploration of an unbounded program
        _validate_op("cyclic", data("cyclic.dcp"),
                     ["--assign", "n=2", "--max-steps", "50000"],
                     3, "PASS-PARTIAL", 1),
        _cross_layer_op(seed, workdir),
    ]


WORKLOADS = {
    "analyze-wide": (analyze_wide, "seq(80) opt"),
    "analyze-deep": (analyze_deep, "prognest(7) ctx"),
    "validate-sweep": (validate_sweep, "exampleB --sweep 0..24"),
}

END_TO_END = {  # name -> unit
    "wall_s": "s", "largest_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
    "ok_ratio": "fraction",
}


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every op
    # Ops import from cached bytecode, as an installed package does; the
    # first import (check_program) writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], timeout: float) -> tuple[dict | None, str | None]:
    """Run bench/child.py; returns its JSON record or a failure reason."""
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timeout after {timeout:.0f} s"
    try:
        record = json.loads(proc.stdout)
    except json.JSONDecodeError:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"child exit {proc.returncode}: {tail[0][:200]}"
    return record, None


def run_op(op: Op, timeout: float) -> Outcome:
    record, reason = run_child(op.argv, timeout)
    if record is None:
        return Outcome(op, reason=reason)
    out = Outcome(op, main_s=record["main_s"], import_s=record["import_s"],
                  rss_mb=record["rss_mb"], ref_s=record["ref_s"])
    out.reason = record["error"] or op.check(record["code"], record["stdout"])
    return out


def check_program() -> None:
    """Compile and import the program from this checkout's src/, untimed;
    exit 2 without a result when it is not there."""
    record, reason = run_child(["--version"], OP_TIMEOUT_S)
    src = ROOT / "src"
    if record is None or not record["module"].startswith(str(src)):
        print(f"bench: cannot import dcbound from {src}: "
              f"{reason or record['module']}", file=sys.stderr)
        sys.exit(2)


def run_pass(ops: list[Op], rng: random.Random, started: float) -> list[Outcome]:
    order = list(ops)
    rng.shuffle(order)
    outcomes = []
    for op in order:
        left = RUN_DEADLINE_S - (time.perf_counter() - started)
        if left <= 0:
            outcomes.append(Outcome(op, reason="not started: run deadline"))
            continue
        outcomes.append(run_op(op, min(OP_TIMEOUT_S, left)))
    return outcomes


# ---------------------------------------------------------------------------
# statistics and output
# ---------------------------------------------------------------------------

def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above
    it, or None when there are too few samples."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def describe(values: list[float]) -> str:
    hp = high_percentile(values)
    extra = f", p{hp[0]} {hp[1]:.4g}" if hp else ""
    return f"median of {len(values)}{extra}"


def latency(o: Outcome) -> float:
    """An op that never finished counts as taking the whole timeout."""
    return OP_TIMEOUT_S if o.main_s is None else o.main_s


def pass_wall(outcomes: list[Outcome]) -> float:
    return sum(latency(o) for o in outcomes if not o.op.probe and not o.op.repeat)


def end_to_end(passes: list[list[Outcome]], largest: str) -> dict[str, tuple[float, str]]:
    """metric -> (value, how it was summarised).

    Times are in seconds at the reference speed: each measured time is
    multiplied by REFERENCE_S over the time the reference computation took
    in the same process, so a change of the machine's speed between or
    during runs cancels out while a change of dcbound's speed does not.
    wall_s is one pass with each op at its median over the run's passes: a
    slow spell that hits one pass moves a median per op less than that
    pass's sum.
    """
    counted = [o for p in passes for o in p if not o.op.probe]
    ref = statistics.median(o.ref_s for o in counted if o.ref_s is not None)

    def scaled(o: Outcome, seconds: float) -> float:
        return seconds * REFERENCE_S / (o.ref_s or ref)

    measured: dict[str, list[float]] = {}
    per_op: dict[str, list[float]] = {}
    for o in counted:
        if not o.op.repeat:  # wall_s: each op once per pass
            measured.setdefault(o.op.name, []).append(latency(o))
            per_op.setdefault(o.op.name, []).append(scaled(o, latency(o)))
    big = [o for o in counted if o.op.name == largest]
    big_scaled = [scaled(o, latency(o)) for o in big]
    imports = [o for p in passes for o in p if o.import_s is not None]
    setup = [scaled(o, o.import_s) for o in imports]
    rss = [max((o.rss_mb for o in p if o.rss_mb is not None and not o.op.probe),
               default=0.0) for p in passes]
    failed = sum(o.reason is not None for o in counted)
    return {
        "wall_s": (sum(statistics.median(v) for v in per_op.values()),
                   f"{len(per_op)} op medians of {len(passes)} passes; measured "
                   f"{sum(statistics.median(v) for v in measured.values()):.4g} s, "
                   f"reference {ref:.4g} s"),
        "largest_s": (statistics.median(big_scaled),
                      f"{describe(big_scaled)} runs; measured "
                      f"{statistics.median(latency(o) for o in big):.4g} s"),
        "setup_s": (statistics.median(setup),
                    f"{describe(setup)} imports; measured "
                    f"{statistics.median(o.import_s for o in imports):.4g} s"),
        "peak_rss_mb": (statistics.median(rss), describe(rss) + " passes"),
        "ok_ratio": (1 - failed / len(counted),
                     f"{len(counted) - failed} of {len(counted)} ops passed"),
    }


def failures(passes: list[list[Outcome]]) -> list[str]:
    """Each failing op with its reason and how often it failed."""
    seen: dict[str, int] = {}
    for outcomes in passes:
        for o in outcomes:
            if o.reason is not None:
                key = f"{'probe ' if o.op.probe else ''}{o.op.name}: {o.reason}"
                seen[key] = seen.get(key, 0) + 1
    return [f"{k} (x{v})" for k, v in seen.items()]


def print_table(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:28} {value:>14.6g} {unit:9} {note}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    check_program()
    build, largest = WORKLOADS[args.workload]
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    ops = build(args.seed, workdir)
    ops += [replace(op, repeat=True) for op in ops if op.name == largest
            for _ in range(LARGEST_RUNS - 1)]
    rng = random.Random(f"order-{args.seed}")
    if args.trace:
        sys.path.insert(0, str(ROOT / "src"))
        import tracing

    # Passes repeat while the next one, at the mean pass time so far, is
    # expected to end within --seconds; the first always runs.
    passes, traced, pass_times = [], [], []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started
                         + statistics.mean(pass_times) <= args.seconds):
        begin = time.perf_counter()
        passes.append(run_pass(ops, rng, started))
        if args.trace:
            traced.append(tracing.replay([op for op in ops
                                          if not op.probe and not op.repeat],
                                         rng, OP_TIMEOUT_S))
        pass_times.append(time.perf_counter() - begin)

    counted = [o for p in passes for o in p if not o.op.probe]
    attempted = len(counted) + sum(t.attempted for t in traced)
    failed = sum(o.reason is not None for o in counted) + sum(t.failed for t in traced)
    if args.trace:
        probe_failures = [sum(o.reason is not None for o in p if o.op.probe)
                          for p in passes]
        layers = tracing.summarise(traced, statistics.median(map(pass_wall, passes)),
                                   statistics.median(probe_failures))
        tracing.write_spans(traced, WORK / f"trace-{args.workload}.jsonl")
        print_table(f"{args.workload} seed {args.seed}: per layer, median of "
                    f"{len(traced)} traced passes",
                    [(k, v, u, "") for k, (v, u) in layers.items()])
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        e2e = end_to_end(passes, largest)
        print_table(f"{args.workload} seed {args.seed}: end to end "
                    f"(largest op {largest})",
                    [(k, v, END_TO_END[k], note) for k, (v, note) in e2e.items()])
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in e2e.items()}
    for line in failures(passes) + [f"traced {f}" for t in traced for f in t.failures]:
        print(f"  failed: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
