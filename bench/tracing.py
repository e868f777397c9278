"""Traced in-process replay: spans around the calls into each layer.

The spans are recorded by the benchmark, not by the program. `_patches`
swaps each layer's public functions, at the names their callers look them
up by, for wrappers that record a span (name, start, end, parent span, op)
and the counts of what the call returned. `dcbound.cli.main` then runs each
op unchanged, so the layers are called in the order the CLI calls them.
Spans stay in memory until `write_spans` saves them at the end of the run.

Two departures from an untraced op, both outside the timed layers' own
code: `check_soundness` is called with `workers=1`, so every exploration
runs on this thread and nests under its caller's span; and after `main`
returns, every bound of the op's reports is printed (`expr.render`) and
parsed back (`expr.reparse`) by the benchmark, so that printing is measured
the same way for `analyze` and `validate` ops.
"""

from __future__ import annotations

import io
import json
import signal
import statistics
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import dcbound.cli
import dcbound.engine
import dcbound.expr
import dcbound.oracle
import dcbound.resetgraph

# metric -> unit, in the order they are printed
LAYER_METRICS = {
    "dcp.parse_s": "s", "dcp.transitions": "count", "dcp.updates": "count",
    "program.parse_s": "s", "abstraction.abstract_s": "s",
    "abstraction.vars": "count", "abstraction.warnings": "count",
    "localbounds.cycles_s": "s", "localbounds.cycles": "count",
    "localbounds.map_s": "s",
    "resetgraph.build_s": "s", "resetgraph.edges": "count",
    "resetgraph.paths_s": "s", "resetgraph.paths": "count",
    "resetgraph.path_count_s": "s",
    "engine.init_s": "s", "engine.report_s": "s", "engine.undef_bounds": "count",
    "expr.nodes_max": "count", "expr.nodes_total": "count",
    "expr.render_s": "s", "expr.reparse_s": "s", "expr.evaluate_s": "s",
    "oracle.check_s": "s", "oracle.explore_s": "s", "oracle.states": "count",
    "oracle.states_per_s": "1/s", "oracle.capped": "count",
    "cli.main_s": "s", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio", "probe.failures": "count",
}


class _Timeout(Exception):
    pass


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.reports: list = []
        self.op = 0
        self.op_names: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(self, result)
            return result
        return traced


class _OracleExpr:
    """`dcbound.expr` as the oracle sees it, with `evaluate` traced; calls
    from inside the expr module stay untraced."""

    def __init__(self, evaluate):
        self.evaluate = evaluate

    def __getattr__(self, name):
        return getattr(dcbound.expr, name)


def _count_parse(t: Tracer, dcp) -> None:
    t.counts["dcp.transitions"] += len(dcp.transitions)
    t.counts["dcp.updates"] += sum(len(tr.updates) for tr in dcp.transitions)


def _count_abstract(t: Tracer, result) -> None:
    t.counts["abstraction.vars"] += len(result.dcp.variables)
    t.counts["abstraction.warnings"] += len(result.warnings)


def _count_report(t: Tracer, report) -> None:
    t.reports.append(report)
    bounds = list(report.tb.values()) + list(report.vb.values())
    t.counts["engine.undef_bounds"] += sum(b == dcbound.expr.UNDEFINED for b in bounds)


def _count_explore(t: Tracer, stats) -> None:
    t.counts["oracle.states"] += stats.states
    t.counts["oracle.capped"] += not stats.exhausted


def _serial(check_soundness):
    def call(*args, **kwargs):
        if "workers" in kwargs:
            kwargs["workers"] = 1
        return check_soundness(*args, **kwargs)
    return call


def _patches(t: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, traced replacement) for every layer boundary."""
    cli, engine, rg = dcbound.cli, dcbound.engine, dcbound.resetgraph
    wanted = [
        (cli, "parse_dcp", "dcp.parse", _count_parse),
        (cli, "parse_program", "program.parse", None),
        (cli, "abstract_program", "abstraction.abstract", _count_abstract),
        (cli, "Analysis", "engine.init", None),
        (engine, "build_reset_graph", "resetgraph.build",
         lambda t, r: t.counts.update({"resetgraph.edges": len(r.graph.edges)})),
        (engine, "simple_cycles", "localbounds.cycles",
         lambda t, r: t.counts.update({"localbounds.cycles": len(r)})),
        (engine, "local_bound_map", "localbounds.map", None),
        (engine, "optimal_reset_paths", "resetgraph.paths",
         lambda t, r: t.counts.update({"resetgraph.paths": len(r)})),
        (rg.ResetGraph, "path_count", "resetgraph.path_count", None),
        (engine.Analysis, "report", "engine.report", _count_report),
        (cli, "check_soundness", "oracle.check", None),
        (dcbound.oracle, "explore", "oracle.explore", _count_explore),
    ]
    out = []
    for owner, attr, name, count in wanted:
        fn = getattr(owner, attr, None)
        if fn is None:  # the layer no longer has this entry point
            continue
        if attr == "check_soundness":
            fn = _serial(fn)
        out.append((owner, attr, t.wrap(name, fn, count)))
    if hasattr(dcbound.expr, "evaluate"):
        out.append((dcbound.oracle, "expr", _OracleExpr(
            t.wrap("expr.evaluate", dcbound.expr.evaluate))))
    return out


@contextmanager
def _installed(t: Tracer):
    patches = _patches(t)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, fn in patches:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def _nodes(e) -> int:
    total, stack = 0, [e]
    while stack:
        node = stack.pop()
        total += 1
        for attr in ("terms", "factors", "args"):
            stack.extend(getattr(node, attr, ()))
    return total


def _alarm(signum, frame):
    raise _Timeout()


def replay(ops, order_rng, timeout_s: float) -> Tracer:
    """One traced pass over `ops` (bench/run.py `Op`s) in a seeded order."""
    t = Tracer()
    order = list(ops)
    order_rng.shuffle(order)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        with _installed(t):
            for op in order:
                t.op = len(t.op_names)
                t.op_names.append(op.name)
                t.reports.clear()
                t.attempted += 1
                out, err = io.StringIO(), io.StringIO()
                main = t.wrap("cli.main", dcbound.cli.main)
                signal.setitimer(signal.ITIMER_REAL, timeout_s)
                try:
                    with redirect_stdout(out), redirect_stderr(err):
                        code = main(list(op.argv))
                    reason = op.check(code, out.getvalue())
                except _Timeout:
                    reason = f"timeout after {timeout_s:.0f} s"
                except Exception as exc:  # an escaped exception is a failed op
                    reason = f"{type(exc).__name__}: {str(exc)[:200]}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if reason is not None:
                    t.failed += 1
                    t.failures.append(f"{op.name}: {reason}")
                _reparse(t)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return t


def _reparse(t: Tracer) -> None:
    """Node counts of the op's bounds; each bound printed, then parsed back."""
    bounds = [b for r in t.reports
              for b in [*r.tb.values(), *r.vb.values(), r.complexity]]
    for b in bounds:
        n = _nodes(b)
        t.counts["expr.nodes_total"] += n
        t.counts["expr.nodes_max"] = max(t.counts["expr.nodes_max"], n)
    texts = t.wrap("expr.render", lambda: [str(b) for b in bounds])()
    t.wrap("expr.reparse", lambda: [dcbound.expr.parse_expr(s) for s in texts])()


def layer_values(t: Tracer, untraced_wall_s: float,
                 probe_failures: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass. Times are inclusive span
    durations summed over the pass; cli.self_s is `main` minus the spans
    directly under it."""
    busy: Counter[str] = Counter()
    child_time: Counter[int] = Counter()
    for name, start, end, parent, _ in t.spans:
        busy[name] += end - start
        if parent is not None:
            child_time[parent] += end - start
    self_s = sum(end - start - child_time[i]
                 for i, (name, start, end, _, _) in enumerate(t.spans)
                 if name == "cli.main")
    values = dict.fromkeys(LAYER_METRICS, 0.0)
    for name, seconds in busy.items():
        values[f"{name}_s"] = seconds
    for name, n in t.counts.items():
        values[name] = float(n)
    values["oracle.states_per_s"] = (values["oracle.states"] / values["oracle.explore_s"]
                                     if values["oracle.explore_s"] else 0.0)
    values["cli.self_s"] = self_s
    values["trace.overhead_ratio"] = values["cli.main_s"] / untraced_wall_s
    values["probe.failures"] = probe_failures
    return values


def summarise(passes: list[Tracer], untraced_wall_s: float,
              probe_failures: float) -> dict[str, tuple[float, str]]:
    """metric -> (median over traced passes, unit)."""
    per_pass = [layer_values(t, untraced_wall_s, probe_failures) for t in passes]
    return {m: (statistics.median(v[m] for v in per_pass), unit)
            for m, unit in LAYER_METRICS.items()}


def write_spans(passes: list[Tracer], path: Path) -> None:
    """One JSON line per op (its name) and per span:
    [pass, name, start, end, parent, op]."""
    with path.open("w") as f:
        for p, t in enumerate(passes):
            f.write(json.dumps({"pass": p, "ops": t.op_names}) + "\n")
            for name, start, end, parent, op in t.spans:
                f.write(json.dumps([p, name, round(start, 7), round(end, 7),
                                    parent, op]) + "\n")
