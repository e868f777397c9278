"""Command-line interface.

Commands: analyze (bounds + complexity report), abstract (concrete program ->
difference constraint program), validate (compare bounds against exhaustive
concrete exploration), resets (optimal reset paths / DOT export).

Exit codes: 0 success or PASS; 1 usage, input/output or parse error, or a
closed stdout; 2 the requested complexity is undefined, or `resets` finds more
optimal reset paths than --max-reset-paths allows; 3 validation did not fully
PASS (FAIL, or PASS-PARTIAL from a capped exploration); 4 internal error (a
fault in dcbound, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path
from typing import Iterable

from dcbound import __version__, expr
from dcbound.abstraction import DEFAULT_DEPTH_LIMIT, AbstractionResult, \
    abstract_program
from dcbound.dcp import Dcp, DcpError, format_dcp, input_format, parse_dcp
from dcbound.engine import Analysis, AnalysisMode
from dcbound.oracle import DEFAULT_STEP_CAP, Verdict, check_soundness
from dcbound.program import parse_program
from dcbound.resetgraph import DEFAULT_RESET_PATH_CAP, ResetPathOverflow, \
    build_reset_graph, optimal_reset_paths, to_dot

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEF = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to status 2; we use 1
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _count(text: str) -> int:
    """argparse type of the cap and limit flags: an integer of 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {n}")
    return n


def _build_parser() -> _Parser:
    p = _Parser(prog="dcbound", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"dcbound {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, analysis=True):
        sp.add_argument("file", help="input file whose first line is dcp or prog")
        sp.add_argument("--abstraction-depth", type=_count,
                        default=DEFAULT_DEPTH_LIMIT, metavar="N",
                        help="max chained norm discoveries before a chain "
                             f"is discarded (default {DEFAULT_DEPTH_LIMIT})")
        sp.add_argument("--keep-names", action="store_true",
                        help="name abstract variables after their norms, "
                             "e.g. (l-i)")
        if analysis:
            sp.add_argument("--max-reset-paths", type=_count, metavar="N",
                            default=DEFAULT_RESET_PATH_CAP,
                            help="optimal reset path cap per variable "
                                 f"(default {DEFAULT_RESET_PATH_CAP})")

    a = sub.add_parser("analyze", help="compute transition bounds and complexity")
    common(a)
    a.add_argument("--mode", default="ctx", choices=["free", "ctx", "opt"],
                   help="bound algorithm variant (default ctx)")
    a.add_argument("--vb", action="store_true", help="also print variable bounds")
    a.add_argument("-v", "--verbose", action="store_true",
                   help="print the abstracted program to stderr")

    b = sub.add_parser("abstract", help="abstract a .prog file into a .dcp file")
    common(b, analysis=False)
    b.add_argument("-o", "--output", metavar="OUT",
                   help="output path (stdout when omitted)")

    c = sub.add_parser("validate",
                       help="check bounds against exhaustive concrete exploration")
    common(c)
    c.add_argument("--mode", default="ctx", choices=["free", "ctx", "opt"])
    one_of = c.add_mutually_exclusive_group()
    one_of.add_argument("--assign", action="append", default=[], metavar="N=V[,M=V]",
                        help="one valuation of the symbolic constants (repeatable)")
    one_of.add_argument("--sweep", metavar="LO..HI",
                        help="cartesian sweep over all constants (default 0..3 "
                             "when no --assign is given)")
    c.add_argument("--max-steps", type=_count, default=DEFAULT_STEP_CAP, metavar="S",
                   help=f"state cap per valuation (default {DEFAULT_STEP_CAP})")
    c.add_argument("--override-bound", action="append", default=[],
                   metavar="TRANS=EXPR",
                   help="replace a computed transition bound before checking "
                        "(fault-injection/debugging aid)")

    d = sub.add_parser("resets", help="print optimal reset paths or emit DOT")
    common(d)
    d.add_argument("--dot", metavar="FILE", help="write the reset graph as DOT")
    d.add_argument("--var", action="append", default=[], metavar="V",
                   help="restrict to one variable (repeatable)")
    return p


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _read(args) -> tuple[str, str]:
    """The input file's text and the format its first line names."""
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not UTF-8 text: byte {exc.start} "
                          f"({exc.object[exc.start]:#04x})") from None
    return text, input_format(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageError(str(exc)) from None


def _abstract(args, text: str) -> AbstractionResult:
    result = abstract_program(parse_program(text),
                              depth_limit=args.abstraction_depth,
                              keep_names=args.keep_names)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return result


def _load(args) -> tuple[Dcp, AbstractionResult | None]:
    text, fmt = _read(args)
    if fmt == "dcp":
        return parse_dcp(text), None
    result = _abstract(args, text)
    return result.dcp, result


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    dcp, abstraction = _load(args)
    if abstraction is not None and args.verbose:
        sys.stderr.write(format_dcp(dcp, abstraction.rename_comment()))
    analysis = Analysis(dcp, AnalysisMode(args.mode),
                        max_reset_paths=args.max_reset_paths)
    report = analysis.report()
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    sys.stdout.write(report.render(include_vb=args.vb))
    return EXIT_OK if report.complexity != expr.UNDEFINED else EXIT_UNDEF


def _cmd_abstract(args) -> int:
    text, fmt = _read(args)
    if fmt != "prog":
        raise _UsageError("abstract expects a .prog input")
    result = _abstract(args, text)
    out = format_dcp(result.dcp, result.rename_comment())
    if args.output:
        _write(args.output, out)
    else:
        sys.stdout.write(out)
    return EXIT_OK


def _parse_assign(text: str, consts: list[str]) -> dict[str, int]:
    out = {}
    for part in text.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _UsageError(f"bad assignment {part!r}; expected NAME=VALUE")
        if name in out:
            raise _UsageError(f"assignment {text!r} gives {name!r} twice")
        if name not in consts:
            raise _UsageError(f"assignment {text!r}: {name!r} is not a "
                              f"constant of the program")
        try:
            v = int(value)
        except ValueError:
            raise _UsageError(f"bad value in {part!r}") from None
        if v < 0:
            raise _UsageError(f"constants are nonnegative; got {part!r}")
        out[name] = v
    return out


def _valuations(args, dcp: Dcp) -> Iterable[dict[str, int]]:
    """The --assign valuations, or the --sweep ones made lazily in order."""
    consts = list(dcp.sym_consts)
    if args.assign:
        vals: dict[tuple, dict[str, int]] = {}  # each valuation once, first seen first
        for raw in args.assign:
            v = _parse_assign(raw, consts)
            missing = [c for c in consts if c not in v]
            if missing:
                raise _UsageError(
                    f"assignment {raw!r} misses constants: {', '.join(missing)}")
            vals.setdefault(tuple(sorted(v.items())), v)
        return list(vals.values())
    lo, hi = 0, 3
    if args.sweep:
        text = args.sweep
        if ".." not in text:
            raise _UsageError("--sweep expects LO..HI")
        a, _, b = text.partition("..")
        try:
            lo, hi = int(a), int(b)
        except ValueError:
            raise _UsageError("--sweep expects integers LO..HI") from None
        if lo < 0 or hi < lo:
            raise _UsageError("--sweep needs 0 <= LO <= HI")
    return (dict(zip(consts, xs))
            for xs in itertools.product(range(lo, hi + 1), repeat=len(consts)))


def _cmd_validate(args) -> int:
    dcp, _ = _load(args)
    analysis = Analysis(dcp, AnalysisMode(args.mode),
                        max_reset_paths=args.max_reset_paths)
    report = analysis.report()
    for raw in args.override_bound:
        tid, sep, text = raw.partition("=")
        tid = tid.strip()
        if not sep or tid not in report.tb:
            raise _UsageError(f"bad --override-bound {raw!r}")
        bound = expr.parse_expr(text)
        try:  # every constant the bound names must be one of the program's
            expr.evaluate(bound, dict.fromkeys(dcp.sym_consts, 0))
        except expr.EvaluationError as exc:
            raise _UsageError(f"bad --override-bound {raw!r}: {exc}") from None
        report.tb[tid] = bound
    verdicts = set()
    for valuation in _valuations(args, dcp):
        result = check_soundness(dcp, report, [valuation], step_cap=args.max_steps)
        verdicts.add(result.verdict)
        header = ", ".join(f"{k}={v}" for k, v in sorted(valuation.items()))
        print(f"# {header or '(no constants)'}")
        for row in result.rows:
            bound = "undef" if row.bound is None else str(row.bound)
            name = row.name if row.kind == "TB" else f"VB({row.name})"
            print(f"{name}  {row.observed}  {bound}  {row.status()}")
    # the worst verdict is that of one check over every valuation
    verdict = max(verdicts, key=[Verdict.PASS, Verdict.PASS_PARTIAL, Verdict.FAIL].index)
    print(verdict.value)
    return EXIT_OK if verdict is Verdict.PASS else EXIT_VALIDATION


def _cmd_resets(args) -> int:
    dcp, _ = _load(args)
    reset = build_reset_graph(dcp)
    if reset.removed_vars:
        print("removed (reset cycles): " + ", ".join(sorted(reset.removed_vars)),
              file=sys.stderr)
    if args.dot:
        _write(args.dot, to_dot(reset.graph))
        return EXIT_OK
    names = args.var or [v for v in reset.pruned.variables]
    for v in names:
        if v not in reset.pruned.variables:
            raise _UsageError(f"unknown variable {v!r}")
        paths = optimal_reset_paths(reset.pruned, reset.graph, v,
                                    args.max_reset_paths)
        print(f"R({v}):")
        for p in paths:
            print(f"  {p}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "analyze": _cmd_analyze,
            "abstract": _cmd_abstract,
            "validate": _cmd_validate,
            "resets": _cmd_resets,
        }[args.command]
        code = handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: stop quietly, and point stdout at devnull so
        # that the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"dcbound: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DcpError as exc:
        for d in exc.diagnostics:
            print(f"{getattr(args, 'file', '<input>')}:{d}", file=sys.stderr)
        return EXIT_USAGE
    except ResetPathOverflow as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_UNDEF
    except expr.ExprParseError as exc:
        print(f"dcbound: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in dcbound, not in its input
        message = str(exc).replace("\n", " ")
        print(f"dcbound: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
