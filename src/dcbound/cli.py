"""Command-line interface.

Commands: analyze (bounds + complexity report), abstract (concrete program ->
difference constraint program), validate (compare bounds against exhaustive
concrete exploration), resets (optimal reset paths / DOT export).

Options may come before or after the file. `--opt v` and `--opt=v` are the
same, and so are `-o v` and `-ov`; a long option may be shortened to any
prefix that no other option of the command shares; `--` ends the options.
`-h` prints the help of `dcbound` or of one command.

Exit codes: 0 success or PASS; 1 usage, input/output or parse error, or a
closed stdout; 2 the requested complexity is undefined, or `resets` finds more
optimal reset paths than --max-reset-paths allows; 3 validation did not fully
PASS (FAIL, or PASS-PARTIAL from a capped exploration); 4 internal error (a
fault in dcbound, reported on one stderr line).
"""

from __future__ import annotations

import itertools
import marshal
import os
import re
import sys
import time
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

from dcbound import __version__, expr
from dcbound.abstraction import DEFAULT_DEPTH_LIMIT, AbstractionResult, \
    abstract_program
from dcbound.dcp import Dcp, DcpError, format_dcp, input_format, parse_dcp
from dcbound.engine import Analysis, AnalysisMode, BoundReport
from dcbound.oracle import DEFAULT_STEP_CAP, Verdict, check_soundness, worst
from dcbound.program import parse_program
from dcbound.resetgraph import DEFAULT_RESET_PATH_CAP, ResetPathOverflow, \
    build_reset_graph, optimal_reset_paths, to_dot

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEF = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


def _quote(text: str) -> str:
    """repr() of a command-line value for an error message; of a value past
    60 characters, only of its start, followed by its length."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


# ---------------------------------------------------------------------------
# command line: one option table, read the way argparse reads it
# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    """Converter of the cap and limit options: an integer of 0 or more. Its
    ValueError says what is wrong with the value."""
    n = expr.parse_int(text, f"invalid int value: {text!r}")
    if n < 0:
        raise ValueError(f"must be 0 or more, got {n}")
    return n


class _Option:
    """One row of the option table. `kind` is "flag" (sets True), "value"
    (one argument, through `convert` and `choices`), "list" (one argument
    per use, collected), "help" or "version". `excludes` names an option
    that may not be given with this one."""

    def __init__(self, flags: tuple[str, ...], help: str, kind: str = "flag",
                 metavar: str | None = None, *, default=None, convert=None,
                 choices: tuple[str, ...] = (), excludes: str | None = None):
        self.flags = flags
        self.name = "/".join(flags)  # as error messages name it
        self.dest = flags[-1][2:].replace("-", "_")
        self.help = help
        self.kind = kind
        self.metavar = "{" + ",".join(choices) + "}" if choices else metavar
        self.default = False if kind == "flag" else default
        self.convert = convert
        self.choices = choices
        self.excludes = excludes


_HELP = _Option(("-h", "--help"), "show this help message and exit", "help")
_DEPTH = _Option(("--abstraction-depth",),
                 "max chained norm discoveries before a chain is discarded "
                 f"(default {DEFAULT_DEPTH_LIMIT})",
                 "value", "N", default=DEFAULT_DEPTH_LIMIT, convert=_count)
_KEEP = _Option(("--keep-names",),
                "name abstract variables after their norms, e.g. (l-i)")
_PATHS = _Option(("--max-reset-paths",),
                 f"optimal reset path cap per variable (default {DEFAULT_RESET_PATH_CAP})",
                 "value", "N", default=DEFAULT_RESET_PATH_CAP, convert=_count)
_MODE = _Option(("--mode",), "bound algorithm variant (default ctx)", "value",
                default="ctx", choices=("free", "ctx", "opt"))

# command -> (help, options); each command also takes the input file
_COMMANDS = {
    "analyze": ("compute transition bounds and complexity", (
        _HELP, _DEPTH, _KEEP, _PATHS, _MODE,
        _Option(("--vb",), "also print variable bounds"),
        _Option(("-v", "--verbose"), "print the abstracted program to stderr"),
    )),
    "abstract": ("abstract a .prog file into a .dcp file", (
        _HELP, _DEPTH, _KEEP,
        _Option(("-o", "--output"), "output path (stdout when omitted)",
                "value", "OUT"),
    )),
    "validate": ("check bounds against exhaustive concrete exploration", (
        _HELP, _DEPTH, _KEEP, _PATHS, _MODE,
        _Option(("--assign",),
                "one valuation of the symbolic constants (repeatable)",
                "list", "N=V[,M=V]", excludes="--sweep"),
        _Option(("--sweep",), "cartesian sweep over all constants "
                "(default 0..3 when no --assign is given)",
                "value", "LO..HI", excludes="--assign"),
        _Option(("--max-steps",), f"state cap per valuation (default {DEFAULT_STEP_CAP})",
                "value", "S", default=DEFAULT_STEP_CAP, convert=_count),
        _Option(("--override-bound",), "replace a computed transition bound "
                "before checking (fault-injection/debugging aid)",
                "list", "TRANS=EXPR"),
    )),
    "resets": ("print optimal reset paths or emit DOT", (
        _HELP, _DEPTH, _KEEP, _PATHS,
        _Option(("--dot",), "write the reset graph as DOT", "value", "FILE"),
        _Option(("--var",), "restrict to one variable (repeatable)",
                "list", "V"),
    )),
}
_TOP = (_HELP, _Option(("--version",), "show program's version number and exit", "version"))

_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse's negative number


class _Reader:
    """Reads the command line against one table: the top level (`dcbound`,
    whose one positional argument is the command and all that follows it)
    or one command (whose one positional argument is the file). The grammar
    and the error messages are argparse's, including where it puts a `--`
    and an argument left over."""

    def __init__(self, prog: str, about: str, options: tuple[_Option, ...],
                 positionals: list[tuple[str, str]], metavar: str):
        self.prog = prog
        self.about = about
        self.options = options
        self.positionals = positionals  # (name, help) rows of the help
        self.metavar = metavar  # the positional argument in the usage
        self.flags = {f: o for o in options for f in o.flags}

    def fail(self, message: str):
        sys.stderr.write(self.usage())
        raise _UsageError(message)

    def usage(self) -> str:
        """The usage line, wrapped as argparse wraps it at 80 columns."""
        parts, prev = [self.prog], None
        for o in self.options:
            text = o.flags[0] if o.metavar is None else f"{o.flags[0]} {o.metavar}"
            if prev is not None and o.excludes == prev.flags[0]:
                parts[-1] = f"{parts[-1][:-1]} | {text}]"
            else:
                parts.append(f"[{text}]")
            prev = o
        if len(" ".join(parts)) + len(self.metavar) <= 70:
            return f"usage: {' '.join(parts)} {self.metavar}\n"
        indent = " " * (len(self.prog) + 7)
        lines, line = [], "usage:"
        for part in parts:
            if len(line) + 1 + len(part) > 78:
                lines.append(line)
                line = indent
            line += " " + part
        return "\n".join([*lines, line, f"{indent} {self.metavar}\n"])

    def help(self) -> str:
        """The usage, the description and one row per argument, wrapped at
        80 columns."""
        import textwrap  # only the help needs it
        rows = [*self.positionals, *((", ".join(o.flags) if o.metavar is None
                                      else f"{', '.join(o.flags)} {o.metavar}",
                                      o.help) for o in self.options)]
        width = max(len(name) for name, _ in rows) + 4
        out = [self.usage(), "\n", self.about, "\n\n"]
        for name, text in rows:
            lines = textwrap.wrap(text, 78 - width)
            out.append(f"  {name:{width - 2}}{lines[0]}\n")
            out += [f"{'':{width}}{line}\n" for line in lines[1:]]
        return "".join(out)

    def classify(self, arg: str):
        """None for a positional argument, else (option, flag, the value
        after `=` or after a one-letter flag, or None); the option is None
        when none has this flag."""
        flags = self.flags
        if not arg.startswith("-") or arg == "-":
            return None
        if arg in flags:
            return flags[arg], arg, None
        flag, eq, value = arg.partition("=")
        if eq and flag in flags:
            return flags[flag], flag, value
        if arg[1] == "-":  # a unique prefix of a long option
            found = [(flags[f], f, value if eq else None)
                     for f in flags if f.startswith(flag)]
        else:  # -oFILE; every single-dash flag is one letter
            found = [(flags[f], f, arg[2:]) for f in flags if f == arg[:2]]
        if len(found) > 1:
            self.fail(f"ambiguous option: {arg} could match "
                      f"{', '.join(f for _, f, _ in found)}")
        if found:
            return found[0]
        if _NEGATIVE.match(arg) or " " in arg:
            return None
        return None, arg, None

    def read(self, argv: list[str], values: dict, extras: list[str]):
        """Take the options of argv in order into `values`. The top level
        stops at the command and returns its index (None when there is
        none); a command stores its file. Unknown arguments go to `extras`."""
        kinds = []
        for i, arg in enumerate(argv):
            if arg == "--":  # all that follows is positional
                kinds += ["--"] + [None] * (len(argv) - i - 1)
                break
            kinds.append(self.classify(arg))
        top = self.prog == "dcbound"
        file_at = None
        seen = set()
        i = 0
        while i < len(argv):
            kind = kinds[i]
            if kind is None or kind == "--":
                if top:  # argparse reads a `--` before the command as the command
                    return i if kind is None or i + 1 < len(argv) else None
                if kind is None and file_at is None:
                    values["file"], file_at = argv[i], i
                elif kind is None or file_at is not None and file_at != i - 1:
                    extras.append(argv[i])  # a `--` not next to the file is left over
                i += 1
            else:
                i = self._option(argv, kinds, i, values, seen, extras)
        if not top and file_at is None:
            self.fail("the following arguments are required: file")
        return None

    def _option(self, argv, kinds, i, values, seen, extras) -> int:
        """Take the option at argv[i] (each flag of one like `-vh`) and its
        value; return the index of the argument after them."""
        option, flag, value = kinds[i]
        taken = []
        while True:
            if option is None:
                extras.append(argv[i])
                return i + 1
            if option.kind in ("value", "list"):
                if value is not None:
                    taken.append((option, value))
                    stop = i + 1
                elif i + 1 < len(argv) and kinds[i + 1] is None:
                    taken.append((option, argv[i + 1]))
                    stop = i + 2
                else:
                    self.fail(f"argument {option.name}: expected one argument")
                break
            taken.append((option, None))
            if value is None:
                stop = i + 1
                break
            if flag[1] == "-" or value == "" or f"-{value[0]}" not in self.flags:
                self.fail(f"argument {option.name}: ignored explicit argument {value!r}")
            flag = f"-{value[0]}"
            option, value = self.flags[flag], value[1:] or None
        for option, value in taken:
            self._take(option, value, values, seen)
        return stop

    def _take(self, option: _Option, value, values: dict, seen: set) -> None:
        if option.kind == "help":
            sys.stdout.write(self.help())
            raise SystemExit(0)
        if option.kind == "version":
            print(f"dcbound {__version__}")
            raise SystemExit(0)
        if option.kind == "flag":
            values[option.dest] = True
            return
        if option.convert is not None:
            try:
                value = option.convert(value)
            except ValueError as exc:
                self.fail(f"argument {option.name}: {exc}")
        if option.choices and value not in option.choices:
            self.fail(f"argument {option.name}: invalid choice: {value!r} (choose "
                      f"from {', '.join(map(repr, option.choices))})")
        if option.excludes in seen:
            self.fail(f"argument {option.name}: not allowed with argument "
                      f"{option.excludes}")
        seen.add(option.flags[0])
        if option.kind == "list":
            values[option.dest].append(value)
        else:
            values[option.dest] = value


_READERS = {name: _Reader(f"dcbound {name}", about, options,
                          [("file", "input file whose first line is dcp or prog")], "file")
            for name, (about, options) in _COMMANDS.items()}
_READERS["dcbound"] = _Reader(
    "dcbound", __doc__.strip(), _TOP,
    [(name, about) for name, (about, _) in _COMMANDS.items()],
    "{" + ",".join(_COMMANDS) + "} ...")


def _parse(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: `command`, `file` and one attribute per
    option of the command. A usage error prints the usage line and raises
    _UsageError; -h and --version print and raise SystemExit(0)."""
    top = _READERS["dcbound"]
    extras: list[str] = []
    at = top.read(argv, {}, extras)
    if at is None:
        top.fail("the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        top.fail(f"argument command: invalid choice: {command!r} (choose from "
                 f"{', '.join(map(repr, _COMMANDS))})")
    values = {"command": command, "file": None}
    for o in _COMMANDS[command][1]:
        if o.kind in ("flag", "value"):
            values[o.dest] = o.default
        elif o.kind == "list":
            values[o.dest] = []
    _READERS[command].read(argv[at + 1:], values, extras)
    if extras:
        top.fail(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _spelled(path: str) -> str:
    """`path` as `str(pathlib.Path(path))` spells it on POSIX, which is how
    messages name a file: `./x` is `x`, `a//b` is `a/b`, `x/` is `x` and an
    empty path is `.`; `..` stays. Opening this spelling opens what `Path`
    opens, without importing `pathlib` at start-up."""
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" if path[:1] == "/" else ""
    return root + "/".join(p for p in path.split("/") if p and p != ".") or "."


def _read(args) -> tuple[str, str]:
    """The input file's text and the format its first line names."""
    path = _spelled(args.file)
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read().removeprefix("\ufeff")  # a BOM is no text
    except OSError as exc:
        raise _UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not UTF-8 text: byte {exc.start} "
                          f"({exc.object[exc.start]:#04x})") from None
    return text, input_format(text)


def _write(path: str, text: str) -> None:
    try:
        with open(_spelled(path), "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise _UsageError(str(exc)) from None


def _warn(warnings: Iterable[str]) -> None:
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)


def _abstract(args, text: str) -> AbstractionResult:
    result = abstract_program(parse_program(text),
                              depth_limit=args.abstraction_depth,
                              keep_names=args.keep_names)
    _warn(result.warnings)
    return result


def _load(args) -> tuple[Dcp, AbstractionResult | None]:
    text, fmt = _read(args)
    if fmt == "dcp":
        return parse_dcp(text), None
    result = _abstract(args, text)
    return result.dcp, result


def _report(args, dcp: Dcp) -> BoundReport:
    report = Analysis(dcp, AnalysisMode(args.mode),
                      max_reset_paths=args.max_reset_paths).report()
    _warn(report.warnings)
    return report


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    dcp, abstraction = _load(args)
    if abstraction is not None and args.verbose:
        sys.stderr.write(format_dcp(dcp, abstraction.rename_comment()))
    report = _report(args, dcp)
    sys.stdout.write(report.render(include_vb=args.vb))
    return EXIT_OK if report.complexity != expr.UNDEFINED else EXIT_UNDEF


def _cmd_abstract(args) -> int:
    text, fmt = _read(args)
    if fmt != "prog":
        raise _UsageError("abstract expects a .prog input")
    result = _abstract(args, text)
    out = format_dcp(result.dcp, result.rename_comment())
    if args.output is not None:
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
            raise _UsageError(f"bad assignment {_quote(part)}; expected NAME=VALUE")
        if name in out:
            raise _UsageError(f"assignment {_quote(text)} gives {_quote(name)} twice")
        if name not in consts:
            raise _UsageError(f"assignment {_quote(text)}: {_quote(name)} is not a "
                              f"constant of the program")
        try:
            v = expr.parse_int(value, f"bad value in {_quote(part)}")
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        if v < 0:
            raise _UsageError(f"constants are nonnegative; got {_quote(part)}")
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
                    f"assignment {_quote(raw)} misses constants: {', '.join(missing)}")
            vals.setdefault(tuple(sorted(v.items())), v)
        return list(vals.values())
    lo, hi = 0, 3
    if args.sweep:
        text = args.sweep
        if ".." not in text:
            raise _UsageError("--sweep expects LO..HI")
        a, _, b = text.partition("..")
        try:
            lo, hi = [expr.parse_int(x, "--sweep expects integers LO..HI") for x in (a, b)]
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        if lo < 0 or hi < lo:
            raise _UsageError("--sweep needs 0 <= LO <= HI")
    return (dict(zip(consts, xs))
            for xs in itertools.product(range(lo, hi + 1), repeat=len(consts)))


def _check(dcp: Dcp, report: BoundReport, valuation: dict[str, int],
           step_cap: int) -> tuple[str, str]:
    """The verdict of one valuation and the block that `validate` prints
    for it."""
    result = check_soundness(dcp, report, valuation, step_cap=step_cap)
    header = ", ".join(f"{k}={v}" for k, v in sorted(valuation.items()))
    lines = [f"# {header or '(no constants)'}\n"]
    for row in result.rows:
        bound = "undef" if row.bound is None else expr.int_str(row.bound)
        name = row.name if row.kind == "TB" else f"VB({row.name})"
        lines.append(f"{name}  {expr.int_str(row.observed)}  {bound}  {row.status()}\n")
    return result.verdict.value, "".join(lines)


# A sweep forks its child once its checks have taken this long, since the
# fork costs 1-3 ms. Measured on 2 cores under Python 3.11, `main` of
# `exampleC --sweep 0..39` took 1.12x and of `chain(3) --sweep 0..12`
# 1.23x as long as in one process when forking after 4 ms; after 10 ms no
# op of the validate-sweep benchmark was slower, and `exampleB --sweep
# 0..24` took 0.60x.
_FORK_AFTER_S = 0.010


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _checks(check, valuations: Iterable[dict[str, int]]) -> Iterator[tuple[str, str]]:
    """check(v) for each valuation, in order, on two CPUs when the sweep is
    long. Once the checks have taken _FORK_AFTER_S and two valuations or
    more remain, a forked child checks every second remaining one and sends
    each result through a pipe as one marshal record, None where its check
    raised. This process checks the others, and again each that the child
    could not, so that an error is raised here as in one process. The
    pipe's buffer bounds how far the child runs ahead. There is no fork
    without os.fork, with one CPU, or while another thread runs (from
    Python 3.12 such a fork warns that it may deadlock). The caller closes
    the generator, which kills and reaps the child."""
    valuations = iter(valuations)
    start = time.perf_counter()
    for v in valuations:
        yield check(v)
        if time.perf_counter() - start >= _FORK_AFTER_S:
            break
    head = list(itertools.islice(valuations, 2))  # empty once all are done
    rest = itertools.chain(head, valuations)
    threading = sys.modules.get("threading")
    pid = None
    if (len(head) == 2 and hasattr(os, "fork") and _cpus() > 1
            and (threading is None or threading.active_count() == 1)):
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            os.close(read)
            os.close(write)
    if pid is None:
        yield from map(check, rest)
        return
    if pid == 0:
        # the child leaves by os._exit, so it never flushes the stdio
        # buffers it inherited or runs exit handlers
        try:
            os.close(read)
            with open(write, "wb") as out:
                for v in itertools.islice(rest, 1, None, 2):
                    try:
                        result = check(v)
                    except Exception:
                        result = None
                    marshal.dump(result, out)
                    out.flush()
        finally:
            os._exit(0)
    os.close(write)
    try:
        with open(read, "rb") as results:
            for i, v in enumerate(rest):
                result = None
                if i % 2:
                    try:
                        result = marshal.load(results)
                    except (EOFError, ValueError):  # the child is gone
                        pass
                yield check(v) if result is None else result
    finally:
        import signal  # only a fork needs it
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _cmd_validate(args) -> int:
    dcp, _ = _load(args)
    report = _report(args, dcp)
    for raw in args.override_bound:
        tid, sep, text = raw.partition("=")
        tid = tid.strip()
        if not sep or tid not in report.tb:
            raise _UsageError(f"bad --override-bound {_quote(raw)}")
        try:  # every constant the bound names must be one of the program's
            bound = expr.parse_expr(text)
            expr.evaluate(bound, dict.fromkeys(dcp.sym_consts, 0))
        except expr.ExprParseError as exc:
            raise _UsageError(str(exc)) from None
        except expr.EvaluationError as exc:
            raise _UsageError(f"bad --override-bound {_quote(raw)}: {exc}") from None
        report.tb[tid] = bound
    verdicts = set()
    results = _checks(lambda v: _check(dcp, report, v, args.max_steps),
                      _valuations(args, dcp))
    try:
        for verdict, block in results:
            verdicts.add(Verdict(verdict))
            sys.stdout.write(block)
    finally:
        results.close()
    verdict = worst(verdicts)
    print(verdict.value)
    return EXIT_OK if verdict is Verdict.PASS else EXIT_VALIDATION


def _cmd_resets(args) -> int:
    dcp, _ = _load(args)
    reset = build_reset_graph(dcp)
    _warn(reset.warnings)
    if args.dot is not None:
        _write(args.dot, to_dot(reset.graph))
        return EXIT_OK
    for v in args.var or dcp.variables:
        if v not in dcp.variables:
            raise _UsageError(f"unknown variable {_quote(v)}")
        paths = optimal_reset_paths(dcp, reset.graph, v, args.max_reset_paths)
        print(f"R({v}):")
        for p in paths:
            print(f"  {p}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
            print(f"{args.file}:{d}", file=sys.stderr)
        return EXIT_USAGE
    except ResetPathOverflow as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return EXIT_UNDEF
    except Exception as exc:  # a fault in dcbound, not in its input
        message = str(exc).replace("\n", " ")
        print(f"dcbound: internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
