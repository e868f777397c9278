"""One timed `dcbound` invocation in a fresh interpreter.

Usage: python3 child.py ARG...   (the arguments of `dcbound`)

Times `import dcbound.cli` and `dcbound.cli.main(argv)` separately, so that
interpreter start-up stays out of both, and prints one JSON object on
stdout: the exit code (or the exception that escaped), both times, the time
of a fixed reference computation run just before and just after `main`, the
process's peak resident set size when `main` returned, and the captured
report.
"""

import io
import json
import resource
import sys
import time


def reference() -> int:
    """Fixed interpreter work, independent of dcbound: small tuples, dict
    updates, a sort and string formatting, like the analyzer's own work.
    Its time is a yardstick of how fast the machine runs Python right now.
    Do not change it: reference-relative metrics are only comparable while
    it stays the same."""
    table: dict[tuple[int, int], int] = {}
    for i in range(30_000):
        key = (i % 101, i % 103)
        table[key] = table.get(key, 0) + i
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return len([f"{a}:{b}" for (a, b), _ in rows])


def timed_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def main() -> None:
    argv = sys.argv[1:]
    real_stdout = sys.stdout
    t0 = time.perf_counter()
    import dcbound.cli
    t1 = time.perf_counter()
    captured = io.StringIO()
    sys.stdout = captured
    code = None
    error = None
    ref_before = timed_reference()
    t2 = time.perf_counter()
    try:
        code = dcbound.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is a failed op
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    t3 = time.perf_counter()
    sys.stdout = real_stdout
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = ref_before + timed_reference()
    json.dump({"code": code, "error": error, "import_s": t1 - t0,
               "main_s": t3 - t2, "ref_s": ref_s, "rss_mb": rss_kib / 1024,
               "module": dcbound.cli.__file__, "stdout": captured.getvalue()},
              real_stdout)


if __name__ == "__main__":
    main()
