"""Scaling record of the frieze side: check, dual and solve on the fan
strip S and its dual strip D, at n = 64, 128 and 256.

    python tests/scaling.py

S is the classical strip of the fan quiddity q = [n-2, 1, 2, ..., 2, 1],
of shape uniform(n, n-2); D, of shape uniform(n, 2), has the columns
[1, q_b, 1, 0, ..., 0] and is the dual of S.  Each op runs in process
on a fresh PeriodicFrieze of a fresh shape, so that every table the
shape builds once is paid, as the CLI pays it once per call; the time
is the best of 2 by time.perf_counter.  "check" is check_frieze and
is_positive, as the check subcommand runs them, "dual" is dual_frieze
and "solve" is recurrence.solution_matrix.

The package is imported from src/ next to this directory.  One record
is appended to BENCH_scaling.json at the repository root: the commit
checked out, whether src/ differs from it (a record made before its own
commit), the Python version, the times in seconds and, per op, the
exponent fitted between n = 128 and n = 256, log2 of their ratio.
pytest does not collect this file: its name does not start with test_.
"""
import json
import math
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from jugglerfrieze import (JugglingFunction, PeriodicFrieze,  # noqa: E402
                           check_frieze, dual_frieze, frieze_from_quiddity,
                           is_positive, solution_matrix)

SIZES = (64, 128, 256)
OPS = {"check": lambda c: (check_frieze(c).ok, is_positive(c)),
       "dual": dual_frieze,
       "solve": solution_matrix}
RECORD = os.path.join(ROOT, "BENCH_scaling.json")


def fan_strips(n: int) -> dict:
    """The values and columns of S and D at period n."""
    q = [n - 2, 1] + [2] * (n - 3) + [1]
    strip = frieze_from_quiddity(q)
    dual = [[1, q[b], 1] + [0] * (n - 2) for b in range(n)]
    return {"S": (strip.shape.values, strip.columns),
            "D": ([b + 2 for b in range(1, n + 1)], dual)}


def best_of_two(op, values, columns) -> float:
    times = []
    for _ in range(2):
        c = PeriodicFrieze(JugglingFunction(values), columns)
        start = time.perf_counter()
        op(c)
        times.append(time.perf_counter() - start)
    return min(times)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main() -> int:
    times = {}
    for n in SIZES:
        for side, (values, columns) in fan_strips(n).items():
            for name, op in OPS.items():
                seconds = best_of_two(op, values, columns)
                times.setdefault(f"{name} {side}", {})[str(n)] = seconds
                print(f"n={n:4d} {name:5s} {side}  {seconds:.4f} s")
    record = {
        "commit": git("rev-parse", "HEAD"),
        "src_differs": bool(git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "times_s": {op: {n: round(t, 5) for n, t in by_n.items()}
                    for op, by_n in times.items()},
        "exponent_128_256": {op: round(math.log2(by_n["256"] / by_n["128"]), 2)
                             for op, by_n in times.items()},
    }
    records = []
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as fh:
            records = json.load(fh)
    records.append(record)
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"appended to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
