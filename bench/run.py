"""Closed-loop benchmark of the jugglerfrieze command line, in process.

    python3 bench/run.py --workload uniform-strips --seed 1 --seconds 30 --trace 0

One client calls ``jugglerfrieze.cli.main(argv)`` with no threads, the
next operation starting when the previous one returns; running in
process keeps interpreter start-up out of every operation.  A run

1. sets up several times (import the package from ``src/``, generate
   and certify the seeded inputs, write them) and checks every
   repetition wrote the same bytes;
2. runs one warm pass and verifies every output against identities
   independent of the code under test (``workloads``, ``oracles``);
3. measures whole passes for ``--seconds``; each later output must
   repeat the verified one byte for byte.  With ``--trace 1`` traced and
   untraced passes alternate, and the traced ones give the per-layer
   counts and self times (``tracing``).

Times are scaled for host speed, measured by a fixed reference workload
run between passes (see ``HostClock``); the report lines also give the
unscaled end-to-end times.

Human-readable lines come first: the per-subcommand time of a pass,
the error rate and, when traced, every per-layer metric and, for
uniform-strips, the per-period table of fan-strip function times in
the layout of the ROADMAP baseline table.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every operation
verified, 2 when the benchmark cannot run (no package under ``src/``).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import oracles
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Metrics of the final JSON line: end to end with --trace 0, per layer
# with --trace 1.  The per-layer line holds every count and the self
# times of the layers all three workloads enter; self times of code some
# workload never calls (construct, recurrence, rref, dual_frieze,
# enumerate) would read 0 there, and go to the report lines instead.
END_TO_END = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "juggling.init.calls": "count", "juggling.dual.calls": "count",
    "juggling.s_set.calls": "count", "juggling.landing_schedule.calls": "count",
    "juggling.self_s": "s",
    "matrices.det.calls": "count", "matrices.det.n0_3.calls": "count",
    "matrices.det.n4_8.calls": "count", "matrices.det.n9_16.calls": "count",
    "matrices.det.n17_up.calls": "count", "matrices.det.cube_sum": "count",
    "matrices.det.max_bits": "bits", "matrices.det.self_s": "s",
    "matrices.rref.calls": "count", "matrices.maximal_minors.calls": "count",
    "matrices.self_s": "s",
    "frieze.check_frieze.calls": "count", "frieze.check_frieze.self_s": "s",
    "frieze.checked_pairs": "count", "frieze.minor.calls": "count",
    "frieze.dual_frieze.calls": "count",
    "frieze.enumerate.is_frieze.calls": "count",
    "frieze.enumerate.found": "count", "frieze.self_s": "s",
    "construct.is_pi_unimodular.calls": "count",
    "construct.frieze_entry.calls": "count",
    "cli.self_s": "s", "trace.overhead": "x",
}
COMMANDS = ("check", "construct", "transform", "solve", "enumerate")

# The fan-strip operations behind the per-period baseline table:
# (column heading, role of the op, traced function).
TABLE = (
    ("check_frieze", "check S", "frieze.check_frieze"),
    ("dual_frieze", "dual S", "frieze.dual_frieze"),
    ("solution_matrix", "solve S", "recurrence.solution_matrix"),
    ("frieze_to_matrix", "invert-F S", "construct.frieze_to_matrix"),
    ("build_frieze_det", "construct det MS", "construct.build_frieze_det"),
    ("build_frieze_twist", "construct twist MS",
     "construct.build_frieze_twist"),
)

# setup repeats at least this often and until this much time is spent
SETUP_MIN_REPS, SETUP_MIN_SECONDS, SETUP_MAX_REPS = 3, 1.0, 25

# Host speed.  On a shared two-vCPU virtual machine the same pass took
# up to a quarter more or less time from one minute to the next, in CPU
# time as much as in wall time.  Every timed block is therefore
# bracketed by a fixed exact-arithmetic reference workload
# (``reference_work``; it is part of the benchmark, so a change to the
# package cannot move it), and times are reported scaled to a host on
# which that workload takes REFERENCE_S seconds, about its time on that
# machine.  There this cut the quartile spread of pass_s over ten runs
# from about 0.2 to about 0.06 of the median.  The report lines give the
# unscaled end-to-end times too.
CAL_MATRICES = [[[((i + 2) * (j + 3) + i * i) % 13 - 6 + 9 * (i == j)
                  for j in range(n)] for i in range(n)] for n in (4, 6, 8, 10)]
CAL_QUIDDITIES = (workloads.fan_quiddity(9), workloads.fan_quiddity(7))
CAL_REPS = 5
REFERENCE_S = 0.1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "jugglerfrieze" or m.startswith("jugglerfrieze.")]:
        del sys.modules[name]
    if not os.path.isdir(os.path.join(SRC, "jugglerfrieze")):
        raise BenchError(f"no package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    package = importlib.import_module("jugglerfrieze")
    importlib.import_module("jugglerfrieze.cli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported jugglerfrieze from {package.__file__}")
    return package


def set_up(workload: str, seed: int, directory: str):
    """Import, generate, certify and write, repeated; returns the package,
    the operations, (scaled, unscaled) seconds of each repetition and the
    input digest."""
    clock = HostClock()
    reps, files = [], None
    while (len(reps) < SETUP_MIN_REPS
           or sum(raw for _, raw in reps) < SETUP_MIN_SECONDS) \
            and len(reps) < SETUP_MAX_REPS:
        start = time.perf_counter()
        package = import_package()
        inputs = workloads.Inputs(directory)
        ops = workloads.WORKLOADS[workload](
            package, random.Random(f"{workload}/{seed}"), inputs)
        inputs.write()
        raw = time.perf_counter() - start
        reps.append((raw * clock.scale(), raw))
        if files is not None and files != inputs.files:
            raise BenchError("set-up is not deterministic for this seed")
        files = inputs.files
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return package, ops, reps, digest.hexdigest()


def run_op(cli, argv):
    """(exit code or None on an exception, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_pass(cli, ops, tracer=None):
    """Run every op once, after a full collection so that each pass
    starts from the same heap; (results, wall seconds)."""
    gc.collect()
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        results.append(run_op(cli, op.argv))
    return results, time.perf_counter() - start


def verified(op, result) -> bool:
    code, out, err, _ = result
    if code != op.expect or "Traceback" in err:
        return False
    if op.expect == 2 and not err.startswith("error:"):
        return False
    try:
        return bool(op.verify(out))
    except Exception:
        return False


class Tally:
    """Outcome of every operation run, against its verified reference."""

    def __init__(self, ops, warm_results):
        self.reference = [(r[0], r[1]) if verified(op, r) else None
                          for op, r in zip(ops, warm_results)]
        self.attempted = len(ops)
        self.failed = sum(ref is None for ref in self.reference)
        self.failures = [op for op, ref in zip(ops, self.reference)
                         if ref is None]

    def add(self, ops, results) -> None:
        for op, ref, r in zip(ops, self.reference, results):
            self.attempted += 1
            if ref is None or (r[0], r[1]) != ref or "Traceback" in r[2]:
                self.failed += 1


def p90(values) -> float:
    """The 90th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work() -> float:
    """Seconds taken by the fixed reference workload."""
    start = time.perf_counter()
    for _ in range(CAL_REPS):
        for m in CAL_MATRICES:
            oracles.det(m)
            oracles.solve(m, range(len(m)))
        oracles.maximal_minors([r[:7] for r in CAL_MATRICES[2][:3]], 7)
        for q in CAL_QUIDDITIES:
            oracles.reduces_by_ears(q)
    return time.perf_counter() - start


class HostClock:
    """Host speed around timed blocks, from the reference workload.

    ``scale()`` runs the reference once more and returns the factor from
    wall seconds of the block just finished to reference seconds, using
    the mean of the reference runs before and after it.
    """

    def __init__(self):
        self.refs = [reference_work()]

    def scale(self) -> float:
        self.refs.append(reference_work())
        return REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2)


class Pass:
    """One pass: per-op results, its wall time and host-speed scale; a
    traced pass also has its per-layer metrics, its table cells and, for
    the first one only, its spans (a pass can record a few hundred
    thousand)."""

    def __init__(self, results, wall, scale, layers=None, cells=None,
                 spans=None):
        self.results, self.wall, self.scale = results, wall, scale
        self.layers, self.cells, self.spans = layers, cells, spans

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


def measure(package, ops, seconds, tally, traced):
    """Untraced passes, alternating with traced ones when asked, until
    the measuring time is used up (at least one of each)."""
    cli = package.cli
    clock = HostClock()
    plain, spanned = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        results, wall = run_pass(cli, ops)
        plain.append(Pass(results, wall, clock.scale()))
        tally.add(ops, results)
        if traced:
            with tracing.Tracer(package) as tracer:
                results, wall = run_pass(cli, ops, tracer)
                spans = tracer.take()
            spanned.append(Pass(results, wall, clock.scale(),
                                tracing.layer_metrics(spans),
                                table_cells(ops, spans),
                                None if spanned else spans))
            tally.add(ops, results)
    return plain, spanned


def end_to_end(ops, passes, setup):
    """(metrics, report lines) from the measured untraced passes."""
    latencies = [r[3] * p.scale for p in passes for r in p.results]
    unscaled = [r[3] for p in passes for r in p.results]
    slow = p90(latencies)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setup),
        "pass_s": statistics.median(p.seconds for p in passes),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * slow,
        "peak_rss_mb": peak_rss_mb(),
    }
    lines = [f"passes {len(passes)} measured, {len(ops)} ops each, "
             f"{len(latencies)} latency samples, "
             f"{sum(x > slow for x in latencies)} beyond p90",
             f"setup repetitions {len(setup)}, unscaled setup_s "
             f"{statistics.median(raw for _, raw in setup)}",
             f"unscaled pass_s {statistics.median(p.wall for p in passes)}",
             f"unscaled op_p50_ms {1e3 * statistics.median(unscaled)}",
             f"unscaled op_p90_ms {1e3 * p90(unscaled)}",
             f"median host scale {statistics.median(p.scale for p in passes)}"]
    for cmd in COMMANDS:
        if any(op.command == cmd for op in ops):
            per_pass = [p.scale * sum(r[3] for op, r in zip(ops, p.results)
                                      if op.command == cmd) for p in passes]
            lines.append(f"{cmd}_s {statistics.median(per_pass):.6f} s "
                         "(median per pass)")
    return metrics, lines


def table_cells(ops, spans) -> dict:
    """{(n, column): seconds} of the traced fan-strip functions."""
    cells = {}
    for op in ops:
        if op.tags.get("strip") != "fan":
            continue
        for column, role, name in TABLE:
            if op.tags["role"] == role:
                cells[op.tags["n"], column] = tracing.first_span_seconds(
                    spans, op.id, name)
    return cells


def baseline_table(passes) -> list[str]:
    """Markdown rows, per period, of the median cell over the passes."""
    lines = ["| n | " + " | ".join(f"`{c}`" for c, _, _ in TABLE) + " |",
             "|---" * (len(TABLE) + 1) + "|"]
    for n in workloads.UNIFORM_PERIODS:
        cells = [statistics.median(p.scale * p.cells[n, c] for p in passes)
                 for c, _, _ in TABLE]
        lines.append(f"| {n} | " + " | ".join(f"{t:.3f} s" for t in cells)
                     + " |")
    return lines


def per_layer(ops, plain, traced, trace_path):
    """(metrics, report lines) from the traced passes."""
    counts = [{k: v for k, v in p.layers.items() if not k.endswith("self_s")}
              for p in traced]
    if any(c != counts[0] for c in counts):
        raise BenchError("traced counts differ between passes")
    metrics = tracing.median_metrics([
        {k: v * p.scale if k.endswith("self_s") else v
         for k, v in p.layers.items()} for p in traced])
    untraced_s = statistics.median(p.seconds for p in plain)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["trace.overhead"] = traced_s / untraced_s
    lines = [f"traced passes {len(traced)}, untraced passes {len(plain)}",
             f"untraced pass_s {untraced_s:.6f} s, "
             f"traced pass_s {traced_s:.6f} s"]
    lines += [f"{k} {v}" for k, v in sorted(metrics.items())]
    table = []
    if traced[0].cells:
        table = baseline_table(traced)
        lines.append("traced fan-strip times per period, "
                     "tracing included:")
        lines += table
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "table": table,
                   "ops": [{"id": op.id, "argv": op.argv, "tags": op.tags}
                           for op in ops],
                   "span_fields": ["name", "start", "end", "parent", "op",
                                   "info"],
                   "spans": traced[0].spans}, fh)
    lines.append(f"spans of the first traced pass written to {trace_path}")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    tag = f"{args.workload}-seed{args.seed}"
    directory = os.path.join(WORK, f"{tag}-pid{os.getpid()}")
    try:
        package, ops, setup, digest = set_up(
            args.workload, args.seed, directory)
        warm, _ = run_pass(package.cli, ops)
        tally = Tally(ops, warm)
        print(f"workload {args.workload} seed {args.seed} "
              f"trace {args.trace}; inputs sha256 {digest}")
        plain, traced = measure(package, ops, args.seconds, tally,
                                bool(args.trace))
        if args.trace:
            metrics, lines = per_layer(
                ops, plain, traced, os.path.join(WORK, f"trace-{tag}.json"))
            units = PER_LAYER
        else:
            metrics, lines = end_to_end(ops, plain, setup)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for line in lines:
        print(line)
    for op in tally.failures:
        print(f"FAILED op {op.id}: {' '.join(op.argv)}")
    print(f"error_rate {tally.failed / tally.attempted} "
          f"({tally.failed}/{tally.attempted})")
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
