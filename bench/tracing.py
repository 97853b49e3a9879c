"""Spans around the package's public functions, from outside the package.

A ``Tracer`` replaces each traced function or method, in its defining
module and under every name another module imported it by, with a
wrapper that records one span: (name, start, end, parent, op id,
info).  Spans stay in memory; ``layer_metrics`` turns one pass of
them into counts and self times, where a span's self time is its
duration minus the durations of its direct children.

``JugglingFunction.__call__``/``inverse`` and ``residue`` are not
wrapped: they take well under a microsecond and run about a million
times a pass, so a span there would time the wrapper.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

MODULES = ("juggling", "matrices", "frieze", "construct", "recurrence", "cli")


def _det_info(args, result):
    return (args[0].nrows, abs(result.numerator).bit_length())


# (module, class or None, attribute, info taken from (args, result))
TRACED = (
    ("juggling", "JugglingFunction", "__init__", None),
    ("juggling", "JugglingFunction", "dual", None),
    ("juggling", "JugglingFunction", "s_set", None),
    ("juggling", "JugglingFunction", "landing_schedule", None),
    ("juggling", "JugglingFunction", "necklace", None),
    ("juggling", None, "parse_siteswap", None),
    ("matrices", "Matrix", "det", _det_info),
    ("matrices", "Matrix", "rref", None),
    ("matrices", "Matrix", "kernel_basis", None),
    ("matrices", "Matrix", "solve", None),
    ("matrices", "Matrix", "maximal_minors", None),
    ("matrices", "Matrix", "__mul__", None),
    ("matrices", None, "cyclic_submatrix", None),
    ("frieze", "PeriodicFrieze", "minor", None),
    ("frieze", None, "check_frieze", lambda a, r: r.checked_pairs),
    ("frieze", None, "is_frieze", None),
    ("frieze", None, "dual_frieze", None),
    ("frieze", None, "is_positive", None),
    ("frieze", None, "enumerate_sl2_positive", lambda a, r: len(r)),
    ("construct", None, "is_pi_unimodular", None),
    ("construct", None, "twist", None),
    ("construct", None, "inverse_twist", None),
    ("construct", None, "positive_complement", None),
    ("construct", None, "frieze_entry", None),
    ("construct", None, "build_frieze_det", None),
    ("construct", None, "build_frieze_twist", None),
    ("construct", None, "frieze_to_matrix", None),
    ("recurrence", None, "solution_matrix", None),
    ("cli", None, "main", None),
)


def span_name(module: str, cls: str | None, attr: str) -> str:
    return f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self._restore: list = []

    def _wrap(self, name, fn, info):
        spans, stack, clock, tracer = self.spans, self.stack, \
            time.perf_counter, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op, None)
            if info is not None:
                spans[idx] = (name, start, end, parent, tracer.op,
                              info(args, result))
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        mods = [self.package] + [getattr(self.package, m) for m in MODULES]
        for module, cls, attr, info in TRACED:
            home = getattr(self.package, module)
            name = span_name(module, cls, attr)
            if cls is not None:
                owner = getattr(home, cls)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, orig, info))
                self._restore.append((owner, attr, orig))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, info)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a fresh list."""
        if self.stack:
            raise RuntimeError("spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


# "<module>.self_s" sums the self time of every span of that module;
# "cli.self_s" is the time in cli.main outside any library span.
SELF_MODULES = ("juggling", "matrices", "frieze", "construct", "recurrence")
SELF_S = {
    "cli.self_s": "cli.main",
    "matrices.det.self_s": "matrices.Matrix.det",
    "matrices.rref.self_s": "matrices.Matrix.rref",
    "frieze.check_frieze.self_s": "frieze.check_frieze",
    "frieze.dual_frieze.self_s": "frieze.dual_frieze",
    "frieze.enumerate.self_s": "frieze.enumerate_sl2_positive",
    "recurrence.solution_matrix.self_s": "recurrence.solution_matrix",
}
for _fn in ("is_pi_unimodular", "frieze_entry", "twist", "inverse_twist",
            "positive_complement", "build_frieze_det", "build_frieze_twist",
            "frieze_to_matrix"):
    SELF_S[f"construct.{_fn}.self_s"] = f"construct.{_fn}"

CALLS = {
    "juggling.init.calls": "juggling.JugglingFunction.__init__",
    "juggling.dual.calls": "juggling.JugglingFunction.dual",
    "juggling.s_set.calls": "juggling.JugglingFunction.s_set",
    "juggling.landing_schedule.calls":
        "juggling.JugglingFunction.landing_schedule",
    "matrices.det.calls": "matrices.Matrix.det",
    "matrices.rref.calls": "matrices.Matrix.rref",
    "matrices.maximal_minors.calls": "matrices.Matrix.maximal_minors",
    "frieze.check_frieze.calls": "frieze.check_frieze",
    "frieze.minor.calls": "frieze.PeriodicFrieze.minor",
    "frieze.dual_frieze.calls": "frieze.dual_frieze",
    "construct.is_pi_unimodular.calls": "construct.is_pi_unimodular",
    "construct.frieze_entry.calls": "construct.frieze_entry",
}

DET_BUCKETS = (("n0_3", 0, 3), ("n4_8", 4, 8), ("n9_16", 9, 16),
               ("n17_up", 17, None))


def layer_metrics(spans) -> dict[str, float]:
    """Counts and self times of one traced pass."""
    selfs = self_times(spans)
    counts = defaultdict(int)
    self_by_name = defaultdict(float)
    for s, t in zip(spans, selfs):
        counts[s[0]] += 1
        self_by_name[s[0]] += t
    out = {key: counts[name] for key, name in CALLS.items()}
    out.update((key, self_by_name[name]) for key, name in SELF_S.items())
    for module in SELF_MODULES:
        out[f"{module}.self_s"] = sum(t for n, t in self_by_name.items()
                                      if n.startswith(module + "."))
    dets = [s[5] for s in spans if s[0] == "matrices.Matrix.det"]
    for label, lo, hi in DET_BUCKETS:
        out[f"matrices.det.{label}.calls"] = sum(
            1 for size, _ in dets if size >= lo and (hi is None or size <= hi))
    out["matrices.det.cube_sum"] = sum(size ** 3 for size, _ in dets)
    out["matrices.det.max_bits"] = max((b for _, b in dets), default=0)
    out["frieze.checked_pairs"] = sum(
        s[5] for s in spans if s[0] == "frieze.check_frieze")
    enum_ids = {i for i, s in enumerate(spans)
                if s[0] == "frieze.enumerate_sl2_positive"}
    out["frieze.enumerate.is_frieze.calls"] = sum(
        1 for s in spans if s[0] == "frieze.is_frieze" and s[3] in enum_ids)
    out["frieze.enumerate.found"] = sum(spans[i][5] for i in enum_ids)
    return out


def first_span_seconds(spans, op: int, name: str) -> float | None:
    """Duration of the outermost span of a function within one op."""
    for s in spans:
        if s[4] == op and s[0] == name:
            return s[2] - s[1]
    return None


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
