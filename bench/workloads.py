"""Seeded inputs and verified operations for the three workloads.

Each workload function takes the freshly imported package, a seeded random
generator and a directory, writes its input files through the public
``to_json`` codecs and returns the CLI operations of one pass.  Every
operation carries the exit code it must produce and a check of its
output against an identity that does not run the code path under test
(see ``oracles``) or, where named, the other route to the same object.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

# Periods of the uniform strips.  Sizes of 18 and above make the dual
# and the (n-2)-row construction dominate, as in larger real inputs;
# the grid stops there so that one pass takes a few seconds.
UNIFORM_PERIODS = (10, 14, 18)

# Enumeration heights; counts 14, 42 and 132.
CATALAN_HEIGHTS = (4, 5, 6)

# The n <= 8 worked-example pool: (throws, matrix rows), each pair
# unimodular for its shape.
BASE_POOL = (
    ((3,) * 8, ((1, 11, 4, 6, 3, 1, 0, 0), (0, 1, 2, 7, 5, 3, 1, 0),
                (0, 0, 1, 4, 3, 2, 1, 1))),
    ((3,) * 8, ((1, 1, 1, 1, 1, 1, 0, 0), (-11, -10, -6, -3, -1, 0, 1, 0),
                (18, 16, 9, 4, 1, 0, 0, 1))),
    ((2, 3, 3, 4, 5, 3, 5, 7),
     ((1, 0, -1, 0, 1, 2, 0, -3), (0, 1, 2, 0, -1, -1, 0, 1),
      (0, 0, 0, 1, 2, 1, 0, -1), (0, 0, 0, 0, 0, 0, 1, 1))),
    ((2, 3, 3, 4, 5, 3, 5, 7),
     ((1, 2, 1, 1, 0, -1, 0, 0), (0, 1, 1, 3, 1, 0, 0, 0),
      (0, 0, 0, 1, 1, 3, 1, 0), (0, 0, 0, 0, 0, 0, 1, 1))),
    ((5, 3, 6, 3, 5, 5, 1, 4),
     ((1, 2, 1, 0, 0, 0, 0, 0), (-1, -1, 0, 2, 1, 0, 0, 0),
      (2, 1, 0, -1, 0, 1, 0, 0), (-3, -1, 0, 1, 0, 0, 1, 1))),
    ((5, 3, 6, 3, 5, 5, 1, 4),
     ((1, 1, 1, 0, 0, 0, 0, 0), (0, 1, 3, 1, 1, 0, 0, 0),
      (0, 0, 1, 2, 5, 1, 0, 0), (0, 0, 0, 1, 3, 1, 1, 1))),
    ((0, 0, 3), ((0, 0, 1),)),
    ((4, 4, 0, 0), ((1, 0, 0, 0), (0, 1, 0, 0))),
    ((4, 1, 3, 0), ((1, 0, 0, 0), (0, 1, 1, 0))),
)

# Period of the grown copy of pool pair i: GROWN_PERIODS[i % 4].  They
# are fixed, as is the loop/coloop mix, so that every seed gives the
# same amount of work; the seed moves positions, signs and row mixing.
GROWN_PERIODS = (9, 10, 11, 12)
# complement and inverse-twist take all C(n, k) maximal minors
ALL_MINORS_MAX_PERIOD = 10


@dataclass
class Op:
    """One CLI call, the exit code it must give and its output check."""

    id: int
    argv: list[str]
    expect: int
    verify: Callable[[str], bool]
    tags: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


class Inputs:
    """Input files of one workload, kept as text until written."""

    def __init__(self, directory: str):
        self.directory = directory
        self.files: dict[str, str] = {}

    def add(self, name: str, obj: dict) -> str:
        self.files[name] = json.dumps(obj, sort_keys=True) + "\n"
        return os.path.join(self.directory, name)

    def write(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        for name, text in self.files.items():
            with open(os.path.join(self.directory, name), "w",
                      encoding="utf-8") as fh:
                fh.write(text)


class Builder:
    """Accumulates the operations of one pass."""

    def __init__(self):
        self.ops: list[Op] = []

    def add(self, argv, expect, verify, **tags) -> None:
        self.ops.append(Op(len(self.ops), list(argv), expect, verify, tags))


# ---------------------------------------------------------------- checks

def _payload(stdout: str) -> dict:
    return json.loads(stdout)


def equals_json(expected: dict) -> Callable[[str], bool]:
    return lambda out: _payload(out) == expected


def is_frieze_report(out: str) -> bool:
    p = _payload(out)
    return p["is_frieze"] is True and p["prefrieze_ok"] is True


def is_rejected_frieze(out: str) -> bool:
    p = _payload(out)
    return p["is_frieze"] is False and (p["frieze_failures"]
                                        or p["tame_failures"])


def no_output(out: str) -> bool:
    return out == ""


def solves_recurrence(jf, frieze_obj: dict, basis: int | None):
    """Every solution column is annihilated by the frieze over two
    periods, non-loop columns start with 1, and the basis columns are
    those of the landing schedule."""
    def check(out: str) -> bool:
        p = _payload(out)
        c = jf.PeriodicFrieze.from_json(frieze_obj)
        window = jf.SolutionWindow.from_json(p)
        shape = oracles.Shape(frieze_obj["siteswap"])
        n = shape.n
        for b in range(1, n + 1):
            col = window.column(b)
            if shape(b) == b:
                if any(col(a) for a in range(b, b + n)):
                    return False
                continue
            if col(b) != 1:
                return False
            if any(jf.residual(c, col, a) != 0 for a in range(1, 2 * n + 1)):
                return False
        if basis is not None:
            sched = [(x - 1) % n + 1 for x in shape.landing_schedule(basis)]
            if p["schedule"] != sched:
                return False
            if p["basis_columns"] != {str(r): p["columns"][str(r)]
                                      for r in sched}:
                return False
        return True
    return check


def is_dual(jf, dual_obj: dict, frieze_obj: dict):
    """The output is the dual written down from the quiddity, and its
    own dual is the input again."""
    def check(out: str) -> bool:
        p = _payload(out)
        return p == dual_obj and (
            jf.dual_frieze(jf.PeriodicFrieze.from_json(p)).to_json()
            == frieze_obj)
    return check


def inverts_frieze(jf, frieze_obj: dict):
    """The twist-route frieze of the returned matrix is the input."""
    def check(out: str) -> bool:
        m = jf.Matrix.from_json(_payload(out))
        c = jf.PeriodicFrieze.from_json(frieze_obj)
        return jf.build_frieze_twist(m, c.shape.dual()) == c
    return check


def pairs_as_twist(entries, throws):
    shape = oracles.Shape(throws)

    def check(out: str) -> bool:
        twisted = oracles.matrix_entries(_payload(out))
        return oracles.twist_pairs(twisted, entries, shape)
    return check


def inverts_twist(entries, throws):
    """The twist of the output has the maximal minors of the input."""
    shape = oracles.Shape(throws)
    n = shape.n

    def check(out: str) -> bool:
        inv = oracles.matrix_entries(_payload(out))
        again = oracles.twist_by_definition(inv, shape)
        return (oracles.maximal_minors(again, n)
                == oracles.maximal_minors(entries, n))
    return check


def complements(entries, n):
    def check(out: str) -> bool:
        comp = oracles.matrix_entries(_payload(out))
        return (len(comp) == n - len(entries)
                and oracles.complement_holds(comp, entries, n))
    return check


def enumerates_catalan(height: int):
    """Catalan(h) distinct strips, each the diamond-rule strip of a
    quiddity that reduces to (1, 1, 1) by cutting ears."""
    n = height + 2

    def check(out: str) -> bool:
        lines = out.splitlines()
        count = oracles.catalan(height)
        if lines[0] != f"count {count}" or len(lines) != count + 1:
            return False
        seen = set()
        for line in lines[1:]:
            obj = json.loads(line)
            if obj["siteswap"] != [height] * n:
                return False
            cols = [[oracles.scalar(x) for x in obj["columns"][str(b)]]
                    for b in range(1, n + 1)]
            quiddity = tuple(col[1] for col in cols)
            if (not oracles.reduces_by_ears(quiddity)
                    or cols != oracles.strip_columns(quiddity, height)):
                return False
            seen.add(quiddity)
        return len(seen) == count
    return check


# ------------------------------------------------------------ generators

def fan_quiddity(n: int) -> list[int]:
    return [n - 2, 1] + [2] * (n - 3) + [1]


def random_quiddity(rng: random.Random, n: int) -> list[int]:
    """Quiddity of a random triangulation of the n-gon, grown by
    gluing triangles onto random edges, then rotated."""
    q = [1, 1, 1]
    while len(q) < n:
        i = rng.randrange(len(q))
        q[i] += 1
        q[(i + 1) % len(q)] += 1
        q.insert(i + 1, 1)
    r = rng.randrange(n)
    return q[r:] + q[:r]


def determinant_one(rng: random.Random, k: int, steps: int = 4):
    """A k x k integer matrix of determinant 1 from row additions."""
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(steps if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def left_multiply(g, rows):
    return [[sum(a * r[j] for a, r in zip(grow, rows))
             for j in range(len(rows[0]))] for grow in g]


def uniform_strips(jf, rng: random.Random, inputs: Inputs) -> list[Op]:
    """A fan and a random-triangulation strip S per period; each with
    its 2-row matrix, its dual D (a 2-ball strip written down from the
    quiddity) and D's (n-2)-row matrix."""
    ops = Builder()
    for n in UNIFORM_PERIODS:
        for kind, q in (("fan", fan_quiddity(n)),
                        ("random", random_quiddity(rng, n))):
            s = jf.frieze_from_quiddity(q)
            d = jf.PeriodicFrieze(jf.JugglingFunction.uniform(n, 2),
                                  [[1, x, 1] + [0] * (n - 2) for x in q])
            tag = f"{kind}-n{n}"
            s_obj, d_obj = s.to_json(), d.to_json()
            s_path = inputs.add(f"{tag}-S.json", s_obj)
            d_path = inputs.add(f"{tag}-D.json", d_obj)
            ms = jf.frieze_to_matrix(s)
            ms = jf.Matrix(left_multiply(determinant_one(rng, 2), ms.entries))
            md = jf.frieze_to_matrix(d)
            md = jf.Matrix(left_multiply(determinant_one(rng, n - 2),
                                         md.entries))
            ms_path = inputs.add(f"{tag}-MS.json", ms.to_json())
            md_path = inputs.add(f"{tag}-MD.json", md.to_json())
            meta = {"n": n, "strip": kind}
            ops.add(["check", s_path], 0, is_frieze_report,
                    role="check S", **meta)
            ops.add(["check", d_path], 0, is_frieze_report,
                    role="check D", **meta)
            ops.add(["transform", s_path, "--op", "dual"], 0,
                    is_dual(jf, d_obj, s_obj), role="dual S", **meta)
            ops.add(["solve", s_path], 0, solves_recurrence(jf, s_obj, None),
                    role="solve S", **meta)
            ops.add(["transform", s_path, "--op", "invert-F"], 0,
                    inverts_frieze(jf, s_obj), role="invert-F S", **meta)
            ops.add(["transform", d_path, "--op", "invert-F"], 0,
                    inverts_frieze(jf, d_obj), role="invert-F D", **meta)
            for matrix_path, shape, target, name in (
                    (ms_path, jf.JugglingFunction.uniform(n, 2), s_obj, "MS"),
                    (md_path, jf.JugglingFunction.uniform(n, n - 2), d_obj,
                     "MD")):
                for method in ("det", "twist"):
                    ops.add(["construct", matrix_path, "--siteswap",
                             jf.format_siteswap(shape), "--method", method],
                            0, equals_json(target),
                            role=f"construct {method} {name}", **meta)
    return ops.ops


def shape_of(jf, rows, n: int):
    """The juggling function whose landing schedules are the
    cyclically lex-first column bases (the Grassmann necklace)."""
    k = len(rows)
    columns = [[Fraction(row[j]) for row in rows] for j in range(n)]
    necklace = []
    for a in range(1, n + 1):
        basis, reduced = [], []  # reduced: (pivot, vector) pairs
        for b in range(a, a + n):
            if len(basis) == k:
                break
            v = list(columns[(b - 1) % n])
            for p, w in reduced:
                if v[p]:
                    f = v[p] / w[p]
                    v = [x - f * y for x, y in zip(v, w)]
            p = next((i for i, x in enumerate(v) if x), None)
            if p is not None:
                basis.append(b)
                reduced.append((p, v))
        necklace.append(basis)
    values = []
    for a in range(1, n + 1):
        here = necklace[a - 1]
        after = [b + n for b in necklace[0]] if a == n else necklace[a]
        if a not in here:
            values.append(a)
            continue
        new = set(after) - (set(here) - {a})
        if len(new) != 1:
            return None
        values.append(new.pop())
    try:
        return jf.JugglingFunction(values)
    except jf.SiteswapError:
        return None


def _schedule_minors_are_one(pi, rows) -> bool:
    n = pi.period
    return all(
        oracles.det([[row[(b - 1) % n] for b in sorted(
            pi.landing_schedule(a), key=lambda b: (b - 1) % n)]
            for row in rows]) == 1
        for a in range(1, n + 1))


def grow(jf, rng: random.Random, rows, target: int, tries: int = 200):
    """Insert loops (zero columns) and coloops (a +-1 unit row),
    alternating and starting with a loop, until the period reaches
    target.  Positions and signs are drawn until the grown matrix has
    unit schedule minors for its derived shape (the necklace already
    meets the rank bounds); the result is then certified."""
    rows = [list(r) for r in rows]
    for step in range(target - len(rows[0])):
        n = len(rows[0])
        for _ in range(tries):
            j = rng.randrange(n + 1)
            cand = [r[:j] + [0] + r[j:] for r in rows]
            if step % 2:
                unit = [0] * (n + 1)
                unit[j] = rng.choice((-1, 1))
                cand.insert(rng.randrange(len(cand) + 1), unit)
            pi = shape_of(jf, cand, n + 1)
            if pi is not None and _schedule_minors_are_one(pi, cand):
                rows = cand
                break
        else:
            raise RuntimeError("no certifiable insertion found")
    if not jf.is_pi_unimodular(jf.Matrix(rows), pi).ok:
        raise RuntimeError("grown matrix failed certification")
    return rows, pi


def _free_positions(shape) -> list[tuple[int, int]]:
    """Frieze positions (a, b) that no prefrieze condition pins down."""
    return [(a, b) for b in range(1, shape.period + 1)
            for a in range(b + 1, shape(b)) if shape.inverse(a) < b]


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def ragged_pool(jf, rng: random.Random, inputs: Inputs) -> list[Op]:
    """The pool pairs mixed by determinant-1 matrices, plus a copy of each
    grown to period 9..12 with loops and coloops, plus near-misses."""
    instances = []
    for i, (throws, rows) in enumerate(BASE_POOL):
        instances.append((f"pool{i}", rows, jf.JugglingFunction(
            x + t for x, t in enumerate(throws, start=1)), True))
        target = GROWN_PERIODS[i % len(GROWN_PERIODS)]
        instances.append((f"pool{i}-n{target}",
                          *grow(jf, rng, rows, target), False))
    ops = Builder()
    for idx, (tag, rows, pi, near_misses) in enumerate(instances):
        n, k = pi.period, pi.balls
        rows = left_multiply(determinant_one(rng, k), rows)
        m = jf.Matrix(rows)
        throws = list(pi.throws)
        siteswap = jf.format_siteswap(pi)
        # construct is checked against the other route to the frieze
        method = ("det", "twist")[idx % 2]
        other = (jf.build_frieze_twist if method == "det"
                 else jf.build_frieze_det)(m, pi)
        c_obj = other.to_json()
        m_path = inputs.add(f"{tag}-M.json", m.to_json())
        c_path = inputs.add(f"{tag}-F.json", c_obj)
        meta = {"n": n, "instance": tag}
        ops.add(["construct", m_path, "--siteswap", siteswap, "--method",
                 method, "--verify"], 0, equals_json(c_obj),
                role=f"construct {method}", **meta)
        ops.add(["transform", m_path, "--op", "twist", "--siteswap",
                 siteswap], 0, pairs_as_twist(rows, throws), role="twist",
                **meta)
        if n <= ALL_MINORS_MAX_PERIOD:
            ops.add(["transform", m_path, "--op", "inverse-twist",
                     "--siteswap", siteswap], 0, inverts_twist(rows, throws),
                    role="inverse-twist", **meta)
            ops.add(["transform", m_path, "--op", "complement"], 0,
                    complements(rows, n), role="complement", **meta)
        ops.add(["check", c_path], 0, is_frieze_report, role="check", **meta)
        ops.add(["solve", c_path, "--basis", "1"], 0,
                solves_recurrence(jf, c_obj, 1), role="solve", **meta)
        ops.add(["transform", c_path, "--op", "invert-F"], 0,
                inverts_frieze(jf, c_obj), role="invert-F", **meta)
        if not near_misses:
            continue
        # near-misses: one entry of the frieze or the matrix moved by 1,
        # at the first seeded position that breaks the defining property
        for a, b in _shuffled(rng, _free_positions(other.shape)):
            col = list(other.columns[b - 1])
            col[a - b] += 1
            bad = jf.PeriodicFrieze(other.shape, [
                col if j == b - 1 else other.columns[j] for j in range(n)])
            if not jf.is_frieze(bad):
                path = inputs.add(f"{tag}-F-perturbed.json", bad.to_json())
                ops.add(["check", path], 1, is_rejected_frieze,
                        role="check near-miss", **meta)
                break
        for r, j in _shuffled(rng, [(r, j) for r in range(k)
                                    for j in range(n)]):
            bad_rows = [list(row) for row in rows]
            bad_rows[r][j] += 1
            if not jf.is_pi_unimodular(jf.Matrix(bad_rows), pi).ok:
                path = inputs.add(f"{tag}-M-perturbed.json",
                                  jf.Matrix(bad_rows).to_json())
                ops.add(["construct", path, "--siteswap", siteswap,
                         "--method", method], 2, no_output,
                        role="construct near-miss", **meta)
                break
    return ops.ops


def catalan_enumerate(jf, rng: random.Random, inputs: Inputs) -> list[Op]:
    """Enumeration needs no input files; the heights are the input."""
    ops = Builder()
    for h in CATALAN_HEIGHTS:
        ops.add(["enumerate", "--height", str(h), "--bound", str(h),
                 "--dump"], 0, enumerates_catalan(h), role=f"h{h}", h=h)
    return ops.ops


WORKLOADS = {
    "uniform-strips": uniform_strips,
    "ragged-pool": ragged_pool,
    "catalan-enumerate": catalan_enumerate,
}
