"""Friezes as linear recurrences with superperiodic solutions.

Read as a doubly infinite unitriangular matrix, a frieze C defines the
recurrence C x = 0.  Its solutions satisfy x[a+n] = (-1)**s x[a] for a
fixed sign exponent s exactly when C is a frieze, and a canonical
spanning set of solutions is carried by the dual frieze.  Everything
here works on finite windows; the extension rule is total, so no
infinite object is ever materialized.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .juggling import JugglingFunction, as_int, residue
from .matrices import Matrix, as_rational, rational_to_json, sign_power
from .frieze import PeriodicFrieze, dual_frieze, is_frieze, is_prefrieze


@dataclass(frozen=True)
class SolutionWindow:
    """One period of solution columns plus the sign rule extending them."""

    period: int
    sign_exponent: int
    columns: tuple  # columns[b-1][a-b] holds entry (a, b), b <= a < b+n

    def __post_init__(self):
        object.__setattr__(self, "sign_exponent", self.sign_exponent % 2)
        cols = tuple(tuple(as_rational(x) for x in col) for col in self.columns)
        if len(cols) != self.period or any(len(c) != self.period for c in cols):
            raise ValueError("need one full window per column")
        object.__setattr__(self, "columns", cols)

    def entry(self, a: int, b: int) -> Fraction:
        n = self.period
        shift = (b - 1) // n
        a -= shift * n
        b -= shift * n
        m, d = divmod(a - b, n)
        return self.columns[b - 1][d] * sign_power(self.sign_exponent * m)

    def column(self, b: int) -> Callable[[int], Fraction]:
        """The column as a total sequence Z -> Q."""
        return lambda a: self.entry(a, b)

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "sign_exponent": self.sign_exponent,
            "columns": {
                str(b): [rational_to_json(x) for x in self.columns[b - 1]]
                for b in range(1, self.period + 1)
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SolutionWindow":
        n = as_int(obj["period"])
        cols = [obj["columns"][str(b)] for b in range(1, n + 1)]
        return cls(n, as_int(obj["sign_exponent"]),
                   tuple(tuple(c) for c in cols))


def superperiodic_extension(v: Sequence, k: int, a: int) -> Fraction:
    """Entry a of the extension of v by x[a+n] = (-1)**(k-1) x[a]."""
    n = len(v)
    r = residue(a, n)
    return as_rational(v[r - 1]) * sign_power((k - 1) * ((a - r) // n))


def residual(c: PeriodicFrieze, x, a: int) -> Fraction:
    """Row a of C x: the sum of C[a, b] x[b] over the support band."""
    if callable(x):
        get = x
    elif isinstance(x, Mapping):
        def get(b, _m=x):
            if b not in _m:
                raise ValueError(f"sequence not defined at {b}")
            return _m[b]
    else:
        raise TypeError("x must be a mapping or a callable")
    n = c.shape.period
    return sum((c.entry(a, b) * as_rational(get(b))
                for b in range(a - n, a + 1)), Fraction(0))


def solution_matrix(c: PeriodicFrieze) -> SolutionWindow:
    """The canonical solutions of C x = 0, signed dual diagonals.

    Column b is zero when b is a loop of the shape; otherwise it is the
    b-th dual column with alternating signs, extended superperiodically.
    """
    if not is_frieze(c):
        raise ValueError("solution matrix needs a frieze")
    pi = c.shape
    n = pi.period
    dual = dual_frieze(c)
    cols = []
    for b in range(1, n + 1):
        if pi(b) == b:
            cols.append((Fraction(0),) * n)
        else:
            cols.append(tuple(sign_power(a + b) * dual.entry(a, b)
                              for a in range(b, b + n)))
    return SolutionWindow(n, n - pi.balls - 1, tuple(cols))


def tiling(c: PeriodicFrieze) -> SolutionWindow:
    """Spread the columns of c superperiodically with alternating signs.

    For the dual of a frieze this reproduces the solution matrix; loop
    slots cancel their diagonal 1 pairwise.
    """
    n = c.shape.period
    s = n - c.shape.balls - 1
    cols = []
    for b in range(1, n + 1):
        col = []
        for a in range(b, b + n):
            v = sign_power(a + b) * c.entry(a, b)
            if a == b:
                v += sign_power(a + b + s) * c.entry(b + n, b)
            col.append(v)
        cols.append(tuple(col))
    # shifting a by n inside the defining sum flips the parity by n - s
    return SolutionWindow(n, n - s, tuple(cols))


def verify_superperiodic_kernel(c: PeriodicFrieze) -> bool:
    """Whether the dual-diagonal candidates, extended superperiodically,
    genuinely solve C x = 0; equivalent to c being a frieze."""
    if not is_prefrieze(c):
        return False
    pi = c.shape
    n = pi.period
    sign = n - pi.balls - 1
    for b in range(1, n + 1):
        if pi(b) == b:
            continue
        window = [sign_power(a + b) * c.minor(range(b + 1, a + 1), range(b, a))
                  for a in range(b, b + n)]

        def x(a, _w=window, _b=b):
            m, d = divmod(a - _b, n)
            return _w[d] * sign_power(sign * m)

        if any(residual(c, x, a) != 0 for a in range(b - n, b + 2 * n + 1)):
            return False
    return True


def kernel_correspondence(m: Matrix, pi: JugglingFunction, rng=None) -> bool:
    """Vectors killed by the matrix are exactly the vectors whose
    superperiodic extension is killed by its frieze, and the kernel has
    the expected dimension."""
    from .construct import build_frieze_det

    import random
    rng = rng or random.Random(0)
    k, n = m.nrows, m.ncols
    f = build_frieze_det(m, pi)
    kernel = m.kernel_basis()
    if kernel.nrows != n - k or m.rank() != k:
        return False
    check_range = range(1, 2 * n + 1)
    for v in kernel.entries:
        ext = lambda b, _v=v: superperiodic_extension(_v, k, b)
        if any(residual(f, ext, a) != 0 for a in check_range):
            return False
    for _ in range(4):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        in_kernel = all(sum(a * b for a, b in zip(row, v)) == 0
                        for row in m.entries)
        ext = lambda b, _v=v: superperiodic_extension(_v, k, b)
        solves = all(residual(f, ext, a) == 0 for a in check_range)
        if in_kernel != solves:
            return False
    return True
