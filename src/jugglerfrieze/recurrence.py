"""Friezes as linear recurrences with superperiodic solutions.

Read as a doubly infinite unitriangular matrix, a frieze C defines the
recurrence C x = 0.  Its solutions satisfy x[a+n] = (-1)**s x[a] for a
fixed sign exponent s exactly when C is a frieze, and a canonical
spanning set of solutions is carried by the dual frieze: solution_matrix
returns the signed dual columns by which frieze.is_frieze decided C.
Everything here works on finite windows; the extension rule is total,
so no infinite object is ever materialized.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .juggling import as_int, residue, sign_power
from .matrices import as_grid, as_rational, ratio
from .frieze import (PeriodicFrieze, _recurrence_solutions, columns_from_json,
                     columns_to_json)


@dataclass(frozen=True)
class SolutionWindow:
    """One period of solution columns plus the sign rule extending them."""

    period: int
    sign_exponent: int
    columns: tuple  # columns[b-1][a-b] holds entry (a, b), b <= a < b+n

    def __post_init__(self):
        if as_int(self.period) < 1:
            raise ValueError(f"period must be at least 1, not {self.period}")
        object.__setattr__(self, "sign_exponent",
                           as_int(self.sign_exponent) % 2)
        cols = as_grid(self.columns)
        if len(cols) != self.period or any(len(c) != self.period for c in cols):
            raise ValueError("need one full window per column")
        object.__setattr__(self, "columns", cols)

    def entry(self, a: int, b: int) -> int | Fraction:
        m, d = divmod(a - b, self.period)
        return (self.columns[residue(b, self.period) - 1][d]
                * sign_power(self.sign_exponent * m))

    def column(self, b: int) -> Callable[[int], int | Fraction]:
        """The column as a total sequence Z -> Q."""
        return lambda a: self.entry(a, b)

    def to_json(self) -> dict:
        return {"period": self.period, "sign_exponent": self.sign_exponent,
                "columns": columns_to_json(self.columns)}

    @classmethod
    def from_json(cls, obj: dict) -> "SolutionWindow":
        n = as_int(obj["period"])
        return cls(n, as_int(obj["sign_exponent"]),
                   columns_from_json(obj["columns"], n))


def residual(c: PeriodicFrieze, x: Callable, a: int) -> int | Fraction:
    """Row a of C x: the sum of C[a, b] x(b) over the support band."""
    n = c.shape.period
    return sum(c.entry(a, b) * as_rational(x(b))
               for b in range(a - n, a + 1))


def solution_matrix(c: PeriodicFrieze) -> SolutionWindow:
    """The canonical solutions of C x = 0, signed dual diagonals.

    Column b is zero when b is a loop of the shape; otherwise it is the
    b-th dual column with alternating signs, extended superperiodically.
    They are the dual columns whose skeleton decided that c is a frieze
    (see frieze.is_frieze), so a non-frieze raises that decision's
    ValueError.  They come scaled by L**(n-1), L the lcm of c's integer
    view, divided out once (matrices.ratio): each entry is an int when
    integral, as on every integral frieze, else one Fraction.
    """
    n = c.shape.period
    scale = c.integer_view()[1] ** (n - 1)
    return SolutionWindow(n, c.shape.wrap_exponent, tuple(
        col if scale == 1 else [ratio(x, scale) for x in col]
        for col in _recurrence_solutions(c)))
