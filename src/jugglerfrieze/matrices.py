"""Exact dense linear algebra over the rationals.

Matrices are immutable grids of fractions.Fraction.  Determinants and
reduced row echelon forms both run fraction-free on integer rows: each
row is first scaled by the lcm of its denominators, Bareiss elimination
(det) and fraction-free Gauss-Jordan (rref) then divide exactly, and
fractions are built only for the result.  Every value is exact; there is
no floating point anywhere in this package.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from .juggling import as_int, residue, sign_power  # noqa: F401 (re-export)


def as_rational(x) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Booleans and floats are not exact scalars, and a zero denominator
    is a ValueError like any other malformed string.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact scalar: {x!r}")


def as_grid(rows) -> tuple[tuple[Fraction, ...], ...]:
    """A list or tuple of lists or tuples of exact scalars (see
    as_rational) as a tuple of tuples of rationals; anything else is a
    TypeError, so a string is never read as a row of digits."""
    if isinstance(rows, (list, tuple)):
        # a row of another type is dropped, which leaves the grid short
        grid = tuple(tuple(map(as_rational, row)) for row in rows
                     if isinstance(row, (list, tuple)))
        if len(grid) == len(rows):
            return grid
    raise TypeError("expected a list of lists")


def _integer_rows(entries) -> tuple[list[list[int]], int]:
    """Each row scaled by the lcm of its denominators, as ints, and the
    product of those scale factors."""
    rows = []
    scale = 1
    for row in entries:
        m = lcm(*(x.denominator for x in row))
        scale *= m
        rows.append([x.numerator * (m // x.denominator) for x in row])
    return rows, scale


def rational_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Matrix:
    """An immutable rows x cols grid of rationals."""

    __slots__ = ("entries", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence], cols: int | None = None):
        data = as_grid(rows)
        width = len(data[0]) if data else cols
        if width is None:
            raise ValueError("empty matrix needs an explicit column count")
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        if cols not in (None, width):
            raise ValueError("matrix shape does not match its entries")
        self.entries = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)], cols=ncols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        return cls(columns).transpose()

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        # with no rows, zip would also lose the ncols empty columns
        rows = list(zip(*self.entries)) if self.nrows else [()] * self.ncols
        return Matrix(rows, cols=self.nrows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = [other.column(j) for j in range(other.ncols)]
        return Matrix([[sum(a * b for a, b in zip(row, col)) for col in cols]
                       for row in self.entries], cols=other.ncols)

    def scale_row(self, i: int, factor) -> "Matrix":
        f = as_rational(factor)
        rows = [tuple(f * x for x in row) if r == i else row
                for r, row in enumerate(self.entries)]
        return Matrix(rows, cols=self.ncols)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        return Matrix([[self.entries[i][j] for j in cols] for i in rows],
                      cols=len(cols))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.ncols == other.ncols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.ncols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def det(self) -> Fraction:
        """Exact determinant; the empty 0x0 matrix has determinant 1."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        # Clear denominators row by row, then run fraction-free Bareiss
        # on the integer matrix.  Division below is exact by construction.
        rows, scale = _integer_rows(self.entries)
        sign = 1
        prev = 1
        for c in range(n - 1):
            pivot = next((r for r in range(c, n) if rows[r][c]), None)
            if pivot is None:
                return Fraction(0)
            if pivot != c:
                rows[c], rows[pivot] = rows[pivot], rows[c]
                sign = -sign
            for r in range(c + 1, n):
                for j in range(c + 1, n):
                    rows[r][j] = (rows[r][j] * rows[c][c]
                                  - rows[r][c] * rows[c][j]) // prev
                rows[r][c] = 0
            prev = rows[c][c]
        return Fraction(sign * rows[n - 1][n - 1], scale)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns.

        Fraction-free Gauss-Jordan on integer rows: each step replaces
        every other row by (pv*row - f*pivot_row) // prev, an exact
        division (every entry is then a minor of the integer matrix).
        Afterwards every pivot equals the last pivot d, so the reduced
        form is the integer matrix divided by d.
        """
        rows, _ = _integer_rows(self.entries)
        pivots = []
        prev = 1
        r = 0
        for c in range(self.ncols):
            if r == len(rows):
                break
            p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            top = rows[r]
            pv = top[c]
            for i, row in enumerate(rows):
                if i != r:
                    f = row[c]
                    rows[i] = [(pv * x - f * y) // prev
                               for x, y in zip(row, top)]
            prev = pv
            pivots.append(c)
            r += 1
        return (Matrix([[Fraction(x, prev) for x in row] for row in rows],
                       cols=self.ncols),
                tuple(pivots))

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Matrix":
        """Rows spanning {v : self @ v = 0}, one per free column."""
        return kernel_from_rref(*self.rref())

    def solve(self, rhs: Sequence) -> tuple[Fraction, ...]:
        """The unique x with self * x = rhs; raises on a singular matrix."""
        if self.nrows != self.ncols:
            raise ValueError("solve needs a square matrix")
        b = [as_rational(x) for x in rhs]
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        aug = Matrix([list(row) + [bv] for row, bv in zip(self.entries, b)],
                     cols=self.ncols + 1)
        reduced, pivots = aug.rref()
        if pivots != tuple(range(self.ncols)):
            raise ValueError("singular matrix")
        return tuple(reduced.entries[i][-1] for i in range(self.ncols))

    def maximal_minors(self) -> dict[tuple[int, ...], Fraction]:
        """All k x k minors, keyed by ascending 1-based column tuples."""
        k = self.nrows
        idx = range(self.ncols)
        return {
            tuple(j + 1 for j in cols):
                self.submatrix(range(k), cols).det()
            for cols in combinations(idx, k)
        }

    def to_json(self) -> dict:
        return {"rows": self.nrows, "cols": self.ncols,
                "entries": [[rational_to_json(x) for x in row]
                            for row in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "Matrix":
        cols = as_int(obj["cols"])
        m = cls(obj["entries"], cols=cols)
        if m.nrows != as_int(obj["rows"]):
            raise ValueError("matrix shape does not match its entries")
        return m


def kernel_from_rref(reduced: Matrix, pivots: Sequence[int]) -> Matrix:
    """The kernel basis read off a reduced row echelon form: for each
    free column c, the vector with 1 at c and minus column c of the
    reduced rows at the pivots."""
    n = reduced.ncols
    rows = []
    for c in range(n):
        if c in pivots:
            continue
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced.entries[r][c]
        rows.append(v)
    return Matrix(rows, cols=n)


def cyclic_submatrix(m: Matrix, indices: Iterable[int]) -> Matrix:
    """Columns of m whose 1-based index is congruent to an element of
    indices modulo the column count, in ascending residue order."""
    n = m.ncols
    picked = sorted({residue(i, n) for i in indices})
    return m.submatrix(range(m.nrows), [j - 1 for j in picked])
