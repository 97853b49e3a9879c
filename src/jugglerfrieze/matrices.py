"""Exact dense linear algebra over the rationals.

Matrices are immutable grids of exact scalars, each an int or a
fractions.Fraction (see as_rational: an integral input stays an int,
and the two compare and hash by value).  Each matrix, like each frieze
window, keeps one integer view built on first use: the grid times one
common lcm L of its denominators (scaled_ints), so a t x t minor of the
view is L**t times the grid's.  Every division below is exact, the
fraction-free rule of dividing each update by the previous pivot, and
seven kernels own it, on integer rows:

- integer_det: a determinant by Bareiss elimination;
- integer_eliminate: fraction-free Gauss-Jordan;
- integer_kernel: a kernel basis read off integer_eliminate;
- integer_cross: the r + 1 signed maximal minors of r rows, read off
  integer_kernel;
- integer_solve: det B and adj(B) X for a column set B, read off
  integer_eliminate;
- integer_exchange: the same pair after one column of B is exchanged,
  a rank-one update;
- border: det B and adj(B) after B gains one row and one column, by
  the Schur complement.

Fractions are built only for results and "p/q" inputs.  Every value is
exact; there is no floating point anywhere in this package.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from .juggling import as_int, residue, sign_power


# an optional sign, ASCII digits and an optional "/" and ASCII digits;
# Fraction alone also reads "1.5", "1e3", "1_000", padding spaces and
# the digits of other scripts
_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_rational(x) -> int | Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact scalar.

    An int stays an int (a subclass other than bool becomes a plain
    int), a Fraction stays the same object, and only a "p/q" string is
    read into a Fraction.  An int equals and hashes like the Fraction
    of its value and has a numerator and a denominator of 1, so callers
    treat both alike.  Booleans and floats are not exact scalars.  A
    string is an optional sign and ASCII digits, with an optional "/"
    and ASCII digits; any other string, and a zero denominator, is a
    ValueError.
    """
    # exact type tests first: they skip the ABC dispatch of isinstance
    # for the common case, and a subclass still meets the checks below
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if isinstance(x, str):
        if not _RATIONAL_STRING.fullmatch(x):
            raise ValueError(f"not an integer or p/q string: {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"not an exact scalar: {x!r}")


def as_grid(rows) -> tuple[tuple[int | Fraction, ...], ...]:
    """A list or tuple of lists or tuples of exact scalars as a tuple of
    tuples of ints and Fractions (see as_rational: integral JSON stays
    int); anything else is a TypeError, so a string is never read as a
    row of digits."""
    if isinstance(rows, (list, tuple)):
        # a row of another type is dropped, which leaves the grid short
        grid = tuple(tuple(map(as_rational, row)) for row in rows
                     if isinstance(row, (list, tuple)))
        if len(grid) == len(rows):
            return grid
    raise TypeError("expected a list of lists")


def scaled_ints(grid) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The grid times one common lcm L of its denominators, as ints, and
    L: a t x t minor of the result is L**t times the grid's."""
    scale = lcm(*(x.denominator for row in grid for x in row))
    return (tuple(tuple(x.numerator * (scale // x.denominator) for x in row)
                  for row in grid), scale)


def integer_det(rows: list[list[int]]) -> int:
    """The determinant of a square integer matrix by Bareiss elimination;
    the list may be reordered, and the empty matrix has determinant 1.

    Each step drops the pivot column and replaces every lower row by
    (pv*row - f*pivot_row) // prev, an exact division: every entry is
    then a minor of the input.  The last pivot, signed by the row
    swaps, is the determinant.
    """
    sign = 1
    prev = 1
    while len(rows) > 1:
        for p, top in enumerate(rows):
            if top[0]:
                break
        else:
            return 0
        if p:
            rows[0], rows[p] = top, rows[0]
            sign = -sign
        pv = top[0]
        tail = top[1:]
        rows = [[(pv * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
                for row in rows[1:]]
        prev = pv
    return sign * rows[0][0] if rows else 1


def integer_eliminate(rows: list[list[int]], ncols: int,
                      prev: int = 1) -> tuple[tuple[int, ...], int, int]:
    """Fraction-free Gauss-Jordan on the first ncols columns of integer
    rows, in place; later columns ride along as right-hand sides.

    Each step replaces every other row by (pv*row - f*pivot_row) // prev,
    an exact division.  A pivot row whose pivot is -prev is negated
    first, so that the step leaves the rows with f = 0 alone, as in the
    signed identity columns of a positive complement.  Returns the pivot
    columns, the last pivot d and the sign of the row swaps and
    negations.  Afterwards every pivot equals d, so the reduced form is
    the rows over d; on a square nonsingular matrix sign * d is the
    determinant.

    Full-rank rows that an earlier call left as d times a reduced form
    continue from prev = d, with their columns in any new order: each
    step is then one basis exchange, as in integer_exchange, so the
    entries stay minors of the first call's rows.  The pivots and rows
    are those of one call on the first rows in the new column order, up
    to one common sign, and both calls' signs times the second call's d
    are that call's sign * d.
    """
    pivots = []
    sign = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        for p in range(r, len(rows)):
            if rows[p][c]:
                break
        else:
            continue
        top = rows[p]
        if p != r:
            rows[r], rows[p] = top, rows[r]
            sign = -sign
        pv = top[c]
        if pv == -prev:
            top = rows[r] = [-x for x in top]
            pv, sign = prev, -sign
        for i, row in enumerate(rows):
            f = row[c]
            # with f = 0 and pv = prev the step leaves the row as it is
            if i != r and (f or pv != prev):
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.append(c)
        r += 1
    return tuple(pivots), prev, sign


def integer_kernel(rows: list[list[int]], ncols: int) -> tuple[
        tuple[int, ...], int, int, list[list[int]]]:
    """The kernel of integer rows, read off one integer_eliminate of
    them (in place): its pivots, last pivot d and sign, and one kernel
    vector per free column c, d times the reduced-form one: d at c and
    minus row r's entry at c at pivot r, ints throughout.  With full
    row rank, sign * d is the minor of the rows on the pivot columns.
    """
    pivots, d, sign = integer_eliminate(rows, ncols)
    free = sorted(set(range(ncols)).difference(pivots))
    basis = []
    for c in free:
        v = [0] * ncols
        v[c] = d
        for pc, row in zip(pivots, rows):
            v[pc] = -row[c]
        basis.append(v)
    return pivots, d, sign, basis


def integer_cross(rows: list[list[int]], ncols: int) -> list[int]:
    """The signed maximal minors c_j = (-1)**j det(rows without column
    j), j < ncols, of ncols - 1 integer rows, from one integer_kernel of
    them (in place); by Cramer, the dot product of c with a row x is
    the determinant of x stacked on the rows.  Below full rank every c_j
    is 0.

    At full rank the kernel is one vector, d at the one free column f
    and d times the reduced form elsewhere; c is in the kernel too, and
    c_f = (-1)**f sign * d, the minor on the pivot columns, so c is that
    vector times (-1)**f sign.  No rows (ncols = 1) give c = (1,).
    """
    pivots, d, sign, basis = integer_kernel(rows, ncols)
    if len(pivots) < ncols - 1:
        return [0] * ncols
    (f,) = set(range(ncols)).difference(pivots)
    sign *= sign_power(f)
    return [sign * x for x in basis[0]]


def integer_solve(ints, cols, extra) -> tuple[int, list | None]:
    """(d, Y): d = det B for B the columns cols (1-based, ascending) of
    the integer rows ints, and Y = adj(B) X as k rows, for X the matrix
    whose row i is extra[i]; Y is None when d is 0.

    One integer_eliminate of [B P | X] leaves +-d [I | P^-1 B^-1 X], P
    ordering B's columns by how many entries they have, fewest first,
    so that a pivot in a column of one entry, as in a reduced form or a
    positive complement, leaves the other rows alone.  Row t of the
    result is then row order[t] of B^-1 X, and det P is the parity of
    the pairs of unequal counts the stable sort moved past each other.
    """
    k = len(cols)
    counts = [sum(1 for row in ints if row[j - 1]) for j in cols]
    order = sorted(range(k), key=counts.__getitem__)
    rows = [[row[cols[i] - 1] for i in order] + x
            for row, x in zip(ints, extra)]
    pivots, last, sign = integer_eliminate(rows, k)
    if len(pivots) < k:
        return 0, None
    sign *= sign_power(sum(x > y for t, x in enumerate(counts)
                           for y in counts[t + 1:]))
    adj = [None] * k
    for i, row in zip(order, rows):
        adj[i] = [sign * x for x in row[k:]]
    return sign * last, adj


def integer_exchange(d: int, chart: list[list[int]], s: int, p: int,
                     q: int) -> tuple[int, list[list[int]] | None]:
    """det B' and its chart after one column exchange, from d = det B
    != 0 for a k x k integer matrix B and its chart: k integer rows
    whose column t is adj(B) x_t for a column x_t, so that entry (i, t)
    is det B with its column i replaced by x_t (Cramer).

    Column p of B leaves for u = x_s, whose vector v = adj(B) u is the
    chart's column s, and u moves to position q of B'.  Before the move
    det B' is v_p, row p of the chart stays and every other row r_i
    becomes (v_p r_i - v_i r_p) / d, exact as in Bareiss; column s then
    belongs to the leaving column, whose new vector is -v_i at i and d
    at p.  Moving u from p to q moves row p to q and flips every sign by
    (-1)**(p - q).  Returns det B' and its chart, a new list, or None
    for the chart when det B' is 0.  The cost is k times the chart's
    width, with no dot product.
    """
    v = [row[s] for row in chart]
    # the sign of the re-sort rides on the divisor
    sign = sign_power(p - q)
    top, vp, div = chart[p], v[p], d * sign
    chart = [[sign * x for x in top] if i == p
             else [(vp * x - vi * y) // div for x, y in zip(r, top)]
             for i, (r, vi) in enumerate(zip(chart, v))]
    for r, vi in zip(chart, v):
        r[s] = -sign * vi
    chart[p][s] = sign * d
    chart.insert(q, chart.pop(p))
    return sign * vp, chart if vp else None


def border(d: int, adj: list[list[int]], u: list[int], v: list[int],
           w: int) -> tuple[int, list[list[int]]]:
    """det B' and adj(B') for the (k+1) x (k+1) integer matrix
    B' = [[B, u], [v, w]], B bordered by column u, row v and corner w,
    from d = det B != 0 and adj = adj(B) as k rows.

    With the column adj(B) u and the row v adj(B), the Schur complement
    gives det B' = w d - v adj(B) u and

        adj(B') = [[(det B' adj(B) + adj(B) u v adj(B)) / d, -adj(B) u],
                   [-v adj(B), d]],

    the division exact as in Bareiss.  Both are polynomials in the
    entries, so they hold when det B' is 0 too.  A zero row v, as when
    a lower triangular array gains a row and a column, leaves w adj(B)
    in the top block, with no division.  Returns new lists; the cost is
    O(k**2), with v adj(B) summed over v's nonzero entries only.
    """
    au = [sum(map(mul, row, u)) for row in adj]
    va = [0] * len(adj)
    for x, row in zip(v, adj):
        if x:
            va = [s + x * y for s, y in zip(va, row)]
    det = w * d - sum(map(mul, v, au))
    if any(v):
        top = [[(det * y + p * q) // d for y, q in zip(row, va)]
               for row, p in zip(adj, au)]
    else:
        top = [[w * y for y in row] for row in adj]
    for row, p in zip(top, au):
        row.append(-p)
    top.append([-q for q in va] + [d])
    return det, top


def rational_to_json(x: int | Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class Matrix:
    """An immutable rows x cols grid of rationals."""

    __slots__ = ("entries", "nrows", "ncols", "_view")

    def __init__(self, rows: Sequence[Sequence], cols: int | None = None):
        data = as_grid(rows)
        width = len(data[0]) if data else cols
        if width is None or as_int(width) < 0:
            raise ValueError(f"empty matrix needs a column count of at "
                             f"least 0, not {width}")
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        if cols not in (None, width):
            raise ValueError("matrix shape does not match its entries")
        self.entries = data
        self.nrows = len(data)
        self.ncols = width
        self._view = None

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        return cls(columns).transpose()

    def __getitem__(self, key) -> int | Fraction:
        i, j = key
        return self.entries[i][j]

    def column(self, j: int) -> tuple[int | Fraction, ...]:
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

    def integer_view(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """scaled_ints of the entries, built once per object."""
        if self._view is None:
            self._view = scaled_ints(self.entries)
        return self._view

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
        """The determinant on the given 0-based rows and columns: the
        integer view's minor over L**t for t rows."""
        if len(rows) != len(cols):
            raise ValueError("determinant of a non-square matrix")
        ints, scale = self.integer_view()
        return Fraction(integer_det([[ints[i][j] for j in cols]
                                     for i in rows]), scale ** len(rows))

    def det(self) -> Fraction:
        """Exact determinant; the empty 0x0 matrix has determinant 1."""
        return self.minor(range(self.nrows), range(self.ncols))

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot columns, by
        integer_eliminate on the integer view (row scaling changes
        neither)."""
        rows = [list(row) for row in self.integer_view()[0]]
        pivots, d, _ = integer_eliminate(rows, self.ncols)
        return (Matrix([[Fraction(x, d) for x in row] for row in rows],
                       cols=self.ncols),
                pivots)

    def kernel_basis(self) -> "Matrix":
        """Rows spanning {v : self @ v = 0}, one per free column c: 1 at
        c and minus column c of the reduced form at the pivots, from
        integer_kernel on the integer view."""
        rows = [list(row) for row in self.integer_view()[0]]
        _, d, _, basis = integer_kernel(rows, self.ncols)
        return Matrix([[Fraction(x, d) for x in v] for v in basis],
                      cols=self.ncols)

    def solve(self, rhs: Sequence) -> tuple[Fraction, ...]:
        """The unique x with self * x = rhs, from the rref of [self | rhs]."""
        if self.nrows != self.ncols:
            raise ValueError("solve needs a square matrix")
        if len(rhs) != self.nrows:
            raise ValueError("dimension mismatch")
        reduced, pivots = Matrix([row + (x,) for row, x in zip(
            self.entries, rhs)], cols=self.ncols + 1).rref()
        if pivots != tuple(range(self.ncols)):
            raise ValueError("singular matrix")
        return tuple(row[-1] for row in reduced.entries)

    def maximal_minors(self) -> dict[tuple[int, ...], Fraction]:
        """All k x k minors, keyed by ascending 1-based column tuples."""
        k = self.nrows
        idx = range(self.ncols)
        return {
            tuple(j + 1 for j in cols):
                self.minor(range(k), cols)
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


def cyclic_columns(n: int, indices: Iterable[int]) -> list[int]:
    """The 0-based columns whose 1-based index is congruent to an
    element of indices modulo n, in ascending residue order."""
    return [j - 1 for j in sorted({residue(i, n) for i in indices})]


def cyclic_submatrix(m: Matrix, indices: Iterable[int]) -> Matrix:
    """The columns cyclic_columns(m.ncols, indices) of m."""
    return m.submatrix(range(m.nrows), cyclic_columns(m.ncols, indices))
