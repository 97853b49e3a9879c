"""Exact dense linear algebra over the rationals.

Matrices are immutable grids of exact scalars, each an int or a
fractions.Fraction (see as_rational: an integral input stays an int,
and the two compare and hash by value).  Each matrix, like each frieze
window, keeps one integer view built on first use: the grid times one
common lcm L of its denominators (scaled_ints), so a t x t minor of the
view is L**t times the grid's.  Every division below is exact, the
fraction-free rule of dividing each update by the previous pivot, and
six kernels own it, on integer rows:

- integer_det: a determinant by Bareiss elimination;
- integer_eliminate: fraction-free Gauss-Jordan in a given column
  order, the pivot rows kept in column order;
- greedy_chart: the greedy basis of the columns along an order, its
  determinant d and its chart d B^-1 M on the other columns, from one
  integer_eliminate or from a chart the caller holds, by exchanges;
  chart_kernel reads the kernel off the chart;
- integer_cross: the r + 1 signed maximal minors of r rows, read off
  one greedy_chart's kernel;
- integer_solve: det B and adj(B) X for a column set B, read off one
  greedy_chart of [B | X];
- integer_exchange: the same pair after one column of B is exchanged,
  a rank-one update.

border gives det B and adj(B) after B gains a zero row and one column,
with no division.

A result entry is built by ratio, the exact quotient of an integer by
a scale: an int when it is integral, else one Fraction; only those
entries and "p/q" inputs are Fractions.  Every value is exact; there
is no floating point anywhere in this package.

At the JSON boundary one codec reads and writes every grid, row by
row: as_grid keeps a row of exactly ints and Fractions as it is, and
grid_to_json copies a row of plain ints, each by one C-level pass over
the row's types; any other row goes entry by entry through as_rational
or rational_to_json.
"""
from __future__ import annotations

import re
from bisect import bisect_left
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
        # a row of another type is dropped, which leaves the grid short;
        # a row of exactly ints and Fractions is kept as it is, in C
        grid = tuple(tuple(row) if set(map(type, row)) <= {int, Fraction}
                     else tuple(map(as_rational, row)) for row in rows
                     if isinstance(row, (list, tuple)))
        if len(grid) == len(rows):
            return grid
    raise TypeError("expected a list of lists")


def ratio(x: int, unit: int) -> int | Fraction:
    """x / unit for integers x and unit != 0: the int quotient when unit
    divides x, of either sign, else the Fraction."""
    q, r = divmod(x, unit)
    return Fraction(x, unit) if r else q


def scaled_ints(grid) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The grid, a tuple of tuples, times one common lcm L of its
    denominators, as ints, and L: a t x t minor of the result is L**t
    times the grid's.  A grid of ints is its own view, with L = 1."""
    if all(set(map(type, row)) <= {int} for row in grid):
        return grid, 1
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


def integer_eliminate(rows: list[list[int]],
                      cols: Iterable[int]) -> tuple[tuple[int, ...], int, int]:
    """Fraction-free Gauss-Jordan on integer rows, in place, pivoting in
    the columns cols in that order; the other columns ride along, as
    right-hand sides.

    Each step moves the pivot row up to its place among the earlier
    pivot rows, sorted by pivot column, and replaces every other row by
    (pv*row - f*pivot_row) // prev, an exact division.  A pivot row
    whose pivot is -prev is negated first, so that the step leaves the
    rows with f = 0 alone, as in the signed identity columns of a
    positive complement.  Returns the pivot columns, ascending, the
    last pivot d and the sign of the row moves and negations.
    Afterwards every pivot equals d, so the reduced form is the rows
    over d, and sign * d is the minor of the rows on the pivot columns
    when there is one pivot per row.
    """
    pivots = []
    sign = prev = 1
    for c in cols:
        for p in range(len(pivots), len(rows)):
            if rows[p][c]:
                break
        else:
            continue
        q = bisect_left(pivots, c)
        top = rows.pop(p)
        rows.insert(q, top)
        sign *= sign_power(p - q)
        pv = top[c]
        if pv == -prev:
            top = rows[q] = [-x for x in top]
            pv, sign = prev, -sign
        for i, row in enumerate(rows):
            f = row[c]
            # with f = 0 and pv = prev the step leaves the row as it is
            if i != q and (f or pv != prev):
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        pivots.insert(q, c)
    return tuple(pivots), prev, sign


def sparsest_first(rows, cols) -> list[int]:
    """The columns cols of integer rows, those with the fewest nonzero
    entries first, ties in the given order: a pivot in a column of one
    entry, as in a reduced form or a positive complement, leaves the
    other rows alone."""
    return sorted(cols, key=lambda j: sum(1 for row in rows if row[j]))


def greedy_chart(ints, order, start) -> tuple[list[int], int, list[int],
                                              list[list[int]]]:
    """The greedy basis of the columns of integer rows listed in order
    (0-based), the first basis of them read in that order, and its
    chart.  The basis meets each prefix of order in columns that span
    that prefix.

    Returns (basis, d, slots, chart) in the necklace walk's layout: the
    basis ascending, d = det B for B the rows on it, and k rows whose
    column slots[j] < n - k is adj(B) m_j for each column j outside the
    basis, so that entry (i, slots[j]) is det B with its column i
    replaced by m_j (Cramer); a basis column has slot n - k.  Below full
    rank r the basis has r columns, the chart is the r nonzero rows of
    d times the reduced form on it, and d is a pivot, not det B.  Every
    column has a slot, listed in order or not; with no rows, n is
    len(order).

    start is a chart in that layout, (basis, d, slots, chart) with
    d != 0, which is read and not changed; or else an elimination order
    of columns: one integer_eliminate of them in that order, whose
    pivots are the first basis along it and whose rows, sorted by pivot
    column, are the chart.  From the start one pass along order brings
    in each column j outside the basis whose chart column is nonzero at
    a basis position after j, by one integer_exchange that moves out
    the latest such position; the basis then spans every prefix up to
    j, so the pass is not repeated.  It stops once no basis column lies
    after j.  Each exchange costs k times the chart's width; an
    elimination along order itself needs none.
    """
    n = len(ints[0]) if ints else len(order)
    if isinstance(start, tuple):
        basis, d, slots, chart = start
        basis, slots = list(basis), list(slots)
    else:
        rows = [list(row) for row in ints]
        basis, d, sign = integer_eliminate(rows, start)
        basis, free = list(basis), sorted(set(range(n)).difference(basis))
        slots = [n - len(basis)] * n
        for s, j in enumerate(free):
            slots[j] = s
        d, chart = sign * d, [[sign * row[j] for j in free]
                              for row in rows[:len(basis)]]
    # the basis columns after j along order
    width, later = n - len(basis), set(basis)
    for j in order:
        if not later:
            break
        s = slots[j]
        later.discard(j)
        hit = s < width and [p for p, c in enumerate(basis)
                             if c in later and chart[p][s]]
        if hit:
            # move out the latest along order
            p = max(hit, key=lambda p: order.index(basis[p]))
            leaving = basis.pop(p)
            q = bisect_left(basis, j)
            basis.insert(q, j)
            d, chart = integer_exchange(d, chart, s, p, q)
            slots[j], slots[leaving] = width, s
    return basis, d, slots, chart


def chart_kernel(basis, d, slots, chart) -> list[list[int]]:
    """The kernel of the rows a greedy_chart describes, one vector per
    column j outside the basis, ascending: d at j and minus j's chart
    column at the basis, since B adj(B) m_j = d m_j.  Each is d times
    the reduced-form vector with 1 at j."""
    kernel = []
    for j, s in enumerate(slots):
        if s < len(slots) - len(basis):
            kernel.append([0] * len(slots))
            kernel[-1][j] = d
            for c, row in zip(basis, chart):
                kernel[-1][c] = -row[s]
    return kernel


def integer_cross(rows: list[list[int]], ncols: int) -> list[int]:
    """The signed maximal minors c_j = (-1)**j det(rows without column
    j), j < ncols, of ncols - 1 integer rows, from one greedy_chart of
    them in natural order; by Cramer, the dot product of c with a row x
    is the determinant of x stacked on the rows.  Below full rank every
    c_j is 0.

    At full rank one column f is outside the basis, and its kernel
    vector (chart_kernel) is d = det(rows without column f) at f; c is
    in the kernel too, with c_f = (-1)**f d, so c is that vector times
    (-1)**f.  No rows (ncols = 1) give c = (1,).
    """
    # (basis, d, slots, chart); f is the column in slot 0
    chart = greedy_chart(rows, range(ncols), range(ncols))
    if len(chart[0]) < ncols - 1:
        return [0] * ncols
    return [sign_power(chart[2].index(0)) * x for x in chart_kernel(*chart)[0]]


def integer_solve(ints, cols, extra) -> tuple[int, list | None]:
    """(d, Y): d = det B for B the columns cols (1-based, ascending) of
    the integer rows ints, and Y = adj(B) X as k rows, for X the matrix
    whose row i is extra[i]; Y is None when d is 0.

    One greedy_chart of [B | X] read from B's columns, sparsest first:
    when B is a basis it is the pivots, and the chart on X's columns is
    adj(B) X.
    """
    k = len(cols)
    rows = [[row[j - 1] for j in cols] + x for row, x in zip(ints, extra)]
    start = sparsest_first(rows, range(k))
    basis, d, _, chart = greedy_chart(rows, start, start)
    return (d, chart) if len(basis) == k else (0, None)


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


def border(d: int, adj: list[list[int]], u: list[int],
           w: int) -> tuple[int, list[list[int]]]:
    """det B' and adj(B') for the (k+1) x (k+1) integer matrix
    B' = [[B, u], [0, w]], B bordered by column u, a zero row and
    corner w, as when a lower triangular array gains a row and a
    column, from d = det B and adj = adj(B) as k rows:

        det B' = w d,  adj(B') = [[w adj(B), -adj(B) u], [0, d]],

    with no division.  Returns new lists; the cost is O(k**2).
    """
    top = [[w * y for y in row] + [-sum(map(mul, row, u))] for row in adj]
    top.append([0] * len(adj) + [d])
    return w * d, top


def rational_to_json(x: int | Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def grid_to_json(rows) -> list[list]:
    """Rows of exact scalars as JSON lists: a row of plain ints is
    copied as it is, in C, and any other row goes entry by entry
    through rational_to_json."""
    return [list(row) if set(map(type, row)) == {int}
            else [rational_to_json(x) for x in row] for row in rows]


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
        integer view's minor over L**t for t rows, a Fraction even when
        integral, so that a quotient of two stays exact."""
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
        pivots, d, _ = integer_eliminate(rows, range(self.ncols))
        return (Matrix([[ratio(x, d) for x in row] for row in rows],
                       cols=self.ncols),
                pivots)

    def kernel_basis(self) -> "Matrix":
        """Rows spanning {v : self @ v = 0}, one per free column c: 1 at
        c and minus column c of the reduced form at the pivots, read off
        the integer view's greedy_chart in natural order (chart_kernel)."""
        order = range(self.ncols)
        chart = greedy_chart(self.integer_view()[0], order, order)
        return Matrix([[ratio(x, chart[1]) for x in v]
                       for v in chart_kernel(*chart)], cols=self.ncols)

    def solve(self, rhs: Sequence) -> tuple[int | Fraction, ...]:
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
                "entries": grid_to_json(self.entries)}

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
