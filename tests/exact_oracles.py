"""Definitional counterparts of the package's fast exact paths.

The package eliminates fraction-free on integer rows and takes the dual
through a Hessenberg recurrence.  The oracles here do the same jobs the
plain way, in fractions.Fraction, so the tests can compare the two.
"""
from fractions import Fraction

from jugglerfrieze import PeriodicFrieze


def gauss_jordan(rows, ncols):
    """Gauss-Jordan over the rationals, one Fraction division per pivot.

    Returns the reduced rows, the pivot columns and the determinant
    (meaningful for square input: the signed pivot product, or 0 when
    some column has no pivot).
    """
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    det = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        pv = rows[r][c]
        det *= pv
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < len(rows):
        det = Fraction(0)
    return rows, tuple(pivots), det


def kernel_rows(rows, ncols):
    """One kernel vector per free column, read off the oracle RREF."""
    reduced, pivots, _ = gauss_jordan(rows, ncols)
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][c]
        basis.append(v)
    return basis


def minor_dual(c: PeriodicFrieze) -> PeriodicFrieze:
    """The dual array by definition: one determinant per entry, the
    minor of c on rows [b+1, a] and columns [b, a-1], plus the loop
    slot (-1)**balls at (b+n, b)."""
    pi = c.shape
    n = pi.period
    loop_slot = Fraction((-1) ** pi.balls)
    cols = []
    for b in range(1, n + 1):
        col = [c.minor(range(b + 1, a + 1), range(b, a))
               for a in range(b, b + n)]
        col.append(loop_slot if pi(b) == b else Fraction(0))
        cols.append(col)
    return PeriodicFrieze(pi.dual(), cols)
