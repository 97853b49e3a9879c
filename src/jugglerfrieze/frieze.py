"""Periodic friezes shaped by a juggling function, and their checks.

A frieze of shape pi is stored as one fundamental domain: for each
column b in [1, n] the entries C[a, b] with a in [b, b+n].  The entry
accessor reduces arbitrary integer positions into this window, so the
stored object behaves like the full doubly infinite unitriangular
array with C[a+n, b+n] = C[a, b].  Its minors and its dual are
computed on the window's integer view (matrices.scaled_ints).

A frieze is defined by unit and vanishing minors, and is decided by its
dual: c is a frieze exactly when c and its dual array are both
prefriezes, of its shape and of the dual shape (is_frieze).  The dual
columns sum only the nonzero terms within the array's band, O(n**2
min(w, w*)) operations in all on a frieze whose shape and dual shape
have largest throws w and w*, and their signs make the solutions of
C x = 0 (_recurrence_solutions).  The minors are evaluated
only to explain a failure (check_frieze): one walk per start column a
keeps the unit minor on [a, b] and its adjugate as b grows, by a
bordering, a row exchange or no change per step, and reads each
vanishing minor off it, O(n**4) in all.  frieze_minor and
tameness_minor stay as the definitions, one determinant each.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter, mul
from typing import Sequence

from .juggling import JugglingFunction, as_int, residue, sign_power
from .matrices import (as_grid, border, grid_to_json, integer_det,
                       integer_exchange, integer_solve, ratio,
                       rational_to_json, scaled_ints)

# enumerate_sl2_positive stops past this many row entries appended, at
# min(height, j + 1) + 1 per value tried at quiddity position j: about
# 6.7 M for all of height 7, 12 M for height 2,000 at bound 2, and
# 0.3-0.7 us each (in process, 2-vCPU VM), so no search runs past
# about 10 s
MAX_ENUMERATE_ENTRIES = 15 * 10 ** 6


class PeriodicFrieze:
    """One fundamental domain of a frieze with a given juggling shape,
    and its integer view (see integer_view)."""

    __slots__ = ("shape", "columns", "_view")

    def __init__(self, shape: JugglingFunction, columns: Sequence[Sequence]):
        n = shape.period
        cols = as_grid(columns)
        if len(cols) != n or any(len(col) != n + 1 for col in cols):
            raise ValueError(f"need {n} columns of {n + 1} entries each")
        self.shape = shape
        self.columns = cols
        self._view = None

    def entry(self, a: int, b: int) -> int | Fraction:
        n = self.shape.period
        d = a - b
        if d < 0 or d > n:
            return 0
        return self.columns[residue(b, n) - 1][d]

    def integer_view(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """scaled_ints of the stored window, built once per object."""
        if self._view is None:
            self._view = scaled_ints(self.columns)
        return self._view

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
        """The determinant of the full array on the given rows and
        columns, as Matrix.minor: a Fraction even when integral."""
        if len(rows) != len(cols):
            raise ValueError("determinant of a non-square matrix")
        window, scale = self.integer_view()
        n = self.shape.period
        # entry (a, b) as in entry(), read from the view
        return Fraction(integer_det(
            [[window[(b - 1) % n][a - b] if 0 <= a - b <= n else 0
              for b in cols] for a in rows]), scale ** len(rows))

    def translate(self, s: int) -> "PeriodicFrieze":
        """The frieze (a, b) -> C[a+s, b+s], with the shape shifted to
        match (uniform shapes are unchanged)."""
        n = self.shape.period
        shifted = JugglingFunction(
            self.shape(b + s) - s for b in range(1, n + 1))
        cols = [[self.entry(b + d + s, b + s) for d in range(n + 1)]
                for b in range(1, n + 1)]
        return PeriodicFrieze(shifted, cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PeriodicFrieze)
                and self.shape == other.shape
                and self.columns == other.columns)

    def __hash__(self) -> int:
        return hash((self.shape, self.columns))

    def __repr__(self) -> str:
        return (f"PeriodicFrieze(shape={list(self.shape.values)!r}, "
                f"columns={self.columns!r})")

    def to_json(self) -> dict:
        return {"siteswap": list(self.shape.throws),
                "columns": columns_to_json(self.columns)}

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicFrieze":
        if not isinstance(obj["siteswap"], list):
            raise ValueError("siteswap must be a list of integer throws")
        shape = JugglingFunction.from_throws(obj["siteswap"])
        return cls(shape, columns_from_json(obj["columns"], shape.period))


def columns_to_json(columns: Sequence[Sequence[int | Fraction]]) -> dict:
    """Columns 1..n as the JSON object {"1": [...], ..., "n": [...]}."""
    return {str(b): col
            for b, col in enumerate(grid_to_json(columns), start=1)}


def columns_from_json(obj: dict, n: int) -> list:
    """The columns of a JSON object keyed exactly "1".."n"."""
    keys = [str(b) for b in range(1, n + 1)]
    if not isinstance(obj, dict) or set(obj) != set(keys):
        raise ValueError(f'column keys must be exactly "1".."{n}"')
    return [obj[key] for key in keys]


@dataclass
class FriezeReport:
    """Pass/fail evidence from the determinant checks of a frieze."""

    prefrieze_ok: bool
    frieze_failures: list = field(default_factory=list)
    tame_failures: list = field(default_factory=list)
    checked_pairs: int = 0

    @property
    def ok(self) -> bool:
        return (self.prefrieze_ok and not self.frieze_failures
                and not self.tame_failures)

    def to_json(self) -> dict:
        return {
            "prefrieze_ok": self.prefrieze_ok,
            "is_frieze": self.ok,
            "checked_pairs": self.checked_pairs,
            "frieze_failures": [
                {"a": a, "b": b, "det": rational_to_json(d)}
                for a, b, d in self.frieze_failures],
            "tame_failures": [
                {"a": a, "b": b, "det": rational_to_json(d)}
                for a, b, d in self.tame_failures],
        }


def is_prefrieze(c: PeriodicFrieze) -> bool:
    """Whether every stored column agrees with the shape's skeleton: a
    diagonal of 1s, the signed boundary along pi and zeros outside the
    cone.  The entries the skeleton leaves free (None) may be anything.
    """
    return next(_off_skeleton(c), None) is None


def _off_skeleton(c: PeriodicFrieze):
    """The entries (a, b, value, fixed value) that leave the skeleton."""
    return ((a, b, x, fixed) for b, (skel, col)
            in enumerate(zip(c.shape.skeleton(), c.columns), start=1)
            for a, (fixed, x) in enumerate(zip(skel, col), start=b)
            if fixed is not None and x != fixed)


def _interval_minor(c: PeriodicFrieze, rows: range, cols: range,
                    lo: int, hi: int) -> Fraction:
    """The minor of c on rows without the dual's s-set on (lo, hi) and
    columns without that set's image under the dual."""
    dual = c.shape.dual()
    skip = set(dual.s_set(lo, hi))
    skip_img = {dual(i) for i in skip}
    return c.minor([x for x in rows if x not in skip],
                   [x for x in cols if x not in skip_img])


def frieze_minor(c: PeriodicFrieze, a: int, b: int) -> Fraction:
    """The unit-determinant condition attached to the interval [a, b]."""
    return _interval_minor(c, range(a, b + 1), range(a, b + 1), a - 1, b + 1)


def tameness_minor(c: PeriodicFrieze, a: int, b: int) -> Fraction:
    """The vanishing condition attached to the interval [a, b]."""
    return _interval_minor(c, range(a + 1, b + 1), range(a, b), a, b)


def is_tameness_pair(pi: JugglingFunction, a: int, b: int) -> bool:
    """Whether the interval [a, b] carries a vanishing condition.

    The two strict inequalities cannot be merged or weakened; intervals
    failing both are exempt even when their minor is nonzero.
    """
    dual = pi.dual()
    return (dual(a) < b < a + pi.period) or (b < a + pi.period < pi(b))


def _vanishing_flags(pi: JugglingFunction) -> list[list[bool]]:
    """For a in [1, n], whether [a, b] carries a vanishing condition
    (is_tameness_pair) for b = a+1..a+n-1, read off the shape's and the
    dual's values with no call per pair.  Flag b - a - 1 of a is also
    that of a + n, so the list serves every start column."""
    n = pi.period
    lands = pi.values + tuple(v + n for v in pi.values)  # pi(b), b < 2n
    return [[dual_a < b or lands[b - 1] > a + n for b in range(a + 1, a + n)]
            for a, dual_a in enumerate(pi.dual().values, start=1)]


def _exchange_row(d: int, adj: list[list[int]], ax: list[int],
                  p: int) -> tuple[int, list[list[int]] | None]:
    """det B' and adj(B') for B' the k x k integer matrix B with column
    p removed and a column x appended last, from d = det B != 0,
    adj = adj(B) as k rows and ax = adj(B) x.  One
    matrices.integer_exchange on the chart [adj(B) | adj(B) x], the
    chart of [I | x], built by appending ax's entries to adj's rows in
    place; None for adj(B') when det B' is 0."""
    k = len(adj)
    for row, y in zip(adj, ax):
        row.append(y)
    d, adj = integer_exchange(d, adj, k, p, k - 1)
    if adj is not None:
        for row in adj:
            row.pop()
    return d, adj


def _interval_walk(c: PeriodicFrieze, a: int, flags: list[bool]):
    """Walk the unit minors of c from start column a, on its integer
    view.  Yields (True, b, det, t) for the unit minor on [a, b],
    b = a..a+n-1 in order, and (False, b + 1, det, t + 1) for the
    vanishing minor of (a - 1, b + 1) where flags[b - a + 1], with det
    the view's t x t minor: L**t times c's.

    M, the unit minor on [a, b], starts empty at b = a - 1.  With
    i = dual^-1(b + 1), the step to b + 1 borders M by row and column
    b + 1 when i < a (matrices.border: c vanishes above its diagonal,
    so the new column has zeros on M's rows), replaces row i by row
    b + 1, which goes last, when a <= i <= b (_exchange_row), and leaves
    M as it is when i = b + 1, a loop of the dual.  The walk keeps
    d = det M and adj(B) for B = M transposed, whose columns are M's
    rows.  The vanishing minor of (a - 1, b + 1) is M bordered by row
    b + 1 last and column a - 1 first, (-1)**t (w d - u adj(M) x) for x
    the new row on M's columns, u column a - 1 on M's rows and w their
    corner; adj(B) x, the vector both read, is taken once.  After a zero
    minor the next change re-anchors by matrices.integer_solve against
    the identity, and a vanishing minor next to a zero unit minor is a
    Bareiss determinant.  Each step is O(t**2), so a walk is O(n**3).
    """
    pi = c.shape
    n = pi.period
    window = c.integer_view()[0]

    def entry(r: int, j: int) -> int:
        # C[r, j] on the view, for r - j <= n
        return window[(j - 1) % n][r - j] if r >= j else 0

    rows, cols = [], []
    d, adj = 1, []
    for b in range(a - 1, a + n):
        t = len(rows)
        if b >= a:
            yield True, b, d, t
        if b == a + n - 1:
            return
        nxt = b + 1
        x = [entry(nxt, j) for j in cols]
        i = pi(nxt) - n
        vanishing = b - a + 1 < n - 1 and flags[b - a + 1]
        if adj is not None and (vanishing or a <= i <= b):
            ax = [sum(map(mul, row, x)) for row in adj]
        if vanishing:
            u = [entry(r, a - 1) for r in rows]
            w = entry(nxt, a - 1)
            if adj is not None:
                van = sign_power(t) * (w * d - sum(map(mul, u, ax)))
            else:
                van = integer_det([[y] + [entry(r, j) for j in cols]
                                   for y, r in zip(u, rows)] + [[w] + x])
            yield False, nxt, van, t + 1
        if i == nxt:
            continue
        if i < a:
            rows.append(nxt)
            cols.append(nxt)
            if adj is not None:
                d, adj = border(d, adj, x, [0] * t, entry(nxt, nxt))
        else:
            p = rows.index(i)
            del rows[p]
            rows.append(nxt)
            if adj is not None:
                d, adj = _exchange_row(d, adj, ax, p)
        if adj is None:
            k = len(rows)
            d, adj = integer_solve(
                [[entry(r, j) for r in rows] for j in cols], range(1, k + 1),
                [[int(s == q) for q in range(k)] for s in range(k)])
        elif not d:
            adj = None


def check_frieze(c: PeriodicFrieze) -> FriezeReport:
    """Decide c by its dual (see is_frieze); evaluate the determinant
    conditions only to explain a failure.

    The conditions over one period are the unit minors on [a, b],
    a in [1, n] and a <= b < a+n, and the vanishing minors of the
    intervals that carry one (is_tameness_pair); checked_pairs counts
    them on a frieze too.  Anything else gets every condition evaluated
    and every failure listed, by a and then b, from one walk of the
    unit minors per start column (_interval_walk), O(n**4) in all.
    """
    flags = _vanishing_flags(c.shape)
    n = c.shape.period
    pairs = n * n + sum(map(sum, flags))
    if is_frieze(c):
        return FriezeReport(prefrieze_ok=True, checked_pairs=pairs)
    report = FriezeReport(prefrieze_ok=is_prefrieze(c), checked_pairs=pairs)
    scale = c.integer_view()[1]
    last = []
    for a in range(1, n + 1):
        # the vanishing pairs (0, b) of the walk from 1 are (n, b + n)
        tame, shift = (report.tame_failures, 0) if a > 1 else (last, n)
        for unit, b, det, t in _interval_walk(c, a, flags[(a - 2) % n]):
            if unit and det != scale ** t:
                report.frieze_failures.append((a, b, ratio(det, scale ** t)))
            elif not unit and det:
                tame.append((a - 1 + shift, b + shift, ratio(det, scale ** t)))
    report.tame_failures += last
    return report


def is_frieze(c: PeriodicFrieze) -> bool:
    """Whether c is a frieze, decided by its dual array.

    c is a frieze exactly when it is a prefrieze of its shape pi and
    its dual array (dual_frieze) is a prefrieze of pi.dual(): each dual
    entry (b+t, b), t in [0, n), the minor of c on rows [b+1, b+t] and
    columns [b, b+t-1], takes the value the dual shape's skeleton fixes
    there, if it fixes one (slot (b+n, b) is no minor: dual_frieze
    reads it off that skeleton).  Columns b at a loop of pi are
    skipped: c is 0 below (b, b) there, so their minors vanish for
    t > 0, and b is a coloop of the dual, whose skeleton fixes only 0s
    below its diagonal.  The dual columns cost O(n**2 min(w, w*)) in
    all, w and w* the largest throws of pi and its dual (_dual_column),
    against the O(n**4) of the minors that check_frieze evaluates to
    explain a failure.
    """
    try:
        _dual_minors(c)
    except ValueError:
        return False
    return True


def _band(window) -> int:
    """The largest offset d < n of a nonzero entry below the diagonal,
    window[b][d] for some column b, or 0 when there is none."""
    return next((d for d in range(len(window) - 1, 0, -1)
                 if any(map(itemgetter(d), window))), 0)


def _dual_column(window, b: int, band: int) -> list[int]:
    """The minors D_0..D_{n-1} of column b of the dual (see
    dual_frieze), on the integer view window of an array whose entries
    below the diagonal lie within band of it (_band): D_t is L**t times
    the minor of the array.

    D_t sums only over the earlier D_j that are nonzero, with
    j >= t - band, since C[b+t, b+j] is 0 further out.  On a frieze of
    shape pi, C is 0 below the throw of pi and D_j below the throw of
    the dual, so a column costs O(n min(w, w*)), w and w* their largest
    throws.  Each kept D_j is held as its weight (-1)**j D_j times the
    diagonal entries C[b+m, b+m], j < m < t, so that D_t is (-1)**(t-1)
    times the sum of C[b+t, b+j] times the weights; the pass that sums
    them also multiplies each by C[b+t, b+t], only where that is not 1.
    """
    # near[j][d] is the scaled entry C[b+j+d, b+j]
    near = window[b - 1:] + window[:b - 1]
    minors = [1]
    # the kept j and their weights, ascending in j
    kept, weights = [0], [1]
    for t in range(1, len(window)):
        while kept and kept[0] < t - band:
            del kept[0], weights[0]
        g = near[t][0]
        total = 0
        for i, j in enumerate(kept):
            total += near[j][t - j] * weights[i]
            if g != 1:
                weights[i] *= g
        minors.append(total if t % 2 else -total)
        if total:
            kept.append(t)
            weights.append(-total)
    return minors


def _dual_minors(c: PeriodicFrieze) -> list:
    """The minors D_0..D_{n-1} of each dual column b (_dual_column) that
    decided c, None at a loop of the shape; else a ValueError naming the
    first entry of c off its skeleton, or the first dual entry, column
    by column, off the dual shape's skeleton, with the minor that gives
    it (see is_frieze)."""
    for a, b, x, fixed in _off_skeleton(c):
        raise ValueError(f"not a frieze: entry ({a}, {b}) is {x}, not {fixed}")
    pi = c.shape
    window, scale = c.integer_view()
    band = _band(window)
    found = []
    for b, skeleton in enumerate(pi.dual().skeleton(), start=1):
        if pi(b) == b:
            found.append(None)
            continue
        minors = _dual_column(window, b, band)
        # D_t must be L**t times the dual skeleton's fixed value
        for t, (fixed, d) in enumerate(zip(skeleton, minors)):
            if fixed is not None and d != fixed * scale ** t:
                raise ValueError(
                    f"not a frieze: dual entry ({b + t}, {b}), the minor on "
                    f"rows {b + 1}..{b + t} and columns {b}..{b + t - 1}, "
                    f"is {ratio(d, scale ** t)}, not {fixed}")
        found.append(minors)
    return found


def _recurrence_solutions(c: PeriodicFrieze) -> list:
    """The solutions x_t = (-1)**t D_t L**(n-1-t), t in [0, n), of C x = 0
    that decided c (D_t by _dual_minors, L the lcm of c's integer view),
    zero at loops; else _dual_minors' ValueError."""
    n = c.shape.period
    scale = c.integer_view()[1]
    return [[0] * n if minors is None else
            [sign_power(t) * d * scale ** (n - 1 - t)
             for t, d in enumerate(minors)]
            for minors in _dual_minors(c)]


def dual_frieze(c: PeriodicFrieze) -> PeriodicFrieze:
    """The dual array of near-diagonal minors; an involution on friezes.

    Entry (a, b) of the dual is the minor of c on rows [b+1, a] and
    columns [b, a-1].  For fixed b these are the leading principal
    minors D_t, t = a - b, of the matrix H with H[i][j] = C[b+1+i, b+j],
    which is lower Hessenberg because C vanishes above its diagonal.
    Expanding D_t along its last row gives, with D_0 = 1,

        D_t = sum_{j<t} (-1)**(t-1-j) C[b+t, b+j]
                        * prod_{m=j+1}^{t-1} C[b+m, b+m] * D_j,

    so a column costs no division, and O(n min(w, w*)) operations on a
    frieze whose shape and dual shape have largest throws w and w*
    (_dual_column).  Their fixed entries decide whether c is a frieze
    (is_frieze), and for a frieze
    the columns, signed, are the solutions of the recurrence C x = 0
    (recurrence.solution_matrix).  The diagonal product keeps the
    minors exact on arrays whose diagonal is not all 1.  D_t is
    homogeneous of degree t in the entries, so the recurrence runs on
    c's integer view L*C and D_t is that result over L**t.  The
    minors cannot see slot (b+n, b), so it is read from the dual shape's
    skeleton: 0 unless b is a loop of the shape, and then b is a coloop
    of the dual and the slot holds the dual's boundary sign there,
    (-1)**k for the k balls of the shape.
    """
    pi = c.shape
    n = pi.period
    window, scale = c.integer_view()
    band = _band(window)
    cols = []
    for b in range(1, n + 1):
        minors = _dual_column(window, b, band)
        col = [ratio(d, scale ** t) for t, d in enumerate(minors)]
        col.append(pi.dual().skeleton()[b - 1][n])
        cols.append(col)
    return PeriodicFrieze(pi.dual(), cols)


def is_sl_frieze(c: PeriodicFrieze, k: int, h: int) -> bool:
    """Classical frieze test: uniform shape with h balls and period h+k."""
    pi = c.shape
    if not pi.is_uniform():
        raise ValueError("frieze shape is not uniform")
    if pi.balls != h or pi.period != h + k:
        raise ValueError(
            f"shape has {pi.balls} balls and period {pi.period}, "
            f"expected {h} and {h + k}")
    return is_frieze(c)


def is_positive(c: PeriodicFrieze) -> bool:
    """Entries not forced to vanish, the diagonal and the skeleton's
    free entries, are positive after the sign twist, read off the
    shape's sign table (JugglingFunction.signs) in O(n**2).  The signs
    are read on the integer view, whose scale is positive."""
    pi = c.shape
    return all(col[0] > 0 and all(s * x > 0 for fixed, s, x
                                  in zip(skeleton, signs, col)
                                  if fixed is None)
               for skeleton, signs, col
               in zip(pi.skeleton(), pi.signs(), c.integer_view()[0]))


def frieze_from_quiddity(quiddity: Sequence[int]) -> PeriodicFrieze:
    """Build the classical frieze of height n-2 whose second row is the
    given n-periodic quiddity sequence of ints, closed as in _close_strip;
    raises if the diamond rule does not close up with positive integers."""
    q = [as_int(x) for x in quiddity]
    n = len(q)
    if n < 3:
        raise ValueError("quiddity needs period at least 3")
    rows = [[1]] + [[] for _ in range(n - 2)]
    strip = all(_diamond_step(rows, v) for v in q) and _close_strip(
        rows, JugglingFunction.uniform(n, n - 2))
    if not strip:
        raise ValueError("quiddity row does not generate an integral frieze")
    return strip


def _diamond_step(rows: list[list[int]], q: int) -> bool:
    """Append q to the quiddity row rows[1] and, to each row d >= 2 of
    the strip, the one entry it fixes by the diamond rule

        C[d][i] = (C[d-1][i] * C[d-1][i+1] - 1) / C[d-2][i+1].

    rows[0] holds the 1s, one more than rows[1]; each row is one entry
    shorter than the row above it.  False when a new entry lies below 1
    in rows 1..h-1 or is not 1 in the last row; rows below the failing
    one are left as they were.  Entries are continuants of the
    quiddity, so dividing by a 1 or an entry >= 1 is exact.
    """
    two_up, above = rows[0], rows[1]
    two_up.append(1)
    above.append(q)
    if q < 1:
        return False
    v = q
    # row d gains an entry once the row above holds two
    for row in rows[2:len(above) + 1]:
        v = (above[-2] * above[-1] - 1) // two_up[-2]
        row.append(v)
        if v < 1:
            return False
        two_up, above = above, row
    # above is the deepest row that gained an entry, and v that entry
    return above is not rows[-1] or v == 1


def _close_strip(rows: list[list[int]],
                 shape: JugglingFunction) -> PeriodicFrieze | None:
    """The classical strip of the uniform shape (n, h = n - 2) over rows
    grown by one period of diamond steps, or None when one of the h - 1
    wrapped steps, which stay appended to rows, fails."""
    n, h = shape.period, shape.balls
    if not all(_diamond_step(rows, q) for q in rows[1][:h - 1]):
        return None
    return PeriodicFrieze(shape, [[rows[d][b] for d in range(h + 1)]
                                  + [0] * (n - h) for b in range(n)])


def enumerate_sl2_positive(height: int, entry_bound: int) -> list[PeriodicFrieze]:
    """All positive integral friezes of the given height whose diamonds
    have determinant 1, with second-row entries bounded by entry_bound.

    Entrywise-distinct translates are counted as distinct friezes.
    Every quiddity entry is at most n - 2 = height, so the search tries
    no value above it and a bound of at least the height is exhaustive:
    all C_h (Catalan) of them, in quiddity order; each closes on the
    search's rows (_close_strip), not re-decided.

    The search is depth first and iterative, with one value counter per
    quiddity position j, so it keeps O(n) state besides the rows and
    has no recursion-depth limit.  Before each value tried at j, and
    once more before it backs up from j, it cuts rows 0..min(h, j+1)
    back to their length before position j (row d to j+1-d entries):
    the rows the last step at j touched, and at j = n-1 the leaf's
    h-1 wrapped steps.  Each value tried spends its rows 0..min(h, j+1)
    of MAX_ENUMERATE_ENTRIES, and a search past it is a ValueError.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    if entry_bound < 1:
        raise ValueError("entry bound must be at least 1")
    n = height + 2
    top = min(entry_bound, height)
    shape = JugglingFunction.uniform(n, height)
    found = []
    # the strip over the quiddity prefix rows[1], grown depth first
    rows = [[1]] + [[] for _ in range(height)]
    # tried[j]: the last value tried at position j, 0 before the first
    tried = [0] * n
    j = spent = 0
    while j >= 0:
        # undo the last step at j and all it appended: rows 0..min(h, j+1)
        cut = min(height, j + 1) + 1
        for d in range(cut):
            del rows[d][j + 1 - d:]
        if tried[j] == top:
            tried[j] = 0
            j -= 1
            continue
        tried[j] += 1
        spent += cut
        if spent > MAX_ENUMERATE_ENTRIES:
            raise ValueError(f"height {height} at bound {entry_bound} appends "
                             f"more than {MAX_ENUMERATE_ENTRIES} row entries")
        if _diamond_step(rows, tried[j]):
            if j < n - 1:
                j += 1
            else:
                f = _close_strip(rows, shape)
                if f is not None:
                    found.append(f)
    return found
