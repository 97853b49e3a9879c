"""From matrices to friezes and back.

A k x n matrix whose landing-schedule minors are all 1 and whose
interval ranks respect the juggling function determines a frieze of
the dual shape, through one determinant per free entry or through the
twist: the necklace walk that certifies the matrix yields its twist
columns, and each free entry is one integer dot product with one, so
construct --verify and invert-F walk once.  Both directions live here,
with positive complements and the inverse twist.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .juggling import JugglingFunction, residue, sign_power
from .matrices import (Matrix, cyclic_columns, integer_det,
                       integer_eliminate, integer_kernel)
from .frieze import PeriodicFrieze, _recurrence_solutions


@dataclass
class UnimodularCertificate:
    """Evidence for (or against) unimodularity of a matrix."""

    checked_minors: list = field(default_factory=list)
    rank_violations: list = field(default_factory=list)
    twist_rows: list = field(default_factory=list, init=False, repr=False,
                             compare=False)

    @property
    def ok(self) -> bool:
        return (all(d == 1 for _, d in self.checked_minors)
                and not self.rank_violations)

    def bad_minors(self) -> list:
        return [(cols, d) for cols, d in self.checked_minors if d != 1]


def is_consecutively_unimodular(m: Matrix) -> bool:
    """Every k cyclically consecutive columns have determinant 1: the
    unimodularity of the uniform shape a -> a + k (a 0x0 matrix passes)."""
    k, n = m.nrows, m.ncols
    if k > n:
        raise ValueError("more rows than columns")
    return n == 0 or is_pi_unimodular(m, JugglingFunction.uniform(n, k)).ok


def _schedule_adjugates(m: Matrix, pi: JugglingFunction):
    """Walk the necklace: for a = 1..n yield the schedule L_a, the
    integer determinant d of B, its columns of m's integer view in
    ascending residue order, and the adjugate A of B (A B = d I), or
    None for A when d is 0.

    One elimination of [B^T | I] starts the walk: its right half is
    d B^-T up to sign.  Its rows are columns of m, so sparse columns,
    such as the identity columns of a positive complement, are rows the
    elimination leaves alone.  An exchange puts u, the column landing
    at pi(a - 1), at the position p of a - 1; with v = A u, the new
    determinant is v_p, row p of A stays and every other row i becomes
    (v_p A_i - v_i A_p) / d, exact as in Bareiss.  Moving the new
    column to its sorted position q moves row p to q and flips both
    signs by (-1)**(p - q).  Loops and coloops change nothing; after a
    zero minor the next changed schedule is eliminated afresh.  A matrix
    that is not k x n fails before the first schedule.
    """
    n, k = pi.period, pi.balls
    if (m.nrows, m.ncols) != (k, n):
        raise ValueError(f"matrix is {m.nrows}x{m.ncols}, shape needs {k}x{n}")
    ints = m.integer_view()[0]
    d, adj, prev = 0, None, None
    for a, cols in enumerate(pi.necklace(), start=1):
        if cols != prev and not d:
            rows = [[row[j - 1] for row in ints]
                    + [int(i == r) for i in range(k)]
                    for r, j in enumerate(cols)]
            pivots, last, sign = integer_eliminate(rows, k)
            d = sign * last if len(pivots) == k else 0
            adj = ([[sign * row[k + i] for row in rows] for i in range(k)]
                   if d else None)
        elif cols != prev:
            new = residue(pi(a - 1), n)
            p, q = prev.index(a - 1), cols.index(new)
            u = [row[new - 1] for row in ints]
            v = [sum(map(mul, r, u)) for r in adj]
            # the sign of the re-sort rides on the divisor
            sign = sign_power(p - q)
            top, vp, div = adj[p], v[p], d * sign
            adj = [[sign * x for x in top] if i == p
                   else [(vp * x - vi * y) // div for x, y in zip(r, top)]
                   for i, (r, vi) in enumerate(zip(adj, v))]
            adj.insert(q, adj.pop(p))
            d = sign * vp
            if not d:
                adj = None
        prev = cols
        yield cols, d, adj


def is_pi_unimodular(m: Matrix, pi: JugglingFunction) -> UnimodularCertificate:
    """Check the landing-schedule minors and the interval rank bounds.

    Each necklace entry a gives one minor and, from its adjugate, column
    a of the twist of m's integer view times that minor (None if it is
    0), read off one walk of the necklace (_schedule_adjugates) and kept
    as twist_rows.  The rank of the columns in a cyclic interval [a, b]
    may not exceed the number of balls landing in it, a running count
    over b.  Where such a bound can bind for a start column a, one
    elimination of m's columns read cyclically from a answers every b
    at once: its pivots are the lexicographically first basis, so the
    rank of [a, b] is the number of pivots at offset at most b - a.
    """
    n, k = pi.period, pi.balls
    cert = UnimodularCertificate()
    ints, scale = m.integer_view()
    for a, (cols, d, adj) in enumerate(_schedule_adjugates(m, pi), start=1):
        cert.checked_minors.append((cols, Fraction(d, scale ** k)))
        cert.twist_rows.append(None if adj is None else (
            adj[cols.index(a)] if a in cols else [0] * k))
        # the schedule's landing times in [a, a+n), from their residues
        lands = {r if r >= a else r + n for r in cols}
        bounds = []
        allowed = 0
        for b in range(a, a + n):
            allowed += b in lands
            if allowed < min(k, b - a + 1):  # else it cannot bind
                bounds.append((b, allowed))
        if not bounds:
            continue
        # columns a, a+1, ... up to the last bound, in that order
        rotated = [residue(j, n) - 1 for j in range(a, bounds[-1][0] + 1)]
        pivots = integer_eliminate([[row[j] for j in rotated] for row in ints],
                                   len(rotated))[0]
        for b, allowed in bounds:
            r = bisect_right(pivots, b - a)
            if r > allowed:
                cert.rank_violations.append(((a, b), r, allowed))
    return cert


def twist(m: Matrix, pi: JugglingFunction) -> Matrix:
    """Column a of the twist pairs to 1 with column a of m and to 0 with
    the other landing-schedule columns; a loop is not in its own
    schedule, so its column is zero.

    With L the scale of m's integer view, B the schedule's columns of
    that view, d = det B and A its adjugate, the column is L times row p
    of A over d, p the position of a in the schedule.  One walk of the
    necklace (_schedule_adjugates) gives every d and A; the schedule
    minor d / L**k must be 1.
    """
    k = pi.balls
    scale = m.integer_view()[1]
    cols = []
    for a, (order, d, adj) in enumerate(_schedule_adjugates(m, pi), start=1):
        if d != scale ** k:
            raise ValueError(f"landing-schedule minor at {a} is not 1")
        row = adj[order.index(a)] if a in order else [0] * k
        cols.append([Fraction(scale * x, d) for x in row])
    return Matrix.from_columns(cols)


def positive_complement(m: Matrix) -> Matrix:
    """An (n-k) x n matrix whose maximal minors equal those of m on
    complementary column sets.

    One integer_kernel of m's integer view gives its kernel basis, d
    times the reduced-form one, and its pivot columns, the
    lexicographically first basis of its columns; the minor of m there
    is sign * d / L**k, L the scale of the view, read off the same
    elimination.  Negating the odd-numbered columns of the kernel basis
    and rescaling its first row makes the minor on the free columns, a
    sign since the negated basis is diagonal there, equal to that
    minor.  The result certifies itself: m has rank k, the basis is
    independent (its free columns hold a signed identity) and m kills
    it, an integer dot product with each row of the integer view, so
    its rows span the kernel of m.  By alternating duality (Karp,
    arXiv:1503.05622) the column-alternated kernel has the Pluecker
    coordinates of m on complementary sets up to one constant, so one
    matched nonzero pair matches every pair.  For k = n the complement
    has no rows and one minor, 1, so det m must be 1.  Each entry
    becomes a Fraction once, when the result is built.
    """
    k, n = m.nrows, m.ncols
    ints, scale = m.integer_view()
    pivots, d, sign, basis = integer_kernel([list(row) for row in ints], n)
    if len(pivots) != k:
        raise ValueError("matrix does not have full row rank")
    if any(sum(map(mul, row, v)) for row in ints for v in basis):
        raise ValueError("kernel basis is not killed by the matrix")
    unit = scale ** k
    if k == n and sign * d != unit:
        raise ValueError(f"complement identity fails on columns "
                         f"{tuple(range(1, n + 1))}: 1 != "
                         f"{Fraction(sign * d, unit)}")
    co = sign_power(sum(1 for j in range(0, n, 2) if j not in pivots))
    # the basis is d times the reduced-form kernel; row 0 also takes the
    # pivot minor sign * d / unit and the sign co
    dens = [sign * co * unit] + [d] * (len(basis) - 1)
    return Matrix([[Fraction(-x if j % 2 == 0 else x, q)
                    for j, x in enumerate(v)]
                   for v, q in zip(basis, dens)], cols=n)


def frieze_entry(m: Matrix, pi: JugglingFunction, a: int, b: int) -> Fraction:
    """Entry (a, b) of the frieze of m, for arbitrary integers a, b: the
    signed minor of m on the schedule at a with a exchanged for b, the
    schedule read from the necklace by a's residue and the sign from the
    dual's sign table (entry_sign)."""
    n = pi.period
    if pi(a) == a:
        if a == b:
            return Fraction(1)
        if a == b + n:
            return Fraction(pi.dual().entry_sign(a, b))
        return Fraction(0)
    if not b <= a < b + n:
        return Fraction(0)
    ra, rb = residue(a, n), residue(b, n)
    rest = [x for x in pi.necklace()[ra - 1] if x != ra]
    if rb in rest:
        return Fraction(0)
    return pi.dual().entry_sign(a, b) * m.minor(range(m.nrows),
                                                cyclic_columns(n, rest + [rb]))


def _require_unimodular(m: Matrix, pi: JugglingFunction) -> list:
    cert = is_pi_unimodular(m, pi)
    if not cert.ok:
        # a schedule that repeats at a loop or coloop is named once
        minors = ", ".join(f"({', '.join(map(str, cols))}): {d}"
                           for cols, d in dict(cert.bad_minors()).items())
        ranks = ", ".join(f"columns {a}..{b} have rank {r} > {bound}"
                          for (a, b), r, bound in cert.rank_violations)
        raise ValueError("matrix is not unimodular for this juggling "
                         f"function: bad minors {minors or 'none'}; "
                         f"rank violations {ranks or 'none'}")
    return cert.twist_rows


def _fill_skeleton(shape: JugglingFunction, entry) -> PeriodicFrieze:
    """The frieze of the given shape whose fixed entries are its
    skeleton and whose free entry (a, b) is entry(a, b)."""
    return PeriodicFrieze(shape, [
        [entry(a, b) if x is None else x for a, x in enumerate(fixed, start=b)]
        for b, fixed in enumerate(shape.skeleton(), start=1)])


def build_frieze_det(m: Matrix, pi: JugglingFunction) -> PeriodicFrieze:
    """The frieze of m, one determinant per free entry; fixed entries
    are the skeleton on certified input.

    frieze_entry gives the same value at a fixed entry of a
    unimodular matrix, so only the slots the shape leaves free pay
    for a schedule-exchange determinant.
    """
    _require_unimodular(m, pi)
    return _fill_skeleton(pi.dual(), lambda a, b: frieze_entry(m, pi, a, b))


def build_frieze_twist(m: Matrix, pi: JugglingFunction) -> PeriodicFrieze:
    """The same frieze via the twist, an integer dot product per free entry.

    Free entry (a, b) is twist column residue(a, n) against column b
    of m: entry (residue(a, n), b) of twist(m)^T m, unwrapped around
    the diagonal with its sign flipped on wrapped entries (a > n) when
    the output shape's wrap_exponent is odd: the certificate's integer
    twist column against column b of m's integer view, over L**k, L the
    scale of the view.  The fixed entries, which that product matches on
    certified input, are the output shape's skeleton.
    """
    rows = _require_unimodular(m, pi)
    n = pi.period
    ints, scale = m.integer_view()
    unit = scale ** pi.balls
    dual = pi.dual()
    wrap_sign = sign_power(dual.wrap_exponent)

    def entry(a: int, b: int) -> Fraction:
        x = sum(t * r[b - 1] for t, r in zip(rows[residue(a, n) - 1], ints))
        return Fraction(x * wrap_sign if a > n else x, unit)

    return _fill_skeleton(dual, entry)


def inverse_twist(m: Matrix, pi: JugglingFunction) -> Matrix:
    """A matrix whose twist has the same maximal minors as m.

    Computed as the positive complement of the twist of the positive
    complement, which inverts the twist on the level of row spans.
    """
    _require_unimodular(m, pi)
    return positive_complement(twist(positive_complement(m), pi.dual()))


def frieze_to_matrix(c: PeriodicFrieze) -> Matrix:
    """Invert the frieze construction.

    Returns the unique (up to unimodular row operations, then pinned by
    a normalization) matrix whose frieze is c: the kernel of the n x n
    integer matrix whose row b is the solution of C x = 0 at column b,
    the signed dual column that decided c (_recurrence_solutions,
    wrapped by the superperiodic sign, zero at a loop), read at 1..n,
    by one integer_kernel; the first row is divided by the minor on the
    first landing schedule, and the result checked by the twist route.
    """
    pi = c.shape.dual()
    n, k = pi.period, pi.balls
    wrap = sign_power(c.shape.wrap_exponent)
    span = [[wrap * v for v in x[n - b + 1:]] + x[:n - b + 1]
            for b, x in enumerate(_recurrence_solutions(c), start=1)]
    _, d, _, basis = integer_kernel(span, n)
    if len(basis) != k:
        raise ValueError(f"complement of the solutions has {len(basis)}"
                         f" rows, expected {k}")
    # the basis is d times the candidate, whose minor is this over d**k
    first = cyclic_columns(n, pi.necklace()[0])
    minor = integer_det([[v[j] for j in first] for v in basis])
    if minor == 0:
        raise ValueError("normalization minor vanishes")
    rows = [[Fraction(x, d) for x in v] for v in basis]
    if rows:
        lift = d ** (k - 1)
        rows[0] = [Fraction(x * lift, minor) for x in basis[0]]
    result = Matrix(rows, cols=n)
    if build_frieze_twist(result, pi) != c:
        raise ValueError("inversion failed to reproduce the frieze")
    return result
