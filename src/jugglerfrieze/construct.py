"""From matrices to friezes and back.

A k x n matrix whose landing-schedule minors are all 1 and whose
interval ranks respect the juggling function determines a frieze of
the dual shape, through exchange minors or through the twist.  The
minor route (frieze_entries) takes one cofactor vector per schedule,
the signed maximal minors of min(k, n - k) integer rows from one
elimination, by the positive complement it builds once per reader when
2k > n, and reads each of the schedule's entries off it by Cramer.
The necklace walk that certifies the matrix keeps, for each schedule,
every exchange minor of the columns outside it, at k(n - k) integer
updates per exchange; the twist route reads each free entry off it,
and twist reads its columns off it through the adjugate of the first
schedule, so construct --verify and invert-F walk once.  Three paths
read a greedy basis, the first basis of the columns in some order, off
one matrices.greedy_chart: the certificate's rank bounds, from the
walk's chart on each schedule; the positive complement, whose kernel
is read off the first basis in natural order; and invert-F, which reads
the matrix off the frieze's own rows on the first schedule as the
reduced form on their last basis, and lets the twist route's rebuild
of the frieze decide it.
The walk and frieze_entries refuse a matrix that is not k x n through
one shape check (_shape_balls).  Both directions live here, with
positive complements; the inverse twist is the same twist run
backwards in time, on the mirror shape with m's rows and columns
reversed, so there is one twist walk for both directions.  The
arithmetic of every elimination, solve and exchange they run lives in
matrices, and this module keeps the necklace, slot and re-anchor
bookkeeping.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from operator import mul, neg

from .juggling import JugglingFunction, residue, sign_power
from .matrices import (Matrix, chart_kernel, greedy_chart, integer_cross,
                       integer_exchange, integer_solve, ratio, sparsest_first)
from .frieze import PeriodicFrieze, _recurrence_solutions, is_prefrieze


@dataclass
class UnimodularCertificate:
    """Evidence for (or against) unimodularity of a matrix."""

    checked_minors: list = field(default_factory=list)
    rank_violations: list = field(default_factory=list)
    exchange_rows: list = field(default_factory=list, init=False,
                                repr=False, compare=False)

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


def _shape_balls(m: Matrix, pi: JugglingFunction) -> int:
    """pi's ball count k, the length of a necklace entry, once m is
    k x n for pi's period n; else the ValueError that names both shapes."""
    n, k = pi.period, len(pi.necklace()[0])
    if (m.nrows, m.ncols) != (k, n):
        raise ValueError(f"matrix is {m.nrows}x{m.ncols}, shape needs {k}x{n}")
    return k


def _necklace_charts(m: Matrix, pi: JugglingFunction):
    """Walk the necklace: for a = 1..n yield the schedule L_a, the
    integer determinant d of B, its columns of m's integer view in
    ascending residue order, the slots, the chart on L_a and the
    exchange row of a.  The chart is k rows whose entry (i, s) is
    y_j[i] for j the column in slot s, y_j = adj(B) m_j, or None when d
    is 0.  Column j outside L_a has slot slots[j - 1] < n - k, and a
    column of L_a has slot n - k.  By Cramer, y_j[i] is the minor of the
    view on L_a with its i-th column exchanged for column j.  The slots
    and the chart are the walk's own: the next step changes them.  The
    exchange row is row p of the chart, p the position of a in L_a,
    read at every column b = 1..n: the minor of the view on L_a with a
    exchanged for b, y_b[p] outside L_a, d at a and 0 at the rest of
    L_a.  At a loop, which is not in its own schedule, the row is 0;
    where d is 0 it is None.

    The first basis of m's columns read with L_a's first, sparsest
    first, starts the walk (one matrices.greedy_chart elimination): it
    is L_a when L_a is a basis.  An exchange puts u, the column landing
    at pi(a - 1), at the position p of a - 1 and moves it to its sorted
    position q, one matrices.integer_exchange of u's slot at k(n - k)
    integer updates and no dot product; u's slot goes to the leaving
    column a - 1, and u takes slot n - k.  Loops and coloops change
    nothing; after a zero minor the next changed schedule is eliminated
    afresh.  A matrix that is not k x n fails before the first schedule
    (_shape_balls).
    """
    n, k = pi.period, _shape_balls(m, pi)
    ints = m.integer_view()[0]
    d, chart, prev = 0, None, None
    for a, cols in enumerate(pi.necklace(), start=1):
        if cols != prev and not d:
            own = [j - 1 for j in cols]
            start = sparsest_first(ints, own) + sorted({*range(n)} - {*own})
            basis, d, slots, chart = greedy_chart(ints, start, start)
            if basis != own:
                d, chart = 0, None
        elif cols != prev:
            new = residue(pi(a - 1), n)
            s = slots[new - 1]
            d, chart = integer_exchange(d, chart, s, prev.index(a - 1),
                                        cols.index(new))
            slots[new - 1], slots[a - 2] = n - k, s
        prev = cols
        if chart is None:
            row = None
        elif a in cols:
            # slot n - k, a column of L_a, reads the 0 appended here
            row = list(map((chart[cols.index(a)] + [0]).__getitem__, slots))
            row[a - 1] = d
        else:
            row = [0] * n
        yield cols, d, slots, chart, row


def is_pi_unimodular(m: Matrix, pi: JugglingFunction) -> UnimodularCertificate:
    """Check the landing-schedule minors and the interval rank bounds.

    Each necklace entry a gives one minor and its exchange row, the
    minors of m's integer view on L_a with a exchanged for each column
    (None if the minor is 0), read off one walk of the necklace
    (_necklace_charts) and kept as exchange_rows.  The rank of the
    columns in a cyclic interval [a, b] may not exceed the number of
    balls landing in it, found by bisection in the sorted landing times,
    so no bound binds when the balls land at a, a + 1, ..., a + k - 1.
    Every bound from a holds exactly when L_a is m's lexicographically
    first basis read cyclically from a (Postnikov, arXiv:math/0609764,
    Lemma 16.3).  matrices.greedy_chart finds that basis, started from
    the walk's chart on L_a, which it only reads and which needs no
    exchange when L_a is that basis, or from an elimination in that
    order where the minor is 0.  The rank of [a, b] is then the number
    of its columns at offset at most b - a, which answers every b at
    once.
    """
    n, k = pi.period, pi.balls
    cert = UnimodularCertificate()
    ints, scale = m.integer_view()
    for a, (cols, d, slots, chart, exchange) in enumerate(
            _necklace_charts(m, pi), start=1):
        cert.checked_minors.append((cols, ratio(d, scale ** k)))
        cert.exchange_rows.append(exchange)
        # the schedule's landing times in [a, a+n), from their residues,
        # and the first slot where no ball lands
        lands = sorted(r if r >= a else r + n for r in cols)
        # balls landing at a, a + 1, ... a + k - 1 bind no bound
        if lands == list(range(a, a + k)):
            continue
        # the 0-based columns a - 1, a, ... read cyclically
        order = list(range(a - 1, n)) + list(range(a - 1))
        own = [j - 1 for j in cols]
        start = order if chart is None else (own, d, slots, chart)
        basis = greedy_chart(ints, order, start)[0]
        if basis == own:
            continue
        offsets = sorted((j + 1 - a) % n for j in basis)
        for b in range(a, a + n):
            r, allowed = bisect_right(offsets, b - a), bisect_right(lands, b)
            if r > allowed:
                cert.rank_violations.append(((a, b), r, allowed))
    return cert


def twist(m: Matrix, pi: JugglingFunction) -> Matrix:
    """Column a of the twist pairs to 1 with column a of m and to 0 with
    the other landing-schedule columns; a loop is not in its own
    schedule, so its column is zero.

    With L the scale of m's integer view, B the schedule's columns of
    that view and d = det B, the column is L times row p of adj(B) over
    d, p the position of a in the schedule.  That row r is read off a's
    exchange row from one walk of the necklace (_necklace_charts): on the
    columns of L_1 the row is r B_1, so r is it times adj(B_1) / d_1,
    with adj(B_1) from one elimination of [B_1 | I] at the first
    schedule (matrices.integer_solve).  The product sums only the rows
    of adj(B_1) at the nonzero entries of r B_1, k products for each, so
    on a banded matrix a column costs O(k).  Every schedule minor
    d / L**k must be 1.
    """
    k = pi.balls
    ints, scale = m.integer_view()
    unit = scale ** k
    cols, first, adj = [], None, None
    for a, (order, d, _, _, row) in enumerate(_necklace_charts(m, pi),
                                              start=1):
        if d != unit:
            raise ValueError(f"landing-schedule minor at {a} is not 1")
        if adj is None:
            first = [j - 1 for j in order]
            identity = [[int(i == t) for t in range(k)] for i in range(k)]
            adj = integer_solve(ints, order, identity)[1]
        col = [0] * k
        for j, y in zip(first, adj):
            if row[j]:
                col = [x + row[j] * z for x, z in zip(col, y)]
        cols.append([ratio(scale * (x // unit), unit) for x in col])
    return Matrix.from_columns(cols)


def positive_complement(m: Matrix) -> Matrix:
    """An (n-k) x n matrix whose maximal minors equal those of m on
    complementary column sets.

    One matrices.greedy_chart of m's integer view in natural order
    gives the lexicographically first basis of its columns, the minor
    d / L**k of m there, L the scale of the view, and the chart, off
    which its kernel basis, d times the reduced-form one, is read
    (chart_kernel).  It starts from one elimination with the sparsest
    columns first, so that the signed identity columns of a matrix read
    off a frieze fill nothing in, and moves to the first basis by
    exchanges, each of which brings in a column of that basis for good.
    Negating the odd-numbered columns of the kernel basis
    and rescaling its first row makes the minor on the free columns, a
    sign since the negated basis is diagonal there, equal to that
    minor.  The result certifies itself: m has rank k, the basis is
    independent (its free columns hold a signed identity) and m kills
    it, an integer dot product with each row of the integer view, so
    its rows span the kernel of m.  By alternating duality (Karp,
    arXiv:1503.05622) the column-alternated kernel has the Pluecker
    coordinates of m on complementary sets up to one constant, so one
    matched nonzero pair matches every pair.  For k = n the complement
    has no rows and one minor, 1, so det m must be 1.  Each entry is
    built once, by matrices.ratio: an int when integral, else one
    Fraction.
    """
    comp = _build_complement(m)
    if comp is None:
        raise ValueError("matrix does not have full row rank")
    return comp


def _build_complement(m: Matrix) -> Matrix | None:
    """positive_complement of m, or None when m's rank is below its row
    count."""
    k, n = m.nrows, m.ncols
    ints, scale = m.integer_view()
    chart = greedy_chart(ints, range(n), sparsest_first(ints, range(n)))
    basis, d, slots = chart[:3]
    if len(basis) != k:
        return None
    kernel = chart_kernel(*chart)
    if any(sum(map(mul, row, v)) for row in ints for v in kernel):
        raise ValueError("kernel basis is not killed by the matrix")
    unit = scale ** k
    if k == n and d != unit:
        raise ValueError(f"complement identity fails on columns "
                         f"{tuple(range(1, n + 1))}: 1 != {ratio(d, unit)}")
    co = sign_power(sum(1 for j in range(0, n, 2) if slots[j] < n - k))
    # the kernel is d times the reduced-form one; row 0 is over the
    # basis minor d / unit, signed by co, instead
    return Matrix([[ratio(-x if j % 2 == 0 else x, d if i else co * unit)
                    for j, x in enumerate(v)]
                   for i, v in enumerate(kernel)], cols=n)


def frieze_entries(m: Matrix, pi: JugglingFunction):
    """The reader entry(a, b) of the frieze of m, for arbitrary integers
    a, b: the signed minor of m on the schedule at a with a exchanged
    for b, the schedule read from the necklace by a's residue and the
    sign from the dual's sign table (entry_sign).  A matrix that is not
    k x n for pi fails here, before any entry, as in the necklace walk
    (_shape_balls).

    Every exchange minor of one schedule L_a comes from one integer
    vector, the signed maximal minors of r x (r + 1) integer rows
    (integer_cross), built on the first entry that needs it and kept
    for the reader's life.  For 2k <= n or k = n the rows are the
    columns of L_a - a in m's integer view, r = k - 1, and the minor is
    (-1)**q times the vector's dot product with column b, q the
    position of b in the sorted exchanged schedule.  For n < 2k < 2n
    the minor is taken on the smaller side of the Grassmann duality, as
    the (n - k)-minor of m's positive complement on the complementary
    columns: the rows are the complement's rows on the columns outside
    L_a - a, r = n - k, and the minor is the vector's entry at b's
    position j there times (-1)**j.  The complement is built once per
    reader (_build_complement), or is None when m's rank is below k, so
    that every minor is 0.  Each entry is the signed integer minor over
    L**t, L the scale of the integer view it is read from and t that
    view's row count (matrices.ratio: an int when integral, else one
    Fraction); the fixed entries are ints.
    """
    k, n = _shape_balls(m, pi), pi.period
    dual, necklace = pi.dual(), pi.necklace()
    wide = n < 2 * k < 2 * n
    source = _build_complement(m) if wide else m
    if source is not None:
        ints, scale = source.integer_view()
        unit = scale ** source.nrows
        columns = list(zip(*ints))
    vectors = {}

    def entry(a: int, b: int) -> int | Fraction:
        if pi(a) == a:
            if a == b:
                return 1
            if a == b + n:
                return dual.entry_sign(a, b)
            return 0
        if not b <= a < b + n or source is None:
            return 0
        ra, rb = residue(a, n), residue(b, n)
        sched = necklace[ra - 1]
        if rb != ra and rb in sched:
            return 0
        # the position of rb among the schedule's columns other than ra
        q = bisect_left(sched, rb) - (ra < rb)
        cross = vectors.get(ra)
        if cross is None:
            rest = [j - 1 for j in sched if j != ra]
            if wide:
                outside = sorted(set(range(n)).difference(rest))
                rows = [[row[j] for j in outside] for row in ints]
            else:
                rows = [list(columns[j]) for j in rest]
            cross = vectors[ra] = integer_cross(rows, len(rows) + 1)
        if wide:
            # rb's position among the columns outside the others
            q = rb - 1 - q
            x = cross[q]
        else:
            x = sum(map(mul, cross, columns[rb - 1]))
        return ratio(sign_power(q) * dual.entry_sign(a, b) * x, unit)

    return entry


def frieze_entry(m: Matrix, pi: JugglingFunction, a: int,
                 b: int) -> int | Fraction:
    """Entry (a, b) of the frieze of m, for arbitrary integers a, b: one
    call of the reader frieze_entries(m, pi), which owns the rule, so a
    single entry pays the elimination of its whole schedule."""
    return frieze_entries(m, pi)(a, b)


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
    return cert.exchange_rows


def _fill_skeleton(shape: JugglingFunction, column) -> PeriodicFrieze:
    """The frieze of the given shape whose fixed entries are its
    skeleton and whose free entry (a, b) is read(a, b), for read =
    column(b) the reader of column b, called once per column."""
    return PeriodicFrieze(shape, [
        [read(a, b) if x is None else x for a, x in enumerate(fixed, start=b)]
        for b, fixed, read in zip(count(1), shape.skeleton(),
                                  map(column, count(1)))])


def build_frieze_det(m: Matrix, pi: JugglingFunction) -> PeriodicFrieze:
    """The frieze of m, one cofactor vector per schedule; fixed entries
    are the skeleton on certified input.

    The reader frieze_entries gives the same value at a fixed entry of
    a unimodular matrix, so only the slots the shape leaves free are
    read from it: one elimination of min(k, n - k) rows per schedule
    that has a free slot, then one dot product or one look-up per slot.
    When n < 2k < 2n the rows are those of m's positive complement,
    which the reader builds once.
    """
    _require_unimodular(m, pi)
    entry = frieze_entries(m, pi)
    return _fill_skeleton(pi.dual(), lambda b: entry)


def build_frieze_twist(m: Matrix, pi: JugglingFunction) -> PeriodicFrieze:
    """The same frieze via the twist, one look-up per free entry.

    Free entry (a, b) is twist column residue(a, n) against column b
    of m: entry (residue(a, n), b) of twist(m)^T m, unwrapped around
    the diagonal with its sign flipped on wrapped entries (a > n) when
    the output shape's wrap_exponent is odd.  That pairing is y_b[p]
    over the schedule minor, p the position of a in L_a: entry b of the
    certificate's exchange row of residue(a, n), over L**k, L the scale
    of m's integer view.  So column b, rows b..b+n, is one rotated
    slice of the exchange rows' entries at b, from row b on and then,
    wrapped, from row 1.  The fixed entries, which that product matches
    on certified input, are the output shape's skeleton.
    """
    rows = _require_unimodular(m, pi)
    unit = m.integer_view()[1] ** pi.balls
    dual = pi.dual()
    wrap_sign = sign_power(dual.wrap_exponent)
    by_column = list(zip(*rows))

    def column(b: int):
        x = by_column[b - 1]
        wrapped = x[:b] if wrap_sign > 0 else tuple(map(neg, x[:b]))
        rotated = x[b - 1:] + wrapped
        return lambda a, _: ratio(rotated[a - b], unit)

    return _fill_skeleton(dual, column)


def inverse_twist(m: Matrix, pi: JugglingFunction) -> Matrix:
    """The exact inverse of the twist, Muller and Speyer's left twist
    (arXiv:1606.08896): column a pairs to 1 with column a of m and to 0
    with the other columns of T_a, the throw-time residues of the balls
    in the air just after moment a; a loop's column is zero.

    That is the twist run backwards in time.  A ball that pi throws at t
    and catches at s is thrown at n + 1 - s and caught at n + 1 - t by
    the mirror shape, whose landing schedule at n + 1 - a is T_a read
    backwards.  So with rotate reversing both the rows and the columns,
    the result is rotate(twist(rotate(m), mirror)): each reversal
    multiplies every maximal minor by (-1)**(k(k - 1)/2), so the unit
    minors stay 1, and the row reversal commutes with the twist.  One
    certificate and one necklace walk; twist(inverse_twist(m, pi), pi)
    is m itself, not only its row span.

    >>> m = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    >>> pi = JugglingFunction.uniform(3, 3)
    >>> twist(inverse_twist(m, pi), pi) == m
    True
    """
    _require_unimodular(m, pi)
    n = pi.period

    def rotate(x: Matrix) -> Matrix:
        return Matrix([row[::-1] for row in x.entries[::-1]], cols=x.ncols)

    mirror = JugglingFunction(n + 1 - pi.inverse(n + 1 - t)
                              for t in range(1, n + 1))
    return rotate(twist(rotate(m), mirror))


def frieze_to_matrix(c: PeriodicFrieze) -> Matrix:
    """Invert the frieze construction.

    Returns the unique (up to unimodular row operations, then pinned by
    a normalization) matrix whose frieze is c.  Entry (a, b) of the
    frieze of m pairs twist column a with column b of m, so row a of c's
    integer view, read at b = 1..n as C[a, b] for b <= a and as
    C[a + n, b] times the wrap sign for b > a, is Y_a = L t_a m, L the
    view's scale, pi = c.shape.dual().  The twist columns on the first
    landing schedule L_1 are a basis, their minor being 1, so the rows
    Y_a, a in L_1, span m's rows.  One matrices.greedy_chart of them,
    eliminated with the columns read from 1 to n and exchanged toward
    the first basis read from n down to 1, gives d = det Y_F and the
    chart d Y_F^-1 Y on the lexicographically last column basis F: the
    reduced form over d, whose rows by ascending pivot are the matrix,
    the first divided by its minor on L_1.  (Read from n down to 1 at
    once, the rows of a banded strip fill in.)  That minor is
    det Y_L1 / d.  On L_1's own columns the rows are lower triangular
    with L on the diagonal: for a < b in L_1, b is in L_a, so twist
    column a pairs to 0 with m_b.  So the first row of the chart is
    over L**k, the others over d, and no determinant is taken.  The
    twist route rebuilds the frieze of
    the result, certificate first, and a match decides c.  Where the
    route fails, c is decided by its dual (_recurrence_solutions), whose
    message names a non-frieze; on a frieze the route's own error
    stands.  An array off its shape's skeleton is named so before the
    route, whose walk could re-anchor at every schedule of a matrix
    read off it.
    """
    if not is_prefrieze(c):
        _recurrence_solutions(c)
    pi = c.shape.dual()
    n, first = pi.period, pi.necklace()[0]
    k = len(first)
    wrap = sign_power(c.shape.wrap_exponent)
    window, scale = c.integer_view()
    # window[b - 1][a - b] is L C[a, b] for b <= a <= b + n
    rows = [[window[b - 1][a - b] if b <= a
             else wrap * window[b - 1][a + n - b] for b in range(1, n + 1)]
            for a in first]
    try:
        basis, d, slots, chart = greedy_chart(rows, range(n)[::-1], range(n))
        if len(basis) != k:
            raise ValueError(f"the rows of the first landing schedule "
                             f"have rank {len(basis)}, not {k}")
        # row i is d at basis column i, 0 at the others and the chart's
        # entries at the rest, over L**k for i = 0 and over d after it
        result = Matrix([[ratio(d if j == b else x, d if i else scale ** k)
                          for j, x in enumerate(map((y + [0]).__getitem__,
                                                    slots))]
                         for i, (b, y) in enumerate(zip(basis, chart))],
                        cols=n)
        if build_frieze_twist(result, pi) != c:
            raise ValueError("inversion failed to reproduce the frieze")
    except ValueError:
        _recurrence_solutions(c)
        raise
    return result
