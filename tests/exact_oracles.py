"""Definitional counterparts of the package's fast exact paths.

The package eliminates fraction-free on integer rows, takes the dual
through a Hessenberg recurrence and decides a frieze by the skeleton of
that dual.  The oracles here do the same jobs the plain way, in
fractions.Fraction, so the tests can compare the two.
The landing schedules come from their definition, and each one's
determinant, exchange minors and twist column from their own
eliminations, where the package walks the necklace by exchange.  The
left twist solves each column on the balls in the air just after its
moment, where the package twists the mirror shape.  The
frieze of a matrix is built at every window slot, each entry the plain
minor of m on an exchanged landing schedule, or read off the whole
product of its twist with it.  The minor report evaluates every determinant condition of a
frieze, and the dual failure names the first entry of the dual, one
determinant each, that leaves the dual shape's skeleton.  The
recurrence oracles restate what a frieze is through the solutions of
C x = 0, each row summed by its definition and never read off the
dual's skeleton: the tiling of a dual, the superperiodic kernel
criterion and the kernel correspondence with the matrix.  The
certificate oracles compare every complementary pair of maximal minors,
and take the rank of every cyclic interval of columns.  A frieze's
matrix is the kernel of the kernel of one period of the recurrence
system, and also the integer kernel of the solutions that decided it,
the way the package inverted a frieze before it read the matrix off
the frieze's rows.  The positive complement and the frieze's matrix are
also built the way the package built them before its integer kernel: a
Fraction reduced form, the kernel read off it and one more minor.  The
sign twist of an entry is counted off its s-set, and the skeleton and
positivity read it from there; the skeleton and sign tables are also
built slot by slot, and the dual columns by the full Hessenberg sum.
The decision by the dual is also made as the package made it before it
built the dual array to decide: each dual minor compared with L**t
times its fixed value, loops skipped, the solutions scaled by
L**(n-1), and each array compared with its skeleton slot by slot.
The tests' identity, zero and row-scaled matrices are built here, and
their rank is the oracle RREF's.
"""
import random
from fractions import Fraction
from itertools import combinations

from jugglerfrieze import (FriezeReport, Matrix, JugglingFunction,
                           PeriodicFrieze, SolutionWindow, build_frieze_det,
                           build_frieze_twist, is_prefrieze,
                           residual, solution_matrix, twist)
from jugglerfrieze.frieze import (_band, _dual_column, frieze_minor,
                                  is_tameness_pair, tameness_minor)
from jugglerfrieze.juggling import residue, sign_power
from jugglerfrieze.matrices import (as_rational, cyclic_columns,
                                    cyclic_submatrix, integer_det,
                                    integer_eliminate, ratio)


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


def _minor(rows, cols):
    return gauss_jordan([[row[j] for j in cols] for row in rows], len(cols))[2]


def adjugate(rows):
    """adj(B) of a square matrix by cofactors: entry (i, j) is
    (-1)**(i + j) times the gauss_jordan determinant of B without row j
    and column i."""
    k = len(rows)
    return [[sign_power(i + j) * _minor(rows[:j] + rows[j + 1:],
                                        [c for c in range(k) if c != i])
             for j in range(k)] for i in range(k)]


def rank(m: Matrix) -> int:
    """The number of pivots of the oracle RREF."""
    return len(gauss_jordan(m.entries, m.ncols)[1])


def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def zero(nrows: int, ncols: int) -> Matrix:
    return Matrix([[0] * ncols for _ in range(nrows)], cols=ncols)


def scale_row(m: Matrix, i: int, factor) -> Matrix:
    """m with row i times the exact scalar factor."""
    f = as_rational(factor)
    return Matrix([[f * x for x in row] if r == i else row
                   for r, row in enumerate(m.entries)], cols=m.ncols)


def exhaustive_complement(m: Matrix) -> Matrix:
    """The positive complement by its defining identity on all C(n, k)
    column sets: the kernel with its odd-numbered columns negated, its
    first row rescaled to match the lexicographically first nonzero
    minor of m, then every complementary pair compared; raises with
    the package's messages."""
    k, n = m.nrows, m.ncols
    basis = kernel_rows(m.entries, n)
    if len(basis) != n - k:
        raise ValueError("matrix does not have full row rank")
    flipped = [[-x if j % 2 == 0 else x for j, x in enumerate(row)]
               for row in basis]
    minors = {cols: _minor(m.entries, cols)
              for cols in combinations(range(n), k)}
    pivot = next(cols for cols, d in minors.items() if d != 0)
    co_pivot = [j for j in range(n) if j not in pivot]
    if flipped:
        scale = minors[pivot] / _minor(flipped, co_pivot)
        flipped[0] = [scale * x for x in flipped[0]]
    for cols, d in minors.items():
        co = [j for j in range(n) if j not in cols]
        if _minor(flipped, co) != d:
            raise ValueError(
                f"complement identity fails on columns "
                f"{tuple(j + 1 for j in cols)}: {_minor(flipped, co)} != {d}")
    return Matrix(flipped, cols=n)


def interval_rank_certificate(m: Matrix, pi: JugglingFunction):
    """The checked minors and rank violations of is_pi_unimodular by
    definition: the landing-schedule minors, and the rank of every
    cyclic interval [a, b] against the balls landing in it."""
    n, k = pi.period, pi.balls
    minors, violations = [], []
    for a in range(1, n + 1):
        sched = pi.landing_schedule(a)
        cols = tuple(sorted(residue(t, n) for t in sched))
        minors.append((cols, _minor(m.entries, [c - 1 for c in cols])))
        for b in range(a, a + n):
            allowed = sum(t <= b for t in sched)
            interval = [residue(j, n) - 1 for j in range(a, b + 1)]
            rank = len(gauss_jordan([[row[j] for j in interval]
                                     for row in m.entries], len(interval))[1])
            if rank > allowed:
                violations.append(((a, b), rank, allowed))
    return minors, violations


def schedules(pi: JugglingFunction):
    """The sorted residues of each landing schedule L_1..L_n, by its
    definition (landing_schedule), not by the necklace's exchanges."""
    n = pi.period
    return [tuple(sorted(residue(t, n) for t in pi.landing_schedule(a)))
            for a in range(1, n + 1)]


def schedule_charts(m: Matrix, pi: JugglingFunction):
    """What the necklace walk yields, one schedule at a time, by
    determinants: for each L_a, its columns, d = det B for B those
    columns of m's integer view, and for each column j outside L_a the
    vector y_j whose entry i is the determinant of B with its column i
    replaced by column j, as {j: y_j}, or None when d = 0."""
    ints = m.integer_view()[0]
    n = m.ncols
    out = []
    for cols in schedules(pi):
        at = [j - 1 for j in cols]
        d = _minor(ints, at)
        chart = None if d == 0 else {
            j: [_minor(ints, at[:i] + [j - 1] + at[i + 1:])
                for i in range(len(at))]
            for j in range(1, n + 1) if j not in cols}
        out.append((cols, d, chart))
    return out


def schedule_twist(m: Matrix, pi: JugglingFunction):
    """The twist by one determinant and one Gauss-Jordan solve per
    landing schedule, or the error text naming the first bad one."""
    cols = []
    for a, order in enumerate(schedules(pi), start=1):
        sub = cyclic_submatrix(m, order).transpose()
        reduced, _, det = gauss_jordan(
            [list(row) + [int(r == a)] for row, r in zip(sub.entries, order)],
            sub.ncols)
        if det != 1:
            return f"ValueError: landing-schedule minor at {a} is not 1"
        cols.append([row[-1] for row in reduced])
    return Matrix.from_columns(cols)


def left_twist_by_definition(m: Matrix, pi: JugglingFunction) -> Matrix:
    """Muller and Speyer's left twist by one Gauss-Jordan solve per
    moment a: column a pairs to 1 with m_a and to 0 with the other
    columns of T_a, the residues of the throw times t in (a - n, a]
    whose ball lands after a; a loop, not in its own T_a, gets a zero
    column.  No mirror shape, no twist."""
    n = pi.period
    cols = []
    for a in range(1, n + 1):
        order = sorted(residue(t, n) for t in range(a - n + 1, a + 1)
                       if pi(t) > a)
        sub = cyclic_submatrix(m, order).transpose()
        reduced, _, det = gauss_jordan(
            [list(row) + [int(r == a)] for row, r in zip(sub.entries, order)],
            sub.ncols)
        if det == 0:
            raise ValueError(f"throw-set minor at {a} is 0")
        cols.append([row[-1] for row in reduced])
    return Matrix.from_columns(cols)


def exchange_minor(m: Matrix, pi: JugglingFunction, a: int, b: int):
    """Entry (a, b) of the frieze of m by its definition: the k x k minor
    of m, by gauss_jordan, on the landing schedule at a with a exchanged
    for b (0 when b is already in it), signed by the dual's sign table.
    Outside the window b <= a < b + n the entry is 0, except in the row
    of a loop a of pi, which holds 1 at b = a and the sign at b = a - n.
    """
    n = pi.period
    sign = pi.dual().entry_sign(a, b)
    if pi(a) == a:
        return Fraction(1 if a == b else sign if a == b + n else 0)
    if not b <= a < b + n:
        return Fraction(0)
    cols = {residue(t, n) for t in pi.landing_schedule(a) if t != a}
    if residue(b, n) in cols:
        return Fraction(0)
    cols.add(residue(b, n))
    return sign * _minor(m.entries, sorted(c - 1 for c in cols))


def full_window_frieze(m: Matrix, pi: JugglingFunction) -> PeriodicFrieze:
    """The frieze of a unimodular m with exchange_minor at every one of
    the n(n+1) window slots, fixed ones included."""
    n = pi.period
    return PeriodicFrieze(pi.dual(), [
        [exchange_minor(m, pi, a, b) for a in range(b, b + n + 1)]
        for b in range(1, n + 1)])


def full_product_frieze(m: Matrix, pi: JugglingFunction) -> PeriodicFrieze:
    """The frieze of a unimodular m read off the whole n x n product
    twist(m)^T m: each free slot (a, b) is product entry (residue(a, n),
    b), negated when a > n and the ball count is even, and every fixed
    slot is the skeleton."""
    n = pi.period
    product = twist(m, pi).transpose() * m
    wrap = sign_power(pi.balls - 1)
    cols = []
    for b, fixed in enumerate(pi.dual().skeleton(), start=1):
        cols.append([product[residue(a, n) - 1, b - 1] * (wrap if a > n else 1)
                     if x is None else x
                     for a, x in enumerate(fixed, start=b)])
    return PeriodicFrieze(pi.dual(), cols)


def minor_report(c: PeriodicFrieze) -> FriezeReport:
    """The report of check_frieze by definition: every unit minor on
    [a, b] for a <= b < a+n, and the vanishing minor of every interval
    that carries one, with each failure listed, for a in [1, n]."""
    pi = c.shape
    n = pi.period
    report = FriezeReport(prefrieze_ok=is_prefrieze(c))
    for a in range(1, n + 1):
        for b in range(a, a + n):
            det = frieze_minor(c, a, b)
            report.checked_pairs += 1
            if det != 1:
                report.frieze_failures.append((a, b, det))
        for b in range(a + 1, a + n):
            if is_tameness_pair(pi, a, b):
                det = tameness_minor(c, a, b)
                report.checked_pairs += 1
                if det != 0:
                    report.tame_failures.append((a, b, det))
    return report


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


def superperiodic(v, k: int):
    """The extension of v by x[a+n] = (-1)**(k-1) x[a], as a total
    sequence Z -> Q: column 1 of a window whose every column is v, so
    SolutionWindow.entry applies the sign rule."""
    n = len(v)
    return SolutionWindow(n, k - 1, [v] * n).column(1)


def _skeleton_failure(c: PeriodicFrieze) -> str | None:
    """The first stored entry of c off its shape's skeleton, column by
    column, worded as the package words it, or None for a prefrieze."""
    pi = c.shape
    n = pi.period
    for b in range(1, n + 1):
        for a in range(b, b + n + 1):
            fixed = pi.skeleton()[b - 1][a - b]
            if fixed is not None and c.entry(a, b) != fixed:
                return (f"not a frieze: entry ({a}, {b}) is {c.entry(a, b)}, "
                        f"not {fixed}")
    return None


def verify_superperiodic_kernel(c: PeriodicFrieze) -> bool:
    """Whether c is a prefrieze whose dual-diagonal candidates, with
    alternating signs and extended superperiodically, genuinely solve
    C x = 0, every row of C x summed by its definition (residual):
    equivalent to c being a frieze (Morier-Genoud, Ovsienko, Schwartz,
    Tabachnikov, arXiv:1309.3880).  Columns at a loop are skipped.

    C is n-periodic and x superperiodic with sign s = (-1)**(n-k-1), so
    row a + n of C x is s times row a: the rows [b, b+n) decide it.
    """
    if _skeleton_failure(c) is not None:
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

        if any(residual(c, x, a) != 0 for a in range(b, b + n)):
            return False
    return True


def dual_failure(c: PeriodicFrieze) -> str | None:
    """The first condition of the dual test that c fails, worded as the
    package words it, or None for a frieze: the first stored entry off
    the shape's skeleton, else the first minor entry (a, b), a < b + n,
    of minor_dual(c), column by column, off the dual shape's skeleton,
    with the rows and columns of its minor."""
    failure = _skeleton_failure(c)
    if failure is not None:
        return failure
    dual = minor_dual(c)
    n = c.shape.period
    for b in range(1, n + 1):
        for a in range(b, b + n):
            fixed = dual.shape.skeleton()[b - 1][a - b]
            if fixed is not None and dual.entry(a, b) != fixed:
                return (f"not a frieze: dual entry ({a}, {b}), the minor on "
                        f"rows {b + 1}..{a} and columns {b}..{a - 1}, is "
                        f"{dual.entry(a, b)}, not {fixed}")
    return None


def kernel_correspondence(m: Matrix, pi: JugglingFunction, rng=None) -> bool:
    """Vectors killed by the matrix are exactly the vectors whose
    superperiodic extension is killed by its frieze, and the kernel has
    the expected dimension."""
    rng = rng or random.Random(0)
    k, n = m.nrows, m.ncols
    f = build_frieze_det(m, pi)
    kernel = m.kernel_basis()
    if kernel.nrows != n - k or rank(m) != k:
        return False
    check_range = range(1, 2 * n + 1)
    for v in kernel.entries:
        ext = superperiodic(v, k)
        if any(residual(f, ext, a) != 0 for a in check_range):
            return False
    for _ in range(4):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        in_kernel = all(sum(a * b for a, b in zip(row, v)) == 0
                        for row in m.entries)
        ext = superperiodic(v, k)
        solves = all(residual(f, ext, a) == 0 for a in check_range)
        if in_kernel != solves:
            return False
    return True


def system_kernel_matrix(c: PeriodicFrieze) -> Matrix:
    """The matrix of a frieze by its superperiodic kernel, built from
    scratch: one period of rows of C x = 0 with x[b + n] = (-1)**(k-1)
    x[b] folded into columns 1..n, its kernel (which must have
    dimension n - k), the kernel of that, the first row normalized so
    the landing-schedule minor at 1 is 1, then the frieze rebuilt and
    compared; raises ValueError where it fails."""
    pi = c.shape.dual()
    n, k = pi.period, pi.balls
    rows = []
    for a in range(1, n + 1):
        row = [Fraction(0)] * n
        for b in range(a - n, a + 1):
            r = residue(b, n)
            row[r - 1] += c.entry(a, b) * sign_power((k - 1) * ((b - r) // n))
        rows.append(row)
    solutions = kernel_rows(rows, n)
    if len(solutions) != n - k:
        raise ValueError(f"solution space has dimension {len(solutions)}, "
                         f"expected {n - k}")
    candidate = kernel_rows(solutions, n)
    d = _minor(candidate, cyclic_columns(n, pi.landing_schedule(1)))
    if d == 0:
        raise ValueError("normalization minor vanishes")
    result = Matrix([[x / d for x in row] if i == 0 else row
                     for i, row in enumerate(candidate)], cols=n)
    if build_frieze_det(result, pi) != c:
        raise ValueError("inversion failed to reproduce the frieze")
    return result


def counted_sign(pi: JugglingFunction, a: int, b: int) -> int:
    """The sign twist of entry (a, b) by its definition, (-1)**|S(b, a)|."""
    return (-1) ** len(pi.s_set(b, a))


def counted_skeleton(pi: JugglingFunction):
    """JugglingFunction.skeleton by its definition, slot by slot: 1 on
    the diagonal, the counted sign twist at pi(b), None strictly inside
    the cone and 0 elsewhere."""
    n = pi.period
    return tuple(tuple(1 if a == b
                       else counted_sign(pi, a, b) if a == pi(b)
                       else None if pi.inverse(a) < b < a < pi(b)
                       else 0
                       for a in range(b, b + n + 1))
                 for b in range(1, n + 1))


def slot_tables(pi: JugglingFunction):
    """JugglingFunction.skeleton and signs as the package built them
    before it sliced the inverse: one pass down each column, slot by
    slot, where the sign of slot a + 1 is that of slot a, flipped when
    the ball landing at a was thrown after b."""
    n, values = pi.period, pi.values
    skeleton, signs = [], []
    for b in range(1, n + 1):
        top = values[b - 1]
        fixed, twist = [], []
        sign = 1
        for a in range(b, b + n + 1):
            back = pi.inverse(a)
            twist.append(sign)
            fixed.append(1 if a == b else sign if a == top
                         else None if back < b < a < top else 0)
            if back > b:
                sign = -sign
        skeleton.append(tuple(fixed))
        signs.append(tuple(twist))
    return tuple(skeleton), tuple(signs)


def dense_dual_column(window, b: int) -> list[int]:
    """frieze._dual_column as the package ran it before it kept only the
    nonzero minors within the band: D_t summed over every j < t of the
    lower Hessenberg recurrence, the diagonal weight updated at each j."""
    # near[j][d] is the scaled entry C[b+j+d, b+j]
    near = window[b - 1:] + window[:b - 1]
    minors = [1]
    for t in range(1, len(window)):
        total = 0
        weight = 1  # (-1)**(t-1-j) * prod_{m=j+1}^{t-1} C[b+m, b+m]
        for j in range(t - 1, -1, -1):
            x = near[j][t - j]
            if x:
                total += weight * x * minors[j]
            weight = -weight * near[j][0]
        minors.append(total)
    return minors


def off_skeleton_slots(c: PeriodicFrieze):
    """frieze._off_skeleton as the package ran it before it compared
    whole columns: the entries (a, b, value, fixed value) off the
    skeleton, one comparison per fixed slot."""
    return ((a, b, x, fixed) for b, (skel, col)
            in enumerate(zip(c.shape.skeleton(), c.columns), start=1)
            for a, (fixed, x) in enumerate(zip(skel, col), start=b)
            if fixed is not None and x != fixed)


def dual_minors(c: PeriodicFrieze) -> list:
    """The decision by the dual as the package made it before it built
    the dual array to decide: the minors D_0..D_{n-1} of each dual
    column b (frieze._dual_column), L**t times the dual's entries, None
    at a loop of the shape, whose column is skipped; else a ValueError
    naming the first entry of c off its skeleton, or the first D_t,
    column by column, that is not L**t times the dual skeleton's fixed
    value, with the minor that gives it."""
    for a, b, x, fixed in off_skeleton_slots(c):
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
        for t, (fixed, d) in enumerate(zip(skeleton, minors)):
            if fixed is not None and d != fixed * scale ** t:
                raise ValueError(
                    f"not a frieze: dual entry ({b + t}, {b}), the minor on "
                    f"rows {b + 1}..{b + t} and columns {b}..{b + t - 1}, "
                    f"is {ratio(d, scale ** t)}, not {fixed}")
        found.append(minors)
    return found


def recurrence_solutions(c: PeriodicFrieze) -> list:
    """The solutions x_t = (-1)**t D_t L**(n-1-t), t in [0, n), of C x = 0
    that decided c (D_t by dual_minors, L the lcm of c's integer view),
    L**(n-1) times solution_matrix's columns, zero at loops; else
    dual_minors' ValueError."""
    n = c.shape.period
    scale = c.integer_view()[1]
    return [[0] * n if minors is None else
            [sign_power(t) * d * scale ** (n - 1 - t)
             for t, d in enumerate(minors)]
            for minors in dual_minors(c)]


def entry_sign_is_positive(c: PeriodicFrieze) -> bool:
    """is_positive with each sign twist taken from its s-set: every
    diagonal entry and every entry strictly inside a cone, times
    (-1)**|S(b, a)|, is positive."""
    pi = c.shape
    for b in range(1, pi.period + 1):
        for a in range(b, pi(b) + 1):
            if a != b and not pi.inverse(a) < b < a < pi(b):
                continue
            if counted_sign(pi, a, b) * c.entry(a, b) <= 0:
                return False
    return True


def kernel_from_rref(reduced: Matrix, pivots) -> Matrix:
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
            v[pc] = -Fraction(reduced.entries[r][c])
        rows.append(v)
    return Matrix(rows, cols=n)


def rref_complement(m: Matrix) -> Matrix:
    """positive_complement through a Fraction reduced form: Matrix.rref,
    the kernel read off it, the minor of m on the pivots as a second
    determinant, and Fraction scaling of the first row; raises with the
    package's messages."""
    k, n = m.nrows, m.ncols
    reduced, pivots = m.rref()
    if len(pivots) != k:
        raise ValueError("matrix does not have full row rank")
    basis = kernel_from_rref(reduced, pivots)
    if any(sum(x * y for x, y in zip(row, v))
           for row in m.entries for v in basis.entries):
        raise ValueError("kernel basis is not killed by the matrix")
    d = Fraction(m.minor(range(k), pivots))
    if k == n and d != 1:
        raise ValueError(f"complement identity fails on columns "
                         f"{tuple(range(1, n + 1))}: 1 != {d}")
    flipped = Matrix([[(-x if j % 2 == 0 else x) for j, x in enumerate(row)]
                      for row in basis.entries], cols=n)
    co = sign_power(sum(1 for j in range(0, n, 2) if j not in pivots))
    return scale_row(flipped, 0, d * co)


def integer_kernel(rows, ncols):
    """The kernel of integer rows, read off one integer_eliminate of
    them in natural column order (in place): its pivots, last pivot d
    and sign, and one kernel vector per free column c, d times the
    reduced-form one: d at c and minus row r's entry at c at pivot r.
    With full row rank, sign * d is the minor of the rows on the pivot
    columns."""
    pivots, d, sign = integer_eliminate(rows, range(ncols))
    basis = []
    for c in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[c] = d
        for pc, row in zip(pivots, rows):
            v[pc] = -row[c]
        basis.append(v)
    return pivots, d, sign, basis


def kernel_complement(m: Matrix) -> Matrix:
    """positive_complement by one integer_kernel of m's integer view in
    natural column order, as the package built it before it read the
    kernel off a greedy basis: the pivots are the lexicographically
    first basis, the minor of m there is sign * d / L**k, and the
    column-alternated kernel, its first row rescaled by that minor,
    is the result; raises with the package's messages."""
    k, n = m.nrows, m.ncols
    ints, scale = m.integer_view()
    pivots, d, sign, basis = integer_kernel([list(row) for row in ints], n)
    if len(pivots) != k:
        raise ValueError("matrix does not have full row rank")
    if any(sum(x * y for x, y in zip(row, v)) for row in ints for v in basis):
        raise ValueError("kernel basis is not killed by the matrix")
    unit = scale ** k
    if k == n and sign * d != unit:
        raise ValueError(f"complement identity fails on columns "
                         f"{tuple(range(1, n + 1))}: 1 != "
                         f"{Fraction(sign * d, unit)}")
    co = sign_power(sum(1 for j in range(0, n, 2) if j not in pivots))
    dens = [sign * co * unit] + [d] * (len(basis) - 1)
    return Matrix([[Fraction(-x if j % 2 == 0 else x, q)
                    for j, x in enumerate(v)]
                   for v, q in zip(basis, dens)], cols=n)


def solutions_kernel_matrix(c: PeriodicFrieze) -> Matrix:
    """frieze_to_matrix by the kernel of the solutions, as the package
    inverted a frieze before it read the matrix off the frieze's rows:
    the n x n integer matrix whose row b is the signed dual column that
    decided c (recurrence_solutions, wrapped by the superperiodic sign,
    zero at a loop), read at 1..n, its kernel by one integer_kernel, the
    first row divided by the minor on the first landing schedule, and
    the result checked by the twist route; raises with the messages
    the package gave then, a non-frieze with the dual's."""
    pi = c.shape.dual()
    n, k = pi.period, pi.balls
    wrap = sign_power(c.shape.wrap_exponent)
    span = [[wrap * v for v in x[n - b + 1:]] + x[:n - b + 1]
            for b, x in enumerate(recurrence_solutions(c), start=1)]
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


def rref_frieze_to_matrix(c: PeriodicFrieze) -> Matrix:
    """frieze_to_matrix through Fractions: the n x n span of
    solution_matrix's window, its kernel read off Matrix.rref, the first
    row divided by its minor on the first landing schedule, checked by
    the twist route; raises with the package's messages."""
    pi = c.shape.dual()
    n, k = pi.period, pi.balls
    window = solution_matrix(c)
    span = Matrix([[window.entry(a, b) for a in range(1, n + 1)]
                   for b in range(1, n + 1)], cols=n)
    candidate = kernel_from_rref(*span.rref())
    if candidate.nrows != k:
        raise ValueError(f"complement of the solutions has {candidate.nrows}"
                         f" rows, expected {k}")
    d = Fraction(candidate.minor(range(k),
                                 cyclic_columns(n, pi.necklace()[0])))
    if d == 0:
        raise ValueError("normalization minor vanishes")
    result = scale_row(candidate, 0, 1 / d)
    if build_frieze_twist(result, pi) != c:
        raise ValueError("inversion failed to reproduce the frieze")
    return result
