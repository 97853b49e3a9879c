import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from jugglerfrieze import (JugglingFunction, Matrix, PeriodicFrieze,
                           construct, cyclic_submatrix, matrices, residue,
                           is_consecutively_unimodular, is_pi_unimodular,
                           twist, inverse_twist, positive_complement,
                           frieze_entry, build_frieze_det, build_frieze_twist,
                           frieze_to_matrix, is_frieze, dual_frieze,
                           format_siteswap, frieze_from_quiddity,
                           solution_matrix, check_frieze)
from jugglerfrieze.cli import main

import fixture_data as fx
from exact_oracles import (exchange_minor, gauss_jordan, identity,
                           kernel_complement, scale_row)
from samplers import (UNIMODULAR_POOL, grown, random_determinant_one,
                      random_full_rank)

DATA = Path(__file__).parent / "data"


def with_entry(m, i, j, value):
    rows = [list(r) for r in m.entries]
    rows[i][j] = value
    return Matrix(rows, cols=m.ncols)


def _built_values(m, pi):
    """Every value the package builds from the unimodular (m, pi): the
    grids of its transforms and friezes, the certificate's minors, the
    reader's entries in and around the window, the failure values of a
    near-miss of its frieze and that frieze's entries outside the window."""
    c = build_frieze_det(m, pi)
    grids = [m, c, build_frieze_twist(m, pi), twist(m, pi),
             inverse_twist(m, pi), positive_complement(m),
             frieze_to_matrix(c), dual_frieze(c), solution_matrix(c)]
    values = [x for r in grids for row in (
        r.entries if isinstance(r, Matrix) else r.columns) for x in row]
    values += [d for _, d in is_pi_unimodular(m, pi).checked_minors]
    entry, n = construct.frieze_entries(m, pi), pi.period
    values += [entry(a, b) for b in range(1, n + 1)
               for a in range(b - 1, b + n + 2)]
    free = [(a, b) for b, col in enumerate(c.shape.skeleton(), start=1)
            for a, x in enumerate(col, start=b) if x is None]
    if free:
        a, b = free[0]
        cols = [list(col) for col in c.columns]
        cols[b - 1][a - b] += 1
        report = check_frieze(PeriodicFrieze(c.shape, cols))
        assert not report.ok
        values += [d for _, _, d in report.frieze_failures
                   + report.tame_failures]
    return values + [c.entry(0, 1), c.entry(n + 2, 1)]


def test_no_float_leaks_from_int_inputs():
    # with int inputs every value the public constructors and transforms
    # build is an int when it is integral and one Fraction when it is
    # not: a true division would bring a float, which no grid accepts,
    # and a bool, an int subclass or an integral Fraction would show
    # here; on the unimodular pool, seeded grown copies of it and the
    # fan strip S and its dual D at n <= 18 every value is an int
    rng = random.Random(34)
    cases = [(Matrix([[int(x) for x in row] for row in m.entries],
                     cols=m.ncols), pi) for m, pi in UNIMODULAR_POOL]
    cases += [grown(rng, *rng.choice(cases)) for _ in range(6)]
    for n in (6, 10, 18):
        strip = frieze_from_quiddity([n - 2, 1] + [2] * (n - 3) + [1])
        cases += [(frieze_to_matrix(c), c.shape.dual())
                  for c in (strip, dual_frieze(strip))]
    for m, pi in cases:
        assert {type(x) for x in _built_values(m, pi)} == {int}, pi
    # the rational fixture, rows scaled by 2 and 1/2: its twist and
    # inverse twist are not integral, and its strip's solutions hold 2/3
    rational = DATA / "rational"
    m = Matrix.from_json(json.loads((rational / "matrix.json").read_text()))
    values = _built_values(m, fx.PI_23345357)
    strip = PeriodicFrieze.from_json(json.loads(
        (rational / "strip.json").read_text()))
    values += [x for col in (dual_frieze(strip).columns
                             + solution_matrix(strip).columns) for x in col]
    assert {type(x) for x in values} == {int, Fraction}
    for x in values:
        assert type(x) is (int if x.denominator == 1 else Fraction), x


def test_consecutively_unimodular():
    assert is_consecutively_unimodular(fx.CONSEC_3x8)
    assert is_consecutively_unimodular(fx.TWIST_3x8)
    assert is_consecutively_unimodular(identity(4))
    assert not is_consecutively_unimodular(with_entry(fx.CONSEC_3x8, 0, 1, 12))
    with pytest.raises(ValueError):
        is_consecutively_unimodular(fx.CONSEC_3x8.transpose())


def _windows_have_det_one(m):
    # the literal rule: each cyclic window of k columns, taken in
    # ascending column order, has determinant 1
    k, n = m.nrows, m.ncols
    for a in range(n):
        cols = sorted((a + i) % n for i in range(k))
        rows = [[row[j] for j in cols] for row in m.entries]
        if gauss_jordan(rows, k)[2] != 1:
            return False
    return True


def test_consecutively_unimodular_matches_window_definition():
    rng = random.Random(21)
    mats = [fx.CONSEC_3x8.submatrix(range(3), range(6))]
    for _ in range(10):
        mats.append(Matrix([[rng.randint(-2, 2) for _ in range(6)]
                            for _ in range(3)]))
    # unimodular cases with k = 3, 5 and 2, the last with wrapped windows
    # of even size
    mats += [fx.CONSEC_3x8, positive_complement(fx.CONSEC_3x8),
             frieze_to_matrix(fx.SL2_H6)]
    checked = {True: 0, False: 0}
    for m in mats:
        for p in [m] + [with_entry(m, i, j, m[i, j] + delta)
                        for i in range(m.nrows) for j in range(m.ncols)
                        for delta in (1, -1)]:
            expected = _windows_have_det_one(p)
            assert is_consecutively_unimodular(p) == expected
            checked[expected] += 1
    assert checked[True] >= 3 and checked[False] > 0


def test_pi_unimodular_fixture():
    cert = is_pi_unimodular(fx.UNIMOD_4x8, fx.PI_23345357)
    assert cert.ok and not fx.PI_23345357.is_uniform()
    assert [cols for cols, _ in cert.checked_minors] == list(fx.NECKLACE_23345357)
    assert all(d == 1 for _, d in cert.checked_minors)


def test_pi_unimodular_uniform_delegates_to_consecutive():
    rng = random.Random(21)
    pi = JugglingFunction.uniform(6, 3)
    assert pi.is_uniform()
    mats = [fx.CONSEC_3x8.submatrix(range(3), range(6))]
    for _ in range(10):
        mats.append(Matrix([[rng.randint(-2, 2) for _ in range(6)]
                            for _ in range(3)]))
    for m in mats:
        cert = is_pi_unimodular(m, pi)
        consec = is_consecutively_unimodular(m)
        assert cert.ok == (consec and not cert.rank_violations)
        if cert.ok:
            assert consec


def test_pi_unimodular_reports_offending_minor():
    broken = Matrix([[0 if j == 0 else x for j, x in enumerate(row)]
                     for row in fx.UNIMOD_4x8.entries], cols=8)
    cert = is_pi_unimodular(broken, fx.PI_23345357)
    assert not cert.ok
    assert any(1 in cols for cols, _ in cert.bad_minors())


def test_pi_unimodular_dimension_mismatch():
    with pytest.raises(ValueError):
        is_pi_unimodular(fx.UNIMOD_4x8, fx.UNIFORM_8_3)


def test_twist_fixtures():
    assert twist(fx.CONSEC_3x8, fx.UNIFORM_8_3) == fx.TWIST_3x8
    assert twist(fx.UNIMOD_4x8, fx.PI_23345357) == fx.TWIST_4x8


def test_twist_first_columns():
    assert twist(fx.CONSEC_3x8, fx.UNIFORM_8_3).column(0) == (1, -11, 18)
    assert twist(fx.UNIMOD_4x8, fx.PI_23345357).column(0) == (1, 0, 0, 0)


def test_twist_dot_product_conditions():
    for m, pi in ((fx.CONSEC_3x8, fx.UNIFORM_8_3),
                  (fx.UNIMOD_4x8, fx.PI_23345357),
                  (fx.MATRIX_4400, fx.PI_4400)):
        t = twist(m, pi)
        n = pi.period
        for a in range(1, n + 1):
            for b in pi.landing_schedule(a):
                dot = sum(t[i, a - 1] * m[i, residue(b, n) - 1]
                          for i in range(m.nrows))
                assert dot == (1 if b == a else 0)
        for a in pi.loops():
            assert t.column(a - 1) == (Fraction(0),) * m.nrows


def test_twist_product_zero_strip():
    # dot products against the later schedule columns vanish, giving a
    # cyclic strip of zeros of width k-1 above the unit diagonal
    p = fx.TWIST_3x8.transpose() * fx.CONSEC_3x8
    assert p == fx.PRODUCT_3x8
    for a in range(8):
        assert p[a, a] == 1
        for off in (1, 2):
            assert p[a, (a + off) % 8] == 0
    # the bottom three rows of the product are the original matrix
    assert p.submatrix(range(5, 8), range(8)) == fx.CONSEC_3x8


def test_twist_preserves_unimodularity():
    for m, pi in ((fx.CONSEC_3x8, fx.UNIFORM_8_3),
                  (fx.UNIMOD_4x8, fx.PI_23345357),
                  (fx.MATRIX_4130, fx.PI_4130)):
        assert is_pi_unimodular(twist(m, pi), pi).ok


def test_twist_requires_unit_minors():
    with pytest.raises(ValueError):
        twist(scale_row(fx.CONSEC_3x8, 0, 2), fx.UNIFORM_8_3)


def _count_kernels(monkeypatch):
    """Count the calls of each matrices kernel the matrix side runs:
    the integer_solve, integer_exchange and integer_cross construct
    calls, integer_det and construct's greedy_chart calls, "eliminate"
    those that start from an elimination order (a walk's anchor,
    invert-F's rows, a complement) and "chart" those that start from a
    walk's chart; "swap" counts the exchanges run inside matrices, every
    one a greedy_chart's, and "inner" the eliminations, every one a
    solve's, a cross's or an "eliminate"'s."""
    calls = dict.fromkeys(("det", "solve", "exchange", "eliminate", "chart",
                           "swap", "cross", "inner"), 0)

    def count(owner, name, key):
        run = getattr(owner, name)

        def counted(*args):
            calls[key(*args) if callable(key) else key] += 1
            return run(*args)
        monkeypatch.setattr(owner, name, counted)

    for owner, name, key in (
            (matrices, "integer_det", "det"),
            (construct, "integer_solve", "solve"),
            (construct, "integer_exchange", "exchange"),
            (construct, "greedy_chart", lambda ints, order, start:
             "chart" if isinstance(start, tuple) else "eliminate"),
            (matrices, "integer_exchange", "swap"),
            (construct, "integer_cross", "cross"),
            (matrices, "integer_eliminate", "inner")):
        count(owner, name, key)
    return calls


def test_necklace_walk_eliminates_once_per_anchor(monkeypatch, tmp_path,
                                                  capsys):
    # twist and the certificate walk the necklace: one elimination of
    # [B | outside columns] anchors each walk, every later schedule is one
    # exchange of the chart, and no schedule minor is a determinant of its
    # own; twist also solves [B_1 | I] once for adj(B_1), and the twist
    # route reads its entries off the certificate's walk.  The rank
    # bounds are read off the walk's charts, one greedy_chart per start
    # column whose bound can bind, which eliminates only where the chart
    # is None, and invert-F's rows are eliminated once
    calls = _count_kernels(monkeypatch)

    def counted(run, *args):
        calls.update(dict.fromkeys(calls, 0))
        result = run(*args)
        got = dict(calls)
        assert got.pop("inner") == (got["solve"] + got["cross"]
                                    + got["eliminate"]), got
        return result, got

    m, pi = fx.UNIMOD_4x8, fx.PI_23345357
    assert counted(twist, m, pi) == (fx.TWIST_4x8, {
        "det": 0, "solve": 1, "exchange": 7, "eliminate": 1, "chart": 0,
        "swap": 0, "cross": 0})
    # one anchor, and the rank bounds of the five start columns where
    # one can bind read off their charts, each already the greedy basis
    assert counted(build_frieze_twist, m, pi) == (fx.JUG_FRIEZE, {
        "det": 0, "solve": 0, "exchange": 7, "eliminate": 1, "chart": 5,
        "swap": 0, "cross": 0})
    # a zero minor at schedules 5 and 7 re-anchors at 6 and 8, where no
    # bound can bind, and one start column's chart is one exchange away
    # from its greedy basis
    broken = with_entry(m, 2, 7, 0)
    minors = [d for _, d in is_pi_unimodular(broken, pi).checked_minors]
    assert minors == [1, 1, 1, 1, 0, 3, 0, 1]
    assert counted(is_pi_unimodular, broken, pi)[1] == {
        "det": 0, "solve": 0, "exchange": 5, "eliminate": 3, "chart": 5,
        "swap": 1, "cross": 0}
    # invert-F eliminates the frieze's rows once, columns ascending, and
    # exchanges toward the last basis; it checks its result through the
    # twist route, one more anchor, with no determinant
    assert counted(frieze_to_matrix, fx.JUG_FRIEZE)[1] == {
        "det": 0, "solve": 0, "exchange": 7, "eliminate": 2, "chart": 5,
        "swap": 3, "cross": 0}
    # construct --verify builds both routes on one certificate; the det
    # side reads each free entry off one cofactor vector per schedule,
    # one elimination each, and takes no determinant
    schedules = _free_schedules(pi)
    assert schedules == 7
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json()))
    for method in ("det", "twist"):
        code, got = counted(main, ["construct", str(path), "--siteswap",
                                   "23345357", "--method", method, "--verify"])
        assert code == 0 and capsys.readouterr().err == ""
        assert got == {"det": 0, "solve": 0, "exchange": 7, "eliminate": 1,
                       "chart": 5, "swap": 0, "cross": schedules}


def test_ragged_certificate_runs_no_elimination_of_its_own(monkeypatch):
    # the fan dual matrix D at n = 40, grown by 10 loops and coloops: a
    # rank bound can bind at each of its start columns, and each is read
    # off the walk's chart, so the certificate runs the walk's anchor
    # elimination and its exchanges, O(n k (n - k)), and no other
    n = 40
    q = [n - 2, 1] + [2] * (n - 3) + [1]
    m = positive_complement(frieze_to_matrix(frieze_from_quiddity(q)))
    pi = JugglingFunction.uniform(n, n - 2)
    rng = random.Random(5)
    for _ in range(10):
        m, pi = grown(rng, m, pi)
    assert pi.loops() and pi.coloops()
    calls = _count_kernels(monkeypatch)
    assert is_pi_unimodular(m, pi).ok
    # every start column's bound can bind, and its chart is its greedy
    # basis already
    assert (calls["chart"], calls["swap"]) == (pi.period, 0), calls
    assert (calls["solve"], calls["eliminate"], calls["det"]) == (0, 1, 0)


def test_fan_dual_complement_exchanges_at_most_twice(monkeypatch):
    # D at n = 64, 62 x 64: its sparsest columns first, one elimination
    # finds a basis with no fill-in, and the pass toward the first basis
    # makes at most min(k, n - k) = 2 exchanges; the natural-order
    # kernel of the same matrix fills every row in
    n = 64
    q = [n - 2, 1] + [2] * (n - 3) + [1]
    m = positive_complement(frieze_to_matrix(frieze_from_quiddity(q)))
    calls = _count_kernels(monkeypatch)
    comp = positive_complement(m)
    assert calls["swap"] <= min(m.nrows, n - m.nrows) == 2, calls
    assert (calls["eliminate"], calls["inner"], calls["det"]) == (1, 1, 0)
    assert comp == kernel_complement(m)


def _free_schedules(pi):
    """How many schedules L_a have a free entry (a, b) in the frieze of
    a matrix shaped by pi, one residue a per schedule."""
    n = pi.period
    return len({residue(a, n)
                for b, fixed in enumerate(pi.dual().skeleton(), start=1)
                for a, x in enumerate(fixed, start=b) if x is None})


def test_twist_names_the_first_bad_schedule_minor():
    # one perturbed entry: schedule 3 gets minor -1, or schedule 8 minor 0
    for (i, j), a, value in (((1, 2), 3, -1), ((3, 7), 8, 0)):
        m = with_entry(fx.UNIMOD_4x8, i, j, 0)
        minors = [cyclic_submatrix(m, s).det() for s in fx.NECKLACE_23345357]
        assert [d for d in minors if d != 1] == [value]
        assert minors[a - 1] == value
        with pytest.raises(ValueError,
                           match=f"^landing-schedule minor at {a} is not 1$"):
            twist(m, fx.PI_23345357)


def test_positive_complement_fixture():
    comp = positive_complement(fx.UNIMOD_4x8)
    assert comp.maximal_minors() == fx.COMPLEMENT_4x8.maximal_minors()
    assert is_pi_unimodular(fx.COMPLEMENT_4x8, fx.PI_53635514).ok


def test_positive_complement_involution_and_consecutive():
    back = positive_complement(positive_complement(fx.CONSEC_3x8))
    assert back.maximal_minors() == fx.CONSEC_3x8.maximal_minors()
    comp = positive_complement(fx.CONSEC_3x8)
    assert is_consecutively_unimodular(comp)


def test_positive_complement_defining_identity():
    m = fx.CONSEC_3x8
    comp = positive_complement(m)
    minors = m.maximal_minors()
    comp_minors = comp.maximal_minors()
    full = set(range(1, 9))
    for cols, d in minors.items():
        assert comp_minors[tuple(sorted(full - set(cols)))] == d


def test_positive_complement_errors():
    with pytest.raises(ValueError):
        positive_complement(Matrix([[1, 2, 3], [2, 4, 6]]))
    with pytest.raises(ValueError):
        positive_complement(Matrix([[2]]))
    assert positive_complement(Matrix([[1]])).nrows == 0


def test_positive_complement_cost_is_polynomial(monkeypatch):
    # a regression to the C(n, k) minor tables would take hours at n = 24
    calls = {"det": 0, "maximal_minors": 0}

    def counted(name):
        original = getattr(Matrix, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Matrix, name, counted(name))
    rng = random.Random(18)
    for k, n in ((8, 16), (12, 24)):
        m = random_full_rank(rng, k, n)
        calls.update(det=0, maximal_minors=0)
        comp = positive_complement(m)
        assert calls["det"] <= 4 and calls["maximal_minors"] == 0
        for _ in range(3):
            cols = sorted(rng.sample(range(n), k))
            co = [j for j in range(n) if j not in cols]
            assert (comp.submatrix(range(n - k), co).det()
                    == m.submatrix(range(k), cols).det())
    calls.update(maximal_minors=0)
    inverse_twist(fx.COMPLEMENT_4x8, fx.PI_53635514)
    assert calls["maximal_minors"] == 0


def test_inverse_twist_fixture():
    inv = inverse_twist(fx.COMPLEMENT_4x8, fx.PI_53635514)
    assert inv == fx.INVERSE_TWIST_4x8


def test_twist_of_inverse_twist_restores_minors():
    for m, pi in ((fx.COMPLEMENT_4x8, fx.PI_53635514),
                  (fx.CONSEC_3x8, fx.UNIFORM_8_3)):
        inv = inverse_twist(m, pi)
        assert twist(inv, pi) == m


def test_inverse_twist_square_case():
    m = random_determinant_one(random.Random(3), 3, steps=6)
    pi = JugglingFunction.uniform(3, 3)
    inv = inverse_twist(m, pi)
    assert twist(inv, pi) == m


def test_inverse_twist_takes_no_complement(monkeypatch):
    # the inverse twist is the mirror shape's twist on the rotated
    # matrix: no positive complement, no dual shape
    calls = {"positive_complement": 0, "dual": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(construct, "positive_complement")
    counted(JugglingFunction, "dual")
    inv = inverse_twist(fx.COMPLEMENT_4x8, fx.PI_53635514)
    assert inv == fx.INVERSE_TWIST_4x8
    assert calls == {"positive_complement": 0, "dual": 0}


def test_inverse_twist_rejects_bad_input():
    message = ("matrix is not unimodular for this juggling function: bad "
               "minors (1, 2, 4, 7): 3, (2, 3, 4, 7): 3, (3, 4, 5, 7): 3, "
               "(4, 5, 6, 7): 3, (5, 6, 7, 8): 3, (2, 6, 7, 8): 3, "
               "(1, 2, 7, 8): 3, (1, 2, 4, 8): 3; rank violations none")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        inverse_twist(scale_row(fx.UNIMOD_4x8, 0, 3), fx.PI_23345357)


def test_frieze_entry_spot_values():
    m, pi = fx.UNIMOD_4x8, fx.PI_23345357
    assert frieze_entry(m, pi, 2, 1) == 2
    assert frieze_entry(m, pi, 2, -2) == -3
    assert frieze_entry(m, pi, 6, 1) == -1
    assert frieze_entry(m, pi, 3, 3) == 1
    assert frieze_entry(m, pi, 1, 4) == 0


def test_frieze_entry_refuses_a_matrix_of_the_wrong_shape():
    # the walk's shape rule, checked before any slot is read: a free
    # slot, a loop's slot (4 is a loop of 4130) and a slot outside the
    # window all raise it, as build_frieze_det does
    cases = [(Matrix([[1, 0, 0, 0, 1], [0, 1, 1, 0, 0]]),
              JugglingFunction.uniform(4, 2), "2x5", "2x4"),
             (Matrix([[1, 0, 0], [0, 1, 1]]),
              JugglingFunction.uniform(4, 2), "2x3", "2x4"),
             (Matrix([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),
              fx.PI_4130, "3x4", "2x4")]
    for m, pi, got, need in cases:
        message = f"matrix is {got}, shape needs {need}"
        for a, b in ((2, 1), (4, 4), (4, 0), (1, 2), (9, 1)):
            with pytest.raises(ValueError) as exc:
                frieze_entry(m, pi, a, b)
            assert str(exc.value) == message, (m, pi, a, b)
        with pytest.raises(ValueError) as exc:
            build_frieze_det(m, pi)
        assert str(exc.value) == message


def test_build_frieze_fixtures():
    assert build_frieze_det(fx.UNIMOD_4x8, fx.PI_23345357) == fx.JUG_FRIEZE
    built = build_frieze_det(fx.CONSEC_3x8, fx.UNIFORM_8_3)
    assert built == fx.SL3_H5.translate(5)
    assert is_frieze(built)


def test_build_frieze_paths_agree():
    for m, pi in ((fx.CONSEC_3x8, fx.UNIFORM_8_3),
                  (fx.UNIMOD_4x8, fx.PI_23345357),
                  (fx.COMPLEMENT_4x8, fx.PI_53635514)):
        assert build_frieze_det(m, pi) == build_frieze_twist(m, pi)


def test_build_frieze_loop_split():
    # a loop contributes a diagonal 1 and a signed slot one period below
    f_det = build_frieze_det(fx.MATRIX_003, fx.PI_003)
    f_twist = build_frieze_twist(fx.MATRIX_003, fx.PI_003)
    assert f_det == f_twist
    assert f_det.shape == fx.PI_330
    assert f_det.entry(3, 3) == 1 and f_det.entry(6, 3) == 0
    assert f_det.entry(4, 1) == -1
    for m, pi in ((fx.MATRIX_4400, fx.PI_4400), (fx.MATRIX_4130, fx.PI_4130)):
        assert build_frieze_det(m, pi) == build_frieze_twist(m, pi)
        assert is_frieze(build_frieze_det(m, pi))


def test_zero_ball_routes_agree():
    # the twist route reads columns of a matrix with no rows
    f = build_frieze_det(fx.MATRIX_000, fx.IDENTITY_3)
    assert build_frieze_twist(fx.MATRIX_000, fx.IDENTITY_3) == f
    assert f.shape == fx.IDENTITY_3.dual() and is_frieze(f)


def test_builds_compute_only_the_free_entries(monkeypatch):
    # the det route eliminates once per schedule that has a free entry
    # and takes no determinant: uniform(18, 16), whose 2-ball dual has
    # one free slot per column, reads its 18 entries off 18 cofactor
    # vectors of its positive complement (2k > n); the twist route pays
    # one dot product per free slot, with no matrix product and no
    # elimination beyond its certificate
    n = 18
    pi = JugglingFunction.uniform(n, 16)
    # columns (1, 0), (n-2, 1), (n-3, 1), ..., (0, 1): every cyclically
    # consecutive pair has determinant 1, and so has every complementary
    # 16-set of its positive complement
    strip = Matrix([[1] + list(range(n - 2, -1, -1)), [0] + [1] * (n - 1)])
    m = (random_determinant_one(random.Random(41), 16)
         * positive_complement(strip))
    assert is_pi_unimodular(m, pi).ok
    calls = {"integer_cross": 0, "integer_det": 0, "__mul__": 0}
    cross, det, mul = construct.integer_cross, matrices.integer_det, \
        Matrix.__mul__

    def counted_cross(rows, ncols):
        calls["integer_cross"] += 1
        return cross(rows, ncols)

    def counted_det(rows):
        calls["integer_det"] += 1
        return det(rows)

    def counted_mul(self, other):
        calls["__mul__"] += 1
        return mul(self, other)

    monkeypatch.setattr(construct, "integer_cross", counted_cross)
    monkeypatch.setattr(matrices, "integer_det", counted_det)
    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    f = build_frieze_twist(m, pi)
    assert calls == {"integer_cross": 0, "integer_det": 0, "__mul__": 0}
    assert build_frieze_det(m, pi) == f
    free = sum(x is None for col in pi.dual().skeleton() for x in col)
    assert free == _free_schedules(pi) == n
    assert calls == {"integer_cross": n, "integer_det": 0, "__mul__": 0}
    # a seeded full-rank uniform(24, 12) matrix (2k = n): its 264 free
    # entries come from 24 vectors of its own columns, not from 264
    # determinants of size 12
    pi = JugglingFunction.uniform(24, 12)
    m = random_full_rank(random.Random(24), 12, 24)
    calls.update(integer_cross=0)
    c = construct._fill_skeleton(pi.dual(), construct.frieze_entries(m, pi))
    free = [(a, b) for b, fixed in enumerate(pi.dual().skeleton(), start=1)
            for a, x in enumerate(fixed, start=b) if x is None]
    assert len(free) == 264 and _free_schedules(pi) == 24
    assert calls == {"integer_cross": 24, "integer_det": 0, "__mul__": 0}
    for a, b in free[::60]:
        assert c.entry(a, b) == exchange_minor(m, pi, a, b)


def test_loop_slot_is_sign_of_ball_count():
    # slot (b+n, b) at a loop b of the input shape is (-1)**k, k the
    # input's ball count, on both build routes and on the dual
    for m, pi in ((fx.MATRIX_003, fx.PI_003), (fx.MATRIX_4400, fx.PI_4400),
                  (fx.MATRIX_4130, fx.PI_4130)):
        n, k = pi.period, pi.balls
        assert pi.loops()
        for build in (build_frieze_det, build_frieze_twist):
            f = build(m, pi)
            for b in pi.loops():
                assert f.entry(b + n, b) == (-1) ** k
        f = build_frieze_det(m, pi)
        for c in (f, dual_frieze(f)):
            assert c.shape.loops()
            for b in c.shape.loops():
                assert dual_frieze(c).entry(b + n, b) == (-1) ** c.shape.balls


def test_twist_product_is_the_skeleton_at_fixed_entries():
    # build_frieze_twist reads only the free entries of the product and
    # takes the fixed ones from the skeleton, so check the theorem there:
    # the unwrapped twist(m)^T m is the output shape's prefrieze at every
    # fixed position of a non-loop row, and a loop's row is zero
    wrapped_signs = 0
    for m, pi in ((fx.UNIMOD_4x8, fx.PI_23345357),
                  (fx.TWIST_4x8, fx.PI_23345357),
                  (fx.COMPLEMENT_4x8, fx.PI_53635514),
                  (fx.INVERSE_TWIST_4x8, fx.PI_53635514),
                  (fx.CONSEC_3x8, fx.UNIFORM_8_3),
                  (fx.TWIST_3x8, fx.UNIFORM_8_3),
                  (fx.MATRIX_003, fx.PI_003), (fx.MATRIX_4400, fx.PI_4400),
                  (fx.MATRIX_4130, fx.PI_4130)):
        assert is_pi_unimodular(m, pi).ok
        n = pi.period
        wrap = (-1) ** (pi.balls - 1)
        product = twist(m, pi).transpose() * m
        skeleton = pi.dual().skeleton()
        for b in range(1, n + 1):
            for a in range(b, b + n):
                ra = residue(a, n)
                x = product[ra - 1, b - 1] * (wrap if a > n else 1)
                fixed = skeleton[b - 1][a - b]
                if pi(ra) == ra:
                    assert x == 0
                elif fixed is not None:
                    assert x == fixed
                    wrapped_signs += a > n and fixed != 0
    assert wrapped_signs > 0


def test_build_frieze_rejects_non_unimodular():
    with pytest.raises(ValueError):
        build_frieze_det(scale_row(fx.CONSEC_3x8, 1, 5), fx.UNIFORM_8_3)


def test_left_multiplication_invariance():
    rng = random.Random(22)
    for m, pi in ((fx.CONSEC_3x8, fx.UNIFORM_8_3),
                  (fx.UNIMOD_4x8, fx.PI_23345357)):
        f = build_frieze_det(m, pi)
        g = random_determinant_one(rng, m.nrows)
        assert build_frieze_det(g * m, pi) == f


def test_tau_dot_product_sign_law():
    for m, pi in ((fx.UNIMOD_4x8, fx.PI_23345357),
                  (fx.CONSEC_3x8, fx.UNIFORM_8_3)):
        t = twist(m, pi)
        dual = pi.dual()
        n, k = pi.period, pi.balls
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                dot = sum(t[i, a - 1] * m[i, b - 1] for i in range(k))
                if pi(a) == a:
                    assert dot == 0
                    continue
                sched = pi.landing_schedule(a)
                rest = [x for x in sched if x != a]
                if residue(b, n) in {residue(x, n) for x in rest}:
                    base = Fraction(0)
                else:
                    base = cyclic_submatrix(m, rest + [b]).det()
                if a >= b:
                    assert dot == (-1) ** len(dual.s_set(b, a)) * base
                else:
                    assert dot == (-1) ** (k - 1 + len(dual.s_set(b, a + n))) * base


def test_frieze_to_matrix_round_trips():
    for m, pi in ((fx.CONSEC_3x8, fx.UNIFORM_8_3),
                  (fx.UNIMOD_4x8, fx.PI_23345357),
                  (fx.MATRIX_003, fx.PI_003)):
        f = build_frieze_det(m, pi)
        back = frieze_to_matrix(f)
        assert back.maximal_minors() == m.maximal_minors()
        assert build_frieze_det(back, pi) == f


def test_frieze_to_matrix_from_stored_fixture():
    m = frieze_to_matrix(fx.SL3_H5)
    assert is_pi_unimodular(m, fx.UNIFORM_8_3).ok
    assert build_frieze_det(m, fx.UNIFORM_8_3) == fx.SL3_H5


def test_frieze_to_matrix_eliminates_its_rows_once(monkeypatch):
    # the rows of the frieze on the first landing schedule are
    # eliminated once, with their columns ascending, and exchanged
    # toward the last basis (one greedy_chart), and the twist route's
    # walk that checks the result anchors once, one more elimination; no
    # solve, determinant, Fraction reduced form or dual decision on a
    # frieze, and one dual decision on a non-frieze
    calls = _count_kernels(monkeypatch)
    counts = {"rref": 0, "dual": 0}
    rref, decide = Matrix.rref, construct._recurrence_solutions

    def counter(name, run):
        def counted(*args):
            counts[name] += 1
            return run(*args)
        return counted

    monkeypatch.setattr(Matrix, "rref", counter("rref", rref))
    monkeypatch.setattr(construct, "_recurrence_solutions",
                        counter("dual", decide))
    frieze_to_matrix(fx.SL3_H5)
    assert (calls["eliminate"], calls["solve"], calls["inner"],
            calls["det"]) == (2, 0, 2, 0)
    assert counts == {"rref": 0, "dual": 0}
    # a free entry moved: the route runs and fails, and the dual names
    # the failure; a fixed entry moved: the dual names it before the
    # route eliminates anything
    for d, eliminations, solves in ((2, 2, 0), (6, 0, 0)):
        cols = [list(c) for c in fx.SL3_H5.columns]
        cols[0][d] += 1
        bad = PeriodicFrieze(fx.UNIFORM_8_5, cols)
        calls.update(eliminate=0, solve=0)
        counts.update(dual=0)
        with pytest.raises(ValueError, match="^not a frieze: "):
            frieze_to_matrix(bad)
        assert (calls["eliminate"], calls["solve"], counts["dual"]) == \
            (eliminations, solves, 1), d


def test_frieze_to_matrix_rejects_non_frieze():
    cols = [list(c) for c in fx.SL3_H5.columns]
    cols[0][2] += 1
    bad = PeriodicFrieze(fx.UNIFORM_8_5, cols)
    with pytest.raises(ValueError):
        frieze_to_matrix(bad)


@pytest.mark.parametrize("name, patch, message", [
    # rows that span nothing, patched in matrices, whose greedy_chart
    # eliminates them
    ("integer_eliminate", lambda rows, ncols: ((), 1, 1),
     "the rows of the first landing schedule have rank 0, not 3"),
    # a certificate that fails, as on a matrix that is not unimodular
    ("is_pi_unimodular", lambda m, pi: construct.UnimodularCertificate(
        rank_violations=[((1, 2), 2, 1)]),
     "matrix is not unimodular for this juggling function: bad minors "
     "none; rank violations columns 1..2 have rank 2 > 1"),
    ("build_frieze_twist", lambda m, pi: fx.SL3_H5_DUAL,
     "inversion failed to reproduce the frieze"),
])
def test_frieze_to_matrix_self_checks(monkeypatch, name, patch, message):
    # each self-check of the inversion, reached by corrupting one of its
    # steps on a frieze: the dual decides the input a frieze, so the
    # route's own error stands
    owner = construct if hasattr(construct, name) else matrices
    monkeypatch.setattr(owner, name, patch)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        frieze_to_matrix(fx.SL3_H5)


def _duality_cases():
    """The unimodular pool, the 4 x 8 fixture for 23345357 among it,
    and seeded samplers.grown copies of it, each with 0 < k < n."""
    rng = random.Random(53)
    cases = list(UNIMODULAR_POOL)
    for _ in range(40):
        m, pi = rng.choice(UNIMODULAR_POOL)
        for _ in range(rng.randint(1, 4)):
            m, pi = grown(rng, m, pi)
        cases.append((m, pi))
    return [pytest.param(m, pi, id=f"{t}-{format_siteswap(pi)}")
            for t, (m, pi) in enumerate(cases) if 0 < pi.balls < pi.period]


@pytest.mark.parametrize("m, pi", _duality_cases())
def test_duality_triangle(m, pi):
    # the paper's duality in matrix form: the dual of the frieze of m is
    # the frieze of the complement of its twist, and of the inverse
    # twist of its complement, for the dual shape
    left = dual_frieze(build_frieze_det(m, pi))
    via_twist = build_frieze_det(positive_complement(twist(m, pi)), pi.dual())
    via_inverse = build_frieze_det(
        inverse_twist(positive_complement(m), pi.dual()), pi.dual())
    assert left == via_twist == via_inverse
