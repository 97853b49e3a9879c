import json
import random
import re
from fractions import Fraction

import pytest

from jugglerfrieze import (JugglingFunction, Matrix, PeriodicFrieze,
                           construct, cyclic_submatrix, matrices, residue,
                           is_consecutively_unimodular, is_pi_unimodular,
                           twist, inverse_twist, positive_complement,
                           frieze_entry, build_frieze_det, build_frieze_twist,
                           frieze_to_matrix, is_frieze, dual_frieze)
from jugglerfrieze.cli import main

import fixture_data as fx
from exact_oracles import gauss_jordan, identity, scale_row
from samplers import random_determinant_one, random_full_rank


def with_entry(m, i, j, value):
    rows = [list(r) for r in m.entries]
    rows[i][j] = value
    return Matrix(rows, cols=m.ncols)


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


def test_necklace_walk_eliminates_once_per_anchor(monkeypatch, tmp_path,
                                                  capsys):
    # twist and the certificate walk the necklace: one elimination
    # anchors each walk, every later schedule is one adjugate update,
    # and no schedule minor is a determinant of its own; the twist route
    # reads its rows off the certificate's walk, so it anchors once
    calls = {"det": 0, "anchor": 0, "rank": 0, "kernel": 0}
    det, eliminate = matrices.integer_det, construct.integer_eliminate
    kernel_eliminate = matrices.integer_eliminate

    def counted_det(rows):
        calls["det"] += 1
        return det(rows)

    def counted_eliminate(rows, ncols):
        # an anchor eliminates [B^T | I] on its left half only
        calls["anchor" if ncols < len(rows[0]) else "rank"] += 1
        return eliminate(rows, ncols)

    def counted_kernel(rows, ncols):
        # integer_kernel, the one elimination left in matrices
        calls["kernel"] += 1
        return kernel_eliminate(rows, ncols)

    def counted(run, *args):
        calls.update(det=0, anchor=0, rank=0, kernel=0)
        return run(*args), dict(calls)

    monkeypatch.setattr(matrices, "integer_det", counted_det)
    monkeypatch.setattr(construct, "integer_det", counted_det)
    monkeypatch.setattr(construct, "integer_eliminate", counted_eliminate)
    monkeypatch.setattr(matrices, "integer_eliminate", counted_kernel)
    m, pi = fx.UNIMOD_4x8, fx.PI_23345357
    assert counted(twist, m, pi) == \
        (fx.TWIST_4x8, {"det": 0, "anchor": 1, "rank": 0, "kernel": 0})
    # one anchor and the certificate's five rank eliminations
    assert counted(build_frieze_twist, m, pi) == \
        (fx.JUG_FRIEZE, {"det": 0, "anchor": 1, "rank": 5, "kernel": 0})
    # invert-F eliminates the solutions once for their kernel and checks
    # its result through the twist route; its one determinant is the
    # normalisation minor
    assert counted(frieze_to_matrix, fx.JUG_FRIEZE)[1] == \
        {"det": 1, "anchor": 1, "rank": 5, "kernel": 1}
    # construct --verify builds both routes on one certificate; the det
    # route pays one determinant per free entry and no elimination
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json()))
    for method in ("det", "twist"):
        code, got = counted(main, ["construct", str(path), "--siteswap",
                                   "23345357", "--method", method, "--verify"])
        assert code == 0 and capsys.readouterr().err == ""
        assert (got["anchor"], got["rank"], got["kernel"]) == (1, 5, 0)


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
    assert inv.maximal_minors() == fx.INVERSE_TWIST_4x8.maximal_minors()


def test_twist_of_inverse_twist_restores_minors():
    for m, pi in ((fx.COMPLEMENT_4x8, fx.PI_53635514),
                  (fx.CONSEC_3x8, fx.UNIFORM_8_3)):
        inv = inverse_twist(m, pi)
        assert twist(inv, pi).maximal_minors() == m.maximal_minors()


def test_inverse_twist_square_case():
    m = random_determinant_one(random.Random(3), 3, steps=6)
    pi = JugglingFunction.uniform(3, 3)
    inv = inverse_twist(m, pi)
    assert twist(inv, pi).maximal_minors() == m.maximal_minors()


def test_inverse_twist_rejects_bad_input():
    with pytest.raises(ValueError):
        inverse_twist(scale_row(fx.UNIMOD_4x8, 0, 3), fx.PI_23345357)


def test_frieze_entry_spot_values():
    m, pi = fx.UNIMOD_4x8, fx.PI_23345357
    assert frieze_entry(m, pi, 2, 1) == 2
    assert frieze_entry(m, pi, 2, -2) == -3
    assert frieze_entry(m, pi, 6, 1) == -1
    assert frieze_entry(m, pi, 3, 3) == 1
    assert frieze_entry(m, pi, 1, 4) == 0


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
    # uniform(18, 16) has a 2-ball dual with one free slot per column:
    # the det route pays n frieze_entry calls, not n(n+1), and the twist
    # route one dot product per free slot, with no matrix product
    n = 18
    pi = JugglingFunction.uniform(n, 16)
    # columns (1, 0), (n-2, 1), (n-3, 1), ..., (0, 1): every cyclically
    # consecutive pair has determinant 1, and so has every complementary
    # 16-set of its positive complement
    strip = Matrix([[1] + list(range(n - 2, -1, -1)), [0] + [1] * (n - 1)])
    m = (random_determinant_one(random.Random(41), 16)
         * positive_complement(strip))
    assert is_pi_unimodular(m, pi).ok
    calls = {"frieze_entry": 0, "__mul__": 0}
    entry, mul = construct.frieze_entry, Matrix.__mul__

    def counted_entry(*args):
        calls["frieze_entry"] += 1
        return entry(*args)

    def counted_mul(self, other):
        calls["__mul__"] += 1
        return mul(self, other)

    monkeypatch.setattr(construct, "frieze_entry", counted_entry)
    monkeypatch.setattr(Matrix, "__mul__", counted_mul)
    f = build_frieze_twist(m, pi)
    assert calls == {"frieze_entry": 0, "__mul__": 0}
    assert build_frieze_det(m, pi) == f
    free = sum(x is None for col in pi.dual().skeleton() for x in col)
    assert calls == {"frieze_entry": n, "__mul__": 0} and free == n


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


def test_frieze_to_matrix_runs_one_elimination(monkeypatch):
    # the solutions come from the recurrence that decided the frieze;
    # only their complement is eliminated, by one integer kernel and no
    # Fraction reduced form
    calls = {"kernel": 0, "rref": 0}
    eliminate, rref = matrices.integer_eliminate, Matrix.rref

    def counted_kernel(rows, ncols):
        calls["kernel"] += 1
        return eliminate(rows, ncols)

    def counted_rref(self):
        calls["rref"] += 1
        return rref(self)

    monkeypatch.setattr(matrices, "integer_eliminate", counted_kernel)
    monkeypatch.setattr(Matrix, "rref", counted_rref)
    frieze_to_matrix(fx.SL3_H5)
    assert calls == {"kernel": 1, "rref": 0}


def test_frieze_to_matrix_rejects_non_frieze():
    cols = [list(c) for c in fx.SL3_H5.columns]
    cols[0][2] += 1
    bad = PeriodicFrieze(fx.UNIFORM_8_5, cols)
    with pytest.raises(ValueError):
        frieze_to_matrix(bad)


@pytest.mark.parametrize("name, patch, message", [
    # solutions that span nothing leave a complement of all n columns
    ("_recurrence_solutions", lambda c: [[0] * 8 for _ in range(8)],
     "complement of the solutions has 8 rows, expected 3"),
    ("integer_det", lambda rows: 0, "normalization minor vanishes"),
    ("build_frieze_twist", lambda m, pi: fx.SL3_H5_DUAL,
     "inversion failed to reproduce the frieze"),
])
def test_frieze_to_matrix_self_checks(monkeypatch, name, patch, message):
    # each self-check of the inversion, reached by corrupting its input
    monkeypatch.setattr(construct, name, patch)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        frieze_to_matrix(fx.SL3_H5)


def test_duality_triangle_on_fixture():
    m, pi = fx.UNIMOD_4x8, fx.PI_23345357
    left = dual_frieze(build_frieze_det(m, pi))
    via_twist = build_frieze_det(positive_complement(twist(m, pi)), pi.dual())
    via_inverse = build_frieze_det(
        inverse_twist(positive_complement(m), pi.dual()), pi.dual())
    assert left == via_twist == via_inverse
