"""End-to-end acceptance checks, one test per criterion.

Every comparison is exact; run with -s to see one line per criterion.
"""
from jugglerfrieze import (build_frieze_det, build_frieze_twist,
                           dual_frieze, enumerate_sl2_positive, format_siteswap,
                           frieze_to_matrix, inverse_twist, is_frieze,
                           is_pi_unimodular, is_sl_frieze, parse_siteswap,
                           positive_complement, residual,
                           solution_matrix, twist)
from jugglerfrieze.frieze import frieze_minor, tameness_minor, is_tameness_pair

import fixture_data as fx
from exact_oracles import superperiodic
from property_checks import ALL_CHECKS


def report(num, text):
    print(f"criterion {num} PASS: {text}")


def test_criterion_1_consecutive_end_to_end():
    m, pi = fx.CONSEC_3x8, fx.UNIFORM_8_3
    assert twist(m, pi) == fx.TWIST_3x8
    assert twist(m, pi).transpose() * m == fx.PRODUCT_3x8
    strip = build_frieze_twist(m, pi)
    assert strip == build_frieze_det(m, pi)
    # the construction lands on the stored classical strip five steps in
    assert strip == fx.SL3_H5.translate(5)
    assert is_sl_frieze(strip, 3, 5)
    report(1, "twist, product, and strip reproduce the 3x8 worked example")


def test_criterion_2_classical_fixtures_and_dual():
    assert is_sl_frieze(fx.SL2_H6, 2, 6)
    assert is_sl_frieze(fx.SL3_H5, 3, 5)
    d = dual_frieze(fx.SL3_H5)
    assert d == fx.SL3_H5_DUAL
    assert tuple(d.entry(b + 1, b) for b in range(1, 9)) == fx.SL3_H5_DUAL_ROW2
    assert tuple(d.entry(b + 2, b) for b in range(0, 8)) == fx.SL3_H5_DUAL_ROW3
    assert all(d.entry(b, b) == 1 and d.entry(b + 3, b) == 1
               for b in range(1, 9))
    report(2, "height-6 and height-5 strips verify; truncated dual matches")


def test_criterion_3_juggler_pipeline():
    pi = parse_siteswap("53635514")
    assert format_siteswap(pi.dual()) == "23345357"
    assert pi.dual().necklace() == fx.NECKLACE_23345357
    c = fx.JUG_FRIEZE
    assert is_frieze(c)
    assert frieze_minor(c, -2, 1) == 1
    assert frieze_minor(c, 2, 6) == 1
    assert frieze_minor(c, 7, 12) == 1
    assert tameness_minor(c, -3, 1) == 0
    assert tameness_minor(c, 2, 7) == 0
    assert tameness_minor(c, 8, 12) == 1 and not is_tameness_pair(pi, 8, 12)
    assert dual_frieze(c) == fx.JUG_FRIEZE_DUAL
    report(3, "siteswap pipeline, ragged frieze checks, and dual match")


def test_criterion_4_ragged_end_to_end():
    m, pi = fx.UNIMOD_4x8, fx.PI_23345357
    assert is_pi_unimodular(m, pi).ok
    assert twist(m, pi) == fx.TWIST_4x8
    assert twist(m, pi).transpose() * m == fx.PRODUCT_4x8
    strip = build_frieze_twist(m, pi)
    assert strip == build_frieze_det(m, pi) == fx.JUG_FRIEZE
    assert strip.entry(2, 1) == 2
    assert strip.entry(2, -2) == -3
    assert strip.entry(6, 1) == -1
    report(4, "4x8 twist construction reproduces the ragged strip")


def test_criterion_5_complement_and_inverse_twist():
    m, pi = fx.UNIMOD_4x8, fx.PI_23345357
    comp = positive_complement(m)
    assert comp.maximal_minors() == fx.COMPLEMENT_4x8.maximal_minors()
    inv = inverse_twist(fx.COMPLEMENT_4x8, fx.PI_53635514)
    assert inv.maximal_minors() == fx.INVERSE_TWIST_4x8.maximal_minors()
    assert (fx.COMPLEMENT_4x8.transpose() * fx.INVERSE_TWIST_4x8
            == fx.PRODUCT_DUAL_8x8)
    rebuilt = build_frieze_det(fx.INVERSE_TWIST_4x8, fx.PI_53635514)
    assert rebuilt == dual_frieze(build_frieze_det(m, pi))
    report(5, "complement and inverse twist agree with the worked values")


def test_criterion_6_superperiodic_solutions():
    for window in (fx.SL3_H5_SOLUTION_1, fx.SL3_H5_SOLUTION_2):
        x = superperiodic(window, 3)
        assert all(residual(fx.SL3_H5, x, a) == 0 for a in range(-12, 13))
        assert all(x(a + 8) == x(a) for a in range(-12, 13))
    sol = solution_matrix(fx.JUG_FRIEZE)
    assert sol.sign_exponent == 1
    for b in range(1, 9):
        col = sol.column(b)
        assert all(col(a + 8) == -col(a) for a in range(b - 8, b + 16))
        assert all(residual(fx.JUG_FRIEZE, col, a) == 0 for a in range(-8, 17))
    report(6, "solutions extend superperiodically with the right signs")


def test_criterion_7_property_suite():
    for name, check in ALL_CHECKS:
        check()
        print(f"  property PASS: {name}")
    report(7, f"{len(ALL_CHECKS)} randomized properties, 100 instances each")


def count_triangulations(m):
    """Maximal noncrossing diagonal sets of a convex m-gon, by direct
    backtracking; independent of the frieze machinery."""
    diagonals = [(i, j) for i in range(1, m + 1) for j in range(i + 2, m + 1)
                 if not (i == 1 and j == m)]

    def crosses(d1, d2):
        i, j = d1
        k, l = d2
        return i < k < j < l or k < i < l < j

    target = m - 3
    count = 0

    def backtrack(start, chosen):
        nonlocal count
        if len(chosen) == target:
            count += 1
            return
        for idx in range(start, len(diagonals)):
            d = diagonals[idx]
            if all(not crosses(d, e) for e in chosen):
                chosen.append(d)
                backtrack(idx + 1, chosen)
                chosen.pop()

    backtrack(0, [])
    return count


def test_criterion_8_catalan_enumeration():
    for h, expected in ((2, 2), (3, 5), (4, 14)):
        found = enumerate_sl2_positive(h, h)
        oracle = count_triangulations(h + 2)
        assert len(found) == expected == oracle
        assert len(enumerate_sl2_positive(h, h + 2)) == expected
    report(8, "height 2, 3, 4 counts match the triangulation oracle")


def test_criterion_9_bijection_round_trips():
    frieze_fixtures = [fx.SL3_H5, fx.SL2_H6, fx.JUG_FRIEZE,
                       fx.JUG_FRIEZE_DUAL, dual_frieze(fx.SL3_H5),
                       fx.IDENTITY_FRIEZE_3]
    for c in frieze_fixtures:
        back = frieze_to_matrix(c)
        assert build_frieze_det(back, c.shape.dual()) == c
    matrix_fixtures = [
        (fx.CONSEC_3x8, fx.UNIFORM_8_3),
        (fx.TWIST_3x8, fx.UNIFORM_8_3),
        (fx.UNIMOD_4x8, fx.PI_23345357),
        (fx.TWIST_4x8, fx.PI_23345357),
        (fx.COMPLEMENT_4x8, fx.PI_53635514),
        (fx.INVERSE_TWIST_4x8, fx.PI_53635514),
        (fx.MATRIX_003, fx.PI_003),
        (fx.MATRIX_4400, fx.PI_4400),
    ]
    for m, pi in matrix_fixtures:
        again = frieze_to_matrix(build_frieze_det(m, pi))
        assert again.maximal_minors() == m.maximal_minors()
    report(9, "frieze-to-matrix inverts the construction on all fixtures")
