import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jugglerfrieze import (JugglingFunction, Matrix, PeriodicFrieze,
                           build_frieze_det, build_frieze_twist, dual_frieze,
                           is_frieze, SolutionWindow, residual,
                           solution_matrix)
from exact_oracles import (tiling, verify_superperiodic_kernel,
                           kernel_correspondence, dual_failure,
                           superperiodic)

import fixture_data as fx
from samplers import UNIMODULAR_POOL, grown

# the strip of quiddity (3, 2/3, 3, 2/3) and a period-5 one whose
# second row repeats its first three steps on, both over the lcm 3
RATIONAL_STRIP = PeriodicFrieze.from_json(json.loads(
    (Path(__file__).parent / "data" / "rational" / "strip.json").read_text()))
_Q5 = [3, Fraction(2, 3), 4, 1, Fraction(5, 3)]
RATIONAL_STRIP_5 = PeriodicFrieze(
    JugglingFunction.uniform(5, 3),
    [[1, q, q * _Q5[(b + 1) % 5] - 1, 1, 0, 0] for b, q in enumerate(_Q5)])


def test_superperiodic_extension_odd_sign_is_periodic():
    x = superperiodic([2, -1, 5], 3)
    for a in range(-9, 10):
        assert x(a) == x(a + 3)


def test_superperiodic_extension_basic_flip():
    x = superperiodic([1, 0, 0, 0], 2)
    assert x(5) == -1
    assert x(1) == 1
    assert x(-3) == -1


def test_superperiodic_extension_restriction_recovers_vector():
    v = [3, 1, -2, 7]
    x = superperiodic(v, 4)
    assert [x(a) for a in range(1, 5)] == v


def test_residual_of_stored_solutions():
    x1 = superperiodic(fx.SL3_H5_SOLUTION_1, 3)
    x2 = superperiodic(fx.SL3_H5_SOLUTION_2, 3)
    for a in range(-12, 13):
        assert residual(fx.SL3_H5, x1, a) == 0
        assert residual(fx.SL3_H5, x2, a) == 0
        assert x1(a + 8) == x1(a)
        assert x2(a + 8) == x2(a)


def test_residual_nonzero_for_constant_sequence():
    ones = lambda a: Fraction(1)
    assert any(residual(fx.SL3_H5, ones, a) != 0 for a in range(1, 9))


def test_residual_requires_window():
    window = {b: Fraction(1) for b in range(0, 5)}
    with pytest.raises(ValueError):
        residual(fx.SL3_H5, window, 4)   # needs indices down to -4
    assert residual(fx.IDENTITY_FRIEZE_3, {1: Fraction(2), 0: 0, -1: 0, -2: 0}, 1) == 2


def test_solution_matrix_of_classical_fixture():
    sol = solution_matrix(fx.SL3_H5)
    assert sol.period == 8 and sol.sign_exponent == 0
    assert sol.columns[0] == (1, -3, 3, -1, 0, 0, 0, 0)
    assert sol.columns[1] == (1, -3, 4, -1, 0, 0, 0, 0)
    for b in range(1, 9):
        assert all(residual(fx.SL3_H5, sol.column(b), a) == 0
                   for a in range(-8, 17))


def test_solution_matrix_antiperiodic_for_ragged_fixture():
    sol = solution_matrix(fx.JUG_FRIEZE)
    assert sol.sign_exponent == 1   # period 8, four balls
    for b in range(1, 9):
        col = sol.column(b)
        assert all(col(a + 8) == -col(a) for a in range(b, b + 16))
        assert all(residual(fx.JUG_FRIEZE, col, a) == 0 for a in range(-8, 17))


def test_solution_matrix_loop_column_is_zero():
    f330 = build_frieze_det(fx.MATRIX_003, fx.PI_003)
    sol = solution_matrix(f330)
    assert sol.columns[2] == (0, 0, 0)
    assert sol.columns[0] != (0, 0, 0)


def test_solution_matrix_rejects_non_frieze():
    cols = [list(c) for c in fx.SL3_H5.columns]
    cols[2][3] += 1
    with pytest.raises(ValueError):
        solution_matrix(PeriodicFrieze(fx.UNIFORM_8_5, cols))


def _coloop_friezes():
    """The first two friezes, seeded, of pool matrices grown by one loop
    or coloop whose shape has a coloop: 02035 and 647495514."""
    rng = random.Random(30)
    found = []
    while len(found) < 2:
        c = build_frieze_twist(*grown(rng, *rng.choice(UNIMODULAR_POOL)))
        if c.shape.coloops():
            found.append(c)
    return found


def test_solution_matrix_names_the_first_failure():
    # each entry of a period moved by 1 or by -1/2, on integral,
    # rational and ragged friezes (loops and coloops included): the
    # error names the entry off the skeleton, else the dual entry off
    # the dual shape's skeleton and its value, as the definition finds
    # them, and is_frieze agrees
    fixtures = [fx.SL3_H5, fx.JUG_FRIEZE, RATIONAL_STRIP, RATIONAL_STRIP_5,
                build_frieze_det(fx.MATRIX_4130, fx.PI_4130),
                build_frieze_twist(*UNIMODULAR_POOL[4])] + _coloop_friezes()
    words = set()
    for c in fixtures:
        n = c.shape.period
        for b in range(n):
            for d in range(n + 1):
                cols = [list(col) for col in c.columns]
                cols[b][d] += 1 if (b + d) % 2 else Fraction(-1, 2)
                bad = PeriodicFrieze(c.shape, cols)
                expected = dual_failure(bad)
                assert is_frieze(bad) == (expected is None)
                if expected is None:
                    continue
                with pytest.raises(ValueError) as err:
                    solution_matrix(bad)
                assert str(err.value) == expected
                words.add(expected.split()[3])
    assert words == {"entry", "dual"}


def test_solution_diagonal_normalization():
    sol = solution_matrix(fx.JUG_FRIEZE)
    k = 8 - fx.JUG_FRIEZE.shape.balls
    for a in range(1, 9):
        if fx.JUG_FRIEZE.shape(a) != a:
            assert sol.entry(a, a) == 1
            assert sol.entry(a + 8, a) == (-1) ** (k - 1)


def test_tiling_signed_copy_without_loops_or_coloops():
    # shape 53635514 has no loops and no coloops, so each window entry
    # is a single signed term
    t = tiling(fx.JUG_FRIEZE)
    for b in range(1, 9):
        for a in range(b, b + 8):
            assert t.entry(a, b) == (-1) ** (a + b) * fx.JUG_FRIEZE.entry(a, b)


def test_tiling_of_dual_is_solution_matrix():
    # the rational strips have lcm 3, so a solution column off by a
    # power of the lcm cannot match the tiling
    for c in (fx.SL3_H5, fx.SL2_H6, fx.JUG_FRIEZE, fx.JUG_FRIEZE_DUAL,
              RATIONAL_STRIP, RATIONAL_STRIP_5, dual_frieze(RATIONAL_STRIP_5)):
        assert tiling(dual_frieze(c)) == solution_matrix(c)


def test_tiling_loop_slot_cancels():
    f330 = build_frieze_det(fx.MATRIX_003, fx.PI_003)
    d = dual_frieze(f330)
    t = tiling(d)
    assert t.entry(3, 3) == 0
    assert t == solution_matrix(f330)


def test_verify_superperiodic_kernel_matches_is_frieze():
    good = (fx.SL3_H5, fx.SL2_H6, fx.JUG_FRIEZE, fx.JUG_FRIEZE_DUAL,
            fx.IDENTITY_FRIEZE_3)
    for c in good:
        assert verify_superperiodic_kernel(c)
    cols = [list(c) for c in fx.JUG_FRIEZE.columns]
    cols[5][3] += 1   # perturb an interior entry: prefrieze but not tame
    bad = PeriodicFrieze(fx.PI_53635514, cols)
    assert not is_frieze(bad)
    assert not verify_superperiodic_kernel(bad)
    assert verify_superperiodic_kernel(bad) == is_frieze(bad)


def test_residual_rows_repeat_each_period():
    # row a + n of C x is s times row a when x(b + n) = s x(b), for any
    # array C: one period of rows decides C x = 0 (verify_superperiodic_kernel)
    for c in (fx.SL3_H5, fx.JUG_FRIEZE):
        n = c.shape.period
        cols = [list(col) for col in c.columns]
        cols[2][3] += Fraction(1, 2)
        for array in (c, PeriodicFrieze(c.shape, cols)):
            for s in (1, -1):
                def x(b):
                    m, d = divmod(b, n)
                    return (d * d - 3 * d + 1) * (s if m % 2 else 1)
                for a in range(-n, n + 1):
                    assert (residual(array, x, a + n)
                            == s * residual(array, x, a))


def test_kernel_correspondence_fixtures():
    assert kernel_correspondence(fx.UNIMOD_4x8, fx.PI_23345357)
    assert kernel_correspondence(fx.CONSEC_3x8, fx.UNIFORM_8_3)
    assert kernel_correspondence(fx.MATRIX_4400, fx.PI_4400)


def test_kernel_fixture_rows_solve_the_frieze():
    f = build_frieze_det(fx.UNIMOD_4x8, fx.PI_23345357)
    for v in fx.KERNEL_4x8.entries:
        ext = superperiodic(v, 4)
        assert all(residual(f, ext, a) == 0 for a in range(-8, 17))


def test_schedule_columns_form_a_basis():
    for c, m in ((fx.JUG_FRIEZE, fx.UNIMOD_4x8), (fx.SL3_H5, None)):
        pi = c.shape
        n, h = pi.period, pi.balls
        sol = solution_matrix(c)
        for a in (1, 3, n):
            sched = pi.landing_schedule(a)
            block = Matrix([[sol.entry(r, b) for r in range(a, a + n)]
                            for b in sched], cols=n)
            assert block.rank() == h


def test_window_json_round_trip():
    sol = solution_matrix(fx.JUG_FRIEZE)
    assert SolutionWindow.from_json(sol.to_json()) == sol


def test_window_entry_extension():
    w = SolutionWindow(2, 1, ((1, 2), (1, 5)))
    assert w.entry(1, 1) == 1 and w.entry(2, 1) == 2
    assert w.entry(3, 1) == -1 and w.entry(4, 1) == -2
    assert w.entry(-1, 1) == -1
    assert w.entry(3, 3) == 1


def test_shifted_solution_vanishing_bands():
    # shifting the solution window down one period keeps the zero bands
    # above the diagonal and inside the throw strip
    for c in (fx.JUG_FRIEZE, fx.SL3_H5):
        pi = c.shape
        n = pi.period
        sol = solution_matrix(c)
        for a in range(1, n + 1):
            for b in range(a - n, a + n):
                if a < b < pi(a) or pi.inverse(b) < a < b:
                    assert sol.entry(a + n, b) == 0


def test_window_json_rejects_bad_columns():
    doc = solution_matrix(fx.JUG_FRIEZE).to_json()
    del doc["columns"]["2"]
    with pytest.raises(ValueError):
        SolutionWindow.from_json(doc)
    doc = solution_matrix(fx.JUG_FRIEZE).to_json()
    doc["columns"]["9"] = doc["columns"]["1"]
    with pytest.raises(ValueError):
        SolutionWindow.from_json(doc)
    for period in (0, -1):
        with pytest.raises(ValueError):
            SolutionWindow.from_json(
                {"period": period, "sign_exponent": 0, "columns": {}})


def test_window_rejects_period_below_one():
    for period in (0, -1):
        with pytest.raises(ValueError):
            SolutionWindow(period, 0, ())
