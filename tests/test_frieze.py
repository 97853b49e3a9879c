import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jugglerfrieze import (JugglingFunction, PeriodicFrieze,
                           is_prefrieze, check_frieze, is_frieze, dual_frieze,
                           is_sl_frieze, is_positive, frieze_from_quiddity,
                           enumerate_sl2_positive, build_frieze_det,
                           solution_matrix)
from jugglerfrieze import frieze as frieze_module
from jugglerfrieze.frieze import frieze_minor, tameness_minor, is_tameness_pair

import fixture_data as fx
from exact_oracles import minor_report, verify_superperiodic_kernel
from samplers import UNIMODULAR_POOL, grown

RATIONAL = Path(__file__).parent / "data" / "rational"
FIXTURE_FRIEZES = [fx.SL3_H5, fx.SL3_H5_DUAL, fx.SL2_H6, fx.JUG_FRIEZE,
                   fx.JUG_FRIEZE_DUAL, fx.IDENTITY_FRIEZE_3]
FIXTURE_FRIEZES += [build_frieze_det(m, pi) for m, pi in UNIMODULAR_POOL]


def perturbed(frieze, b, d, delta=1):
    cols = [list(c) for c in frieze.columns]
    cols[b - 1][d] += delta
    return PeriodicFrieze(frieze.shape, cols)


def test_entry_accessor():
    c = fx.SL3_H5
    assert c.entry(2, 1) == 3
    assert c.entry(17, 17) == 1
    assert c.entry(1, 5) == 0          # above the diagonal
    assert c.entry(20, 1) == 0         # far below the band
    assert c.entry(10, 9) == c.entry(2, 1)
    assert c.entry(-6, -7) == c.entry(2, 1)


def test_is_prefrieze_fixtures():
    assert is_prefrieze(fx.SL3_H5)
    assert is_prefrieze(fx.SL2_H6)
    assert is_prefrieze(fx.JUG_FRIEZE)
    assert fx.JUG_FRIEZE.entry(6, 1) == -1
    assert fx.JUG_FRIEZE.entry(9, 3) == 1


def test_is_prefrieze_rejects_flipped_boundary():
    bad = perturbed(fx.JUG_FRIEZE, 1, 5, delta=2)   # boundary -1 -> +1
    assert not is_prefrieze(bad)


def test_is_prefrieze_rejects_value_in_forbidden_slot():
    bad = perturbed(fx.JUG_FRIEZE, 2, 7)            # outside the support cone
    assert not is_prefrieze(bad)


def test_check_frieze_fixture_diamonds():
    c = fx.JUG_FRIEZE
    assert frieze_minor(c, -2, 1) == 1
    assert frieze_minor(c, 2, 6) == 1
    assert frieze_minor(c, 7, 12) == 1
    assert tameness_minor(c, -3, 1) == 0
    assert tameness_minor(c, 2, 7) == 0
    # this interval fails both tameness inequalities, so its nonzero
    # minor is exempt
    assert tameness_minor(c, 8, 12) == 1
    assert not is_tameness_pair(c.shape, 8, 12)
    assert is_tameness_pair(c.shape, 2, 7)


def test_check_frieze_reports():
    report = check_frieze(fx.JUG_FRIEZE)
    assert report.ok and report.checked_pairs > 64
    bad = perturbed(fx.SL3_H5, 1, 2)
    rep = check_frieze(bad)
    assert not rep.ok and (rep.frieze_failures or rep.tame_failures)


def test_uniform_frieze_conditions_are_solid_minors():
    # height 5: interior diamonds of size 3 have determinant 1, size 4
    # determinant 0
    c = fx.SL3_H5
    for b in range(1, 9):
        for a in range(b, b + 6):
            assert c.minor(range(a, a + 3), range(b, b + 3)) in (
                {1} if b <= a <= b + 5 else {0, 1})
    for b in range(1, 9):
        for a in range(b + 1, b + 5):
            assert c.minor(range(a, a + 4), range(b, b + 4)) == 0


def test_is_frieze():
    assert is_frieze(fx.SL3_H5)
    assert is_frieze(fx.SL2_H6)
    assert is_frieze(fx.JUG_FRIEZE)
    assert is_frieze(fx.JUG_FRIEZE_DUAL)
    assert is_frieze(fx.IDENTITY_FRIEZE_3)
    assert not is_frieze(perturbed(fx.SL3_H5, 3, 2))


def test_frieze_iff_dual_is_prefrieze():
    assert is_prefrieze(dual_frieze(fx.JUG_FRIEZE))
    assert is_prefrieze(dual_frieze(fx.SL2_H6))
    bad = perturbed(fx.JUG_FRIEZE, 6, 3)
    assert is_prefrieze(bad)
    assert not is_frieze(bad)
    assert not is_prefrieze(dual_frieze(bad))


def test_frieze_iff_it_and_its_dual_are_prefriezes():
    # the dual characterization, on the fixtures, seeded grown friezes
    # (loops and coloops) and their duals: unmoved, and with ten seeded
    # slots, free ones or slots of column 1, moved by 1, -1 or 1/2; and
    # the strips of quiddity 1, ..., 1 on uniform(n, 2), of monodromy
    # (-I)**(n/3): at n = 6 the dual entries the dual skeleton fixes to 0
    # all vanish, and only the dual boundary entry, -1 where the skeleton
    # puts 1, tells it from the frieze it is at n = 9
    rng = random.Random(23)
    grown_friezes = [build_frieze_det(*grown(rng, *pair)) for pair
                     in rng.choices(UNIMODULAR_POOL, k=4)]
    all_ones = [PeriodicFrieze(JugglingFunction.uniform(n, 2),
                               [[1, 1, 1] + [0] * (n - 2)] * n)
                for n in (6, 9)]
    assert [is_frieze(c) for c in all_ones] == [False, True]
    outcomes = set()
    for c in (FIXTURE_FRIEZES + grown_friezes
              + [dual_frieze(c) for c in grown_friezes] + all_ones):
        slots = [(b, d) for b, col in enumerate(c.shape.skeleton(), start=1)
                 for d, fixed in enumerate(col) if b == 1 or fixed is None]
        for v in [c] + [perturbed(c, b, d, rng.choice((1, -1, Fraction(1, 2))))
                        for b, d in rng.sample(slots, min(10, len(slots)))]:
            got = is_frieze(v)
            assert got == (is_prefrieze(v) and is_prefrieze(dual_frieze(v))), v
            outcomes.add((got, is_prefrieze(v)))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_dual_fixture_values():
    d = dual_frieze(fx.SL3_H5)
    assert d == fx.SL3_H5_DUAL
    assert tuple(d.entry(b + 1, b) for b in range(1, 9)) == fx.SL3_H5_DUAL_ROW2
    assert is_sl_frieze(d, 5, 3)
    assert dual_frieze(fx.JUG_FRIEZE) == fx.JUG_FRIEZE_DUAL


def test_dual_involution_on_fixtures():
    for c in (fx.SL3_H5, fx.SL2_H6, fx.JUG_FRIEZE, fx.JUG_FRIEZE_DUAL,
              fx.IDENTITY_FRIEZE_3):
        assert dual_frieze(dual_frieze(c)) == c


def test_is_sl_frieze_validates_shape():
    assert is_sl_frieze(fx.SL2_H6, 2, 6)
    assert is_sl_frieze(fx.SL3_H5, 3, 5)
    with pytest.raises(ValueError):
        is_sl_frieze(fx.SL3_H5, 2, 6)
    with pytest.raises(ValueError):
        is_sl_frieze(fx.JUG_FRIEZE, 4, 4)


def test_height_one_all_ones_strip():
    c = PeriodicFrieze(JugglingFunction.uniform(3, 1), [[1, 1, 0, 0]] * 3)
    assert is_sl_frieze(c, 2, 1)
    assert enumerate_sl2_positive(1, 3) == [c]


def test_is_positive():
    assert is_positive(fx.SL3_H5)
    negated = PeriodicFrieze(
        fx.SL3_H5.shape,
        [[x if d in (0, 5) else -x for d, x in enumerate(col)]
         for col in fx.SL3_H5.columns])
    assert not is_positive(negated)
    # signs of the ragged fixture work out positive entry by entry
    assert is_positive(fx.JUG_FRIEZE)
    assert not is_positive(perturbed(fx.JUG_FRIEZE, 6, 3, delta=3))


def test_enumerate_counts():
    assert len(enumerate_sl2_positive(2, 2)) == 2
    assert len(enumerate_sl2_positive(3, 3)) == 5
    assert len(enumerate_sl2_positive(4, 4)) == 14
    # a larger bound admits no further friezes
    assert len(enumerate_sl2_positive(3, 5)) == 5


CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}


def test_enumerate_results_are_friezes():
    # the search closes each strip on its own rows and does not decide
    # it again, so every strip is decided here: a positive integral
    # frieze, the one frieze_from_quiddity closes from its quiddity, in
    # strictly increasing quiddity order, all C_h of them at bound >= h
    for h in range(1, 7):
        for bound in sorted({1, 2, 3, h, h + 2}):
            found = enumerate_sl2_positive(h, bound)
            rows = [[int(col[1]) for col in c.columns] for c in found]
            assert all(p < q for p, q in zip(rows, rows[1:]))
            if bound >= h:
                assert len(found) == CATALAN[h]
            for c, q in zip(found, rows):
                assert is_sl_frieze(c, 2, h)
                assert is_positive(c)
                assert all(x.denominator == 1
                           for col in c.columns for x in col)
                assert frieze_from_quiddity(q) == c


def _continuant(q):
    """K() = 1 and K(q_1..q_j) = q_j K(q_1..q_{j-1}) - K(q_1..q_{j-2})."""
    before, k = 0, 1
    for x in q:
        before, k = k, x * k - before
    return k


def test_diamond_step_stores_continuants():
    # every entry a step stores, in the step that fails too, is the
    # continuant of the quiddity entries above it: the division the step
    # takes is exact.  Half the prefixes repeat a frieze's quiddity, so
    # some pass every step; random ones mostly fail
    rng = random.Random(13)
    quiddities = [[int(col[1]) for col in c.columns]
                  for h in (2, 3, 4) for c in enumerate_sl2_positive(h, h)]
    passed = failed = 0
    for trial in range(200):
        if trial % 2:
            q = rng.choice(quiddities)
            h = len(q) - 2
            q = (q * 4)[:rng.randint(1, 12)]
        else:
            h = rng.randint(1, 8)
            q = [rng.randint(1, 6) for _ in range(rng.randint(1, 12))]
        rows = [[1]] + [[] for _ in range(h)]
        if all(frieze_module._diamond_step(rows, v) for v in q):
            passed += 1
        else:
            failed += 1
        steps = len(rows[1])
        assert rows[0] == [1] * (steps + 1)
        for d in range(1, h + 1):
            # a failed step stores nothing below the failing row
            assert len(rows[d]) in {max(steps + 1 - d, 0), max(steps - d, 0)}
            assert rows[d] == [_continuant(rows[1][i:i + d])
                               for i in range(len(rows[d]))]
    assert passed > 50 and failed > 50


def test_enumerate_needs_no_recursion_depth():
    # the search is a loop over quiddity positions, not one call per
    # position: at height 200 and bound 2 it walks prefixes of length up
    # to n = 202, here under a recursion limit 50 frames above this one
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        assert enumerate_sl2_positive(200, 2) == []
    finally:
        sys.setrecursionlimit(limit)


def test_enumerate_rejects_degenerate_height():
    with pytest.raises(ValueError):
        enumerate_sl2_positive(0, 3)


def test_frieze_from_quiddity():
    c = frieze_from_quiddity([1, 2, 1, 2])
    assert is_sl_frieze(c, 2, 2)
    with pytest.raises(ValueError):
        frieze_from_quiddity([2, 2, 2, 2])


def test_json_round_trip():
    for c in (fx.SL3_H5, fx.JUG_FRIEZE, fx.IDENTITY_FRIEZE_3):
        assert PeriodicFrieze.from_json(c.to_json()) == c
    with pytest.raises(ValueError):
        PeriodicFrieze.from_json({"siteswap": [3, 3, 0], "columns": {"1": [1, 0, 0, -1]}})


def test_translate():
    assert fx.SL3_H5.translate(8) == fx.SL3_H5
    t = fx.JUG_FRIEZE.translate(2)
    assert t.shape == JugglingFunction(
        fx.PI_53635514(b + 2) - 2 for b in range(1, 9))
    assert t.entry(4, 1) == fx.JUG_FRIEZE.entry(6, 3)


def test_rational_frieze_and_json():
    # quiddity (3, 2/3, 3, 2/3) closes up over the rationals
    shape = JugglingFunction.uniform(4, 2)
    c = PeriodicFrieze(shape, [[1, 3, 1, 0, 0], [1, "2/3", 1, 0, 0],
                               [1, 3, 1, 0, 0], [1, "2/3", 1, 0, 0]])
    assert is_sl_frieze(c, 2, 2)
    assert is_positive(c)
    doc = c.to_json()
    assert doc["columns"]["2"][1] == "2/3"
    assert PeriodicFrieze.from_json(doc) == c


def test_json_rejects_column_keys_other_than_one_to_n():
    doc = fx.JUG_FRIEZE.to_json()
    doc["columns"]["9"] = ["junk"]
    with pytest.raises(ValueError):
        PeriodicFrieze.from_json(doc)
    doc = fx.JUG_FRIEZE.to_json()
    del doc["columns"]["8"]
    with pytest.raises(ValueError):
        PeriodicFrieze.from_json(doc)
    doc = fx.IDENTITY_FRIEZE_3.to_json()
    doc["columns"]["2"] = "1000"
    with pytest.raises(TypeError):
        PeriodicFrieze.from_json(doc)


def test_frieze_from_quiddity_rejects_non_integers():
    # each would be read as the frieze of [1, 2, 1, 2] if truncated
    for q in ([1.5, 2, 1, 2], [True, 2, 1, 2]):
        with pytest.raises(TypeError):
            frieze_from_quiddity(q)


def test_frieze_from_quiddity_rejects_non_positive_rows():
    # the diamond rule closes up on these at height 2, with negative entries
    for q in ([-1, -2, -1, -2], [-2, -1, -2, -1]):
        with pytest.raises(ValueError):
            frieze_from_quiddity(q)


def _continuant_strips(h, bound):
    """Quiddity rows in [1, bound]^n, n = h + 2, whose rows d = 1..h-1 are
    positive and whose row h is all 1, row d at b being the continuant
    K(q_b, ..., q_{b+d-1}) with K_t = q K_{t-1} - K_{t-2}."""
    n = h + 2
    found = set()
    for q in itertools.product(range(1, bound + 1), repeat=n):
        ok = True
        for b in range(n):
            k_prev, k = 1, q[b]
            for d in range(1, h + 1):
                if (k != 1) if d == h else (k < 1):
                    ok = False
                    break
                k_prev, k = k, q[(b + d) % n] * k - k_prev
            if not ok:
                break
        if ok:
            found.add(q)
    return found


@pytest.mark.parametrize("h, bound",
                         [(1, 1), (2, 2), (3, 3), (4, 3), (4, 6), (5, 3),
                          (6, 2), (6, 3), (7, 2)])
def test_enumerate_matches_continuant_brute_force(h, bound):
    rows = {tuple(int(col[1]) for col in c.columns)
            for c in enumerate_sl2_positive(h, bound)}
    assert rows == _continuant_strips(h, bound)


@pytest.mark.parametrize("name", ["SL3_H5", "JUG_FRIEZE", "JUG_FRIEZE_DUAL",
                                  "SL2_H6", "IDENTITY_FRIEZE_3"])
def test_single_entry_perturbations_are_rejected(name):
    # entries the shape leaves free keep the prefrieze, so only the unit
    # and vanishing minors can catch them
    c = getattr(fx, name)
    n = c.shape.period
    for b in range(1, n + 1):
        for d in range(n + 1):
            for delta in (1, -1):
                bad = perturbed(c, b, d, delta)
                if is_prefrieze(bad):
                    # is_frieze(bad) is then check_frieze(bad).ok
                    report = check_frieze(bad)
                    assert report.frieze_failures or report.tame_failures
                else:
                    assert not is_frieze(bad)
                assert not verify_superperiodic_kernel(bad)


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's args."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_friezes_are_decided_without_minors(monkeypatch):
    # the decision builds the dual array, one run of the dual-column
    # kernel per column, loops included, and solution_matrix solves with
    # the columns of the dual it decided by
    minors = _counted(monkeypatch, PeriodicFrieze, "minor")
    kernel = _counted(monkeypatch, frieze_module, "_dual_column")
    assert any(c.shape.loops() for c in FIXTURE_FRIEZES)
    for c in FIXTURE_FRIEZES:
        n = c.shape.period
        kernel.clear()
        assert check_frieze(c).ok and len(kernel) == n
        kernel.clear()
        assert is_frieze(c) and len(kernel) == n
        kernel.clear()
        solution_matrix(c)
        assert len(kernel) == n
    assert minors == []


def test_frieze_report_counts_the_conditions_of_the_scan(monkeypatch):
    # a frieze's report counts the conditions without evaluating them:
    # as many as the definition evaluates, and as many as the scan does
    # on the same shape once the diagonal leaves the prefrieze
    for c in FIXTURE_FRIEZES:
        report = check_frieze(c)
        assert report.ok
        assert report.checked_pairs == minor_report(c).checked_pairs
        off = perturbed(c, 1, 0)
        assert not is_prefrieze(off)
        assert check_frieze(off).checked_pairs == report.checked_pairs
    # a near-miss prefrieze is explained by the interval walks, which
    # take no minor by definition
    minors = _counted(monkeypatch, PeriodicFrieze, "minor")
    near = PeriodicFrieze.from_json(
        json.loads((RATIONAL / "strip_near_miss.json").read_text()))
    report = check_frieze(near)
    assert report.prefrieze_ok and not report.ok and report.frieze_failures
    assert minors == []
    assert report.to_json() == minor_report(near).to_json()


def test_interval_walk_reanchors_after_a_zero_minor(monkeypatch):
    # a free entry of SL3_H5 moved by -1 makes the unit minor on [1, 5]
    # vanish; the walk from 1 re-anchors by integer_solve at its next
    # change, and the unit minor on [1, 6] after it is nonzero
    solves = _counted(monkeypatch, frieze_module, "integer_solve")
    near = perturbed(fx.SL3_H5, 1, 2, -1)
    assert is_prefrieze(near)
    report = check_frieze(near)
    assert (1, 5, 0) in report.frieze_failures
    assert frieze_minor(near, 1, 6) != 0
    assert solves
    assert report.to_json() == minor_report(near).to_json()


def test_interval_walk_on_a_perturbed_fan_dual_strip():
    # D, the dual of the fan strip, at n = 24: its unit minors grow to
    # size n - 1, bordered step by step, with two row exchanges at the
    # end of each walk; one free entry moved by 1 breaks 22 unit minors
    fan = [22, 1] + [2] * 21 + [1]
    near = perturbed(dual_frieze(frieze_from_quiddity(fan)), 1, 1)
    report = check_frieze(near)
    assert report.prefrieze_ok and len(report.frieze_failures) == 22
    assert report.to_json() == minor_report(near).to_json()
