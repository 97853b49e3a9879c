import json
import random
import re
from enum import IntEnum
from fractions import Fraction
from itertools import combinations

import pytest

from jugglerfrieze import (JugglingFunction, Matrix, PeriodicFrieze,
                           SolutionWindow, cyclic_submatrix,
                           frieze_from_quiddity, parse_siteswap, residual)
from jugglerfrieze.matrices import (as_grid, as_rational, grid_to_json, ratio,
                                    rational_to_json, scaled_ints)

import fixture_data as fx
from exact_oracles import identity, rank, zero


def cofactor_det(rows):
    """Independent determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_det_trivial_cases():
    assert Matrix([], cols=0).det() == 1
    assert identity(5).det() == 1
    first_three = fx.CONSEC_3x8.submatrix(range(3), range(3))
    assert first_three.det() == 1


def test_det_matches_cofactor_oracle():
    rng = random.Random(1)
    for _ in range(40):
        rows = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        assert Matrix(rows).det() == cofactor_det(rows)


def test_det_rational_entries():
    m = Matrix([["1/2", "1/3"], ["1/5", "1/7"]])
    assert m.det() == Fraction(1, 14) - Fraction(1, 15)


def test_det_multiplicative():
    rng = random.Random(2)
    for _ in range(25):
        a = Matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        b = Matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        assert (a * b).det() == a.det() * b.det()


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        fx.CONSEC_3x8.det()


def test_transpose_keeps_empty_dimensions():
    for k, n in ((0, 3), (3, 0), (0, 0), (2, 3)):
        m = zero(k, n)
        t = m.transpose()
        assert (t.nrows, t.ncols) == (n, k)
        assert t.transpose() == m
    assert Matrix.from_columns([[], [], []]).ncols == 3


def test_cyclic_submatrix_ordering():
    m = Matrix([[10, 20, 30, 40, 50]])
    assert cyclic_submatrix(m, {4, 5, 6}) == Matrix([[10, 40, 50]])
    assert cyclic_submatrix(m, range(1, 6)) == m
    wide = Matrix([list(range(1, 9))])
    assert cyclic_submatrix(wide, {9, 2}) == Matrix([[1, 2]])


def test_cyclic_submatrix_shift_invariance():
    rng = random.Random(3)
    for _ in range(20):
        m = Matrix([[rng.randint(-3, 3) for _ in range(6)] for _ in range(3)])
        idx = rng.sample(range(1, 7), 3)
        shifted = [i + 6 for i in idx]
        assert cyclic_submatrix(m, idx) == cyclic_submatrix(m, shifted)


def rank_by_minors(m):
    """Largest size of a nonvanishing minor."""
    for size in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(range(m.nrows), size):
            for cols in combinations(range(m.ncols), size):
                if m.submatrix(rows, cols).det() != 0:
                    return size
    return 0


def test_rank():
    # the number of pivots of rref, against the oracle's and the minors'
    assert zero(3, 4).rref()[1] == ()
    assert len(fx.UNIMOD_4x8.rref()[1]) == rank(fx.UNIMOD_4x8) == 4
    rng = random.Random(4)
    for _ in range(15):
        m = Matrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)])
        assert len(m.rref()[1]) == rank(m) == rank_by_minors(m)


def test_kernel_basis_annihilates():
    rng = random.Random(5)
    for _ in range(15):
        m = Matrix([[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)])
        basis = m.kernel_basis()
        assert basis.nrows == 5 - rank(m)
        assert rank(basis) == basis.nrows
        for v in basis.entries:
            assert all(sum(r * x for r, x in zip(row, v)) == 0
                       for row in m.entries)


def test_kernel_basis_of_invertible_is_empty():
    assert identity(4).kernel_basis().nrows == 0


def test_kernel_matches_fixture_row_space():
    ours = fx.UNIMOD_4x8.kernel_basis()
    assert ours.rref() == fx.KERNEL_4x8.rref()


def test_solve_identity_and_cramer():
    assert identity(3).solve([5, -2, 7]) == (5, -2, 7)
    rng = random.Random(6)
    done = 0
    while done < 20:
        m = Matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        d = m.det()
        if d == 0:
            continue
        v = [rng.randint(-4, 4) for _ in range(3)]
        x = m.solve(v)
        for j in range(3):
            repl = Matrix([[v[i] if c == j else m[i, c] for c in range(3)]
                           for i in range(3)])
            assert x[j] == repl.det() / d
        done += 1


def test_solve_twist_column():
    sub = cyclic_submatrix(fx.CONSEC_3x8, [1, 2, 3]).transpose()
    assert sub.solve([1, 0, 0]) == (1, -11, 18)


def test_solve_singular_raises():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [2, 4]]).solve([1, 1])


def test_json_round_trip_is_exact():
    m = Matrix([[Fraction(1, 3), 2], [Fraction(-7, 5), 0]])
    again = Matrix.from_json(m.to_json())
    assert again == m
    assert m.to_json()["entries"][0] == ["1/3", 2]
    with pytest.raises(ValueError):
        Matrix.from_json({"rows": 3, "cols": 2, "entries": [[1, 2]]})


GRID = "expected a list of lists"


@pytest.mark.parametrize("build, error, match", [
    pytest.param(lambda: Matrix(["001"]), TypeError, GRID, id="string-row"),
    pytest.param(lambda: Matrix([[1], "2"]), TypeError, GRID,
                 id="one-string-row"),
    pytest.param(lambda: Matrix(5), TypeError, GRID, id="number-grid"),
    pytest.param(lambda: PeriodicFrieze(parse_siteswap("000"), ["1000"] * 3),
                 TypeError, GRID, id="string-columns"),
    pytest.param(lambda: SolutionWindow(1, 0, ["1"]), TypeError, GRID,
                 id="string-window-column"),
    pytest.param(lambda: SolutionWindow(True, 1.5, [[1]]), TypeError,
                 "not an integer", id="bool-window-period"),
    pytest.param(lambda: SolutionWindow(1, 1.5, [[1]]), TypeError,
                 "not an integer", id="float-window-sign-exponent"),
    pytest.param(lambda: JugglingFunction([1.9, 2.2, 3.0]), TypeError,
                 "not an integer", id="float-values"),
    pytest.param(lambda: JugglingFunction(["1", "2"]), TypeError,
                 "not an integer", id="string-values"),
    pytest.param(lambda: Matrix([[1, 2]], cols=3), ValueError,
                 "does not match", id="conflicting-column-count"),
    pytest.param(lambda: Matrix([], cols=-1), ValueError,
                 "at least 0, not -1", id="negative-column-count"),
    pytest.param(lambda: Matrix([], cols=2.5), TypeError,
                 "not an integer", id="float-column-count"),
])
def test_direct_construction_is_as_strict_as_json(build, error, match):
    # the constructors share the JSON codecs' coercion, so Python callers
    # get the same rejections as files do
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("text", [
    "1.5", "1e3", "1_000", " 2/4 ", "\u0663", "\uff11", "", "/2", "1/-2",
    "1/2/3", "- 1", "0x10", "1/\u0663"])
def test_entry_strings_outside_the_grammar_are_rejected(text):
    # Fraction alone reads most of these; an entry string is an optional
    # sign and ASCII digits, with an optional "/" and ASCII digits
    with pytest.raises(ValueError, match="^" + re.escape(
            f"not an integer or p/q string: {text!r}") + "$"):
        as_rational(text)


def test_entry_strings_in_the_grammar_are_read():
    for text, value in (("-3", -3), ("+4/6", Fraction(2, 3)), ("007", 7),
                        ("-0/5", 0), ("12/1", 12)):
        assert as_rational(text) == value
    with pytest.raises(ValueError, match="^" + re.escape(
            "zero denominator in '2/0'") + "$"):
        as_rational("2/0")


class _Half(Fraction):
    pass


class _Small(IntEnum):
    TWO = 2


def test_as_rational_type_table():
    # an int stays an int and a Fraction the same object, so integral
    # input is never wrapped; an int subclass other than bool becomes a
    # plain int, and only a "p/q" string is read into a Fraction
    half, sub = Fraction(1, 2), _Half(1, 2)
    big = 10 ** 30
    for x, value, kind, same in ((3, 3, int, True), (big, big, int, True),
                                 (_Small.TWO, 2, int, False),
                                 (half, half, Fraction, True),
                                 (sub, half, _Half, True),
                                 ("-3/6", Fraction(-1, 2), Fraction, False)):
        got = as_rational(x)
        assert got == value and type(got) is kind
        assert (got is x) == same
    for x, error, message in (
            (True, TypeError, "not an exact scalar: True"),
            (False, TypeError, "not an exact scalar: False"),
            (1.5, TypeError, "not an exact scalar: 1.5"),
            ("1.5", ValueError, "not an integer or p/q string: '1.5'"),
            ("1/0", ValueError, "zero denominator in '1/0'")):
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            as_rational(x)


def test_as_grid_row_type_table():
    # a row of exactly ints and Fractions is kept as it is, and any
    # other row goes entry by entry through as_rational: the same
    # values, result types and objects, and the same errors
    half, sub = Fraction(1, 2), _Half(1, 2)
    for row in ([1, 2, 10 ** 30], (half, 4, Fraction(6, 3)), [],
                [1, _Small.TWO], (half, sub), ["1/2", "-3", 4],
                [1, True], [0, False], [1, 1.5], [2, "1.5"], [1, "1/0"]):
        try:
            want = tuple(map(as_rational, row))
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc),
                               match="^" + re.escape(str(exc)) + "$"):
                as_grid([[1], row])
            continue
        _, got = as_grid([[1], row])
        assert got == want and type(got) is tuple
        assert list(map(type, got)) == list(map(type, want))
        assert [g is x for g, x in zip(got, row)] == \
            [w is x for w, x in zip(want, row)]


def test_grid_to_json_matches_rational_to_json():
    # a row of plain ints is copied, any other entry by entry: integral
    # Fractions become ints and the others "p/q" strings
    rows = ((1, -2, 10 ** 30), (Fraction(1, 3), 2),
            (Fraction(4, 2), Fraction(-6, 3)), (), (Fraction(-7, 5),),
            (0, Fraction(0)), [3, 4])
    got = grid_to_json(rows)
    want = [[rational_to_json(x) for x in row] for row in rows]
    assert got == want and all(type(row) is list for row in got)
    assert [list(map(type, row)) for row in got] == \
        [list(map(type, row)) for row in want]


def test_ratio_type_table():
    # x / unit is Fraction(x, unit) in value, an int exactly when unit
    # divides x, of either sign, and one Fraction otherwise
    big = 10 ** 30
    for x, unit, kind in ((6, 3, int), (6, -3, int), (-6, 3, int),
                          (-6, -3, int), (0, 7, int), (0, -7, int),
                          (5, 1, int), (5, -1, int), (big * 7, big, int),
                          (7, 3, Fraction), (7, -3, Fraction),
                          (-7, 3, Fraction), (-7, -3, Fraction),
                          (2, 4, Fraction), (-2, -4, Fraction),
                          (big + 1, big, Fraction)):
        got = ratio(x, unit)
        assert got == Fraction(x, unit) and type(got) is kind, (x, unit)
    # a grid of ints is its own integer view, and an int its own JSON
    grid = ((1, -2), (3, big))
    assert scaled_ints(grid) == (grid, 1) and scaled_ints(grid)[0] is grid
    assert rational_to_json(big) is big
    assert rational_to_json(Fraction(4, 2)) == 2
    assert rational_to_json(Fraction(-1, 2)) == "-1/2"


def _spellings(grid):
    """An integral grid as ints, as Fractions, and as the two in turn."""
    return ([[int(x) for x in row] for row in grid],
            [[Fraction(x) for x in row] for row in grid],
            [[Fraction(x) if (i + j) % 2 else int(x)
              for j, x in enumerate(row)] for i, row in enumerate(grid)])


@pytest.mark.parametrize("build, grid", [
    (lambda g: Matrix(g, cols=8), fx.UNIMOD_4x8.entries),
    (lambda g: PeriodicFrieze(fx.PI_53635514, g), fx.JUG_FRIEZE.columns),
    (lambda g: SolutionWindow(8, 1, g),
     [fx.SL3_H5_SOLUTION_1, fx.SL3_H5_SOLUTION_2] * 4),
], ids=["matrix", "frieze", "solution-window"])
def test_int_and_fraction_spellings_are_one_value(build, grid):
    # an int equals and hashes like the Fraction of its value, so each
    # spelling is kept as given and is still the same value, with the
    # same JSON
    objs = [build(g) for g in _spellings(grid)]
    held = [o.entries if isinstance(o, Matrix) else o.columns for o in objs]
    assert {type(x) for row in held[0] for x in row} == {int}
    assert {type(x) for row in held[1] for x in row} == {Fraction}
    assert {type(x) for row in held[2] for x in row} == {int, Fraction}
    text = json.dumps(objs[0].to_json())
    for o in objs[1:]:
        assert o == objs[0] and hash(o) == hash(objs[0])
        assert json.dumps(o.to_json()) == text


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: JugglingFunction([]), ValueError, "empty pattern",
                 id="empty-juggling-function"),
    pytest.param(lambda: JugglingFunction.uniform(3, 4), ValueError,
                 "ball count must lie in [0, period]", id="too-many-balls"),
    pytest.param(lambda: frieze_from_quiddity([1, 1]), ValueError,
                 "quiddity needs period at least 3", id="short-quiddity"),
    pytest.param(lambda: fx.JUG_FRIEZE.minor([1, 2], [1]), ValueError,
                 "determinant of a non-square matrix", id="frieze-minor"),
    pytest.param(lambda: fx.CONSEC_3x8 * fx.CONSEC_3x8, ValueError,
                 "dimension mismatch", id="product"),
    pytest.param(lambda: fx.CONSEC_3x8.solve([1, 2, 3]), ValueError,
                 "solve needs a square matrix", id="solve-non-square"),
    pytest.param(lambda: identity(3).solve([1, 2]), ValueError,
                 "dimension mismatch", id="solve-short-rhs"),
    pytest.param(lambda: SolutionWindow(2, 0, [[1, 0], [1]]), ValueError,
                 "need one full window per column", id="short-window-column"),
    pytest.param(lambda: residual(fx.JUG_FRIEZE, 3, 1), TypeError,
                 "'int' object is not callable", id="residual-of-int"),
])
def test_raise_paths_name_their_cause(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


def test_rank_kernel_projection_identity():
    # rank of a column selection vs the projected kernel dimension
    rng = random.Random(7)
    for _ in range(30):
        k, n = rng.choice([(2, 5), (3, 6), (3, 7)])
        m = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)])
        if rank(m) != k:
            continue
        cols = sorted(rng.sample(range(n), rng.randint(0, n)))
        rest = [j for j in range(n) if j not in cols]
        proj = Matrix([[row[j] for j in rest] for row in m.kernel_basis().entries],
                      cols=len(rest))
        sub = m.submatrix(range(k), cols)
        assert rank(sub) == rank(proj) + len(cols) - (n - k)
