import itertools
import random

import pytest

from jugglerfrieze import (JugglingFunction, SiteswapError, parse_siteswap,
                           format_siteswap, residue)

from exact_oracles import counted_sign
from samplers import random_juggling


def test_parse_values():
    pi = parse_siteswap("53635514")
    assert pi.period == 8
    assert pi.values == (6, 5, 9, 7, 10, 11, 8, 12)


def test_parse_identity_pattern():
    pi = parse_siteswap("000")
    assert pi.period == 3
    assert pi.values == (1, 2, 3)
    assert pi.loops() == (1, 2, 3)
    assert pi.balls == 0


def test_parse_rejects_residue_collision():
    # residues of i + t_i are 1, 0, 3, 2, 0 modulo 5
    with pytest.raises(SiteswapError):
        parse_siteswap("53535")


def test_parse_rejects_empty_and_garbage():
    for bad in ("", "  ", "3x4", "3,,4", "\u00b2", "3,\u00b2", "-1,2", "+1,1"):
        with pytest.raises(SiteswapError):
            parse_siteswap(bad)


def test_parse_rejects_throw_above_period():
    with pytest.raises(SiteswapError):
        parse_siteswap("7,0")
    # a throw with more digits than the period is refused by its digit
    # count, unless an earlier throw above the period is named first;
    # leading zeros do not count
    for text, message in (
            ("1," + "9" * 100_000, "throw at position 2 has 100000 digits, "
                                   "outside [0, 2]"),
            ("5,999,1", "throw at position 1 has height 5, outside [0, 3]"),
            ("1,0,099", "throw at position 3 has 2 digits, outside [0, 3]"),
            ("1,0,004", "throw at position 3 has height 4, outside [0, 3]")):
        with pytest.raises(SiteswapError) as err:
            parse_siteswap(text)
        assert str(err.value) == message
    assert parse_siteswap("0001,1,1").throws == (1, 1, 1)


def test_comma_form_matches_digit_form():
    assert parse_siteswap("2,3,3,4,5,3,5,7") == parse_siteswap("23345357")


def test_format_round_trip_long_throws():
    pi = parse_siteswap("10,0,0,0,0,0,0,0,0,0")
    text = format_siteswap(pi)
    assert "," in text
    assert parse_siteswap(text) == pi


def test_dual_values():
    pi = parse_siteswap("53635514")
    assert format_siteswap(pi.dual()) == "23345357"
    assert pi.dual().values == (3, 5, 6, 8, 10, 9, 12, 15)


def test_dual_uniform():
    assert JugglingFunction.uniform(8, 5).dual() == JugglingFunction.uniform(8, 3)


def test_dual_is_involution():
    rng = random.Random(7)
    for _ in range(50):
        pi = random_juggling(rng)
        assert pi.dual().dual() == pi


def test_ball_counts():
    assert parse_siteswap("53635514").balls == 4
    assert parse_siteswap("23345357").balls == 4
    assert JugglingFunction.uniform(8, 5).balls == 5


def test_dual_ball_complement():
    rng = random.Random(8)
    for _ in range(50):
        pi = random_juggling(rng)
        assert pi.balls + pi.dual().balls == pi.period


def test_s_set_uniform_empty():
    pi = JugglingFunction.uniform(6, 4)
    for a in range(-3, 10):
        assert pi.s_set(a, pi(a)) == ()


def test_s_set_examples():
    pi = parse_siteswap("53635514")
    assert len(pi.s_set(1, 6)) == 1
    assert len(pi.s_set(3, 9)) == 2


def test_entry_sign_counts_the_s_set():
    # the landings t in (b, a) thrown after b are the balls of S(b, a):
    # every shape of period <= 4 and its dual, a and b well outside one
    # window, a <= b included
    checked = 0
    for n in range(1, 5):
        for throws in itertools.product(range(n + 1), repeat=n):
            if sorted((i + t) % n for i, t in enumerate(throws)) != \
                    list(range(n)):
                continue
            pi = JugglingFunction.from_throws(throws)
            for f in (pi, pi.dual()):
                for b in range(-n, 2 * n):
                    for a in range(b - 2, b + 2 * n + 2):
                        assert f.entry_sign(a, b) == \
                            counted_sign(f, a, b), (f, a, b)
                        checked += 1
    assert checked > 20000


def test_ball_count_conservation_identity():
    # throw height corrected by crossing counts is constant in a
    rng = random.Random(9)
    for _ in range(50):
        pi = random_juggling(rng)
        dual = pi.dual()
        n = pi.period
        for a in range(1, n + 1):
            lhs = (pi(a) - a + len(dual.s_set(pi(a), a + n))
                   - len(pi.s_set(a, pi(a))))
            assert lhs == pi.balls


def test_landing_schedule_values():
    pi = parse_siteswap("23345357")
    n = pi.period
    assert tuple(sorted(residue(b, n) for b in pi.landing_schedule(1))) == (1, 2, 4, 7)
    assert tuple(sorted(residue(b, n) for b in pi.landing_schedule(5))) == (5, 6, 7, 8)
    assert parse_siteswap("000").landing_schedule(1) == ()


def test_landing_schedule_recurrences():
    rng = random.Random(10)
    for _ in range(30):
        pi = random_juggling(rng)
        n = pi.period
        for a in range(1, 2 * n + 1):
            la = set(pi.landing_schedule(a))
            assert len(la) == pi.balls
            nxt = set(pi.landing_schedule(a + 1))
            if pi(a) == a:
                assert a not in la and nxt == la
            else:
                assert a in la and nxt == (la - {a}) | {pi(a)}


def test_landing_schedule_membership_characterization():
    rng = random.Random(11)
    for _ in range(30):
        pi = random_juggling(rng)
        dual = pi.dual()
        n = pi.period
        for a in range(1, 2 * n + 1):
            la = set(pi.landing_schedule(a))
            other = {b for b in range(a - n, a + 2 * n)
                     if dual(b) - n < a <= b}
            assert la == other


def test_necklace_table():
    from fixture_data import NECKLACE_23345357
    assert parse_siteswap("23345357").necklace() == NECKLACE_23345357
    assert parse_siteswap("000").necklace() == ((), (), ())


def test_necklace_uniform_windows():
    pi = JugglingFunction.uniform(7, 3)
    for a, sched in enumerate(pi.necklace(), start=1):
        assert sched == tuple(sorted(residue(b, 7) for b in range(a, a + 3)))


def test_necklace_exchanges_match_landing_schedules():
    # every juggling function of period <= 6: the necklace built by
    # exchange from L_1 is the definition's schedules at 1..n, and it is
    # built once per object
    count = 0
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            fixed = [i for i in range(n) if perm[i] == i]
            for maximal in itertools.product((0, n), repeat=len(fixed)):
                throws = [(perm[i] - i) % n for i in range(n)]
                for i, t in zip(fixed, maximal):
                    throws[i] = t
                pi = JugglingFunction.from_throws(throws)
                assert pi.necklace() == tuple(
                    tuple(sorted(residue(b, n)
                                 for b in pi.landing_schedule(a)))
                    for a in range(1, n + 1)), pi
                assert pi.necklace() is pi.necklace()
                count += 1
    assert count == 2371


def test_classify():
    pi = parse_siteswap("000")
    assert pi.loops() == (1, 2, 3) and pi.coloops() == () and pi.is_uniform()
    pi = JugglingFunction.uniform(8, 5)
    assert pi.is_uniform() and not pi.loops() and not pi.coloops()
    assert parse_siteswap("330").loops() == (3,)


def test_periodic_extension_of_values():
    pi = parse_siteswap("53635514")
    for a in range(-20, 21):
        assert pi(a + 8) == pi(a) + 8
        assert pi.inverse(pi(a)) == a
        assert a <= pi(a) <= a + 8


def test_module_doctests():
    import doctest
    import jugglerfrieze.juggling as mod
    result = doctest.testmod(mod)
    assert result.attempted > 0 and result.failed == 0


def test_wrap_exponent_reads_the_superperiodic_sign():
    # (n - k - 1) mod 2 on a shape of k balls; its dual has n - k
    # balls, so k - 1 there, the sign build_frieze_twist reads
    rng = random.Random(31)
    shapes = [parse_siteswap(p) for p in ("000", "333", "4130", "53635514")]
    shapes += [random_juggling(rng, n) for n in range(1, 9) for _ in range(4)]
    assert {pi.wrap_exponent for pi in shapes} == {0, 1}
    for pi in shapes:
        n, k = pi.period, pi.balls
        assert pi.wrap_exponent == (n - k - 1) % 2, pi
        assert pi.dual().wrap_exponent == (k - 1) % 2, pi
