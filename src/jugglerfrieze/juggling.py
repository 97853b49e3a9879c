"""Juggling functions: the periodic bijections that shape a frieze.

A juggling function of period n is a bijection pi: Z -> Z such that
i <= pi(i) <= i + n and pi(i + n) = pi(i) + n for every i.  Think of a
juggler throwing at each moment i the ball that will land at moment
pi(i); pi(i) = i means no ball is touched at that moment (a "loop"),
pi(i) = i + n is a maximal throw (a "coloop").

A pattern is written in siteswap notation, the list of throw heights
(pi(1)-1, ..., pi(n)-n).  The period n is always part of the data: the
same throw list with a repeated block is a different juggling function.
"""
from __future__ import annotations

from bisect import insort
from typing import Iterable


class SiteswapError(ValueError):
    """A throw list or pattern string that defines no juggling function."""


def residue(a: int, n: int) -> int:
    """The representative of a modulo n lying in [1, n].

    >>> [residue(a, 5) for a in (1, 5, 6, 0, -4)]
    [1, 5, 1, 5, 1]
    """
    return (a - 1) % n + 1


def as_int(x) -> int:
    """An exact integer from JSON: an int, never a bool or a float."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"not an integer: {x!r}")


def sign_power(exponent: int) -> int:
    """(-1) ** exponent, exact for negative exponents too."""
    return -1 if exponent % 2 else 1


class JugglingFunction:
    """An n-periodic bijection of Z, stored by its values on [1, n]."""

    __slots__ = ("period", "values", "_inverse", "_dual", "_skeleton",
                 "_signs", "_necklace")

    def __init__(self, values: Iterable[int]):
        vals = tuple(values)
        # a tuple of plain ints needs no as_int per value
        if not set(map(type, vals)) <= {int}:
            vals = tuple(map(as_int, vals))
        n = len(vals)
        if n == 0:
            raise SiteswapError("empty pattern")
        # one pass: each value in [i, i + n] lands at residue r, and a
        # slot left empty means two landings collide modulo n
        inverse = [None] * n
        for i, v in enumerate(vals, start=1):
            if not i <= v <= i + n:
                raise SiteswapError(
                    f"throw at position {i} has height {v - i}, outside [0, {n}]")
            r = v - n if v > n else v
            inverse[r - 1] = i - (v - r)
        if None in inverse:
            raise SiteswapError("landing times collide modulo the period")
        self.period = n
        self.values = vals
        self._inverse = tuple(inverse)
        self._dual = None
        self._skeleton = None
        self._signs = None
        self._necklace = None

    @classmethod
    def uniform(cls, period: int, balls: int) -> "JugglingFunction":
        """The constant-throw function a -> a + balls of the given period."""
        if not 0 <= balls <= period:
            raise SiteswapError("ball count must lie in [0, period]")
        return cls(i + balls for i in range(1, period + 1))

    @classmethod
    def from_throws(cls, throws: Iterable) -> "JugglingFunction":
        """The function i -> i + throws[i-1]; each throw must be an int."""
        return cls(i + as_int(t) for i, t in enumerate(throws, start=1))

    def __call__(self, a: int) -> int:
        i = residue(a, self.period)
        return self.values[i - 1] + (a - i)

    def inverse(self, b: int) -> int:
        r = residue(b, self.period)
        return self._inverse[r - 1] + (b - r)

    @property
    def throws(self) -> tuple[int, ...]:
        return tuple(v - i for i, v in enumerate(self.values, start=1))

    @property
    def balls(self) -> int:
        return sum(self.throws) // self.period

    @property
    def wrap_exponent(self) -> int:
        """(n - k - 1) mod 2 for k balls: the s of the rule x[a + n] =
        (-1)**s x[a] obeyed by the solutions of C x = 0 for a frieze C of
        this shape, and the sign of its wrapped twist-route entries."""
        return (self.period - self.balls - 1) % 2

    def dual(self) -> "JugglingFunction":
        """The dual function a -> pi^{-1}(a) + n, built once per object.

        The dual is an involution, so the dual's own dual is this object.

        >>> format_siteswap(parse_siteswap("53635514").dual())
        '23345357'
        """
        if self._dual is None:
            n = self.period
            dual = JugglingFunction(self.inverse(a) + n for a in range(1, n + 1))
            dual._dual = self
            self._dual = dual
        return self._dual

    def s_set(self, a: int, b: int) -> tuple[int, ...]:
        """Sorted set of moments i with a < i whose ball lands before b."""
        return tuple(i for i in range(a + 1, b) if self(i) < b)

    def entry_sign(self, a: int, b: int) -> int:
        """The sign twist (-1)**|S(b, a)| of a frieze's entry (a, b); S(b, a)
        lands at the t in (b, a) with pi^{-1}(t) > b.  Read off signs()
        within a window; beyond it every landing t > b + n counts, and
        so does b + n unless b is a coloop."""
        n = self.period
        d = a - b
        if d <= 0:
            return 1
        signs = self.signs()[residue(b, n) - 1]
        if d <= n:
            return signs[d]
        return signs[n] * sign_power(d - n - 1 + (self(b) != b + n))

    def skeleton(self) -> tuple[tuple[int | None, ...], ...]:
        """The fixed prefrieze of this shape, built once per object.

        Column b, for b in [1, n], lists rows b..b+n: 1 on the diagonal,
        the sign twist at a = pi(b), None strictly inside the cone (the
        free entries) and 0 everywhere else.  The cone of a throw h > 0
        is one slice of the inverse, free where pi^{-1}(a) < b, and the
        ball landing at each other a in it was thrown after b, so the
        sign twist is (-1)**(h - 1 - the free count).

        >>> pi = parse_siteswap("4130")          # 4 is a loop, 1 a coloop
        >>> pi.skeleton()[0], pi.skeleton()[3]
        ((1, None, 0, 0, 1), (1, 0, 0, 0, 0))
        """
        if self._skeleton is None:
            n = self.period
            back = self._inverse + tuple(x + n for x in self._inverse)
            columns = []
            for b, top in enumerate(self.values, start=1):
                # back[a - 1] is pi^{-1}(a), for a in (b, pi(b))
                cone = [None if x < b else 0 for x in back[b:top - 1]]
                h = top - b
                twist = (sign_power(h - 1 - cone.count(None)),) if h else ()
                columns.append((1, *cone, *twist) + (0,) * (n - h))
            self._skeleton = tuple(columns)
        return self._skeleton

    def signs(self) -> tuple[tuple[int, ...], ...]:
        """The sign twist of every window slot, laid out as skeleton(),
        built once per object: column b lists entry_sign(a, b) for a in
        b..b+n, the sign of slot a + 1 that of slot a, flipped when the
        ball landing at a was thrown after b.

        >>> parse_siteswap("4130").signs()[0]
        (1, 1, 1, -1, 1)
        """
        if self._signs is None:
            n = self.period
            back = self._inverse + tuple(x + n for x in self._inverse)
            columns = []
            for b in range(1, n + 1):
                sign, column = 1, [1]
                for x in back[b - 1:b + n - 1]:  # pi^{-1}(a), b <= a < b+n
                    if x > b:
                        sign = -sign
                    column.append(sign)
                columns.append(tuple(column))
            self._signs = tuple(columns)
        return self._signs

    def landing_schedule(self, a: int) -> tuple[int, ...]:
        """Landing times of the balls in the air just before moment a.

        >>> parse_siteswap("23345357").landing_schedule(1)
        (1, 2, 4, 7)
        """
        return tuple(b for b in range(a, a + self.period) if self.inverse(b) < a)

    def necklace(self) -> tuple[tuple[int, ...], ...]:
        """Residues of the landing schedules at 1..n, each sorted; built
        once per object.

        L_1 is read off the inverse; after it each schedule is one
        exchange away from the last (the Grassmann necklace):
        L_{a+1} = L_a minus a plus pi(a), the same set at a loop or a
        coloop.

        >>> parse_siteswap("23345357").necklace()[:3]
        ((1, 2, 4, 7), (2, 3, 4, 7), (3, 4, 5, 7))
        """
        if self._necklace is None:
            n = self.period
            sched = [b for b in range(1, n + 1) if self.inverse(b) < 1]
            necklace = []
            for a in range(1, n + 1):
                necklace.append(tuple(sched))
                landing = residue(self(a), n)
                if landing != a:
                    sched.remove(a)
                    insort(sched, landing)
            self._necklace = tuple(necklace)
        return self._necklace

    def loops(self) -> tuple[int, ...]:
        return tuple(a for a in range(1, self.period + 1) if self(a) == a)

    def coloops(self) -> tuple[int, ...]:
        return tuple(a for a in range(1, self.period + 1)
                     if self(a) == a + self.period)

    def is_uniform(self) -> bool:
        return len(set(self.throws)) == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, JugglingFunction)
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"JugglingFunction({list(self.values)!r})"


def parse_siteswap(text: str) -> JugglingFunction:
    """Parse a siteswap pattern.

    A contiguous digit string means one throw per digit; throws above 9
    need the comma-separated form.  Only ASCII digits are throws; the
    first other throw is named by its position and at most its first
    16 characters, so the message does not grow with the input.

    >>> parse_siteswap("53635514").values
    (6, 5, 9, 7, 10, 11, 8, 12)
    >>> parse_siteswap("3, 3, 0").throws
    (3, 3, 0)
    """
    text = text.strip()
    if not text:
        raise SiteswapError("empty pattern")
    parts = [p.strip() for p in text.split(",")] if "," in text else list(text)
    for i, p in enumerate(parts, start=1):
        if not _is_ascii_digits(p):
            shown = repr(p[:16]) + ("..." if len(p) > 16 else "")
            raise SiteswapError(f"bad throw at position {i}: {shown}")
    n = len(parts)
    throws = []
    for i, p in enumerate(parts, start=1):
        digits = p.lstrip("0")
        # a throw with more digits than n is above n: refused here, as
        # int() would take time quadratic in its length and the message
        # would print every digit
        if len(digits) > len(str(n)):
            if max(throws, default=0) <= n:
                raise SiteswapError(f"throw at position {i} has "
                                    f"{len(digits)} digits, outside "
                                    f"[0, {n}]")
            # an earlier throw above n is named first: JugglingFunction
            # checks the throws in order, so the rest may be zeros
            throws += [0] * (n - len(throws))
            break
        throws.append(int(p))
    return JugglingFunction.from_throws(throws)


def _is_ascii_digits(text: str) -> bool:
    # str.isdigit alone also accepts superscripts and other scripts' digits
    return text.isascii() and text.isdigit()


def format_siteswap(pi: JugglingFunction) -> str:
    """Inverse of parse_siteswap: digits when possible, else commas."""
    throws = pi.throws
    if all(t <= 9 for t in throws):
        return "".join(str(t) for t in throws)
    return ",".join(str(t) for t in throws)
