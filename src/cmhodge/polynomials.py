"""Dense univariate polynomials over Q.

A polynomial is stored as a tuple of integer numerators, lowest degree
first, over one positive integer denominator, reduced so that the
denominator and the numerators have no common factor.  The zero polynomial
is the empty tuple over 1.  This is the substrate for cyclotomic minimal
polynomials and for the gcd route to circulant ranks, so everything is
exact: no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import TheoremViolationError, UsageError


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _integral_form(coeffs):
    """(numerators, denominator) of rational coefficients over their least common denominator."""
    fracs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in fracs))
    return tuple(c.numerator * (den // c.denominator) for c in fracs), den


def _reduce(num, den):
    """Divide the int numerators and the positive denominator by their common factor."""
    if den == 1:
        return tuple(num), 1
    g = gcd(*num, den)
    if g == 1:
        return tuple(num), den
    return tuple([x // g for x in num]), den // g


class Poly:
    """Polynomial in one variable over Q, lowest-degree coefficient first.

    ``num`` holds the integer numerators and ``den`` the shared positive
    denominator; ``coeffs`` gives the same values as ``Fraction``s.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        num, den = _integral_form(coeffs)
        self.num, self.den = _reduce(_trim(num), den)

    @classmethod
    def _make(cls, num, den=1):
        """Polynomial with int numerators ``num`` over ``den`` > 0, trimmed and reduced here."""
        out = object.__new__(cls)
        out.num, out.den = _reduce(_trim(num), den)
        return out

    @classmethod
    def zero(cls):
        return cls._make(())

    @classmethod
    def one(cls):
        return cls._make((1,))

    @classmethod
    def x_power(cls, k):
        return cls._make((0,) * k + (1,))

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    @property
    def degree(self):
        """Degree of the polynomial, with deg 0 = -1."""
        return len(self.num) - 1

    def is_zero(self):
        return not self.num

    def leading(self):
        if not self.num:
            raise UsageError("the zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return Poly._make([-c for c in self.num], self.den)

    def __add__(self, other):
        a, da, b, db = self.num, self.den, other.num, other.den
        if da != db:
            a = [x * db for x in a]
            b = [x * da for x in b]
            da *= db
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly._make(out, da)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.num, other.num
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
        return Poly._make(out, self.den * other.den)

    def scale(self, c):
        c = Fraction(c)
        p = c.numerator
        return Poly._make([x * p for x in self.num], self.den * c.denominator)

    def divmod(self, other):
        """Quotient and remainder of exact long division.

        Runs as an integer pseudo-division of the numerators: ``s * a ==
        q * b + r`` with int ``q``, ``r`` and a scale ``s`` that grows only
        when a step's leading term is not divisible by b's leading
        coefficient.  The denominators are applied once at the end.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = other.num
        rem = list(self.num)
        db = len(b) - 1
        dq = len(rem) - 1 - db
        if dq < 0:
            return Poly(), self
        quot = [0] * (dq + 1)
        lead = b[-1]
        s = 1
        for k in range(dq, -1, -1):
            top = rem[k + db]
            if top == 0:
                continue
            c, m = divmod(top, lead)
            if m:
                g = gcd(top, lead)
                f = lead // g
                if f < 0:
                    f, g = -f, -g
                c = top // g
                rem = [f * x for x in rem]
                quot = [f * x for x in quot]
                s *= f
            quot[k] = c
            for j, bj in enumerate(b):
                if bj:
                    rem[k + j] -= c * bj
        den = s * self.den
        return Poly._make([q * other.den for q in quot], den), Poly._make(rem[: db], den)

    def __repr__(self):
        return f"Poly({_format_poly(self.coeffs, 'x')!r})"


def _format_poly(coeffs, var):
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" if k == 1 else f"{mag}{var}^{k}"
            term = ("-" if c < 0 else "") + term
            parts.append(term)
    text = " + ".join(parts)
    return text.replace("+ -", "- ")


def poly_gcd(f, g):
    """Monic greatest common divisor; gcd(0, 0) = 0.  The d of ``poly_xgcd``."""
    return poly_xgcd(f, g)[0]


def poly_xgcd(f, g):
    """Extended Euclid: returns (d, u, v) with u*f + v*g = d, d monic."""
    a, b = f, g
    ua, va = Poly.one(), Poly.zero()
    ub, vb = Poly.zero(), Poly.one()
    while not b.is_zero():
        q, r = a.divmod(b)
        a, b = b, r
        ua, ub = ub, ua - q * ub
        va, vb = vb, va - q * vb
    if a.is_zero():
        return a, ua, va
    s = 1 / a.leading()
    return a.scale(s), ua.scale(s), va.scale(s)


def _divisors(m):
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """The m-th cyclotomic polynomial, computed by exact division of x^m - 1."""
    if not isinstance(m, int) or m < 1:
        raise UsageError(f"cyclotomic polynomial index must be a positive integer, got {m!r}")
    if m == 1:
        return Poly((-1, 1))
    num = Poly.x_power(m) - Poly.one()
    den = Poly.one()
    for d in _divisors(m)[:-1]:
        den = den * cyclotomic_polynomial(d)
    quot, rem = num.divmod(den)
    if not rem.is_zero():
        raise TheoremViolationError(f"x^{m} - 1 is not divisible by its proper cyclotomic factors")
    return quot
