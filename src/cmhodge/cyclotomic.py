"""Exact arithmetic in Q(zeta_M) in the power basis 1, z, ..., z^{phi(M)-1}.

Every element is kept reduced modulo the M-th cyclotomic polynomial, as
integer numerators over one shared denominator in lowest terms, so equality
is plain comparison of ints.  Galois automorphisms act by
z -> z^a for units a, and complex conjugation is the case a = -1.

Serialization uses decimal-free "p/q" strings so round trips are lossless.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import ConductorMismatchError, TheoremViolationError, UsageError
from .polynomials import (
    Poly,
    _format_poly,
    _integral_form,
    _reduce,
    cyclotomic_polynomial,
    poly_xgcd,
)


def euler_phi(m):
    if not isinstance(m, int) or m < 1:
        raise UsageError(f"euler_phi wants a positive integer, got {m!r}")
    out = 1
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out *= (p - 1) * p ** (k - 1)
        p += 1
    if n > 1:
        out *= n - 1
    return out


class _Context:
    __slots__ = ("conductor", "phi", "powers", "terms", "zero")

    def __init__(self, conductor):
        self.conductor = conductor
        phi = euler_phi(conductor)
        self.phi = phi
        self.zero = (0,) * phi
        minpoly = cyclotomic_polynomial(conductor)
        # x^phi == tail modulo the minimal polynomial; it is monic with
        # integer coefficients, so every power of z reduces over the ints
        tail = [-c for c in minpoly.num[:phi]]
        powers = []
        cur = [0] * phi
        cur[0] = 1
        limit = max(conductor, 2 * phi - 1)
        for _ in range(limit):
            powers.append(tuple(cur))
            top = cur[phi - 1] if phi > 0 else 0
            nxt = [0] + cur[: phi - 1]
            if top:
                for k in range(phi):
                    nxt[k] += top * tail[k]
            cur = nxt
        self.powers = tuple(powers)
        # the nonzero (index, coefficient) pairs of each power: past z^phi
        # most powers reduce to a single term, since z^M == 1
        self.terms = tuple(
            tuple((t, r) for t, r in enumerate(p) if r) for p in self.powers
        )


@lru_cache(maxsize=None)
def _context(conductor):
    return _Context(conductor)


def format_fraction(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text):
    """A rational from a JSON literal: a string such as "3/4", or an int (not a bool)."""
    if not isinstance(text, str) and type(text) is not int:
        raise UsageError(f"malformed rational literal {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational literal {text!r}") from exc


class CyclotomicNumber:
    """An element of Q(zeta_M), M the conductor, in the power basis.

    The coefficients are stored as a tuple ``num`` of phi(M) integer
    numerators over one positive integer denominator ``den``, with no factor
    common to all of them; zero is all zeros over 1.  Equal elements
    therefore have equal ``(num, den)``.  ``coeffs`` gives the coefficients
    as ``Fraction``s.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor, coeffs):
        ctx = _context(conductor)
        num, den = _integral_form(coeffs)
        if len(num) != ctx.phi:
            raise UsageError(
                f"conductor {conductor} needs {ctx.phi} coefficients, got {len(num)}"
            )
        self.conductor = conductor
        self.num, self.den = _reduce(num, den)

    @classmethod
    def _make(cls, conductor, num, den=1):
        """Element with numerators ``num`` (length phi) over ``den`` > 0, reduced here."""
        out = object.__new__(cls)
        out.conductor = conductor
        out.num, out.den = _reduce(num, den)
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, conductor):
        return cls._make(conductor, _context(conductor).zero)

    @classmethod
    def one(cls, conductor):
        return cls.from_rational(conductor, 1)

    @classmethod
    def from_rational(cls, conductor, value):
        q = Fraction(value)
        num = list(_context(conductor).zero)
        num[0] = q.numerator
        return cls._make(conductor, num, q.denominator)

    @classmethod
    def root_of_unity(cls, conductor, k):
        """zeta_M^k, reduced into the power basis."""
        ctx = _context(conductor)
        return cls._make(conductor, ctx.powers[k % conductor])

    @classmethod
    def i_unit(cls, conductor):
        """The fourth root of unity; the conductor must be divisible by 4."""
        if conductor % 4 != 0:
            raise UsageError(f"no fourth root of unity at conductor {conductor}")
        return cls.root_of_unity(conductor, conductor // 4)

    @property
    def coeffs(self):
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- ring structure -------------------------------------------------

    def _check(self, other):
        if self.conductor != other.conductor:
            raise ConductorMismatchError(
                f"mixed conductors {self.conductor} and {other.conductor}"
            )

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber.from_rational(self.conductor, other)
        return None

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational_value(self):
        return not any(self.num[1:])

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.conductor, self.num, self.den))

    def __neg__(self):
        return CyclotomicNumber._make(self.conductor, [-c for c in self.num], self.den)

    def _combine(self, other, sign):
        """self + sign * other on the numerators over a common denominator."""
        a, da, b, db = self.num, self.den, other.num, other.den
        if da == db:
            if sign > 0:
                return CyclotomicNumber._make(self.conductor, [x + y for x, y in zip(a, b)], da)
            return CyclotomicNumber._make(self.conductor, [x - y for x, y in zip(a, b)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        if sign < 0:
            fb = -fb
        return CyclotomicNumber._make(
            self.conductor, [x * fa + y * fb for x, y in zip(a, b)], da * fa
        )

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _scale(self, p, q=1):
        """self * p / q for ints p and q > 0."""
        if p == 0:
            return CyclotomicNumber.zero(self.conductor)
        if p == 1 and q == 1:
            return self
        return CyclotomicNumber._make(self.conductor, [c * p for c in self.num], self.den * q)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        self._check(other)
        # rational factors are the common case; keep them linear time
        if self.is_rational_value():
            return other._scale(self.num[0], self.den)
        if other.is_rational_value():
            return self._scale(other.num[0], other.den)
        ctx = _context(self.conductor)
        phi = ctx.phi
        conv = [0] * (2 * phi - 1)
        b = other.num
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        conv[j] += x * y
        out = conv[:phi]
        terms = ctx.terms
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                for t, r in terms[k]:
                    out[t] += c * r
        return CyclotomicNumber._make(self.conductor, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.conductor})")
        # (num / den)^-1 = den * u, where u * num == 1 modulo the minimal polynomial
        f = Poly._make(self.num)
        d, u, _ = poly_xgcd(f, cyclotomic_polynomial(self.conductor))
        if d != Poly.one():
            raise TheoremViolationError(
                f"an element of Q(zeta_{self.conductor}) shares a factor with its "
                "irreducible minimal polynomial"
            )
        num = list(_context(self.conductor).zero)
        for k, c in enumerate(u.num):
            num[k] = c * self.den
        return CyclotomicNumber._make(self.conductor, num, u.den)

    def __truediv__(self, other):
        """self / other; a rational divisor only rescales, others go through ``inverse``."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.is_rational_value():
            return self * o.inverse()
        p, q = o.num[0], o.den
        if p == 0:
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.conductor})")
        return self._scale(q, p) if p > 0 else self._scale(-q, -p)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise UsageError("only nonnegative integer powers are supported")
        acc = CyclotomicNumber.one(self.conductor)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- Galois ---------------------------------------------------------

    def galois(self, a):
        """Apply the automorphism z -> z^a; a must be a unit mod the conductor."""
        M = self.conductor
        a %= M
        if gcd(a, M) != 1:
            raise UsageError(f"{a} is not a unit modulo {M}")
        if self.is_rational_value():
            return self
        ctx = _context(M)
        out = [0] * ctx.phi
        for k, c in enumerate(self.num):
            if c:
                for t, r in ctx.terms[(a * k) % M]:
                    out[t] += c * r
        return CyclotomicNumber._make(M, out, self.den)

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {
            "conductor": self.conductor,
            "coeffs": [format_fraction(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "conductor" not in obj or "coeffs" not in obj:
            raise UsageError("cyclotomic JSON needs 'conductor' and 'coeffs'")
        conductor = obj["conductor"]
        if not isinstance(conductor, int) or conductor < 1:
            raise UsageError(f"bad conductor {conductor!r}")
        if not isinstance(obj["coeffs"], list):
            raise UsageError("cyclotomic JSON 'coeffs' must be a list of \"p/q\" strings")
        return cls(conductor, [parse_fraction(c) for c in obj["coeffs"]])

    def __repr__(self):
        return f"CyclotomicNumber({self.conductor}, {_format_poly(self.coeffs, 'z')!r})"

