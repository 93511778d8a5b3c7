import random
from fractions import Fraction

import pytest

from cmhodge.errors import UsageError
from cmhodge.polynomials import Poly, cyclotomic_polynomial, poly_gcd, poly_xgcd


def test_zero_and_degree_conventions():
    assert Poly().is_zero()
    assert Poly((0, 0)).is_zero()
    assert Poly().degree == -1
    assert Poly((5,)).degree == 0
    assert Poly.x_power(3).degree == 3


def test_trailing_zeros_are_trimmed():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))


def test_arithmetic_basics():
    f = Poly((1, 1))  # 1 + x
    g = Poly((-1, 1))  # -1 + x
    assert f * g == Poly((-1, 0, 1))
    assert f + g == Poly((0, 2))
    assert f - f == Poly.zero()
    assert (-f) + f == Poly.zero()


def test_divmod_round_trip():
    rng = random.Random("poly-div")
    for _ in range(50):
        a = Poly([rng.randrange(-6, 7) for _ in range(rng.randrange(0, 7))])
        b = Poly([rng.randrange(-6, 7) for _ in range(rng.randrange(1, 5))])
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Poly((1,)).divmod(Poly.zero())


def test_gcd_of_known_factorizations():
    common = Poly((-1, 1))  # x - 1
    f = common * Poly((2, 1))
    g = common * Poly((-3, 1))
    assert poly_gcd(f, g) == common
    # coprime inputs give 1, scaling does not matter
    assert poly_gcd(Poly((2, 1)), Poly((-3, 2))) == Poly.one()
    assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()
    assert poly_gcd(Poly.zero(), Poly((0, 4))) == Poly((0, 1))


def test_xgcd_bezout_identity():
    rng = random.Random("poly-xgcd")
    for _ in range(40):
        f = Poly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        g = Poly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 6))])
        d, u, v = poly_xgcd(f, g)
        assert u * f + v * g == d
        if not d.is_zero():
            assert d.leading() == 1


@pytest.mark.parametrize(
    "m,expected",
    [
        (1, Poly((-1, 1))),
        (2, Poly((1, 1))),
        (4, Poly((1, 0, 1))),
        (7, Poly((1, 1, 1, 1, 1, 1, 1))),
        (12, Poly((1, 0, -1, 0, 1))),
    ],
)
def test_cyclotomic_small_table(m, expected):
    assert cyclotomic_polynomial(m) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7, 9, 12, 16, 28])
def test_cyclotomic_product_identity(m):
    prod = Poly.one()
    for d in range(1, m + 1):
        if m % d == 0:
            prod = prod * cyclotomic_polynomial(d)
    assert prod == Poly.x_power(m) - Poly.one()


def test_cyclotomic_rejects_bad_index():
    with pytest.raises(UsageError):
        cyclotomic_polynomial(0)
    with pytest.raises(UsageError):
        cyclotomic_polynomial(-3)


def _fraction_gcd(f, g):
    """Reference: plain Euclid on Fraction coefficient lists, made monic at the end."""

    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] -= c * bj
            a = trim(a)
        return a

    a = trim(Fraction(c) for c in f)
    b = trim(Fraction(c) for c in g)
    while b:
        a, b = b, rem(a, b)
    if not a:
        return Poly.zero()
    return Poly([c / a[-1] for c in a])


def _random_coeffs(rng, rational):
    size = rng.randrange(0, 8)
    if rational:
        return [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(size)]
    return [rng.randrange(-9, 10) for _ in range(size)]


@pytest.mark.parametrize("rational", [False, True])
def test_gcd_agrees_with_fraction_euclid(rational):
    rng = random.Random(f"poly-gcd-reference:{rational}")
    for _ in range(300):
        common = _random_coeffs(rng, rational)[:3]
        f = _random_coeffs(rng, rational)
        g = _random_coeffs(rng, rational)
        if rng.random() < 0.5 and common:
            # force a nontrivial common factor
            f = (Poly(f) * Poly(common)).coeffs
            g = (Poly(g) * Poly(common)).coeffs
        expected = _fraction_gcd(f, g)
        assert poly_gcd(Poly(f), Poly(g)) == expected
        assert poly_gcd(Poly(g), Poly(f)) == expected


@pytest.mark.parametrize(
    "f,g",
    [
        ((), ()),
        ((3, 6, -9), ()),
        ((), (0, Fraction(-2, 3))),
        ((7,), (1, 2, 3)),
        ((Fraction(5, 2),), ()),
        ((-4, 0, 6), (2, -3)),
        ((6, 0, -6), (-10, 10)),
        ((Fraction(1, 3), Fraction(2, 3)), (Fraction(-1, 6), Fraction(-1, 3))),
    ],
)
def test_gcd_edge_cases_agree_with_fraction_euclid(f, g):
    assert poly_gcd(Poly(f), Poly(g)) == _fraction_gcd(f, g)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("value", [-7, -1, 1, 3])
def test_gcd_of_constant_circulant_symbol(p, value):
    # a constant symbol c(1 + x + ... + x^{p-1}) shares all of x^p - 1 but x - 1
    f = Poly((value,) * p)
    g = Poly.x_power(p) - Poly.one()
    assert poly_gcd(f, g) == _fraction_gcd(f.coeffs, g.coeffs) == Poly((1,) * p)


def test_gcd_of_random_circulant_symbols():
    rng = random.Random("poly-gcd-circulant")
    for p in (3, 5, 7, 11, 13):
        g = Poly.x_power(p) - Poly.one()
        for _ in range(40):
            f = Poly([2 * rng.randrange(-5, 5) + 1 for _ in range(p)])
            assert poly_gcd(f, g) == _fraction_gcd(f.coeffs, g.coeffs)
