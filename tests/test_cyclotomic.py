import math
import random
from fractions import Fraction

import pytest

from cmhodge import cyclotomic
from cmhodge.cyclotomic import CyclotomicNumber, euler_phi, format_fraction, parse_fraction
from cmhodge.errors import ConductorMismatchError, TheoremViolationError, UsageError
from cmhodge.polynomials import Poly, cyclotomic_polynomial, poly_gcd, poly_xgcd

CONDUCTORS = (4, 7, 12, 28)


def rand_elt(M, rng, spread=6):
    return CyclotomicNumber(
        M, [Fraction(rng.randrange(-spread, spread + 1)) for _ in range(euler_phi(M))]
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 9, 12, 16, 28, 36, 44])
def test_euler_phi(m):
    assert euler_phi(m) == sum(1 for k in range(1, m + 1) if __import__("math").gcd(k, m) == 1)


def test_i_squares_to_minus_one():
    for M in (4, 12, 28):
        i = CyclotomicNumber.i_unit(M)
        assert i * i == CyclotomicNumber.from_rational(M, -1)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_primitive_root_has_order_m(m):
    z = CyclotomicNumber.root_of_unity(m, 1)
    assert z**m == CyclotomicNumber.one(m)
    for k in range(1, m):
        assert z**k != CyclotomicNumber.one(m)


def _evaluate(poly, x):
    """poly(x) by Horner's rule."""
    acc = CyclotomicNumber.zero(x.conductor)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("m", [4, 7, 9, 12, 16, 28])
def test_root_satisfies_minimal_polynomial(m):
    z = CyclotomicNumber.root_of_unity(m, 1)
    value = _evaluate(cyclotomic_polynomial(m), z)
    assert value == CyclotomicNumber.zero(m) or value.is_zero()


def test_all_roots_sum_to_zero():
    for m in (7, 12):
        total = CyclotomicNumber.zero(m)
        for k in range(m):
            total = total + CyclotomicNumber.root_of_unity(m, k)
        assert total.is_zero()


def test_power_of_28th_root_behaves_like_7th_root():
    # zeta_28^4 generates the 7th roots inside the bigger field
    z = CyclotomicNumber.root_of_unity(28, 4)
    assert z**7 == CyclotomicNumber.one(28)
    assert _evaluate(cyclotomic_polynomial(7), z).is_zero()


@pytest.mark.parametrize("M", CONDUCTORS)
def test_ring_axioms_random_sweep(M):
    rng = random.Random(f"axioms:{M}")
    for _ in range(25):
        a, b, c = (rand_elt(M, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == CyclotomicNumber.zero(M)


@pytest.mark.parametrize("M", CONDUCTORS)
def test_inverses_random_sweep(M):
    rng = random.Random(f"inverse:{M}")
    one = CyclotomicNumber.one(M)
    tried = 0
    while tried < 15:
        a = rand_elt(M, rng)
        if a.is_zero():
            continue
        tried += 1
        assert a * a.inverse() == one
        b = rand_elt(M, rng, spread=3)
        if not b.is_zero():
            assert (a / b) * b == a


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CyclotomicNumber.zero(7).inverse()


@pytest.mark.parametrize("M", (7, 12, 28, 35))
def test_rational_division_matches_multiplying_by_the_inverse(M):
    rng = random.Random(f"rational-division:{M}")
    for _ in range(20):
        x = CyclotomicNumber(M, mixed_coeffs(rng, euler_phi(M), sparse=rng.random() < 0.3))
        q = Fraction(rng.randrange(1, 31), rng.randrange(1, 13))
        for value in (q.numerator, -q.numerator, q, -q):
            as_cyclotomic = CyclotomicNumber.from_rational(M, value)
            expected = x * as_cyclotomic.inverse()
            for divisor in (value, as_cyclotomic):
                got = x / divisor
                assert_normal_form(got)
                assert got == expected


def test_rational_division_by_zero_raises():
    x = CyclotomicNumber.root_of_unity(7, 2)
    for zero in (0, Fraction(0), CyclotomicNumber.zero(7)):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_rational_scalars_mix_in():
    x = CyclotomicNumber.root_of_unity(7, 3)
    assert x * 2 == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (1 - x) + x == CyclotomicNumber.one(7)


def test_conductor_mismatch_is_rejected():
    with pytest.raises(ConductorMismatchError):
        CyclotomicNumber.one(7) + CyclotomicNumber.one(12)


def test_galois_is_multiplicative_on_exponents():
    rng = random.Random("galois-comp")
    M = 28
    units = [a for a in range(1, M) if __import__("math").gcd(a, M) == 1]
    for _ in range(20):
        x = rand_elt(M, rng)
        a, b = rng.choice(units), rng.choice(units)
        assert x.galois(a).galois(b) == x.galois((a * b) % M)


def test_galois_on_roots_is_exponentiation():
    z = CyclotomicNumber.root_of_unity(28, 1)
    assert z.galois(9) == z**9
    assert (z**3).galois(9) == z**27


def test_galois_fixes_rationals_and_respects_products():
    rng = random.Random("galois-mult")
    M = 12
    half = CyclotomicNumber.from_rational(M, Fraction(1, 2))
    assert half.galois(5) == half
    for _ in range(10):
        x, y = rand_elt(M, rng), rand_elt(M, rng)
        assert (x * y).galois(7) == x.galois(7) * y.galois(7)


def test_galois_rejects_non_units():
    with pytest.raises(UsageError):
        CyclotomicNumber.one(12).galois(3)


def test_json_round_trip():
    rng = random.Random("json")
    for M in CONDUCTORS:
        x = CyclotomicNumber(
            M,
            [
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                for _ in range(euler_phi(M))
            ],
        )
        assert CyclotomicNumber.from_json(x.to_json()) == x


def test_fraction_text_forms():
    assert parse_fraction(format_fraction(Fraction(-22, 7))) == Fraction(-22, 7)
    assert format_fraction(Fraction(5)) == "5/1"  # uniform num/den form
    assert parse_fraction("3/4") == Fraction(3, 4)
    with pytest.raises(UsageError):
        parse_fraction("three quarters")


def test_from_json_validates():
    with pytest.raises(UsageError):
        CyclotomicNumber.from_json({"coeffs": ["1"]})
    with pytest.raises(UsageError):
        CyclotomicNumber.from_json({"conductor": 0, "coeffs": []})


# -- cross-check of the integer kernel against schoolbook Fraction arithmetic --
#
# The reference works on plain lists of Fractions (lowest degree first) and
# reduces by long division modulo a cyclotomic polynomial it builds itself,
# so it shares no code with the numerator / shared-denominator kernel.

CROSS_CONDUCTORS = (7, 9, 11, 16, 13, 35, 84)


def ref_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_divmod(a, b):
    rem = [Fraction(c) for c in ref_trim(a)]
    b = [Fraction(c) for c in ref_trim(b)]
    if len(rem) < len(b):
        return [], rem
    quot = [Fraction(0)] * (len(rem) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return ref_trim(quot), ref_trim(rem)


def ref_cyclotomic(m):
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, rem = ref_divmod(num, ref_cyclotomic(d))
            assert not rem
    return num


def ref_reduce(M, coeffs):
    phi = euler_phi(M)
    _, rem = ref_divmod(coeffs, ref_cyclotomic(M))
    return tuple(rem) + (Fraction(0),) * (phi - len(rem))


def ref_galois(M, coeffs, a):
    spread = [Fraction(0)] * M
    for k, c in enumerate(coeffs):
        spread[(a * k) % M] += c
    return ref_reduce(M, spread)


def mixed_coeffs(rng, n, sparse=False):
    """Rationals with unrelated denominators, some of the time mostly zero."""
    out = []
    for _ in range(n):
        if sparse and rng.random() < 0.7:
            out.append(Fraction(0))
        else:
            out.append(Fraction(rng.randrange(-30, 31), rng.randrange(1, 13)))
    return out


def assert_normal_form(x):
    phi = euler_phi(x.conductor)
    assert len(x.num) == phi and all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0
    assert math.gcd(*x.num, x.den) == 1
    if not any(x.num):
        assert (x.num, x.den) == ((0,) * phi, 1)


def assert_same_element(x, coeffs):
    """x carries exactly the Fraction coefficients coeffs, in normal form."""
    assert_normal_form(x)
    assert x.coeffs == tuple(coeffs)
    y = CyclotomicNumber(x.conductor, coeffs)
    assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize("M", CROSS_CONDUCTORS)
def test_products_match_the_fraction_reference(M):
    rng = random.Random(f"cross-mul:{M}")
    phi = euler_phi(M)
    for trial in range(12):
        a = mixed_coeffs(rng, phi, sparse=trial % 3 == 0)
        b = mixed_coeffs(rng, phi, sparse=trial % 4 == 1)
        x, y = CyclotomicNumber(M, a), CyclotomicNumber(M, b)
        assert_same_element(x, a)
        assert_same_element(x * y, ref_reduce(M, ref_mul(a, b)))
        assert_same_element(x + y, [p + q for p, q in zip(a, b)])
        assert_same_element(x - y, [p - q for p, q in zip(a, b)])
        q = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
        assert_same_element(x * q, [c * q for c in a])
    zero = CyclotomicNumber(M, [Fraction(0, 7)] * phi)
    assert_same_element(zero, [Fraction(0)] * phi)
    assert_same_element(x - x, [Fraction(0)] * phi)
    assert_same_element(x * 0, [Fraction(0)] * phi)


@pytest.mark.parametrize("M", CROSS_CONDUCTORS)
def test_galois_matches_the_fraction_reference(M):
    rng = random.Random(f"cross-galois:{M}")
    phi = euler_phi(M)
    units = [a for a in range(1, M) if math.gcd(a, M) == 1]
    for trial in range(8):
        a = mixed_coeffs(rng, phi, sparse=trial % 2 == 0)
        k = rng.choice(units)
        assert_same_element(CyclotomicNumber(M, a).galois(k), ref_galois(M, a, k))


@pytest.mark.parametrize("M", CROSS_CONDUCTORS)
def test_inverse_is_in_normal_form(M):
    rng = random.Random(f"cross-inverse:{M}")
    phi = euler_phi(M)
    for _ in range(3):
        x = CyclotomicNumber(M, mixed_coeffs(rng, phi))
        inv = x.inverse()
        assert_normal_form(inv)
        assert_same_element(x * inv, [Fraction(1)] + [Fraction(0)] * (phi - 1))


def test_minimal_polynomial_matches_the_fraction_reference():
    for M in CROSS_CONDUCTORS:
        assert cyclotomic_polynomial(M).coeffs == tuple(ref_cyclotomic(M))


def test_inverse_raises_a_typed_error_when_the_gcd_is_not_one(monkeypatch):
    monkeypatch.setattr(
        cyclotomic, "poly_xgcd", lambda f, g: (Poly((1, 1)), Poly.one(), Poly.zero())
    )
    with pytest.raises(TheoremViolationError):
        CyclotomicNumber.root_of_unity(7, 1).inverse()


def ref_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return ref_trim([p - q for p, q in zip(a, b)])


def ref_xgcd(f, g):
    a, b = ref_trim(f), ref_trim(g)
    ua, va, ub, vb = [Fraction(1)], [], [], [Fraction(1)]
    while b:
        q, r = ref_divmod(a, b)
        a, b = b, r
        ua, ub = ub, ref_sub(ua, ref_mul(q, ub))
        va, vb = vb, ref_sub(va, ref_mul(q, vb))
    if not a:
        return a, ua, va
    s = 1 / a[-1]
    return [c * s for c in a], [c * s for c in ua], [c * s for c in va]


def assert_poly_normal_form(p, coeffs):
    assert all(type(c) is int for c in p.num) and type(p.den) is int and p.den > 0
    assert math.gcd(*p.num, p.den) == 1
    assert not p.num or p.num[-1] != 0
    if not p.num:
        assert p.den == 1
    assert p.coeffs == tuple(coeffs)
    q = Poly(coeffs)
    assert p == q and hash(p) == hash(q)


def random_poly_coeffs(rng, degree, rational):
    out = []
    for _ in range(degree + 1):
        den = rng.randrange(1, 10) if rational else 1
        out.append(Fraction(rng.randrange(-12, 13), den))
    if out and out[-1] == 0:
        out[-1] = Fraction(rng.choice((-3, -2, 2, 5)), rng.randrange(1, 4) if rational else 1)
    return out


def test_poly_division_matches_the_fraction_reference():
    rng = random.Random("cross-poly-divmod")
    for trial in range(120):
        rational = trial % 2 == 1
        a = random_poly_coeffs(rng, rng.randrange(-1, 9), rational)
        b = random_poly_coeffs(rng, rng.randrange(0, 5), trial % 3 != 0)
        q, r = Poly(a).divmod(Poly(b))
        rq, rr = ref_divmod(a, b)
        assert_poly_normal_form(q, rq)
        assert_poly_normal_form(r, rr)


def test_poly_gcd_and_xgcd_match_the_fraction_reference():
    rng = random.Random("cross-poly-gcd")
    for trial in range(60):
        rational = trial % 2 == 1
        common = random_poly_coeffs(rng, rng.randrange(0, 3), rational)
        f = ref_mul(common, random_poly_coeffs(rng, rng.randrange(0, 5), rational))
        g = ref_mul(common, random_poly_coeffs(rng, rng.randrange(0, 5), not rational))
        d, u, v = ref_xgcd(f, g)
        assert_poly_normal_form(poly_gcd(Poly(f), Poly(g)), d)
        got = poly_xgcd(Poly(f), Poly(g))
        for p, coeffs in zip(got, (d, u, v)):
            assert_poly_normal_form(p, coeffs)
