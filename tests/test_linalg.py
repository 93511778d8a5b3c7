"""Rank kernels against hand-checkable oracles."""

import random
from fractions import Fraction

import pytest

from cmhodge.cyclotomic import CyclotomicNumber
from cmhodge.linalg import (
    ModularSpan,
    SpanBasis,
    UnluckyPrimeError,
    _is_prime,
    _rank_integer,
    rank_rational,
    split_prime,
)
from cmhodge.polynomials import cyclotomic_polynomial


def test_rank_of_identity_and_zero():
    assert rank_rational([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert rank_rational([]) == 0


def test_rank_one_outer_product():
    u = [1, -2, 3, 5]
    rows = [[a * b for b in u] for a in (2, -1, 7)]
    assert rank_rational(rows) == 1


def test_rank_detects_dependent_row():
    rows = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]
    assert rank_rational(rows) == 2


def test_rank_with_fractions():
    rows = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(1, 2), Fraction(1, 5)],
        [Fraction(1, 1), Fraction(8, 15)],
    ]
    # row3 = row1 + row2 is dependent; the first two are not proportional
    assert rank_rational(rows) == 2


def test_rank_constructed_from_known_factors():
    rng = random.Random("rank-factors")
    for r in (1, 2, 3):
        left = [[rng.randrange(-4, 5) for _ in range(r)] for _ in range(6)]
        right = [[rng.randrange(-4, 5) for _ in range(7)] for _ in range(r)]
        rows = [
            [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(7)]
            for i in range(6)
        ]
        assert rank_rational(rows) <= r


def test_rank_is_row_order_independent():
    rng = random.Random("rank-shuffle")
    rows = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(5)]
    base = rank_rational(rows)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank_rational(shuffled) == base


def _vec(M, items):
    return {k: CyclotomicNumber.from_rational(M, v) for k, v in items.items()}


def test_span_basis_counts_independents():
    span = SpanBasis()
    assert span.insert(_vec(4, {0: 1, 1: 2}))
    assert span.insert(_vec(4, {1: 1}))
    # 3*first - 2*second lies in the span already
    assert not span.insert(_vec(4, {0: 3, 1: 4}))
    assert span.dimension == 2


def _contains(span, vec):
    """Membership without touching span: insert vec into a copy of its rows."""
    probe = SpanBasis()
    probe.rows = {p: dict(row) for p, row in span.rows.items()}
    return not probe.insert(vec)


def test_span_basis_contains_leaves_span_unchanged():
    span = SpanBasis()
    span.insert(_vec(4, {0: 1}))
    assert _contains(span, _vec(4, {0: 7}))
    assert not _contains(span, _vec(4, {1: 1}))
    assert not span.insert(_vec(4, {0: 7}))
    assert span.dimension == 1


def test_span_basis_contains_changes_neither_argument_nor_span():
    M = 7
    z = CyclotomicNumber.root_of_unity(M, 1)
    one = CyclotomicNumber.one(M)
    zero = CyclotomicNumber.zero(M)
    span = SpanBasis()
    span.insert({0: one, 2: z})
    span.insert({1: z, 2: one})
    rows = {p: dict(row) for p, row in span.rows.items()}
    inside = {0: z, 1: z * z, 2: z * z + z, 3: zero}
    outside = {0: one, 3: z}
    for vec in (inside, outside):
        before = dict(vec)
        _contains(span, vec)
        assert vec == before
    assert _contains(span, inside)
    assert not _contains(span, outside)
    # a rejected insert is the in-place membership test
    before = dict(inside)
    assert not span.insert(inside)
    assert inside == before
    assert span.rows == rows


def test_span_basis_insert_and_contains_agree():
    rng = random.Random("span-contains")
    M = 9
    span = SpanBasis()
    for _ in range(60):
        vec = {
            c: CyclotomicNumber.root_of_unity(M, rng.randrange(M)) * rng.randrange(-2, 3)
            for c in rng.sample(range(6), rng.randrange(1, 4))
        }
        held = _contains(span, vec)
        assert span.insert(vec) is not held
        assert _contains(span, vec)
    assert span.dimension == 6


def test_span_basis_insert_keeps_its_argument_and_rejects_a_repeat():
    rng = random.Random("span-contains")
    M = 9
    span = SpanBasis()
    for _ in range(60):
        vec = {
            c: CyclotomicNumber.root_of_unity(M, rng.randrange(M)) * rng.randrange(-2, 3)
            for c in rng.sample(range(6), rng.randrange(1, 4))
        }
        before = dict(vec)
        span.insert(vec)
        rows = {p: dict(row) for p, row in span.rows.items()}
        assert not span.insert(vec)
        assert vec == before
        assert span.rows == rows
    assert span.dimension == 6


def test_span_basis_with_cyclotomic_coefficients():
    M = 7
    z = CyclotomicNumber.root_of_unity(M, 1)
    span = SpanBasis()
    assert span.insert({0: z})
    # a different scalar multiple of the same line
    assert not span.insert({0: z * z})
    assert span.insert({0: z, 1: CyclotomicNumber.one(M)})
    assert span.dimension == 2


def test_rank_agrees_on_int_fraction_and_mixed_rows():
    rng = random.Random("rank-int-rows")
    for _ in range(60):
        r = rng.randrange(0, 5)
        left = [[rng.randrange(-3, 4) for _ in range(r)] for _ in range(6)]
        right = [[rng.randrange(-3, 4) for _ in range(5)] for _ in range(r)]
        ints = [
            [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(5)]
            for i in range(6)
        ]
        expected = rank_rational(ints)
        assert expected <= r
        fracs = [[Fraction(x) for x in row] for row in ints]
        assert rank_rational(fracs) == expected
        # scaling a row by a nonzero rational keeps the rank; mix both kinds
        mixed = [
            row if i % 2 else [Fraction(x, i + 2) for x in row]
            for i, row in enumerate(ints)
        ]
        assert rank_rational(mixed) == expected
        within = [[x if j % 2 else Fraction(x) for j, x in enumerate(row)] for row in ints]
        assert rank_rational(within) == expected


def test_rank_leaves_int_rows_untouched():
    rows = [[2, 4], [1, 2], [0, 3]]
    copy = [list(r) for r in rows]
    assert rank_rational(rows) == 2
    assert rows == copy


def _fraction_rank(rows):
    """Rank by Gauss elimination over Fraction: the reference for the Bareiss kernel."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_bareiss_rank_matches_fraction_elimination():
    rng = random.Random("bareiss-rank")
    for _ in range(300):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        r = rng.randrange(0, min(nrows, ncols) + 1)
        # a product of factors, so ranks below the shape occur; sparse
        # factors give rows whose entry in the pivot column is 0
        left = [[rng.choice((0, 0, rng.randrange(-4, 5))) for _ in range(r)] for _ in range(nrows)]
        right = [[rng.choice((0, 0, rng.randrange(-4, 5))) for _ in range(ncols)] for _ in range(r)]
        rows = [
            [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(ncols)]
            for i in range(nrows)
        ]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(nrows + 1), [0] * ncols)
        if rng.random() < 0.3:
            at = rng.randrange(ncols + 1)
            rows = [row[:at] + [0] + row[at:] for row in rows]
        expected = _fraction_rank(rows)
        assert expected <= r
        assert _rank_integer(rows) == expected
    # a zero pivot-column entry below the pivot, with later columns to scale
    rows = [[2, 1, 3], [0, 4, 5], [0, 2, 7], [6, 3, 9]]
    assert _rank_integer(rows) == _fraction_rank(rows) == 3


def _sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = [False] * len(flags[q * q :: q])
    return flags


def test_is_prime_agrees_with_a_sieve():
    flags = _sieve(10**5)
    assert [n for n in range(10**5) if _is_prime(n)] == [n for n in range(10**5) if flags[n]]
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert 3215031751 == 151 * 751 * 28351
    assert not _is_prime(3215031751)
    assert _is_prime(2**61 - 1) and not _is_prime(2**61 + 1)


def _prime_divisors(m):
    flags = _sieve(m + 1)
    return [q for q in range(2, m + 1) if m % q == 0 and flags[q]]


# 4 * 9973: the working conductor of the largest prime conductor under the group cap
@pytest.mark.parametrize("M", [4, 16, 28, 36, 44, 84, 4 * 9973])
def test_split_prime(M):
    p, omega = split_prime(M)
    # word-size: a residue mod p is one 30-bit digit
    assert 2**29 < p < 2**30 and p % M == 1 and _is_prime(p)
    # the first such prime: every smaller candidate fails a Fermat test
    for q in range(p - M, 2**29, -M):
        assert pow(2, q - 1, q) != 1
    # omega has order exactly M
    assert pow(omega, M, p) == 1
    assert all(pow(omega, M // q, p) != 1 for q in _prime_divisors(M))
    if M > 100:
        return  # building Phi_M by division takes seconds at M = 4 * 9973
    # and is a root of the M-th cyclotomic polynomial mod p
    phi = cyclotomic_polynomial(M)
    assert phi.den == 1
    assert sum(c * pow(omega, i, p) for i, c in enumerate(phi.num)) % p == 0


def _random_cyclotomic(rng, M):
    z = CyclotomicNumber.root_of_unity(M, 1)
    out = CyclotomicNumber.zero(M)
    for _ in range(rng.randrange(1, 4)):
        out = out + z ** rng.randrange(M) * Fraction(rng.randrange(-5, 6), rng.randrange(1, 8))
    return out


@pytest.mark.parametrize("M", [4, 28, 44])
def test_modular_image_is_a_ring_map(M):
    span = ModularSpan(M)
    p = span.prime
    rng = random.Random(f"modular-image-{M}")
    assert span._image(CyclotomicNumber.one(M)) == 1
    assert span._image(CyclotomicNumber.from_rational(M, Fraction(1, 3))) * 3 % p == 1
    for _ in range(50):
        x, y = _random_cyclotomic(rng, M), _random_cyclotomic(rng, M)
        assert span._image(x * y) == span._image(x) * span._image(y) % p
        assert span._image(x + y) == (span._image(x) + span._image(y)) % p


@pytest.mark.parametrize("M", [4, 28, 44])
def test_modular_span_agrees_with_span_basis(M):
    rng = random.Random(f"modular-span-{M}")
    outcomes = set()
    for _ in range(10):
        exact, modular = SpanBasis(), ModularSpan(M)
        inserted = []
        for _ in range(12):
            if inserted and rng.random() < 0.5:
                # a combination of vectors already offered, with cyclotomic weights
                vec = {}
                for old in rng.sample(inserted, min(len(inserted), 3)):
                    w = _random_cyclotomic(rng, M)
                    for c, x in old.items():
                        vec[c] = vec.get(c, CyclotomicNumber.zero(M)) + w * x
            else:
                vec = {c: _random_cyclotomic(rng, M) for c in rng.sample(range(8), rng.randrange(1, 5))}
            inserted.append(vec)
            added = exact.insert(vec)
            assert modular.insert(vec) == added
            outcomes.add(added)
        assert modular.dimension == exact.dimension
    assert outcomes == {True, False}


def test_modular_span_refuses_a_denominator_divisible_by_its_prime():
    span = ModularSpan(28)
    x = CyclotomicNumber.root_of_unity(28, 3) * Fraction(5, 3 * span.prime)
    with pytest.raises(UnluckyPrimeError):
        span.insert({0: x})
    assert span.dimension == 0


@pytest.mark.parametrize("M", [4, 28])
def test_modular_span_takes_ints_as_images_and_keeps_its_rows_reduced(M):
    rng = random.Random(f"modular-ints-{M}")
    from_ints, from_rationals = ModularSpan(M), ModularSpan(M)
    p = from_ints.prime
    outcomes = set()
    for _ in range(30):
        vec = {c: rng.randrange(-2, 3) * rng.choice((1, p + 1, -p)) for c in rng.sample(range(8), rng.randrange(1, 5))}
        added = from_ints.insert(vec)
        assert from_rationals.insert({c: CyclotomicNumber.from_rational(M, x) for c, x in vec.items()}) == added
        outcomes.add(added)
        for pivot, row in from_ints.rows.items():
            assert row[pivot] == 1
            assert all(0 < y < p for y in row.values())
            assert not any(other in row for other in from_ints.rows if other != pivot)
    assert from_ints.rows == from_rationals.rows
    assert outcomes == {True, False}
