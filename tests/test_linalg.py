"""Rank kernels against hand-checkable oracles."""

import random
from fractions import Fraction

from cmhodge.cyclotomic import CyclotomicNumber
from cmhodge.linalg import SpanBasis, rank_rational


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


def test_span_basis_contains_leaves_span_unchanged():
    span = SpanBasis()
    span.insert(_vec(4, {0: 1}))
    assert span.contains(_vec(4, {0: 7}))
    assert not span.contains(_vec(4, {1: 1}))
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
        span.contains(vec)
        assert vec == before
    assert span.contains(inside)
    assert not span.contains(outside)
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
        held = span.contains(vec)
        assert span.insert(vec) is not held
        assert span.contains(vec)
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
