"""The Darboux descent behind the rational nilpotents, checked exactly."""

import random
from fractions import Fraction

import pytest

from cmhodge import CyclotomicNumber, default_polarization
from cmhodge.acceptance import _fixed_symplectic_pairs, _fixed_vectors, _q_rows
from cmhodge.linalg import rank_rational
from conftest import first_oriented

LADDER = [(7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2)), (16, (1, 3, 3, 1))]


@pytest.fixture(scope="module", params=LADDER, ids=lambda case: f"m{case[0]}")
def oriented(request):
    m, hodge = request.param
    return first_oriented(m, 3, hodge)


def _pairing(field, pairing_values, x, y):
    total = CyclotomicNumber.zero(field.working_conductor)
    for k in field.signed_indices():
        total = total + pairing_values[k] * x[k] * y[-k]
    return total


def test_pairs_form_a_darboux_basis(oriented):
    pairs, pairing_values = _fixed_symplectic_pairs(oriented, default_polarization(oriented))
    assert len(pairs) == oriented.n
    for a, (ua, va) in enumerate(pairs):
        for b, (ub, vb) in enumerate(pairs):
            assert _pairing(oriented, pairing_values, ua, vb) == (1 if a == b else 0)
            assert _pairing(oriented, pairing_values, ua, ub) == 0
            assert _pairing(oriented, pairing_values, va, vb) == 0


def _fraction_rows(idx, i_unit, vectors):
    rows = []
    for x in vectors:
        rows.append([f for a in idx for f in x[a].coeffs])
        rows.append([f for a in idx for f in (i_unit * x[a]).coeffs])
    return rows


def test_fixed_vectors_have_full_fraction_rank(oriented):
    # the descent makes one rank call per candidate because accepted vectors
    # are independent over Q(i); here the rows come from Fraction coordinates
    idx = oriented.signed_indices()
    i_unit = CyclotomicNumber.i_unit(oriented.working_conductor)
    basis = _fixed_vectors(oriented)
    assert len(basis) == 2 * oriented.n
    assert rank_rational(_fraction_rows(idx, i_unit, basis)) == 2 * len(basis)


def test_int_q_rows_match_fraction_rows():
    M = 20
    idx = (1, 2, 3, -1, -2, -3)
    i_unit = CyclotomicNumber.i_unit(M)
    rng = random.Random("q-rows")

    def scalar():
        return CyclotomicNumber(
            M, [Fraction(rng.randrange(-5, 6), rng.randrange(1, 9)) for _ in range(8)]
        )

    for _ in range(20):
        free = [{a: scalar() for a in idx} for _ in range(rng.randrange(1, 4))]
        p = CyclotomicNumber.from_rational(M, Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)))
        q = CyclotomicNumber.from_rational(M, Fraction(rng.randrange(1, 5), rng.randrange(1, 5)))
        # a Q(i)-combination of the free vectors adds no rank
        combo = {a: (p + q * i_unit) * free[0][a] + q * free[-1][a] for a in idx}
        vectors = free + [combo]
        int_rows = [row for x in vectors for row in _q_rows(idx, i_unit, x)]
        assert all(isinstance(v, int) for row in int_rows for v in row)
        expected = rank_rational(_fraction_rows(idx, i_unit, vectors))
        assert rank_rational(int_rows) == expected == 2 * len(free)
