"""The Darboux descent behind the rational nilpotents, checked exactly.

The closed-form descent in ``cmhodge.acceptance`` is checked against the
route it replaced, kept here as the reference: average coordinate vectors
over the whole group, keep the first 2n that are independent over Q(i),
and run symplectic Gram-Schmidt on them in Q(zeta_M).  The witness, built
from its first row and the Galois action, is checked against the full
(2n)^2 matrix assembly read back with the membership check.
"""

import itertools
from math import gcd

import pytest

from cmhodge import CyclotomicNumber, polynomials, reynolds_average, root_vector
from cmhodge.acceptance import (
    _fixed_symplectic_pairs,
    _gram_matrix,
    _ramanujan_sum,
    rational_nilpotent_examples,
    rational_nilpotent_witness,
)
from cmhodge.algebra import _gauge_units
from cmhodge.cmfield import GaloisCMData
from cmhodge.errors import TheoremViolationError
from cmhodge.linalg import _accumulate, rank_rational
from conftest import first_oriented, fixed_vectors, reference_from_entries

LADDER = [(7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2)), (16, (1, 3, 3, 1))]
# 4 | m (12, 16, 20), odd prime (7, 11, 13), odd composite (9, 15, 21)
ORACLE_LADDER = LADDER[:3] + [
    (12, (1, 1, 1, 1)),
    (13, (1, 5, 5, 1)),
    (15, (1, 3, 3, 1)),
    (16, (1, 3, 3, 1)),
    (20, (1, 3, 3, 1)),
    (21, (1, 5, 5, 1)),
]


@pytest.fixture(scope="module", params=LADDER, ids=lambda case: f"m{case[0]}")
def oriented(request):
    m, hodge = request.param
    return first_oriented(m, 3, hodge)


def _pairing(field, pairing_values, x, y):
    total = CyclotomicNumber.zero(field.working_conductor)
    for k in field.signed_indices():
        total = total + pairing_values[k] * x[k] * y[-k]
    return total


def _act(field, perm, x):
    """The twisted permutation action on vectors: move labels, apply the coefficient automorphism."""
    exp = field.coeff_exponent(perm)
    inv = field.galois.inverse(perm)
    return {a: x[field.act_index(inv, a)].galois(exp) for a in field.signed_indices()}


def _fraction_rows(idx, i_unit, vectors):
    rows = []
    for x in vectors:
        rows.append([f for a in idx for f in x[a].coeffs])
        rows.append([f for a in idx for f in (i_unit * x[a]).coeffs])
    return rows


def _gauge_pairing_values(field):
    """Pairing values on the coordinate vectors in the equivariant gauge, from its units."""
    _, dinv, _, _ = _gauge_units(field)
    i_unit = CyclotomicNumber.i_unit(field.working_conductor)
    out = {}
    for k in range(1, field.n + 1):
        out[k] = dinv[k] * i_unit * field.epsilons[k]
        out[-k] = -out[k]
    return out


def _averaged_fixed_vectors(field):
    """Reference: group averages of zeta_m^a e_k, kept while independent over Q(i)."""
    galois = field.galois
    M = field.working_conductor
    idx = field.signed_indices()
    zero = CyclotomicNumber.zero(M)
    i_unit = CyclotomicNumber.i_unit(M)
    zeta = CyclotomicNumber.root_of_unity(M, M // galois.conductor)
    group = galois.enumerate_group()
    basis = []
    for k, a in itertools.product(idx, range(galois.conductor)):
        seed = {b: zero for b in idx}
        seed[k] = zeta**a
        y = {b: zero for b in idx}
        for g in group:
            moved = _act(field, g, seed)
            y = {b: y[b] + moved[b] for b in idx}
        if all(not y[b] for b in idx):
            continue
        if rank_rational(_fraction_rows(idx, i_unit, basis + [y])) > 2 * len(basis):
            basis.append(y)
        if len(basis) == 2 * field.n:
            return basis
    raise AssertionError("the averages span fewer than 2n dimensions")


def _reference_pairs(field, averages):
    """Reference: symplectic Gram-Schmidt on the averaged vectors, in Q(zeta_M)."""
    idx = field.signed_indices()
    pairing_values = _gauge_pairing_values(field)
    pool = list(averages)
    pairs = []
    while pool:
        u = pool.pop(0)
        for pos, y in enumerate(pool):
            val = _pairing(field, pairing_values, u, y)
            if val:
                mate = pool.pop(pos)
                v = {a: mate[a] / val for a in idx}
                break
        else:
            raise AssertionError("the pairing is degenerate on the averages")
        pairs.append((u, v))
        reduced = []
        for z in pool:
            zv = _pairing(field, pairing_values, z, v)
            zu = _pairing(field, pairing_values, z, u)
            reduced.append({a: z[a] - zv * u[a] + zu * v[a] for a in idx})
        pool = reduced
    return tuple(pairs)


def _full_rank_two_entries(field, pairing_values, s, t):
    """Reference: all (2n)^2 entries of x -> s*Q(t, x) + t*Q(s, x)."""
    idx = field.signed_indices()
    entries = {}
    for a, b in itertools.product(idx, repeat=2):
        val = (s[a] * t[-b] + t[a] * s[-b]) * pairing_values[-b]
        if val:
            entries[(a, b)] = val
    return entries


def _reference_examples(field):
    """Reference: the six named nilpotents as full gauge matrices, read back with the membership check."""
    pairs = _fixed_symplectic_pairs(field)
    d, dinv, pairing_values, _ = _gauge_units(field)

    def rank_two(s, t):
        return _full_rank_two_entries(field, pairing_values, s, t)

    (u1, v1), (u2, v2) = pairs[0], pairs[1]
    open_chain = {}
    for a in range(field.n - 1):
        for key, val in rank_two(pairs[a][0], pairs[a + 1][1]).items():
            _accumulate(open_chain, key, -val)
    full_chain = dict(open_chain)
    for key, val in rank_two(pairs[-1][0], pairs[-1][0]).items():
        _accumulate(full_chain, key, val / 2)
    matrices = [
        ("isotropic-uu", rank_two(u1, u2)),
        ("isotropic-uv", rank_two(u1, v2)),
        ("isotropic-vv", rank_two(v1, v2)),
        ("square-zero", rank_two(u1, u1)),
        ("half-chain", open_chain),
        ("full-chain", full_chain),
    ]
    return [
        (name, reference_from_entries(field, {(a, b): dinv[a] * val * d[b] for (a, b), val in entries.items()}))
        for name, entries in matrices
    ]


@pytest.mark.parametrize("m,hodge", ORACLE_LADDER, ids=[f"m{m}" for m, _ in ORACLE_LADDER])
def test_witness_equals_the_full_matrix_assembly(m, hodge):
    field = first_oriented(m, 3, hodge)
    expected = _reference_examples(field)
    assert rational_nilpotent_examples(field) == expected
    assert rational_nilpotent_witness(field) == expected[-1][1]
    assert all(not v.is_zero() for _, v in expected)


def test_pairs_form_a_darboux_basis(oriented):
    pairs = _fixed_symplectic_pairs(oriented)
    _, _, pairing_values, _ = _gauge_units(oriented)
    assert len(pairs) == oriented.n
    for a, (ua, va) in enumerate(pairs):
        for b, (ub, vb) in enumerate(pairs):
            assert _pairing(oriented, pairing_values, ua, vb) == (1 if a == b else 0)
            assert _pairing(oriented, pairing_values, ua, ub) == 0
            assert _pairing(oriented, pairing_values, va, vb) == 0


def test_fixed_vectors_have_full_fraction_rank(oriented):
    # the Vandermonde argument of _fixed_symplectic_pairs, checked by
    # elimination on the Fraction coordinates of the vectors and their
    # multiples by i
    idx = oriented.signed_indices()
    i_unit = CyclotomicNumber.i_unit(oriented.working_conductor)
    basis = fixed_vectors(oriented)
    assert len(basis) == 2 * oriented.n
    assert rank_rational(_fraction_rows(idx, i_unit, basis)) == 2 * len(basis)


@pytest.mark.parametrize("m,hodge", ORACLE_LADDER, ids=[f"m{m}" for m, _ in ORACLE_LADDER])
def test_pairs_equal_the_averaging_oracle(m, hodge):
    field = first_oriented(m, 3, hodge)
    averages = _averaged_fixed_vectors(field)
    assert fixed_vectors(field) == averages
    assert _fixed_symplectic_pairs(field) == _reference_pairs(field, averages)


def test_fixed_vectors_are_fixed_by_the_generators_and_conjugation(oriented):
    galois = oriented.galois
    for y in fixed_vectors(oriented):
        for g in galois.generators + (galois.conjugation,):
            assert _act(oriented, g, y) == y


def test_gram_matrix_is_the_pairing_of_the_fixed_vectors(oriented):
    pairing_values = _gauge_pairing_values(oriented)
    ys = fixed_vectors(oriented)
    gram = _gram_matrix(oriented.galois.conductor, len(ys))
    for (a, ya), (b, yb) in itertools.product(enumerate(ys), repeat=2):
        assert _pairing(oriented, pairing_values, ya, yb) == gram[a][b]


def test_closed_form_pairing_values_match_the_gauge(oriented):
    _, _, pairing_values, _ = _gauge_units(oriented)
    assert pairing_values == _gauge_pairing_values(oriented)


@pytest.mark.parametrize("m", (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 23, 24, 25, 36, 60))
def test_ramanujan_sum_is_the_trace_of_a_root_of_unity(m):
    units = [lab for lab in range(1, m) if gcd(lab, m) == 1]
    for e in range(-2 * m, 2 * m + 1):
        trace = sum(
            (CyclotomicNumber.root_of_unity(m, lab * e) for lab in units),
            CyclotomicNumber.zero(m),
        )
        assert trace == _ramanujan_sum(m, e)


def test_degenerate_gram_matrix_raises_a_theorem_violation(monkeypatch):
    field = first_oriented(7, 3, (1, 2, 2, 1))
    monkeypatch.setattr(
        "cmhodge.acceptance._gram_matrix", lambda m, size: [[0] * size for _ in range(size)]
    )
    with pytest.raises(TheoremViolationError, match="degenerate"):
        _fixed_symplectic_pairs(field)


def test_witness_makes_no_rank_call_and_no_group_enumeration(monkeypatch):
    field = first_oriented(11, 3, (2, 3, 3, 2))
    calls = []

    def spy(name):
        def refuse(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return refuse

    monkeypatch.setattr("cmhodge.linalg.rank_rational", spy("rank_rational"))
    monkeypatch.setattr("cmhodge.acceptance.rank_rational", spy("rank_rational"))
    monkeypatch.setattr(GaloisCMData, "enumerate_group", spy("enumerate_group"))
    witness = rational_nilpotent_witness(field)
    assert calls == []
    assert not witness.is_zero()


def test_witness_inverts_one_element_per_field(monkeypatch):
    # the gauge units invert q0 = zeta_m - zeta_m^-1 once and conjugate it;
    # the Gram-Schmidt and the fill divide by integers only
    calls = []
    real = polynomials.poly_xgcd

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("cmhodge.cyclotomic.poly_xgcd", counting)
    for m, hodge in LADDER:
        calls.clear()
        rational_nilpotent_witness(first_oriented(m, 3, hodge))
        assert len(calls) == 1


@pytest.mark.parametrize("m,hodge", ORACLE_LADDER, ids=[f"m{m}" for m, _ in ORACLE_LADDER])
def test_gauge_units_equal_one_inverse_per_index(m, hodge):
    # reference: u_k = sigma_k(q0) / (i eps_k), inverted index by index
    field = first_oriented(m, 3, hodge)
    M = field.working_conductor
    step = M // m
    q0 = CyclotomicNumber.root_of_unity(M, step) - CyclotomicNumber.root_of_unity(M, -step)
    i_unit = CyclotomicNumber.i_unit(M)
    d, dinv, _, _ = _gauge_units(field)
    one = CyclotomicNumber.one(M)
    for k in range(1, field.n + 1):
        lift = field.coeff_exponent(field.sigma(field.index_to_label[k]))
        u = q0.galois(lift) / (i_unit * field.epsilons[k])
        assert (d[k], dinv[k]) == (u.inverse(), u)
        assert d[-k] == dinv[-k] == one


def test_polarization_state_is_declared_up_front():
    field = first_oriented(7, 3, (1, 2, 2, 1))
    before = set(vars(field))
    rational_nilpotent_witness(field)
    reynolds_average(field, root_vector(field, 1, 2))
    assert set(vars(field)) == before
    assert field.gauge_units is not None and field.gauge_factors
