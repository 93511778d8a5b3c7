import pytest

from cmhodge import (
    AlgebraElement,
    CyclotomicNumber,
    DomainError,
    NotNilpotentError,
    build_abstract_cm,
    build_cyclotomic_cm,
    canonical_root_index,
    enumerate_orientations,
    validate_orientation,
)
from cmhodge.algebra import _gauge_units, _ratio
from cmhodge.linalg import _accumulate


def first_oriented(m, weight, hodge):
    galois = build_cyclotomic_cm(m)
    return validate_orientation(
        galois, enumerate_orientations(galois, weight, hodge)[0]
    )


def abstract_z6():
    """Cyclic order-6 datum on string labels; the 3-cycle keeps signs clean."""
    labels = ("a", "b", "c", "A", "B", "C")
    rot = ("b", "c", "a", "B", "C", "A")
    conj = ("A", "B", "C", "a", "b", "c")
    return build_abstract_cm(labels, (rot,), conj)


def entries(v):
    """Reference: the sparse 2n x 2n realization {(row, col): coefficient} on signed indices.

    One rule covers every X_{i,j} = E_{i,j} + ratio(i, j) E_{-j,-i}: with
    ratio(i, i) = -1 and ratio(i, -i) = 1 it gives X_{i,i} = E_{i,i} - E_{-i,-i}
    and X_{i,-i} = 2 E_{i,-i}.
    """
    out = {}
    for (i, j), c in v.coeffs.items():
        _accumulate(out, (i, j), c)
        _accumulate(out, (-j, -i), c * _ratio(v.field, i, j))
    return out


def reference_galois_act(field, perm, v):
    """Reference: the Galois action of a cyclotomic field from per-index factors, all rebuilt per call.

    g (c X_{i,j}) = sigma(c) factor(i) cofactor(j) X_{g i, g j}, sigma the
    coefficient automorphism of g, factor(k) = sigma(d_k) d^-1_{g k} and
    cofactor(k) = sigma(d^-1_k) d_{g k} in the gauge of
    ``algebra._gauge_units``.  Both factors are built for all 2n indices and
    each coefficient meets them in two products; the image is folded onto
    its canonical root by X_{-j,-i} = ratio(i, j) X_{i,j}.
    """
    exp = field.coeff_exponent(perm)
    d, dinv, _, _ = _gauge_units(field)
    factor = {}
    cofactor = {}
    for k in field.signed_indices():
        kk = field.act_index(perm, k)
        factor[k] = d[k].galois(exp) * dinv[kk]
        cofactor[k] = dinv[k].galois(exp) * d[kk]
    out = {}
    for (i, j), c in v.coeffs.items():
        ii = field.act_index(perm, i)
        jj = field.act_index(perm, j)
        cc = c.galois(exp) * factor[i] * cofactor[j]
        canon = canonical_root_index(field.n, ii, jj)
        _accumulate(out, canon, cc if canon == (ii, jj) else cc * _ratio(field, ii, jj))
    return AlgebraElement(field, out, _raw=True)


def _matrix_power_degree(v):
    """Reference: multiply out N, N^2, ... until the power vanishes or reaches N^(2n)."""
    rows = {}
    for (a, b), x in entries(v).items():
        rows.setdefault(a, {})[b] = x
    power = rows
    degree = 1
    while power:
        if degree >= 2 * v.field.n:
            raise NotNilpotentError("the realization is not nilpotent")
        nxt = {}
        for a, row in power.items():
            out = {}
            for b, x in row.items():
                for c, y in rows.get(b, {}).items():
                    out[c] = out[c] + x * y if c in out else x * y
            out = {c: z for c, z in out.items() if z}
            if out:
                nxt[a] = out
        power = nxt
        degree += 1
    return degree


def reference_from_entries(field, entries):
    """Reference: read an element off a full sparse matrix, checking membership.

    The symplectic condition forces entry(-j, -i) = ratio(i, j) * entry(i, j)
    off the diagonal and entry(-i, -i) = -entry(i, i) on it; any mismatch
    means the matrix is outside the algebra and raises ``DomainError``.
    """
    zero = CyclotomicNumber.zero(field.working_conductor)
    coeffs = {}
    for (a, b), c in entries.items():
        if b == -a:
            coeffs[(a, b)] = c / 2  # X_{a,-a} = 2 E_{a,-a}
            continue
        mate = entries.get((-b, -a), zero)
        if mate != c * _ratio(field, a, b):
            raise DomainError(
                f"entries at {(a, b)} and {(-b, -a)} break the symplectic pairing",
                reason="not-in-algebra",
            )
        if canonical_root_index(field.n, a, b) == (a, b):
            coeffs[(a, b)] = c
    return AlgebraElement(field, coeffs, _raw=True)


def fixed_vectors(field):
    """Reference: the 2n fixed vectors y_a (a = 0..2n-1), coordinate zeta_m^(a*l(k)) at index k.

    ``acceptance._fixed_symplectic_pairs`` embeds its Darboux pairs in these
    vectors without building them, and ``algebra._fixed_form`` writes
    matrices on them; this builds them one root of unity at a time.
    """
    M = field.working_conductor
    step = M // field.galois.conductor
    labels = field.index_to_label
    return [
        {k: CyclotomicNumber.root_of_unity(M, step * a * labels[k]) for k in field.signed_indices()}
        for a in range(2 * field.n)
    ]


def reference_bracket(u, v):
    """Reference: the matrix commutator of the realizations, read back with the membership check."""
    pu, pv = entries(u), entries(v)
    out = {}
    for (a, b), x in pu.items():
        for (c, d), y in pv.items():
            if b == c:
                _accumulate(out, (a, d), x * y)
            if d == a:
                _accumulate(out, (c, b), -(y * x))
    return reference_from_entries(u.field, out)


@pytest.fixture(scope="session")
def oriented7():
    return first_oriented(7, 3, (1, 2, 2, 1))

