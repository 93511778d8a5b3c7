import pytest

from cmhodge import (
    AlgebraElement,
    CyclotomicNumber,
    DomainError,
    build_abstract_cm,
    build_cyclotomic_cm,
    canonical_root_index,
    enumerate_orientations,
    validate_orientation,
)
from cmhodge.algebra import _ratio
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
    pu, pv = u.entries(), v.entries()
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

