import pytest

from cmhodge import (
    build_abstract_cm,
    build_cyclotomic_cm,
    enumerate_orientations,
    validate_orientation,
)


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


@pytest.fixture(scope="session")
def oriented7():
    return first_oriented(7, 3, (1, 2, 2, 1))

