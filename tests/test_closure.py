"""The split-prime closure in generated_subalgebra against the exact SpanBasis closure."""

import random
from fractions import Fraction

import pytest

from cmhodge import (
    CyclotomicNumber,
    Orientation,
    all_root_indices,
    cartan_elements,
    element_from_coeffs,
    generated_subalgebra,
    root_vector,
    validate_orientation,
)
from cmhodge import algebra
from cmhodge.acceptance import rational_nilpotent_witness
from cmhodge.linalg import ModularSpan, SpanBasis, UnluckyPrimeError, split_prime
from conftest import abstract_z6, first_oriented

# the escape benchmark's fields, then m = 13 (n = 6) past them
LADDER = [(7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (16, (1, 3, 3, 1)), (11, (2, 3, 3, 2)), (13, (1, 5, 5, 1))]


def exact_closure(seeds):
    """The reference: the same sweep, with every independence test exact."""
    return algebra._closure(list(seeds), SpanBasis())


@pytest.fixture
def routes(monkeypatch):
    """The spans generated_subalgebra builds, in order: "modular" and "exact"."""
    used = []

    class Exact(SpanBasis):
        def __init__(self):
            super().__init__()
            used.append("exact")

    class Modular(ModularSpan):
        def __init__(self, M):
            super().__init__(M)
            used.append("modular")

    monkeypatch.setattr(algebra, "SpanBasis", Exact)
    monkeypatch.setattr(algebra, "ModularSpan", Modular)
    return used


def check_against_exact(seeds, routes, forced_exact=False):
    """generated_subalgebra agrees with the exact closure, and is modular only at ambient."""
    dim, basis = generated_subalgebra(seeds)
    ref_dim, ref_basis = exact_closure(seeds)
    assert dim == ref_dim == len(basis)
    assert basis == ref_basis  # so the CLI's basis_supports agree too
    n = seeds[0].field.n
    modular_only = dim == n * (2 * n + 1) and not forced_exact
    assert routes == (["modular"] if modular_only else ["modular", "exact"])
    routes.clear()
    return dim


@pytest.fixture(scope="module", params=LADDER, ids=lambda case: f"m{case[0]}")
def witness_case(request):
    m, hodge = request.param
    field = first_oriented(m, 3, hodge)
    return field, rational_nilpotent_witness(field)


def test_escape_witness_closures_take_the_modular_route(witness_case, routes):
    field, witness = witness_case
    n = field.n
    assert check_against_exact(cartan_elements(field) + [witness], routes) == n * (2 * n + 1)


def test_m23_witness_closure_takes_the_modular_route(routes):
    # n = 11, a CI rung; the ladder's m = 13 case carries the exact comparison
    field = first_oriented(23, 3, (1, 10, 10, 1))
    seeds = cartan_elements(field) + [rational_nilpotent_witness(field)]
    dim, basis = generated_subalgebra(seeds)
    assert dim == len(basis) == 253 and routes == ["modular"]


def _random_coefficient(rng, M, cyclotomic):
    k = rng.choice([-3, -2, -1, 1, 2, 3])
    if not cyclotomic:
        return k
    return CyclotomicNumber.root_of_unity(M, rng.randrange(M)) * Fraction(k, rng.choice([1, 1, 2, 3]))


# At m = 11 supports are either small or large, and coefficients are ints:
# the exact reference needs tens of seconds for a 46-dimensional closure
# with generic cyclotomic coefficients.
@pytest.mark.parametrize(
    "m,hodge,cases,cyclotomic,size",
    [
        (7, (1, 2, 2, 1), 64, True, lambda rng, t: rng.randint(1, 8)),
        (11, (2, 3, 3, 2), 16, False, lambda rng, t: rng.randint(1, 4) if t % 2 else rng.randint(20, 30)),
    ],
    ids=["m7", "m11"],
)
def test_random_cartan_seeded_supports(m, hodge, cases, cyclotomic, size, routes):
    field = first_oriented(m, 3, hodge)
    M = field.working_conductor
    roots = [ij for ij in all_root_indices(field.n) if ij[0] != ij[1]]
    rng = random.Random(f"closure-supports-{m}")
    dims = set()
    for t in range(cases):
        support = rng.sample(roots, size(rng, t))
        element = element_from_coeffs(
            field, {ij: _random_coefficient(rng, M, cyclotomic) for ij in support}
        )
        dims.add(check_against_exact(cartan_elements(field) + [element], routes))
    # both routes are exercised: some closures stay below ambient, some reach it
    n = field.n
    assert n * (2 * n + 1) in dims and min(dims) < n * (2 * n + 1)


def test_closures_below_ambient_take_the_exact_route(oriented7, routes):
    n = oriented7.n
    x12 = root_vector(oriented7, 1, 2)
    x21 = root_vector(oriented7, 2, 1)
    assert check_against_exact([x12], routes) == 1
    assert check_against_exact([x12, x21], routes) == 3
    positive = [
        root_vector(oriented7, i, j)
        for i, j in all_root_indices(n)
        if i > 0 and i != j and (j < 0 or i < j)
    ]
    assert check_against_exact(positive, routes) == n * n
    borel = cartan_elements(oriented7) + positive
    assert check_against_exact(borel, routes) == n * (n + 1)


def test_abstract_field_closures(routes):
    galois = abstract_z6()
    bidegrees = {"a": (3, 0), "b": (2, 1), "c": (2, 1), "A": (0, 3), "B": (1, 2), "C": (1, 2)}
    field = validate_orientation(galois, Orientation(3, bidegrees))
    assert field.working_conductor == 4
    cartan = cartan_elements(field)
    # the simple root vectors and their negatives generate all of sp(6)
    simple = [(1, 2), (2, 3), (3, -3), (2, 1), (3, 2), (-3, 3)]
    sl2s = element_from_coeffs(field, {ij: 1 for ij in simple})
    assert check_against_exact(cartan + [sl2s], routes) == 21
    assert check_against_exact(cartan + [root_vector(field, 1, 2)], routes) == 4


def test_denominator_divisible_by_the_prime_forces_the_exact_route(witness_case, routes):
    field, witness = witness_case
    p, _ = split_prime(field.working_conductor)
    n = field.n
    seeds = cartan_elements(field) + [witness * Fraction(1, p)]
    assert check_against_exact(seeds, routes, forced_exact=True) == n * (2 * n + 1)


def _in_the_prime(field):
    """zeta - omega: a nonzero p-integral coefficient whose image mod p is zero."""
    M = field.working_conductor
    _, omega = split_prime(M)
    return CyclotomicNumber.root_of_unity(M, 1) - omega


def test_an_element_that_vanishes_mod_p_is_still_counted(oriented7, routes):
    c = _in_the_prime(oriented7)
    assert c and ModularSpan(oriented7.working_conductor)._image(c) == 0
    x12 = root_vector(oriented7, 1, 2)
    assert check_against_exact([x12 * c], routes) == 1
    assert check_against_exact(cartan_elements(oriented7) + [x12 * c], routes) == 4


def test_a_false_modular_reject_still_certifies_the_dimension(oriented7, routes):
    # every root vector, one of them scaled by an element of the prime: the
    # modular pass rejects that seed, then reaches it again as a bracket
    n = oriented7.n
    ambient = n * (2 * n + 1)
    c = _in_the_prime(oriented7)
    seeds = [
        root_vector(oriented7, i, j) * (c if (i, j) == (1, 2) else 1)
        for i, j in all_root_indices(n)
    ]
    dim, basis = generated_subalgebra(seeds)
    ref_dim, ref_basis = exact_closure(seeds)
    assert dim == ref_dim == ambient and routes == ["modular"]
    assert basis != ref_basis
    # the modular basis is independent over Q(zeta_M), as the certificate says
    coord_of = {ij: t for t, ij in enumerate(all_root_indices(n))}
    span = SpanBasis()
    assert all(span.insert(b.vector(coord_of)) for b in basis)


def reduced_exact_closure(seeds):
    """The closure with exact brackets whose images are inserted mod p, rerun exactly below ambient."""
    field = seeds[0].field
    n = field.n
    try:
        dim, basis = algebra._closure(seeds, ModularSpan(field.working_conductor))
    except UnluckyPrimeError:
        dim = None
    if dim == n * (2 * n + 1):
        return dim, basis
    return exact_closure(seeds)


def _random_cartan_seeds(cases):
    """Cartan plus one element of random support and cyclotomic coefficients, at m = 7."""
    field = first_oriented(7, 3, (1, 2, 2, 1))
    M = field.working_conductor
    roots = [ij for ij in all_root_indices(field.n) if ij[0] != ij[1]]
    rng = random.Random("closure-residues-7")
    for _ in range(cases):
        support = rng.sample(roots, rng.randint(1, 8))
        element = element_from_coeffs(field, {ij: _random_coefficient(rng, M, True) for ij in support})
        yield cartan_elements(field) + [element]


def _seed_sets(witness_case):
    field, witness = witness_case
    yield cartan_elements(field) + [witness]
    if field.galois.conductor == 7:
        yield from _random_cartan_seeds(24)


def test_residue_bracket_is_the_image_of_the_bracket(witness_case):
    for seeds in _seed_sets(witness_case):
        field = seeds[0].field
        span = ModularSpan(field.working_conductor)
        elements = seeds + [algebra.bracket(u, v) for u in seeds for v in seeds[-2:]]
        for u in elements:
            for v in elements[-4:]:
                image = algebra._residue_bracket(field, span.prime, algebra._residues(span, u), algebra._residues(span, v))
                assert image == algebra._residues(span, algebra.bracket(u, v))


def test_residue_closure_equals_the_closure_of_reduced_exact_brackets(witness_case, monkeypatch):
    exact = []
    bracket = algebra.bracket
    monkeypatch.setattr(algebra, "bracket", lambda u, v: exact.append(1) or bracket(u, v))
    dims = set()
    for seeds in _seed_sets(witness_case):
        n = seeds[0].field.n
        ambient = n * (2 * n + 1)
        exact.clear()
        dim, basis = generated_subalgebra(seeds)
        if dim == ambient:
            # the accepted brackets, and no others, are computed exactly
            accepted_seeds = sum(1 for b in basis if any(b is s for s in seeds))
            assert len(exact) == ambient - accepted_seeds
        assert (dim, basis) == reduced_exact_closure(seeds)
        dims.add(dim)
    if witness_case[0].galois.conductor == 7:
        assert 21 in dims and min(dims) < 21
