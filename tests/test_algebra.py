import itertools
import random
from fractions import Fraction

import pytest

from cmhodge import (
    ConductorMismatchError,
    CyclotomicNumber,
    DomainError,
    NotNilpotentError,
    Orientation,
    UsageError,
    all_root_indices,
    bidegree,
    bracket,
    build_cyclotomic_cm,
    canonical_root_index,
    cartan_elements,
    element_from_coeffs,
    element_from_json,
    enumerate_orientations,
    euler_phi,
    galois_act_element,
    generated_subalgebra,
    is_rational,
    rational_nilpotency_degree,
    reynolds_average,
    root_vector,
    validate_orientation,
    zero_element,
)
from cmhodge import cyclotomic
from cmhodge.acceptance import _first_oriented
from cmhodge.algebra import _ratio
from conftest import (
    _matrix_power_degree,
    abstract_z6,
    entries,
    first_oriented,
    reference_bracket,
    reference_from_entries,
    reference_galois_act,
)


def test_default_polarization_signs(oriented7):
    assert {k: oriented7.epsilons[k] for k in (1, 2, 3)} == {1: 1, 2: -1, 3: -1}
    i_unit = CyclotomicNumber.i_unit(oriented7.working_conductor)
    for k in oriented7.signed_indices():
        # Q_k = epsilon_k * i meets the positivity convention i^(p-q) Q_k > 0
        p, q = oriented7.bidegree_of_index(k)
        assert i_unit ** ((p - q + 1) % 4) * oriented7.epsilons[k] == 1
        assert oriented7.epsilons[-k] == -oriented7.epsilons[k]


def test_ratios_are_sign_products(oriented7):
    assert _ratio(oriented7, 1, 2) == 1
    assert _ratio(oriented7, 2, 3) == -1
    assert _ratio(oriented7, 1, 3) == 1
    assert _ratio(oriented7, 1, -1) == 1
    # mirror pairs share the ratio of the flipped order
    assert _ratio(oriented7, -3, -2) == -1


def test_canonical_root_index_folding():
    assert canonical_root_index(3, 1, 2) == (1, 2)
    assert canonical_root_index(3, -2, -1) == (1, 2)
    assert canonical_root_index(3, 3, -1) == (1, -3)
    assert canonical_root_index(3, 2, 2) == (2, 2)
    assert canonical_root_index(3, -2, -2) == (2, 2)


def test_all_root_indices_count():
    idx = all_root_indices(3)
    assert len(idx) == 21
    assert len(set(idx)) == 21
    assert idx[0] == (1, 1)
    for i, j in idx:
        assert canonical_root_index(3, i, j) == (i, j)


def test_root_vector_entries(oriented7):
    x12 = root_vector(oriented7, 1, 2)
    assert entries(x12) == {
        (1, 2): CyclotomicNumber.one(28),
        (-2, -1): CyclotomicNumber.one(28) * _ratio(oriented7, 1, 2),
    }
    x11 = root_vector(oriented7, 1, 1)
    assert entries(x11) == {
        (1, 1): CyclotomicNumber.one(28),
        (-1, -1): -CyclotomicNumber.one(28),
    }
    x1m1 = root_vector(oriented7, 1, -1)
    assert entries(x1m1) == {(1, -1): CyclotomicNumber.from_rational(28, 2)}


def test_element_from_coeffs_folds_mirror_indices(oriented7):
    folded = element_from_coeffs(oriented7, {(-3, -2): 1})
    assert folded.support() == ((2, 3),)
    assert folded == root_vector(oriented7, 2, 3) * _ratio(oriented7, -3, -2)


def test_element_arithmetic_and_zero(oriented7):
    x12 = root_vector(oriented7, 1, 2)
    x23 = root_vector(oriented7, 2, 3)
    s = x12 + x23
    assert s - x23 == x12
    assert (s * 0).is_zero()
    assert -x12 + x12 == zero_element(oriented7)
    assert x12 * 3 == x12 + x12 + x12


def test_entries_round_trip(oriented7):
    i_unit = CyclotomicNumber.i_unit(28)
    v = (
        root_vector(oriented7, 1, 2) * i_unit
        + root_vector(oriented7, 2, -2)
        + root_vector(oriented7, 3, 3) * 5
    )
    assert reference_from_entries(oriented7, entries(v)) == v


def test_tampered_entries_rejected(oriented7):
    good = entries(root_vector(oriented7, 2, 3))
    bad = dict(good)
    bad[(-3, -2)] = -bad[(-3, -2)]
    with pytest.raises(DomainError) as err:
        reference_from_entries(oriented7, bad)
    assert err.value.reason == "not-in-algebra"

    diag = entries(root_vector(oriented7, 1, 1))
    diag_bad = dict(diag)
    diag_bad[(-1, -1)] = diag_bad[(1, 1)]
    with pytest.raises(DomainError):
        reference_from_entries(oriented7, diag_bad)


def test_element_json_round_trip(oriented7):
    v = root_vector(oriented7, 1, -2) * CyclotomicNumber.root_of_unity(28, 5)
    assert element_from_json(v.to_json()) == v
    with pytest.raises(UsageError):
        element_from_json({"terms": []})


@pytest.mark.parametrize("conductor", [8, 10**6])
def test_a_foreign_coefficient_conductor_is_refused_before_its_arithmetic(oriented7, monkeypatch, conductor):
    doc = root_vector(oriented7, 1, 2).to_json()
    doc["terms"].append({"i": 1, "j": 1, "coeff": {"conductor": conductor, "coeffs": ["1/1"]}})
    built = []
    context = cyclotomic._context

    def spy(c):
        # refuses instead of building, so a regression fails fast rather than hangs
        built.append(c)
        if c == conductor:
            raise AssertionError(f"the arithmetic of conductor {c} was built")
        return context(c)

    monkeypatch.setattr(cyclotomic, "_context", spy)
    with pytest.raises(ConductorMismatchError):
        element_from_json(doc)
    assert conductor not in built


def test_grading_eigenvalues(oriented7):
    # X_{1,2} moves (p,q) up by p(1) - p(2) = 3 - 2
    assert bidegree(oriented7, 1, 2) == 1
    assert bidegree(oriented7, 1, -1) == 3
    assert bidegree(oriented7, 2, 2) == 0
    assert bidegree(oriented7, -1, 3) == -2


def test_basic_bracket_identities(oriented7):
    x12 = root_vector(oriented7, 1, 2)
    x21 = root_vector(oriented7, 2, 1)
    x11 = root_vector(oriented7, 1, 1)
    x22 = root_vector(oriented7, 2, 2)
    x23 = root_vector(oriented7, 2, 3)
    assert bracket(x12, x21) == x11 - x22
    assert bracket(x11, x12) == x12
    assert bracket(x11, x23).is_zero()
    assert bracket(x12, x12).is_zero()


def test_long_root_sl2(oriented7):
    up = root_vector(oriented7, 1, -1)
    down = root_vector(oriented7, -1, 1)
    h = root_vector(oriented7, 1, 1)
    assert bracket(up, down) == h * 4
    assert bracket(h, up) == up * 2
    assert bracket(h, down) == down * -2


def test_chain_brackets_compose_exactly(oriented7):
    indices = [1, 2, 3, -1, -2, -3]
    checked = 0
    for l, k, m in itertools.permutations(indices, 3):
        if len({abs(l), abs(k), abs(m)}) != 3:
            continue
        lhs = bracket(
            root_vector(oriented7, l, k), root_vector(oriented7, k, m)
        )
        assert lhs == root_vector(oriented7, l, m), (l, k, m)
        checked += 1
    assert checked == 48


def _degree_or_error(fn, v):
    try:
        return fn(v)
    except NotNilpotentError as exc:
        return (type(exc), exc.reason, str(exc))


NILPOTENT_LADDER = [(7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2)), (16, (1, 3, 3, 1))]


@pytest.mark.parametrize("m,hodge", NILPOTENT_LADDER, ids=[f"m{m}" for m, _ in NILPOTENT_LADDER])
def test_nilpotency_degree_matches_matrix_powers_on_rational_nilpotents(m, hodge):
    from cmhodge.acceptance import rational_nilpotent_examples

    field = first_oriented(m, 3, hodge)
    degrees = {}
    for name, v in rational_nilpotent_examples(field):
        degrees[name] = rational_nilpotency_degree(v)
        assert degrees[name] == _matrix_power_degree(v), name
    assert degrees["square-zero"] == 2
    assert degrees["full-chain"] == 2 * field.n


def test_nilpotency_degree_of_zero_is_one(oriented7):
    zero = zero_element(oriented7)
    assert rational_nilpotency_degree(zero) == _matrix_power_degree(zero) == 1


def test_nilpotency_degree_raises_like_matrix_powers(oriented7):
    x12 = root_vector(oriented7, 1, 2)
    principal = x12 + root_vector(oriented7, 2, 3) + root_vector(oriented7, 3, -3)
    # the rational route takes rational elements only, so each case is averaged
    seeds = [principal + root_vector(oriented7, 1, 1), x12 + root_vector(oriented7, 3, 3), x12]
    for seed in seeds:
        v = reynolds_average(oriented7, seed)
        assert is_rational(oriented7, v)
        got = _degree_or_error(rational_nilpotency_degree, v)
        assert isinstance(got, tuple)
        assert got == _degree_or_error(_matrix_power_degree, v)
        assert got[1] == "not-nilpotent"


# odd prime, prime power and composite m (fixed field Q(i)), and 4 | m (fixed field Q)
RATIONAL_FORM_FIELDS = [
    (7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2)), (12, (1, 1, 1, 1)),
    (15, (1, 3, 3, 1)), (16, (1, 3, 3, 1)), (20, (1, 3, 3, 1)), (21, (1, 5, 5, 1)),
]


@pytest.mark.parametrize("m,hodge", RATIONAL_FORM_FIELDS, ids=[f"m{m}" for m, _ in RATIONAL_FORM_FIELDS])
def test_rational_form_degree_equals_the_krylov_oracle_on_the_examples(m, hodge):
    # the oracle is the conftest matrix-power reference
    from cmhodge.acceptance import rational_nilpotent_examples

    field = first_oriented(m, 3, hodge)
    degrees = {}
    for name, v in rational_nilpotent_examples(field) + [("zero", zero_element(field))]:
        degrees[name] = rational_nilpotency_degree(v)
        assert degrees[name] == _matrix_power_degree(v), name
    assert degrees["zero"] == 1
    assert degrees["square-zero"] == 2
    assert degrees["full-chain"] == 2 * field.n


@pytest.mark.parametrize("m,hodge", RATIONAL_FORM_FIELDS, ids=[f"m{m}" for m, _ in RATIONAL_FORM_FIELDS])
def test_rational_form_degree_equals_the_krylov_oracle_on_reynolds_averages(m, hodge):
    # the oracle is the conftest matrix-power reference
    field = first_oriented(m, 3, hodge)
    M = field.working_conductor
    roots = all_root_indices(field.n)
    rng = random.Random(f"rational-form-{m}")
    seeds = [root_vector(field, 1, 2)]
    for _ in range(6):
        support = rng.sample(roots, rng.randrange(1, 4))
        seeds.append(element_from_coeffs(
            field, {ij: CyclotomicNumber.root_of_unity(M, rng.randrange(M)) * rng.choice((-2, 1, 3)) for ij in support}
        ))
    outcomes = []
    for seed in seeds:
        v = reynolds_average(field, seed)
        got = _degree_or_error(rational_nilpotency_degree, v)
        assert got == _degree_or_error(_matrix_power_degree, v)
        outcomes.append(got)
    # most averages keep a Cartan-like part, so the raising branch is exercised
    assert "not-nilpotent" in {o[1] for o in outcomes if isinstance(o, tuple)}


@pytest.mark.parametrize("m,hodge", [(7, (1, 2, 2, 1)), (12, (1, 1, 1, 1))], ids=["m7", "m12"])
def test_rational_form_degree_of_zero_is_one(m, hodge):
    assert rational_nilpotency_degree(zero_element(first_oriented(m, 3, hodge))) == 1


def test_rational_form_degree_of_the_m23_witness():
    from cmhodge.acceptance import rational_nilpotent_witness

    field = first_oriented(23, 3, (1, 10, 10, 1))
    assert rational_nilpotency_degree(rational_nilpotent_witness(field)) == 22


def test_verdicts_take_the_rational_form_on_cyclotomic_fields_only(monkeypatch, oriented7):
    from cmhodge import graphs
    from cmhodge.acceptance import rational_nilpotent_witness

    calls = []

    def spy(v):
        calls.append(v)
        return rational_nilpotency_degree(v)

    monkeypatch.setattr(graphs, "rational_nilpotency_degree", spy)
    witness = rational_nilpotent_witness(oriented7)
    assert graphs.trivial_partition_check(witness)["nilpotency_degree"] == 6
    assert calls == [witness]
    galois = abstract_z6()
    orientation = enumerate_orientations(galois, 3, (1, 2, 2, 1))[0]
    zero = zero_element(validate_orientation(galois, orientation))
    with pytest.raises(DomainError) as err:
        graphs.trivial_partition_check(zero)
    assert err.value.reason == "rationality-needs-cyclotomic"
    assert calls == [witness]


def test_generated_subalgebra_dimensions(oriented7):
    x12 = root_vector(oriented7, 1, 2)
    x21 = root_vector(oriented7, 2, 1)
    assert generated_subalgebra([x12])[0] == 1
    assert generated_subalgebra([x12, x21])[0] == 3
    with pytest.raises(UsageError):
        generated_subalgebra([])


@pytest.mark.parametrize(
    "m,weight,hodge,expected",
    [(7, 3, (1, 2, 2, 1), 21), (16, 3, (1, 3, 3, 1), 36)],
)
def test_all_roots_close_to_full_algebra(m, weight, hodge, expected):
    field = first_oriented(m, weight, hodge)
    seeds = [root_vector(field, i, j) for i, j in all_root_indices(field.n)]
    dim, _ = generated_subalgebra(seeds)
    assert dim == expected == field.n * (2 * field.n + 1)


def test_galois_action_moves_support(oriented7):
    x12 = root_vector(oriented7, 1, 2)
    moved = galois_act_element(oriented7, oriented7.sigma(3), x12)
    # index pair (1,2) lands on (3,-1), canonically stored at (1,-3)
    assert moved.support() == ((1, -3),)
    unit = moved.coeffs[(1, -3)]
    assert not unit.is_rational_value()
    assert moved == root_vector(oriented7, 1, -3) * unit


def test_identity_acts_trivially(oriented7):
    v = root_vector(oriented7, 1, 2) + root_vector(oriented7, 3, -1) * 2
    assert galois_act_element(oriented7, oriented7.galois.identity(), v) == v


@pytest.mark.parametrize("m,weight,hodge", [(7, 3, (1, 2, 2, 1)), (16, 3, (1, 3, 3, 1))])
def test_galois_action_composes(m, weight, hodge):
    field = first_oriented(m, weight, hodge)
    group = field.galois.enumerate_group()
    rng = random.Random(f"action-{m}")
    idx = all_root_indices(field.n)
    for _ in range(6):
        i, j = rng.choice(idx)
        c = CyclotomicNumber.root_of_unity(
            field.working_conductor, rng.randrange(field.working_conductor)
        )
        v = root_vector(field, i, j) * c
        g = rng.choice(group)
        h = rng.choice(group)
        gh = field.galois.compose(g, h)
        assert galois_act_element(field, gh, v) == galois_act_element(
            field, g, galois_act_element(field, h, v)
        )


def test_galois_action_commutes_with_bracket(oriented7):
    group = oriented7.galois.enumerate_group()
    u = root_vector(oriented7, 1, 2) * CyclotomicNumber.root_of_unity(28, 3)
    v = root_vector(oriented7, 2, -3)
    for g in group:
        lhs = galois_act_element(oriented7, g, bracket(u, v))
        rhs = bracket(
            galois_act_element(oriented7, g, u), galois_act_element(oriented7, g, v)
        )
        assert lhs == rhs


def test_reynolds_lands_in_fixed_space(oriented7):
    x12 = root_vector(oriented7, 1, 2)
    assert not is_rational(oriented7, x12)
    avg = reynolds_average(oriented7, x12)
    assert not avg.is_zero()
    assert is_rational(oriented7, avg)
    assert avg.support() == ((1, 2), (1, -3), (2, 1), (2, -3), (-1, 3), (-2, 3))
    # averaging an invariant multiplies by the group order
    assert reynolds_average(oriented7, avg) == avg * oriented7.galois.group_order


def test_conjugation_negates_diagonal(oriented7):
    h = cartan_elements(oriented7)[0]
    conj = oriented7.galois.conjugation
    assert galois_act_element(oriented7, conj, h) == -h
    assert not is_rational(oriented7, h)


# odd prime, prime power and composite m, and 4 | m; cyclic and non-cyclic (Z/m)^*
PREMISE_FIELDS = [
    (7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2)), (12, (1, 1, 1, 1)), (13, (1, 5, 5, 1)),
    (15, (1, 3, 3, 1)), (16, (1, 3, 3, 1)), (20, (1, 3, 3, 1)), (21, (1, 5, 5, 1)),
]


def _word_for_conjugation(galois):
    """Generators whose product is conjugation, multiplication by -1: a breadth-first path from 1 to m - 1."""
    m = galois.conductor
    parent = {1: None}
    queue = [1]
    for a in queue:
        for g in galois.generators:
            b = galois.apply(g, a)
            if b not in parent:
                parent[b] = (a, g)
                queue.append(b)
    assert m - 1 in parent, "conjugation is not a word in the generators"
    word = []
    a = m - 1
    while parent[a] is not None:
        a, g = parent[a]
        word.append(g)
    return word


def _random_elements(field, rng, count):
    M = field.working_conductor
    roots = all_root_indices(field.n)
    out = []
    for _ in range(count):
        support = rng.sample(roots, rng.randrange(1, 4))
        coeffs = {
            ij: CyclotomicNumber.root_of_unity(M, rng.randrange(M)) * rng.choice((-2, 1, 3))
            for ij in support
        }
        out.append(element_from_coeffs(field, coeffs))
    return out


def _fixed_by_generators_and_conjugation(field, v):
    """Reference: the rationality check that also applies conjugation."""
    galois = field.galois
    return all(galois_act_element(field, g, v) == v for g in galois.generators + (galois.conjugation,))


@pytest.mark.parametrize("m,hodge", PREMISE_FIELDS, ids=[f"m{m}" for m, _ in PREMISE_FIELDS])
def test_conjugation_acts_as_a_word_in_the_generators(m, hodge):
    field = first_oriented(m, 3, hodge)
    galois = field.galois
    word = _word_for_conjugation(galois)
    rng = random.Random(f"conjugation-word-{m}")
    randoms = _random_elements(field, rng, 4)
    for v in randoms + [reynolds_average(field, u) for u in randoms[:2]]:
        moved = v
        for g in word:
            moved = galois_act_element(field, g, moved)
        assert moved == galois_act_element(field, galois.conjugation, v)


@pytest.mark.parametrize("m,hodge", PREMISE_FIELDS, ids=[f"m{m}" for m, _ in PREMISE_FIELDS])
def test_is_rational_agrees_with_the_check_that_applies_conjugation(m, hodge):
    from cmhodge.acceptance import rational_nilpotent_examples, rational_nilpotent_witness

    field = first_oriented(m, 3, hodge)
    conj = field.galois.conjugation
    rng = random.Random(f"rationality-{m}")
    randoms = _random_elements(field, rng, 4)
    rational = [rational_nilpotent_witness(field)]
    rational += [v for _, v in rational_nilpotent_examples(field)]
    rational += [reynolds_average(field, u) for u in randoms]
    # u + conj(u) is fixed by conjugation but not rational: the generators must catch it
    conj_fixed = [u + galois_act_element(field, conj, u) for u in randoms]
    not_rational = randoms + conj_fixed + cartan_elements(field)
    for v in rational + not_rational:
        assert is_rational(field, v) == _fixed_by_generators_and_conjugation(field, v)
    assert all(is_rational(field, v) for v in rational)
    assert not any(is_rational(field, v) for v in not_rational)


BALANCED_Z6 = {"a": (3, 0), "b": (2, 1), "c": (2, 1), "A": (0, 3), "B": (1, 2), "C": (1, 2)}
ABSTRACT_REFUSAL = (
    "rationality needs the Galois action on a cyclotomic field; an abstract field has none"
)


def _assert_refused(call, *args):
    with pytest.raises(DomainError) as err:
        call(*args)
    assert err.value.reason == "rationality-needs-cyclotomic"
    assert str(err.value) == ABSTRACT_REFUSAL


def test_is_rational_on_an_abstract_field_still_checks_conjugation():
    galois = abstract_z6()
    field = validate_orientation(galois, Orientation(3, BALANCED_Z6))
    assert galois.group_generators == galois.generators + (galois.conjugation,)
    # the 3-cycle permutes the Cartan index pairs, conjugation sends X_kk to
    # X_{-k,-k} = -X_kk; but no coefficient automorphism goes with either
    h = sum(cartan_elements(field)[1:], cartan_elements(field)[0])
    rot = galois.generators[0]
    assert sorted(field.act_index(rot, k) for k in (1, 2, 3)) == [1, 2, 3]
    assert [field.act_index(galois.conjugation, k) for k in (1, 2, 3)] == [-1, -2, -3]
    assert sum((root_vector(field, -k, -k) for k in (2, 3)), root_vector(field, -1, -1)) == -h
    for g in galois.group_generators:
        _assert_refused(galois_act_element, field, g, h)
    _assert_refused(is_rational, field, h)


def test_abstract_action_is_bare_substitution():
    # the labels move, but there is no coefficient action to move with them
    galois = abstract_z6()
    field = validate_orientation(galois, Orientation(3, BALANCED_Z6))
    rot = galois.generators[0]
    assert [field.act_index(rot, k) for k in (1, 2, 3)] == [2, 3, 1]
    _assert_refused(galois_act_element, field, rot, root_vector(field, 1, 2))


def test_abstract_extreme_orientation_average_is_fixed(monkeypatch):
    # with every sign on one side the ratios are orbit-constant, but an
    # abstract field still has no coefficient action, so no average is taken
    # and the group is never listed
    galois = abstract_z6()
    extreme = validate_orientation(
        galois,
        Orientation(
            3,
            {"a": (3, 0), "b": (3, 0), "c": (3, 0),
             "A": (0, 3), "B": (0, 3), "C": (0, 3)},
        ),
    )
    assert {k: extreme.epsilons[k] for k in (1, 2, 3)} == {1: 1, 2: 1, 3: 1}
    monkeypatch.setattr(galois, "enumerate_group", lambda: pytest.fail("the group was listed"))
    x12 = root_vector(extreme, 1, 2)
    _assert_refused(reynolds_average, extreme, x12)
    _assert_refused(is_rational, extreme, x12)


@pytest.mark.parametrize(
    "entry",
    ["galois_act_element", "reynolds_average", "is_rational", "rational_nilpotency_degree", "sigma"],
)
def test_every_coefficient_action_entry_point_refuses_an_abstract_field(monkeypatch, entry):
    # one refusal, met before the gauge is built or the group is listed;
    # rational_nilpotency_degree used to fail with a TypeError here
    galois = abstract_z6()
    field = validate_orientation(galois, Orientation(3, BALANCED_Z6))
    monkeypatch.setattr(galois, "enumerate_group", lambda: pytest.fail("the group was listed"))
    v = root_vector(field, 1, -1)
    calls = {
        "galois_act_element": (galois_act_element, field, galois.generators[0], v),
        "reynolds_average": (reynolds_average, field, v),
        "is_rational": (is_rational, field, v),
        "rational_nilpotency_degree": (rational_nilpotency_degree, v),
        "sigma": (field.sigma, 1),
    }
    _assert_refused(*calls[entry])
    assert field.gauge_units is None and not field.gauge_factors


def test_action_rejects_foreign_elements(oriented7):
    other = first_oriented(16, 3, (1, 3, 3, 1))
    v = root_vector(other, 1, 2)
    with pytest.raises(UsageError):
        galois_act_element(oriented7, oriented7.sigma(3), v)


def _dense_element(field, rng):
    """Random dense coefficients on a few roots, always including some X_{a,-a} and X_{-a,a}."""
    M = field.working_conductor
    a = rng.randrange(1, field.n + 1)
    support = set(rng.sample(all_root_indices(field.n), 3)) | {(a, -a), (-a, a)}
    return element_from_coeffs(field, {
        ij: CyclotomicNumber(M, [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(euler_phi(M))])
        for ij in sorted(support)
    })


@pytest.mark.parametrize("m,hodge", RATIONAL_FORM_FIELDS, ids=[f"m{m}" for m, _ in RATIONAL_FORM_FIELDS])
def test_galois_action_matches_the_per_index_oracle(m, hodge):
    # the first pass fills each group element's table, the second reads it
    field = first_oriented(m, 3, hodge)
    assert not field.gauge_factors
    group = field.galois.enumerate_group()
    rng = random.Random(f"monomial-table-{m}")
    for _ in ("fresh", "warm"):
        for g in group:
            v = _dense_element(field, rng)
            assert galois_act_element(field, g, v) == reference_galois_act(field, g, v)
    assert len(field.gauge_factors) == len(group)


@pytest.mark.parametrize("m,hodge", RATIONAL_FORM_FIELDS, ids=[f"m{m}" for m, _ in RATIONAL_FORM_FIELDS])
def test_reynolds_average_is_the_oracle_orbit_sum(m, hodge):
    field = first_oriented(m, 3, hodge)
    rng = random.Random(f"orbit-sum-{m}")
    for _ in range(2):
        v = _dense_element(field, rng)
        orbit_sum = zero_element(field)
        for g in field.galois.enumerate_group():
            orbit_sum = orbit_sum + reference_galois_act(field, g, v)
        assert reynolds_average(field, v) == orbit_sum


def test_single_root_average_fills_one_root_per_group_element():
    field = _first_oriented(29, 3, (1, 13, 13, 1))
    reynolds_average(field, root_vector(field, 1, 2))
    tables = field.gauge_factors.values()
    assert len(tables) == field.galois.group_order == 28
    # one root entry per group element, and its two index factors; not all 2n
    assert sum(len(roots) for roots, _, _ in tables) == 28
    assert all(len(factor) == len(cofactor) == 1 for _, factor, cofactor in tables)


# -- the structure-constant bracket against the matrix commutator ---------

ROOT_PAIR_FIELDS = [(7, (1, 2, 2, 1)), (12, (1, 1, 1, 1)), (16, (1, 3, 3, 1))]


@pytest.mark.parametrize("m,hodge", ROOT_PAIR_FIELDS, ids=[f"m{m}" for m, _ in ROOT_PAIR_FIELDS])
def test_bracket_matches_the_matrix_commutator_on_every_pair_of_root_vectors(m, hodge):
    field = first_oriented(m, 3, hodge)
    roots = [root_vector(field, i, j) for i, j in all_root_indices(field.n)]
    for u, v in itertools.product(roots, repeat=2):
        assert bracket(u, v) == reference_bracket(u, v), (u, v)


def _random_element(rng, field, terms):
    """A sum of terms c X_{i,j} on any signed indices, c = zeta^k * a / b."""
    M = field.working_conductor
    signed = field.signed_indices()
    coeffs = {}
    for _ in range(terms):
        c = CyclotomicNumber.root_of_unity(M, rng.randrange(M)) * rng.choice((-3, -1, 1, 2))
        coeffs[(rng.choice(signed), rng.choice(signed))] = c / rng.choice((1, 2, 5))
    return element_from_coeffs(field, coeffs)


RANDOM_PAIR_FIELDS = [(7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2))]


@pytest.mark.parametrize("m,hodge", RANDOM_PAIR_FIELDS, ids=[f"m{m}" for m, _ in RANDOM_PAIR_FIELDS])
def test_bracket_matches_the_matrix_commutator_on_random_pairs(m, hodge):
    field = first_oriented(m, 3, hodge)
    rng = random.Random(f"bracket-{m}")
    nonzero = 0
    for _ in range(200):
        u = _random_element(rng, field, rng.randrange(1, 17))
        v = _random_element(rng, field, rng.randrange(1, 17))
        z = bracket(u, v)
        assert z == reference_bracket(u, v)
        nonzero += not z.is_zero()
    assert nonzero > 150


@pytest.mark.parametrize("m,hodge", NILPOTENT_LADDER, ids=[f"m{m}" for m, _ in NILPOTENT_LADDER])
def test_bracket_matches_the_matrix_commutator_on_cartan_and_witness(m, hodge):
    from cmhodge.acceptance import rational_nilpotent_witness

    field = first_oriented(m, 3, hodge)
    w = rational_nilpotent_witness(field)
    for h in cartan_elements(field):
        assert bracket(h, w) == reference_bracket(h, w)
        assert bracket(w, h) == reference_bracket(w, h)
        assert not bracket(h, w).is_zero()


def test_bracket_matches_the_matrix_commutator_on_the_abstract_field():
    galois = abstract_z6()
    field = validate_orientation(
        galois,
        Orientation(
            3,
            {"a": (3, 0), "b": (2, 1), "c": (2, 1),
             "A": (0, 3), "B": (1, 2), "C": (1, 2)},
        ),
    )
    roots = [root_vector(field, i, j) for i, j in all_root_indices(field.n)]
    for u, v in itertools.product(roots, repeat=2):
        assert bracket(u, v) == reference_bracket(u, v)
    rng = random.Random("bracket-z6")
    for _ in range(50):
        u = _random_element(rng, field, rng.randrange(1, 7))
        v = _random_element(rng, field, rng.randrange(1, 7))
        assert bracket(u, v) == reference_bracket(u, v)
