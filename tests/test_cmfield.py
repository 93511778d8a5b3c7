import itertools
import math
import random

import pytest

from cmhodge import (
    DomainError,
    EnumerationCapError,
    InvalidOrientationError,
    NotCMFieldError,
    Orientation,
    UsageError,
    basis_pos,
    build_abstract_cm,
    build_cyclotomic_cm,
    enumerate_orientations,
    euler_phi,
    field_from_json,
    field_to_json,
    oriented_from_json,
    oriented_to_json,
    validate_orientation,
)
from cmhodge import cmfield
from cmhodge.verifiers import _orbit_rows
from conftest import abstract_z6, first_oriented

CANONICAL_7 = {1: (3, 0), 2: (2, 1), 3: (2, 1), 4: (1, 2), 5: (1, 2), 6: (0, 3)}


def test_cyclotomic_build_basics():
    galois = build_cyclotomic_cm(7)
    assert galois.flavor == "cyclotomic"
    assert galois.conductor == 7
    assert galois.labels == (1, 2, 3, 4, 5, 6)
    assert galois.group_order == 6
    assert galois.conjugation == tuple((6 * lab) % 7 for lab in galois.labels)


@pytest.mark.parametrize("m", [0, 1, 2, "7"])
def test_cyclotomic_rejects_tiny_or_nonint(m):
    with pytest.raises(NotCMFieldError):
        build_cyclotomic_cm(m)


def test_cyclotomic_rejects_two_mod_four():
    with pytest.raises(NotCMFieldError) as err:
        build_cyclotomic_cm(10)
    assert err.value.reason == "conductor-not-canonical"


def test_enumerate_group_is_deterministic_and_complete():
    galois = build_cyclotomic_cm(9)
    group = galois.enumerate_group()
    assert group[0] == galois.identity()
    assert len(group) == 6
    assert group == galois.enumerate_group()  # cached, same tuple


def test_enumerate_group_cap(monkeypatch):
    galois = build_cyclotomic_cm(11)
    monkeypatch.setattr(cmfield, "GROUP_ENUMERATION_CAP", 5)
    with pytest.raises(EnumerationCapError):
        galois.enumerate_group()


@pytest.mark.parametrize("cap,fits", [(10, True), (9, False)])
def test_enumerate_group_cap_boundary(monkeypatch, cap, fits):
    # the order of (Z/11)^* is 10: a group of exactly the cap's size is listed
    galois = build_cyclotomic_cm(11)
    monkeypatch.setattr(cmfield, "GROUP_ENUMERATION_CAP", cap)
    if fits:
        assert len(galois.enumerate_group()) == 10
    else:
        with pytest.raises(EnumerationCapError):
            galois.enumerate_group()


@pytest.mark.parametrize(
    "m,multipliers",
    [(7, (1, 3, 6, 2, 4, 5)), (16, (1, 3, 5, 15, 9, 13, 11, 7))],
)
def test_enumerate_group_order_is_pinned(m, multipliers):
    # breadth first from the identity over the generators, then conjugation;
    # nondeg prints its orbit vectors in this order
    galois = build_cyclotomic_cm(m)
    assert galois.enumerate_group() == tuple(
        tuple((a * lab) % m for lab in galois.labels) for a in multipliers
    )


def test_enumerate_group_order_is_pinned_on_the_abstract_field():
    assert abstract_z6().enumerate_group() == (
        ("a", "b", "c", "A", "B", "C"),
        ("b", "c", "a", "B", "C", "A"),
        ("A", "B", "C", "a", "b", "c"),
        ("c", "a", "b", "C", "A", "B"),
        ("B", "C", "A", "b", "c", "a"),
        ("C", "A", "B", "c", "a", "b"),
    )


@pytest.mark.parametrize("m", [7, 15, 16])
def test_group_order_is_phi_without_listing(monkeypatch, m):
    galois = build_cyclotomic_cm(m)
    monkeypatch.setattr(cmfield, "GROUP_ENUMERATION_CAP", 1)
    assert galois.group_order == euler_phi(m)
    with pytest.raises(EnumerationCapError):
        galois.enumerate_group()


def _signed_permutation(labels, images):
    """The permutation of the labels (i, +-1) sending (i, e) to (pi(i), s_i * e), images[i] = (pi(i), s_i)."""
    return tuple((images[i][0], images[i][1] * e) for i, e in labels)


def _random_signed_group(rng, k):
    """A CM datum from random signed permutations of k pairs; None when the group is not transitive."""
    labels = tuple((i, e) for e in (1, -1) for i in range(k))
    gens = []
    for _ in range(rng.randrange(1, 4)):
        pi = list(range(k))
        if rng.random() < 0.5:
            rng.shuffle(pi)
        else:
            i, j = rng.randrange(k), rng.randrange(k)
            pi[i], pi[j] = pi[j], pi[i]
        gens.append(_signed_permutation(labels, [(p, rng.choice((1, -1))) for p in pi]))
    conjugation = _signed_permutation(labels, [(i, -1) for i in range(k)])
    try:
        return build_abstract_cm(labels, gens, conjugation)
    except NotCMFieldError:
        return None


def test_group_order_matches_the_listing_on_random_signed_permutation_groups():
    rng = random.Random("schreier-sims")
    orders = []
    while len(orders) < 60:
        galois = _random_signed_group(rng, rng.randrange(1, 6))
        if galois is not None:
            orders.append(galois.group_order)
            assert orders[-1] == len(galois.enumerate_group()), galois.generators
    assert len(set(orders)) > 5


def test_group_order_of_the_hyperoctahedral_group():
    # B_9 from a 9-cycle, a transposition and one sign change: 2^9 9!, far above the listing cap
    k = 9
    labels = tuple((i, e) for e in (1, -1) for i in range(k))
    cycle = [((i + 1) % k, 1) for i in range(k)]
    swap = [(1, 1), (0, 1)] + [(i, 1) for i in range(2, k)]
    flip = [(0, -1)] + [(i, 1) for i in range(1, k)]
    gens = [_signed_permutation(labels, images) for images in (cycle, swap, flip)]
    conjugation = _signed_permutation(labels, [(i, -1) for i in range(k)])
    assert build_abstract_cm(labels, gens, conjugation).group_order == 2**k * math.factorial(k)


@pytest.mark.parametrize("m", [7, 9, 11, 12, 13, 15, 16, 20, 21])
def test_cyclotomic_generators_alone_reach_every_label(m):
    galois = build_cyclotomic_cm(m)
    assert galois.group_generators == galois.generators
    moves = lambda lab: (galois.apply(g, lab) for g in galois.generators)
    # the group acts on the units by multiplication, so the label reached from
    # 1 is the group element: m - 1 among them makes conjugation a word in them
    assert set(cmfield._reached(1, moves)) == set(galois.labels)
    assert galois.group_order == euler_phi(m)


def test_abstract_group_generators_keep_conjugation():
    galois = abstract_z6()
    assert galois.group_generators == galois.generators + (galois.conjugation,)
    # the 3-cycle alone never reaches a conjugate label
    moves = lambda lab: (galois.apply(g, lab) for g in galois.generators)
    assert set(cmfield._reached("a", moves)) == {"a", "b", "c"}
    assert galois.group_order == 6


def test_reached_yields_in_queue_order_as_it_discovers():
    expanded = []

    def moves(x):
        expanded.append(x)
        return ((2 * x) % 11, (3 * x) % 11)

    walk = cmfield._reached(1, moves)
    assert list(itertools.islice(walk, 3)) == [1, 2, 3]
    assert expanded == [1]  # the third element came before 2 was expanded
    assert list(walk) == [4, 6, 9, 8, 7, 5, 10]


@pytest.mark.parametrize("m", [10007, 1000003])
def test_conductor_past_the_cap_is_refused_before_enumeration(m):
    # phi(m) = m - 1 > GROUP_ENUMERATION_CAP; building the labels alone would take seconds
    with pytest.raises(EnumerationCapError) as err:
        build_cyclotomic_cm(m)
    assert err.value.reason == "enumeration-cap-exceeded"
    assert f"order {m - 1}" in str(err.value)


def test_abstract_round_trip_and_structure():
    galois = abstract_z6()
    assert galois.flavor == "abstract"
    assert galois.group_order == 6
    assert field_from_json(field_to_json(galois)) == galois


def test_abstract_conjugation_fixed_point():
    with pytest.raises(NotCMFieldError) as err:
        build_abstract_cm(("x", "y"), (), ("x", "y"))
    assert err.value.reason == "conjugation-has-fixed-point"


def test_abstract_conjugation_not_involution():
    with pytest.raises(NotCMFieldError) as err:
        build_abstract_cm((0, 1, 2, 3), (), (1, 2, 3, 0))
    assert err.value.reason == "conjugation-not-involution"


def test_abstract_conjugation_not_central():
    swap01 = (1, 0, 2, 3, 4, 5)
    shift3 = (3, 4, 5, 0, 1, 2)
    with pytest.raises(NotCMFieldError) as err:
        build_abstract_cm((0, 1, 2, 3, 4, 5), (swap01,), shift3)
    assert err.value.reason == "conjugation-not-central"


def test_abstract_group_must_be_transitive():
    with pytest.raises(NotCMFieldError) as err:
        build_abstract_cm((0, 1, 2, 3), (), (2, 3, 0, 1))
    assert err.value.reason == "group-not-transitive"


def test_abstract_odd_label_count():
    with pytest.raises(NotCMFieldError):
        build_abstract_cm((0, 1, 2), (), (1, 2, 0))


def test_labels_must_stay_distinct_as_json_keys():
    with pytest.raises(UsageError) as err:
        build_abstract_cm((1, "1"), ((1, "1"),), ("1", 1))
    assert err.value.reason == "bad-field"


def test_orientation_picks_checks_before_it_returns():
    galois = build_cyclotomic_cm(7)
    with pytest.raises(UsageError):
        cmfield.orientation_picks(galois, 3, (2, 2, 2, 2))
    with pytest.raises(EnumerationCapError):
        cmfield.orientation_picks(build_cyclotomic_cm(29), 3, (4, 10, 10, 4))
    pairs, picks = cmfield.orientation_picks(galois, 3, (1, 2, 2, 1))
    assert pairs == ((1, 6), (2, 5), (3, 4))
    assert next(picks) == (0, 1, 1)


def test_enumerate_orientations_counts():
    galois = build_cyclotomic_cm(7)
    assert len(enumerate_orientations(galois, 3, (1, 2, 2, 1))) == 24
    assert len(enumerate_orientations(galois, 3, (3, 0, 0, 3))) == 8


def _filtered_orientations(galois, weight, hodge_numbers):
    """The filter route: every pick in itertools.product, kept when its class counts are h.

    The reference for the depth-first construction in enumerate_orientations.
    """
    h = list(hodge_numbers)
    n, index_to_label = cmfield._pair_table(galois)
    classes = [(weight - t, t) for t in range(weight + 1)]
    out = []
    for combo in itertools.product(range(weight + 1), repeat=n):
        counts = [0] * (weight + 1)
        for t in combo:
            counts[t] += 1
            counts[weight - t] += 1
        if counts != h:
            continue
        assignment = {}
        for k, t in enumerate(combo, start=1):
            p, q = classes[t]
            assignment[index_to_label[k]] = (p, q)
            assignment[index_to_label[-k]] = (q, p)
        out.append(Orientation(weight, assignment))
    return out


def _hodge_vectors(n, weight):
    """Every symmetric Hodge vector of n pairs at this weight, zero entries included."""
    half = (weight + 1) // 2
    for cut in itertools.combinations(range(n + half - 1), half - 1):
        bounds = (-1,) + cut + (n + half - 1,)
        h = [bounds[i + 1] - bounds[i] - 1 for i in range(half)]
        yield tuple(h + h[::-1])


@pytest.mark.parametrize("weight", [1, 3, 5])
@pytest.mark.parametrize("m", [5, 7, 8, 9, 12, 13, "z6"])
def test_construction_matches_the_filter_route(m, weight):
    galois = abstract_z6() if m == "z6" else build_cyclotomic_cm(m)
    n = len(galois.labels) // 2
    hodges = list(_hodge_vectors(n, weight))
    if n == 6 and weight == 5:
        # 28 vectors at 6^6 filtered products each: four, zero entries included
        hodges = [(1, 1, 4, 4, 1, 1), (2, 2, 2, 2, 2, 2), (0, 0, 6, 6, 0, 0), (3, 0, 3, 3, 0, 3)]
    for hodge in hodges:
        built = enumerate_orientations(galois, weight, hodge)
        filtered = _filtered_orientations(galois, weight, hodge)
        assert built == filtered
        # equal dicts in equal order: the label order of each assignment too
        assert [list(o.assignment) for o in built] == [list(o.assignment) for o in filtered]
        assert len(built) == cmfield.orientation_count(hodge)


@pytest.mark.parametrize(
    "n,weight,budget",
    [
        (0, 3, (0, 0)),
        (1, 1, (1,)),
        (3, 1, (3,)),
        (3, 3, (1, 2)),
        (3, 3, (0, 3)),
        (4, 3, (2, 2)),
        (4, 3, (1, 1)),  # short of n: nothing to list
        (6, 3, (4, 4)),  # slack: more budget than pairs
        (4, 5, (1, 1, 2)),
        (5, 5, (0, 5, 1)),
    ],
)
def test_budgeted_picks_match_the_filtered_product(n, weight, budget):
    expected = []
    for combo in itertools.product(range(weight + 1), repeat=n):
        used = [0] * len(budget)
        for t in combo:
            used[min(t, weight - t)] += 1
        if all(u <= b for u, b in zip(used, budget)):
            expected.append(combo)
    given = list(budget)
    assert list(cmfield._budgeted_picks(n, weight, given)) == expected
    # the budget handed in is read, never spent, even by a listing cut short
    next(cmfield._budgeted_picks(n, weight, given), None)
    assert given == list(budget)


def test_orientation_cap_applies_to_the_closed_form_count(monkeypatch):
    galois = build_cyclotomic_cm(7)  # 24 orientations with Hodge numbers 1,2,2,1
    monkeypatch.setattr(cmfield, "ORIENTATION_ENUMERATION_CAP", 24)
    assert len(enumerate_orientations(galois, 3, (1, 2, 2, 1))) == 24
    monkeypatch.setattr(cmfield, "ORIENTATION_ENUMERATION_CAP", 23)
    with pytest.raises(EnumerationCapError) as err:
        enumerate_orientations(galois, 3, (1, 2, 2, 1))
    assert err.value.reason == "enumeration-cap-exceeded"
    assert "24 orientations" in str(err.value)
    # the Hodge numbers are checked before the count
    with pytest.raises(UsageError):
        enumerate_orientations(galois, 3, (2, 2, 2, 2))


def test_orientation_cap_sits_well_above_the_sweep_benchmark():
    assert cmfield.orientation_count((2, 6, 6, 2)) == 7168
    assert cmfield.ORIENTATION_ENUMERATION_CAP >= 5 * 7168


def test_first_orientation_is_the_canonical_example():
    galois = build_cyclotomic_cm(7)
    first = enumerate_orientations(galois, 3, (1, 2, 2, 1))[0]
    assert first.assignment == CANONICAL_7


@pytest.mark.parametrize(
    "hodge,exc",
    [
        ((1, 2, 2), UsageError),  # wrong length
        ((1, 2, 1, 2), UsageError),  # not symmetric
        ((2, 2, 2, 2), UsageError),  # wrong sum
        ((1, -1, -1, 1), UsageError),  # negative entries
        ((True, 2, 2, True), UsageError),  # booleans are not Hodge numbers
    ],
)
def test_enumerate_orientations_validates_hodge(hodge, exc):
    galois = build_cyclotomic_cm(7)
    with pytest.raises(exc):
        enumerate_orientations(galois, 3, hodge)


def test_enumerate_orientations_needs_odd_weight():
    galois = build_cyclotomic_cm(7)
    with pytest.raises(InvalidOrientationError):
        enumerate_orientations(galois, 2, (3, 0, 3))


def test_validate_orientation_rejects_even_weight():
    galois = build_cyclotomic_cm(7)
    assignment = {lab: (1, 1) for lab in galois.labels}
    with pytest.raises(InvalidOrientationError) as err:
        validate_orientation(galois, Orientation(2, assignment))
    assert err.value.reason == "odd-weight-required"
    assert "odd weight required" in str(err.value)


def test_boolean_weight_is_not_an_odd_weight():
    # True is an int to isinstance, and 1 is odd, so both checks must refuse bools
    galois = build_cyclotomic_cm(7)
    assignment = {lab: (1, 0) if lab < 4 else (0, 1) for lab in galois.labels}
    validate_orientation(galois, Orientation(1, assignment))
    with pytest.raises(InvalidOrientationError) as err:
        validate_orientation(galois, Orientation(True, assignment))
    assert err.value.reason == "odd-weight-required"
    with pytest.raises(InvalidOrientationError) as err:
        enumerate_orientations(galois, True, (3, 3))
    assert err.value.reason == "odd-weight-required"


@pytest.mark.parametrize("label,bidegree", [(1, (3.0, 0)), (4, (True, 2)), (2, (2, "1"))])
def test_validate_orientation_rejects_non_int_bidegrees(label, bidegree):
    # (3.0, 0) and (True, 2) equal valid bidegrees; Orientation stores them as given
    galois = build_cyclotomic_cm(7)
    orientation = Orientation(3, {**CANONICAL_7, label: bidegree})
    assert orientation.assignment[label] == bidegree
    with pytest.raises(InvalidOrientationError) as err:
        validate_orientation(galois, orientation)
    assert err.value.reason == "invalid-orientation"
    assert "bidegrees must be integers" in str(err.value)


def test_validate_orientation_rejects_label_mismatch():
    galois = build_cyclotomic_cm(7)
    bad = dict(CANONICAL_7)
    bad.pop(6)
    with pytest.raises(InvalidOrientationError):
        validate_orientation(galois, Orientation(3, bad))


def test_validate_orientation_rejects_wrong_weight_sum():
    galois = build_cyclotomic_cm(7)
    bad = {**CANONICAL_7, 1: (4, 0)}
    with pytest.raises(InvalidOrientationError):
        validate_orientation(galois, Orientation(3, bad))


def test_validate_orientation_rejects_conjugation_asymmetry():
    galois = build_cyclotomic_cm(7)
    bad = {**CANONICAL_7, 2: (1, 2), 5: (1, 2)}
    with pytest.raises(InvalidOrientationError):
        validate_orientation(galois, Orientation(3, bad))


def test_pair_structure_and_bidegrees(oriented7):
    assert oriented7.n == 3
    assert oriented7.signed_indices() == (1, 2, 3, -1, -2, -3)
    assert oriented7.weight == 3
    assert oriented7.working_conductor == 28
    assert oriented7.bidegree_of_index(1) == (3, 0)
    assert oriented7.bidegree_of_index(-1) == (0, 3)
    assert oriented7.grading_value(1) == 3
    assert oriented7.grading_value(-2) == -1


def test_basis_pos_orders_positives_before_negatives():
    assert [basis_pos(3, k) for k in (1, 2, 3, -1, -2, -3)] == [0, 1, 2, 3, 4, 5]


def test_sigma_three_index_action(oriented7):
    sigma3 = oriented7.sigma(3)
    images = {k: oriented7.act_index(sigma3, k) for k in (1, 2, 3)}
    assert images == {1: 3, 2: -1, 3: 2}
    assert oriented7.act_index(sigma3, -1) == -3


def test_grading_vector_and_sigma_three_action(oriented7):
    rows = _orbit_rows(oriented7)
    assert rows[0] == [3, 1, 1]
    assert oriented7.grading_value(-1) == -3
    group = oriented7.galois.enumerate_group()
    # (sigma_3 . v)(k) = v(sigma_3^{-1} k) = v(sigma_5 k)
    assert rows[group.index(oriented7.sigma(3))] == [-1, 1, 3]


def test_coefficient_exponents_are_unit_lifts(oriented7):
    # the lift must agree with the label action mod 7 and fix i (1 mod 4)
    assert oriented7.coeff_exponent(oriented7.sigma(3)) == 17
    assert oriented7.coeff_exponent(oriented7.sigma(2)) == 9
    assert oriented7.coeff_exponent(oriented7.galois.conjugation) == 13


def test_coefficient_exponent_when_four_divides_conductor():
    field = first_oriented(16, 3, (1, 3, 3, 1))
    assert field.working_conductor == 16
    assert field.coeff_exponent(field.sigma(3)) == 3


def test_abstract_field_has_no_coefficient_automorphisms():
    galois = abstract_z6()
    assignment = {
        "a": (3, 0), "b": (2, 1), "c": (2, 1),
        "A": (0, 3), "B": (1, 2), "C": (1, 2),
    }
    field = validate_orientation(galois, Orientation(3, assignment))
    assert field.working_conductor == 4
    for g in galois.enumerate_group():
        with pytest.raises(DomainError) as err:
            field.coeff_exponent(g)
        assert err.value.reason == "rationality-needs-cyclotomic"
    with pytest.raises(DomainError) as err:
        field.sigma(3)
    assert err.value.reason == "rationality-needs-cyclotomic"


def test_oriented_json_round_trip(oriented7):
    rebuilt = oriented_from_json(oriented_to_json(oriented7))
    assert rebuilt == oriented7
    assert rebuilt.orientation.assignment == CANONICAL_7


def test_field_json_rejects_garbage():
    with pytest.raises(UsageError):
        field_from_json({"flavor": "nope"})
    with pytest.raises(UsageError):
        field_from_json({"flavor": "cyclotomic"})
    with pytest.raises(UsageError):
        oriented_from_json({"flavor": "cyclotomic", "conductor": 7})
