import json
import random
from collections import Counter

import pytest

from cmhodge import (
    CirculantSpec,
    NotNilpotentError,
    Orientation,
    PreconditionError,
    TheoremViolationError,
    UsageError,
    build_cyclotomic_cm,
    circulant_matrix,
    circulant_rank,
    enumerate_orientations,
    escape_verdict,
    is_block_system,
    nondegeneracy_verdict,
    orbit_rank,
    reynolds_average,
    ribet_dichotomy,
    rigidity_verdict,
    root_vector,
    support_graph,
    trivial_partition_check,
    validate_orientation,
)
from cmhodge import acceptance, verifiers
from cmhodge.acceptance import (
    DEFAULT_SEED,
    criterion_circulant_equivalence,
    criterion_dichotomy,
    rational_nilpotent_examples,
    rational_nilpotent_witness,
    run_core,
)
from cmhodge.graphs import _edge
from cmhodge.linalg import rank_rational, split_prime
from cmhodge.verifiers import (
    _circulant_rank_by_gcd,
    _edge_orbits,
    _full_rank_mod_split_prime,
)
from conftest import abstract_z6, first_oriented

BALANCED_ABSTRACT = {
    "a": (3, 0), "b": (2, 1), "c": (2, 1),
    "A": (0, 3), "B": (1, 2), "C": (1, 2),
}
EXTREME_ABSTRACT = {
    "a": (3, 0), "b": (3, 0), "c": (3, 0),
    "A": (0, 3), "B": (0, 3), "C": (0, 3),
}


def test_circulant_spec_validation():
    CirculantSpec((1, 1, 1))  # fine
    with pytest.raises(UsageError):
        CirculantSpec((1, 1, 1, 1))  # even length
    with pytest.raises(UsageError):
        CirculantSpec((1,) * 9)  # odd but composite
    with pytest.raises(UsageError):
        CirculantSpec((1,))


def test_circulant_matrix_shape():
    spec = CirculantSpec((7, 1, 3))
    assert circulant_matrix(spec) == [[7, 1, 3], [1, 3, 7], [3, 7, 1]]


@pytest.mark.parametrize(
    "entries,rank",
    [
        ((1, 1, 1), 1),
        ((3, 1, 1), 3),
        ((1, -1, 1), 3),
        ((0, 0, 0), 0),
        ((1, 1, 1, 1, 1), 1),
        ((2, -1, -1, 0, 0), 4),  # symbol divisible by x - 1 only
    ],
)
def test_circulant_rank_known_values(entries, rank):
    assert circulant_rank(CirculantSpec(entries)) == rank


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_circulant_rank_matches_elimination(p):
    rng = random.Random(f"circ-{p}")
    for _ in range(25):
        entries = tuple(rng.randrange(-6, 7) for _ in range(p))
        spec = CirculantSpec(entries)
        assert circulant_rank(spec) == rank_rational(circulant_matrix(spec))


def _battery_specs(monkeypatch, seed):
    """Every spec criteria 1 and 3 hand to circulant_rank, in the random streams run_core gives them."""
    seen = []

    def spy(spec):
        seen.append(spec)
        return circulant_rank(spec)

    monkeypatch.setattr(acceptance, "circulant_rank", spy)
    monkeypatch.setattr(verifiers, "circulant_rank", spy)
    criterion_circulant_equivalence(random.Random(f"{seed}:circulant"))
    criterion_dichotomy(random.Random(f"{seed}:dichotomy"))
    return seen


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_certificate_gcd_and_elimination_agree_on_the_battery_specs(monkeypatch, seed):
    specs = _battery_specs(monkeypatch, seed)
    assert len(specs) == 5000
    for spec in specs:
        exact = _circulant_rank_by_gcd(spec)
        assert exact == rank_rational(circulant_matrix(spec))
        if _full_rank_mod_split_prime(spec):
            assert exact == spec.size
        assert circulant_rank(spec) == exact


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_circulant_rank_falls_back_to_the_gcd_route(p):
    rng = random.Random(f"fallback-{p}")
    q, _ = split_prime(p)
    entries = [rng.randrange(-6, 7) for _ in range(p - 1)]
    entries.append(-sum(entries))
    if not any(entries):
        entries[0], entries[1] = 1, -1
    cases = [
        (tuple(entries), p - 1),  # f(1) = 0, and no other root of x^p - 1
        ((5,) * p, 1),
        ((0,) * p, 0),
        # every value is q = 0 mod q, yet the symbol is a nonzero constant
        ((q,) + (0,) * (p - 1), p),
    ]
    for entries, rank in cases:
        spec = CirculantSpec(entries)
        assert not _full_rank_mod_split_prime(spec)
        assert circulant_rank(spec) == _circulant_rank_by_gcd(spec) == rank
        assert rank_rational(circulant_matrix(spec)) == rank


def test_only_constant_specs_reach_the_gcd_route_in_the_battery(monkeypatch):
    reached = []

    def spy(spec):
        reached.append(spec.entries)
        return _circulant_rank_by_gcd(spec)

    monkeypatch.setattr(verifiers, "_circulant_rank_by_gcd", spy)
    run_core(DEFAULT_SEED)
    # criterion 3 draws a constant spec every 50th trial, 20 per length
    assert all(len(set(entries)) == 1 for entries in reached)
    assert Counter(map(len, reached)) == {3: 20, 5: 20, 7: 20, 11: 20}


def test_dichotomy_branches():
    assert ribet_dichotomy(CirculantSpec((3, 1, 1))) == "rank_p"
    assert ribet_dichotomy(CirculantSpec((5, 5, 5, 5, 5))) == "all_equal"
    with pytest.raises(UsageError):
        ribet_dichotomy(CirculantSpec((1, 2, 1)))


def test_orbit_rank_desk_values(oriented7):
    assert orbit_rank(oriented7) == 3
    galois = build_cyclotomic_cm(7)
    ranks = {}
    for o in enumerate_orientations(galois, 3, (3, 0, 0, 3)):
        pos = tuple(sorted(l for l, (p, _) in o.assignment.items() if p == 3))
        ranks[pos] = orbit_rank(validate_orientation(galois, o))
    assert ranks[(1, 2, 4)] == 1
    assert ranks[(3, 5, 6)] == 1
    assert sorted(ranks.values()) == [1, 1, 3, 3, 3, 3, 3, 3]


def test_nondegeneracy_report_balanced(oriented7):
    report = nondegeneracy_verdict(oriented7)
    assert report["verdict"] == "nondegenerate"
    assert report["orbit_rank"] == 3 and report["cartan_bound"] == 3
    assert report["grading"] == [3, 1, 1]
    # every group element mixes signs at conductor 7, so no circulant route
    assert report["circulant_rank"] is None
    assert report["dichotomy_branch"] is None
    assert report["circulant_entries"] is None
    assert len(report["orbit_vectors"]) == 6


@pytest.mark.parametrize(
    "m,hodge,vectors",
    [
        (7, (1, 2, 2, 1), ((3, 1, 1), (-1, 1, 3), (-3, -1, -1), (-1, 3, -1), (1, -1, -3), (1, -3, 1))),
        (16, (1, 3, 3, 1), (
            (3, 1, 1, 1), (-1, 3, 1, -1), (-1, 1, 3, -1), (-3, -1, -1, -1),
            (-1, -1, -1, -3), (1, -3, -1, 1), (1, -1, -3, 1), (1, 1, 1, 3),
        )),
    ],
)
def test_orbit_vectors_come_in_group_order(m, hodge, vectors):
    # row i is the grading pulled back along enumerate_group()[i]; the identity's comes first
    report = nondegeneracy_verdict(first_oriented(m, 3, hodge))
    assert report["orbit_vectors"] == [list(v) for v in vectors]
    assert report["grading"] == list(vectors[0])


def test_orbit_vectors_come_in_group_order_on_the_abstract_field():
    field = validate_orientation(abstract_z6(), Orientation(3, BALANCED_ABSTRACT))
    report = nondegeneracy_verdict(field)
    assert report["orbit_vectors"] == [
        [3, 1, 1], [1, 3, 1], [-3, -1, -1], [1, 1, 3], [-1, -3, -1], [-1, -1, -3],
    ]
    assert report["grading"] == [3, 1, 1]


def test_nondegeneracy_report_quadratic_residue_pattern():
    galois = build_cyclotomic_cm(7)
    found = None
    for o in enumerate_orientations(galois, 3, (3, 0, 0, 3)):
        pos = {l for l, (p, _) in o.assignment.items() if p == 3}
        if pos == {1, 2, 4}:
            found = validate_orientation(galois, o)
    report = nondegeneracy_verdict(found)
    assert report["verdict"] == "degenerate_under_span_assumption"
    assert report["orbit_rank"] == 1
    assert report["grading"] == [3, 3, -3]


def test_abstract_field_takes_the_circulant_route():
    galois = abstract_z6()
    balanced = validate_orientation(galois, Orientation(3, BALANCED_ABSTRACT))
    report = nondegeneracy_verdict(balanced)
    assert report["circulant_entries"] == [3, 1, 1]
    assert report["circulant_rank"] == 3
    assert report["dichotomy_branch"] == "rank_p"
    assert report["verdict"] == "nondegenerate"

    extreme = validate_orientation(galois, Orientation(3, EXTREME_ABSTRACT))
    report = nondegeneracy_verdict(extreme)
    assert report["circulant_entries"] == [3, 3, 3]
    assert report["circulant_rank"] == 1
    assert report["dichotomy_branch"] == "all_equal"
    assert report["verdict"] == "degenerate_under_span_assumption"
    assert report["orbit_rank"] == 1


def _json_round_trip(result):
    return json.loads(json.dumps(result))


@pytest.mark.parametrize("m,hodge", [(7, (1, 2, 2, 1)), (11, (2, 3, 3, 2)), (16, (1, 3, 3, 1))], ids=["m7", "m11", "m16"])
def test_results_equal_their_json_round_trip(m, hodge):
    # each verdict is the document the CLI prints: no tuples, no int keys, no objects
    field = first_oriented(m, 3, hodge)
    witness = rational_nilpotent_witness(field)
    average = reynolds_average(field, root_vector(field, 1, 2))
    results = [
        nondegeneracy_verdict(field),
        escape_verdict(field, witness),
        rigidity_verdict(field),
        trivial_partition_check(witness),
    ]
    for v in (witness, average):
        graph, partition = support_graph(v)
        results += [graph, partition, is_block_system(field, partition)]
    # a partition that is not a block system, so the verdict carries a witness
    lopsided = {"blocks": [[1], [k for k in field.signed_indices() if k != 1]]}
    results.append(is_block_system(field, lopsided))
    assert results[-1]["witness"] is not None
    for result in results:
        assert _json_round_trip(result) == result


def test_abstract_results_equal_their_json_round_trip():
    field = validate_orientation(abstract_z6(), Orientation(3, BALANCED_ABSTRACT))
    report = nondegeneracy_verdict(field)
    assert report["circulant_entries"] is not None
    for result in (report, rigidity_verdict(field)):
        assert _json_round_trip(result) == result


def test_escape_requires_nondegenerate_field():
    galois = abstract_z6()
    extreme = validate_orientation(galois, Orientation(3, EXTREME_ABSTRACT))
    with pytest.raises(PreconditionError) as err:
        escape_verdict(extreme, root_vector(extreme, 1, 2))
    assert err.value.reason == "field-not-nondegenerate"


def test_escape_requires_rational_nilpotent_input(oriented7):
    with pytest.raises(PreconditionError) as err:
        escape_verdict(oriented7, root_vector(oriented7, 1, 2))
    assert err.value.reason == "element-not-rational"
    avg = reynolds_average(oriented7, root_vector(oriented7, 1, 2))
    with pytest.raises(NotNilpotentError):
        escape_verdict(oriented7, avg)


def test_escape_below_threshold_reports_not_applicable(oriented7):
    examples = dict(rational_nilpotent_examples(oriented7))
    out = escape_verdict(oriented7, examples["square-zero"])
    assert out["nilpotency_degree"] == 2
    assert out["applicable"] is False
    assert out["closure_dimension"] is None
    out = escape_verdict(oriented7, examples["half-chain"])
    assert out["nilpotency_degree"] == 3  # equal to n still does not trigger
    assert out["applicable"] is False


def test_escape_deep_nilpotent_forces_everything(oriented7):
    witness = rational_nilpotent_witness(oriented7)
    out = escape_verdict(oriented7, witness)
    assert out["applicable"] is True
    assert out["nilpotency_degree"] == 6
    assert out["partition_trivial"] is True
    assert out["closure_dimension"] == out["ambient_dimension"] == 21
    assert out["nondegeneracy"]["verdict"] == "nondegenerate"


def test_rigidity_weight_five(oriented7):
    field = first_oriented(7, 5, (1, 1, 1, 1, 1, 1))
    out = rigidity_verdict(field)
    assert out["hypotheses_met"] is True
    assert out["hypotheses"] == {
        "weight_odd_gt_1": True,
        "h_top_is_1": True,
        "h_next_is_1": True,
        "dim_not_divisible_by_4": True,
    }
    assert out["verdict"] == "rigid"
    assert out["offending_orbits"] == []


def test_rigidity_weight_three_hypotheses_fail_quietly(oriented7):
    out = rigidity_verdict(oriented7)
    assert out["hypotheses_met"] is False
    assert out["hypotheses"]["h_next_is_1"] is False
    assert out["verdict"] == "rigid"  # still rigid here, just not by the theorem


def test_rigidity_never_raises_without_hypotheses():
    galois = build_cyclotomic_cm(9)
    for o in enumerate_orientations(galois, 3, (2, 1, 1, 2)):
        out = rigidity_verdict(validate_orientation(galois, o))
        assert out["verdict"] in ("rigid", "not-rigid")


WITNESS_KEYS = {"witness_nonzero", "witness_support_edges", "witness_cancellation"}


def test_offending_orbits_carry_witnesses_on_cyclotomic_fields_only(monkeypatch):
    galois = build_cyclotomic_cm(9)
    offending = 0
    for o in enumerate_orientations(galois, 3, (2, 1, 1, 2)):
        out = rigidity_verdict(validate_orientation(galois, o))
        for orbit in out["orbits"]:
            flagged = orbit["admissible"] and orbit["has_nonzero_bidegree"]
            offending += flagged
            assert WITNESS_KEYS <= orbit.keys() if flagged else not WITNESS_KEYS & orbit.keys()
    assert offending
    # the abstract verdict comes from the same edge orbits, with no average and no group listing
    galois = abstract_z6()
    monkeypatch.setattr(galois, "enumerate_group", lambda: pytest.fail("the group was listed"))
    offending = 0
    for o in enumerate_orientations(galois, 3, (0, 3, 3, 0)):
        out = rigidity_verdict(validate_orientation(galois, o))
        offending += len(out["offending_orbits"])
        assert not any(WITNESS_KEYS & orbit.keys() for orbit in out["orbits"])
    assert offending


@pytest.mark.parametrize("m,hodge", [(7, (1, 2, 2, 1)), (11, (2, 3, 3, 2)), (13, (1, 5, 5, 1)), (16, (1, 3, 3, 1))])
def test_edge_orbits_match_the_images_under_every_group_element(m, hodge):
    # the orbits are walked from the generators; here each is the set of images of its first edge
    field = first_oriented(m, 3, hodge)
    orbits = _edge_orbits(field)
    group = field.galois.enumerate_group()
    for orbit in orbits:
        a, b = orbit[0]
        images = {_edge(field.n, field.act_index(g, a), field.act_index(g, b)) for g in group}
        assert set(orbit) == images and len(orbit) == len(images)
    n2 = 2 * field.n
    assert sum(len(orbit) for orbit in orbits) == n2 * (n2 - 1) // 2

