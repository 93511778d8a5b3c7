"""End-to-end acceptance sweep.

Runs the full self-test battery once (both passes, for the determinism
check) and then asserts each criterion individually so a failure pinpoints
the broken guarantee.  Each test prints its own pass/fail line.
"""

import json

import pytest

from cmhodge import build_cyclotomic_cm, enumerate_orientations, validate_orientation
from cmhodge.acceptance import DEFAULT_SEED, RUNTIME_BUDGETS, _first_oriented, run_all

LABELS = [
    (1, "circulant-rank-equivalence"),
    (2, "desk-scale-orbit-ranks"),
    (3, "odd-circulant-dichotomy"),
    (4, "reynolds-block-systems"),
    (5, "nilpotent-component-bounds"),
    (6, "bracket-chain-lemma"),
    (7, "nilpotent-escape-closure"),
    (8, "weight-five-rigidity-sweep"),
    (9, "selftest-determinism"),
]


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def battery(timings):
    return run_all(DEFAULT_SEED, timings_out=timings)


def test_report_shape(battery):
    assert battery["schema_version"] == "1"
    assert battery["seed"] == DEFAULT_SEED
    assert [c["criterion"] for c in battery["criteria"]] == list(range(1, 10))
    json.dumps(battery)  # must be serializable as-is


@pytest.mark.parametrize("number,label", LABELS)
def test_criterion(battery, timings, number, label):
    record = battery["criteria"][number - 1]
    assert record["label"] == label
    status = "PASS" if record["pass"] else "FAIL"
    print(f"criterion {number} {label}: {status}")
    assert record["pass"], record["details"]
    budget = RUNTIME_BUDGETS.get(number)
    if budget is not None:
        assert timings[number] < budget, (
            f"criterion {number} took {timings[number]:.2f}s, budget {budget}s"
        )


def test_overall_flag(battery):
    assert battery["passed"] is True


@pytest.mark.parametrize(
    "m,weight,hodge",
    [(7, 3, (1, 2, 2, 1)), (9, 3, (1, 2, 2, 1)), (11, 3, (2, 3, 3, 2)), (16, 3, (1, 3, 3, 1)), (13, 5, (1, 1, 4, 4, 1, 1))],
)
def test_first_oriented_is_the_first_listed_orientation(m, weight, hodge):
    galois = build_cyclotomic_cm(m)
    listed = enumerate_orientations(galois, weight, hodge)[0]
    field = _first_oriented(m, weight, hodge)
    assert field == validate_orientation(galois, listed)
    assert list(field.orientation.assignment) == list(listed.assignment)


def test_first_oriented_builds_one_orientation_past_the_listing_cap():
    # Hodge 1,13,13,1 at m = 29 has 229376 orientations, over the listing cap
    field = _first_oriented(29, 3, (1, 13, 13, 1))
    assert field.bidegree_of_label(1) == (3, 0)
    assert [field.bidegree_of_label(lab) for lab in range(2, 15)] == [(2, 1)] * 13
    assert field.bidegree_of_label(28) == (0, 3)
