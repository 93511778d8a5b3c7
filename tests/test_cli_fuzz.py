"""Random orientation, element and abstract field documents against the CLI exit-code contract.

Every run of ``grading``, ``nondeg`` and ``rigidity`` on an orientation,
of ``escape --element`` and ``partition`` on an element file, and of every
command that takes an abstract field file, on a valid or a damaged one,
ends with one JSON document and exit code 0 (ok), 2 (usage), 3 (domain) or
4 (theorem violation); an error document names its ``reason`` as a
lowercase slug.  A traceback would surface here as an exception out of
``main``.
"""

import contextlib
import io
import json
import re
import tempfile
from functools import lru_cache
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cmhodge import (
    CyclotomicNumber,
    Orientation,
    all_root_indices,
    build_cyclotomic_cm,
    element_from_coeffs,
    element_from_json,
    field_from_json,
    reynolds_average,
    validate_orientation,
    zero_element,
)
from cmhodge.acceptance import rational_nilpotent_examples
from cmhodge.cli import main
from cmhodge.cmfield import orientation_from_pick, orientation_picks
from conftest import _matrix_power_degree

CONDUCTORS = (3, 4, 5, 7, 8, 9, 12, 13)
REASON = re.compile(r"^[a-z-]+$")

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 7),
    st.text(max_size=3),
    st.lists(st.integers(-1, 6), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
DAMAGES = (
    "drop-label", "extra-label", "bad-pair", "swap-pair", "bad-weight",
    "drop-weight", "bad-assignment", "not-an-object", "truncated",
)


@st.composite
def orientation_runs(draw):
    """An argv for one command: a well-formed orientation at a random conductor, then up to two damages."""
    command = draw(st.sampled_from(("grading", "nondeg", "rigidity")))
    m = draw(st.sampled_from(CONDUCTORS))
    weight = draw(st.sampled_from((1, 3, 5)))
    assignment = {}
    for lab in range(1, m):
        if gcd(lab, m) == 1 and lab < m - lab:
            t = draw(st.integers(0, weight))
            assignment[str(lab)] = [weight - t, t]
            assignment[str(m - lab)] = [t, weight - t]
    doc = {"weight": weight, "assignment": assignment}
    truncated = False
    for damage in draw(st.lists(st.sampled_from(DAMAGES), max_size=2)):
        assignment = doc.get("assignment") if isinstance(doc, dict) else None
        keys = sorted(assignment) if isinstance(assignment, dict) else []
        if damage == "drop-label" and keys:
            del assignment[draw(st.sampled_from(keys))]
        elif damage == "extra-label" and keys:
            assignment[draw(st.text(max_size=3) | st.integers(0, 2 * m).map(str))] = [weight, 0]
        elif damage == "bad-pair" and keys:
            assignment[draw(st.sampled_from(keys))] = draw(JUNK)
        elif damage == "swap-pair" and keys:
            key = draw(st.sampled_from(keys))
            if isinstance(assignment[key], list):
                assignment[key] = assignment[key][::-1]
        elif damage == "bad-weight" and isinstance(doc, dict):
            doc["weight"] = draw(JUNK)
        elif damage == "drop-weight" and isinstance(doc, dict):
            doc.pop("weight", None)
        elif damage == "bad-assignment" and isinstance(doc, dict):
            doc["assignment"] = draw(JUNK)
        elif damage == "not-an-object":
            doc = draw(JUNK)
        elif damage == "truncated":
            truncated = True
    text = json.dumps(doc)
    if truncated:
        text = text[: draw(st.integers(0, max(0, len(text) - 1)))]
    argv = [command, "--conductor", str(m), f"--orientation={text}"]
    flag = draw(st.sampled_from((None, 1, 2, 3, 5)))
    if flag is not None:
        argv += ["--weight", str(flag)]
    return argv


@settings(max_examples=200, deadline=None)
@given(orientation_runs())
def test_orientation_commands_keep_the_exit_code_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    doc = json.loads(out.getvalue())
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert doc["command"] == argv[0]
    else:
        assert REASON.match(doc["error"]["reason"]), doc


# n <= 3 pairs keeps every exact closure fast; m = 8 and 12 have fixed field Q
ELEMENT_FIELDS = {5: (1, 1, 1, 1), 7: (1, 2, 2, 1), 8: (1, 1, 1, 1), 12: (1, 1, 1, 1)}
ELEMENT_DAMAGES = (
    "drop-field", "drop-terms", "junk-term", "junk-coeff", "foreign-conductor",
    "bad-index", "not-an-object", "truncated",
)


@lru_cache(maxsize=None)
def _field_and_examples(m, pick_number):
    """The oriented field of one listed orientation, with its rational nilpotent examples."""
    galois = build_cyclotomic_cm(m)
    pairs, picks = orientation_picks(galois, 3, ELEMENT_FIELDS[m])
    picks = list(picks)
    field = validate_orientation(galois, orientation_from_pick(3, pairs, picks[pick_number % len(picks)]))
    return field, tuple(v for _, v in rational_nilpotent_examples(field))


def _coefficient(draw, M):
    return CyclotomicNumber.root_of_unity(M, draw(st.integers(0, M - 1))) * draw(st.sampled_from((-2, -1, 1, 3)))


@st.composite
def element_runs(draw):
    """A command and an element document's text: rational nilpotent, Reynolds average, raw or zero, then up to two damages."""
    command = draw(st.sampled_from(("escape", "partition")))
    field, examples = _field_and_examples(draw(st.sampled_from(sorted(ELEMENT_FIELDS))), draw(st.integers(0, 23)))
    M = field.working_conductor
    kind = draw(st.sampled_from(("nilpotent", "nilpotent-sum", "average", "raw", "zero")))
    if kind.startswith("nilpotent"):
        parts = draw(st.lists(st.sampled_from(examples), min_size=1, max_size=1 if kind == "nilpotent" else 2))
        v = zero_element(field)
        for part in parts:
            v = v + part * draw(st.sampled_from((-3, -1, 1, 2)))
    elif kind in ("average", "raw"):
        support = draw(st.lists(st.sampled_from(all_root_indices(field.n)), min_size=1, max_size=3, unique=True))
        v = element_from_coeffs(field, {ij: _coefficient(draw, M) for ij in support})
        if kind == "average":
            v = reynolds_average(field, v)
    else:
        v = zero_element(field)
    doc = v.to_json()
    truncated = False
    for damage in draw(st.lists(st.sampled_from(ELEMENT_DAMAGES), max_size=2)):
        terms = doc.get("terms") if isinstance(doc, dict) else None
        terms = terms if isinstance(terms, list) else []
        if damage == "drop-field" and isinstance(doc, dict):
            doc.pop("field", None)
        elif damage == "drop-terms" and isinstance(doc, dict):
            doc.pop("terms", None)
        elif damage == "junk-term":
            terms.append(draw(JUNK))
        elif damage == "junk-coeff" and terms and isinstance(terms[0], dict):
            terms[0]["coeff"] = draw(JUNK)
        elif damage == "foreign-conductor":
            terms.append({"i": 1, "j": 1, "coeff": {"conductor": 8, "coeffs": ["1/1", "0/1", "0/1", "0/1"]}})
        elif damage == "bad-index":
            terms.append({"i": draw(st.sampled_from((0, 9, -9, True, "1", [1], {"a": 1}))), "j": 1, "coeff": CyclotomicNumber.one(M).to_json()})
        elif damage == "not-an-object":
            doc = draw(JUNK)
        elif damage == "truncated":
            truncated = True
    text = json.dumps(doc)
    if truncated:
        text = text[: draw(st.integers(0, max(0, len(text) - 1)))]
    return command, text


@settings(max_examples=150, deadline=None)
@given(element_runs())
def test_element_commands_keep_the_exit_code_contract(run):
    command, text = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "element.json"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--element", str(path)])
    doc = json.loads(out.getvalue())
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert REASON.match(doc["error"]["reason"]), doc
        return
    assert doc["command"] == command
    if command == "escape":
        # the verdict reads the degree off the rational form; matrix powers are the oracle
        assert doc["result"]["nilpotency_degree"] == _matrix_power_degree(element_from_json(json.loads(text)))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


@st.composite
def abstract_fields(draw, min_pairs=1):
    """An abstract field document and its conjugate pairs.

    The group is generated by signed permutations of n <= 4 conjugate pairs,
    the first an n-cycle on the pairs, so it is transitive on the 2n labels
    and commutes with conjugation.  Labels are strings or integers, listed in
    random order.
    """
    n = draw(st.integers(min_pairs, 4))
    label = st.text("abcAB", min_size=1, max_size=2) | st.integers(-3, 20)
    labels = draw(st.lists(label, min_size=2 * n, max_size=2 * n, unique_by=str))
    pairs = list(zip(labels[:n], labels[n:]))

    def signed(perm):
        flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        image = {}
        for k in range(n):
            a, b = pairs[perm[k]]
            if flips[k]:
                a, b = b, a
            image[pairs[k][0]], image[pairs[k][1]] = a, b
        return image

    order = draw(st.permutations(range(n)))
    cycle = [0] * n
    for i in range(n):
        cycle[order[i]] = order[(i + 1) % n]
    images = [signed(cycle)] + [signed(draw(st.permutations(range(n)))) for _ in range(draw(st.integers(0, 2)))]
    listed = draw(st.permutations(labels))
    conjugation = {**dict(pairs), **{b: a for a, b in pairs}}
    field_doc = {
        "flavor": "abstract",
        "labels": listed,
        "generators": [[image[lab] for lab in listed] for image in images],
        "conjugation": [conjugation[lab] for lab in listed],
    }
    return field_doc, pairs


def _orientation(draw, pairs):
    """A weight, an assignment over the pairs and its Hodge numbers."""
    weight = draw(st.sampled_from((1, 3, 5)))
    assignment = {}
    for a, b in pairs:
        t = draw(st.integers(0, weight))
        assignment[a] = (weight - t, t)
        assignment[b] = (t, weight - t)
    hodge = [0] * (weight + 1)
    for p, _ in assignment.values():
        hodge[weight - p] += 1
    return weight, assignment, hodge


@st.composite
def abstract_runs(draw):
    """An abstract field document, an orientation of it and the text of an element over it."""
    field_doc, pairs = draw(abstract_fields())
    weight, assignment, hodge = _orientation(draw, pairs)
    field = validate_orientation(field_from_json(field_doc), Orientation(weight, assignment))
    v = zero_element(field)
    if draw(st.sampled_from(("raw", "zero"))) == "raw":
        support = draw(st.lists(st.sampled_from(all_root_indices(len(pairs))), min_size=1, max_size=3, unique=True))
        v = element_from_coeffs(field, {ij: draw(st.sampled_from((-2, -1, 1, 3))) for ij in support})
    return field_doc, field.orientation.to_json(), hodge, json.dumps(v.to_json())


@settings(max_examples=60, deadline=None)
@given(abstract_runs())
def test_abstract_field_commands_keep_the_exit_code_contract(run):
    field_doc, orientation, hodge, element_text = run
    with tempfile.TemporaryDirectory() as tmp:
        field_path = Path(tmp) / "field.json"
        field_path.write_text(json.dumps(field_doc), encoding="utf-8")
        element_path = Path(tmp) / "element.json"
        element_path.write_text(element_text, encoding="utf-8")
        field_args = ["--abstract-file", str(field_path)]
        oriented_args = field_args + ["--orientation", json.dumps(orientation)]
        runs = {
            "field": _run(["field", *field_args]),
            "orient-enumerate": _run(
                ["orient", "enumerate", *field_args, "--weight", str(orientation["weight"]),
                 "--hodge", ",".join(map(str, hodge))]
            ),
            "grading": _run(["grading", *oriented_args]),
            "nondeg": _run(["nondeg", *oriented_args]),
            "rigidity": _run(["rigidity", *oriented_args]),
            "partition": _run(["partition", "--element", str(element_path)]),
            "escape": _run(["escape", "--element", str(element_path)]),
        }
    for command, (code, doc) in runs.items():
        assert code in (0, 2, 3, 4), command
        if code == 0:
            assert doc["command"] == command
        else:
            assert REASON.match(doc["error"]["reason"]), doc
    assert runs["partition"][0] == 3
    assert runs["partition"][1]["error"]["reason"] == "rationality-needs-cyclotomic"
    # escape checks nondegeneracy first, so it fails as nondeg does, or is
    # refused as a degenerate field, before rationality is asked
    code, doc = runs["nondeg"]
    if code != 0:
        expected = (code, doc["error"]["reason"])
    elif doc["result"]["verdict"] != "nondegenerate":
        expected = (3, "field-not-nondegenerate")
    else:
        expected = (3, "rationality-needs-cyclotomic")
    code, doc = runs["escape"]
    assert (code, doc["error"]["reason"]) == expected


# each damage breaks one check of the field's validation, before any command reads the orientation
ABSTRACT_DAMAGES = {
    "wrong-length": (2, "usage-error"),
    "not-a-permutation": (2, "usage-error"),
    "duplicate-label": (2, "usage-error"),
    "odd-label-count": (3, "not-a-cm-field"),
    "conjugation-fixed-point": (3, "conjugation-has-fixed-point"),
    "conjugation-not-involution": (3, "conjugation-not-involution"),
    "conjugation-not-central": (3, "conjugation-not-central"),
}


@st.composite
def damaged_abstract_runs(draw):
    """A valid abstract field document with one damage, and a well-formed orientation of the undamaged field."""
    doc, pairs = draw(abstract_fields(min_pairs=2))
    weight, assignment, hodge = _orientation(draw, pairs)
    damage = draw(st.sampled_from(sorted(ABSTRACT_DAMAGES)))
    labels, conjugation = doc["labels"], doc["conjugation"]
    pos = {lab: i for i, lab in enumerate(labels)}
    perm = doc["generators"][0] if draw(st.booleans()) else conjugation
    (a, b), (c, d) = draw(st.permutations(pairs))[:2]
    if damage == "wrong-length":
        if draw(st.booleans()):
            perm.pop()
        else:
            perm.append(perm[0])
    elif damage == "not-a-permutation":
        i, j = draw(st.permutations(range(len(perm))))[:2]
        perm[i] = draw(st.sampled_from((perm[j], "zz")))
    elif damage == "duplicate-label":
        labels[-1] = labels[0]
    elif damage == "odd-label-count":
        labels.pop()
    elif damage == "conjugation-fixed-point":
        conjugation[pos[a]], conjugation[pos[b]] = a, b
    elif damage == "conjugation-not-involution":
        # the 4-cycle a -> b -> c -> d -> a has no fixed point
        for x, y in ((a, b), (b, c), (c, d), (d, a)):
            conjugation[pos[x]] = y
    else:
        # swapping a and c alone does not commute with a <-> b, c <-> d
        doc["generators"].append([{a: c, c: a}.get(lab, lab) for lab in labels])
    return damage, doc, {"weight": weight, "assignment": {str(k): list(v) for k, v in assignment.items()}}, hodge


@settings(max_examples=60, deadline=None)
@given(damaged_abstract_runs())
def test_damaged_abstract_files_keep_the_exit_code_contract(run):
    damage, field_doc, orientation, hodge = run
    with tempfile.TemporaryDirectory() as tmp:
        field_path = Path(tmp) / "field.json"
        field_path.write_text(json.dumps(field_doc), encoding="utf-8")
        field_args = ["--abstract-file", str(field_path)]
        oriented_args = field_args + ["--orientation", json.dumps(orientation)]
        runs = [
            _run(["field", *field_args]),
            _run(["orient", "enumerate", *field_args, "--weight", str(orientation["weight"]),
                  "--hodge", ",".join(map(str, hodge))]),
            *(_run([command, *oriented_args]) for command in ("grading", "nondeg", "rigidity", "escape")),
        ]
    for code, doc in runs:
        assert code in (2, 3)
        assert REASON.match(doc["error"]["reason"]), doc
        assert (code, doc["error"]["reason"]) == ABSTRACT_DAMAGES[damage], doc
