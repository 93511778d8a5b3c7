import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from cmhodge import (
    Orientation,
    TheoremViolationError,
    field_to_json,
    reynolds_average,
    root_vector,
    trivial_partition_check,
    validate_orientation,
    zero_element,
)
from cmhodge import build_abstract_cm, build_cyclotomic_cm, cli, enumerate_orientations, graphs
from cmhodge.acceptance import SCHEMA_VERSION, rational_nilpotent_witness
from cmhodge.cmfield import orientation_from_pick
from cmhodge.cli import main
from conftest import abstract_z6

ORIENTATION_7 = json.dumps(
    {
        "assignment": {
            "1": [3, 0], "2": [2, 1], "3": [2, 1],
            "4": [1, 2], "5": [1, 2], "6": [0, 3],
        }
    }
)


def assert_same_text(got, expected):
    """Fail with the first differing line; pytest's own diff of a megabyte listing does not finish."""
    if got == expected:
        return
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    for i, (a, b) in enumerate(zip(got_lines, expected_lines)):
        if a != b:
            pytest.fail(f"line {i + 1}: got {a!r}, expected {b!r}")
    pytest.fail(f"got {len(got_lines)} lines, expected {len(expected_lines)}")


def _expand_listing(obj):
    """json.dumps' fallback: an orient enumerate listing, as its orientations' to_json dicts."""
    if type(obj) is not cli._OrientationListing:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return [orientation_from_pick(obj.weight, obj.pairs, pick).to_json() for pick in obj.picks]


@pytest.fixture(autouse=True)
def documents_match_json_dumps(monkeypatch):
    """Every document of these tests, and its --output copy, is json.dumps(indent=2, sort_keys=True).

    An orient enumerate listing is expanded through ``Orientation.to_json``.
    """
    emit = cli._emit

    def checked(payload, args):
        expected = json.dumps(payload, indent=2, sort_keys=True, default=_expand_listing) + "\n"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            emit(payload, args)
        assert_same_text(buf.getvalue(), expected)
        if args.output:
            path = os.path.join(os.environ.get("CMHODGE_OUTPUT_DIR", ""), args.output)
            with open(path, encoding="utf-8") as fh:
                assert_same_text(fh.read(), expected)
        sys.stdout.write(buf.getvalue())

    monkeypatch.setattr(cli, "_emit", checked)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_field_describe(capsys):
    code, doc = run_cli(capsys, "field", "--conductor", "7")
    assert code == 0
    assert doc["schema_version"] == "1"
    assert doc["command"] == "field"
    assert doc["result"]["embeddings"] == 6
    assert doc["result"]["pairs"] == 3
    assert doc["result"]["group_order"] == 6


def test_field_rejects_bad_conductor(capsys):
    code, doc = run_cli(capsys, "field", "--conductor", "10")
    assert code == 3
    assert doc["error"]["reason"] == "conductor-not-canonical"


def test_orient_enumerate_count(capsys):
    code, doc = run_cli(
        capsys, "orient", "enumerate", "--conductor", "7",
        "--weight", "3", "--hodge", "1,2,2,1",
    )
    assert code == 0
    assert doc["result"]["count"] == 24
    assert doc["result"]["hodge_numbers"] == [1, 2, 2, 1]
    first = doc["result"]["orientations"][0]
    assert first["assignment"]["1"] == [3, 0]


def test_orient_enumerate_past_the_cap_exits_3_at_once(capsys):
    # 1001 * 2^14 = 16400384 orientations: refused from the closed-form count
    start = time.perf_counter()
    code, doc = run_cli(
        capsys, "orient", "enumerate", "--conductor", "29",
        "--weight", "3", "--hodge", "4,10,10,4",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert doc["error"]["reason"] == "enumeration-cap-exceeded"
    assert doc["error"]["message"].startswith("16400384 orientations exceed")


def _int_labelled_z12():
    """Cyclic order-12 datum on int labels 0..11, conjugation x -> x + 6; "10" sorts before "2"."""
    labels = tuple(range(12))
    return build_abstract_cm(labels, ([(x + 1) % 12 for x in labels],), [(x + 6) % 12 for x in labels])


ENUMERATIONS = [
    (5, 1, (2, 2)),
    (5, 3, (1, 1, 1, 1)),
    (7, 1, (3, 3)),
    (7, 3, (1, 2, 2, 1)),
    (7, 5, (1, 1, 1, 1, 1, 1)),
    (8, 3, (1, 1, 1, 1)),
    (9, 3, (1, 2, 2, 1)),
    (9, 5, (1, 0, 2, 2, 0, 1)),
    (12, 1, (2, 2)),
    (12, 3, (0, 2, 2, 0)),
    (13, 3, (2, 4, 4, 2)),
    (13, 5, (1, 1, 4, 4, 1, 1)),
    (17, 1, (8, 8)),
    (17, 3, (2, 6, 6, 2)),
    ("z6", 1, (3, 3)),
    ("z6", 3, (1, 2, 2, 1)),
    ("z6", 5, (1, 1, 1, 1, 1, 1)),
    ("z12", 1, (6, 6)),
    ("z12", 3, (1, 5, 5, 1)),
    ("z12", 5, (1, 1, 4, 4, 1, 1)),
]


@pytest.mark.parametrize("field,weight,hodge", ENUMERATIONS)
def test_orient_enumerate_equals_json_dumps_of_the_to_json_route(capsys, tmp_path, field, weight, hodge):
    if field in ("z6", "z12"):
        galois = abstract_z6() if field == "z6" else _int_labelled_z12()
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field_to_json(galois)), encoding="utf-8")
        field_args = ["--abstract-file", str(path)]
    else:
        galois = build_cyclotomic_cm(field)
        field_args = ["--conductor", str(field)]
    orientations = [o.to_json() for o in enumerate_orientations(galois, weight, hodge)]
    expected = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "orient-enumerate",
            "result": {
                "count": len(orientations),
                "weight": weight,
                "hodge_numbers": list(hodge),
                "orientations": orientations,
            },
        },
        indent=2,
        sort_keys=True,
    ) + "\n"
    out = tmp_path / "listing.json"
    code = main(["--output", str(out), "orient", "enumerate", *field_args,
                 "--weight", str(weight), "--hodge", ",".join(map(str, hodge))])
    assert code == 0
    assert_same_text(capsys.readouterr().out, expected)
    assert_same_text(out.read_text(encoding="utf-8"), expected)


@pytest.mark.parametrize(
    "argv,code,reason,message",
    [
        (["--conductor", "7", "--weight", "3", "--hodge", "1,2,1,2"], 2, "usage-error",
         "Hodge numbers must be symmetric"),
        (["--conductor", "7", "--weight", "3", "--hodge", "1,2,2"], 2, "usage-error",
         "weight 3 needs 4 Hodge numbers, got 3"),
        (["--conductor", "7", "--weight", "3", "--hodge", "2,2,2,2"], 2, "usage-error",
         "Hodge numbers sum to 8, but the field has 6 embeddings"),
        (["--conductor", "7", "--weight", "3", "--hodge=-1,4,4,-1"], 2, "usage-error",
         "Hodge numbers must be nonnegative integers"),
        (["--conductor", "7", "--weight", "2", "--hodge", "1,4,1"], 3, "odd-weight-required",
         "odd weight required, got 2"),
        (["--conductor", "17", "--weight", "5", "--hodge", "1,3,4,4,3,1"], 3, "enumeration-cap-exceeded",
         "71680 orientations exceed the enumeration cap of 50000"),
    ],
)
def test_orient_enumerate_error_documents(capsys, argv, code, reason, message):
    got, doc = run_cli(capsys, "orient", "enumerate", *argv)
    assert got == code
    assert doc == {"schema_version": SCHEMA_VERSION, "error": {"reason": reason, "message": message}}


def test_labels_colliding_as_json_keys_are_a_usage_error(capsys, tmp_path):
    # 1 and "1" are distinct labels but the same key "1" of an orientation's assignment
    path = tmp_path / "field.json"
    path.write_text(json.dumps(
        {"flavor": "abstract", "labels": [1, "1"], "generators": [[1, "1"]], "conjugation": ["1", 1]}
    ), encoding="utf-8")
    for argv in (["field"], ["orient", "enumerate", "--weight", "1", "--hodge", "1,1"]):
        code, doc = run_cli(capsys, *argv, "--abstract-file", str(path))
        assert code == 2
        assert doc["error"]["reason"] == "bad-field"


def _hyperoctahedral_b7():
    """B_7 on labels a0..a6, b0..b6: pair i is {ai, bi}; order 2^7 * 7! = 645120."""
    a = [f"a{i}" for i in range(7)]
    b = [f"b{i}" for i in range(7)]
    labels = a + b

    def perm(images):
        return [images.get(lab, lab) for lab in labels]

    cycle = perm({**{a[i]: a[(i + 1) % 7] for i in range(7)}, **{b[i]: b[(i + 1) % 7] for i in range(7)}})
    swap = perm({a[0]: a[1], a[1]: a[0], b[0]: b[1], b[1]: b[0]})
    flip = perm({a[0]: b[0], b[0]: a[0]})
    conjugation = perm({**dict(zip(a, b)), **dict(zip(b, a))})
    field = {"flavor": "abstract", "labels": labels, "generators": [cycle, swap, flip], "conjugation": conjugation}
    assignment = {"a0": [3, 0], "b0": [0, 3]}
    for i in range(1, 7):
        assignment[a[i]], assignment[b[i]] = [2, 1], [1, 2]
    return field, {"weight": 3, "assignment": assignment}


def test_rigidity_runs_on_an_abstract_group_above_the_cap(capsys, tmp_path):
    # edge orbits are walked from the generators, so rigidity never lists the
    # 645120 elements; nondeg needs every element and stops at the group cap
    field, orientation = _hyperoctahedral_b7()
    path = tmp_path / "b7.json"
    path.write_text(json.dumps(field), encoding="utf-8")
    argv = ["--abstract-file", str(path), "--orientation", json.dumps(orientation)]
    code, doc = run_cli(capsys, "rigidity", *argv)
    assert code == 0
    assert doc["result"]["verdict"] == "rigid"
    assert sum(orbit["size"] for orbit in doc["result"]["orbits"]) == 14 * 13 // 2
    code, doc = run_cli(capsys, "nondeg", *argv)
    assert code == 3
    assert doc["error"]["reason"] == "enumeration-cap-exceeded"


def test_abstract_rigidity_with_offending_orbits_runs_above_the_cap(capsys, tmp_path):
    # at weight 1 every edge orbit is admissible; an abstract field has no
    # coefficient action, so its offending orbits carry no Reynolds average
    # and the 645120 elements are still never listed
    field, _ = _hyperoctahedral_b7()
    path = tmp_path / "b7.json"
    path.write_text(json.dumps(field), encoding="utf-8")
    assignment = {}
    for i in range(7):
        assignment[f"a{i}"], assignment[f"b{i}"] = [1, 0], [0, 1]
    orientation = json.dumps({"weight": 1, "assignment": assignment})
    code, doc = run_cli(capsys, "rigidity", "--abstract-file", str(path), "--orientation", orientation)
    assert code == 0
    result = doc["result"]
    assert result["verdict"] == "not-rigid"
    assert result["offending_orbits"] == [[1, 2], [1, -1]]
    assert not any(key.startswith("witness_") for orbit in result["orbits"] for key in orbit)


def test_field_reports_the_order_of_an_abstract_group_above_the_cap(capsys, tmp_path):
    # the order comes from a stabilizer chain, so the 645120 elements are never listed
    field, _ = _hyperoctahedral_b7()
    path = tmp_path / "b7.json"
    path.write_text(json.dumps(field), encoding="utf-8")
    code, doc = run_cli(capsys, "field", "--abstract-file", str(path))
    assert code == 0
    assert doc["result"]["group_order"] == 645120
    assert doc["result"]["embeddings"] == 14


def test_grading_command(capsys):
    code, doc = run_cli(
        capsys, "grading", "--conductor", "7",
        "--weight", "3", "--orientation", ORIENTATION_7,
    )
    assert code == 0
    grading = doc["result"]["grading"]
    assert grading["pair_values"] == {"1": 3, "2": 1, "3": 1}


def test_nondeg_balanced_orientation(capsys):
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "7",
        "--weight", "3", "--orientation", ORIENTATION_7,
    )
    assert code == 0
    assert doc["result"]["verdict"] == "nondegenerate"
    assert doc["result"]["orbit_rank"] == 3
    assert doc["result"]["circulant_rank"] is None


def test_nondeg_with_two_pairs_skips_the_circulant_route(capsys):
    # n = 2 is prime but even; a 2 x 2 circulant has no odd-prime dichotomy
    orientation = json.dumps(
        {"assignment": {"1": [3, 0], "11": [0, 3], "5": [2, 1], "7": [1, 2]}, "weight": 3}
    )
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "12",
        "--weight", "3", "--orientation", orientation,
    )
    assert code == 0
    assert doc["result"]["orbit_rank"] == 2
    assert doc["result"]["circulant_rank"] is None


def test_orient_enumerate_has_no_jobs_flag():
    with pytest.raises(SystemExit) as err:
        main([
            "orient", "enumerate", "--conductor", "7",
            "--weight", "3", "--hodge", "1,2,2,1", "--jobs", "2",
        ])
    assert err.value.code == 2


def test_even_weight_is_a_domain_error(capsys):
    flat = json.dumps({"assignment": {str(k): [1, 1] for k in range(1, 7)}})
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "7",
        "--weight", "2", "--orientation", flat,
    )
    assert code == 3
    assert doc["error"]["reason"] == "odd-weight-required"


def test_boolean_weight_is_a_domain_error(capsys):
    weight_one = {str(k): [1, 0] if k < 4 else [0, 1] for k in range(1, 7)}
    code, doc = run_cli(
        capsys, "grading", "--conductor", "7",
        "--orientation", json.dumps({"weight": True, "assignment": weight_one}),
    )
    assert code == 3
    assert doc["error"]["reason"] == "odd-weight-required"


def test_bad_inline_json(capsys):
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "7",
        "--weight", "3", "--orientation", "{not json",
    )
    assert code == 2
    assert doc["error"]["reason"] == "bad-json"


@pytest.mark.parametrize(
    "orientation,reason",
    [
        ('{"assignment": {"1": ["a", 0]}}', "bad-orientation"),
        ('{"assignment": {"1": [true, 2]}}', "bad-orientation"),
        ('{"assignment": [1, 2]}', "bad-orientation"),
    ],
)
def test_malformed_orientation_is_usage_error(capsys, orientation, reason):
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "7",
        "--weight", "3", "--orientation", orientation,
    )
    assert code == 2
    assert doc["error"]["reason"] == reason


@pytest.mark.parametrize("alias", ["07", " 7", "+7"], ids=["zero-padded", "space-padded", "plus-signed"])
def test_an_alias_of_a_label_is_not_that_label(capsys, alias):
    # read as label 7, the alias would override its [1, 0] and make the orientation valid
    assignment = {"1": [1, 0], "3": [1, 0], "5": [0, 1], "7": [1, 0], alias: [0, 1]}
    orientation = json.dumps({"weight": 1, "assignment": assignment})
    code, doc = run_cli(capsys, "nondeg", "--conductor", "8", "--orientation", orientation)
    assert code == 3
    assert doc["error"]["reason"] == "invalid-orientation"
    assert doc["error"]["message"].startswith("assignment labels do not match")


def test_orientation_file_that_is_not_an_object(capsys, tmp_path):
    path = tmp_path / "five.json"
    path.write_text("5")
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "7",
        "--weight", "3", "--orientation", str(path),
    )
    assert code == 2
    assert doc["error"]["reason"] == "bad-orientation"


def test_orientation_path_that_is_a_directory(capsys, tmp_path):
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "7",
        "--weight", "3", "--orientation", str(tmp_path),
    )
    assert code == 2
    assert doc["error"]["reason"] == "unreadable-file"


def test_element_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    code, doc = run_cli(capsys, "partition", "--element", str(path))
    assert code == 2
    assert doc["error"]["reason"] == "bad-json"


def test_missing_element_file(capsys):
    code, doc = run_cli(capsys, "partition", "--element", "/nonexistent/v.json")
    assert code == 2
    assert doc["error"]["reason"] == "missing-file"


def test_weight_conflict_is_usage_error(capsys):
    withw = json.dumps({"weight": 3, "assignment": json.loads(ORIENTATION_7)["assignment"]})
    code, doc = run_cli(
        capsys, "nondeg", "--conductor", "7",
        "--weight", "5", "--orientation", withw,
    )
    assert code == 2


def test_missing_subcommand_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["nondeg", "--conductor", "7"])
    assert err.value.code == 2


def test_escape_needs_element_or_orientation(capsys):
    code, doc = run_cli(capsys, "escape", "--conductor", "7")
    assert code == 2


def test_field_with_a_huge_conductor_exits_3_at_once(capsys):
    code, doc = run_cli(capsys, "field", "--conductor", "1000003")
    assert code == 3
    assert doc["error"]["reason"] == "enumeration-cap-exceeded"


@pytest.fixture(scope="module")
def witness_file(tmp_path_factory, oriented7):
    v = rational_nilpotent_witness(oriented7)
    path = tmp_path_factory.mktemp("elements") / "witness.json"
    path.write_text(json.dumps(v.to_json()))
    return str(path)


def test_partition_of_witness(capsys, witness_file):
    code, doc = run_cli(capsys, "partition", "--element", witness_file)
    assert code == 0
    assert doc["result"]["rational"] is True
    assert doc["result"]["partition"]["blocks"] == [[1, 2, 3, -1, -2, -3]]
    assert doc["result"]["block_verdict"]["is_block_system"] is True


@pytest.mark.parametrize("command", ["partition", "closure"])
@pytest.mark.parametrize(
    "defect,reason",
    [
        ("no-coeff", "bad-element"),
        ("terms-not-a-list", "bad-element"),
        ("coeffs-not-a-list", "usage-error"),
        # a coefficient literal is a string or an int, nothing else
        ("coeff-null", "usage-error"),
        ("coeff-list", "usage-error"),
        ("coeff-float", "usage-error"),
        ("coeff-bool", "usage-error"),
        # a term index is an int, not a boolean, a list or an object
        ("index-bool", "bad-element"),
        ("index-list", "bad-element"),
        ("index-object", "bad-element"),
        # a second term at the same (i, j), here a zero copy of the first, would replace it
        ("repeated-term", "bad-element"),
    ],
)
def test_malformed_element_is_usage_error(capsys, tmp_path, witness_file, command, defect, reason):
    with open(witness_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    literals = {"coeff-null": None, "coeff-list": [1], "coeff-float": 1.5, "coeff-bool": True}
    if defect == "no-coeff":
        doc["terms"] = [{k: v for k, v in t.items() if k != "coeff"} for t in doc["terms"]]
    elif defect == "terms-not-a-list":
        doc["terms"] = 5
    elif defect == "coeffs-not-a-list":
        doc["terms"][0]["coeff"]["coeffs"] = 5
    elif defect == "repeated-term":
        first = doc["terms"][0]
        zero = dict(first["coeff"], coeffs=["0/1"] * len(first["coeff"]["coeffs"]))
        doc["terms"].append(dict(first, coeff=zero))
    elif defect == "index-bool":
        assert doc["terms"][0]["i"] == 1  # so True would read as the same index
        doc["terms"][0]["i"] = True
    elif defect == "index-list":
        doc["terms"][0]["i"] = [1]
    elif defect == "index-object":
        doc["terms"][0]["j"] = {"a": 1}
    else:
        doc["terms"][0]["coeff"]["coeffs"][0] = literals[defect]
    path = tmp_path / "element.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, command, "--element", str(path))
    assert code == 2
    assert out["error"]["reason"] == reason


def test_closure_of_witness(capsys, witness_file):
    code, doc = run_cli(
        capsys, "closure", "--element", witness_file, "--with-cartan"
    )
    assert code == 0
    assert doc["result"]["dimension"] == 21
    assert doc["result"]["ambient_dimension"] == 21


def test_escape_from_element_file(capsys, witness_file):
    code, doc = run_cli(capsys, "escape", "--element", witness_file)
    assert code == 0
    assert doc["result"]["applicable"] is True
    assert doc["result"]["nilpotency_degree"] == 6
    assert doc["result"]["closure_dimension"] == 21


def test_escape_on_a_non_rational_element_exits_3(capsys, tmp_path, oriented7):
    # a root vector is well formed and nilpotent, but no group element fixes it
    path = tmp_path / "root.json"
    path.write_text(json.dumps(root_vector(oriented7, 1, 2).to_json()))
    code, doc = run_cli(capsys, "escape", "--element", str(path))
    assert code == 3
    assert doc["error"] == {
        "reason": "element-not-rational",
        "message": "escape_verdict needs a rational element",
    }


@pytest.mark.parametrize(
    "extra,named",
    [
        # contradictory: another conductor and weight, and a malformed orientation
        (["--conductor", "9", "--weight", "5", "--orientation", '{"x":1}'],
         "--conductor, --weight, --orientation"),
        # redundant: the witness's own conductor, weight and orientation
        (["--conductor", "7"], "--conductor"),
        (["--weight", "3", "--orientation", ORIENTATION_7], "--weight, --orientation"),
    ],
)
def test_escape_element_refuses_field_flags(capsys, witness_file, extra, named):
    code, doc = run_cli(capsys, "escape", "--element", witness_file, *extra)
    assert code == 2
    assert doc["error"]["reason"] == "element-excludes-field-flags"
    assert doc["error"]["message"].endswith(f"drop {named}")


def test_escape_element_refuses_an_abstract_file(capsys, witness_file, abstract_files):
    code, doc = run_cli(
        capsys, "escape", "--element", witness_file, "--abstract-file", abstract_files["field"]
    )
    assert code == 2
    assert doc["error"]["reason"] == "element-excludes-field-flags"


def test_a_theorem_violation_exits_4_with_the_shared_message(capsys, tmp_path, monkeypatch, oriented7):
    # a rational element whose support splits into two blocks, given a degree above n = 3
    split = reynolds_average(oriented7, root_vector(oriented7, 1, 2))
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split.to_json()))
    monkeypatch.setattr(graphs, "rational_nilpotency_degree", lambda v: 4)
    message = "degree 4 > n = 3 but the support partition is not trivial"
    code, doc = run_cli(capsys, "escape", "--element", str(path))
    assert code == 4
    assert doc["error"] == {"reason": "theorem-violation", "message": message}
    with pytest.raises(TheoremViolationError) as err:
        trivial_partition_check(split)
    assert str(err.value) == message


def test_escape_constructs_its_own_witness(capsys):
    code, doc = run_cli(
        capsys, "escape", "--conductor", "7",
        "--weight", "3", "--orientation", ORIENTATION_7,
    )
    assert code == 0
    assert doc["result"]["applicable"] is True
    assert doc["result"]["closure_dimension"] == 21


BALANCED_Z6 = {
    "a": [3, 0], "b": [2, 1], "c": [2, 1],
    "A": [0, 3], "B": [1, 2], "C": [1, 2],
}


@pytest.fixture(scope="module")
def abstract_files(tmp_path_factory):
    """The abstract Z/6 field, and two elements over its balanced orientation that its bare substitution fixes."""
    galois = abstract_z6()
    field = validate_orientation(
        galois, Orientation(3, {lab: tuple(pq) for lab, pq in BALANCED_Z6.items()})
    )
    # the sum of the X_{k,-k} and X_{-k,k} is fixed by the group but not nilpotent
    swap = zero_element(field)
    for k in (1, 2, 3):
        swap = swap + root_vector(field, k, -k) + root_vector(field, -k, k)
    base = tmp_path_factory.mktemp("abstract")
    paths = {}
    for name, doc in (
        ("field", field_to_json(galois)),
        ("zero", zero_element(field).to_json()),
        ("swap", swap.to_json()),
    ):
        path = base / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def test_escape_witness_needs_a_cyclotomic_field(capsys, abstract_files):
    code, doc = run_cli(
        capsys, "escape", "--abstract-file", abstract_files["field"],
        "--weight", "3", "--orientation", json.dumps({"assignment": BALANCED_Z6}),
    )
    assert code == 3
    assert doc["error"]["reason"] == "witness-needs-cyclotomic"


def test_escape_element_on_an_abstract_field(capsys, abstract_files):
    # the balanced Z/6 orientation is nondegenerate, so escape passes its
    # precondition and then meets the refusal, like partition
    for command in ("escape", "partition"):
        for name in ("zero", "swap"):
            code, doc = run_cli(capsys, command, "--element", abstract_files[name])
            assert code == 3
            assert doc["error"]["reason"] == "rationality-needs-cyclotomic"


def test_rigidity_command(capsys):
    flat = json.dumps(
        {
            "assignment": {
                "1": [5, 0], "2": [4, 1], "3": [3, 2],
                "4": [2, 3], "5": [1, 4], "6": [0, 5],
            }
        }
    )
    code, doc = run_cli(
        capsys, "rigidity", "--conductor", "7",
        "--weight", "5", "--orientation", flat,
    )
    assert code == 0
    assert doc["result"]["hypotheses_met"] is True
    assert doc["result"]["verdict"] == "rigid"


def test_output_file_honors_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CMHODGE_OUTPUT_DIR", str(tmp_path))
    code = main(["--output", "report.json", "field", "--conductor", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "report.json").read_text() == out


def test_error_document_output_copy(capsys, tmp_path):
    path = tmp_path / "error.json"
    code = main(["--output", str(path), "field", "--conductor", "10"])
    assert code == 3
    assert path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, target):
    path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    code, doc = run_cli(capsys, "--output", str(path), "field", "--conductor", "7")
    assert code == 2
    assert doc["error"]["reason"] == "unwritable-output"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "defect",
    ["labels-not-a-list", "generator-not-a-list", "list-labels", "conjugation-not-a-list", "bool-labels"],
)
def test_malformed_abstract_field_is_a_usage_error(capsys, tmp_path, defect):
    doc = field_to_json(abstract_z6())
    if defect == "labels-not-a-list":
        doc["labels"] = 5
    elif defect == "generator-not-a-list":
        doc["generators"] = [5]
    elif defect == "list-labels":
        doc["labels"] = [[lab] for lab in doc["labels"]]
    elif defect == "conjugation-not-a-list":
        doc["conjugation"] = "ABCabc"
    else:
        doc = {"flavor": "abstract", "labels": [True, False], "generators": [], "conjugation": [False, True]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "field", "--abstract-file", str(path))
    assert code == 2
    assert out["error"]["reason"] == "bad-field"


def test_boolean_conductor_in_field_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"flavor": "cyclotomic", "conductor": True}))
    code, doc = run_cli(capsys, "field", "--abstract-file", str(path))
    assert code == 2
    assert doc["error"]["reason"] == "usage-error"


def test_one_parser_serves_interleaved_calls(capsys, monkeypatch, witness_file):
    calls = [
        ["closure", "--element", witness_file],
        ["closure", "--element", witness_file, "--element", witness_file],
        ["nondeg", "--conductor", "7"],  # argparse: --orientation is required
        ["field", "--conductor", "10"],  # domain error
        ["nondeg", "--conductor", "7", "--weight", "3", "--orientation", ORIENTATION_7],
        ["closure", "--element", witness_file],  # the append list starts empty again
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        out = capsys.readouterr()
        return code, out.out, out.err

    assert cli._parser() is cli._parser()
    reused = [run(argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    fresh = [run(argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, "exit 2", 3, 0, 0]
    seeds = [json.loads(reused[k][1])["result"]["seeds"] for k in (0, 1, 5)]
    assert seeds == [1, 2, 1]


def test_module_invocation_is_byte_deterministic():
    cmd = [sys.executable, "-m", "cmhodge", "field", "--conductor", "7"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["result"]["embeddings"] == 6
