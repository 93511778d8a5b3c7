"""Tests of the benchmark's own pieces: input generator, tracer, statistics."""

import json
import random

import pytest

import inputs
import run
import tracing
import worker

cmhodge = worker.load_cmhodge()
from cmhodge import cli  # noqa: E402
from cmhodge.cmfield import build_cyclotomic_cm, enumerate_orientations, validate_orientation  # noqa: E402
from cmhodge.verifiers import orbit_rank  # noqa: E402

SMALL_FIELDS = [
    (7, 3, (1, 2, 2, 1)),
    (9, 3, (1, 2, 2, 1)),
    (12, 3, (1, 1, 1, 1)),
    (16, 3, (1, 3, 3, 1)),
    (7, 5, (1, 1, 1, 1, 1, 1)),
    (13, 5, (1, 1, 4, 4, 1, 1)),
    (11, 3, (2, 3, 3, 2)),
]


@pytest.mark.parametrize("m,weight,hodge", SMALL_FIELDS)
def test_generator_agrees_with_enumerate_orientations(m, weight, hodge):
    galois = build_cyclotomic_cm(m)
    listed = enumerate_orientations(galois, weight, hodge)
    n = len(inputs.pair_reps(m))
    assert inputs.orientation_count(n, weight, hodge) == len(listed)
    canon = {inputs.canonical(o.to_json()) for o in listed}
    rng = random.Random(m)
    for _ in range(50):
        orientation = inputs.random_orientation(rng, m, weight, hodge)
        assert inputs.canonical(orientation) in canon
        oriented = validate_orientation(
            galois, cmhodge.Orientation.from_json(orientation, labels=galois.labels))
        assert inputs.orbit_rank(m, orientation) == orbit_rank(oriented)


def test_nondegenerate_orientation_reaches_the_cartan_bound():
    rng = random.Random(5)
    for m, hodge in worker.ESCAPE_LADDER:
        orientation = inputs.nondegenerate_orientation(rng, m, 3, hodge)
        assert inputs.orbit_rank(m, orientation) == len(inputs.pair_reps(m))


def test_self_times_on_a_synthetic_span_tree():
    # op 0: A [0, 10] with children B [1, 4] and C [5, 9]; C has child D [6, 7].
    # op 1: A [11, 12] alone.
    spans = [
        ("A", 0.0, 10.0, -1, 0),
        ("B", 1.0, 4.0, 0, 0),
        ("C", 5.0, 9.0, 0, 0),
        ("D", 6.0, 7.0, 2, 0),
        ("A", 11.0, 12.0, -1, 1),
    ]
    assert tracing.self_times(spans) == {
        "A": [2, 11.0, 4.0],
        "B": [1, 3.0, 3.0],
        "C": [1, 4.0, 3.0],
        "D": [1, 1.0, 1.0],
    }
    assert tracing.op_durations(spans, ("A",)) == [10.0, 1.0]


def test_tracer_replaces_every_reference_and_restores_them():
    originals = {id(getattr(orig, "__func__", orig)) for _, _, orig, _ in tracing.Tracer(cmhodge)._patches}
    tracer = tracing.Tracer(cmhodge)
    modules = [m for m in vars(cmhodge).values() if getattr(m, "__name__", "").startswith("cmhodge.")]
    holders = modules + [cmhodge] + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    tracer.install()
    try:
        left = [
            f"{holder.__name__}.{key}" for holder in holders
            for key, value in vars(holder).items()
            if id(getattr(value, "__func__", value)) in originals
        ]
        assert left == []
    finally:
        tracer.uninstall()
    assert cmhodge.CyclotomicNumber.__rmul__ is cmhodge.CyclotomicNumber.__mul__
    assert not hasattr(cmhodge.verifiers.generated_subalgebra, "__wrapped__")
    assert not hasattr(cmhodge.linalg.SpanBasis.insert, "__wrapped__")


def test_traced_escape_records_nested_spans_and_keeps_stdout(capsys):
    rng = random.Random(1)
    orientation = inputs.nondegenerate_orientation(rng, 7, 3, (1, 2, 2, 1))
    argv = ["escape", "--conductor", "7", "--weight", "3", "--orientation", json.dumps(orientation)]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    tracer = tracing.Tracer(cmhodge)
    tracer.install()
    try:
        assert cli.main(argv) == 0
        z = cmhodge.CyclotomicNumber.root_of_unity(12, 1)
        assert 3 * z == z * 3  # __rmul__ and __mul__, two more spans
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    spans = tracer.spans()
    names = [s[0] for s in spans]
    table = tracing.self_times(spans)
    assert table["cli.main"][0] == 1
    assert table["verifiers.escape_verdict"][0] == 1
    assert table["linalg.span_insert"][0] > 0
    assert names[-2:] == ["cyclotomic.mul", "cyclotomic.mul"]
    # brackets run under generated_subalgebra, which escape_verdict calls via its own import
    parents = {names[s[3]] for s in spans if s[0] == "algebra.bracket"}
    assert parents == {"algebra.generated_subalgebra"}
    assert {s[4] for s in spans[:-2]} == {0}
    assert 0 < tracer.tallies["linalg.span_insert"] <= table["linalg.span_insert"][0]


@pytest.mark.parametrize("n,percentile,beyond", [(4, 100.0, 0), (99, 100.0, 0), (100, 90.0, 10), (1000, 99.0, 10), (20000, 99.9, 20)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile, beyond):
    q, value, got_beyond = run.tail_percentile(list(range(n)))
    assert (q, got_beyond) == (percentile, beyond)
    assert value == n - 1 - beyond


def test_benchmark_spec_matches_the_committed_file():
    with open(f"{run.ROOT}/BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == run.benchmark_spec()
