import pytest

from cmhodge import (
    PreconditionError,
    UsageError,
    cartan_elements,
    is_block_system,
    reynolds_average,
    root_vector,
    support_graph,
    trivial_partition_check,
)
from cmhodge.acceptance import rational_nilpotent_witness


def test_cartan_support_is_loops_only(oriented7):
    h = cartan_elements(oriented7)[0]
    graph, partition = support_graph(h)
    assert graph["edges"] == [[1, 1], [-1, -1]]
    assert [len(b) for b in partition["blocks"]] == [1] * 6


def test_offdiagonal_support_carries_mirror_edge(oriented7):
    graph, partition = support_graph(root_vector(oriented7, 1, 2))
    assert graph["edges"] == [[1, 2], [-1, -2]]
    assert partition["blocks"] == [[1, 2], [3], [-1, -2], [-3]]


def test_reynolds_support_partition_is_block_system(oriented7):
    avg = reynolds_average(oriented7, root_vector(oriented7, 1, 2))
    graph, partition = support_graph(avg)
    assert len(graph["edges"]) == 6
    assert partition["blocks"] == [[1, 2, -3], [3, -1, -2]]
    assert is_block_system(oriented7, partition) == {"is_block_system": True, "witness": None}


def test_non_block_partition_produces_witness(oriented7):
    lopsided = {"blocks": [[1], [2, 3, -1, -2, -3]]}
    verdict = is_block_system(oriented7, lopsided)
    assert verdict["is_block_system"] is False
    assert set(verdict["witness"]) == {"generator", "block", "image"}
    assert verdict["witness"]["block"] == [1]


def test_is_block_system_validates_partitions(oriented7):
    with pytest.raises(UsageError):
        is_block_system(oriented7, {"blocks": [[1, 2], [2, 3, -1, -2, -3]]})
    with pytest.raises(UsageError):
        is_block_system(oriented7, {"blocks": [[1, 2, 3]]})


def test_trivial_partition_check_on_the_long_chain(oriented7):
    witness = rational_nilpotent_witness(oriented7)
    report = trivial_partition_check(witness)
    assert report["nilpotency_degree"] == 6
    assert report["max_component_size"] == 6
    assert report["partition_trivial"] is True
    assert report["degree_exceeds_n"] is True
    assert report["partition"]["blocks"] == [[1, 2, 3, -1, -2, -3]]


def test_trivial_partition_check_small_degree(oriented7):
    from cmhodge.acceptance import rational_nilpotent_examples

    examples = dict(rational_nilpotent_examples(oriented7))
    report = trivial_partition_check(examples["square-zero"])
    assert report["nilpotency_degree"] == 2
    assert report["nilpotency_degree"] <= report["max_component_size"]
    assert report["degree_exceeds_n"] is False


def test_trivial_partition_check_needs_rational_input(oriented7):
    with pytest.raises(PreconditionError) as err:
        trivial_partition_check(root_vector(oriented7, 1, 2))
    assert err.value.reason == "element-not-rational"
