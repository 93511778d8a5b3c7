"""Support graphs and imprimitivity partitions.

The support graph of an algebra element has the 2n signed indices as
vertices and an edge {i, j} (plus its mirror {-i, -j}) for every index
pair carrying a nonzero coefficient.  Diagonal coefficients contribute
self-loops, which are recorded but never affect connectivity.  For a
rational element the connected components form a block system for the
Galois action; that is the checkable heart of the imprimitivity story.
Graphs, partitions and verdicts are the JSON documents the CLI prints.
"""

from __future__ import annotations

from .algebra import is_rational, rational_nilpotency_degree
from .cmfield import basis_pos
from .errors import PreconditionError, TheoremViolationError, UsageError


def _edge(n, a, b):
    if basis_pos(n, a) <= basis_pos(n, b):
        return (a, b)
    return (b, a)


def _components(n, vertices, edges):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a == b:
            continue  # self-loops never glue anything together
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    key = lambda k: basis_pos(n, k)
    blocks = [sorted(g, key=key) for g in groups.values()]
    blocks.sort(key=lambda b: key(b[0]))
    return {"blocks": blocks}


def _support_edges(v):
    n = v.field.n
    edges = set()
    for i, j in v.coeffs:
        if i == j:
            edges.add((i, i))
            edges.add((-i, -i))
        else:
            edges.add(_edge(n, i, j))
            edges.add(_edge(n, -i, -j))
    return edges


def _sorted_edges(n, edges):
    key = lambda e: (basis_pos(n, e[0]), basis_pos(n, e[1]))
    return tuple(sorted(edges, key=key))


def support_graph(v):
    """Support graph and its component partition for one element, as JSON documents.

    The graph is ``{"vertices": [...], "edges": [[a, b], ...]}``, edges in
    basis order and loops as ``[a, a]``; the partition is
    ``{"blocks": [[...], ...]}``, each block sorted and the blocks ordered by
    their first members.
    """
    n = v.field.n
    vertices = v.field.signed_indices()
    edges = _support_edges(v)
    graph = {"vertices": list(vertices), "edges": [list(e) for e in _sorted_edges(n, edges)]}
    return graph, _components(n, vertices, edges)


def is_block_system(field, partition):
    """Check that every element of ``group_generators`` maps every block onto a block.

    ``partition`` is a ``{"blocks": [...]}`` document, as ``support_graph``
    returns.  The result is ``{"is_block_system": ..., "witness": ...}``;
    the witness is the first failure, in generator-then-block order: the
    offending generator (as a label image list), the block, and its image
    set, or None.
    """
    blocks = partition["blocks"]
    block_sets = [frozenset(b) for b in blocks]
    universe = set()
    for b in block_sets:
        if universe & b:
            raise UsageError("partition blocks overlap")
        universe |= b
    if universe != set(field.signed_indices()):
        raise UsageError("partition does not cover all signed indices")
    have = set(block_sets)
    n = field.n
    for g in field.galois.group_generators:
        for b, bset in zip(blocks, block_sets):
            image = frozenset(field.act_index(g, x) for x in bset)
            if image not in have:
                key = lambda k: basis_pos(n, k)
                witness = {"generator": list(g), "block": list(b), "image": sorted(image, key=key)}
                return {"is_block_system": False, "witness": witness}
    return {"is_block_system": True, "witness": None}


def _degree_and_partition(field, v, caller):
    """Nilpotency degree and support partition of a rational nilpotent element.

    Enforces the bound shared by every verdict on such an element: a degree
    above n forces the trivial partition.  ``caller`` names the public
    function in the error for a non-rational element.  The degree is read
    off the element's form over the fixed field; ``is_rational`` refuses an
    abstract field, which has no such form.
    """
    if not is_rational(field, v):
        raise PreconditionError(f"{caller} needs a rational element", reason="element-not-rational")
    degree = rational_nilpotency_degree(v)  # raises when not nilpotent
    _, partition = support_graph(v)
    if degree > field.n and len(partition["blocks"]) != 1:
        raise TheoremViolationError(
            f"degree {degree} > n = {field.n} but the support partition is not trivial"
        )
    return degree, partition


def trivial_partition_check(v):
    """Degree-versus-component report for a rational nilpotent element.

    Returns the nilpotency degree l, the largest component size, and whether
    the partition is a single block; when l exceeds n the partition must be
    trivial, and l can never exceed the largest component size.
    """
    field = v.field
    degree, partition = _degree_and_partition(field, v, "trivial_partition_check")
    blocks = partition["blocks"]
    max_component = max(map(len, blocks))
    if degree > max_component:
        raise TheoremViolationError(
            f"nilpotency degree {degree} exceeds the largest component size {max_component}"
        )
    return {
        "nilpotency_degree": degree,
        "max_component_size": max_component,
        "partition_trivial": len(blocks) == 1,
        "degree_exceeds_n": degree > field.n,
        "partition": partition,
    }
