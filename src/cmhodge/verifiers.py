"""Rank computations and theorem-level verdicts.

Circulant ranks behind the nondegeneracy dichotomy are certified from
their eigenvalues modulo a split prime when those show rank p, and
computed by a polynomial gcd otherwise; explicit elimination is the
independent route the battery checks them against.  Orbit ranks over the
full Galois group decide nondegeneracy of an oriented field, and the
escape and rigidity verdicts wire the algebraic layer to the
combinatorial one; each verdict is the JSON document the CLI prints.
A TheoremViolationError from any function here means a proved statement
failed on concrete data, which is release blocking by design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .algebra import (
    bidegree,
    cartan_elements,
    generated_subalgebra,
    reynolds_average,
    root_vector,
)
from .cmfield import _reached
from .errors import (
    PreconditionError,
    TheoremViolationError,
    UsageError,
)
from .graphs import _degree_and_partition, _edge, _sorted_edges, support_graph
from .linalg import _is_prime, rank_rational, split_prime
from .polynomials import Poly, poly_gcd


@dataclass(frozen=True)
class CirculantSpec:
    """Integer entries (A_0, ..., A_{p-1}) of a p x p circulant, p an odd prime."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(a) for a in self.entries)
        object.__setattr__(self, "entries", entries)
        p = len(entries)
        if p % 2 == 0 or not _is_prime(p):
            raise UsageError(f"circulant length must be an odd prime, got {p}")

    @property
    def size(self):
        return len(self.entries)

    def all_odd(self):
        return all(a % 2 != 0 for a in self.entries)


def circulant_matrix(spec):
    """The explicit matrix: each row is the previous one shifted cyclically left."""
    p = spec.size
    return [[spec.entries[(s + t) % p] for s in range(p)] for t in range(p)]


@lru_cache(maxsize=None)
def _eigenvalue_rows(p):
    """(q, rows) for q, omega = split_prime(p): rows[k][j] = omega^(jk) mod q, j, k = 0..p-1.

    The rows hold p^2 references to the p residues omega^i, so row k dotted
    with the entries is the eigenvalue f(omega^k) up to one reduction mod q.
    """
    q, omega = split_prime(p)
    powers = [pow(omega, i, q) for i in range(p)]
    return q, tuple(tuple(powers[j * k % p] for j in range(p)) for k in range(p))


def _full_rank_mod_split_prime(spec):
    """True when the symbol f(x) = sum A_j x^j has no root mod q among the p-th roots of unity.

    q, omega = split_prime(p): q is a prime with q = 1 (mod p) and omega a
    primitive p-th root of unity mod q, so over F_q the polynomial x^p - 1
    is prod_k (x - omega^k), with distinct linear factors.  The rank of the
    circulant over Q is p - deg d, for d the monic gcd of f and x^p - 1.
    d divides x^p - 1, so it lies in Z[x] by Gauss's lemma, and d divides f
    with an integral quotient, since d is monic.  So d mod q, still monic
    of the same degree, divides f mod q and x^p - 1 over F_q.  When no
    f(omega^k) is 0 mod q, those two are coprime, so d = 1 and the rank is
    p.  Equivalently: mod q the circulant is diagonal in the basis of the
    characters, with eigenvalues f(omega^k), and a rank can only fall under
    reduction.  False proves nothing: f can vanish mod q at a root of unity
    where it does not vanish over Q.
    """
    q, rows = _eigenvalue_rows(spec.size)
    entries = spec.entries
    return all(sum(map(mul, entries, row)) % q for row in rows)


def _circulant_rank_by_gcd(spec):
    """Rank over Q as p minus the degree of gcd(f, x^p - 1): the exact route."""
    p = spec.size
    f = Poly._make(spec.entries)
    g = poly_gcd(f, Poly._make((-1,) + (0,) * (p - 1) + (1,)))  # x^p - 1
    return p - g.degree if not f.is_zero() else 0


def circulant_rank(spec):
    """Rank over Q of the circulant: certified rank p mod a split prime, else exact.

    When none of the eigenvalues f(omega^k) vanishes modulo the split prime
    q, the rank is p (``_full_rank_mod_split_prime`` holds the argument).
    Every other spec takes the monic gcd of the symbol and x^p - 1 by
    Euclid over Q (``_circulant_rank_by_gcd``).  So every rank below p
    comes from the exact route, and neither route assumes anything about
    the factors of x^p - 1 over Q: a non-constant odd circulant of rank
    below p would still reach ``ribet_dichotomy``'s violation.
    """
    if _full_rank_mod_split_prime(spec):
        return spec.size
    return _circulant_rank_by_gcd(spec)


DICHOTOMY_RANK_P = "rank_p"
DICHOTOMY_ALL_EQUAL = "all_equal"


def ribet_dichotomy(spec):
    """For all-odd entries: either the rank is p or the entries are constant."""
    if not spec.all_odd():
        raise UsageError("the rank dichotomy needs all entries odd")
    rank = circulant_rank(spec)
    if rank == spec.size:
        return DICHOTOMY_RANK_P
    if len(set(spec.entries)) == 1:
        return DICHOTOMY_ALL_EQUAL
    raise TheoremViolationError(
        f"odd circulant {spec.entries} has rank {rank} < {spec.size} "
        "without being constant"
    )


def _orbit_rows(field):
    """The Galois orbit of the grading v = p - q: row g is (g.v)(k) = v(g^{-1} k), k = 1..n.

    Rows come in enumerate_group order, so the grading itself comes first.
    """
    galois, pairs = field.galois, range(1, field.n + 1)
    return [
        [field.grading_value(field.act_index(inv, k)) for k in pairs]
        for inv in map(galois.inverse, galois.enumerate_group())
    ]


def orbit_rank(field):
    """Rank over Q of the Galois orbit of the grading vector, in pair coordinates."""
    return rank_rational(_orbit_rows(field))


VERDICT_NONDEGENERATE = "nondegenerate"
VERDICT_DEGENERATE = "degenerate_under_span_assumption"


def _transitive_sign_free_cycle(field):
    """The cycle, from pair 1, of the first group element cycling all n pairs with no sign flip.

    Only searched when n is an odd prime, the lengths a circulant spec
    accepts; returns the cycle of pair indices from 1, or None.  Sign mixing
    (a positive index mapping to a negative one) defeats the plain circulant
    picture, so such elements are skipped.
    """
    n = field.n
    if n % 2 == 0 or not _is_prime(n):
        return None
    for g in field.galois.enumerate_group():
        if any(field.act_index(g, k) < 0 for k in range(1, n + 1)):
            continue
        cycle = list(_reached(1, lambda k: (field.act_index(g, k),)))
        if len(cycle) == n:
            return cycle
    return None


def nondegeneracy_verdict(field):
    """Orbit rank vs the Cartan bound, as the JSON document ``nondeg`` prints.

    ``orbit_vectors`` lists the Galois orbit of the grading in group order,
    so ``grading`` is its first row.  When n is an odd prime and some group
    element cycles the conjugate pairs without sign mixing, the circulant
    route is also reported and its dichotomy is enforced; otherwise the
    circulant keys are None and the orbit rank alone decides.
    """
    rows = _orbit_rows(field)
    rank = rank_rational(rows)
    n = field.n
    circ_rank = branch = circ_entries = None
    cycle = _transitive_sign_free_cycle(field)
    if cycle is not None:
        circ_entries = [field.grading_value(k) for k in cycle]
        spec = CirculantSpec(circ_entries)
        circ_rank = circulant_rank(spec)
        branch = ribet_dichotomy(spec)
    return {
        "orbit_rank": rank,
        "cartan_bound": n,
        "verdict": VERDICT_NONDEGENERATE if rank == n else VERDICT_DEGENERATE,
        "circulant_rank": circ_rank,
        "dichotomy_branch": branch,
        "circulant_entries": circ_entries,
        "orbit_vectors": rows,
        "grading": rows[0],
    }


def escape_verdict(field, nilpotent):
    """Check that a deep rational nilpotent forces the full algebra.

    Preconditions: the field must be certified nondegenerate and the element
    rational and nilpotent.  When its degree exceeds n, the support partition
    must be trivial and the bracket closure of the Cartan subalgebra together
    with the element must reach the ambient dimension n(2n+1).
    """
    report = nondegeneracy_verdict(field)
    if report["verdict"] != VERDICT_NONDEGENERATE:
        raise PreconditionError(
            "escape_verdict needs a nondegenerate field "
            f"(orbit rank {report['orbit_rank']} < {report['cartan_bound']})",
            reason="field-not-nondegenerate",
        )
    degree, partition = _degree_and_partition(field, nilpotent, "escape_verdict")
    n = field.n
    ambient = n * (2 * n + 1)
    out = {
        "nilpotency_degree": degree,
        "cartan_bound": n,
        "applicable": degree > n,
        "partition_trivial": len(partition["blocks"]) == 1,
        "partition": partition,
        "ambient_dimension": ambient,
        "closure_dimension": None,
        "nondegeneracy": report,
    }
    if degree > n:
        dim, _ = generated_subalgebra(cartan_elements(field) + [nilpotent])
        out["closure_dimension"] = dim
        if dim != ambient:
            raise TheoremViolationError(
                f"closure dimension {dim} fell short of the ambient {ambient}"
            )
    return out


def _edge_orbits(field):
    """Galois orbits of unordered index pairs, walked from ``group_generators``, in deterministic order."""
    n = field.n
    gens = field.galois.group_generators

    def moves(edge):
        a, b = edge
        return (_edge(n, field.act_index(g, a), field.act_index(g, b)) for g in gens)

    orbits = []
    seen = set()
    # basis order, so each pair comes out as its _edge form, in sorted order
    for edge in itertools.combinations(field.signed_indices(), 2):
        if edge in seen:
            continue
        orbit = set(_reached(edge, moves))
        seen |= orbit
        orbits.append(_sorted_edges(n, orbit))
    return orbits


def rigidity_verdict(field):
    """Decide whether the horizontal rational directions all sit in degree zero.

    An edge orbit is admissible when every edge in it has grading eigenvalue
    in {-1, 0, 1}; an admissible orbit containing an edge of nonzero
    eigenvalue is a potential horizontal escape route, and its existence is
    the only way rigidity can fail.  Under the hypotheses (h of type
    (1, 1, ...) at the top and 4 not dividing 2n) any such orbit contradicts
    the rigidity theorem, so one is reported as a violation.

    Orbits are walked from ``group_generators`` on every field, so no group
    element is listed.  On a cyclotomic field each offending orbit also
    carries the Reynolds average of its representative root (the
    ``witness_*`` fields); an abstract field has no coefficient Galois
    action to average over, and its offending orbits carry none.
    """
    n = field.n
    weight = field.weight
    h_top = sum(
        1 for lab in field.galois.labels if field.bidegree_of_label(lab)[0] == weight
    )
    h_next = sum(
        1
        for lab in field.galois.labels
        if field.bidegree_of_label(lab)[0] == weight - 1
    )
    hypotheses = {
        "weight_odd_gt_1": weight > 1,
        "h_top_is_1": h_top == 1,
        "h_next_is_1": h_next == 1,
        "dim_not_divisible_by_4": (2 * n) % 4 != 0,
    }
    hypotheses_met = all(hypotheses.values())
    cyclotomic = field.galois.flavor == "cyclotomic"
    orbits_report = []
    offending = []
    for orbit in _edge_orbits(field):
        degs = [bidegree(field, a, b) for a, b in orbit]
        max_abs = max(abs(d) for d in degs)
        admissible = max_abs <= 1
        has_nonzero = any(d != 0 for d in degs)
        entry = {
            "representative": list(orbit[0]),
            "size": len(orbit),
            "max_abs_bidegree": max_abs,
            "admissible": admissible,
            "has_nonzero_bidegree": has_nonzero,
        }
        if admissible and has_nonzero:
            if cyclotomic:
                avg = reynolds_average(field, root_vector(field, *orbit[0]))
                edges = support_graph(avg)[0]["edges"]
                entry["witness_nonzero"] = not avg.is_zero()
                entry["witness_support_edges"] = edges
                entry["witness_cancellation"] = {tuple(e) for e in edges} != set(orbit)
            offending.append(entry)
        orbits_report.append(entry)
    rigid = not offending
    out = {
        "weight": weight,
        "pairs": n,
        "hypotheses": hypotheses,
        "hypotheses_met": hypotheses_met,
        "verdict": "rigid" if rigid else "not-rigid",
        "orbits": orbits_report,
        "offending_orbits": [list(e["representative"]) for e in offending],
    }
    if hypotheses_met and not rigid:
        raise TheoremViolationError(
            "rigidity hypotheses hold but an admissible nonzero-bidegree "
            f"edge orbit exists (representative {offending[0]['representative']})"
        )
    return out
