"""The acceptance suite: nine deterministic checks runnable as one call.

Each criterion is a function returning a small report dict with a ``pass``
flag and enough intermediate data to re-audit the claim.  Everything is
seeded and ordered, so two runs with the same seed serialize to identical
JSON; criterion 9 checks exactly that by running the first eight twice.

The suite also hosts the constructive side of the escape story: a
deterministic builder for rational nilpotent elements.  Rationality means
fixed under the Galois action, and single basis vectors are never fixed,
so random search is hopeless; instead we descend to the vector level.
The fixed vectors of the twisted permutation action form a 2n-dimensional
symplectic space over the rational span of i, a Darboux basis of it is
computed exactly, and nilpotent endomorphisms assembled from that basis
(rank-two isotropic operators and a full Jordan chain) are rational by
construction.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from math import gcd
from operator import mul

from .algebra import (
    AlgebraElement,
    _gauge_units,
    all_root_indices,
    bracket,
    element_from_coeffs,
    generated_subalgebra,
    is_rational,
    reynolds_average,
    root_vector,
)
from .cmfield import (
    _hodge_picks,
    build_cyclotomic_cm,
    enumerate_orientations,
    orientation_from_pick,
    validate_orientation,
)
from .cyclotomic import CyclotomicNumber, _context, euler_phi
from .errors import DomainError, TheoremViolationError
from .graphs import is_block_system, support_graph, trivial_partition_check
from .linalg import rank_rational
from .polynomials import _reduce
from .verifiers import (
    CirculantSpec,
    circulant_matrix,
    circulant_rank,
    escape_verdict,
    orbit_rank,
    ribet_dichotomy,
    rigidity_verdict,
)

DEFAULT_SEED = 20260822
SCHEMA_VERSION = "1"


def _first_oriented(m, weight, hodge):
    """The oriented field of the first listed orientation; only it is built, so no listing cap applies."""
    galois = build_cyclotomic_cm(m)
    pairs, picks, _ = _hodge_picks(galois, weight, hodge)
    return validate_orientation(galois, orientation_from_pick(weight, pairs, next(picks)))


# -- constructive rational nilpotents -----------------------------------


def _ramanujan_sum(m, e):
    """c_m(e) = sum of zeta_m^(l*e) over the units l mod m, an integer.

    By von Sterneck's formula it is mu(t) * phi(m) / phi(t) with
    t = m / gcd(m, e), where mu is the Moebius function.
    """
    t = m // gcd(m, e)
    mu, rest, p = 1, t, 2
    while p * p <= rest:
        if rest % p == 0:
            rest //= p
            if rest % p == 0:
                return 0
            mu = -mu
        p += 1
    if rest > 1:
        mu = -mu
    return mu * (euler_phi(m) // euler_phi(t))


def _gram_matrix(m, size):
    """G_ab = c_m(a-b+1) - c_m(a-b-1) for a, b below size: the pairing on the y_a."""
    toeplitz = {e: _ramanujan_sum(m, e + 1) - _ramanujan_sum(m, e - 1) for e in range(1 - size, size)}
    return [[toeplitz[a - b] for b in range(size)] for a in range(size)]


def _fixed_symplectic_pairs(field):
    """Darboux basis of the fixed vectors of the twisted permutation action.

    The fixed vectors are the 2n vectors y_a (a = 0..2n-1) whose coordinate
    at index k is zeta_m^(a*l(k)), l(k) the label of k, a unit mod m with
    l(1) = 1.  A group element moves labels by a unit s and coefficients by
    zeta_m -> zeta_m^s, so it sends the coordinate zeta_m^(a*l) at label l
    to zeta_m^(a*s*l) at label s*l: y_a is fixed.  The coordinates form a
    Vandermonde matrix in the 2n = phi(m) distinct roots of unity
    zeta_m^l(k), with exponents a below phi(m), so the y_a are independent
    over Q(zeta_M) with no rank check.

    In the equivariant gauge (``algebra._gauge_units``) the pairing value at
    index k is P_k = zeta_m^l - zeta_m^-l with l the label of k, and the
    group preserves the pairing on the nose.  On the y_a the pairing is
    therefore the integer Toeplitz matrix

        G_ab = sum over units l of zeta_m^((a-b+1)l) - zeta_m^((a-b-1)l)
             = c_m(a-b+1) - c_m(a-b-1),

    c_m the Ramanujan sum.  Symplectic Gram-Schmidt against G gives
    hyperbolic pairs (u_a, v_a) with pairing(u_a, v_b) = delta_ab and
    pairing(u_a, u_b) = pairing(v_a, v_b) = 0, each a combination
    sum_b c_b y_b whose rational c_b are kept as integer numerators over one
    denominator, the representation of ``CyclotomicNumber``.  Returns the
    pairs, embedded as coordinate dicts; everything is exact.  The
    equivariant gauge exists for the cyclotomic flavor only, so an abstract
    field is refused before any work.
    """
    if field.galois.flavor != "cyclotomic":
        raise DomainError(
            "the constructive witness needs a cyclotomic field",
            reason="witness-needs-cyclotomic",
        )
    m = field.galois.conductor
    M = field.working_conductor
    step = M // m
    idx = field.signed_indices()
    size = 2 * field.n
    gram = _gram_matrix(m, size)

    def gram_times(x):
        return [sum(map(mul, row, x)) for row in gram]

    def dot(x, y):
        return sum(map(mul, x, y))

    # a vector is (numerators, denominator > 0); G is antisymmetric, so
    # pairing(x, y) = dot(x, G y) / (dx dy) = -dot(G x, y) / (dx dy)
    pool = [([int(a == b) for b in range(size)], 1) for a in range(size)]
    pairs = []
    while pool:
        u, du = pool.pop(0)
        gu = gram_times(u)
        for pos, (y, _) in enumerate(pool):
            val = -dot(gu, y)
            if val:
                # v = y / pairing(u, y) = y du / val
                del pool[pos]
                sign = 1 if val > 0 else -1
                v, dv = _reduce([sign * du * c for c in y], sign * val)
                break
        else:
            raise TheoremViolationError(
                "the pairing restricted to the fixed vectors is degenerate"
            )
        pairs.append(((u, du), (v, dv)))
        gv = gram_times(v)
        reduced = []
        for z, dz in pool:
            # z - pairing(z, v) u + pairing(z, u) v over the denominator dz du dv
            zv, zu, scale = dot(z, gv), dot(z, gu), du * dv
            num = [scale * p - zv * q + zu * r for p, q, r in zip(z, u, v)]
            reduced.append(_reduce(num, dz * scale))
        pool = reduced

    # coordinate k of sum_b c_b y_b is sum_b c_b zeta_M^(step b l(k)): the
    # exponents are distinct mod M, so each numerator lands on its own power
    # of zeta_M and is reduced modulo Phi_M once
    ctx = _context(M)
    terms = ctx.terms

    def embed(vec):
        num, den = vec
        out = {}
        for k in idx:
            coord = [0] * ctx.phi
            shift = step * field.index_to_label[k]
            for b, x in enumerate(num):
                if x:
                    for t, r in terms[(b * shift) % M]:
                        coord[t] += x * r
            out[k] = CyclotomicNumber._make(M, coord, den)
        return out

    return tuple((embed(u), embed(v)) for u, v in pairs)


def _rank_two_row(s, t, idx):
    """Row 1 of x -> s*Q(t, x) + t*Q(s, x) before the pairing factor: s_1 t_-j + t_1 s_-j."""
    return {j: s[1] * t[-j] + t[1] * s[-j] for j in idx}


def _from_row(field, row):
    """The rational element whose gauge matrix G has first row ``row`` times the pairing values.

    In the equivariant gauge (``algebra._gauge_units``) a rational element
    satisfies G(sigma_s a, sigma_s b) = sigma_s(G(a, b)), where sigma_s
    multiplies labels by the unit s and acts on coefficients through its
    lift.  With s = l(a), sigma_s sends index 1 to a, so every canonical
    entry is a conjugate of row 1: G(a, b) = sigma_s(G(1, sigma_s^-1 b)).
    The X-coefficient at a canonical (a, b) is then d_a^-1 G(a, b) d_b,
    halved at b = -a because X_{a,-a} = 2 E_{a,-a}.  The pairing values
    and the lifts of sigma_s come from the gauge.  ``is_rational`` stays the
    independent check of the fill.
    """
    m = field.galois.conductor
    labels = field.index_to_label
    index_of = field.label_to_index
    d, dinv, pairing_values, lifts = _gauge_units(field)
    gauged = {j: x * pairing_values[-j] for j, x in row.items() if x}
    inverses = {a: pow(labels[a], -1, m) for a in field.signed_indices()}  # l(a)^-1 mod m
    coeffs = {}
    for a, b in all_root_indices(field.n):
        val = gauged.get(index_of[labels[b] * inverses[a] % m])
        if val is None:
            continue
        c = dinv[a] * val.galois(lifts[a]) * d[b]
        coeffs[(a, b)] = c / 2 if b == -a else c
    return AlgebraElement(field, coeffs, _raw=True)


def _chain_rows(field, pairs):
    """Row 1 (before the pairing factor) of the full Jordan chain witness and of its first half.

    The first half is the chain v_1 -> -v_2 -> ... -> +-v_n; the square-zero
    map of u_n, halved, closes it up through u_n -> ... -> u_1.
    """
    idx = field.signed_indices()
    zero = CyclotomicNumber.zero(field.working_conductor)
    open_row = dict.fromkeys(idx, zero)
    for a in range(field.n - 1):
        term = _rank_two_row(pairs[a][0], pairs[a + 1][1], idx)
        open_row = {j: open_row[j] - term[j] for j in idx}
    u = pairs[-1][0]
    return {j: open_row[j] + u[1] * u[-j] for j in idx}, open_row


def rational_nilpotent_witness(field):
    """A rational nilpotent of degree 2n with fully connected support.

    Built as a single Jordan chain through a Darboux basis of the fixed
    vectors: the chain v_1 -> -v_2 -> ... -> +-v_n -> u_n -> ... -> u_1
    visits all 2n basis vectors, so no power below 2n vanishes and the
    support cannot split.  Deterministic, and rational because every
    ingredient is fixed under the group; only its first row is computed,
    the rest is the Galois action (``_from_row``).
    """
    return _from_row(field, _chain_rows(field, _fixed_symplectic_pairs(field))[0])


def rational_nilpotent_examples(field):
    """Named rational nilpotents of degrees 2, n and 2n for property sweeps."""
    pairs = _fixed_symplectic_pairs(field)
    idx = field.signed_indices()
    (u1, v1), (u2, v2) = pairs[0], pairs[1]
    full_row, open_row = _chain_rows(field, pairs)
    rows = [
        ("isotropic-uu", _rank_two_row(u1, u2, idx)),
        ("isotropic-uv", _rank_two_row(u1, v2, idx)),
        ("isotropic-vv", _rank_two_row(v1, v2, idx)),
        ("square-zero", _rank_two_row(u1, u1, idx)),
        ("half-chain", open_row),
        ("full-chain", full_row),
    ]
    return [(name, _from_row(field, row)) for name, row in rows]


# -- the nine criteria --------------------------------------------------


def _record(number, label, passed, details):
    return {"criterion": number, "label": label, "pass": bool(passed), "details": details}


def criterion_circulant_equivalence(rng):
    """1: circulant_rank equals the rank by explicit (Bareiss) elimination.

    Most specs here get rank p from the eigenvalue certificate mod a split
    prime; the rest take the gcd route.  A mismatch record gives
    circulant_rank's answer under the key "gcd".
    """
    mismatches = []
    checked = 0
    for p in (3, 5, 7, 11, 13):
        for _ in range(200):
            entries = tuple(2 * rng.randrange(-5, 5) + 1 for _ in range(p))
            spec = CirculantSpec(entries)
            by_gcd = circulant_rank(spec)
            by_elimination = rank_rational(circulant_matrix(spec))
            checked += 1
            if by_gcd != by_elimination:
                mismatches.append(
                    {"entries": list(entries), "gcd": by_gcd, "elimination": by_elimination}
                )
    return _record(
        1,
        "circulant-rank-equivalence",
        not mismatches,
        {"checked": checked, "mismatches": mismatches},
    )


def criterion_desk_scale_ranks():
    """2: orbit ranks across every weight-3 orientation of the 7th cyclotomic field."""
    galois = build_cyclotomic_cm(7)
    balanced = enumerate_orientations(galois, 3, (1, 2, 2, 1))
    balanced_ranks = [
        orbit_rank(validate_orientation(galois, o)) for o in balanced
    ]
    extreme = enumerate_orientations(galois, 3, (3, 0, 0, 3))
    extreme_reports = []
    for o in extreme:
        oriented = validate_orientation(galois, o)
        top = sorted(
            lab for lab in galois.labels if oriented.bidegree_of_label(lab)[0] == 3
        )
        extreme_reports.append({"top_labels": top, "orbit_rank": orbit_rank(oriented)})
    rank_one_sets = sorted(
        r["top_labels"] for r in extreme_reports if r["orbit_rank"] == 1
    )
    passed = (
        len(balanced) == 24
        and all(r == 3 for r in balanced_ranks)
        and len(extreme) == 8
        and len(rank_one_sets) == 2
        and rank_one_sets == [[1, 2, 4], [3, 5, 6]]
        and all(r["orbit_rank"] == 3 for r in extreme_reports if r["top_labels"] not in rank_one_sets)
    )
    return _record(
        2,
        "desk-scale-orbit-ranks",
        passed,
        {
            "balanced_orientations": len(balanced),
            "balanced_ranks": sorted(set(balanced_ranks)),
            "extreme_orientations": len(extreme),
            "extreme_reports": extreme_reports,
            "rank_one_top_labels": rank_one_sets,
        },
    )


def criterion_dichotomy(rng):
    """3: the odd-entry rank dichotomy never trips a theorem violation.

    Every 50th trial draws a constant spec, whose eigenvalues vanish away
    from 1, so it takes circulant_rank's exact gcd route and lands on the
    all-equal branch.  A non-constant spec of rank below p would also reach
    that route and raise, so the check can still fail.
    """
    branches = {"rank_p": 0, "all_equal": 0}
    violations = []
    for p in (3, 5, 7, 11):
        for trial in range(1000):
            if trial % 50 == 0:
                value = 2 * rng.randrange(-10, 10) + 1
                entries = (value,) * p
            else:
                entries = tuple(2 * rng.randrange(-10, 10) + 1 for _ in range(p))
            try:
                branch = ribet_dichotomy(CirculantSpec(entries))
                branches[branch] += 1
            except TheoremViolationError as exc:  # pragma: no cover - must not happen
                violations.append({"entries": list(entries), "message": str(exc)})
    return _record(
        3,
        "odd-circulant-dichotomy",
        not violations,
        {"checked": 4000, "branches": branches, "violations": violations},
    )


def criterion_block_systems(rng):
    """4: support partitions of group-averaged elements are block systems."""
    cases = []
    failures = 0
    for m, hodge in ((7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2))):
        field = _first_oriented(m, 3, hodge)
        M = field.working_conductor
        classes = all_root_indices(field.n)
        zero_averages = 0
        block_checks = 0
        for _ in range(100):
            size = rng.randrange(1, 4)
            support = rng.sample(classes, size)
            coeffs = {
                ij: CyclotomicNumber.root_of_unity(M, rng.randrange(M))
                for ij in support
            }
            averaged = reynolds_average(field, element_from_coeffs(field, coeffs))
            if averaged.is_zero():
                zero_averages += 1
            _, partition = support_graph(averaged)
            block_checks += 1
            if not is_block_system(field, partition)["is_block_system"]:
                failures += 1
        cases.append(
            {
                "conductor": m,
                "checked": block_checks,
                "zero_averages": zero_averages,
            }
        )
    return _record(
        4,
        "reynolds-block-systems",
        failures == 0,
        {"cases": cases, "failures": failures},
    )


def criterion_component_bounds():
    """5: nilpotency degree never beats the largest support component."""
    rows = []
    ok = True
    for m, hodge in ((7, (1, 2, 2, 1)), (9, (1, 2, 2, 1)), (11, (2, 3, 3, 2))):
        field = _first_oriented(m, 3, hodge)
        for name, elt in rational_nilpotent_examples(field):
            report = trivial_partition_check(elt)  # raises on any bound breach
            rows.append(
                {
                    "conductor": m,
                    "element": name,
                    "degree": report["nilpotency_degree"],
                    "max_component": report["max_component_size"],
                    "trivial": report["partition_trivial"],
                }
            )
            if report["degree_exceeds_n"] and not report["partition_trivial"]:
                ok = False
    return _record(
        5,
        "nilpotent-component-bounds",
        ok and len(rows) == 18,
        {"elements": rows},
    )


def criterion_bracket_lemma():
    """6: chain brackets compose exactly and basis closure fills the algebra."""
    results = []
    for m, hodge, expected_dim in ((7, (1, 2, 2, 1), 21), (16, (1, 3, 3, 1), 36)):
        field = _first_oriented(m, 3, hodge)
        idx = field.signed_indices()
        checked = 0
        deviations = []
        for l, k, mm in itertools.permutations(idx, 3):
            if len({abs(l), abs(k), abs(mm)}) != 3:
                continue
            left = bracket(root_vector(field, l, k), root_vector(field, k, mm))
            if left != root_vector(field, l, mm):
                deviations.append([l, k, mm])
            checked += 1
        seeds = [root_vector(field, i, j) for i, j in all_root_indices(field.n)]
        dim, _ = generated_subalgebra(seeds)
        results.append(
            {
                "pairs": field.n,
                "triples_checked": checked,
                "deviations": deviations,
                "closure_dimension": dim,
                "expected_dimension": expected_dim,
            }
        )
    passed = all(not r["deviations"] and r["closure_dimension"] == r["expected_dimension"] for r in results)
    return _record(6, "bracket-chain-lemma", passed, {"fields": results})


def criterion_escape():
    """7: a deep rational nilpotent forces the full 21-dimensional closure."""
    field = _first_oriented(7, 3, (1, 2, 2, 1))
    witness = rational_nilpotent_witness(field)
    verdict = escape_verdict(field, witness)
    passed = (
        verdict["applicable"]
        and verdict["nilpotency_degree"] >= 4
        and verdict["partition_trivial"]
        and verdict["closure_dimension"] == 21
        and is_rational(field, witness)
    )
    return _record(
        7,
        "nilpotent-escape-closure",
        passed,
        {
            "witness_degree": verdict["nilpotency_degree"],
            "closure_dimension": verdict["closure_dimension"],
            "ambient_dimension": verdict["ambient_dimension"],
            "nondegeneracy_verdict": verdict["nondegeneracy"]["verdict"],
        },
    )


def criterion_rigidity_sweep():
    """8: every weight-5 all-ones orientation at conductors 7 and 9 is rigid."""
    sweeps = []
    passed = True
    for m in (7, 9):
        galois = build_cyclotomic_cm(m)
        orientations = enumerate_orientations(galois, 5, (1, 1, 1, 1, 1, 1))
        rigid = 0
        violations = []
        non_rigid = 0
        for o in orientations:
            field = validate_orientation(galois, o)
            try:
                out = rigidity_verdict(field)
            except TheoremViolationError as exc:  # pragma: no cover - must not happen
                violations.append(str(exc))
                continue
            if out["hypotheses_met"] and out["verdict"] == "rigid":
                rigid += 1
            else:
                non_rigid += 1
        sweeps.append(
            {
                "conductor": m,
                "orientations": len(orientations),
                "rigid": rigid,
                "non_rigid": non_rigid,
                "violations": violations,
            }
        )
        if violations or non_rigid or len(orientations) != 48:
            passed = False
    return _record(8, "weight-five-rigidity-sweep", passed, {"sweeps": sweeps})


# stated wall-clock budgets, in seconds; enforced by the test suite
RUNTIME_BUDGETS = {1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5, 5: 0.5, 6: 0.5, 7: 0.5, 8: 0.5}


def run_core(seed=DEFAULT_SEED, timings_out=None):
    """Criteria 1 through 8 with per-criterion random streams.

    ``timings_out``, when given, receives wall-clock seconds keyed by
    criterion number.  Timings stay out of the returned records on purpose:
    the records must serialize byte-identically across runs.
    """
    thunks = [
        lambda: criterion_circulant_equivalence(random.Random(f"{seed}:circulant")),
        criterion_desk_scale_ranks,
        lambda: criterion_dichotomy(random.Random(f"{seed}:dichotomy")),
        lambda: criterion_block_systems(random.Random(f"{seed}:blocks")),
        criterion_component_bounds,
        criterion_bracket_lemma,
        criterion_escape,
        criterion_rigidity_sweep,
    ]
    records = []
    for thunk in thunks:
        start = time.monotonic()
        record = thunk()
        if timings_out is not None:
            timings_out[record["criterion"]] = time.monotonic() - start
        records.append(record)
    return records


def run_all(seed=DEFAULT_SEED, timings_out=None):
    """Full suite: the eight checks plus the double-run determinism check."""
    first = run_core(seed, timings_out=timings_out)
    second = run_core(seed)
    first_bytes = json.dumps(first, sort_keys=True).encode()
    second_bytes = json.dumps(second, sort_keys=True).encode()
    identical = first_bytes == second_bytes
    criteria = first + [
        _record(
            9,
            "selftest-determinism",
            identical,
            {"runs": 2, "byte_identical": identical, "payload_bytes": len(first_bytes)},
        )
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "criteria": criteria,
        "passed": all(c["pass"] for c in criteria),
    }
