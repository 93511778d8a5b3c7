"""Oriented CM fields as finite combinatorial data.

Embeddings are opaque labels; the Galois group is a transitive permutation
group on them whose center contains the fixed-point-free conjugation
involution.  Nothing is ever evaluated in the complex numbers: an
"orientation" assigns a bidegree (p, q) to every label, conjugation swaps
p and q, and all later constructions consume only this data.

Conjugate pairs are indexed by signed integers: index k > 0 names the
member of the k-th pair that comes first in label order, and -k names its
conjugate.  Signed indices are the coordinate system used everywhere
downstream (grading values, root indices, support graphs).  Every orbit
walk of the package is the one breadth-first routine ``_reached``.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from math import factorial, gcd, lcm

from .cyclotomic import euler_phi
from .errors import (
    DomainError,
    EnumerationCapError,
    InvalidOrientationError,
    NotCMFieldError,
    UsageError,
)

GROUP_ENUMERATION_CAP = 10_000
# Listing costs about 1.3 KB of memory per orientation at n = 8 pairs, most
# of it the orientation's 1 KB of text; the sweep benchmark lists 7168.
ORIENTATION_ENUMERATION_CAP = 50_000


def basis_pos(n, k):
    """Position of signed index k in the basis order 1..n, -1..-n."""
    if k > 0:
        return k - 1
    return n - k - 1


def _reached(seed, moves):
    """Breadth first from ``seed``: yields it, then each new element as it is discovered.

    ``moves(x)`` gives x's neighbours in a fixed order; a caller that stops early stops the walk.
    """
    seen = {seed}
    queue = deque([seed])
    yield seed
    while queue:
        for y in moves(queue.popleft()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
                yield y


class GaloisCMData:
    """A transitive permutation group with a central fixed-point-free involution.

    Permutations are tuples of images aligned with ``labels``.
    ``group_generators`` generates the whole group: on the cyclotomic
    flavor (built only by ``build_cyclotomic_cm``) the generators alone,
    since they give all of (Z/m)^* and so contain conjugation, -1; on the
    abstract flavor the generators and conjugation.  Walks that need only
    the group's orbits or fixed points use it.
    """

    def __init__(self, labels, generators, conjugation, flavor, conductor=None):
        labels = tuple(labels)
        if len(labels) < 2 or len(labels) % 2 != 0:
            raise NotCMFieldError(
                f"a CM field has an even number of embeddings, got {len(labels)}"
            )
        if len(set(labels)) != len(labels):
            raise UsageError("labels must be distinct")
        if len({str(lab) for lab in labels}) != len(labels):
            raise UsageError(
                "labels must stay distinct as JSON keys, which are their str() forms",
                reason="bad-field",
            )
        self.labels = labels
        self._pos = {lab: i for i, lab in enumerate(labels)}
        self.generators = tuple(self._check_perm(g) for g in generators)
        self.conjugation = self._check_perm(conjugation)
        if flavor not in ("cyclotomic", "abstract"):
            raise UsageError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.conductor = conductor
        self.group_generators = self.generators
        if flavor == "abstract":
            self.group_generators += (self.conjugation,)
        self._group = None
        self._validate()

    # -- permutation plumbing -------------------------------------------

    def _check_perm(self, perm):
        perm = tuple(perm)
        if len(perm) != len(self.labels) or set(perm) != set(self.labels):
            raise UsageError(f"not a permutation of the labels: {perm!r}")
        return perm

    def identity(self):
        return self.labels

    def apply(self, perm, label):
        return perm[self._pos[label]]

    def compose(self, p1, p2):
        """The permutation doing p2 first, then p1."""
        return tuple(p1[self._pos[x]] for x in p2)

    def inverse(self, perm):
        out = [None] * len(perm)
        for i, img in enumerate(perm):
            out[self._pos[img]] = self.labels[i]
        return tuple(out)

    # -- validation ------------------------------------------------------

    def _validate(self):
        c = self.conjugation
        for i, lab in enumerate(self.labels):
            if c[i] == lab:
                raise NotCMFieldError(
                    f"conjugation fixes label {lab!r}",
                    reason="conjugation-has-fixed-point",
                )
        if self.compose(c, c) != self.identity():
            raise NotCMFieldError(
                "conjugation is not an involution",
                reason="conjugation-not-involution",
            )
        for g in self.generators:
            if self.compose(c, g) != self.compose(g, c):
                raise NotCMFieldError(
                    "conjugation does not commute with every generator",
                    reason="conjugation-not-central",
                )
        gens = self.generators + (self.conjugation,)
        reached = _reached(self.labels[0], lambda lab: (self.apply(g, lab) for g in gens))
        if len(set(reached)) != len(self.labels):
            raise NotCMFieldError(
                "the generated group is not transitive on the labels",
                reason="group-not-transitive",
            )

    # -- group enumeration ----------------------------------------------

    def enumerate_group(self):
        """Every group element, breadth first from the identity.  Deterministic.

        More than GROUP_ENUMERATION_CAP elements raise EnumerationCapError.
        """
        if self._group is not None:
            return self._group
        gens = self.generators + (self.conjugation,)
        moves = lambda perm: (self.compose(perm, g) for g in gens)
        group = tuple(islice(_reached(self.identity(), moves), GROUP_ENUMERATION_CAP + 1))
        if len(group) > GROUP_ENUMERATION_CAP:
            raise EnumerationCapError(
                f"group has more than {GROUP_ENUMERATION_CAP} elements"
            )
        self._group = group
        return self._group

    @property
    def group_order(self):
        """The group's order, from a stabilizer chain; no element list and no cap."""
        return _stabilizer_chain_order(self)

    def __eq__(self, other):
        if not isinstance(other, GaloisCMData):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.generators == other.generators
            and self.conjugation == other.conjugation
            and self.flavor == other.flavor
            and self.conductor == other.conductor
        )

    def __repr__(self):
        if self.flavor == "cyclotomic":
            return f"GaloisCMData(cyclotomic, conductor={self.conductor})"
        return f"GaloisCMData(abstract, degree={len(self.labels)})"


def _stabilizer_chain_order(galois):
    """Order of the group, by deterministic Schreier-Sims, without listing its elements.

    Sims 1970; Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 4.4.2.  Level i holds a base label, the strong generators
    fixing the earlier base labels, and a transversal of the base label's
    orbit under them.  A level is complete when each of its Schreier
    generators sifts to the identity through the levels below; one that
    does not joins the levels it passed, and the check resumes at the
    deepest of them.  The order is the product of the orbit lengths.
    """
    identity = galois.identity()
    apply, compose, inverse = galois.apply, galois.compose, galois.inverse
    base, strong, orbits = [], [], []

    def add_level(g):
        point = next(lab for lab in galois.labels if apply(g, lab) != lab)
        base.append(point)
        strong.append([])
        orbits.append({point: identity})

    def extend(level, g):
        strong[level].append(g)
        transversal = orbits[level]
        queue = list(transversal)
        for x in queue:
            for s in strong[level]:
                y = apply(s, x)
                if y not in transversal:
                    transversal[y] = compose(s, transversal[x])
                    queue.append(y)

    def sift(g, level):
        """(residue, level reached): g stripped by the transversals from ``level`` down."""
        while level < len(base):
            u = orbits[level].get(apply(g, base[level]))
            if u is None:
                break
            g = compose(inverse(u), g)
            level += 1
        return g, level

    gens = [g for g in galois.group_generators if g != identity]
    for g in gens:
        if all(apply(g, b) == b for b in base):
            add_level(g)
    for level in range(len(base)):
        for g in gens:
            if all(apply(g, b) == b for b in base[:level]):
                extend(level, g)
    level = len(base) - 1
    while level >= 0:
        found = None
        for x, u in list(orbits[level].items()):
            for s in strong[level]:
                schreier = compose(inverse(orbits[level][apply(s, x)]), compose(s, u))
                h, reached = sift(schreier, level + 1)
                if h != identity:
                    found = h, reached
                    break
            if found:
                break
        if found is None:
            level -= 1
            continue
        h, reached = found
        if reached == len(base):
            add_level(h)
        for j in range(level + 1, reached + 1):
            extend(j, h)
        level = reached
    order = 1
    for transversal in orbits:
        order *= len(transversal)
    return order


def build_cyclotomic_cm(m):
    """The degree-phi(m) cyclotomic CM datum: labels are units mod m.

    Requires m >= 3 with m not congruent to 2 mod 4, so every conductor
    names a distinct field and conjugation (multiplication by -1) is
    fixed-point free.  The group has phi(m) elements, so a conductor with
    phi(m) above GROUP_ENUMERATION_CAP is refused before any enumeration.
    """
    if not isinstance(m, int) or m < 3:
        raise NotCMFieldError(f"conductor {m!r} does not give a CM field")
    if m % 4 == 2:
        raise NotCMFieldError(
            f"conductor {m} is not canonical (congruent to 2 mod 4)",
            reason="conductor-not-canonical",
        )
    order = euler_phi(m)
    if order > GROUP_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"conductor {m} gives a group of order {order}, "
            f"more than {GROUP_ENUMERATION_CAP} elements"
        )
    labels = tuple(a for a in range(1, m) if gcd(a, m) == 1)

    def mult_perm(a):
        return tuple((a * lab) % m for lab in labels)

    def closure(gens):
        return set(_reached(1, lambda x: ((x * a) % m for a in gens)))

    generators = None
    for a in labels:
        if len(closure([a])) == len(labels):
            generators = [a]
            break
    if generators is None:
        generators = []
        have = {1}
        for a in labels:
            if a in have:
                continue
            generators.append(a)
            have = closure(generators)
            if len(have) == len(labels):
                break
    return GaloisCMData(
        labels=labels,
        generators=[mult_perm(a) for a in generators],
        conjugation=mult_perm(m - 1),
        flavor="cyclotomic",
        conductor=m,
    )


def build_abstract_cm(labels, generators, conjugation):
    """A CM datum from explicit permutations (images aligned with labels)."""
    return GaloisCMData(
        labels=labels,
        generators=generators,
        conjugation=conjugation,
        flavor="abstract",
    )


class Orientation:
    """A weight and a bidegree assignment for every embedding label."""

    def __init__(self, weight, assignment):
        self.weight = weight
        self.assignment = {lab: (p, q) for lab, (p, q) in assignment.items()}

    def __eq__(self, other):
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.weight == other.weight and self.assignment == other.assignment

    def to_json(self):
        return {
            "weight": self.weight,
            "assignment": {str(lab): [p, q] for lab, (p, q) in self.assignment.items()},
        }

    @classmethod
    def from_json(cls, obj, labels):
        """Read an orientation whose assignment keys are the ``str`` forms of ``labels``.

        A key that names no label stays the string it is, so it fails
        ``validate_orientation``'s label check; no other spelling of a label
        (``"07"`` for 7) is read as that label.
        """
        if not isinstance(obj, dict) or "assignment" not in obj:
            raise UsageError("orientation JSON needs an 'assignment' object")
        if "weight" not in obj:
            raise UsageError("orientation JSON needs a 'weight'")
        raw = obj["assignment"]
        if not isinstance(raw, dict):
            raise UsageError(
                "orientation 'assignment' must map labels to [p, q] pairs",
                reason="bad-orientation",
            )
        key_map = {str(lab): lab for lab in labels}
        assignment = {}
        for key, pq in raw.items():
            lab = key_map.get(key, key)
            if not isinstance(pq, (list, tuple)) or len(pq) != 2:
                raise UsageError(f"assignment for {key!r} must be a [p, q] pair")
            if not all(type(x) is int for x in pq):
                raise UsageError(
                    f"assignment for {key!r} must hold integers, got {list(pq)!r}",
                    reason="bad-orientation",
                )
            assignment[lab] = (pq[0], pq[1])
        return cls(obj["weight"], assignment)

    def __repr__(self):
        return f"Orientation(weight={self.weight}, classes={len(self.assignment)})"


def _pair_table(galois):
    """Pair reps in label order: returns (n, index_to_label dict over +-1..+-n)."""
    index_to_label = {}
    seen = set()
    k = 0
    for lab in galois.labels:
        if lab in seen:
            continue
        partner = galois.apply(galois.conjugation, lab)
        k += 1
        index_to_label[k] = lab
        index_to_label[-k] = partner
        seen.add(lab)
        seen.add(partner)
    return k, index_to_label


class OrientedCMField:
    """A Galois CM datum together with a validated odd-weight orientation.

    Built through validate_orientation; carries the signed pair index, the
    bidegree lookup and the polarization used by the symplectic layer.

    ``epsilons`` holds the polarization signs: Q_k = epsilon_k * i, fixed by
    the positivity convention i^(p-q) Q_k > 0, which for bidegree (p, q)
    gives epsilon = (-1)^((p - q + 1) / 2).  The exponent is an integer
    because the weight is odd, and conjugate indices receive opposite signs.
    ``gauge_units`` holds the equivariant gauge of the Galois action
    (``algebra._gauge_units``), ``gauge_factors`` one monomial table per
    group element (``algebra._root_image``), and ``_fold_signs`` the folded
    index and sign of every X_{i,j} (``algebra._fold_signs``); each is
    filled on first use.
    """

    def __init__(self, galois, orientation, _token=None):
        if _token is not _BUILD_TOKEN:
            raise UsageError("use validate_orientation to build an OrientedCMField")
        self.galois = galois
        self.orientation = orientation
        self.n, self.index_to_label = _pair_table(galois)
        self.label_to_index = {lab: k for k, lab in self.index_to_label.items()}
        self.epsilons = {}
        for k, lab in self.index_to_label.items():
            p, q = orientation.assignment[lab]
            self.epsilons[k] = -1 if ((p - q + 1) // 2) % 2 else 1
        self.gauge_units = None
        self.gauge_factors = {}
        self._fold_signs = None

    @property
    def weight(self):
        return self.orientation.weight

    @property
    def working_conductor(self):
        """Conductor of the coefficient field; always divisible by 4."""
        if self.galois.flavor == "cyclotomic":
            return lcm(4, self.galois.conductor)
        return 4

    def bidegree_of_label(self, lab):
        return self.orientation.assignment[lab]

    def bidegree_of_index(self, k):
        return self.orientation.assignment[self.index_to_label[k]]

    def grading_value(self, k):
        p, q = self.bidegree_of_index(k)
        return p - q

    def act_index(self, perm, k):
        """Image of a signed pair index under a group element."""
        return self.label_to_index[self.galois.apply(perm, self.index_to_label[k])]

    def coeff_exponent(self, perm):
        """Exponent of the coefficient automorphism induced by a group element.

        The label action is multiplication by some unit a mod m, and the
        coefficient field has conductor lcm(4, m); for odd m the exponent is
        the unique lift of a that fixes the fourth root of unity.  Only a
        cyclotomic field has this automorphism: an abstract field raises
        ``DomainError`` (``_action_conductor``), and every use of the
        coefficient action meets that refusal before any arithmetic.
        """
        m = _action_conductor(self.galois)
        a = self.galois.apply(perm, 1)
        M = self.working_conductor
        if M == m:
            return a % M
        t = ((1 - a) * pow(m, -1, 4)) % 4
        return (a + m * t) % M

    def sigma(self, a):
        """The group element multiplying labels by a; an abstract field is refused as in ``coeff_exponent``."""
        m = _action_conductor(self.galois)
        if gcd(a % m, m) != 1:
            raise UsageError(f"{a} is not a unit modulo {m}")
        return tuple((a * lab) % m for lab in self.galois.labels)

    def signed_indices(self):
        """All 2n signed indices in basis order 1..n, -1..-n."""
        return tuple(
            list(range(1, self.n + 1)) + [-k for k in range(1, self.n + 1)]
        )

    def __eq__(self, other):
        if not isinstance(other, OrientedCMField):
            return NotImplemented
        return self.galois == other.galois and self.orientation == other.orientation

    def __repr__(self):
        return f"OrientedCMField({self.galois!r}, weight={self.weight}, n={self.n})"


_BUILD_TOKEN = object()


def _action_conductor(galois):
    """m, for the automorphisms of Q(zeta_m) that the group applies to coefficients.

    The one flavor check of the coefficient Galois action: an abstract
    field's coefficients carry no automorphism, so it is refused.
    """
    if galois.flavor != "cyclotomic":
        raise DomainError(
            "rationality needs the Galois action on a cyclotomic field; "
            "an abstract field has none",
            reason="rationality-needs-cyclotomic",
        )
    return galois.conductor


def _check_odd_weight(weight):
    """A weight is a positive odd int; a JSON boolean is not one."""
    if type(weight) is not int or weight < 1 or weight % 2 == 0:
        raise InvalidOrientationError(
            f"odd weight required, got {weight!r}", reason="odd-weight-required"
        )


def validate_orientation(galois, orientation):
    """Check an orientation against a CM datum and return the oriented field.

    Enforces: odd positive weight, every label assigned exactly once an int
    bidegree with p + q = weight and p, q >= 0, and conjugation swapping
    (p, q) -> (q, p).
    """
    weight = orientation.weight
    _check_odd_weight(weight)
    assignment = orientation.assignment
    if set(assignment) != set(galois.labels):
        raise InvalidOrientationError(
            "assignment labels do not match the field's embedding labels"
        )
    for lab, (p, q) in assignment.items():
        if type(p) is not int or type(q) is not int:
            raise InvalidOrientationError(
                f"label {lab!r} has bidegree ({p!r}, {q!r}); bidegrees must be integers"
            )
        if p < 0 or q < 0 or p + q != weight:
            raise InvalidOrientationError(
                f"label {lab!r} has bidegree ({p}, {q}), which does not fit weight {weight}"
            )
    for lab in galois.labels:
        p, q = assignment[lab]
        pc, qc = assignment[galois.apply(galois.conjugation, lab)]
        if (pc, qc) != (q, p):
            raise InvalidOrientationError(
                f"conjugation must swap bidegrees; label {lab!r} breaks the symmetry"
            )
    return OrientedCMField(galois, orientation, _token=_BUILD_TOKEN)


def orientation_count(hodge_numbers):
    """Number of orientations with these (valid) Hodge numbers, in closed form.

    With weight w = len(hodge_numbers) - 1 and n = sum / 2 pairs, a pair whose
    first member takes class (w - t, t) uses one unit of the budget h_c,
    c = min(t, w - t); the budgets of c = 0..(w-1)/2 sum to n.  So the count
    is the multinomial n! / prod_c h_c! over the budgets, times 2^n for the
    side each pair puts first.
    """
    half = hodge_numbers[: len(hodge_numbers) // 2]
    n = sum(half)
    count = factorial(n)
    for h in half:
        count //= factorial(h)
    return count << n


def orientation_picks(galois, weight, hodge_numbers):
    """Check a listing of orientations, then return its pairs and its picks.

    hodge_numbers lists the multiplicities (h^{weight,0}, ..., h^{0,weight});
    it must be symmetric, of nonnegative ints, and sum to the number of
    embeddings.  More than ORIENTATION_ENUMERATION_CAP orientations (by the
    closed-form count) raise EnumerationCapError.  Every check runs before
    this returns.

    ``pairs[k - 1]`` is the k-th conjugate pair: its member that comes first
    in label order, then the conjugate.  ``picks`` iterates over tuples
    (t_1, ..., t_n) in lexicographic order; pick t_k gives the first member of
    pair k the bidegree (weight - t_k, t_k) and its conjugate (t_k, weight - t_k).
    The picks are built depth first, pair by pair with t = 0..weight, and a
    pick is skipped once its class c = min(t, weight - t) has used up its
    budget h_c.  The budgets sum to the number of pairs, so every partial
    pick extends to an orientation.
    """
    pairs, picks, count = _hodge_picks(galois, weight, hodge_numbers)
    if count > ORIENTATION_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{count} orientations exceed the enumeration cap of {ORIENTATION_ENUMERATION_CAP}"
        )
    return pairs, picks


def _hodge_picks(galois, weight, hodge_numbers):
    """orientation_picks' Hodge checks, then (pairs, picks, closed-form count), without the listing cap."""
    _check_odd_weight(weight)
    h = list(hodge_numbers)
    if len(h) != weight + 1:
        raise UsageError(
            f"weight {weight} needs {weight + 1} Hodge numbers, got {len(h)}"
        )
    if any(type(x) is not int or x < 0 for x in h):
        raise UsageError("Hodge numbers must be nonnegative integers")
    if h != h[::-1]:
        raise UsageError("Hodge numbers must be symmetric")
    if sum(h) != len(galois.labels):
        raise UsageError(
            f"Hodge numbers sum to {sum(h)}, but the field has {len(galois.labels)} embeddings"
        )
    n, index_to_label = _pair_table(galois)
    pairs = tuple((index_to_label[k], index_to_label[-k]) for k in range(1, n + 1))
    return pairs, _budgeted_picks(n, weight, h[: (weight + 1) // 2]), orientation_count(h)


def orientation_from_pick(weight, pairs, pick):
    """The orientation that ``pick`` names over the ``pairs`` of orientation_picks."""
    assignment = {}
    for (lab, partner), t in zip(pairs, pick):
        assignment[lab] = (weight - t, t)
        assignment[partner] = (t, weight - t)
    return Orientation(weight, assignment)


def enumerate_orientations(galois, weight, hodge_numbers):
    """All orientations with the given Hodge numbers, in lexicographic order.

    Each conjugate pair independently picks an ordered bidegree class for its
    first member, so the output order is the lexicographic order of those
    picks with classes sorted by descending p; orientation_picks makes the
    checks and the picks.
    """
    pairs, picks = orientation_picks(galois, weight, hodge_numbers)
    return [orientation_from_pick(weight, pairs, pick) for pick in picks]


def _budgeted_picks(n, weight, budget):
    """Each way for n pairs to pick t = 0..weight, at most budget[c] picks of class c = min(t, weight - t).

    Yields tuples in lexicographic order, the order of itertools.product.
    An odometer: ``pick`` holds the current prefix and ``t`` the next value
    to try at its end; a value is taken only while its class has budget
    left, and the budget is handed back when the value is dropped.
    """
    budget = list(budget)
    classes = [min(t, weight - t) for t in range(weight + 1)]
    pick = []
    t = 0
    while True:
        if len(pick) == n:
            yield tuple(pick)
        else:
            while t <= weight and not budget[classes[t]]:
                t += 1
            if t <= weight:
                budget[classes[t]] -= 1
                pick.append(t)
                t = 0
                continue
        if not pick:
            return
        t = pick.pop()
        budget[classes[t]] += 1
        t += 1


# -- serialization ------------------------------------------------------


def field_to_json(galois):
    if galois.flavor == "cyclotomic":
        return {"flavor": "cyclotomic", "conductor": galois.conductor}
    return {
        "flavor": "abstract",
        "labels": list(galois.labels),
        "generators": [list(g) for g in galois.generators],
        "conjugation": list(galois.conjugation),
    }


def field_from_json(obj):
    if not isinstance(obj, dict) or "flavor" not in obj:
        raise UsageError("field JSON needs a 'flavor'")
    if obj["flavor"] == "cyclotomic":
        m = obj.get("conductor")
        if type(m) is not int:
            raise UsageError("cyclotomic field JSON needs an integer 'conductor'")
        return build_cyclotomic_cm(m)
    if obj["flavor"] == "abstract":
        for key in ("labels", "generators", "conjugation"):
            if key not in obj:
                raise UsageError(f"abstract field JSON needs {key!r}")
        labels, generators, conjugation = obj["labels"], obj["generators"], obj["conjugation"]
        perms = generators if isinstance(generators, list) else [generators]
        if not all(_is_label_list(x) for x in [labels, conjugation, *perms]):
            raise UsageError(
                "abstract field JSON needs 'labels', 'conjugation' and every generator "
                "as a list of string or integer labels",
                reason="bad-field",
            )
        return build_abstract_cm(labels, generators, conjugation)
    raise UsageError(f"unknown field flavor {obj['flavor']!r}")


def _is_label_list(x):
    """A JSON list of labels: strings, or ints that are not booleans."""
    return isinstance(x, list) and all(isinstance(lab, str) or type(lab) is int for lab in x)


def oriented_to_json(field):
    out = field_to_json(field.galois)
    out["orientation"] = field.orientation.to_json()
    return out


def oriented_from_json(obj):
    if not isinstance(obj, dict) or "orientation" not in obj:
        raise UsageError("oriented field JSON needs an 'orientation'")
    galois = field_from_json(obj)
    orientation = Orientation.from_json(obj["orientation"], labels=galois.labels)
    return validate_orientation(galois, orientation)
