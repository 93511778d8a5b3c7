"""Seeded inputs for the benchmark, built without calling cmhodge.

Orientations are drawn directly: shuffle the multiset of class pairs that
the Hodge numbers prescribe over the conjugate pairs, then pick which member
of each pair takes the upper class.  Counts come from the closed form
multinomial(n; h_0, ..., h_{(w-1)/2}) * 2^n, and orbit ranks from a small
Fraction elimination, so the checks in ``checks.py`` are independent of the
code under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import factorial, gcd


def units(m):
    """Embedding labels of the m-th cyclotomic field, in cmhodge's order."""
    return [a for a in range(1, m) if gcd(a, m) == 1]


def pair_reps(m):
    """First member of each conjugate pair, in label order (index k = position + 1)."""
    reps, seen = [], set()
    for a in units(m):
        if a not in seen:
            reps.append(a)
            seen.update((a, m - a))
    return reps


def orientation_count(n, weight, hodge):
    """Number of orientations: multinomial over class pairs times 2^n choices of side."""
    half = hodge[: (weight + 1) // 2]
    if sum(half) != n or list(hodge) != list(hodge)[::-1]:
        raise ValueError(f"Hodge numbers {hodge} do not fit {n} pairs")
    count = factorial(n)
    for h in half:
        count //= factorial(h)
    return count << n


def random_orientation(rng, m, weight, hodge):
    """A uniformly random orientation as the JSON object the CLI reads."""
    reps = pair_reps(m)
    classes = [t for t, h in enumerate(hodge[: (weight + 1) // 2]) for _ in range(h)]
    if len(classes) != len(reps):
        raise ValueError(f"Hodge numbers {hodge} do not fit conductor {m}")
    rng.shuffle(classes)
    assignment = {}
    for a, t in zip(reps, classes):
        if rng.random() < 0.5:
            t = weight - t
        assignment[a] = [weight - t, t]
        assignment[m - a] = [t, weight - t]
    return {
        "weight": weight,
        "assignment": {str(a): assignment[a] for a in sorted(assignment, key=str)},
    }


def canonical(orientation):
    """Byte form used to compare an orientation with an enumerated one."""
    return json.dumps(orientation, sort_keys=True, separators=(",", ":"))


def rank(rows):
    """Exact rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def orbit_rank(m, orientation):
    """Rank of the Galois orbit of the grading vector p - q on the pair coordinates."""
    grading = {int(a): p - q for a, (p, q) in orientation["assignment"].items()}
    reps = pair_reps(m)
    return rank([[grading[a * k % m] for k in reps] for a in units(m)])


def nondegenerate_orientation(rng, m, weight, hodge):
    """First random orientation whose orbit rank reaches the Cartan bound n."""
    n = len(pair_reps(m))
    for _ in range(1000):
        orientation = random_orientation(rng, m, weight, hodge)
        if orbit_rank(m, orientation) == n:
            return orientation
    raise ValueError(f"no nondegenerate orientation found at conductor {m}")
