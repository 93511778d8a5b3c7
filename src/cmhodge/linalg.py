"""Exact linear algebra kernels.

Two pieces: fraction-free integer elimination for ranks over Q, and an
incremental echelon span over a cyclotomic coefficient field.  No pivot
thresholds, no floats; every rank reported here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def rank_rational(rows):
    """Exact rank of a matrix given as a list of rows of ints or Fractions.

    A row of ints goes to the elimination as it is; a row holding Fractions
    is first scaled by the lcm of its denominators, which keeps the rank.
    """
    cleared = []
    for row in rows:
        if all(isinstance(x, int) for x in row):
            cleared.append(row)
            continue
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        cleared.append([x.numerator * (den // x.denominator) for x in row])
    return _rank_integer(cleared)


def _rank_integer(rows):
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            q = rows[r][col]
            for c in range(col, ncols):
                # Bareiss update: stays integral, divisions are exact
                rows[r][c] = (p * rows[r][c] - q * rows[rank][c]) // prev
        prev = p
        rank += 1
        if rank == len(rows):
            break
    return rank


class SpanBasis:
    """Echelon basis of a span, built one vector at a time.

    Vectors are sparse dicts {coordinate: CyclotomicNumber}.  Stored rows are
    normalized to a unit pivot, so reduction is subtract-and-continue.
    """

    def __init__(self):
        self.rows = {}

    @property
    def dimension(self):
        return len(self.rows)

    def insert(self, vec):
        """Reduce vec against the span; add it if independent.  True if added."""
        rest = self._reduce(vec)
        if not rest:
            return False
        pivot = min(rest)
        inv = rest[pivot].inverse()
        self.rows[pivot] = {c: x * inv for c, x in rest.items()}
        return True

    def contains(self, vec):
        """True when vec already lies in the span (vec is left untouched)."""
        return not self._reduce(vec)

    def _reduce(self, vec):
        """A reduced copy of vec: empty when vec lies in the span, else led by a free pivot."""
        vec = {c: x for c, x in vec.items() if x}
        while vec:
            pivot = min(vec)
            row = self.rows.get(pivot)
            if row is None:
                break
            factor = vec[pivot]
            for c, x in row.items():
                cur = vec.get(c)
                nxt = -(factor * x) if cur is None else cur - factor * x
                if nxt:
                    vec[c] = nxt
                else:
                    vec.pop(c, None)
        return vec
