"""Exact linear algebra kernels.

Three pieces: fraction-free integer elimination for ranks over Q, an
incremental echelon span over a cyclotomic coefficient field, and the same
span taken modulo a prime that splits completely in that field.  No pivot
thresholds, no floats; the first two report exact ranks, and the modular
span a lower bound for them (see ``ModularSpan``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm


def rank_rational(rows):
    """Exact rank of a matrix given as a list of rows of ints or Fractions.

    A row of ints goes to the elimination as it is; a row holding Fractions
    is first scaled by the lcm of its denominators, which keeps the rank.
    """
    cleared = []
    for row in rows:
        if all(map(isinstance, row, repeat(int))):
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
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        for r in range(rank, nrows):
            if rows[r][col]:
                break
        else:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[col]
        # Bareiss update: stays integral, divisions are exact.  Columns up
        # to col are never read again, so the update starts at col + 1.
        for r in range(rank + 1, nrows):
            row = rows[r]
            x = row[col]
            if x:
                for c in range(col + 1, ncols):
                    row[c] = (p * row[c] - x * pivot_row[c]) // prev
            else:
                for c in range(col + 1, ncols):
                    row[c] = p * row[c] // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _accumulate(acc, key, value):
    """acc[key] += value on a sparse dict, dropping the key when the sum is zero."""
    cur = acc.get(key)
    nxt = value if cur is None else cur + value
    if nxt:
        acc[key] = nxt
    else:
        acc.pop(key, None)


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
        """Reduce a copy of vec against the span; add it if independent.  True if added."""
        vec = {c: x for c, x in vec.items() if x}
        while vec:
            pivot = min(vec)
            row = self.rows.get(pivot)
            if row is None:
                inv = vec[pivot].inverse()
                self.rows[pivot] = {c: x * inv for c, x in vec.items()}
                return True
            factor = -vec[pivot]
            for c, x in row.items():
                _accumulate(vec, c, factor * x)
        return False


# Miller-Rabin with these bases is exact below 3.3 * 10^24 (Sorenson and
# Webster); every number tested here is far smaller.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin primality test, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def split_prime(M):
    """The first prime p = 1 (mod M) above 2^29, and a primitive M-th root of unity mod p.

    Such a p splits completely in Q(zeta_M), and zeta_M -> omega is a ring
    map from the p-integral elements of Q(zeta_M) onto F_p.  omega is
    a^((p-1)/M) for the least a >= 2 for which that power has order M.
    Any completely split prime serves ``ModularSpan``; its size only sets
    how often a nonzero coordinate vanishes mod p, heuristically once in p.
    For every working conductor the group cap admits (M at most 92820) p
    stays below 2^30, so a residue is one 30-bit CPython digit and a
    product of two is a two-digit int.
    """
    p = 2**29 + 1 + (-(2**29)) % M
    while not _is_prime(p):
        p += M
    a = 2
    while True:  # F_p^* is cyclic of order divisible by M, so this ends
        omega = pow(a, (p - 1) // M, p)
        x, order = omega, 1
        while x != 1:
            x = x * omega % p
            order += 1
        if order == M:
            return p, omega
        a += 1


class UnluckyPrimeError(ArithmeticError):
    """A coordinate's denominator is divisible by the prime of a ModularSpan."""


class ModularSpan:
    """The image of a span in F_p, p = split_prime(M), built one vector at a time.

    Same ``insert``/``dimension`` interface as ``SpanBasis``.  A coordinate
    c = sum num_i zeta^i / den goes to sum num_i omega^i * den^-1 mod p, and
    an int coordinate is taken as an image already and goes to c mod p;
    p < 2^30, so every residue is a one-digit int.  Reduction mod p is a
    ring map, so images may be added and multiplied by integers before
    they are inserted (``algebra.generated_subalgebra`` brackets them).
    The rows are kept in reduced echelon form over F_p: each has a unit at
    its pivot and zeros at every other row's pivot.  Vectors whose images
    are independent mod p are independent over Q(zeta_M); the converse can
    fail, so ``dimension`` is a lower bound for the exact one.  A
    coordinate with p dividing its denominator has no image and raises
    ``UnluckyPrimeError``.
    """

    def __init__(self, M):
        self.prime, omega = split_prime(M)
        self._powers = [pow(omega, i, self.prime) for i in range(M)]
        self.rows = {}

    @property
    def dimension(self):
        return len(self.rows)

    def _image(self, x):
        p = self.prime
        if type(x) is int:
            return x % p
        if x.den % p == 0:
            raise UnluckyPrimeError(f"{p} divides the denominator {x.den}")
        y = sum(c * w for c, w in zip(x.num, self._powers))
        if x.den != 1:
            y *= pow(x.den, -1, p)
        return y % p

    def insert(self, vec):
        """Reduce the image of vec against the span; add it if independent.  True if added.

        Subtracting row q changes no other pivot coordinate, so each pivot
        in the image's support is cleared once, in any order.  A new row
        is then cleared from the rows that hold its pivot, so that every
        row keeps zeros at the other pivots; near full rank a row is short,
        its pivot and the few coordinates that are not pivots.
        """
        p = self.prime
        rest = {}
        for c, x in vec.items():
            y = self._image(x)
            if y:
                rest[c] = y
        rows = self.rows
        for pivot in [c for c in rest if c in rows]:
            _subtract(rest, rest[pivot], rows[pivot], p)
        if not rest:
            return False
        pivot = min(rest)
        inv = pow(rest[pivot], -1, p)
        new = {c: y * inv % p for c, y in rest.items()}
        for row in rows.values():
            factor = row.get(pivot)
            if factor:
                _subtract(row, factor, new, p)
        rows[pivot] = new
        return True


def _subtract(target, factor, row, p):
    """target -= factor * row over F_p, on sparse dicts of nonzero residues."""
    for c, y in row.items():
        nxt = (target.get(c, 0) - factor * y) % p
        if nxt:
            target[c] = nxt
        else:
            del target[c]
