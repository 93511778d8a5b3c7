"""The Hodge-aligned basis of sp(2n) attached to an oriented CM field.

The 2n basis vectors of the underlying space are indexed by signed pair
indices in the order w_1..w_n, w_{-1}..w_{-n}; conjugation sends w_k to
w_{-k}.  The symplectic form pairs w_k with w_{-k} only, with purely
imaginary value Q_k, and the algebra is spanned by the vectors

    X_{i,j} = E_{i,j} + (Q_i / -Q_j) E_{-j,-i}

where E_{a,b} is the elementary endomorphism sending w_b to w_a.  The sign
convention i^(p-q) Q > 0 (``OrientedCMField.epsilons``, fixed by the
orientation) makes every ratio Q_i / -Q_j equal +1 or -1, so
all structure constants are rational.  X_{i,j} and X_{-j,-i} name the same
line; coefficients are always stored on the representative whose index
pair comes first in basis order.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .cmfield import basis_pos
from .cyclotomic import CyclotomicNumber, _context
from .errors import ConductorMismatchError, NotNilpotentError, UsageError
from .linalg import ModularSpan, SpanBasis, UnluckyPrimeError, _accumulate


def _ratio(field, i, j):
    """Q_i / -Q_j, always +1 or -1.

    Private on purpose: it runs once per coefficient, and perfbench's tracer
    wraps every public function of this module.
    """
    eps = field.epsilons
    return -eps[i] * eps[j]


def canonical_root_index(n, i, j):
    """The stored representative of {(i, j), (-j, -i)} in basis order."""
    a = (basis_pos(n, i), basis_pos(n, j))
    b = (basis_pos(n, -j), basis_pos(n, -i))
    return (i, j) if a <= b else (-j, -i)


def all_root_indices(n):
    """Every canonical root index, sorted by basis position; n(2n+1) of them."""
    signed = list(range(1, n + 1)) + [-k for k in range(1, n + 1)]
    out = [
        (i, j)
        for i in signed
        for j in signed
        if canonical_root_index(n, i, j) == (i, j)
    ]
    out.sort(key=lambda ij: (basis_pos(n, ij[0]), basis_pos(n, ij[1])))
    return out


def bidegree(field, i, j):
    """The grading eigenvalue l of X_{i,j}: it maps degree (p,q) to (p+l, q-l)."""
    p_i, _ = field.bidegree_of_index(i)
    p_j, _ = field.bidegree_of_index(j)
    return p_i - p_j


class AlgebraElement:
    """A finite sum of coefficients against the X basis, canonically indexed."""

    def __init__(self, field, coeffs, _raw=False):
        self.field = field
        if _raw:
            self.coeffs = coeffs
        else:
            self.coeffs = _fold_coeffs(field, coeffs)

    # -- basic structure ------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def support(self):
        n = self.field.n
        return tuple(
            sorted(self.coeffs, key=lambda ij: (basis_pos(n, ij[0]), basis_pos(n, ij[1])))
        )

    def _check_compatible(self, other):
        if self.field != other.field:
            raise UsageError("elements live over different oriented fields")

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.coeffs)
        for ij, c in other.coeffs.items():
            _accumulate(out, ij, c)
        return AlgebraElement(self.field, out, _raw=True)

    def __neg__(self):
        return AlgebraElement(self.field, {ij: -c for ij, c in self.coeffs.items()}, _raw=True)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            scalar = CyclotomicNumber.from_rational(self.field.working_conductor, scalar)
        if not isinstance(scalar, CyclotomicNumber):
            return NotImplemented
        if not scalar:
            return AlgebraElement(self.field, {}, _raw=True)
        return AlgebraElement(
            self.field, {ij: c * scalar for ij, c in self.coeffs.items()}, _raw=True
        )

    __rmul__ = __mul__

    # -- span coordinates -----------------------------------------------

    def vector(self, coord_of):
        """Coefficients as a sparse coordinate dict for span computations."""
        return {coord_of[ij]: c for ij, c in self.coeffs.items()}

    # -- serialization --------------------------------------------------

    def to_json(self):
        from .cmfield import oriented_to_json

        n = self.field.n
        terms = []
        for i, j in self.support():
            terms.append({"i": i, "j": j, "coeff": self.coeffs[(i, j)].to_json()})
        return {"field": oriented_to_json(self.field), "terms": terms}

    def __repr__(self):
        return f"AlgebraElement(n={self.field.n}, support={self.support()})"


def _fold_coeffs(field, coeffs):
    n = field.n
    M = field.working_conductor
    out = {}
    for (i, j), c in coeffs.items():
        for k in (i, j):
            if type(k) is not int or k == 0 or abs(k) > n:
                raise UsageError(f"signed index {k!r} is out of range for n={n}")
        if isinstance(c, (int, Fraction)):
            c = CyclotomicNumber.from_rational(M, c)
        if c.conductor != M:
            raise ConductorMismatchError(
                f"coefficient conductor {c.conductor} does not match the field's {M}"
            )
        _accumulate(out, *_fold(field, i, j, c))
    return out


def _fold(field, i, j, c):
    """(canonical index, coefficient) of c X_{i,j}, by X_{-j,-i} = ratio(i, j) X_{i,j}."""
    canon = canonical_root_index(field.n, i, j)
    if canon == (i, j):
        return canon, c
    return canon, c * _ratio(field, i, j)


def element_from_coeffs(field, coeffs):
    """Build an element from {(i, j): coefficient}; indices fold automatically."""
    return AlgebraElement(field, coeffs)


def zero_element(field):
    return AlgebraElement(field, {}, _raw=True)


def root_vector(field, i, j):
    """The basis vector X_{i,j} (as a stored canonical representative)."""
    return element_from_coeffs(field, {(i, j): 1})


def cartan_elements(field):
    """The n diagonal basis vectors X_{k,k} = E_{k,k} - E_{-k,-k}."""
    return [root_vector(field, k, k) for k in range(1, field.n + 1)]


def element_from_json(obj):
    from .cmfield import oriented_from_json

    if not isinstance(obj, dict) or "field" not in obj or "terms" not in obj:
        raise UsageError("element JSON needs 'field' and 'terms'")
    if not isinstance(obj["terms"], list):
        raise UsageError("element JSON 'terms' must be a list", reason="bad-element")
    field = oriented_from_json(obj["field"])
    M = field.working_conductor
    coeffs = {}
    for term in obj["terms"]:
        if not isinstance(term, dict) or not {"i", "j", "coeff"} <= term.keys():
            raise UsageError(
                f"element term {term!r} needs 'i', 'j' and 'coeff'", reason="bad-element"
            )
        ij = (term["i"], term["j"])
        if type(ij[0]) is not int or type(ij[1]) is not int:
            raise UsageError(f"element term index {ij!r} is not a pair of ints", reason="bad-element")
        if ij in coeffs:
            raise UsageError(f"element term {ij!r} is repeated", reason="bad-element")
        # before the coefficient is parsed: its arithmetic context costs more
        # than quadratic time in the conductor, so a foreign one is never built
        coeff = term["coeff"]
        conductor = coeff.get("conductor") if isinstance(coeff, dict) else None
        if isinstance(conductor, int) and conductor >= 1 and conductor != M:
            raise ConductorMismatchError(
                f"coefficient conductor {conductor} does not match the field's {M}"
            )
        coeffs[ij] = CyclotomicNumber.from_json(coeff)
    return element_from_coeffs(field, coeffs)


# -- Galois action ------------------------------------------------------


def _gauge_units(field):
    """The equivariant gauge (d, dinv, pairing values, lifts), each a dict over the signed indices.

    The fixed choice Q_k = epsilon_k * i is not constant along group orbits,
    so substituting indices alone is not compositional.  There is however a
    rescaled basis on which it is: give the index k with label l the pairing
    value P_k = zeta_m^l - zeta_m^-l = sigma_l(q0), q0 = zeta_m - zeta_m^-1.
    Those values move exactly as the group moves labels, and d_k is the
    diagonal scale relating our basis to that one: dinv_k = -i eps_k P_k and
    d_k = 1 / dinv_k for k > 0, d_-k = dinv_-k = 1.  ``lifts[k]`` is the
    exponent of sigma_l on Q(zeta_M), the lift that fixes i.  Kept in
    ``field.gauge_units``; an abstract field has no gauge and is refused by
    ``field.sigma`` before any arithmetic.
    """
    if field.gauge_units is not None:
        return field.gauge_units
    labels = field.index_to_label
    idx = field.signed_indices()
    lifts = {k: field.coeff_exponent(field.sigma(labels[k])) for k in idx}
    M = field.working_conductor
    step = M // field.galois.conductor
    root = CyclotomicNumber.root_of_unity
    pairing_values = {k: root(M, step * labels[k]) - root(M, -step * labels[k]) for k in idx}
    one = CyclotomicNumber.one(M)
    i_unit = CyclotomicNumber.i_unit(M)
    # d_k = i eps_k sigma_k(q0^-1): the automorphisms commute with inversion
    # and fix i, so one inverse serves every k; q0 = P_1, as l(1) = 1
    q0_inverse = pairing_values[1].inverse()
    d = {}
    dinv = {}
    for k in range(1, field.n + 1):
        unit = i_unit * field.epsilons[k]
        d[k] = q0_inverse.galois(lifts[k]) * unit
        dinv[k] = pairing_values[k] * -unit
        d[-k] = dinv[-k] = one
    field.gauge_units = (d, dinv, pairing_values, lifts)
    return field.gauge_units


def _root_image(field, perm, exp, table, ij):
    """Fill the entry (image root, unit) of the canonical root ij in ``table``, perm's monomial table.

    The action is monomial on the root basis: g (c X_{i,j}) =
    sigma(c) u X_{g i, g j}, sigma the coefficient automorphism of g
    (z -> z^exp), with the unit u = factor(i) * cofactor(j),
    factor(k) = sigma(d_k) / d_{g k} and cofactor(k) = d_{g k} / sigma(d_k)
    in the gauge d of ``_gauge_units``.  The table, kept in
    ``field.gauge_factors[perm]``, is three dicts, each filled on first use:
    canonical root -> (image root, unit), already folded by ``_fold``;
    index -> factor; index -> cofactor.  A root's unit costs one product,
    once, and an average of a single root builds one root entry and two
    index factors per group element, not the factors of all 2n indices.
    """
    roots, factor, cofactor = table
    d, dinv, _, _ = _gauge_units(field)
    i, j = ij
    ii = field.act_index(perm, i)
    jj = field.act_index(perm, j)
    if i not in factor:
        factor[i] = d[i].galois(exp) * dinv[ii]
    if j not in cofactor:
        cofactor[j] = dinv[j].galois(exp) * d[jj]
    hit = roots[ij] = _fold(field, ii, jj, factor[i] * cofactor[j])
    return hit


def _act_into(out, field, perm, v):
    """Accumulate the image of v under perm into the sparse dict out (``galois_act_element``)."""
    if v.field is not field and v.field != field:
        raise UsageError("element does not belong to the given field")
    exp = field.coeff_exponent(perm)
    table = field.gauge_factors.get(perm)
    if table is None:
        table = field.gauge_factors[perm] = ({}, {}, {})
    roots = table[0]
    for ij, c in v.coeffs.items():
        image, unit = roots.get(ij) or _root_image(field, perm, exp, table, ij)
        _accumulate(out, image, c.galois(exp) * unit)


def galois_act_element(field, perm, v):
    """Move coefficients by the induced automorphism and indices by the label action.

    Each basis vector goes to a unit multiple of the basis vector at the
    image index pair.  The unit is the one forced by compositionality: the
    ratios Q_i / -Q_j are not constant along group orbits, so the bare
    index substitution is corrected through the diagonal gauge of
    ``_gauge_units``.  With that correction the map is a genuine group
    action that commutes with the bracket, and group averaging therefore
    lands in the fixed subspace.  Each group element keeps the units and
    folded images of the roots met so far (``_root_image``), so a
    coefficient costs one automorphism and one product.  Only a cyclotomic
    field has the coefficient automorphisms; an abstract field is refused
    by ``OrientedCMField.coeff_exponent``.
    """
    out = {}
    _act_into(out, field, perm, v)
    return AlgebraElement(field, out, _raw=True)


def is_rational(field, v):
    """Fixed by every element of ``field.galois.group_generators``, hence by the whole group.

    Those are the generators alone: conjugation is a word in them, so
    applying it too would only repeat work.  Rationality is being fixed by
    the coefficient Galois action, which only a cyclotomic field has; on an
    abstract field the first ``galois_act_element`` raises ``DomainError``
    with reason ``rationality-needs-cyclotomic``.
    """
    for g in field.galois.group_generators:
        if galois_act_element(field, g, v) != v:
            return False
    return True


def reynolds_average(field, v):
    """Sum of the full Galois orbit of v; the constructive source of rational elements.

    The gauge comes first, so an abstract field is refused before its group is listed.
    """
    _gauge_units(field)
    out = {}
    for g in field.galois.enumerate_group():
        _act_into(out, field, g, v)
    return AlgebraElement(field, out, _raw=True)


# -- bracket and subalgebras -------------------------------------------


def bracket(u, v):
    """The commutator [u, v], from the structure constants of the X basis (``_bracket_coeffs``)."""
    u._check_compatible(v)
    return AlgebraElement(u.field, _bracket_coeffs(u.field, u.coeffs, v.coeffs), _raw=True)


def _bracket_coeffs(field, ucoeffs, vcoeffs):
    """The coefficients of [u, v] from those of u and v, canonically indexed.

    For any signed indices (the classical algebra C_n in its matrix-unit
    basis; Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, 1.2)

        [X_ab, X_cd] = [b = c] X_ad - [d = a] X_cb
                       + [d = -b] ratio(c, d) X_{a,-c} + [c = -a] ratio(a, b) X_{-b,d},

    so a term X_ab of u meets only the terms of v whose first index is b or
    -a, or whose second index is a or -b.  The structure constants are the
    integers 0 and +-1, so the same sums serve coefficients in Q(zeta_M)
    (``bracket``) and residues mod p (``generated_subalgebra``), which the
    caller reduces.
    """
    fold = _fold_signs(field)
    by_first, by_second = {}, {}
    for (c, d), y in vcoeffs.items():
        by_first.setdefault(c, []).append((d, y))
        by_second.setdefault(d, []).append((c, y))
    out = {}
    for (a, b), x in ucoeffs.items():
        for d, y in by_first.get(b, ()):
            ij, s = fold[a, d]
            _accumulate(out, ij, x * y if s > 0 else -(x * y))
        for c, y in by_second.get(a, ()):
            ij, s = fold[c, b]
            _accumulate(out, ij, -(x * y) if s > 0 else x * y)
        for c, y in by_second.get(-b, ()):
            ij, s = fold[a, -c]
            _accumulate(out, ij, x * y if s * _ratio(field, c, -b) > 0 else -(x * y))
        for d, y in by_first.get(-a, ()):
            ij, s = fold[-b, d]
            _accumulate(out, ij, x * y if s * _ratio(field, a, b) > 0 else -(x * y))
    return out


def _fold_signs(field):
    """``_fold`` of the unit coefficient at every (i, j): {(i, j): (canonical index, +-1)}.

    Built once per field, on its first bracket, and kept in ``field._fold_signs``.
    """
    table = field._fold_signs
    if table is None:
        idx = field.signed_indices()
        table = field._fold_signs = {(i, j): _fold(field, i, j, 1) for i in idx for j in idx}
    return table


def rational_nilpotency_degree(v):
    """Smallest l with N^l = 0 for a rational element N of a cyclotomic field, from its form over F.

    F is the fixed field of the coefficient action: Q(i) for odd m, Q when
    4 | m.  The form is the 2n x 2n matrix W of N on the fixed vectors y_a
    (``_fixed_form``; y_a has coordinate zeta_m^(a l(k)) at index k, see
    ``acceptance._fixed_symplectic_pairs``), similar to N, so it has the
    same degree; the chains run on its integer rows.  Over Q(i) = Q + Qi,
    W = A + iB acts on Q-coordinates (real parts, then imaginary parts) as
    [[A, -B], [B, A]]; the chains start at the first 2n coordinate vectors,
    one per y_a, and the bound stays 2n, the dimension over F.  The element
    must be rational (``is_rational``); for any other, W is not N's matrix.

    The degree is the longest chain W e_a, W^2 e_a, ... before it vanishes:
    W^l = 0 exactly when W^l e_a = 0 for every basis vector e_a.  A chain of
    full length 2n that ends in zero stops the search: its vectors W^i e_a
    (0 <= i < 2n) are independent (apply W^(2n-1-i) to a relation whose
    first nonzero term is at i), so they form a basis that W^(2n) kills,
    and no later chain can be longer or fail to end.  Raises
    ``NotNilpotentError`` if W^(2n) is still nonzero.
    """
    size = 2 * v.field.n
    rows = _fixed_form(v)

    def step(vec):
        out = [sum(map(mul, row, vec)) for row in rows]
        return out if any(out) else None

    degree = 1
    for a in range(size):
        vec = step([int(b == a) for b in range(len(rows))])
        length = 1
        while vec:
            if length >= size:
                raise NotNilpotentError("the realization is not nilpotent")
            vec = step(vec)
            length += 1
        if length == size:
            return size
        degree = max(degree, length)
    return degree


def _fixed_form(v):
    """Integer rows of a positive multiple of N's matrix over F on the fixed vectors, written over Q.

    In the equivariant gauge (``_gauge_units``), G = d N d^-1, a rational N
    maps each fixed vector y_a (``rational_nilpotency_degree``) to a fixed
    vector, and a fixed vector is determined by its coordinate at index 1,
    whose label is 1.  So column a of W holds the coordinates of

        (G y_a)_1 = sum over k of G_1k zeta_m^(a l(k))

    in the F-basis zeta_m^b (b < 2n) of Q(zeta_M).  Each product with a root
    of unity moves the integer numerators of G_1k to other exponents of
    zeta_M.  For odd m, M = 4m, and zeta_M^t = i^x zeta_m^y with
    t = m x + 4 y (mod M); when 4 | m, M = m and x = 0.  The powers
    zeta_m^y (y < m) reduce to the power basis modulo Phi_m.
    """
    field = v.field
    d, dinv, _, _ = _gauge_units(field)
    m = field.galois.conductor
    M = field.working_conductor
    size = 2 * field.n
    step = M // m
    # row 1 of N from the X-coefficients: c X_{1,j} puts c at (1, j), and
    # c X_{i,-1} puts c ratio(i, -1) at (1, -i); X_{1,-1} gets both
    row = {}
    for (i, j), c in v.coeffs.items():
        if i == 1:
            _accumulate(row, j, c)
        if j == -1:
            _accumulate(row, -i, c * _ratio(field, i, j))
    gauged = [(k, d[1] * c * dinv[k]) for k, c in row.items()]
    den = lcm(*(g.den for _, g in gauged))
    shifted = [
        (step * field.index_to_label[k], [(t, x * (den // g.den)) for t, x in enumerate(g.num) if x])
        for k, g in gauged
    ]
    # the Q-coordinates of zeta_M^t = i^x zeta_m^y as (position, integer)
    # pairs, imaginary parts after the real ones; x = 0 when 4 | m
    terms = _context(m).terms
    coords = []
    for t in range(M):
        x = (t * m) % 4
        y = ((t - m * x) // step) % m
        offset = size if x % 2 else 0
        sign = -1 if x >= 2 else 1
        coords.append([(offset + b, sign * r) for b, r in terms[y]])
    width = size if M == m else 2 * size
    cols = []
    for a in range(size):
        bucket = [0] * M
        for shift, nums in shifted:
            s = a * shift
            for t, x in nums:
                bucket[(t + s) % M] += x
        col = [0] * width
        for t, x in enumerate(bucket):
            if x:
                for pos, r in coords[t]:
                    col[pos] += x * r
        cols.append(col)
    if width != size:  # i * y_a maps to i * (W y_a): real part -B, imaginary part A
        cols += [[-x for x in col[size:]] + col[:size] for col in cols]
    return [list(r) for r in zip(*cols)]


def generated_subalgebra(seeds):
    """Bracket closure of the span of the seeds.

    Returns (dimension, basis elements).  Breadth first: every sweep brackets
    the newly added elements against the whole current basis, extending the
    span, until nothing new appears or the ambient dimension n(2n+1) is hit.

    The sweep runs first on residues modulo a prime p that splits completely
    in Q(zeta_M) (``linalg.ModularSpan``), and its answer is kept only when
    it reaches n(2n+1).  Why that is exact: zeta -> omega is a ring map from
    the p-integral elements of Q(zeta_M) onto F_p, so the rank mod p of
    p-integral vectors is at most their rank over Q(zeta_M).  The structure
    constants are integers, so reduction mod p commutes with the bracket:
    each seed is mapped to F_p once, and a residue bracket of images is the
    image of the exact bracket.  Every element the modular pass accepts is
    recorded as a word, a seed or the bracket of two earlier basis elements;
    it names an exact element of the generated algebra A whose image is that
    residue vector, and the accepted images are independent mod p, so those
    elements are independent over Q(zeta_M).  n(2n+1) of them therefore
    prove dim A = n(2n+1) and form a true basis of A, and only their words
    are computed exactly, with ``bracket``.  Below that a modular reject may
    be a false dependence, so the closure is run again with the exact
    ``SpanBasis``, as it is when p divides some coordinate's denominator.
    Both passes accept the same brackets, and so return the same basis,
    unless p turns an independent bracket into a false reject.  The argument
    holds for any completely split p; ``split_prime`` takes a word-size one
    so that the pass does single-digit arithmetic, and its size only sets
    how often the exact pass reruns.
    """
    seeds = list(seeds)
    if not seeds:
        raise UsageError("generated_subalgebra needs at least one seed")
    for s in seeds[1:]:
        seeds[0]._check_compatible(s)
    field = seeds[0].field
    n = field.n
    ambient = n * (2 * n + 1)
    try:
        words = _residue_words(seeds, ModularSpan(field.working_conductor))
    except UnluckyPrimeError:
        words = ()
    if len(words) < ambient:
        return _closure(seeds, SpanBasis())
    basis = []
    for word in words:
        basis.append(seeds[word] if type(word) is int else bracket(basis[word[0]], basis[word[1]]))
    return ambient, tuple(basis)


def _residue_words(seeds, span):
    """The words of the basis that the sweep accepts on residues mod ``span.prime``."""
    field = seeds[0].field
    n = field.n
    p = span.prime
    coord_of = _coordinates(n)

    def insert(z):
        return bool(z) and span.insert({coord_of[ij]: y for ij, y in z.items()})

    def product(x, y):
        return _residue_bracket(field, p, x, y)

    return _sweep([_residues(span, s) for s in seeds], product, insert, n * (2 * n + 1))[1]


def _residues(span, v):
    """The image of v mod ``span.prime``: its nonzero coefficient residues by canonical index."""
    out = {}
    for ij, c in v.coeffs.items():
        y = span._image(c)
        if y:
            out[ij] = y
    return out


def _residue_bracket(field, p, x, y):
    """The bracket of two images mod p, which is the image of the bracket of any preimages."""
    return {ij: r for ij, c in _bracket_coeffs(field, x, y).items() if (r := c % p)}


def _closure(seeds, span):
    """The breadth-first closure of generated_subalgebra, deciding independence with span."""
    n = seeds[0].field.n
    coord_of = _coordinates(n)

    def insert(z):
        return not z.is_zero() and span.insert(z.vector(coord_of))

    basis, _ = _sweep(seeds, bracket, insert, n * (2 * n + 1))
    return span.dimension, tuple(basis)


def _coordinates(n):
    """Canonical root index -> span coordinate, in basis order."""
    return {ij: t for t, ij in enumerate(all_root_indices(n))}


def _sweep(seeds, product, insert, ambient):
    """The breadth-first sweep of generated_subalgebra: (accepted elements, their words).

    ``insert(z)`` adds z to the span and says whether it was independent.
    A word is the position of a seed, or the pair (x, y) of basis positions
    whose ``product`` the element is.  The inner loop also meets the
    elements appended while it runs.
    """
    basis, words, new = [], [], []
    for t, s in enumerate(seeds):
        if insert(s):
            new.append(len(basis))
            basis.append(s)
            words.append(t)
    while new and len(basis) < ambient:
        fresh = []
        for x in new:
            for y, v in enumerate(basis):
                z = product(basis[x], v)
                if insert(z):
                    fresh.append(len(basis))
                    basis.append(z)
                    words.append((x, y))
                    if len(basis) >= ambient:
                        break
            if len(basis) >= ambient:
                break
        new = fresh
    return basis, words
