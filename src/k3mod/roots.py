"""Root and fixed-norm vector enumeration for definite lattices.

The enumerator is Fincke-Pohst style: the Gram matrix is completed to a sum
of squares with rational pivots, and coordinate ranges are propagated from
the last coordinate to the first with exact bounds (integer square roots
plus an exact adjustment step, so no acceptance errors from rounding).  The
integer square completion (`_scaled_form`) and the one recursion over it
(`_walk`) are private to this module.  The walk serves the vectors of one
norm (`enumerate_norm_vectors`, the roots), the norm histogram
(`norm_counts`) and the nonnegative cone of one norm (`enumerate_cone`,
where every level walks x_i >= 0: the dominant-orbit scan of `search`).

Three things keep the recursion cheap:

* x/-x symmetry.  While every higher coordinate is 0, the centre of the
  current level is 0 and its range is symmetric, so only x_i >= 0 is walked
  there (x_0 >= 1 at level 0).  The walk then meets exactly the vectors whose
  last nonzero coordinate is positive, one of each pair +-x: counts are
  doubled, and a visitor is called for x and then for -x.
* Stepped centres.  A level computes the part of the next level's centre
  that comes from the higher coordinates once, then steps it by one
  coefficient per value of its own coordinate.
* Counts-only leaf.  Along x_0 the norm is the integer quadratic
  g_00 x_0^2 + 2 p x_0 + q (p the pairing of x_0's basis vector with the
  rest of x, q the norm at x_0 = 0), so `norm_counts` fills a histogram in
  the level-0 loop by finite differences: no tuples, no callbacks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul

from .lattice import LatticeError, coords_of, pairing_vector


class IndefiniteError(LatticeError):
    pass


class RootSystemData:
    """All norm-2 vectors of a definite lattice, closed under negation."""

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice, coords):
        self.lattice = lattice
        self.coords = tuple(coords)

    @property
    def count(self):
        return len(self.coords)


# The per-lattice memo (IntLattice.memoised) holds only plain numbers and
# tuples from this module, never the lattice itself, so it goes away with it.

def _cholesky(lat):
    """(sign, pivots q_i, coefficients u[i][j]) with sign*Q(x) = sum q_i (x_i + sum_j u_ij x_j)^2.

    Not memoised: its one caller, `_scaled_form`, is."""
    n = lat.rank
    for sign in (1, -1):
        a = [[Fraction(sign * x) for x in row] for row in lat.gram]
        q = [None] * n
        u = [[Fraction(0)] * n for _ in range(n)]
        ok = True
        for i in range(n):
            if a[i][i] <= 0:
                ok = False
                break
            q[i] = a[i][i]
            for j in range(i + 1, n):
                u[i][j] = a[i][j] / q[i]
            for k in range(i + 1, n):
                for l in range(k, n):
                    a[k][l] -= q[i] * u[i][k] * u[i][l]
                    a[l][k] = a[k][l]
        if ok:
            return (sign, q, u)
    raise IndefiniteError("lattice is not definite")


def _scaled_form(lat):
    """Integer-scaled square completion of the definite form.

    Returns (scale L, a_i, unum, uden) such that for integer x,

        L * Q(x) = sum_i a_i * y_i^2,   y_i = uden_i * x_i + sum_{j>i} unum_i[j] x_j.

    All quantities are integers, so budget propagation needs no rationals.
    """
    return lat.memoised("scaled", _build_scaled_form)


def _build_scaled_form(lat):
    _sign, q, u = _cholesky(lat)
    n = lat.rank
    uden = []
    unum = []
    for i in range(n):
        den = 1
        for j in range(i + 1, n):
            den = den * u[i][j].denominator // gcd(den, u[i][j].denominator)
        uden.append(den)
        unum.append([int(u[i][j] * den) for j in range(n)])
    scale = 1
    for i in range(n):
        block = q[i].denominator * uden[i] * uden[i]
        scale = scale * block // gcd(scale, block)
    a = []
    for i in range(n):
        f = scale // (q[i].denominator * uden[i] * uden[i])
        a.append(q[i].numerator * f)
    return (scale, a, unum, uden)


def _walk(lat, target, x, leaf, cone=False):
    """Walk x_{n-1}, ..., x_1 over the vectors with Q(x) <= target and call
    `leaf(budget, centre, sym)` for each admissible choice, with x[1:] set.

    budget = L * target - sum_{i>0} a_i y_i^2 >= 0; centre = sum_{j>0}
    unum_0[j] x_j, so y_0 = uden_0 x_0 + centre; sym is True while
    x_1 = ... = x_{n-1} = 0, and then centre is 0.  A level in the symmetric
    state walks x_i >= 0 only; with `cone` every level does.
    """
    scale, a, unum, uden = _scaled_form(lat)
    n = lat.rank
    tails = [None] + [unum[i - 1][i + 1:] for i in range(1, n)]

    def node(i, budget, centre, sym):
        # |y_i| <= ymax keeps a_i y_i^2 <= budget for every x_i in lo..hi
        ai = a[i]
        di = uden[i]
        ymax = isqrt(budget // ai)
        lo = 0 if sym else -((ymax + centre) // di)
        if cone and lo < 0:
            lo = 0
        hi = (ymax - centre) // di
        # centre of level i-1: the higher coordinates' part once, then stepped
        step = unum[i - 1][i]
        c = step * lo + sum(map(mul, tails[i], x[i + 1:]))
        y = lo * di + centre
        if i > 1:
            for xi in range(lo, hi + 1):
                x[i] = xi
                node(i - 1, budget - ai * y * y, c, sym and not xi)
                y += di
                c += step
        else:
            for xi in range(lo, hi + 1):
                x[1] = xi
                leaf(budget - ai * y * y, c, sym and not xi)
                y += di
                c += step
        x[i] = 0

    if n == 1:
        leaf(scale * target, 0, True)
    else:
        node(n - 1, scale * target, 0, True)


def _bounded_leaf(lat, max_norm, half):
    """The level-0 leaf of a walk over 0 < Q(x) <= max_norm that counts each
    norm in half[norm].

    Along x_0 the norm is g x_0^2 + 2 p x_0 + q, with g = a_0 uden_0^2 / L the
    (sign-normalised) Gram entry g_00, p = a_0 uden_0 centre / L and q the norm
    at x_0 = 0; all three are integers, which is checked.  The leaf steps the
    norm by finite differences.
    """
    scale, a, _unum, uden = _scaled_form(lat)
    total = scale * max_norm
    a0, d0 = a[0], uden[0]
    a0d0 = a0 * d0
    g, rem = divmod(a0d0 * d0, scale)
    if rem:
        raise LatticeError("first pivot of the scaled form is not an integer")
    g2 = 2 * g

    def leaf(budget, c, sym):
        ymax = isqrt(budget // a0)
        lo = 1 if sym else -((ymax + c) // d0)
        hi = (ymax - c) // d0
        if lo > hi:
            return
        q, r = divmod(total - budget + a0 * c * c, scale)
        p, s = divmod(a0d0 * c, scale)
        if r or s:
            raise LatticeError("norm of a lattice vector is not an integer")
        norm = (g * lo + 2 * p) * lo + q
        dn = g * (2 * lo + 1) + 2 * p
        for _ in range(hi - lo + 1):
            half[norm] += 1
            norm += dn
            dn += g2

    return leaf


def _walk_norm(lat, norm, hit, cone=False):
    """Walk the vectors x with Q(x) == norm: with `cone` those with every
    x_i >= 0, else one of each pair +-x, the one whose last nonzero
    coordinate is positive.  Returns their number; when `hit` is not None,
    calls hit(x) for each with the list x filled in.

    Q is the Gram form up to the internal sign flip for negative definite
    lattices.
    """
    _scale, a, _unum, uden = _scaled_form(lat)
    a0, d0 = a[0], uden[0]
    x = [0] * lat.rank
    count = 0

    def leaf(budget, c, sym):
        # y_0 = +-sqrt(budget / a_0) must be an integer, and x_0 = (y_0 - c) / uden_0
        nonlocal count
        ysq, r = divmod(budget, a0)
        if r:
            return
        y = isqrt(ysq)
        if y * y != ysq or (sym and not y):
            return
        for y0 in (y, -y) if y and not sym else (y,):
            x0, r = divmod(y0 - c, d0)
            if r == 0 and (not cone or x0 >= 0):
                count += 1
                if hit is not None:
                    x[0] = x0
                    hit(x)

    _walk(lat, norm, x, leaf, cone)
    return count


def norm_counts(lat, max_norm):
    """Number of vectors of each norm 0..max_norm, as a list indexed by the
    (sign-normalised) norm; entry 0 counts the zero vector."""
    if max_norm < 0:
        raise LatticeError("bound must be nonnegative")
    half = [0] * (max_norm + 1)
    _walk(lat, max_norm, [0] * lat.rank, _bounded_leaf(lat, max_norm, half))
    counts = [2 * h for h in half]
    counts[0] = 1
    return counts


def enumerate_norm_vectors(lat, norm, visitor=None):
    """Visit every x in L with (x, x) = norm exactly once; returns the count.

    `visitor(coords, norm)` is called for x and then for -x.  The count
    equals the theta-series coefficient of the (sign-normalised) lattice.
    An odd `norm` on an even lattice simply yields 0.
    """
    if norm < 1:
        raise LatticeError("norm must be positive")

    def hit(x):
        v = tuple(x)
        visitor(v, norm)
        visitor(tuple(-t for t in v), norm)

    return 2 * _walk_norm(lat, norm, None if visitor is None else hit)


def enumerate_cone(lat, norm):
    """The vectors x with every x_i >= 0 and (x, x) = norm, as a sorted list
    of coordinate tuples."""
    if norm < 1:
        raise LatticeError("norm must be positive")
    out = []
    _walk_norm(lat, norm, lambda x: out.append(tuple(x)), cone=True)
    out.sort()
    return out


def _root_coords(lat):
    found = []
    enumerate_norm_vectors(lat, 2, lambda coords, _n: found.append(coords))
    found.sort()
    return tuple(found)


def enumerate_roots(lat):
    """All vectors of norm 2 (after definite sign normalisation), sorted; the
    coordinates are memoised on the lattice."""
    return RootSystemData(lat, lat.memoised("roots", _root_coords))


def count_orth_roots(lat, x):
    """Number of roots r with (r, x) = 0; always even."""
    pair = pairing_vector(lat, coords_of(lat, x))
    data = enumerate_roots(lat)
    n = lat.rank
    cnt = 0
    for r in data.coords:
        if sum(r[i] * pair[i] for i in range(n)) == 0:
            cnt += 1
    return cnt


def bouquet_decomposition(lat, a):
    """Split the roots meeting a fixed root `a` into A2 subsystems.

    Returns (x, triples) where x is the list of roots c with (a, c) != 0 and
    each triple is the root set {+-a, +-c, +-(a+c)} of one A2; the triples
    pairwise intersect exactly in {+-a}.
    """
    acoords = coords_of(lat, a)
    pair = pairing_vector(lat, acoords)
    data = enumerate_roots(lat)
    n = lat.rank
    x = [r for r in data.coords if sum(r[i] * pair[i] for i in range(n)) != 0]
    neg_a = tuple(-c for c in acoords)
    triples = []
    seen = set()
    for r in x:
        if r == acoords or r == neg_a:
            continue
        prod = sum(r[i] * pair[i] for i in range(n))
        c = r if prod == -1 else tuple(-v for v in r)
        if c in seen:
            continue
        s = tuple(ai + ci for ai, ci in zip(acoords, c))
        group = {acoords, neg_a, c, tuple(-v for v in c), s, tuple(-v for v in s)}
        if len(group) != 6:
            raise LatticeError("degenerate A2 grouping")
        seen.update({c, tuple(-v for v in c), s, tuple(-v for v in s)})
        triples.append(frozenset(group))
    return x, triples
