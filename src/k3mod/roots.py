"""Root and fixed-norm vector enumeration for definite lattices.

The enumerator is Fincke-Pohst style: the Gram matrix is completed to a sum
of squares with integer coefficients, read off the pivot rows of the
fraction-free elimination `lattice.symmetric_bareiss`, and coordinate
ranges are propagated from the last coordinate to the first with exact
bounds (integer square roots plus an exact adjustment step, so no
acceptance errors from rounding).  The integer square completion
(`_scaled_form`) and the one recursion over it (`_walk`) are private to
this module.  The walk serves the vectors of one norm and their number
(`enumerate_norm_vectors`, the roots), the norm histogram (`norm_counts`)
and the nonnegative cone of one norm (`enumerate_cone`, where every level
walks x_i >= 0: the dominant-orbit scan of `e8.dominant_2x`).

Four things keep the recursion cheap:

* x/-x symmetry.  While every higher coordinate is 0, the centre of the
  current level is 0 and its range is symmetric, so only x_i >= 0 is walked
  there (x_0 >= 1 at level 0; the histogram leaf below takes half of the
  nonzero vectors of the plane of z = 0).  The walk then meets exactly the
  vectors whose last nonzero coordinate is positive, one of each pair +-x:
  counts are doubled, and a visitor is called for x and then for -x.
* Stepped centres.  A level computes the part of the next level's centre
  that comes from the higher coordinates once, then steps it by one
  coefficient per value of its own coordinate.
* Empty levels return at once.  A level whose range is empty (hi < lo)
  returns before it computes the next level's centre.  Its coordinate is 0
  already, since every level resets its coordinate when it finishes.  In
  the cone walk of the orbit scan (`e8.dominant_2x`) two thirds of the
  levels are empty.
* Histograms two levels at a time.  The walk of `norm_counts` counts the
  norms up to a bound `top` and stops at level 2.  Fix
  z = (x_2, ..., x_{n-1}).  With G2 the Gram block of b_0 and b_1,
  Q2(w) = w^T G2 w and l = (b_0 . z, b_1 . z), the vectors z + w, with
  w = (x_0, x_1) in Z^2, have norm

      Q(z + w) = Q(z) + Q2(w) + 2 l . w.

  Write l = c + G2 t, with t in Z^2 and c the representative of the class
  of l in Z^2 / G2 Z^2.  Putting w = w' - t gives

      Q2(w) + 2 l . w = Q2(w') + 2 c . w' - (Q2(t) + 2 c . t),

  so the norm histogram of the plane z + Z^2 is the class histogram
  F_c(k) = #{w : Q2(w) + 2 c . w = k}, moved by s = Q(z) - Q2(t) - 2 c . t.
  A lattice needs at most |det G2| class histograms, each built once, for
  class 0 (the plane z = 0) and for each class the walk tallies.

  The shift lies in 0..top.  Minimising Q(z + w) over real w gives
  Q_proj(z) = Q(z) - l^T G2^-1 l, the norm of the part of z orthogonal to
  b_0 and b_1.  In the square completion of `_scaled_form` it is
  sum_{i>=2} a_i y_i^2 / L.  Minimising the other side gives
  s - c^T G2^-1 c, so

      s = Q_proj(z) + c^T G2^-1 c.

  Every k is an integer >= -c^T G2^-1 c, so k >= -K_c with
  K_c = floor(c^T G2^-1 c).  The histogram of class c is therefore indexed
  by j = k + K_c >= 0 and moved by s - K_c = Q_proj(z) + frac(c^T G2^-1 c),
  which is >= 0.  The walk keeps Q_proj(z) <= top, and the move is an
  integer below Q_proj(z) + 1, so it is <= top too.  The leaf computes the
  move as (det G2 L Q_proj(z) + L (e mod det G2)) / (L det G2), with
  e = c^T adj(G2) c, and checks that the division is exact.

  The level-2 loop steps Q_proj(z) by finite differences and the class by
  a table, and adds 1 to the tally of (class, move) for each z.  This
  replaces the level-1 loop and its level-0 leaf calls.  After the walk,
  each tallied (class, move) adds its class histogram, stored once as
  ascending (j, count) pairs, times its tally, from norm move + j up to
  top; a move outside 0..top would index outside the result, so it raises.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import index, mul

from .lattice import LatticeError, coords_of, pairing_vector, symmetric_bareiss


class IndefiniteError(LatticeError):
    pass


class RootSystemData:
    """All vectors of sign-normalised norm 2 of a definite lattice (norm -2
    on a negative definite one), closed under negation."""

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice, coords):
        self.lattice = lattice
        self.coords = tuple(coords)

    @property
    def count(self):
        return len(self.coords)


# The per-lattice memo (IntLattice.memoised) holds only plain numbers and
# tuples from this module, never the lattice itself, so it goes away with it.

def _scaled_form(lat):
    """Integer-scaled square completion of the definite form.

    Returns (scale L, a_i, unum, uden) such that for integer x,

        L * Q(x) = sum_i a_i * y_i^2,   y_i = uden_i * x_i + sum_{j>i} unum_i[j] x_j.

    All quantities are integers, so budget propagation needs no rationals.
    Q is the Gram form times the sign of g_00, the sign of a definite form.
    """
    return lat.memoised("scaled", _build_scaled_form)


def _build_scaled_form(lat):
    # with pivot rows r_k of sign * G (r_k[k] = D_{k+1}), Q(x) is the sum of
    # q_k (x_k + sum_{j>k} r_k[j] / D_{k+1} x_j)^2 with q_k = D_{k+1} / D_k;
    # h_k = gcd(r_k[k:]) clears the denominators of row k
    sign = 1 if lat.gram[0][0] > 0 else -1
    rows = symmetric_bareiss([[sign * x for x in row] for row in lat.gram])
    minors = [1] + [row[k] for k, row in enumerate(rows)]
    # every minor is positive iff the form is definite, and then no pivot moved a basis vector
    if min(minors) <= 0:
        raise IndefiniteError("lattice is not definite")
    uden, unum, qnum, blocks = [], [], [], []
    for k, row in enumerate(rows):
        h = gcd(*row[k:])
        uden.append(row[k] // h)
        unum.append([0] * (k + 1) + [x // h for x in row[k + 1:]])
        # q_k = D_{k+1} / D_k in lowest terms; L is the lcm of den(q_k) uden_k^2
        g = gcd(minors[k + 1], minors[k])
        qnum.append(minors[k + 1] // g)
        blocks.append(minors[k] // g * uden[k] ** 2)
    scale = lcm(*blocks)
    a = [qn * (scale // b) for qn, b in zip(qnum, blocks)]
    return (scale, a, unum, uden)


def _walk(lat, target, x, leaf, cone=False, stop=0):
    """Walk x_{n-1}, ..., x_{stop+1} over the vectors with Q(x) <= target and
    call `leaf(budget, centre, sym)` for each admissible choice, with
    x[stop+1:] set; the rank must exceed `stop`.

    budget = L * target - sum_{i>stop} a_i y_i^2 >= 0; centre = sum_{j>stop}
    unum_stop[j] x_j, so y_stop = uden_stop x_stop + centre; sym is True while
    x_{stop+1} = ... = x_{n-1} = 0, and then centre is 0.  A level in the
    symmetric state walks x_i >= 0 only; with `cone` every level does.  A
    level whose range is empty returns before any work for the level below.
    """
    scale, a, unum, uden = _scaled_form(lat)
    n = lat.rank
    tails = [None] + [unum[i - 1][i + 1:] for i in range(1, n)]
    last = stop + 1

    def node(i, budget, centre, sym):
        # |y_i| <= ymax keeps a_i y_i^2 <= budget for every x_i in lo..hi
        ai = a[i]
        di = uden[i]
        ymax = isqrt(budget // ai)
        lo = 0 if sym else -((ymax + centre) // di)
        if cone and lo < 0:
            lo = 0
        hi = (ymax - centre) // di
        if hi < lo:
            # x[i] is 0 already: every level resets its coordinate when it finishes
            return
        # centre of level i-1: the higher coordinates' part once, then stepped
        step = unum[i - 1][i]
        c = step * lo + sum(map(mul, tails[i], x[i + 1:]))
        y = lo * di + centre
        if i > last:
            for xi in range(lo, hi + 1):
                x[i] = xi
                node(i - 1, budget - ai * y * y, c, sym and not xi)
                y += di
                c += step
        else:
            for xi in range(lo, hi + 1):
                x[i] = xi
                leaf(budget - ai * y * y, c, sym and not xi)
                y += di
                c += step
        x[i] = 0

    if n == last:
        leaf(scale * target, 0, True)
    else:
        node(n - 1, scale * target, 0, True)


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


def _xgcd(p, q):
    """(g, s, t) with g = gcd(p, q) >= 0 and s p + t q = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while q:
        k, r = divmod(p, q)
        p, q = q, r
        s0, s1 = s1, s0 - k * s1
        t0, t1 = t1, t0 - k * t1
    return (p, s0, t0) if p >= 0 else (-p, -s0, -t0)


class _Lazy(dict):
    """A dict that fills a missing key k with build(k)."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _half_counts(lat, top):
    """Half the number of nonzero vectors of each (sign-normalised) norm
    0..top, as a list (entry 0 is 0).

    The walk stops at level 2, and the leaf does levels 1 and 0 together: it
    walks x_2 and, for each z = (x_2, ..., x_{n-1}), tallies the class of
    (b_0 . z, b_1 . z) modulo G2 Z^2 with the shift of the plane
    z + Z b_0 + Z b_1.  Each tallied (class, shift) then adds its class
    histogram, shifted, once (the identity and the shift are in the module
    docstring).
    """
    scale, a, _unum, uden = _scaled_form(lat)
    gram = lat.gram
    # the sign normalisation of `_scaled_form`: a definite form has the sign of g_00
    sign = 1 if gram[0][0] > 0 else -1
    n = lat.rank
    if n == 1:
        g = sign * gram[0][0]
        half = [0] * (top + 1)
        for x0 in range(1, isqrt(top // g) + 1):
            half[g * x0 * x0] += 1
        return half
    g00, g01, g11 = sign * gram[0][0], sign * gram[0][1], sign * gram[1][1]
    det = g00 * g11 - g01 * g01
    # Hermite basis (ha, 0), (hb, hd) of G2 Z^2; the class of l is the index
    # r1 * ha + r0 of its representative (r0, r1), 0 <= r0 < ha, 0 <= r1 < hd
    hd, s, t = _xgcd(g01, g11)
    ha = det // hd
    hb = (s * g00 + t * g01) % ha

    def reduce(l0, l1):
        u, r1 = divmod(l1, hd)
        return r1 * ha + (l0 - u * hb) % ha

    def adj_norm(cls):
        """(c0, c1, e) for the representative c of `cls`, e = c^T adj(G2) c."""
        c1, c0 = divmod(cls, ha)
        return c0, c1, g11 * c0 * c0 - 2 * g01 * c0 * c1 + g00 * c1 * c1

    def histogram(cls):
        """Ascending (j, count) pairs, count > 0: count is the number of w in
        Z^2 with Q2(w) + 2 c.w + floor(e / det) = j <= top."""
        c0, c1, e = adj_norm(cls)
        k = e // det
        # (det w1 + b1)^2 <= disc1 iff some real w0 gives j <= top
        b1 = g00 * c1 - g01 * c0
        disc1 = b1 * b1 - det * (g00 * (k - top) - c0 * c0)
        if disc1 < 0:
            return []
        r = isqrt(disc1)
        hist = {}
        for w1 in range(-((r + b1) // det), (r - b1) // det + 1):
            # j = g00 w0^2 + 2 b w0 + rest + top <= top iff (g00 w0 + b)^2 <= disc
            b = g01 * w1 + c0
            rest = (g11 * w1 + 2 * c1) * w1 + k - top
            disc = b * b - g00 * rest
            if disc < 0:
                continue
            r = isqrt(disc)
            lo = -((r + b) // g00)
            j = (g00 * lo + 2 * b) * lo + rest + top
            dj = g00 * (2 * lo + 1) + 2 * b
            for _ in range(lo, (r - b) // g00 + 1):
                hist[j] = hist.get(j, 0) + 1
                j += dj
                dj += 2 * g00
        return sorted(hist.items())

    hists = _Lazy(histogram)
    # the plane z = 0 in the symmetric state: one of each pair +-w, w != 0
    half = [0] * (top + 1)
    for j, h in hists[0][1:]:
        half[j] = h // 2
    if n == 2:
        return half
    gam0, gam1 = sign * gram[0][2], sign * gram[1][2]

    def step(cls):
        """(numerator offset of the shift of class `cls`, next class along x_2)."""
        c0, c1, e = adj_norm(cls)
        return scale * (e % det), reduce(c0 + gam0, c1 + gam1)

    classes = _Lazy(step)
    row0 = [sign * v for v in gram[0][3:]]
    row1 = [sign * v for v in gram[1][3:]]
    a2, d2 = a[2], uden[2]
    da2 = det * a2
    ddp = 2 * da2 * d2 * d2
    total_budget = scale * top
    unit = scale * det
    x = [0] * n
    tally = {}

    def leaf(budget, centre, sym):
        # p = det * L * Q_proj(z), stepped along x_2 by finite differences;
        # the shift of class c is (p + L * (e mod det)) / (L * det)
        ymax = isqrt(budget // a2)
        lo = 0 if sym else -((ymax + centre) // d2)
        hi = (ymax - centre) // d2
        y = lo * d2 + centre
        p = det * (total_budget - budget) + da2 * y * y
        dp = da2 * d2 * (2 * y + d2)
        if sym:
            # z = 0 is the plane already in `half`
            cls = classes[0][1]
            p += dp
            dp += ddp
            lo = 1
        else:
            z = x[3:]
            cls = reduce(sum(map(mul, row0, z)) + lo * gam0,
                         sum(map(mul, row1, z)) + lo * gam1)
        for _ in range(lo, hi + 1):
            off, nxt = classes[cls]
            sh, r = divmod(p + off, unit)
            if r:
                raise LatticeError("norm of a lattice vector is not an integer")
            key = (cls, sh)
            tally[key] = tally.get(key, 0) + 1
            cls = nxt
            p += dp
            dp += ddp

    _walk(lat, top, x, leaf, stop=2)
    for (cls, sh), times in tally.items():
        if not 0 <= sh <= top:
            raise LatticeError("a plane's norm shift is outside 0..top")
        for j, h in hists[cls]:
            j += sh
            if j > top:
                break
            half[j] += times * h
    return half


def norm_counts(lat, max_norm):
    """Number of vectors of each norm 0..max_norm, as a list indexed by the
    (sign-normalised) norm; entry 0 counts the zero vector."""
    max_norm = index(max_norm)
    if max_norm < 0:
        raise LatticeError("bound must be nonnegative")
    counts = [2 * h for h in _half_counts(lat, max_norm)]
    counts[0] = 1
    return counts


def enumerate_norm_vectors(lat, norm, visitor=None):
    """Visit every x in L of sign-normalised norm `norm` exactly once;
    returns the count.

    The form is the Gram form times the sign of g_00, so `norm` is positive,
    and on a negative definite lattice the vectors have (x, x) = -norm
    (`<-2>` at norm 2 gives +-1).  `visitor(coords, norm)` is called for x
    and then for -x.  The count equals the theta-series coefficient of the
    sign-normalised lattice.  An odd `norm` on an even lattice yields 0.
    """
    norm = index(norm)
    if norm < 1:
        raise LatticeError("norm must be positive")

    def hit(x):
        v = tuple(x)
        visitor(v, norm)
        visitor(tuple(-t for t in v), norm)

    return 2 * _walk_norm(lat, norm, None if visitor is None else hit)


def enumerate_cone(lat, norm):
    """The vectors x with every x_i >= 0 and sign-normalised norm `norm` (as
    in `enumerate_norm_vectors`), as a sorted list of coordinate tuples."""
    norm = index(norm)
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

