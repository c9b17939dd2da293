"""The E8 lattice in two exact coordinate charts, and its dominant chamber.

The canonical basis everywhere in this package is the Coxeter basis of
simple roots a1..a8 (chain 1-3-4-5-6-7-8 with node 2 hanging off node 4).
The second chart writes vectors in the euclidean basis e1..e8 with all
coordinates doubled, so that half-integral vectors become integral:

    a1 = (e1 + e8)/2 - (e2 + ... + e7)/2      a2 = e1 + e2
    ak = e_{k-1} - e_{k-2}   (3 <= k <= 8)

Table-style search vectors live naturally in the e-chart; root counting and
lattice arithmetic live in the simple-root chart.  Conversion both ways is
exact.

`dominant_2x(norm)` lists the dominant chamber at one norm, one vector per
Weyl orbit: the orbit scan of `search.exhaustive_search`.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import index, mul

from .lattice import IntLattice, LatticeError, root_lattice_e
from .roots import enumerate_cone

# rows: doubled e-coordinates of the fundamental weights w1..w8 (dual basis)
WEIGHTS_2X = (
    (0, 0, 0, 0, 0, 0, 0, 4),
    (1, 1, 1, 1, 1, 1, 1, 5),
    (-1, 1, 1, 1, 1, 1, 1, 7),
    (0, 0, 2, 2, 2, 2, 2, 10),
    (0, 0, 0, 2, 2, 2, 2, 8),
    (0, 0, 0, 0, 2, 2, 2, 6),
    (0, 0, 0, 0, 0, 2, 2, 4),
    (0, 0, 0, 0, 0, 0, 2, 2),
)


def _vec2x(vec2x):
    """A vector's 8 doubled e-coordinates as a tuple of ints: a coordinate
    that is not an integer is a `TypeError`, a length other than 8 a
    `LatticeError`."""
    vec2x = tuple(map(index, vec2x))
    if len(vec2x) != 8:
        raise LatticeError("a vector of E8 has 8 doubled e-coordinates")
    return vec2x


def dot2x(a, b):
    """Inner product of two vectors given in doubled e-coordinates (`_vec2x`)."""
    s = sum(x * y for x, y in zip(_vec2x(a), _vec2x(b)))
    if s % 4:
        raise LatticeError("non-integral inner product: vectors not both in E8")
    return s // 4


def in_e8_2x(vec2x):
    """Membership test for a doubled e-coordinate vector (`_vec2x`)."""
    vec2x = _vec2x(vec2x)
    pars = {c & 1 for c in vec2x}
    return len(pars) == 1 and sum(vec2x) % 4 == 0


@cache
def lattice():
    """The shared E8 lattice instance (Gram = Cartan matrix of the Coxeter basis)."""
    return root_lattice_e(8)


def alpha_from_2x(vec2x):
    """Simple-root coordinates of a doubled e-coordinate vector (must lie in E8).

    The fundamental weights are the dual basis of the simple roots, so the
    coordinate on a_j is the pairing with w_j."""
    if not in_e8_2x(vec2x):
        raise LatticeError(f"{vec2x} is not in E8")
    return tuple(dot2x(vec2x, w) for w in WEIGHTS_2X)


@cache
def roots_2x():
    """All 240 roots in doubled e-coordinates, lexicographically sorted.

    112 integral roots +-e_i +- e_j and 128 half-integral roots
    (+-e1 +- ... +- e8)/2 with an even number of minus signs.
    """
    out = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * 8
                    v[i], v[j] = si, sj
                    out.append(tuple(v))
    for mask in range(256):
        if bin(mask).count("1") % 2 == 0:
            out.append(tuple(-1 if mask >> i & 1 else 1 for i in range(8)))
    out.sort()
    return tuple(out)


# sign patterns with the parity of their minus signs: 3 signs for the
# first half (its leading sign is fixed to +), 4 signs for the second half
_LEFT_SIGNS = tuple((s, sum(x < 0 for x in s) & 1) for s in product((1, -1), repeat=3))
_RIGHT_SIGNS = tuple((s, sum(x < 0 for x in s) & 1) for s in product((1, -1), repeat=4))


def count_orth_roots_2x(vec2x):
    """Number of roots orthogonal to a vector, both in doubled e-coordinates.

    Closed form over the two root shapes.  The integral roots +-e_i +- e_j
    orthogonal to v come from index pairs with |v_i| = |v_j|: two roots per
    pair, four when both entries are 0.  The half-integral roots are the
    sign patterns s with an even number of minus signs and s.v = 0.  They
    are counted by meeting the two 4-coordinate halves on the key
    (partial sum, parity of minus signs).  Since s and -s are both
    solutions or both not, only the patterns with s_1 = + are counted, twice.

    A coordinate that is not an integer is a `TypeError`, and a length other
    than 8 a `LatticeError`; the check is `_vec2x`'s, inlined because this
    is the per-vector oracle of the family streams.
    """
    vec2x = tuple(map(index, vec2x))
    if len(vec2x) != 8:
        raise LatticeError("a vector of E8 has 8 doubled e-coordinates")
    n = 0
    seen = {}
    for x in vec2x:
        x = abs(x)
        seen[x] = seen.get(x, 0) + 1
    for a, c in seen.items():
        n += c * (c - 1) * (2 if a == 0 else 1)
    a0, a1, a2, a3, b0, b1, b2, b3 = vec2x
    left = {}  # 2 * partial sum + parity -> number of patterns
    for (s1, s2, s3), p in _LEFT_SIGNS:
        key = 2 * (a0 + s1 * a1 + s2 * a2 + s3 * a3) + p
        left[key] = left.get(key, 0) + 1
    half = 0
    for (s0, s1, s2, s3), p in _RIGHT_SIGNS:
        half += left.get(p - 2 * (s0 * b0 + s1 * b1 + s2 * b2 + s3 * b3), 0)
    return n + 2 * half


@cache
def weight_gram():
    """Gram matrix of the fundamental weights (the inverse Cartan matrix)."""
    return tuple(tuple(dot2x(a, b) for b in WEIGHTS_2X) for a in WEIGHTS_2X)


# -- the dominant chamber ----------------------------------------------------

# E8 on the fundamental weights w8, ..., w1, the reverse Coxeter order of
# `dominant_2x` (it carries the memoised scaled form); the e-coordinate t of
# x_0 w8 + ... + x_7 w1 is the pairing of x with column t
_WEIGHT_LATTICE = IntLattice(tuple(row[::-1] for row in weight_gram()[::-1]))
_WEIGHT_COLUMNS = tuple(zip(*WEIGHTS_2X[::-1]))


def dominant_2x(norm):
    """Dominant-chamber vectors of the given norm, as sorted doubled
    e-coordinates: one per Weyl orbit.

    Every Weyl orbit contains exactly one vector with all simple-root
    pairings nonnegative, i.e. nonnegative coordinates x_i on the fundamental
    weights; the weight Gram matrix is the inverse Cartan matrix.  So the
    vectors are the nonnegative cone of that form at this norm
    (`roots.enumerate_cone`), mapped to e-coordinates.

    The walk takes the weights in reverse Coxeter order: w1 at its outermost
    level, w8 solved from the square root at the leaf.  The walk makes one
    leaf call per choice of the other seven coordinates, and w8 has norm 2,
    the least of the eight, so its coordinate has the widest range and is
    the one best solved rather than walked.  Of the orders measured
    (Coxeter, reversed, ascending norm, 60 random ones) this was the fastest
    at d <= 61, 62..150 and 200..300; orders that solve w4 (norm 30, the
    narrowest range) at the leaf were over 100 times slower.

    Most levels of the walk (`roots._walk`) have an empty range.  They
    return before computing the next level's centre, so the walk pays for
    a centre product only where a coordinate has a value to take.
    """
    out = [tuple(sum(map(mul, col, x)) for col in _WEIGHT_COLUMNS)
           for x in enumerate_cone(_WEIGHT_LATTICE, norm)]
    out.sort()
    return out
