"""The E8 lattice in two exact coordinate charts.

The canonical basis everywhere in this package is the Coxeter basis of
simple roots a1..a8 (chain 1-3-4-5-6-7-8 with node 2 hanging off node 4).
The second chart writes vectors in the euclidean basis e1..e8 with all
coordinates doubled, so that half-integral vectors become integral:

    a1 = (e1 + e8)/2 - (e2 + ... + e7)/2      a2 = e1 + e2
    ak = e_{k-1} - e_{k-2}   (3 <= k <= 8)

Table-style search vectors live naturally in the e-chart; root counting and
lattice arithmetic live in the simple-root chart.  Conversion both ways is
exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .lattice import LatticeError, root_lattice_e, solve_rational

# rows: doubled e-coordinates of the simple roots a1..a8
SIMPLE_ROOTS_2X = (
    (1, -1, -1, -1, -1, -1, -1, 1),
    (2, 2, 0, 0, 0, 0, 0, 0),
    (-2, 2, 0, 0, 0, 0, 0, 0),
    (0, -2, 2, 0, 0, 0, 0, 0),
    (0, 0, -2, 2, 0, 0, 0, 0),
    (0, 0, 0, -2, 2, 0, 0, 0),
    (0, 0, 0, 0, -2, 2, 0, 0),
    (0, 0, 0, 0, 0, -2, 2, 0),
)

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


def dot2x(a, b):
    """Inner product of two vectors given in doubled e-coordinates."""
    s = sum(x * y for x, y in zip(a, b))
    if s % 4:
        raise LatticeError("non-integral inner product: vectors not both in E8")
    return s // 4


def in_e8_2x(vec2x):
    """Membership test for a doubled e-coordinate vector."""
    pars = {c & 1 for c in vec2x}
    return len(pars) == 1 and sum(vec2x) % 4 == 0


@lru_cache(maxsize=1)
def lattice():
    """The shared E8 lattice instance (Gram = Cartan matrix of the Coxeter basis)."""
    return root_lattice_e(8)


@lru_cache(maxsize=1)
def _alpha_matrix_inverse():
    # columns of m are the simple roots; v = m^{-1} * (e-coords)
    m = [[Fraction(SIMPLE_ROOTS_2X[j][i], 2) for j in range(8)] for i in range(8)]
    n = 8
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    inv = solve_rational(m, cols)
    return tuple(tuple(inv[i][j] for j in range(n)) for i in range(n))


def alpha_from_2x(vec2x):
    """Simple-root coordinates of a doubled e-coordinate vector (must lie in E8)."""
    if not in_e8_2x(vec2x):
        raise LatticeError(f"{vec2x} is not in E8")
    inv = _alpha_matrix_inverse()
    out = []
    for row in inv:
        c = sum(r * Fraction(v, 2) for r, v in zip(row, vec2x))
        if c.denominator != 1:
            raise LatticeError(f"{vec2x} has a non-integral simple-root coordinate {c}")
        out.append(int(c))
    return tuple(out)


def to_2x(alpha_coords):
    """Doubled e-coordinates of a vector given in simple-root coordinates."""
    out = [0] * 8
    for c, root in zip(alpha_coords, SIMPLE_ROOTS_2X):
        if c:
            for i in range(8):
                out[i] += c * root[i]
    return tuple(out)


@lru_cache(maxsize=1)
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
    """
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


@lru_cache(maxsize=1)
def weight_gram():
    """Gram matrix of the fundamental weights (the inverse Cartan matrix)."""
    return tuple(tuple(dot2x(a, b) for b in WEIGHTS_2X) for a in WEIGHTS_2X)
