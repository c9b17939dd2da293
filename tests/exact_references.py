"""Reference kernels the library replaced, each by a different route, and
code that only tests need.

Tests compare the library against them.

* The eliminations behind `lattice.symmetric_bareiss`: `det_bareiss`
  (row-pivoted Bareiss on any square integer matrix), `signature_of`
  (symmetric elimination over Q) and `cholesky` with `scaled_form` (the
  Fraction LDL^T of a definite form and its integerisation by an LCM pass).
* The dense product behind `lattice.mat_mul`: `mat_mul_triple_loop`, the
  schoolbook sum over every (i, k, j), zeros included.
* The dense q-series kernels behind `QSeries.__mul__` and `__pow__`:
  `schoolbook_mul` (every pair of coefficients) and `pow_by_squaring`
  (repeated squaring over it).
* The divisor sums behind the sieve of `qseries._eisenstein_series`:
  `sigma_chi` and `sigma_tilde_chi`, each a sum over the divisors of one m.
* The independent reference for the theta series of D6: `theta_d6_eis`,
  the sieve's weight-3 Eisenstein form for the character `CHI4`, against
  the library's theta_3(2 tau)^6 route (`qseries.theta_dn(6)`).
* The pivot search of `lattice.smith_normal_form` before its scan stopped
  at the first unit entry: `snf_pivot_full_scan` scans the whole block.
* The order search of `rst.cyclo_decompose` before it derived the order
  from the cyclotomic factors: `matrix_order_by_powers` multiplies by g
  until the identity comes up, or raises past a cap.
* Two chart conversions only tests need: `to_2x` (simple-root to doubled
  e-coordinates of E8, by the table `SIMPLE_ROOTS_2X`) and `dual_vector` (a
  `DualVec` from rational coordinates).
* `divisor`, the generator of the pairing ideal (x, L) on its own: the
  reference for the div(r) that `reflective._pairings` computes beside r^2.
* `bouquet_decomposition`, the A2 subsystems through one root of a
  definite lattice, from `roots.enumerate_roots`.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from k3mod.lattice import (
    DualVec, LatticeError, coords_of, identity_matrix, mat_mul, pairing_vector,
)
from k3mod.qseries import QSeries, _eisenstein_series
from k3mod.roots import enumerate_roots


def det_bareiss(mat):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signature_of(gram):
    """Exact signature (n_plus, n_minus) of a nondegenerate symmetric matrix."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for r in a:
                    r[k], r[j] = r[j], r[k]
            else:
                j = next(j for j in range(k + 1, n) if a[k][j] != 0)
                for col in range(n):
                    a[k][col] += a[j][col]
                for r in a:
                    r[k] += r[j]
        p = a[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / p
                for col in range(n):
                    a[i][col] -= f * a[k][col]
                for r in a:
                    r[i] -= f * r[k]
    return pos, neg


def cholesky(gram):
    """(sign, pivots q_i, coefficients u[i][j]) with
    sign * Q(x) = sum q_i (x_i + sum_{j>i} u_ij x_j)^2, over Fractions;
    None if neither sign makes the form positive definite."""
    n = len(gram)
    for sign in (1, -1):
        a = [[Fraction(sign * x) for x in row] for row in gram]
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
                for m in range(k, n):
                    a[k][m] -= q[i] * u[i][k] * u[i][m]
                    a[m][k] = a[k][m]
        if ok:
            return (sign, q, u)
    return None


def scaled_form(gram):
    """(scale, a, unum, uden) of `roots._scaled_form`, integerised from
    `cholesky` by clearing each row's denominators and an LCM of the pivots."""
    _sign, q, u = cholesky(gram)
    n = len(gram)
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
    a = [q[i].numerator * (scale // (q[i].denominator * uden[i] * uden[i])) for i in range(n)]
    return (scale, a, unum, uden)


def mat_mul_triple_loop(a, b):
    """a b for matrices given as lists of rows, one product per (i, k, j)."""
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def schoolbook_mul(a, b):
    """a * b for two QSeries, truncated at the lower precision, over every
    pair of coefficients."""
    prec = min(a.prec, b.prec)
    size = prec + 1
    out = [0] * size
    bc = b.coeffs
    for i, ai in enumerate(a.coeffs[:size]):
        if ai:
            for j in range(size - i):
                bj = bc[j]
                if bj:
                    out[i + j] += ai * bj
    return QSeries(out, prec)


def pow_by_squaring(f, n):
    """f^n for a QSeries f and n >= 0 by repeated squaring with `schoolbook_mul`."""
    result = QSeries([1], f.prec)
    base = f
    while n:
        if n & 1:
            result = schoolbook_mul(result, base)
        base = schoolbook_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def snf_pivot_full_scan(a, t, cols):
    """(i, j) of the nonzero entry of least absolute value in the block
    a[t:, t:cols], ties broken row-major, found by scanning every entry; None
    when the block is zero.  The rows carry more entries (the transform u)
    after the first cols."""
    piv = None
    best = None
    for i in range(t, len(a)):
        for j in range(t, cols):
            x = abs(a[i][j])
            if x and (best is None or x < best):
                best, piv = x, (i, j)
    return piv


def matrix_order_by_powers(g, cap):
    """Multiplicative order of an integer matrix, or ValueError past the cap."""
    ident = identity_matrix(len(g))
    power = [list(row) for row in g]
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = mat_mul(power, g)
    raise ValueError(f"matrix order exceeds the cap {cap}")


# rows: doubled e-coordinates of the simple roots a1..a8 of E8 (the charts
# of `k3mod.e8`)
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


def to_2x(alpha_coords):
    """Doubled e-coordinates of a vector given in simple-root coordinates."""
    out = [0] * 8
    for c, root in zip(alpha_coords, SIMPLE_ROOTS_2X):
        if c:
            for i in range(8):
                out[i] += c * root[i]
    return tuple(out)


def dual_vector(lat, coords):
    """The dual vector of `lat` with rational coordinates `coords` in its basis."""
    coords = [Fraction(c) for c in coords]
    den = lcm(*(c.denominator for c in coords))
    return DualVec(lat, [c.numerator * (den // c.denominator) for c in coords], den)


def divisor(lat, x):
    """Positive generator of the pairing ideal (x, L); x/div(x) is primitive in the dual."""
    coords = coords_of(lat, x)
    if not any(coords):
        raise LatticeError("divisor of the zero vector")
    return gcd(*pairing_vector(lat, coords))


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


def _divisors(m):
    small, large = [], []
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
    return small + large[::-1]


def sigma_chi(m, k, chi):
    """sigma_k(m, chi) = sum over divisors d of chi(d) * d^k."""
    if m < 1:
        raise ValueError("m must be positive")
    return sum(chi(d) * d**k for d in _divisors(m))


def sigma_tilde_chi(m, k, chi):
    """twisted form: sum over divisors d of chi(m/d) * d^k."""
    if m < 1:
        raise ValueError("m must be positive")
    return sum(chi(m // d) * d**k for d in _divisors(m))


def CHI4(n):
    """The nontrivial Dirichlet character modulo 4."""
    return (0, 1, 0, -1)[n % 4]


def theta_d6_eis(prec=240):
    """Theta series of D6, 64 E3_cusp0(chi4) + E3_cusp_inf(chi4): N_D6(2m) =
    64 sigma~_2(m, chi4) - 4 sigma_2(m, chi4) for m >= 1."""
    return _eisenstein_series(CHI4, 64, 4, prec)
