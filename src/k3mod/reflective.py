"""Reflections of integral lattices and their action on discriminant groups.

A primitive vector r with (r, r) != 0 is reflective when the reflection
sigma_r preserves the lattice; its class records whether the induced action
on A_L is the identity, minus the identity, or neither.  For the signature
(2, 19) lattices L_2d this classification is governed by r^2 and div(r),
and the module checks those statements on demand (sampled, with exact
arithmetic) rather than assuming them.  The sampler rejects a draw as
cheaply as exact arithmetic allows: first on r^2 = 0, then at the first
basis vector b_j for which r^2 does not divide 2 (r, b_j).  Only the
reflective draws go on to the reflection, its isometry check, the action
on A_L and the complement determinant.

Some of those statements hold on every even lattice (the identity action
and the necessary conditions for the minus-identity action); the sufficient
conditions for the minus-identity action, and the two-sided odd-order test,
need a cyclic A_L such as A_{L_2d} = Z/2d.  `classify_reflection` runs each
cross-check only where its hypothesis holds.

The module reads A_L through `lattice.disc_group`: its exponent, its
cyclicity and the generator lifts an isometry acts on.  The invariants of
the discriminant form itself (2-elementary, the parity delta) are the
`DiscGroup`'s own.
"""

from __future__ import annotations

import random
from math import gcd
from operator import index

from . import lattice as lt
from .lattice import LatticeError, coords_of, disc_group, is_primitive, make_l2d, \
    orth_complement, pairing_vector


class NotIntegralError(LatticeError):
    pass


IN_TILDE_O = "in_tilde_O"
MINUS_IN_TILDE_O = "minus_in_tilde_O"
NEITHER = "neither"
NOT_INTEGRAL = "not_integral"


class IsometryMatrix:
    """Integer matrix over the lattice basis with M^t G M = G (checked).

    The check compares every entry of M^t (G M), two `lattice.mat_mul`
    products, with G; `LatticeError` if any differs.  An entry that is not
    an integer is a `TypeError`, never truncated.
    """

    __slots__ = ("lattice", "matrix")

    def __init__(self, lattice, matrix):
        m = tuple(tuple(map(index, row)) for row in matrix)
        g = lattice.gram
        n = lattice.rank
        if len(m) != n or any(len(row) != n for row in m):
            raise LatticeError("matrix size does not match the lattice rank")
        if lt.mat_mul(tuple(zip(*m)), lt.mat_mul(g, m)) != [list(row) for row in g]:
            raise LatticeError("matrix does not preserve the form")
        self.lattice = lattice
        self.matrix = m

    def apply_coords(self, coords):
        """The image M x of the vector with coordinates `coords`; its entries
        may be any numbers (the numerators of dual vectors, say), but there
        must be one per basis vector.  A sparse x costs rank x |support|
        products (`lattice._mat_vec`)."""
        if len(coords) != self.lattice.rank:
            raise LatticeError("coordinate length does not match lattice rank")
        return tuple(lt._mat_vec(self.matrix, coords))

    def __repr__(self):
        return f"IsometryMatrix(rank={self.lattice.rank})"


def _pairings(lat, coords):
    """(pairings (r, b_j) with the basis, r^2, div(r)) of r given by coords."""
    pair = pairing_vector(lat, coords)
    return pair, sum(p * c for p, c in zip(pair, coords)), gcd(*pair)


def reflection(lat, r):
    """The reflection sigma_r as an IsometryMatrix, x -> x - 2 (x, r)/(r, r) r.
    sigma_r depends only on the line of r, so it is built from the primitive
    multiple r/gcd(r).  `LatticeError` if r is isotropic, and
    `NotIntegralError` (a `LatticeError`) if sigma_r does not preserve the
    lattice: some 2 (b_j, r)/(r, r) of that multiple is not an integer."""
    coords = coords_of(lat, r)
    g = gcd(*coords)
    if g > 1:
        coords = tuple(c // g for c in coords)
    pair, norm, _div = _pairings(lat, coords)
    return _reflection(lat, coords, pair, norm)


def _reflection(lat, coords, pair, norm):
    """`reflection` of r given by coords, from r's pairings and r^2.  As
    sigma_r b_j = b_j - c_j r with c_j = 2 (b_j, r)/r^2, row i is e_i - r_i c:
    off the support of r a unit row, so only the rows on it are computed."""
    if norm == 0:
        raise LatticeError("cannot reflect in an isotropic vector")
    if any(2 * p % norm for p in pair):
        raise NotIntegralError("sigma_r does not preserve the lattice")
    cs = [2 * p // norm for p in pair]
    n = lat.rank
    m = []
    for i, c in enumerate(coords):
        row = [-c * cj for cj in cs] if c else [0] * n
        row[i] += 1
        m.append(row)
    return IsometryMatrix(lat, m)


def _disc_signs(lat, g):
    """(g acts as the identity, g acts as minus the identity) on A_L, from
    one image per generator lift w = num/den: g w -+ w lies in L iff every
    entry of M num -+ num is divisible by den."""
    plus = minus = True
    for w in disc_group(lat).generator_lifts:
        den = w.den
        for img, c in zip(g.apply_coords(w.num), w.num):
            plus = plus and (img - c) % den == 0
            minus = minus and (img + c) % den == 0
            if not (plus or minus):
                return False, False
    return plus, minus


def classify_reflection(lat, r):
    """Tag of sigma_r on the discriminant group, with theory cross-checks.

    The cross-checks raise AssertionError on violation.  With D the exponent
    of A_L, these hold on every even lattice:

    - sigma_r acts as the identity iff r^2 = +-2;
    - if sigma_r acts as minus the identity, then r^2 = +-2D with
      div(r) = D odd, or r^2 = +-D with div(r) in {D, D/2}.

    These need A_L cyclic and run only then:

    - r^2 = +-D with div(r) = D (or div(r) = D/2 odd), and r^2 = +-2D with
      div(r) = D odd, each force the minus-identity action;
    - for |A_L| odd, sigma_r acts as minus the identity iff r^2 = +-2D and
      div(r) = D.

    The reason: -sigma_r is the identity on A_L iff 2x = (2(x, r)/r^2) r
    mod L for every x in L^vee, so the sufficient direction needs r/div(r),
    with the 2-torsion when div(r) = D/2, to generate A_L.  That holds when
    A_L is cyclic of exponent D; on A(2)+A(2), with A_L = (Z/3)^2, the
    vector r = (0, 0, 1, -1) has r^2 = 6 and div(r) = 3 but acts as -id on
    one Z/3 and as id on the other, so its class is `neither`.
    """
    coords = coords_of(lat, r)
    return _classify(lat, coords, *_pairings(lat, coords))


def _classify(lat, coords, pair, norm, div):
    """`classify_reflection` of r given by coords, from `_pairings`."""
    if not is_primitive(lat, coords):
        raise LatticeError("reflection classification needs a primitive vector")
    if not lat.is_even():
        raise LatticeError("classification is stated for even lattices")
    try:
        sigma = _reflection(lat, coords, pair, norm)
    except NotIntegralError:
        return NOT_INTEGRAL
    disc = disc_group(lat)
    plus, minus = _disc_signs(lat, sigma)
    dd = disc.exponent
    if plus != (abs(norm) == 2):
        raise AssertionError(f"identity action and r^2 = {norm} disagree")
    if minus:
        cond_i = (abs(norm) == 2 * dd and div == dd and dd % 2 == 1) or \
                 (abs(norm) == dd and div in (dd, dd // 2 if dd % 2 == 0 else -1))
        if not (cond_i or dd == 1):
            raise AssertionError(
                f"minus-identity action with r^2 = {norm}, div = {div}, D = {dd}")
    if disc.is_cyclic():
        sufficient = (abs(norm) == dd and (div == dd or (div * 2 == dd and div % 2 == 1))) or \
                     (abs(norm) == 2 * dd and div == dd and dd % 2 == 1)
        if sufficient and not minus:
            raise AssertionError("sufficient minus-identity condition failed")
        if disc.order % 2 == 1 and minus != (abs(norm) == 2 * dd and div == dd):
            raise AssertionError("odd-determinant two-sided test failed")
    if plus:
        return IN_TILDE_O
    if minus:
        return MINUS_IN_TILDE_O
    return NEITHER


def orth_det_check(lat, r):
    """Determinant of the orthogonal complement of the vector r in the
    lattice L = `lat` versus the index formula |det L| * |r^2| / div(r)^2
    (which is 4d^2/div^2 for the r^2 = -2d reflective vectors of L_2d).
    Returns (|det|, predicted)."""
    coords = coords_of(lat, r)
    if not is_primitive(lat, coords):
        raise LatticeError("determinant check needs a primitive vector")
    _pair, norm, div = _pairings(lat, coords)
    if norm == 0:
        raise LatticeError("isotropic vector")
    predicted, rem = divmod(abs(lat.det) * abs(norm), div * div)
    if rem:
        raise LatticeError("index formula gives a non-integral determinant")
    comp, _basis = orth_complement(lat, [coords])
    return abs(comp.det), predicted


# ---------------------------------------------------------------------------
# sampled verification on L_2d
# ---------------------------------------------------------------------------

def _interesting_vectors(d, lat):
    """Deterministic seed vectors hitting each reflective class."""
    n = lat.rank
    vecs = []

    def unit(i, c=1):
        v = [0] * n
        v[i] = c
        return tuple(v)

    h = unit(n - 1)                     # the <-2d> generator: r^2 = -2d, div = 2d
    vecs.append(h)
    u_plus_h = tuple(x + y for x, y in zip(unit(0, d), h))
    vecs.append(u_plus_h)               # d*u + h: r^2 = -2d, div = d
    vecs.append(tuple(x + y for x, y in zip(unit(0), unit(1))))    # (u+v): r^2 = 2
    vecs.append(tuple(x - y for x, y in zip(unit(0), unit(1))))    # (u-v): r^2 = -2
    vecs.append(unit(4))                # a simple root of the E8(-1) part: r^2 = -2
    vecs.append(tuple(x + y for x, y in zip(unit(0, 2), unit(1))))  # div 1, r^2 = 4
    return vecs


def reflk3_sample_check(d, samples=10**4, seed=0):
    """Sample primitive vectors of L_2d (after seeded vectors that hit each
    class, coordinates drawn from [-20, 20]) and test the biconditional:

        sigma_r acts as +-id on A_L  <=>  r^2 = +-2, or r^2 = +-2d with
        div(r) in {d, 2d}

    plus the complement-determinant formula on every reflective sample.
    Returns a report dict; `counterexamples` is expected empty.  A negative
    `samples` raises ValueError.

    A draw is rejected in this order: as `skipped_isotropic` if r^2 = 0, then
    as `skipped_nonintegral` at the first j (in basis order) where r^2 does
    not divide 2 (r, b_j).  Both come from the nonzero Gram entries of L_2d
    (49 of its 441), tabled once per call, so a rejected draw usually costs
    r^2 and one pairing.  A reflective draw goes through `_pairings`,
    `reflection` (with its isometry check), `_disc_signs` and
    `orth_det_check`.

    In practice no draw from [-20, 20]^21 is reflective (the reflection in a
    primitive r is integral only if r^2 divides 2 div(r), and a random r has
    |r^2| in the thousands), so the seeded vectors carry the test, and the
    seed leaves the report unchanged: at 10^4 samples, d in {1, 2, 5, 6, 12}
    and seeds 0 and 3 all read `reflective: 5, skipped_nonintegral: 9995`.
    """
    d, samples = index(d), index(samples)
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    lat = make_l2d(d)
    rng = random.Random(seed)
    n = lat.rank
    report = {"d": d, "samples": 0, "reflective": 0, "skipped_nonintegral": 0,
              "skipped_isotropic": 0, "counterexamples": [], "det_checks": 0,
              "det_mismatches": []}
    queue = _interesting_vectors(d, lat)
    # the nonzero Gram entries: the upper triangle with doubled off-diagonal
    # entries, for r^2, and each row, for the pairings (r, b_j)
    gram = lat.gram
    upper = [(i, j, x if i == j else 2 * x)
             for i, row in enumerate(gram) for j, x in enumerate(row[i:], i) if x]
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in gram]
    produced = 0
    while produced < samples:
        if queue:
            coords = queue.pop(0)
        else:
            coords = tuple(rng.randint(-20, 20) for _ in range(n))
            if not any(coords):
                continue
            g = gcd(*coords)
            if g > 1:
                coords = tuple(c // g for c in coords)
        produced += 1
        report["samples"] += 1
        norm = sum([x * coords[i] * coords[j] for i, j, x in upper])
        if norm == 0:
            report["skipped_isotropic"] += 1
            continue
        if any(2 * sum([x * coords[j] for j, x in row]) % norm for row in rows):
            report["skipped_nonintegral"] += 1
            continue
        div = _pairings(lat, coords)[2]
        sigma = reflection(lat, coords)
        report["reflective"] += 1
        plus, minus = _disc_signs(lat, sigma)
        lhs = plus or minus
        rhs = abs(norm) == 2 or (abs(norm) == 2 * d and div in (d, 2 * d))
        if lhs != rhs:
            report["counterexamples"].append(
                {"r": list(coords), "rSquared": norm, "div": div,
                 "plus": plus, "minus": minus})
        got, predicted = orth_det_check(lat, coords)
        report["det_checks"] += 1
        if got != predicted:
            report["det_mismatches"].append(
                {"r": list(coords), "det": got, "predicted": predicted})
    return report


def reflection_report(lat, r):
    """JSON-ready classification of one vector: {r, rSquared, div, discAction, class}."""
    coords = coords_of(lat, r)
    pair, norm, div = _pairings(lat, coords)
    tag = _classify(lat, coords, pair, norm, div)
    action = {IN_TILDE_O: "id", MINUS_IN_TILDE_O: "-id",
              NEITHER: "neither", NOT_INTEGRAL: "undefined"}[tag]
    return {"r": list(coords), "rSquared": norm, "div": div,
            "discAction": action, "class": tag}
