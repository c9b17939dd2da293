"""The exact O(n^3) kernels of the discriminant and reflection layers pinned
to the dense references they replaced: the full-scan pivot search for
`smith_normal_form`, the Fraction inverse of the SNF transform for
`disc_group`, the Fraction pairings and discriminant action
for the integer `DualVec`, the quadruple-sum Gram for `orth_complement`,
the O(n^4) form check for `IsometryMatrix`, the Fraction inverse of the
simple-root matrix for `e8.alpha_from_2x` and the Fraction sum for
`bigphi_verify`."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from k3mod import e8
from k3mod import lattice as lt
from k3mod import reflective as rf
from k3mod import rst

from exact_references import (
    SIMPLE_ROOTS_2X, det_bareiss, dual_vector, snf_pivot_full_scan, to_2x,
)


def solve_rational(a, rhs_cols):
    """Solve a*X = rhs for X over Q; `a` square nonsingular, rhs a list of columns."""
    n = len(a)
    m = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(c[i]) for c in rhs_cols]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise lt.LatticeError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [[m[i][n + j] for j in range(len(rhs_cols))] for i in range(n)]


def _reference_invert_unimodular(a):
    """Exact integer inverse of a unimodular matrix through rational solves."""
    n = len(a)
    inv = solve_rational(a, [[int(i == j) for i in range(n)] for j in range(n)])
    if any(x.denominator != 1 for row in inv for x in row):
        raise lt.LatticeError("matrix is not unimodular")
    return [[int(x) for x in row] for row in inv]


def _reference_disc(lat):
    """(invariant factors, lifts, q-values) with lift i = G^-1 u^-1 e_i."""
    d, u, _v = lt.smith_normal_form(lat.gram)
    n = lat.rank
    u_inv = _reference_invert_unimodular(u)
    factors, lifts = [], []
    for i in range(n):
        if d[i][i] > 1:
            factors.append(d[i][i])
            col = [u_inv[r][i] for r in range(n)]
            lifts.append(tuple(row[0] for row in solve_rational(lat.gram, [col])))
    q_values = None
    if lat.is_even():
        q_values = tuple(_reference_pairing(lat, w, w) % 2 for w in lifts)
    return tuple(factors), tuple(lifts), q_values


def _reference_pairing(lat, a, b):
    """The Fraction pairing sum_ij a_i G_ij b_j of rational coordinate vectors."""
    g = lat.gram
    n = lat.rank
    return sum(Fraction(a[i]) * g[i][j] * b[j] for i in range(n) for j in range(n))


def _reference_disc_signs(lat, m, lifts):
    """(M acts as id, M acts as -id) on A_L: M w -+ w has integral rational
    coordinates for every lift w, given by its Fraction coordinates."""
    n = lat.rank
    plus = minus = True
    for w in lifts:
        for i in range(n):
            img = sum(Fraction(m[i][j]) * w[j] for j in range(n))
            plus = plus and (img - w[i]).denominator == 1
            minus = minus and (img + w[i]).denominator == 1
    return plus, minus


def _reference_complement_gram(lat, basis):
    g = lat.gram
    n = lat.rank
    return tuple(tuple(sum(a[i] * g[i][j] * b[j] for i in range(n) for j in range(n))
                       for b in basis) for a in basis)


def _reference_is_isometry(lat, m):
    """The O(n^4) check: (M^t G M)_ij = G_ij for i <= j, entry by entry."""
    g = lat.gram
    n = lat.rank
    return all(sum(m[a][i] * g[a][b] * m[b][j] for a in range(n) for b in range(n)) == g[i][j]
               for i in range(n) for j in range(i, n))


def _preserves_form(lat, m):
    """M^t G M == G as whole matrix products."""
    mt = [list(col) for col in zip(*m)]
    return lt.mat_mul(lt.mat_mul(mt, lat.gram), m) == [list(row) for row in lat.gram]


def _reference_bigphi(r_max):
    checked, min_sum, min_at, violations = 0, None, None, []
    for r in range(7, r_max + 1):
        units = [k for k in range(1, r) if gcd(k, r) == 1]
        if len(units) < 6:
            continue
        for k1 in units:
            rest = [k for k in units if k != k1 and k != r - k1]
            s = sum(Fraction((k1 + ki) % r, r) for ki in rest)
            checked += 1
            if min_sum is None or s < min_sum:
                min_sum, min_at = s, (r, k1)
            if s < 1:
                violations.append({"r": r, "k1": k1, "sum": str(s)})
    return {"checked": checked, "min_sum": min_sum, "min_at": min_at,
            "violations": violations}


def _random_symmetric(rng, count, max_rank=4, bound=4):
    """Nonsingular symmetric matrices of the shape the property tests draw."""
    out = []
    while len(out) < count:
        n = rng.randint(1, max_rank)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-bound, bound)
        if det_bareiss(g):
            out.append(lt.IntLattice(g))
    return out


def _lattices():
    lats = [lt.make_l2d(d) for d in range(1, 61)]
    lats += [lt.parse_lattice_expr(e) for e in
             ("E8", "U(2)", "A(2)+A(2)", "<2>+<-2>", "D(4)+<6>", "U+A(2)", "2U(3)+A(1)")]
    return lats + _random_symmetric(random.Random(17), 150)


def _snf_matrices():
    """L_2d Grams for d <= 60 and seeded integer matrices: shapes 1 x n and
    n x 1 among them, negative entries, zero rows and columns, and matrices
    with no entry of absolute value 1."""
    rng = random.Random(37)
    mats = [[list(row) for row in lt.make_l2d(d).gram] for d in range(1, 61)]
    shapes = [(1, n) for n in range(1, 8)] + [(n, 1) for n in range(1, 8)]
    shapes += [(rng.randint(2, 7), rng.randint(2, 7)) for _ in range(150)]
    for k, (rows, cols) in enumerate(shapes):
        values = (0, 2, -2, 3, -3, 4, -6, 9, 10) if k % 3 == 0 else range(-9, 10)
        m = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
        if k % 4 == 1:
            m[rng.randrange(rows)] = [0] * cols
        if k % 4 == 2:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        mats.append(m)
    return mats


def test_smith_normal_form_matches_the_full_scan_pivot(monkeypatch):
    mats = _snf_matrices()
    assert any(not any(row) for m in mats for row in m)
    assert any(not any(col) for m in mats for col in zip(*m))
    assert any(any(map(any, m)) and all(abs(x) != 1 for row in m for x in row) for m in mats)
    got = [lt.smith_normal_form(m) for m in mats]
    for m, (d, u, v) in zip(mats, got):
        assert lt.mat_mul(lt.mat_mul(u, m), v) == d
    # every pivot of every step, the early stop's against the full scan's
    monkeypatch.setattr(lt, "_snf_pivot", snf_pivot_full_scan)
    assert [lt.smith_normal_form(m) for m in mats] == got


def test_smith_normal_form_keeps_its_transforms():
    # (d, u, v) on every matrix above, pinned when u and v were still
    # updated beside the matrix rather than carried in its augmented rows
    text = json.dumps([lt.smith_normal_form(m) for m in _snf_matrices()])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e1b544ec9048fd3c8c9ea88ac57467b7cf974ac71beec99f57657ab372a3b3a3"


def test_disc_group_matches_the_inverse_path():
    for lat in _lattices():
        disc = lt.disc_group(lat)
        factors, lifts, q_values = _reference_disc(lat)
        assert disc.invariant_factors == factors, lat
        assert tuple(w.coords for w in disc.generator_lifts) == lifts, lat
        assert disc.q_values == q_values, lat


def test_dual_pairing_matches_the_fraction_sum():
    # the generator lifts and random dual vectors: integer combinations of the
    # lifts plus lattice vectors, so their denominators differ
    rng = random.Random(31)
    for lat in _lattices():
        lifts = lt.disc_group(lat).generator_lifts
        vecs = list(lifts)
        for _ in range(3):
            cs = [rng.randint(-3, 3) for _ in lifts]
            vecs.append(dual_vector(lat, [sum(c * w.coords[r] for c, w in zip(cs, lifts))
                                         + rng.randint(-2, 2) for r in range(lat.rank)]))
        for a in vecs:
            assert a.norm() == _reference_pairing(lat, a.coords, a.coords), lat
            for b in vecs:
                assert a.pair(b) == _reference_pairing(lat, a.coords, b.coords), lat


def test_dual_vec_round_trips_its_coordinates():
    for lat in _lattices()[::5]:
        for w in lt.disc_group(lat).generator_lifts:
            same = dual_vector(lat, w.coords)
            assert (same.num, same.den) == (w.num, w.den), lat


def test_disc_signs_match_the_fraction_images():
    # reflections drawn as in the isometry test below, on four L_2d and on
    # A(2)+A(2), whose A_L = (Z/3)^2 is not cyclic
    rng = random.Random(37)
    seen = set()
    for lat in [lt.make_l2d(d) for d in (1, 2, 5, 12)] + [lt.parse_lattice_expr("A(2)+A(2)")]:
        n = lat.rank
        lifts = lt.disc_group(lat).generator_lifts
        coords_of = [w.coords for w in lifts]
        for _ in range(150):
            coords = [rng.randint(-1, 1) if i < 6 or i == n - 1 else 0 for i in range(n)]
            if not any(coords) or not rf._pairings(lat, coords)[1] \
                    or rf.reflection_coefficients(lat, coords) is None:
                continue
            sigma = rf.reflection(lat, coords)
            signs = rf._disc_signs(lat, sigma)
            assert signs == _reference_disc_signs(lat, sigma.matrix, coords_of), (lat, coords)
            images = [lt.DualVec(lat, sigma.apply_coords(w.num), w.den).coords for w in lifts]
            assert images == [tuple(sum(Fraction(sigma.matrix[i][j]) * w[j] for j in range(n))
                                    for i in range(n)) for w in coords_of]
            seen.add(signs)
    assert {(True, False), (False, True), (False, False)} <= seen


def test_disc_group_rejects_transforms_that_do_not_check(monkeypatch):
    lat = lt.parse_lattice_expr("<2>+<3>")
    d, u, v = lt.smith_normal_form(lat.gram)
    bad = {
        "u G v != D": (d, u, [[-x for x in v[0]], v[1]]),
        "det u = 2 with u G v = D": ([[2 * d[0][0], 0], [0, d[1][1]]],
                                     [[2 * x for x in u[0]], u[1]], v),
    }
    for case in bad.values():
        monkeypatch.setattr(lt, "smith_normal_form", lambda _g, case=case: case)
        with pytest.raises(lt.LatticeError):
            lt.disc_group(lat)


def test_disc_group_rejects_a_transform_of_det_two_with_dual_lifts(monkeypatch):
    # doubling column 0 of v and d_1 keeps u G v = D, and the lift v[:, 0] / d_1
    # is still a dual vector: only |d_1 ... d_n| != |det G| shows det v = 2
    lat = lt.parse_lattice_expr("<2>+<3>")
    d, u, v = lt.smith_normal_form(lat.gram)
    d = [[2 * d[0][0], 0], [0, d[1][1]]]
    v = [[2 * row[0], row[1]] for row in v]
    assert lt.mat_mul(lt.mat_mul(u, lat.gram), v) == d
    monkeypatch.setattr(lt, "smith_normal_form", lambda _g: (d, u, v))
    with pytest.raises(lt.LatticeError, match="do not check"):
        lt.disc_group(lat)


def test_orth_complement_matches_the_quadruple_sum():
    rng = random.Random(23)
    for lat in _lattices()[::3]:
        n = lat.rank
        for k in (1, 2, 3):
            if k >= n:
                break
            vectors = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            try:
                comp, basis = lt.orth_complement(lat, vectors)
            except lt.LatticeError:
                continue  # dependent draws
            assert comp.gram == _reference_complement_gram(lat, basis)


def test_orth_complement_gram_is_the_full_product_on_l2d():
    # B^t G B as two whole matrix products, B the complement basis as columns
    rng = random.Random(43)
    for d in range(1, 61):
        lat = lt.make_l2d(d)
        # h + k d (a u1 + c u2), as the benchmark's complement ops draw it
        r = [0] * 21
        a, c = rng.choice(((1, 0), (2, -1), (-3, 5), (1, 1)))
        k = rng.choice((1, 2))
        r[0], r[2], r[20] = k * d * a, k * d * c, 1
        for vec in [r] + rf._interesting_vectors(d, lat):
            comp, basis = lt.orth_complement(lat, [vec])
            full = lt.mat_mul(lt.mat_mul(basis, lat.gram), [list(col) for col in zip(*basis)])
            assert [list(row) for row in comp.gram] == full, (d, vec)


def test_isometry_accepts_every_sampled_reflection():
    # small draws on the first six coordinates and the last one, where
    # reflective vectors are common
    rng = random.Random(29)
    found = 0
    for lat in [lt.make_l2d(d) for d in (1, 2, 5, 12)] + [lt.parse_lattice_expr(e) for e in
                                                          ("U+A(2)", "A(2)+A(2)", "D(4)+<6>")]:
        n = lat.rank
        for _ in range(150):
            coords = [rng.randint(-1, 1) if i < 6 or i == n - 1 else 0 for i in range(n)]
            if not any(coords) or not rf._pairings(lat, coords)[1] \
                    or rf.reflection_coefficients(lat, coords) is None:
                continue
            sigma = rf.reflection(lat, coords)
            assert _preserves_form(lat, sigma.matrix)
            if n < 8:
                assert _reference_is_isometry(lat, sigma.matrix)
            found += 1
    assert found > 150


def test_sampler_builds_reflections_for_reflective_samples_only(monkeypatch):
    # `reflection` (and its isometry check) only for reflective samples; a
    # rejected draw builds no pairing vector, and a reflective one three:
    # in the sampler, in `reflection` and in `orth_det_check`
    built = []
    pairings = []
    reflection, _pairings = rf.reflection, rf._pairings

    def checked(lat, coords):
        sigma = reflection(lat, coords)
        assert _preserves_form(lat, sigma.matrix)
        built.append(coords)
        return sigma

    def counted(lat, coords):
        pairings.append(coords)
        return _pairings(lat, coords)

    monkeypatch.setattr(rf, "reflection", checked)
    monkeypatch.setattr(rf, "_pairings", counted)
    for d, seed in ((1, 0), (2, 3), (5, 0), (12, 3)):
        built.clear()
        pairings.clear()
        rep = rf.reflk3_sample_check(d, samples=400, seed=seed)
        assert rep["reflective"] >= 5
        assert len(built) == rep["reflective"]
        assert len(pairings) == 3 * rep["reflective"]


@pytest.mark.parametrize("expr, r", [
    ("2U+2E8(-1)+<-10>", (0,) * 20 + (1,)),
    ("2U+2E8(-1)+<-10>", (5, 0) + (0,) * 18 + (1,)),
    ("U+A(2)", (0, 0, 1, 0)),
    ("U+A(2)", (1, -1, 0, 0)),
])
def test_isometry_rejects_every_single_entry_perturbation(expr, r):
    lat = lt.parse_lattice_expr(expr)
    m = [list(row) for row in rf.reflection(lat, r).matrix]
    n = lat.rank
    small = n < 8
    for i in range(n):
        for j in range(n):
            for delta in ((1, -1, 2) if small else (1,)):
                bad = [list(row) for row in m]
                bad[i][j] += delta
                assert not _preserves_form(lat, bad)
                if small:
                    assert not _reference_is_isometry(lat, bad)
                with pytest.raises(lt.LatticeError):
                    rf.IsometryMatrix(lat, bad)


def test_alpha_from_2x_matches_the_inverse_path():
    # columns of m are the simple roots in e-coordinates; alpha = m^-1 e
    m = [[Fraction(SIMPLE_ROOTS_2X[j][i], 2) for j in range(8)] for i in range(8)]
    inv = solve_rational(m, [[int(i == j) for i in range(8)] for j in range(8)])
    rng = random.Random(41)
    for _ in range(2000):
        vec2x = to_2x([rng.randint(-6, 6) for _ in range(8)])
        want = tuple(sum(r * Fraction(v, 2) for r, v in zip(row, vec2x)) for row in inv)
        assert e8.alpha_from_2x(vec2x) == want


@pytest.mark.parametrize("r_max", [7, 10, 40, 60])
def test_bigphi_matches_the_fraction_sum(r_max):
    assert rst.bigphi_verify(r_max) == _reference_bigphi(r_max)
