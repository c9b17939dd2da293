import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from k3mod import lattice as lt
from k3mod import reflective as rf
from k3mod.lattice import (
    LatticeError, disc_group, make_l2d,
    orth_complement, parse_lattice_expr,
)

from exact_references import det_bareiss, divisor


def test_root_reflection_in_e8():
    lat = parse_lattice_expr("E8")
    r = (0, 1, 0, 0, 0, 0, 0, 0)
    sigma = rf.reflection(lat, r)
    m = [list(row) for row in sigma.matrix]
    assert det_bareiss(m) == -1
    sq = [[sum(m[i][k] * m[k][j] for k in range(8)) for j in range(8)] for i in range(8)]
    ident = [[1 if i == j else 0 for j in range(8)] for i in range(8)]
    assert sq == ident


def test_reflection_examples():
    lat = parse_lattice_expr("<-10>+U")
    sigma = rf.reflection(lat, (1, 0, 0))
    assert sigma.matrix[0][0] == -1
    u = parse_lattice_expr("U")
    sigma = rf.reflection(u, (1, 1))
    assert sigma.apply_coords((1, 1)) == (-1, -1)
    with pytest.raises(rf.NotIntegralError):
        rf.reflection(u, (2, 1))  # r^2 = 4 does not divide twice every pairing
    # sigma_r depends only on the line of r: (2, 2) reflects as (1, 1) does
    assert rf.reflection(u, (2, 2)).matrix == rf.reflection(u, (1, 1)).matrix == ((0, -1), (-1, 0))
    with pytest.raises(LatticeError):
        rf.reflection(u, (1, 0))  # isotropic


@pytest.mark.parametrize("coords", [(1, 0, 5), (1,)])
def test_apply_coords_needs_one_entry_per_basis_vector(coords):
    sigma = rf.reflection(parse_lattice_expr("A(2)"), (1, 0))
    assert sigma.apply_coords((1, 0)) == (-1, 0)
    with pytest.raises(LatticeError, match="coordinate length"):
        sigma.apply_coords(coords)


def test_reflections_are_involutions():
    rng = random.Random(2)
    lat = parse_lattice_expr("U+<-4>+<-2>")
    found = 0
    for _ in range(3000):
        coords = tuple(rng.randint(-4, 4) for _ in range(lat.rank))
        if not any(coords) or lt.inner(lat, coords, coords) == 0:
            continue
        try:
            sigma = rf.reflection(lat, coords)
        except rf.NotIntegralError:
            continue
        n = lat.rank
        sq = [[sum(sigma.matrix[i][k] * sigma.matrix[k][j] for k in range(n))
               for j in range(n)] for i in range(n)]
        assert sq == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        found += 1
    assert found > 100


@pytest.mark.parametrize("lat", [parse_lattice_expr("U+<-4>+<-2>"),
                                 parse_lattice_expr("A(2)+A(2)"), make_l2d(3)],
                         ids=["U+<-4>+<-2>", "A(2)+A(2)", "L_6"])
def test_reflection_is_the_fraction_formula_or_raises(lat):
    # sigma_r b_j = b_j - 2 (b_j, r)/(r, r) r in Fractions: the matrix when every
    # entry is an integer, `NotIntegralError` when one is not, and a plain
    # `LatticeError` for an isotropic r; the draws include imprimitive r, whose
    # sigma_r is that of r/gcd(r)
    rng = random.Random(11)
    g, n = lat.gram, lat.rank
    outcomes = {"integral": 0, "not_integral": 0, "isotropic": 0}
    for _ in range(400):
        coords = [rng.randint(-2, 2) if i < 6 or i == n - 1 else 0 for i in range(n)]
        if not any(coords):
            continue
        pair = [sum(g[j][i] * coords[i] for i in range(n)) for j in range(n)]
        norm = sum(p * c for p, c in zip(pair, coords))
        if norm == 0:
            with pytest.raises(LatticeError, match="isotropic") as err:
                rf.reflection(lat, coords)
            assert not isinstance(err.value, rf.NotIntegralError)
            outcomes["isotropic"] += 1
            continue
        want = _fraction_reflection(lat, coords)
        if any(x.denominator != 1 for row in want for x in row):
            with pytest.raises(rf.NotIntegralError):
                rf.reflection(lat, coords)
            outcomes["not_integral"] += 1
            continue
        assert rf.reflection(lat, coords).matrix == want, coords
        outcomes["integral"] += 1
    assert outcomes["integral"] and outcomes["not_integral"], outcomes
    if lat.signature[1]:
        assert outcomes["isotropic"], outcomes


def _fraction_reflection(lat, coords):
    """The matrix of x -> x - 2 (x, r)/(r, r) r in Fractions, r non-isotropic."""
    g, n = lat.gram, lat.rank
    pair = [sum(g[j][i] * coords[i] for i in range(n)) for j in range(n)]
    norm = sum(p * c for p, c in zip(pair, coords))
    coeffs = [Fraction(2 * p, norm) for p in pair]
    return tuple(tuple((i == j) - coeffs[j] * coords[i] for j in range(n)) for i in range(n))


def _reflective_with_support(lat, rng, size):
    """A primitive vector of L_2d = `lat` with `size` nonzero coordinates whose
    reflection preserves the lattice.  A smaller support is drawn until one
    is reflective; the full one is built as (1, b, z) with r^2 = -2, or as
    d (1, b, z, 0) + h with (1, b, z, 0) isotropic, so r^2 = -2d and div = d
    or 2d: the first two coordinates span U, and b solves for the norm."""
    n = lat.rank
    if size == n:
        d = -lat.gram[-1][-1] // 2
        while True:
            z = [0, 0] + [rng.choice((-2, -1, 1, 2)) for _ in range(n - 2)]
            if rng.random() < 0.5:
                b = (-2 - lt.inner(lat, z, z)) // 2
                coords = (1, b, *z[2:])
            else:
                z[-1] = 0
                b = -lt.inner(lat, z, z) // 2
                coords = (d, d * b, *(d * c for c in z[2:-1]), 1)
            if b:
                rf.reflection(lat, coords)
                return coords
    while True:
        coords = [0] * n
        for i in rng.sample(range(n), size):
            coords[i] = rng.choice((-2, -1, 1, 2))
        g = gcd(*coords)
        coords = tuple(c // g for c in coords)
        if lt.inner(lat, coords, coords) == 0:
            continue
        try:
            rf.reflection(lat, coords)
        except rf.NotIntegralError:
            continue
        return coords


@pytest.mark.parametrize("d", range(1, 31))
def test_reflection_moves_only_the_support_of_r(d):
    # sigma_r b_j = b_j - c_j r changes only the coordinates i with r_i != 0,
    # so every other row of sigma_r is the unit row e_i
    lat = make_l2d(d)
    n = lat.rank
    rng = random.Random(d)
    for size in (1, 2, 4, n):
        for _ in range(2):
            coords = _reflective_with_support(lat, rng, size)
            assert sum(c != 0 for c in coords) == size, coords
            m = rf.reflection(lat, coords).matrix
            for i, c in enumerate(coords):
                if not c:
                    assert m[i] == tuple(int(i == j) for j in range(n)), (coords, i)
            assert m == _fraction_reflection(lat, coords), coords


def test_isometry_validation():
    u = parse_lattice_expr("U")
    with pytest.raises(LatticeError):
        rf.IsometryMatrix(u, ((1, 1), (0, 1)))
    rf.IsometryMatrix(u, ((0, 1), (1, 0)))


@pytest.mark.parametrize("expr, matrix", [("<2>", [[-1.7]]), ("<2>", [[1.0]]), ("<2>", [["1"]]),
                                          ("U", [[0, Fraction(1)], [1, 0]])])
def test_isometry_entries_are_integers_never_truncated(expr, matrix):
    with pytest.raises(TypeError):
        rf.IsometryMatrix(parse_lattice_expr(expr), matrix)


def test_disc_action_and_classification():
    lat = make_l2d(5)
    n = lat.rank
    em2 = [0] * n
    em2[0], em2[1] = 1, -1  # a norm -2 vector in the first U
    assert rf.classify_reflection(lat, em2) == rf.IN_TILDE_O
    h = [0] * n
    h[-1] = 1  # r^2 = -10, div = 10
    assert rf.classify_reflection(lat, h) == rf.MINUS_IN_TILDE_O
    uh = [0] * n
    uh[0], uh[-1] = 5, 1  # r^2 = -10, div = 5
    assert rf.classify_reflection(lat, uh) == rf.MINUS_IN_TILDE_O
    with pytest.raises(LatticeError):
        rf.classify_reflection(lat, [2] + [0] * (n - 1))  # imprimitive


def test_classification_r2_4_div_2():
    # r^2 = +-4 with div 2 is never the identity on the discriminant group
    lat = parse_lattice_expr("U+<-4>")
    tag = rf.classify_reflection(lat, (2, 2, 1))
    assert tag != rf.IN_TILDE_O
    assert tag == rf.MINUS_IN_TILDE_O  # derived by evaluation


def test_is_id_predicates():
    lat = make_l2d(3)
    n = lat.rank
    em2 = [0] * n
    em2[0], em2[1] = 1, -1
    sigma = rf.reflection(lat, em2)
    assert rf._disc_signs(lat, sigma) == (True, False)
    assert len(disc_group(lat).generator_lifts) == 1


def _sampled_reflective(lat, rng, draws, box):
    """Primitive vectors drawn from [-box, box]^n whose reflection preserves lat."""
    out = []
    for _ in range(draws):
        coords = tuple(rng.randint(-box, box) for _ in range(lat.rank))
        if not any(coords):
            continue
        g = 0
        for c in coords:
            g = gcd(g, c)
        coords = tuple(c // g for c in coords)
        if lt.inner(lat, coords, coords) == 0:
            continue
        try:
            rf.reflection(lat, coords)
        except rf.NotIntegralError:
            continue
        out.append(coords)
    return out


def test_odd_determinant_biconditionals():
    # for A_L cyclic of odd order: id action iff r^2 = +-2;
    # minus-id iff r^2 = +-2D, div = D
    rng = random.Random(6)
    minus_seen = 0
    for expr in ("A(2)", "U+A(2)", "A(4)", "U+A(4)"):
        lat = parse_lattice_expr(expr)
        disc = disc_group(lat)
        assert disc.order % 2 == 1 and disc.is_cyclic()
        dd = disc.exponent
        vectors = _sampled_reflective(lat, rng, draws=400, box=4)
        assert vectors, f"no reflective vector sampled in {expr}"
        for coords in vectors:
            norm = lt.inner(lat, coords, coords)
            sigma = rf.reflection(lat, coords)
            div = divisor(lat, coords)
            plus, minus = rf._disc_signs(lat, sigma)
            assert plus == (abs(norm) == 2)
            assert minus == (abs(norm) == 2 * dd and div == dd)
            minus_seen += minus
    assert minus_seen > 0
    # the hypothesis is needed: A(2)+A(2) has A_L = (Z/3)^2, of odd order but
    # not cyclic, and r^2 = 2D, div = D, yet sigma_r is -id on one Z/3 and
    # id on the other
    lat = parse_lattice_expr("A(2)+A(2)")
    disc = disc_group(lat)
    assert disc.order % 2 == 1 and not disc.is_cyclic()
    dd = disc.exponent
    for coords in ((0, 0, 1, -1), (1, -1, 0, 0)):
        assert lt.inner(lat, coords, coords) == 2 * dd and divisor(lat, coords) == dd
        assert not rf._disc_signs(lat, rf.reflection(lat, coords))[1]
        assert rf.classify_reflection(lat, coords) == rf.NEITHER


@pytest.mark.parametrize("expr", ["A(2)+A(2)", "U(3)+A(2)", "<-4>+<4>", "A(2)+<-6>"])
def test_classification_on_non_cyclic_disc(expr):
    # only the cross-checks valid on every even lattice run here; the class
    # must still agree with the action computed directly
    lat = parse_lattice_expr(expr)
    disc = disc_group(lat)
    assert not disc.is_cyclic()
    vectors = _sampled_reflective(lat, random.Random(4), draws=600, box=4)
    assert vectors
    for coords in vectors:
        plus, minus = rf._disc_signs(lat, rf.reflection(lat, coords))
        if plus:
            want = rf.IN_TILDE_O
        elif minus:
            want = rf.MINUS_IN_TILDE_O
        else:
            want = rf.NEITHER
        assert rf.classify_reflection(lat, coords) == want


def test_two_elementary_lemma():
    # involution fixing T and negating its complement forces 2-elementary
    # discriminant groups: reflections realise this for T = r-perp
    e8lat = parse_lattice_expr("E8")
    comp, _ = orth_complement(e8lat, [(0, 1, 0, 0, 0, 0, 0, 0)])
    assert disc_group(comp).two_elementary
    uu = parse_lattice_expr("2U")
    comp, _ = orth_complement(uu, [(1, -1, 0, 0)])
    assert disc_group(comp).two_elementary


def test_parity_delta():
    assert disc_group(parse_lattice_expr("U(2)")).parity_delta == 0
    assert disc_group(parse_lattice_expr("<2>+<-2>")).parity_delta == 1
    assert not disc_group(parse_lattice_expr("A(2)")).two_elementary


def test_orth_det_check():
    # div = 2d gives a unimodular complement, div = d determinant 4
    lat = make_l2d(7)
    n = lat.rank
    h = [0] * n
    h[-1] = 1
    got, predicted = rf.orth_det_check(lat, h)
    assert got == predicted == 1
    uh = [0] * n
    uh[0], uh[-1] = 7, 1
    got, predicted = rf.orth_det_check(lat, uh)
    assert got == predicted == 4
    em2 = [0] * n
    em2[0], em2[1] = 1, -1
    got, predicted = rf.orth_det_check(lat, em2)
    assert got == predicted == 28  # |det L| * |r^2| / div^2 = 14 * 2 / 1


def test_complement_genus_invariants_for_div_d():
    # the div = d complement is 2-elementary with parity delta in {0, 1}
    for d in (2, 4):
        lat = make_l2d(d)
        n = lat.rank
        uh = [0] * n
        uh[0], uh[-1] = d, 1
        comp, _ = orth_complement(lat, [uh])
        disc = disc_group(comp)
        assert abs(comp.det) == 4
        assert disc.two_elementary
        assert disc.parity_delta in (0, 1)
        assert comp.signature == (2, 18)


def test_sample_check_small():
    rep = rf.reflk3_sample_check(5, samples=1500, seed=3)
    assert rep["counterexamples"] == []
    assert rep["det_mismatches"] == []
    assert rep["reflective"] >= 5  # the injected vectors at least
    assert rep["samples"] == 1500


def test_sample_check_sample_count():
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        rf.reflk3_sample_check(5, samples=-3)
    rep = rf.reflk3_sample_check(5, samples=0)
    assert rep["samples"] == rep["reflective"] == rep["det_checks"] == 0


def test_sample_check_deterministic():
    a = rf.reflk3_sample_check(2, samples=300, seed=12)
    b = rf.reflk3_sample_check(2, samples=300, seed=12)
    assert a == b


# sha256 over the JSON lines [seed, samples, report] of reflk3_sample_check(d,
# samples, seed) for seeds 0 and 3 and samples 0, 6 and 500 (and 10^4 for
# d <= 6), taken when every draw still built its full pairing vector
_SAMPLE_DIGESTS = {
    1: "bd462cee5b3d94e04dbba0f43c8410a8af64d3276aaec49ee7caa9cde42fdb90",
    2: "46291b0b88b76e9a06ff70222270c4c4c478b0f5922a43cb520f08077d974de4",
    5: "d67457b270bf252cbe3457c1c86a9737c3229987ebdd3882cf62af2773a46494",
    6: "91dd76dca31da1bab6ba9e38ea7e01cb6ddea9ce3fc1069170e29e14d07b0f98",
    12: "5d7f2d80d22dfce1692575089cd196c53e01912701df0cfce04d43b419f8a310",
    37: "4c8ccb613ecdc57471c79e898c8c993cb51af8823b3267023bee8d62cdfd218c",
    199: "55ea08e5cf2ca0f97e621b0ee578019fc3c006dc4274d7587370f1e27a4f0254",
}


@pytest.mark.parametrize("d", _SAMPLE_DIGESTS)
def test_sample_check_reports_are_pinned(d):
    h = hashlib.sha256()
    for seed in (0, 3):
        for samples in (0, 6, 500) + ((10**4,) if d <= 6 else ()):
            rep = rf.reflk3_sample_check(d, samples=samples, seed=seed)
            h.update(json.dumps([seed, samples, rep], sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == _SAMPLE_DIGESTS[d]


def test_reflection_report():
    lat = make_l2d(5)
    n = lat.rank
    h = [0] * n
    h[-1] = 1
    rep = rf.reflection_report(lat, tuple(h))
    assert rep["rSquared"] == -10 and rep["div"] == 10
    assert rep["discAction"] == "-id" and rep["class"] == rf.MINUS_IN_TILDE_O
