import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from exact_references import matrix_order_by_powers
from k3mod import cli, rst
from k3mod.lattice import mat_mul, identity_matrix
from k3mod.rst import (
    CycloDecomp, EigenExponents, bigphi_verify, c_min, c_min_with_argmin,
    char_poly, cyclo_decompose, cyclotomic_poly, euler_phi,
    is_quasi_reflection, is_reflection, sigma_prime, sigma_rst,
    toric_order2_check,
)


def test_sigma_rst():
    assert sigma_rst(EigenExponents(1, (0, 0, 0))) == 0
    assert sigma_rst(EigenExponents(2, (1, 1))) == 1
    assert sigma_rst(EigenExponents(5, (1, 4))) == 1
    with pytest.raises(ValueError):
        EigenExponents(4, (4,))


def test_sigma_inverse_pairing():
    # exponent lists closed under a -> m - a with no fixed vectors sum to
    # an integer together with the inverse element's sum
    rng = random.Random(1)
    for _ in range(30):
        m = rng.randint(2, 30)
        exps = [rng.randint(1, m - 1) for _ in range(rng.randint(1, 6))]
        inv = [(m - a) % m for a in exps]
        total = sigma_rst(EigenExponents(m, exps)) + sigma_rst(EigenExponents(m, inv))
        assert total.denominator == 1


def test_sigma_prime():
    assert sigma_prime(EigenExponents(4, (2, 2, 1)), 1) == Fraction(3, 2)
    assert sigma_prime(EigenExponents(10, (3,)), 2) == Fraction(2 * 3, 5) % 1
    with pytest.raises(ValueError):
        sigma_prime(EigenExponents(4, (2, 2, 1)), 2)  # l = k excluded
    with pytest.raises(ValueError):
        sigma_prime(EigenExponents(4, (1, 2, 1)), 1)  # parity violated
    with pytest.raises(ValueError, match="single odd final slot"):
        sigma_prime(EigenExponents(4, ()), 1)  # no final slot


def test_c_min_values():
    want = {30: Fraction(92, 30), 18: Fraction(42, 18), 12: Fraction(16, 12),
            10: Fraction(12, 10), 8: Fraction(12, 8), 5: Fraction(6, 5),
            3: Fraction(1, 3), 6: Fraction(1, 3), 4: Fraction(1, 2)}
    for d, value in want.items():
        assert c_min(d) == value
    assert c_min_with_argmin(30)[1] == 19
    with pytest.raises(ValueError):
        c_min(2)


def test_quasi_reflection_flags():
    assert is_reflection(EigenExponents(2, (0, 0, 1)))
    e = EigenExponents(3, (0, 0, 1))
    assert is_quasi_reflection(e) and not is_reflection(e)
    assert not is_quasi_reflection(EigenExponents(2, (0, 1, 1)))


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert len(cyclotomic_poly(30)) == euler_phi(30) + 1


def test_char_poly():
    g = [[2, 1], [1, 1]]
    assert char_poly(g) == [1, -3, 1]  # x^2 - 3x + 1


def test_matrix_order():
    assert cyclo_decompose([[0, -1], [1, 0]]).order == 4
    assert cyclo_decompose(identity_matrix(3)).order == 1
    # rows given as tuples: the identity has order 1 (the power search said 2)
    assert cyclo_decompose(((1, 0), (0, 1))).order == 1


def test_cyclo_decompose_basic():
    n = 4
    assert cyclo_decompose(identity_matrix(n)).multiplicities == {1: n}
    neg = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert cyclo_decompose(neg).multiplicities == {2: n}
    rot6 = [[0, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    dec = cyclo_decompose(rot6)
    assert dec.order == 6 and dec.multiplicities == {1: 2, 6: 1}
    assert dec.eigen_exponents().exponents == (0, 0, 1, 5)


def _random_signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    m = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        m[p][i] = rng.choice((1, -1))
    return m


def _random_conjugation(rng, m):
    n = len(m)
    s = identity_matrix(n)
    s_inv = identity_matrix(n)
    shears = []
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for r in range(n):
            s[r][i] += c * s[r][j]
        shears.append((i, j, c))
    # inverse of the accumulated shear product, built alongside: the same
    # column shears with -c, applied in reverse order
    for i, j, c in reversed(shears):
        for r in range(n):
            s_inv[r][i] -= c * s_inv[r][j]
    assert mat_mul(s, s_inv) == identity_matrix(n)
    return mat_mul(mat_mul(s, m), s_inv)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_decomposition_reconstructs_charpoly():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = _random_conjugation(rng, _random_signed_permutation(rng, n))
        dec = cyclo_decompose(g)
        assert sum(v * euler_phi(d) for d, v in dec.multiplicities.items()) == n
        poly = [1]
        for d, v in dec.multiplicities.items():
            for _ in range(v):
                poly = _poly_mul(poly, cyclotomic_poly(d))
        assert poly == char_poly(g)


def test_integer_quasi_reflections_have_order_two():
    # over the integers a finite-order quasi-reflection must be a reflection
    rng = random.Random(13)
    found = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        g = _random_conjugation(rng, _random_signed_permutation(rng, n))
        dec = cyclo_decompose(g)
        exps = dec.eigen_exponents()
        if is_quasi_reflection(exps):
            assert is_reflection(exps)
            assert dec.order == 2
            found += 1
    assert found > 3


def test_toric_order2_check():
    rep = toric_order2_check([[0, 1], [1, 0]])
    assert rep["is_reflection"] and rep["consistent"]
    rot3 = [[0, -1], [1, -1]]
    rep = toric_order2_check(rot3)
    assert rep["order"] == 3 and rep["sigma"] == 1 and rep["consistent"]
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = _random_signed_permutation(rng, n)
        assert toric_order2_check(g)["consistent"]


def test_bigphi():
    rep = bigphi_verify(100)
    assert rep["violations"] == []
    assert rep["min_sum"] >= 1
    # r = 9 participates: phi(9) = 6
    nine = [r for r in range(7, 101) if euler_phi(r) >= 6]
    assert 9 in nine
    with pytest.raises(ValueError):
        bigphi_verify(5)


def test_eigen_exponents_from_decomp_order_scale():
    dec = CycloDecomp({12: 1})
    assert dec.eigen_exponents().exponents == (1, 5, 7, 11)
    dec = CycloDecomp({3: 1, 4: 1})
    assert dec.eigen_exponents().exponents == (3, 4, 8, 9)


def test_cyclotomic_poly_hands_out_no_shared_mutable_value():
    p = cyclotomic_poly(6)
    with pytest.raises(AttributeError):
        p.append(99)
    assert cyclotomic_poly(6) == (1, -1, 1)


@pytest.mark.parametrize("order, exponents", [(4, [1.5, "2"]), (4, [1.0]), (4, ["2"]),
                                              (4, [Fraction(1)]), (4.0, [1])])
def test_eigen_exponents_are_integers_never_truncated(order, exponents):
    with pytest.raises(TypeError):
        EigenExponents(order, exponents)


def test_cyclotomic_poly_rejects_nonpositive_index():
    for d in (0, -2):
        with pytest.raises(ValueError):
            cyclotomic_poly(d)


def test_char_poly_rejects_non_integral_matrix():
    with pytest.raises(ArithmeticError):
        char_poly([[Fraction(1, 2), 0], [0, 1]])


@pytest.mark.parametrize("g", [[[1, 0]], [[]], [[1, 2], [3]]])
def test_char_poly_needs_a_square_matrix(g):
    with pytest.raises(ValueError, match="matrix must be square"):
        char_poly(g)


@pytest.mark.parametrize("multiplicities", [{4.0: 1}, {4: 1.0}, {"4": 1}])
def test_cyclo_decomp_rejects_non_integers_at_construction(multiplicities):
    # both used to be accepted and to fail only later, in eigen_exponents()
    with pytest.raises(TypeError):
        CycloDecomp(multiplicities)
    assert CycloDecomp({4: 1}).eigen_exponents().exponents == (1, 3)


def test_cyclo_decomp_computes_its_order_and_rank():
    # Phi_4's eigenvalues are +-i: order 4, rank 2, never exponents (0, 0)
    dec = CycloDecomp({4: 1})
    assert (dec.order, dec.rank, dec.eigen_exponents().exponents) == (4, 2, (1, 3))
    assert CycloDecomp({3: 1, 4: 1}).order == 12
    assert CycloDecomp({1: 1, 2: 2}).rank == 3
    assert (CycloDecomp({}).order, CycloDecomp({}).rank) == (1, 0)


@pytest.mark.parametrize("multiplicities", [{-1: -2}, {0: 1}, {-4: 1}, {4: 0}, {4: -1},
                                            {1: 1, 3: 0}])
def test_cyclo_decomp_rejects_indices_and_multiplicities_below_one(multiplicities):
    with pytest.raises(ValueError, match="must be positive"):
        CycloDecomp(multiplicities)


@pytest.mark.parametrize("n", [0, -1, -5, -12])
def test_euler_phi_rejects_arguments_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        euler_phi(n)
    assert euler_phi(1) == 1


@pytest.mark.parametrize("g", [[[0]], [[2]], [[1, 0], [0, 3]], [[1, 2], [2, 4]]])
def test_a_matrix_not_invertible_over_z_has_no_finite_order(monkeypatch, g):
    # the constant term of the characteristic polynomial is +-det g: no power is taken
    monkeypatch.setattr(rst, "_mat_power", lambda *_a: pytest.fail("_mat_power called"))
    with pytest.raises(ValueError, match="not invertible over Z"):
        cyclo_decompose(g)


def test_a_unimodular_matrix_of_infinite_order_has_no_finite_order():
    # Phi_1^2 divides its characteristic polynomial, but g^1 is not 1
    with pytest.raises(ValueError, match="matrix has no finite order: g\\^1 is not the identity"):
        cyclo_decompose([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="no finite order: g\\^6 is not"):
        cyclo_decompose([[0, -1, 1, 0], [1, 1, 0, 1], [0, 0, 0, -1], [0, 0, 1, 1]])


def _companion(poly):
    """Companion matrix of a monic integer polynomial, low degree first."""
    n = len(poly) - 1
    return [[(i == j + 1) - (j == n - 1) * poly[i] for j in range(n)] for i in range(n)]


def _block_companion(indices):
    """Block-diagonal matrix of the companions of Phi_d for d in `indices`."""
    blocks = [_companion(cyclotomic_poly(d)) for d in indices]
    n = sum(map(len, blocks))
    g = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            g[at + i][at:at + len(row)] = row
        at += len(block)
    return g


def _multisets(indices, budget):
    """Every multiset of `indices` (ascending tuples) with sum of phi(d) <= budget."""
    yield ()
    for i, d in enumerate(indices):
        if euler_phi(d) <= budget:
            for rest in _multisets(indices[i:], budget - euler_phi(d)):
                yield (d,) + rest


def _counted_products(monkeypatch):
    """Patch `rst.mat_mul` to count its calls; returns the growing count list."""
    calls = []

    def counted(a, b):
        calls.append(len(a))
        return mat_mul(a, b)
    monkeypatch.setattr(rst, "mat_mul", counted)
    return calls


# the largest finite order at rank 21, and an order past the old 10^4 cap at rank 30
RANK_21_ORDER_2520 = (1, 5, 7, 8, 9)
RANK_30_ORDER_11088 = (7, 9, 11, 16)


def test_the_order_matches_the_power_search_on_every_small_factor_multiset():
    rng = random.Random(5)
    indices = [d for d in range(1, 31) if euler_phi(d) <= 8]
    cases = [ms for ms in _multisets(indices, 8) if ms] + [RANK_21_ORDER_2520]
    assert len(cases) == 501
    for ms in cases:
        g = _block_companion(ms)
        if len(g) > 1:
            g = _random_conjugation(rng, g)
        dec = cyclo_decompose(g)
        assert dec.order == matrix_order_by_powers(g, 10**4), ms
        assert list(dec.multiplicities.items()) == sorted(Counter(ms).items()), ms


def test_the_largest_order_at_rank_21_takes_few_products(monkeypatch):
    g = _random_conjugation(random.Random(2520), _block_companion(RANK_21_ORDER_2520))
    calls = _counted_products(monkeypatch)
    dec = cyclo_decompose(g)
    assert dec.order == 2520 and dec.multiplicities == {1: 1, 5: 1, 7: 1, 8: 1, 9: 1}
    # char_poly takes 21 products, the check g^2520 = 1 at most 2 log2(2520)
    assert len(calls) - 21 <= 24


def test_an_order_past_ten_thousand_is_found(capsys):
    g = _random_conjugation(random.Random(11088), _block_companion(RANK_30_ORDER_11088))
    dec = cyclo_decompose(g)
    assert (dec.order, dec.rank) == (11088, 30)
    assert dec.multiplicities == {7: 1, 9: 1, 11: 1, 16: 1}
    assert cli.run(["rst", "--matrix", json.dumps(g)]) == 0
    out = capsys.readouterr()
    assert out.err == "" and json.loads(out.out)["order"] == 11088


def test_a_characteristic_polynomial_off_the_cyclotomics_takes_no_power(monkeypatch):
    # x^21 - x - 1 is unimodular but not a product of cyclotomic polynomials
    g = _companion([-1, -1] + [0] * 19 + [1])
    calls = _counted_products(monkeypatch)
    with pytest.raises(ArithmeticError, match="not a product of cyclotomics"):
        cyclo_decompose(g)
    assert len(calls) == 21  # char_poly's own products only
