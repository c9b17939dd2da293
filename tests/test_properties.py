"""Property tests: exact identities checked on generated inputs.

Generation is derandomised, so every run draws the same examples and the
suite stays deterministic.
"""

import random
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3mod import e8, roots
from k3mod import lattice as lt
from k3mod import qseries as qs
from k3mod import reflective as rf
from k3mod import search as se

from exact_references import (
    det_bareiss, mat_mul_triple_loop, mat_vec_dense, scaled_form, signature_of, to_2x,
)
from test_kernels import _reference_pairing
from test_reflective import _reflective_with_support

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def _matrices(draw, max_size=4, bound=9):
    rows, cols = draw(st.integers(1, max_size)), draw(st.integers(1, max_size))
    return [[draw(st.integers(-bound, bound)) for _ in range(cols)] for _ in range(rows)]


@_SETTINGS
@given(_matrices())
def test_snf_transforms_give_the_normal_form(m):
    d, u, v = lt.smith_normal_form(m)
    assert lt.mat_mul(lt.mat_mul(u, m), v) == d
    assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1
    rows, cols = len(m), len(m[0])
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0


@st.composite
def _symmetric(draw, max_rank=4, bound=4):
    n = draw(st.integers(1, max_rank))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-bound, bound))
    return g


@_SETTINGS
@given(_symmetric())
def test_disc_group_order_is_the_determinant(g):
    assume(det_bareiss(g) != 0)
    lat = lt.IntLattice(g)
    disc = lt.disc_group(lat)
    assert disc.order == abs(lat.det)
    assert len(disc.generator_lifts) == len(disc.invariant_factors)


@_SETTINGS
@given(_symmetric(max_rank=6, bound=3).map(
    lambda g: [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(g)]))
def test_det_and_signature_of_zero_diagonal_grams_match_the_references(g):
    # with a zero diagonal the first step always pivots by adding a row and column
    assume(det_bareiss(g) != 0)
    lat = lt.IntLattice(g)
    assert lat.det == det_bareiss(g)
    assert lat.signature == signature_of(g)


@st.composite
def _permuted_block_sums(draw):
    """A symmetric permutation of the block-diagonal sum of 1 to 4 small
    symmetric blocks, some with a zero diagonal: its summands interleave."""
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        b = draw(_symmetric(max_rank=3, bound=3))
        if draw(st.booleans()):
            b = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(b)]
        blocks.append(b)
    g = lt._block_gram(blocks)
    perm = draw(st.permutations(range(len(g))))
    return [[g[i][j] for j in perm] for i in perm]


@settings(_SETTINGS, max_examples=80)
@given(_permuted_block_sums())
def test_det_and_signature_per_summand_match_the_references(g):
    # the summands partition the basis and meet only in zero entries, and
    # their dets and signatures combine to the whole matrix's
    blocks = lt._summands(g)
    assert sorted(i for b in blocks for i in b) == list(range(len(g)))
    assert all(g[i][j] == 0 for b, c in combinations(blocks, 2) for i in b for j in c)
    if det_bareiss(g) == 0:
        with pytest.raises(lt.LatticeError, match="singular"):
            lt.IntLattice(g)
        return
    lat = lt.IntLattice(g)
    assert lat.det == det_bareiss(g)
    assert lat.signature == signature_of(g)


# unimodular blocks: U, <1>, <-1>, and the odd and even forms of det -1 and 1
_UNIMODULAR_BLOCKS = ([[0, 1], [1, 0]], [[1]], [[-1]], [[0, 1], [1, 1]], [[2, 1], [1, 1]])


@st.composite
def _sums_with_unimodular_blocks(draw):
    """A symmetric permutation of a block sum of 1 to 3 small nonsingular
    blocks and 1 to 3 unimodular ones, each unimodular block conjugated by a
    shear b_i -> b_i + k b_j so that its nonzero pattern varies."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        b = draw(_symmetric(max_rank=3, bound=3))
        assume(det_bareiss(b) != 0)
        blocks.append(b)
    for _ in range(draw(st.integers(1, 3))):
        b = draw(st.sampled_from(_UNIMODULAR_BLOCKS))
        n = len(b)
        u = [[int(r == c) for c in range(n)] for r in range(n)]
        if n > 1:
            i = draw(st.integers(0, 1))
            u[i][1 - i] = draw(st.integers(-2, 2))
        blocks.append(lt.mat_mul(lt.mat_mul(u, b), [list(col) for col in zip(*u)]))
    blocks = draw(st.permutations(blocks))
    g = lt._block_gram(blocks)
    perm = draw(st.permutations(range(len(g))))
    return [[g[i][j] for j in perm] for i in perm]


@settings(_SETTINGS, max_examples=80)
@given(_sums_with_unimodular_blocks())
def test_disc_group_with_unimodular_summands_matches_the_references(g):
    # each lift w = num/den pairs integrally with the basis, the orders of the
    # lifts in A_L multiply to |det|, and the q-values are the Fraction norms
    lat = lt.IntLattice(g)
    disc = lt.disc_group(lat)
    orders = []
    for w in disc.generator_lifts:
        assert all(sum(x * c for x, c in zip(row, w.num)) % w.den == 0 for row in g)
        orders.append(w.den // gcd(w.den, *w.num))
    assert prod(orders) == abs(lat.det) == disc.order
    if lat.is_even():
        assert disc.q_values == tuple(_reference_pairing(lat, w.coords, w.coords) % 2
                                      for w in disc.generator_lifts)
    else:
        assert disc.q_values is None


@st.composite
def _sparse_product(draw):
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -7))
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return a, b


@settings(_SETTINGS, max_examples=80)
@given(_sparse_product())
def test_mat_mul_matches_the_triple_loop(ab):
    a, b = ab
    assert lt.mat_mul(a, b) == mat_mul_triple_loop(a, b)


def test_mat_mul_on_a_zero_row_a_zero_column_and_empty_factors():
    a = [[0, 0, 0], [1, 0, 2]]
    b = [[0, 3], [0, 0], [0, -1]]
    assert lt.mat_mul(a, b) == mat_mul_triple_loop(a, b) == [[0, 0], [0, 1]]
    assert lt.mat_mul([], []) == mat_mul_triple_loop([], []) == []


@st.composite
def _sparse_vector(draw, n):
    """n integers of which none, one, a few or all are nonzero."""
    size = draw(st.sampled_from((0, 1, min(3, n), n)))
    x = [0] * n
    for j in draw(st.permutations(range(n)))[:size]:
        x[j] = draw(st.integers(-9, 9).filter(bool))
    return x


@settings(_SETTINGS, max_examples=80)
@given(st.data())
def test_mat_vec_matches_the_dense_reference(data):
    # the kernel alone, then under pairing_vector on a Gram matrix and under
    # apply_coords on a reflection of L_2d, each with a vector of any support
    m = data.draw(_matrices(max_size=8))
    x = data.draw(_sparse_vector(len(m[0])))
    assert lt._mat_vec(m, x) == mat_vec_dense(m, x)
    g = data.draw(_symmetric(max_rank=8, bound=9))
    assume(det_bareiss(g) != 0)
    x = data.draw(_sparse_vector(len(g)))
    assert lt.pairing_vector(lt.IntLattice(g), x) == mat_vec_dense(g, x)
    lat = lt.make_l2d(data.draw(st.integers(1, 30)))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    r = _reflective_with_support(lat, rng, data.draw(st.sampled_from((1, 2, 4, lat.rank))))
    sigma = rf.reflection(lat, r)
    x = data.draw(_sparse_vector(lat.rank))
    assert sigma.apply_coords(x) == tuple(mat_vec_dense(sigma.matrix, x))


@_SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)),
    st.sampled_from((1, -1)))
def test_square_completion_matches_the_fraction_reference(b, sign):
    # G = sign * B^T B is definite when B is nonsingular
    n = len(b)
    g = [[sign * sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assume(det_bareiss(g) != 0)
    assert roots._scaled_form(lt.IntLattice(g)) == scaled_form(g)


@_SETTINGS
@given(st.lists(st.integers(-3, 3), min_size=8, max_size=8).filter(any),
       st.lists(st.integers(0, 7), max_size=6))
def test_orthogonal_root_count_is_weyl_and_sign_invariant(alpha, word):
    n_l = e8.count_orth_roots_2x(to_2x(alpha))
    assert roots.count_orth_roots(e8.lattice(), alpha) == n_l
    assert e8.count_orth_roots_2x(to_2x([-c for c in alpha])) == n_l
    x = list(alpha)
    for k in word:  # the simple reflection s_k(x) = x - (x, a_k) a_k
        x[k] -= sum(c * y for c, y in zip(e8.lattice().gram[k], x))
        assert e8.count_orth_roots_2x(to_2x(x)) == n_l


@settings(_SETTINGS, max_examples=20)
@given(st.sampled_from(sorted(qs.NAMED_LATTICES)), st.integers(1, 4), st.data())
def test_enumerator_count_is_the_theta_coefficient(name, m, data):
    # a change of basis b_i -> b_i + k b_j keeps the lattice, not the Gram matrix
    gram = qs.named_definite_lattice(name).gram
    n = len(gram)
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                              unique=True))
    k = data.draw(st.integers(-2, 2))
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    u[i][j] = k
    ut = [list(col) for col in zip(*u)]
    lat = lt.IntLattice(lt.mat_mul(lt.mat_mul(u, gram), ut))
    assert roots.enumerate_norm_vectors(lat, 2 * m) == qs.named_theta(name, m).coeff(m)


@settings(_SETTINGS, max_examples=200)
@given(st.tuples(*[st.integers()] * 5))
def test_the_family_iv_rule_never_claims_below_its_floor(ms):
    # 8 base roots, and every other term of the rule is a nonnegative count
    assert se.case4_formula_count(ms) >= se.FLOORS["IV"] == 8
