import itertools
import random

import pytest
from fractions import Fraction

from k3mod import lattice as lt
from k3mod import reflective as rf
from k3mod import roots
from k3mod.lattice import (
    LatticeError, ParseError, disc_group, inner,
    make_l2d, orth_complement, parse_lattice_expr, smith_normal_form,
)

from exact_references import det_bareiss, divisor, dual_vector, signature_of


def test_named_constructors():
    u = parse_lattice_expr("U")
    assert u.gram == ((0, 1), (1, 0))
    e8 = parse_lattice_expr("E8")
    assert e8.rank == 8 and e8.det == 1 and e8.signature == (8, 0)
    assert all(e8.gram[i][i] == 2 for i in range(8))
    d6 = parse_lattice_expr("D(6)")
    assert d6.det == 4
    assert parse_lattice_expr("A(2)").det == 3
    with pytest.raises(LatticeError):
        parse_lattice_expr("E5")
    with pytest.raises(LatticeError):
        parse_lattice_expr("Q")


def test_inner_products():
    e8 = parse_lattice_expr("E8")
    alpha2 = (0, 1, 0, 0, 0, 0, 0, 0)
    assert inner(e8, alpha2, alpha2) == 2
    u = parse_lattice_expr("U")
    iso = (1, 0)
    assert inner(u, iso, iso) == 0
    m10 = parse_lattice_expr("<-10>")
    g = (1,)
    assert inner(m10, g, g) == -10


# every entry point that takes a vector of a lattice, called on the root
# (1, 0) of A(2): a vector is its coordinates beside the lattice
VECTOR_ENTRY_POINTS = {
    "inner": lambda lat, v: inner(lat, v, v),
    "is_primitive": lt.is_primitive,
    "orth_complement": lambda lat, v: orth_complement(lat, [v]),
    "count_orth_roots": roots.count_orth_roots,
    "reflection": rf.reflection,
    "classify_reflection": rf.classify_reflection,
    "reflection_report": rf.reflection_report,
    "orth_det_check": rf.orth_det_check,
}


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRY_POINTS))
def test_vectors_do_not_cross_lattices(entry):
    call = VECTOR_ENTRY_POINTS[entry]
    lat = parse_lattice_expr("A(2)")
    call(lat, (1, 0))
    call(lat, [1, 0])
    # one coordinate per basis vector
    for bad in ((1,), (1, 0, 0)):
        with pytest.raises(LatticeError):
            call(lat, bad)
    # coordinates are integers, never truncated
    with pytest.raises(TypeError):
        call(lat, (1.5, 0))


def test_direct_sum_and_rescale():
    u = parse_lattice_expr("U")
    uu = parse_lattice_expr("2U")
    assert uu.rank == 4 and uu.det == 1
    assert u.gram == ((0, 1), (1, 0)) and u.det == -1
    u2 = parse_lattice_expr("U(2)")
    assert u2.gram == ((0, 2), (2, 0)) and u2.det == -4
    with pytest.raises(ParseError, match="scale must be nonzero"):
        parse_lattice_expr("U(0)")


def test_l2d_shape():
    # 2U + 2E8(-1) + <-2d> has rank 21 and signature (2, 19)
    lat = make_l2d(1)
    assert lat.rank == 21
    assert lat.det == -2
    assert lat.signature == (2, 19)
    lat5 = parse_lattice_expr("2U+2E8(-1)+<-10>")
    assert lat5.det == -10 and lat5.signature == (2, 19)


@pytest.mark.parametrize("gram", [make_l2d(d).gram for d in range(1, 31)] + [
    lt._expr_gram(e) for e in ("U", "U+<-2>", "2U", "U(3)+A(2)", "<-4>+<4>")])
def test_det_and_signature_match_the_references(gram):
    lat = lt.IntLattice(gram)
    assert lat.det == det_bareiss(gram)
    assert lat.signature == signature_of(gram)


def test_zero_pivots_are_replaced_by_congruences():
    # U: no later nonzero diagonal entry, so row and column 1 are added to
    # row and column 0 (pivot 2 a_01 = 2).  U+<-2>: b_0 swaps with the <-2>
    # vector, and then the block of U needs the addition (pivot 2 a_12 = -4)
    def minors(expr):
        return [row[k] for k, row in enumerate(lt.symmetric_bareiss(lt._expr_gram(expr)))]

    assert minors("U") == [2, -1]
    assert minors("U+<-2>") == [-2, -4, 2]


@pytest.mark.parametrize("gram", [[], [[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0], [0, 0]],
                                  [[1, 1], [1, 1]]])
def test_empty_and_singular_grams_are_rejected(gram):
    with pytest.raises(LatticeError):
        lt.IntLattice(gram)


@pytest.mark.parametrize("gram", [[[2.5]], [["3"]], [[2, 1.0], [1, 2]], [[Fraction(4)]]])
def test_non_integer_gram_entries_are_rejected(gram):
    # the rule of `coords_of`: an entry that is not an integer is never truncated
    with pytest.raises(TypeError):
        lt.IntLattice(gram)


def test_grown_table_follows_the_one_growth_rule(monkeypatch):
    monkeypatch.setattr(lt, "_grown_tables", {})
    builds = []

    def build(top):
        builds.append(top)
        return ("table", top)

    # the first build is at exactly the bound
    assert lt._grown("t", 10, build) == ("table", 10)
    # no rebuild at or below the stored bound
    assert lt._grown("t", 7, build) == lt._grown("t", 10, build) == ("table", 10)
    assert builds == [10]
    # a rebuild is at max(bound, 2 x stored)
    assert lt._grown("t", 15, build) == ("table", 20)
    assert lt._grown("t", 50, build) == ("table", 50)
    assert builds == [10, 20, 50]
    # each key has its own table
    assert lt._grown("u", 3, build) == ("table", 3)
    assert lt._grown_tables == {"t": (50, ("table", 50)), "u": (3, ("table", 3))}


def test_divisor():
    u = parse_lattice_expr("U")
    assert divisor(u, (1, 0)) == 1
    m6 = parse_lattice_expr("<-6>")
    assert divisor(m6, (1,)) == 6
    with pytest.raises(LatticeError):
        divisor(u, (0, 0))


def test_divisor_divides_norm_for_reflective_vectors():
    # div(r) | r^2 | 2 div(r) whenever the reflection preserves the lattice
    lat = parse_lattice_expr("U+<-4>")
    rng = random.Random(7)
    seen = 0
    for _ in range(4000):
        coords = tuple(rng.randint(-6, 6) for _ in range(lat.rank))
        if not any(coords):
            continue
        norm = inner(lat, coords, coords)
        if norm == 0:
            continue
        try:
            rf.reflection(lat, coords)
        except rf.NotIntegralError:
            continue
        d = divisor(lat, coords)
        assert norm % d == 0 and (2 * d) % norm == 0
        seen += 1
    assert seen > 50
    l2d = make_l2d(3)
    n = l2d.rank
    for coords in ([1, -1] + [0] * (n - 2), [0] * (n - 1) + [1],
                   [3] + [0] * (n - 2) + [1]):
        rf.reflection(l2d, tuple(coords))
        d = divisor(l2d, coords)
        norm = inner(l2d, coords, coords)
        assert norm % d == 0 and (2 * d) % abs(norm) == 0


def test_disc_group_e8_trivial():
    disc = disc_group(parse_lattice_expr("E8"))
    assert disc.invariant_factors == () and disc.order == 1 and disc.exponent == 1


@pytest.mark.parametrize("d", [1, 2, 3, 5, 12, 20])
def test_disc_group_l2d(d):
    disc = disc_group(make_l2d(d))
    assert disc.invariant_factors == (2 * d,)
    # generator q-value is -1/(2d) reduced mod 2
    assert disc.q_values[0] == Fraction(-1, 2 * d) % 2


def test_disc_group_u2():
    disc = disc_group(parse_lattice_expr("U(2)"))
    assert disc.invariant_factors == (2, 2)
    assert all(q.denominator == 1 for q in disc.q_values)


def test_disc_order_is_det():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        while True:
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
                g[i][i] = 2 * rng.randint(-2, 2)
            try:
                lat = lt.IntLattice(g)
                break
            except LatticeError:
                continue
        disc = disc_group(lat)
        assert disc.order == abs(lat.det)


@pytest.mark.parametrize("mat", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], []]])
def test_smith_normal_form_rejects_ragged_rows(mat):
    for call in (smith_normal_form, lt.kernel_basis):
        with pytest.raises(LatticeError, match="equal length"):
            call(mat)


def test_disc_group_computes_its_factors_and_q_values():
    # the lifts are the one input: factors are their denominators, q-values
    # their norms mod 2, and an odd lattice has no q-values
    for expr in ("U(2)+<6>", "A(2)+<-4>", "<3>+<5>"):
        lat = parse_lattice_expr(expr)
        disc = disc_group(lat)
        assert disc.invariant_factors == tuple(g.den for g in disc.generator_lifts)
        want = tuple(g.norm() % 2 for g in disc.generator_lifts) if lat.is_even() else None
        assert disc.q_values == want
        again = lt.DiscGroup(lat, disc.generator_lifts)
        assert (again.invariant_factors, again.q_values) == (disc.invariant_factors, want)
    assert disc_group(parse_lattice_expr("<3>+<5>")).q_values is None


# (two_elementary, parity_delta) as `k3mod disc --format json` prints them
_FORM_INVARIANTS = {
    "<1>": (True, None), "<3>": (False, None), "U(2)": (True, 0),
    "<2>+<-2>": (True, 1), "A(2)": (False, 1), "E8(2)": (True, 0),
}


@pytest.mark.parametrize("expr", sorted(_FORM_INVARIANTS))
def test_disc_group_states_the_invariants_of_its_form(expr):
    disc = disc_group(parse_lattice_expr(expr))
    assert (disc.two_elementary, disc.parity_delta) == _FORM_INVARIANTS[expr]


@pytest.mark.parametrize("expr", ["U(2)", "<2>+<-2>", "E8(2)", "D(4)+U(2)", "A(2)+<-4>",
                                  "U(2)+<6>"])
def test_parity_delta_is_the_integrality_of_the_form_on_every_class(expr):
    # the form at sum c_i g_i is sum c_i c_j (g_i, g_j), over every class of A_L
    disc = disc_group(parse_lattice_expr(expr))
    lifts = disc.generator_lifts
    pairs = [[a.pair(b) for b in lifts] for a in lifts]
    values = [sum(ci * cj * pairs[i][j] for i, ci in enumerate(c) for j, cj in enumerate(c))
              for c in itertools.product(*(range(f) for f in disc.invariant_factors))]
    assert disc.parity_delta == int(any(v.denominator != 1 for v in values))


def test_smith_normal_form_transforms():
    from k3mod.lattice import mat_mul
    m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1
    assert [d[i][i] for i in range(3)] == [2, 6, 12]
    rng = random.Random(17)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else b == 0


def test_orth_complement_in_e8():
    from k3mod import roots
    e8 = parse_lattice_expr("E8")
    a2 = (0, 1, 0, 0, 0, 0, 0, 0)
    e7, basis = orth_complement(e8, [a2])
    assert e7.rank == 7 and abs(e7.det) == 2
    assert roots.enumerate_roots(e7).count == 126
    # an A2 inside E8: two adjacent simple roots
    e6, _ = orth_complement(e8, [(0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 0)])
    assert e6.rank == 6 and abs(e6.det) == 3
    assert roots.enumerate_roots(e6).count == 72
    # an A3: a chain of three simple roots
    d5, _ = orth_complement(e8, [(0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0),
                                 (0, 0, 0, 0, 1, 0, 0, 0)])
    assert d5.rank == 5 and abs(d5.det) == 4
    assert roots.enumerate_roots(d5).count == 40


def test_orth_complement_is_primitive():
    e8 = parse_lattice_expr("E8")
    _sub, basis = orth_complement(e8, [(0, 1, 0, 0, 0, 0, 0, 0)])
    cols = [list(b) for b in basis]
    d, _u, _v = smith_normal_form(cols)
    divisors = [d[i][i] for i in range(min(len(cols), 8))]
    assert all(x == 1 for x in divisors if x)


def test_orth_complement_errors():
    u = parse_lattice_expr("U")
    with pytest.raises(LatticeError):
        orth_complement(u, [(1, 0), (0, 1)])
    with pytest.raises(LatticeError):
        orth_complement(u, [(1, 0), (2, 0)])


@pytest.mark.parametrize("vectors, message", [
    ([(1, 0), (0, 1)], "the vectors span the whole lattice"),
    ([(1, 0), (2, 0)], "vectors are not linearly independent"),
    ([(1, 0), (1, 0)], "vectors are not linearly independent"),
    ([(0, 0)], "vectors are not linearly independent"),
    ([(1, 0), (0, 1), (1, 1)], "vectors are not linearly independent"),
    ([], "need at least one vector"),
])
def test_orth_complement_error_messages(vectors, message):
    with pytest.raises(LatticeError, match=f"^{message}$"):
        orth_complement(parse_lattice_expr("U"), vectors)


def test_parser():
    lat = parse_lattice_expr("2U+2E8(-1)+<-10>")
    assert lat.rank == 21 and lat.det == -10
    assert parse_lattice_expr("U(2)").gram == ((0, 2), (2, 0))
    triple = parse_lattice_expr("E8+E8+E8")
    assert triple.rank == 24 and triple.det == 1
    assert parse_lattice_expr(" 2 U ").rank == 4
    assert parse_lattice_expr("4A(1)").rank == 4
    assert parse_lattice_expr("D(6)").det == 4


@pytest.mark.parametrize("bad", ["", "E5", "U+", "<0>", "2", "A(0)", "U)troll", "<x>",
                                 "U(0)", "E8(0)", "D(1)", "A(2"])
def test_parser_errors(bad):
    with pytest.raises(ParseError) as info:
        parse_lattice_expr(bad)
    assert 0 <= info.value.pos <= len(bad)
    if bad in ("", "U+", "2"):
        # input that ends where an atom should start
        assert info.value.pos == len(bad)
        assert str(info.value).startswith("expected a lattice atom")


def test_disc_of_direct_sum_matches_block_snf():
    s = parse_lattice_expr("A(2)+<-4>")
    disc = disc_group(s)
    prod = 1
    for f in disc.invariant_factors:
        prod *= f
    assert prod == abs(s.det) == 12
    d, _u, _v = smith_normal_form([list(r) for r in s.gram])
    snf_factors = tuple(d[i][i] for i in range(s.rank) if abs(d[i][i]) > 1)
    assert tuple(disc.invariant_factors) == snf_factors


def test_dual_vec_membership():
    u = parse_lattice_expr("U")
    dual_vector(u, (Fraction(1, 1), Fraction(0)))
    lat = parse_lattice_expr("<-4>")
    w = dual_vector(lat, (Fraction(1, 4),))
    assert (w.num, w.den) == ((1,), 4) and w.coords == (Fraction(1, 4),)
    assert w.norm() == Fraction(-1, 4)
    with pytest.raises(LatticeError):
        dual_vector(lat, (Fraction(1, 3),))
    with pytest.raises(LatticeError):
        lt.DualVec(lat, (1,), 3)
    with pytest.raises(LatticeError):
        lt.DualVec(lat, (1,), 0)
    with pytest.raises(LatticeError):
        w.pair(dual_vector(parse_lattice_expr("<-4>"), (Fraction(1, 4),)))


def test_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(LatticeError):
        lt.mat_mul([[1, 2]], [[1, 2]])
    with pytest.raises(LatticeError):
        lt.mat_mul([[1, 2], [3]], [[1], [2]])
    assert lt.mat_mul([[1, 2]], [[3], [4]]) == [[11]]
    assert lt.mat_mul([], []) == []


@pytest.mark.parametrize("call, args", [
    ("kernel_basis", ([],)),
    ("mat_mul", ([[1]], [])),
    ("mat_mul", ([[1, 1]], [[1, 2], [1]])),
    ("symmetric_bareiss", ([[]],)),
    ("symmetric_bareiss", ([[2, 1], [1]],)),
    ("IntLattice", ([],)),
    ("IntLattice", ([[2, 1], [1]],)),
])
def test_matrix_kernels_reject_empty_and_ragged_arguments(call, args):
    # a malformed matrix is a LatticeError, never a bare IndexError
    with pytest.raises(LatticeError):
        getattr(lt, call)(*args)


@pytest.mark.parametrize("build, sizes", [
    (lambda: make_l2d(5), [2, 2, 8, 8, 1]),
    (lambda: parse_lattice_expr("A(2)+A(4)+E6"), [2, 4, 6]),
    (lambda: parse_lattice_expr("E8"), [8]),
], ids=["make_l2d(5)", "A(2)+A(4)+E6", "E8"])
def test_each_expression_is_eliminated_once(monkeypatch, build, sizes):
    # the atoms are Gram blocks and the one IntLattice of the sum reduces each
    # orthogonal summand once: the calls are the summand sizes, and they sum
    # to the rank, so no basis vector is reduced twice
    calls = []
    bareiss = lt.symmetric_bareiss

    def counting(gram):
        calls.append(len(gram))
        return bareiss(gram)

    monkeypatch.setattr(lt, "symmetric_bareiss", counting)
    lat = build()
    assert calls == sizes and sum(calls) == lat.rank


def test_dynkin_grams_match_the_root_lattices():
    # A_n and D_n have det n + 1 and 4, E6, E7, E8 have det 3, 2, 1; each is definite
    for n in range(1, 9):
        assert parse_lattice_expr(f"A({n})").det == n + 1
    for n in range(2, 9):
        d = lt.root_lattice_d(n)
        assert d.name == f"D{n}" and d.det == 4 and d.signature == (n, 0)
        assert d.gram == parse_lattice_expr(f"D({n})").gram
    for n, det in ((6, 3), (7, 2), (8, 1)):
        e = lt.root_lattice_e(n)
        assert e.name == f"E{n}" and e.det == det and e.signature == (n, 0)
    with pytest.raises(LatticeError, match="needs n >= 2"):
        lt.root_lattice_d(1)
    with pytest.raises(LatticeError, match="needs n in"):
        lt.root_lattice_e(5)


def test_names_are_set_at_construction():
    assert make_l2d(3).name == "L_6"
    assert parse_lattice_expr(" 2U + E8(-1) ").name == "2U+E8(-1)"
    assert parse_lattice_expr("E8").gram == lt.root_lattice_e(8).gram
