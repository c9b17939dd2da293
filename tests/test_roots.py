import random

import pytest

from k3mod import e8
from k3mod.lattice import LatticeError, inner, parse_lattice_expr
from k3mod.roots import (
    IndefiniteError, count_orth_roots,
    enumerate_norm_vectors, enumerate_roots, norm_counts,
)

from exact_references import SIMPLE_ROOTS_2X, bouquet_decomposition, to_2x


ROOT_COUNTS = {
    "E8": 240, "E7": 126, "E6": 72, "D(8)": 112, "D(6)": 60, "D(5)": 40,
    "A(2)": 6, "A(3)": 12, "4A(1)": 8, "A(1)+A(2)": 8, "2A(1)+A(2)": 10,
}


@pytest.mark.parametrize("expr,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(expr, count):
    assert enumerate_roots(parse_lattice_expr(expr)).count == count


def test_roots_closed_under_negation_and_sorted():
    data = enumerate_roots(parse_lattice_expr("D(4)"))
    coords = set(data.coords)
    assert all(tuple(-c for c in r) in coords for r in coords)
    assert list(data.coords) == sorted(data.coords)
    assert all(inner(data.lattice, r, r) == 2 for r in data.coords)


def test_enumerate_norm_vectors():
    lat = e8.lattice()
    assert enumerate_norm_vectors(lat, 2) == 240
    assert enumerate_norm_vectors(lat, 4) == 2160
    assert enumerate_norm_vectors(lat, 3) == 0  # odd norm on an even lattice
    visited = []
    enumerate_norm_vectors(lat, 2, lambda c, n: visited.append((c, n)))
    assert len(visited) == 240 and all(n == 2 for _c, n in visited)


def test_indefinite_rejected():
    u = parse_lattice_expr("U")
    with pytest.raises(IndefiniteError):
        enumerate_roots(u)


@pytest.mark.parametrize("expr", ["<2>+<-2>", "A(2)+U", "E8+<-2>"])
def test_indefinite_forms_with_nonzero_first_pivots_are_rejected(expr):
    # "A(2)+U" pivots at its third step; the form check reads the minors after the pass
    with pytest.raises(IndefiniteError):
        enumerate_roots(parse_lattice_expr(expr))


def test_negative_definite_normalised():
    e8m = parse_lattice_expr("E8(-1)")
    assert enumerate_roots(e8m).count == 240


def test_norm_counts_matches_exact():
    lat = parse_lattice_expr("D(5)")
    hist = norm_counts(lat, 8)
    for n in range(1, 9):
        assert hist[n] == enumerate_norm_vectors(lat, n)


def test_e8_counts_follow_sigma3():
    # classical identity N(2n) = 240 sigma_3(n), checked against brute force
    from k3mod.qseries import theta_brute
    series = theta_brute(e8.lattice(), 20)
    for n in range(1, 21):
        sigma3 = sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
        assert series.coeff(n) == 240 * sigma3


def test_count_orth_roots_basics():
    lat = e8.lattice()
    assert count_orth_roots(lat, (0,) * 8) == 240
    a2 = (0, 1, 0, 0, 0, 0, 0, 0)
    assert count_orth_roots(lat, a2) == 126
    rng = random.Random(11)
    for _ in range(20):
        v = tuple(rng.randint(-3, 3) for _ in range(8))
        n = count_orth_roots(lat, v)
        assert n % 2 == 0
        assert n == count_orth_roots(lat, tuple(-c for c in v))


def test_count_orth_roots_table_vectors():
    from k3mod import search as se
    lat = e8.lattice()
    v = e8.alpha_from_2x(se.embed_case1(1, 2, 4, 5))
    assert count_orth_roots(lat, v) == 12
    v = e8.alpha_from_2x(se.embed_case2(1, 2, 3, 10))
    assert count_orth_roots(lat, v) == 10


def test_count_orth_roots_2x_needs_8_coordinates():
    # a non-integer coordinate is one of the acceptance tests' TypeError cases
    for bad in ((0,) * 7, (0,) * 9, ()):
        with pytest.raises(LatticeError, match="8 doubled e-coordinates"):
            e8.count_orth_roots_2x(bad)
    # any integer sequence of length 8 is read as a tuple
    assert e8.count_orth_roots_2x([0] * 6 + [2, 2]) == e8.count_orth_roots_2x((0,) * 6 + (2, 2))


def test_e_chart_conversions_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        alpha = tuple(rng.randint(-4, 4) for _ in range(8))
        vec2x = to_2x(alpha)
        assert e8.alpha_from_2x(vec2x) == alpha
        assert e8.dot2x(vec2x, vec2x) == inner(e8.lattice(), alpha, alpha)


def test_weights_are_dual_to_simple_roots():
    for i, w in enumerate(e8.WEIGHTS_2X):
        for j, a in enumerate(SIMPLE_ROOTS_2X):
            assert e8.dot2x(w, a) == (1 if i == j else 0)


def test_roots_2x_table():
    table = e8.roots_2x()
    assert len(table) == 240
    assert all(e8.dot2x(r, r) == 2 for r in table)
    assert all(e8.in_e8_2x(r) for r in table)
    # agrees with the generic enumeration through the chart
    alpha_roots = {to_2x(c) for c in enumerate_roots(e8.lattice()).coords}
    assert alpha_roots == set(table)


@pytest.mark.parametrize("seed", range(2))
def test_bouquet_decomposition(seed):
    lat = e8.lattice()
    data = enumerate_roots(lat)
    rng = random.Random(seed)
    for a in rng.sample(list(data.coords), 5):
        x, triples = bouquet_decomposition(lat, a)
        assert len(x) == 114
        assert len(triples) == 28
        pm_a = {tuple(a), tuple(-c for c in a)}
        for i in range(28):
            assert len(triples[i]) == 6
            for j in range(i + 1, 28):
                assert triples[i] & triples[j] == pm_a


def _span_rank_2x(vectors):
    from k3mod.lattice import smith_normal_form
    d, _u, _v = smith_normal_form([list(v) for v in vectors])
    return sum(1 for i in range(min(len(vectors), 8)) if d[i][i] != 0)


def test_a2_sums_give_a3_and_a4_or_d4():
    # two A2 subsystems through a common root span an A3 with exactly one
    # root pair orthogonal to the common root; three span an A4 (20 roots)
    # or D4 (24 roots) with exactly six such roots
    table = e8.roots_2x()
    a = table[0]
    partners = [c for c in table if sum(x * y for x, y in zip(a, c)) // 4 == -1]
    rng = random.Random(1)
    for _ in range(6):
        c, d = rng.sample(partners, 2)
        if _span_rank_2x([a, c, d]) != 3:
            continue
        in_span = [r for r in table if _span_rank_2x([a, c, d, r]) == 3]
        assert len(in_span) == 12
        orth = [r for r in in_span if sum(x * y for x, y in zip(a, r)) == 0]
        assert len(orth) == 2
    for _ in range(6):
        c, d, f = rng.sample(partners, 3)
        if _span_rank_2x([a, c, d, f]) != 4:
            continue
        in_span = [r for r in table if _span_rank_2x([a, c, d, f, r]) == 4]
        assert len(in_span) in (20, 24)
        orth = [r for r in in_span if sum(x * y for x, y in zip(a, r)) == 0]
        assert len(orth) == 6
