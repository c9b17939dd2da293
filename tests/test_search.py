import gc
import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import factorial, isqrt

import pytest

from k3mod import e8, roots
from k3mod import lattice as lt
from k3mod import qseries as qs
from k3mod import search as se
from k3mod.lattice import LatticeError

from exact_references import SIMPLE_ROOTS_2X, cholesky, to_2x


def test_embeddings_and_norms():
    v = se.embed_case1(1, 2, 4, 5)
    assert e8.dot2x(v, v) == 92
    v = se.embed_case2(1, 2, 3, 10)
    assert e8.dot2x(v, v) == 116
    v = se.embed_case3(2, 3, 5, 6, 8)
    assert e8.dot2x(v, v) == 138
    v = se.embed_case4(1, 3, 4, 5, -7, 6)
    assert e8.dot2x(v, v) == 136
    with pytest.raises(LatticeError):
        se.embed_case2(1, 2, 3, 9)  # odd sum
    with pytest.raises(LatticeError):
        se.embed_case3(1, 2, 3, 4, 5)  # odd sum
    with pytest.raises(LatticeError):
        se.embed_case4(1, 3, 4, 5, -7, 8)  # m8 != sum


def test_embedded_vectors_live_in_e8():
    assert e8.in_e8_2x(se.embed_case1(1, 2, 4, 5))
    assert e8.in_e8_2x(se.embed_case2(3, 2, 5, 8))
    assert e8.in_e8_2x(se.embed_case3(1, 3, 3, 4, 7))
    assert e8.in_e8_2x(se.embed_case4(1, 1, 2, 3, -8, -1))


def test_predicate_case1():
    assert se.predicate_case1((1, 2, 4, 5)) == 12   # 1 + 4 = 5
    assert se.predicate_case1((1, 2, 4, 8)) == 8
    assert se.predicate_case1((1, 2, 3, 4)) is None  # two relations
    assert se.predicate_case1((1, 2, 2, 5)) is None  # repeated value
    assert se.predicate_case1((0, 2, 4, 8)) is None


def test_predicate_case2():
    assert se.predicate_case2((1, 2, 3, 10)) == 10
    assert se.predicate_case2((1, 2, 3, 8)) == 14   # 3 = -2 - 3 + 8
    assert se.predicate_case2((2, 2, 3, 9)) is None
    assert se.predicate_case2((2, 1, 3, 10)) == 14  # 6 = -1 - 3 + 10
    assert se.predicate_case2((1, 6, 7, 8)) == 10


def test_predicate_case3():
    assert se.predicate_case3((2, 3, 5, 6, 8)) == 12
    assert se.predicate_case3((1, 3, 3, 4, 7)) == 14
    assert se.predicate_case3((1, 1, 1, 2, 3)) is None
    assert se.predicate_case3((1, 2, 3, 4, 10)) is None  # 1+2+3+4 = 10


def test_case4_counts():
    claim, embed = se.FAMILIES["IV"]
    for ms, want in (((1, 3, 4, 5, -7), 12),   # subset 3+4-7 = 0
                     ((1, 1, 2, 3, 5), 10),    # pair m3 = m4
                     ((1, 1, 2, 3, -8), 14),
                     ((2, 3, 4, 5, -8), 12)):
        assert claim(ms) == want, ms
        assert e8.count_orth_roots_2x(embed(ms)) == want, ms


def test_case4_degenerate_tuples_match_oracle():
    rng = random.Random(4)
    for _ in range(60):
        ms = tuple(rng.randint(-4, 4) for _ in range(5))
        assert se.case4_formula_count(ms) == e8.count_orth_roots_2x(
            se.embed_case4(*ms, sum(ms))), ms


@pytest.mark.parametrize("case", se.CASES)
def test_predicate_oracle_equivalence_small(case):
    # acceptance runs d <= 150; keep a fast slice here
    claim, embed = se.FAMILIES[case]
    for d in range(1, 61):
        for ms in se.iter_case_tuples(case, d):
            claimed = claim(ms)
            if claimed is None:
                continue
            assert e8.count_orth_roots_2x(embed(ms)) == claimed, (case, ms)


def test_counts_invariant_under_signs_and_permutations():
    # the canonical enumeration domains rely on the orthogonal-root count
    # depending only on the multiset of absolute values (cases I-III)
    rng = random.Random(9)
    for _ in range(40):
        ms = sorted(rng.sample(range(1, 12), 4))
        base = e8.count_orth_roots_2x(se.embed_case1(*ms))
        for _ in range(3):
            perm = rng.sample(ms, 4)
            signs = [rng.choice((1, -1)) for _ in range(4)]
            variant = tuple(s * m for s, m in zip(signs, perm))
            assert e8.count_orth_roots_2x(se.embed_case1(*variant)) == base
    for _ in range(40):
        m5 = rng.randint(1, 6)
        rest = rng.sample(range(1, 13), 3)
        if (m5 + sum(rest)) % 2:
            continue
        base = e8.count_orth_roots_2x(se.embed_case2(m5, *rest))
        for _ in range(3):
            perm = rng.sample(rest, 3)
            signs = [rng.choice((1, -1)) for _ in range(3)]
            variant = [s * m for s, m in zip(signs, perm)]
            assert e8.count_orth_roots_2x(se.embed_case2(m5, *variant)) == base


def test_structured_search_examples():
    hits = se.structured_search(46, "I", {8, 12})
    assert se.embed_case1(1, 2, 4, 5) in [h.coords2x for h in hits]
    hits = se.structured_search(61, "II", {14})
    assert se.embed_case2(2, 1, 3, 10) in [h.coords2x for h in hits]
    assert se.structured_search(2, "I", {8, 12}) == []


def test_structured_hits_are_verified_and_sorted():
    hits = se.structured_search_all(85, targets=range(2, 15))
    assert hits == sorted(hits, key=se.SearchHit.sort_key)
    for h in hits:
        assert e8.dot2x(h.coords2x, h.coords2x) == 2 * h.d
        alpha = e8.alpha_from_2x(h.coords2x)
        assert roots.count_orth_roots(e8.lattice(), alpha) == h.n_l
        assert h.weight == 12 + h.n_l // 2


def test_inequalities():
    assert se.check_mineq(1) is False and se.check_mineqd(1) is False
    assert se.check_mineqd(96) is True
    assert se.check_mineq(238) is True
    # inequalities hold for every degree up to 240 outside the negative set
    pex = set(se.compute_pex(240))
    for d in range(1, 241):
        if d not in pex:
            assert se.check_mineq(d) or se.check_mineqd(d), d


def _pex_by_series(max_m):
    """The negative q^m coefficients of 5 theta_E7 - 28 theta_E6 - 63 theta_D6
    - 378 theta_D5, combined on the coefficient lists."""
    combo = [5 * a - 28 * b - 63 * c - 378 * e for a, b, c, e in zip(
        qs.theta_e7(max_m).coeffs, qs.named_theta("E6", max_m).coeffs,
        qs.theta_dn(6, max_m).coeffs, qs.theta_dn(5, max_m).coeffs)]
    return [m for m in range(1, max_m + 1) if combo[m] < 0]


@pytest.mark.parametrize("max_m", [0, 1, 240, 600])
def test_pex_matches_the_series_combination(monkeypatch, max_m):
    monkeypatch.setattr(lt, "_grown_tables", {})
    assert se.compute_pex(max_m) == _pex_by_series(max_m)


def test_inequalities_match_the_written_out_formulas():
    for d in range(1, 2001):
        e7, e6, d6, d5 = (qs.rep_num(name, 2 * d) for name in ("E7", "E6", "D6", "D5"))
        assert se.check_mineq(d) == (4 * e7 > 28 * e6 + 63 * d6), d
        assert se.check_mineqd(d) == (5 * e7 > 28 * e6 + 63 * d6 + 378 * d5), d


def test_pex_reproduction():
    pex = set(se.compute_pex(240))
    want = set(range(1, 101)) - {96}
    want |= {m for m in range(101, 128) if m % 2}
    want |= {110, 131, 137, 143}
    assert pex == want


def _exhaustive_by_stream(d):
    """The orbit scan's reference: every l in E8 with l^2 = 2d, one by one.
    Returns the least (N_l, l) with 2 <= N_l <= 14, or None; small d only."""
    best = None

    def visit(coords, _norm):
        nonlocal best
        vec = to_2x(coords)
        n_l = e8.count_orth_roots_2x(vec)
        if 2 <= n_l <= 14 and (best is None or (n_l, vec) < best):
            best = (n_l, vec)

    roots.enumerate_norm_vectors(e8.lattice(), 2 * d, visit)
    return best


def test_exhaustive_search_small():
    for d in (1, 2, 3):
        assert se.exhaustive_search(d) is None
    # orbit scan and full stream agree where the stream is affordable
    for d in (1, 2, 3, 4):
        a = se.exhaustive_search(d)
        b = _exhaustive_by_stream(d)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.n_l == b[0]


# Weyl group orders and root counts of the connected Dynkin diagrams inside E8
def _weyl_order_and_roots(kind, n):
    if kind == "A":
        return factorial(n + 1), n * (n + 1)
    if kind == "D":
        return 2 ** (n - 1) * factorial(n), 2 * n * (n - 1)
    return {6: (51840, 72), 7: (2903040, 126), 8: (696729600, 240)}[n]


def _dynkin_type(nodes, edges):
    """(kind, rank) of a connected sub-diagram of the E8 diagram: a path is
    A_n; a branch node with two arms of length 1 is D_n, otherwise E_n."""
    degree = {v: sum(1 for e in edges if v in e) for v in nodes}
    centre = next((v for v in nodes if degree[v] == 3), None)
    if centre is None:
        return "A", len(nodes)
    short_arms = sum(1 for e in edges if centre in e for v in e if degree[v] == 1)
    return ("D" if short_arms >= 2 else "E"), len(nodes)


def _stabiliser(weight_coords):
    """|W_S| and the root count of S, the sub-diagram on the zero coordinates."""
    simple = SIMPLE_ROOTS_2X
    zero = [i for i, c in enumerate(weight_coords) if c == 0]
    edges = [{i, j} for i, j in itertools.combinations(zero, 2)
             if e8.dot2x(simple[i], simple[j]) == -1]
    order, n_roots, left = 1, 0, set(zero)
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            v = todo.pop()
            comp.add(v)
            todo.extend(w for e in edges if v in e for w in e if w not in comp)
        left -= comp
        w_order, r = _weyl_order_and_roots(
            *_dynkin_type(comp, [e for e in edges if e <= comp]))
        order *= w_order
        n_roots += r
    return order, n_roots


def _dominant_by_fractions(norm):
    """The orbit scan's reference walk: the same dominant chamber, walked on
    the rational square completion of the weight form with Fraction bounds."""
    _sign, q, u = cholesky(e8.weight_gram())
    x = [0] * 8
    out = []

    def rec(i, budget):
        c = sum(u[i][j] * x[j] for j in range(i + 1, 8))
        if i == 0:
            s = budget / q[0]
            rn, rd = isqrt(s.numerator), isqrt(s.denominator)
            if rn * rn != s.numerator or rd * rd != s.denominator:
                return
            for y in {Fraction(rn, rd), Fraction(-rn, rd)}:
                v = y - c
                if v.denominator == 1 and v >= 0:
                    x[0] = int(v)
                    out.append(tuple(sum(ci * w[t] for ci, w in zip(x, e8.WEIGHTS_2X))
                                     for t in range(8)))
            x[0] = 0
            return
        hi = int(Fraction(isqrt(int(budget / q[i])) + 1) - c)
        while hi >= 0 and q[i] * (hi + c) ** 2 > budget:
            hi -= 1
        for xi in range(0, hi + 1):
            x[i] = xi
            rec(i - 1, budget - q[i] * (xi + c) ** 2)
        x[i] = 0

    rec(7, Fraction(norm))
    out.sort()
    return out


def test_integer_orbit_scan_matches_the_fraction_walk():
    for d in range(1, 26):
        assert e8.dominant_2x(2 * d) == _dominant_by_fractions(2 * d), d


def _check_orbit_sum(d):
    # sum over dominant x of |W(E8)| / |W_S(x)| = N_E8(2d) = 240 sigma_3(d)
    # (Conway-Sloane, SPLAG ch. 4); the stabiliser of a dominant x is the
    # parabolic subgroup on its zero weight coordinates
    w_e8 = 696729600
    vectors = e8.dominant_2x(2 * d)
    assert len(vectors) == len(set(vectors)), d
    orbit_sum = 0
    for vec in vectors:
        x = [e8.dot2x(vec, a) for a in SIMPLE_ROOTS_2X]
        assert min(x) >= 0 and e8.dot2x(vec, vec) == 2 * d, vec
        order, n_roots = _stabiliser(x)
        assert e8.count_orth_roots_2x(vec) == n_roots, vec
        orbit_sum += w_e8 // order
    assert orbit_sum == 240 * sum(t ** 3 for t in range(1, d + 1) if d % t == 0), d


def test_orbit_scan_misses_no_orbit():
    # d = 1..61 covers every degree whose verdict rests on the scan
    for d in range(1, 62):
        _check_orbit_sum(d)


@pytest.mark.parametrize("d", [62, 77, 100, 128, 150])
def test_orbit_scan_misses_no_orbit_past_the_pinned_degrees(d):
    # larger norms, where most levels of the cone walk have an empty range
    _check_orbit_sum(d)


def test_orbit_scan_solves_the_widest_weight_at_the_leaf(monkeypatch):
    # the cone walk takes w1 outermost and solves w8 (norm 2, the widest
    # range) at the leaf; with w8 outermost, in Coxeter order, it made
    # 113,618 leaf calls over d = 1..61
    walk = roots._walk
    calls = 0

    def counted_walk(lat, target, x, leaf, *args):
        def counted_leaf(*leaf_args):
            nonlocal calls
            calls += 1
            leaf(*leaf_args)
        walk(lat, target, x, counted_leaf, *args)

    monkeypatch.setattr(roots, "_walk", counted_walk)
    for d in range(1, 62):
        e8.dominant_2x(2 * d)
    assert 0 < calls <= 113618 // 3


def test_cone_walk_does_no_centre_work_on_an_empty_level(monkeypatch):
    # a level with hi < lo returns before it computes the next level's
    # centre; when every level computed it, the cone walks over d = 1..61
    # took 856,864 centre products
    products = 0

    def counted_mul(a, b):
        nonlocal products
        products += 1
        return a * b

    monkeypatch.setattr(roots, "mul", counted_mul)
    for d in range(1, 62):
        e8.dominant_2x(2 * d)
    assert 0 < products <= 856864 // 3


def test_exhaustive_search_hits():
    hit = se.exhaustive_search(46)
    assert hit is not None and 2 <= hit.n_l <= 12
    hit40 = se.exhaustive_search(40)
    assert hit40 is not None and hit40.n_l == 14
    # the scan runs at every degree, 151 included
    hit151 = se.exhaustive_search(151)
    assert hit151.n_l == 6 and hit151.coords2x == (-1, 1, 3, 3, 5, 5, 7, 33)


def test_verdict_scans_where_no_family_reaches(monkeypatch):
    monkeypatch.setattr(se, "_family_stream", lambda case, d: iter(()))
    v = se.kodaira_verdict(151)
    assert v.kind == se.GENERAL_TYPE
    assert v.witness.source == "exhaustive" and v.witness.n_l == 6


def _last_claimed_tuple(case, d):
    claim, _embed = se.FAMILIES[case]
    return [ms for ms in se.iter_case_tuples(case, d) if claim(ms) is not None][-1]


def test_wrong_family_claim_stops_the_verdict(monkeypatch):
    # the last claimed tuple of family IV at d = 151, claimed 2 roots too
    # many: the verdict reads every tuple, so it cannot miss the claim
    d = 151
    claim, embed = se.FAMILIES["IV"]
    bad = _last_claimed_tuple("IV", d)
    monkeypatch.setitem(se.FAMILIES, "IV",
                        (lambda ms: claim(ms) + 2 if ms == bad else claim(ms), embed))
    with pytest.raises(RuntimeError, match=r"case IV rules claim \d+ orthogonal roots"):
        se.kodaira_verdict(d)
    with pytest.raises(RuntimeError, match=r"case IV rules claim"):
        se.structured_search(d, "IV", range(2, 13))


def test_wrong_family_norm_stops_the_verdict(monkeypatch):
    d = 151
    claim, embed = se.FAMILIES["IV"]
    bad = _last_claimed_tuple("IV", d)

    def moved(ms):
        vec = embed(ms)
        return vec[:-1] + (vec[-1] + 4,) if ms == bad else vec

    monkeypatch.setitem(se.FAMILIES, "IV", (claim, moved))
    with pytest.raises(RuntimeError, match=r"square sum \d+ in doubled coordinates, "
                                           r"expected 8d = 1208"):
        se.kodaira_verdict(d)
    with pytest.raises(RuntimeError, match=r"has square sum"):
        se.structured_search(d, "IV", {8})


def _verdict_by_sorted_hits(d):
    """The verdict before the best-key table: every family hit built and
    sorted, and the first hit with N_l <= 12 or N_l = 14 taken."""
    mineq, mineqd = se.check_mineq(d), se.check_mineqd(d)
    hits = se.structured_search_all(d, targets=range(2, 15))
    witness = next((h for h in hits if h.n_l <= 12), None)
    best14 = next((h for h in hits if h.n_l == 14), None)
    if witness is None:
        ex = se.exhaustive_search(d)
        if ex is not None:
            if ex.n_l <= 12:
                witness = ex
            elif best14 is None:
                best14 = ex
    return se.Verdict(d, best14 if witness is None else witness, mineq, mineqd)


def test_running_minima_match_the_sorted_hits():
    for d in range(1, 201):
        assert se.kodaira_verdict(d).to_dict() == _verdict_by_sorted_hits(d).to_dict(), d


def test_verdict_kind_is_computed_from_the_witness():
    def verdict(n_l):
        return se.Verdict(1, se.SearchHit(1, (2, 2) + (0,) * 6, n_l, "case1"), False, False)

    for n_l in (2, 8, 12):
        assert verdict(n_l).kind == se.GENERAL_TYPE
    assert verdict(14).kind == se.NONNEGATIVE_KODAIRA
    assert se.Verdict(1, None, False, False).kind == se.UNKNOWN
    for n_l in (0, 1, 13, 16, 126):
        with pytest.raises(ValueError, match="decides no verdict"):
            verdict(n_l)


def test_equal_keys_keep_the_first_family(monkeypatch):
    # families yield equal (N_l, coords2x) at some degrees; the sorted hits
    # kept the first family in CASES order, and so must the best-key table
    vec = se.embed_case1(1, 2, 4, 5)
    monkeypatch.setattr(se, "_family_stream", lambda case, d: iter([(12, vec)]))
    assert se.kodaira_verdict(46).witness.source == "caseI"


def test_equal_keys_go_by_cases_order_not_by_read_order(monkeypatch):
    # the verdict reads IV before III, yet an equal (12, vec) from both
    # goes to III, the first of the two in CASES
    vec = se.embed_case3(2, 3, 5, 6, 8)
    monkeypatch.setattr(se, "_family_stream",
                        lambda case, d: iter([(12, vec)] if case in ("III", "IV") else []))
    assert se.kodaira_verdict(69).witness.source == "caseIII"


def test_every_claim_reaches_its_family_floor():
    # the verdict skips a family whose floor lies above the N_l it holds;
    # the floors are the least claims of every family at d <= 400
    for case in se.CASES:
        claim = se.FAMILIES[case][0]
        least = min(n for d in range(1, 401) for ms in se.iter_case_tuples(case, d)
                    if (n := claim(ms)) is not None)
        assert least == se.FLOORS[case], case


def test_a_claim_below_its_family_floor_stops_the_stream(monkeypatch):
    # rule and oracle agree on 6 for family II's last claimed tuple at
    # d = 100, so only the floor check can stop it
    d = 100
    claim, embed = se.FAMILIES["II"]
    bad = _last_claimed_tuple("II", d)
    bad_key = sorted(map(abs, embed(bad)))
    oracle = e8.count_orth_roots_2x
    monkeypatch.setitem(se.FAMILIES, "II", (lambda ms: 6 if ms == bad else claim(ms), embed))
    monkeypatch.setattr(e8, "count_orth_roots_2x",
                        lambda v: 6 if sorted(map(abs, v)) == bad_key else oracle(v))
    with pytest.raises(RuntimeError, match=r"case II claims 6 orthogonal roots for "
                                           r"\(.*\), below the family floor 10"):
        list(se._family_stream("II", d))
    with pytest.raises(RuntimeError, match="below the family floor"):
        se.kodaira_verdict(d)


@pytest.mark.parametrize("d, read", [(62, ["I", "IV", "II", "III"]),
                                     (151, ["I", "IV"]), (400, ["I", "IV"])])
def test_the_verdict_skips_the_families_above_the_held_witness(monkeypatch, d, read):
    stream = se._family_stream
    seen = []

    def recorded(case, d):
        seen.append(case)
        return stream(case, d)

    monkeypatch.setattr(se, "_family_stream", recorded)
    assert se.kodaira_verdict(d).kind == se.GENERAL_TYPE
    assert seen == read


def test_families_ii_and_iii_hold_their_claims_from_62_to_400():
    # the verdict skips II and III at most of these degrees, so their
    # streams (norm, oracle count and floor of every claim) are drained here
    drained = {case: sum(1 for d in range(62, 401) for _ in se._family_stream(case, d))
               for case in ("II", "III")}
    assert min(drained.values()) > 1000, drained


@pytest.mark.parametrize("case, top", [("I", 400), ("II", 400), ("III", 400), ("IV", 200)])
def test_each_family_stream_ascends_in_coords2x(case, top):
    # every generator yields its tuples in lexicographic order, and each
    # embedding keeps that order on the doubled coordinates; an early exit
    # from a stream at the first vector past a bound rests on this
    for d in range(1, top + 1):
        vecs = [vec for _, vec in se._family_stream(case, d)]
        assert all(a < b for a, b in zip(vecs, vecs[1:])), (case, d)


@pytest.mark.parametrize("d", [43, 51, 55, 56])
def test_a_family_n14_witness_beats_a_smaller_scan_key(d):
    # no family decides general type here, so the scan runs; its N_l = 14
    # key is smaller than family IV's, yet the family's witness is kept (a
    # plain minimum over families and scan would take the scan's)
    ex = se.exhaustive_search(d)
    v = se.kodaira_verdict(d)
    assert v.kind == se.NONNEGATIVE_KODAIRA
    assert ex.n_l == 14 and ex.sort_key() < v.witness.sort_key()
    assert v.witness.source == "caseIV"


@pytest.mark.parametrize("d, n_l", [(46, 12), (50, 12), (100, 10), (151, 8), (400, 8)])
def test_the_scan_stays_idle_where_a_family_decides(monkeypatch, d, n_l):
    def no_scan(d):
        raise AssertionError("the orbit scan ran")

    monkeypatch.setattr(se, "exhaustive_search", no_scan)
    v = se.kodaira_verdict(d)
    assert v.kind == se.GENERAL_TYPE
    assert (v.witness.source, v.witness.n_l) == ("caseIV", n_l)


def test_class_memoised_count_matches_the_closed_form():
    # the stream's count is memoised on sorted(|v_i|); it must equal the
    # closed form on every vector it yields
    seen = 0
    for d in range(1, 151):
        for case in se.CASES:
            for n_l, vec in se._family_stream(case, d):
                assert 0 in vec and n_l == e8.count_orth_roots_2x(vec), (case, vec)
                seen += 1
    assert seen > 10000


def test_every_family_vector_has_e1_e2_zero():
    # the class memo of `_family_stream` needs a zero coordinate; every
    # tuple's vector, claimed or not, has two
    for case in se.CASES:
        embed = se.FAMILIES[case][1]
        for d in range(1, 151):
            for ms in se.iter_case_tuples(case, d):
                assert embed(ms)[:2] == (0, 0), (case, d, ms)


def test_family_vector_without_a_zero_is_an_internal_error(monkeypatch):
    # (1, ..., 1) has square sum 8 = 8d at d = 1, so only the memo key is wrong
    monkeypatch.setitem(se.FAMILIES, "IV", (lambda ms: 0, lambda ms: (1,) * 8))
    with pytest.raises(RuntimeError, match="has no zero coordinate"):
        list(se._family_stream("IV", 1))


def test_verdicts():
    assert se.kodaira_verdict(100).kind == se.GENERAL_TYPE
    v57 = se.kodaira_verdict(57)
    assert v57.kind == se.GENERAL_TYPE and v57.witness.n_l <= 12
    v40 = se.kodaira_verdict(40)
    assert v40.kind == se.NONNEGATIVE_KODAIRA and v40.witness.n_l == 14
    for d in (41, 44, 45, 47):
        assert se.kodaira_verdict(d).kind == se.UNKNOWN
    assert se.kodaira_verdict(1).kind == se.UNKNOWN


def test_verdict_is_deterministic():
    a = se.kodaira_verdict(63).to_dict()
    b = se.kodaira_verdict(63).to_dict()
    assert a == b


def test_table_rows_validate():
    for which in ("I", "II-10", "II-14", "III", "IV"):
        rows = se.table_rows(which)
        assert rows
        for d, tup, n_l in rows:
            assert isinstance(tup, str) and n_l in (8, 10, 12, 14)
    assert len(se.table_rows("I")) == 40


def test_table_degrees_recovered_by_search():
    # every printed family-I degree is found by the structured search with
    # the same sorted tuple among its hits
    for d, ms in se.TABLE_I[:10]:
        hits = se.structured_search(d, "I", {8, 12})
        assert se.embed_case1(*ms) in [h.coords2x for h in hits]


def _case4_canonical(ms, m8):
    """Global-sign normalisation of a family-IV tuple: keep the representative
    with m8 > 0, or the lexicographically smaller sorted tuple when m8 == 0."""
    if m8 > 0:
        return True
    if m8 < 0:
        return False
    return ms <= tuple(sorted(-m for m in ms))


def test_case4_canonical_covers_global_sign():
    count = 0
    for ms in se.iter_case_tuples("IV", 40):
        m8 = sum(ms)
        assert _case4_canonical(ms, m8)
        count += 1
    assert count > 0


def test_search_hit_serialization():
    hit = se.structured_search(46, "I", {8, 12})[0]
    d = hit.to_dict()
    assert d["d"] == 46 and d["N_l"] == hit.n_l and d["weight"] == hit.weight
    assert d["source"] == "caseI"


# -- the closed-form E8 root count against a 240-root scan ---------------------

def _scan_roots_2x():
    """The 240 roots in doubled e-coordinates, built here independently."""
    out = []
    for i, j in itertools.combinations(range(8), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            out.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            out.append(signs)
    return out


_SCAN_ROOTS = _scan_roots_2x()


def _scan_count(vec2x):
    return sum(1 for r in _SCAN_ROOTS if sum(x * y for x, y in zip(r, vec2x)) == 0)


def test_closed_form_root_count_on_short_vectors():
    assert len(_SCAN_ROOTS) == 240
    vectors = []
    for norm in (2, 4):
        roots.enumerate_norm_vectors(e8.lattice(), norm, lambda c, _n: vectors.append(c))
    assert len(vectors) == 240 + 2160
    for alpha in vectors + [(0,) * 8]:
        vec = to_2x(alpha)
        assert e8.count_orth_roots_2x(vec) == _scan_count(vec), alpha


def test_closed_form_root_count_on_seeded_vectors():
    # doubled coordinates of one parity drawn from few absolute values, so
    # zeros, repeated |v_i| and vanishing signed sums are common; the count
    # is defined for every integer vector, about half of these lie in E8
    rng = random.Random(17)
    in_e8 = 0
    for _ in range(3000):
        parity = rng.choice((0, 1))
        pool = [rng.choice((0, 0, 1, 2, 3, 5, 7)) for _ in range(rng.randint(1, 4))]
        vec = tuple(rng.choice((1, -1)) * (2 * rng.choice(pool) + parity) for _ in range(8))
        assert e8.count_orth_roots_2x(vec) == _scan_count(vec), vec
        in_e8 += e8.in_e8_2x(vec)
    assert in_e8 > 1000


# -- the family-IV generator against the 5-level leaf loop it replaced ---------

def _case4_tuples_by_leaf_loop(d):
    """Family-IV tuples by looping over m7 too and testing the norm at the leaf."""
    two_d = 2 * d
    bound = isqrt(two_d)

    def rec(prefix, lo, sq):
        k = len(prefix)
        if k == 5:
            m8 = sum(prefix)
            if sq + m8 * m8 == two_d and _case4_canonical(prefix, m8):
                yield prefix
            return
        for m in range(lo, bound + 1):
            nsq = sq + m * m
            if nsq + (4 - k) * m * m > two_d and m > 0:
                break
            if nsq <= two_d:
                yield from rec(prefix + (m,), m, nsq)

    return list(rec((), -bound, 0))


@pytest.mark.parametrize("ds", [range(1, 81), (151, 200, 257, 333, 400)],
                         ids=["d<=80", "d>150"])
def test_case4_generator_matches_leaf_loop(ds):
    total = 0
    for d in ds:
        got = list(se.iter_case_tuples("IV", d))
        assert len(got) == len(set(got)), d
        assert set(got) == set(_case4_tuples_by_leaf_loop(d)), d
        assert all(sum(m * m for m in ms) + sum(ms) ** 2 == 2 * d for ms in got)
        total += len(got)
    assert total > 0


def test_search_hit_rejects_wrong_norm():
    vec = se.embed_case1(1, 2, 4, 5)  # norm 92, d = 46
    assert se.SearchHit(46, vec, 12, "caseI").n_l == 12
    with pytest.raises(LatticeError):
        se.SearchHit(47, vec, 12, "caseI")


@pytest.mark.parametrize("d", [0, -3])
def test_nonpositive_degree_is_rejected(d):
    for case in se.CASES:
        with pytest.raises(LatticeError, match="d must be positive"):
            se.iter_case_tuples(case, d)
        with pytest.raises(LatticeError, match="d must be positive"):
            se.structured_search(d, case, range(2, 13))


def test_unknown_case_or_table_is_a_value_error():
    with pytest.raises(ValueError, match="unknown case 'V'"):
        se.structured_search(10, "V", range(2, 13))
    with pytest.raises(ValueError, match="unknown case 'V'"):
        se.iter_case_tuples("V", 10)
    with pytest.raises(ValueError, match="unknown table 'V'"):
        se.table_rows("V")


@pytest.mark.parametrize("row, message", [
    ((58, (1, 2, 3, 10)), r"table II-14 row \(1, 2, 3, 10\) has N_l=10, wanted 14"),
    ((41, (1, 2, 3, 8)), r"row \(1, 2, 3, 8\) has norm 80, expected 82"),
])
def test_wrong_table_row_is_an_internal_error(monkeypatch, row, message):
    spec = se._TABLES["II-14"]
    monkeypatch.setitem(se._TABLES, "II-14", ((row,),) + spec[1:])
    with pytest.raises(RuntimeError, match=message):
        se.table_rows("II-14")


# -- family IV and the count rules against the code they replaced ------------

def _case4_tuples_recursive(d):
    """Family-IV tuples by recursing over m3..m6 and solving for m7."""
    two_d = 2 * d
    bound = isqrt(two_d)

    def rec(prefix, lo, sq):
        k = len(prefix)
        if k == 4:
            # m7 solves sq + m7^2 + (s + m7)^2 = 2d
            s = sum(prefix)
            disc = 2 * two_d - s * s - 2 * sq
            if disc < 0:
                return
            r = isqrt(disc)
            if r * r != disc or (r + s) % 2:
                return
            for m7 in ((-s - r) // 2, (-s + r) // 2) if r else (-s // 2,):
                if m7 >= lo and _case4_canonical(prefix + (m7,), s + m7):
                    yield prefix + (m7,)
            return
        for m in range(lo, bound + 1):
            nsq = sq + m * m
            if nsq + (4 - k) * m * m > two_d and m > 0:
                break
            if nsq <= two_d:
                yield from rec(prefix + (m,), m, nsq)

    return list(rec((), -bound, 0))


def _sign_sum_hits_by_product(target, values):
    return sum(1 for signs in itertools.product((1, -1), repeat=len(values))
               if sum(s * v for s, v in zip(signs, values)) == target)


def _case4_formula_count_by_subsets(ms):
    full = list(ms) + [sum(ms)]
    count = 8
    for r in range(1, 6):
        for sub in itertools.combinations(range(5), r):
            if sum(ms[i] for i in sub) == 0:
                count += 4
    count += 8 * sum(1 for m in full if m == 0)
    for x, y in itertools.combinations(full, 2):
        count += 2 * (x == y) + 2 * (x == -y)
    return count


@pytest.mark.parametrize("ds", [range(1, 151), (151, 173, 200, 257, 311, 333, 389, 400, 613)],
                         ids=["d<=150", "d>150"])
def test_case4_generator_matches_recursion_in_order(ds):
    for d in ds:
        assert list(se.iter_case_tuples("IV", d)) == _case4_tuples_recursive(d), d


def test_case4_table_history_changes_no_tuple(monkeypatch):
    # the (w, v) table is shared across degrees: built at d = 400 first, it
    # serves d = 1..60 without a rebuild, in the same order as a fresh build
    monkeypatch.setattr(lt, "_grown_tables", {})
    assert list(se.iter_case_tuples("IV", 400)) == _case4_tuples_recursive(400)
    for d in range(1, 61):
        assert list(se.iter_case_tuples("IV", d)) == _case4_tuples_recursive(d), d
    assert lt._grown_tables["case4"][0] == 12 * 400


def test_case4_table_grows_geometrically(monkeypatch):
    # first build at 12d, then a rebuild at max(12d, 2 x cached)
    monkeypatch.setattr(lt, "_grown_tables", {})
    tops = []
    for d in range(10, 41):
        list(se.iter_case_tuples("IV", d))
        tops.append(lt._grown_tables["case4"][0])
    assert sorted(set(tops)) == [120, 240, 480]


def test_case4_count_rule_matches_subset_sums():
    for ms in itertools.product(range(-4, 5), repeat=5):
        assert se.case4_formula_count(ms) == _case4_formula_count_by_subsets(ms), ms


def test_sign_sum_hits_matches_sign_product():
    for ms in itertools.product(range(-5, 6), repeat=4):
        for target, values in ((ms[0], ms[1:]), (3 * ms[0], ms[1:]), (0, ms)):
            assert se._sign_sum_hits(target, values) == \
                _sign_sum_hits_by_product(target, values), (target, values)
    assert se._sign_sum_hits(0, ()) == 1 and se._sign_sum_hits(1, ()) == 0


def test_case4_generator_leaves_no_garbage_cycle():
    gc.collect()
    gc.disable()
    try:
        tuples = list(se.iter_case_tuples("IV", 300))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert tuples


def _case3_tuples_recursive(d):
    """Family III's generator before the plain loops: the recursion on
    nondecreasing prefixes with m^2 (coordinates left) <= the norm left."""
    def rec(prefix, lo, rem):
        k = len(prefix)
        if k == 4:
            m8 = isqrt(rem)
            if m8 * m8 == rem and m8 >= lo and (sum(prefix) + m8) % 2 == 0:
                yield prefix + (m8,)
            return
        m = lo
        while m * m * (5 - k) <= rem:
            yield from rec(prefix + (m,), m, rem - m * m)
            m += 1
    return list(rec((), 1, 2 * d))


@pytest.mark.parametrize("ds", [range(1, 151), (151, 200, 257, 333, 400)],
                         ids=["d<=150", "d>150"])
def test_case3_generator_matches_recursion_in_order(ds):
    for d in ds:
        assert list(se.iter_case_tuples("III", d)) == _case3_tuples_recursive(d), d


def test_square_tuples_match_a_brute_force_scan():
    # every nondecreasing tuple of entries up to isqrt(120), in the
    # lexicographic order of combinations_with_replacement, bucketed by its
    # square sum and kept when its steps are at least `step`
    for k in range(2, 6):
        for lo in (1, 2):
            for step in (0, 1):
                want = {}
                for xs in itertools.combinations_with_replacement(range(lo, 11), k):
                    if all(y - x >= step for x, y in zip(xs, xs[1:])):
                        want.setdefault(sum(x * x for x in xs), []).append(xs)
                for total in range(121):
                    got = list(se._square_tuples(total, k, lo, step))
                    assert got == want.get(total, []), (total, k, lo, step)


def test_case_tuples_keep_their_order_to_degree_400():
    # families I-III for every d <= 400, pinned when each family had its own
    # loop nest; tier-1's golden digests pin the tuples only to d = 61
    text = json.dumps([[case, d, list(se.iter_case_tuples(case, d))]
                       for case in ("I", "II", "III") for d in range(1, 401)])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d9bb53afdcd00a98c32c7453b865ce94f605092e136e53bfeba82afbe95debf7"


@pytest.mark.parametrize("case", ["I", "II", "III"])  # IV: see above
def test_case_generators_leave_no_garbage_cycle(case):
    gc.collect()
    gc.disable()
    try:
        tuples = list(se.iter_case_tuples(case, 300))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert tuples


@pytest.mark.parametrize("max_m", [-1, -240])
def test_pex_rejects_a_negative_bound(max_m):
    with pytest.raises(ValueError, match="max_m must be nonnegative"):
        se.compute_pex(max_m)
    assert se.compute_pex(0) == []
