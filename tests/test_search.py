import itertools
import random
from math import isqrt

import pytest

from k3mod import e8
from k3mod import search as se
from k3mod.lattice import LatticeError


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
    assert se.count_case4((1, 3, 4, 5, -7)) == 12   # subset 3+4-7 = 0
    assert se.count_case4((1, 1, 2, 3, 5)) == 10    # pair m3 = m4
    assert se.count_case4((1, 1, 2, 3, -8)) == 14
    assert se.count_case4((2, 3, 4, 5, -8)) == 12


def test_case4_degenerate_tuples_match_oracle():
    rng = random.Random(4)
    for _ in range(60):
        ms = tuple(rng.randint(-4, 4) for _ in range(5))
        assert se.case4_formula_count(ms) == e8.count_orth_roots_2x(
            se.embed_case4(*ms, sum(ms))), ms


@pytest.mark.parametrize("case", se.CASES)
def test_predicate_oracle_equivalence_small(case):
    # acceptance runs d <= 150; keep a fast slice here
    for d in range(1, 61):
        for ms in se.iter_case_tuples(case, d):
            if case == "IV":
                claimed = se.case4_formula_count(ms)
                vec = se.embed_case4(*ms, sum(ms))
            else:
                claimed = se._PREDICATE[case](ms)
                if claimed is None:
                    continue
                vec = se._EMBED[case](*ms)
            assert e8.count_orth_roots_2x(vec) == claimed, (case, ms)


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
        assert se.oracle_orth_count(h.coords2x) == h.n_l
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


def test_pex_reproduction():
    pex = set(se.compute_pex(240))
    want = set(range(1, 101)) - {96}
    want |= {m for m in range(101, 128) if m % 2}
    want |= {110, 131, 137, 143}
    assert pex == want


def test_exhaustive_search_small():
    for d in (1, 2, 3):
        assert se.exhaustive_search(d) is None
    # orbit scan and full stream agree where the stream is affordable
    for d in (1, 2, 3, 4):
        a = se.exhaustive_search(d, method="dominant")
        b = se.exhaustive_search(d, method="stream")
        assert (a is None) == (b is None)
        if a is not None:
            assert a.n_l == b.n_l


def test_exhaustive_search_hits():
    hit = se.exhaustive_search(46)
    assert hit is not None and 2 <= hit.n_l <= 12
    hit40 = se.exhaustive_search(40)
    assert hit40 is not None and hit40.n_l == 14
    with pytest.raises(se.FeasibilityError):
        se.exhaustive_search(151)
    with pytest.raises(ValueError):
        se.exhaustive_search(10, method="nope")


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


def test_case4_canonical_covers_global_sign():
    count = 0
    for ms in se.iter_case_tuples("IV", 40):
        m8 = sum(ms)
        assert se._case4_canonical(ms, m8)
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
    from k3mod import roots

    assert len(_SCAN_ROOTS) == 240
    vectors = []
    roots.enumerate_up_to(e8.lattice(), 4, lambda coords, _n: vectors.append(coords))
    assert len(vectors) == 240 + 2160
    for alpha in vectors + [(0,) * 8]:
        vec = e8.to_2x(alpha)
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
            if sq + m8 * m8 == two_d and se._case4_canonical(prefix, m8):
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
        assert all(se.case_norm("IV", ms + (sum(ms),)) == 2 * d for ms in got)
        total += len(got)
    assert total > 0


def test_search_hit_rejects_wrong_norm():
    vec = se.embed_case1(1, 2, 4, 5)  # norm 92, d = 46
    assert se.SearchHit(46, vec, 12, "caseI").n_l == 12
    with pytest.raises(LatticeError):
        se.SearchHit(47, vec, 12, "caseI")
