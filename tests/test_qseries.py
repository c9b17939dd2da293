import json
import random
from fractions import Fraction

import pytest

from k3mod import lattice as lt
from k3mod import qseries as qs
from k3mod.qseries import (
    CHI3, QSeries, rep_num, theta3_2tau, theta_brute, theta_dn, theta_e7,
)
from k3mod.lattice import LatticeError, parse_lattice_expr

from exact_references import (
    CHI4, pow_by_squaring, schoolbook_mul, sigma_chi, sigma_tilde_chi, theta_d6_eis,
)


# ---------------------------------------------------------------------------
# references: the builders on the fractional grids that the integer-grid
# identities replaced, on plain coefficient lists (index k is q^(k/den))
# ---------------------------------------------------------------------------

def _times(sparse, n, out):
    """out * sparse^n, truncated to len(out); the outer loop runs over sparse."""
    for _ in range(n):
        prod = [0] * len(out)
        for i, a in enumerate(sparse):
            if a:
                for j in range(len(out) - i):
                    prod[i + j] += a * out[j]
        out = prod
    return out


def _one(size):
    return [1] + [0] * (size - 1)


def _integer_part(coeffs, den):
    """Re-index to integer powers of q; every off-grid coefficient must cancel."""
    assert all(c == 0 for k, c in enumerate(coeffs) if k % den)
    return coeffs[::den]


def _half_grid_theta_dn(n, prec):
    """(theta_3(t)^n + theta_3(t + 1)^n) / 2 on the half grid."""
    plain, shifted = [0] * (2 * prec + 1), [0] * (2 * prec + 1)
    k = 0
    while k * k <= 2 * prec:
        c = 2 if k else 1
        plain[k * k] += c
        shifted[k * k] += -c if k % 2 else c
        k += 1
    both = zip(_times(plain, n, _one(len(plain))), _times(shifted, n, _one(len(plain))))
    return _integer_part([Fraction(a + b, 2) for a, b in both], 2)


def _quarter_grid_theta_e7(prec):
    """theta_3(2t)^7 + 7 theta_3(2t)^3 theta_2(2t)^4 on the quarter grid."""
    size = 4 * prec + 1
    t3, t2 = [0] * size, [0] * size
    n = 0
    while 4 * n * n < size:
        t3[4 * n * n] += 2 if n else 1
        n += 1
    n = 0
    while (2 * n + 1) ** 2 < size:
        t2[(2 * n + 1) ** 2] += 2
        n += 1
    mixed = _times(t3, 3, _times(t2, 4, _one(size)))
    total = [a + 7 * b for a, b in zip(_times(t3, 7, _one(size)), mixed)]
    return _integer_part(total, 4)


def _eisenstein_e3(chi, variant, prec):
    """The weight-3 Eisenstein series at the cusp 0 or at infinity."""
    c = {CHI3: 9, CHI4: 4}[chi]
    if variant == "cusp_inf":
        return [1] + [-c * sigma_chi(m, 2, chi) for m in range(1, prec + 1)]
    return [0] + [sigma_tilde_chi(m, 2, chi) for m in range(1, prec + 1)]


_PRECS = (0, 1, 2, 10, 240, 400)


@pytest.mark.parametrize("n", range(2, 9))
def test_theta_dn_matches_the_half_grid_builder(monkeypatch, n):
    want = _half_grid_theta_dn(n, max(_PRECS))
    for prec in _PRECS:
        monkeypatch.setattr(lt, "_grown_tables", {})
        assert theta_dn(n, prec).coeffs == want[:prec + 1], (n, prec)
        assert _half_grid_theta_dn(n, prec) == want[:prec + 1]


def test_theta_e7_matches_the_quarter_grid_builder(monkeypatch):
    want = _quarter_grid_theta_e7(max(_PRECS))
    for prec in _PRECS:
        monkeypatch.setattr(lt, "_grown_tables", {})
        assert theta_e7(prec).coeffs == want[:prec + 1], prec
        assert _quarter_grid_theta_e7(prec) == want[:prec + 1]


@pytest.mark.parametrize("build, chi, a", [(lambda p: qs.named_theta("E6", p), CHI3, 81),
                                           (theta_d6_eis, CHI4, 64)],
                         ids=["theta_e6", "theta_d6_eis"])
def test_eisenstein_theta_matches_the_two_series_sum(monkeypatch, build, chi, a):
    monkeypatch.setattr(lt, "_grown_tables", {})
    cusp0, cusp_inf = (_eisenstein_e3(chi, v, 240) for v in ("cusp0", "cusp_inf"))
    assert build(240).coeffs == [a * x + y for x, y in zip(cusp0, cusp_inf)]


def test_characters():
    assert [CHI3(n) for n in range(7)] == [0, 1, -1, 0, 1, -1, 0]
    assert [CHI4(n) for n in range(6)] == [0, 1, 0, -1, 0, 1]


def test_divisor_sums():
    assert sigma_chi(1, 2, CHI3) == 1
    assert sigma_tilde_chi(1, 2, CHI3) == 1
    assert 81 * sigma_tilde_chi(1, 2, CHI3) - 9 * sigma_chi(1, 2, CHI3) == 72
    assert sigma_chi(3, 2, CHI3) == 1  # the character kills the divisor 3
    assert sigma_tilde_chi(4, 2, CHI4) == 16
    assert sigma_chi(2, 2, CHI3) == 1 - 4


def test_eisenstein_series():
    # E6: 81 sigma~_2 - 9 sigma_2, D6: 64 sigma~_2 - 4 sigma_2, at each m >= 1
    assert qs.named_theta("E6", 3).coeffs == [1, 72, 270, 720]
    assert 81 * sigma_tilde_chi(2, 2, CHI3) - 9 * sigma_chi(2, 2, CHI3) == 270
    assert theta_d6_eis(2).coeffs == [1, 60, 252]
    assert 64 * sigma_tilde_chi(2, 2, CHI4) - 4 * sigma_chi(2, 2, CHI4) == 252
    assert qs.named_theta("E6", 0).coeffs == [1] and theta_d6_eis(0).coeffs == [1]


def test_theta_constants():
    t3 = theta3_2tau(10)
    assert [t3.coeff(m) for m in range(10)] == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]
    # theta_2(2t)^4 on the quarter grid is 16 q psi(q)^4, psi = sum_{n >= 0} q^(n(n+1))
    prec = 40
    t2 = [0] * (4 * prec + 1)
    for n in range(6):  # (2n + 1)^2 <= 4 prec
        t2[(2 * n + 1) ** 2] += 2
    psi = QSeries([1 if m in {n * (n + 1) for n in range(6)} else 0
                   for m in range(prec + 1)], prec)
    want = _integer_part(_times(t2, 4, _one(len(t2))), 4)
    assert want == [0] + (16 * psi**4).coeffs[:prec]


def test_theta_e7_values():
    s = theta_e7(240)
    assert s.coeff(0) == 1
    assert s.coeff(1) == 126
    n = s.coeff(157)
    # N_E7(314) / 157^(5/2) is approximately 124.73
    assert 12472**2 * 157**5 < n * n * 100**2 < 12474**2 * 157**5


def test_theta_dn_values():
    assert theta_dn(6, 12).coeff(1) == 60
    assert theta_dn(8, 12).coeff(1) == 112
    assert theta_dn(5, 12).coeff(0) == 1


def test_theta_e6_and_d6():
    assert qs.named_theta("E6", 12).coeff(1) == 72
    assert theta_d6_eis(240) == theta_dn(6, 240)
    assert theta_d6_eis(1200) == theta_dn(6, 1200)
    for m in range(1, 30):
        want = 81 * sigma_tilde_chi(m, 2, CHI3) - 9 * sigma_chi(m, 2, CHI3)
        assert qs.named_theta("E6", 30).coeff(m) == want


def test_theta_brute():
    from k3mod import e8
    s = theta_brute(e8.lattice(), 3)
    assert [s.coeff(m) for m in range(4)] == [1, 240, 2160, 6720]
    a2 = parse_lattice_expr("A(2)")
    assert theta_brute(a2, 2).coeff(1) == 6


@pytest.mark.parametrize("name,builder", [
    ("E7", theta_e7), ("E6", lambda p: qs.named_theta("E6", p)),
    ("D5", lambda p: theta_dn(5, p)), ("D6", lambda p: theta_dn(6, p)),
    ("D8", lambda p: theta_dn(8, p)),
])
def test_formula_matches_brute(name, builder):
    brute = theta_brute(qs.named_definite_lattice(name), 10)
    series = builder(10)
    for m in range(11):
        assert series.coeff(m) == brute.coeff(m), (name, m)
    assert qs.named_theta(name, 10) == series


def test_rep_num():
    assert rep_num("E7", 2) == 126
    assert rep_num("D6", 2) == 60
    assert rep_num("E6", 6) == rep_num("E6", 6, method="brute")
    assert rep_num("D5", 14) == rep_num("D5", 14, method="brute")
    assert rep_num("E7", 3) == 0
    assert rep_num("E6", 0) == 1
    with pytest.raises(ValueError):
        rep_num("E9", 2)
    for named in (qs.named_theta, qs.named_definite_lattice):
        with pytest.raises(ValueError, match="unknown lattice name"):
            named("E9")


@pytest.mark.parametrize("args", [("X", 0), ("X", 3), ("X", 4), ("E6", 0, "bogus")])
def test_rep_num_checks_its_arguments_before_the_norm(args):
    # norm 0 and odd norms have fixed answers, but not for a bad name or method
    with pytest.raises(ValueError):
        rep_num(*args)


def test_representation_bounds():
    # the three growth constants, as exact rational comparisons (unit-sized
    # range; the acceptance suite runs the full m <= 240)
    for m in range(1, 60):
        ne7 = rep_num("E7", 2 * m)
        ne6 = rep_num("E6", 2 * m)
        nd6 = rep_num("D6", 2 * m)
        assert 100 * ne7 * ne7 > 1238**2 * m**5
        assert 100 * ne6 < 10369 * m * m
        assert 100 * nd6 < 7513 * m * m


def test_lz_truncation_is_nine_eighths():
    # two-term truncation (t = 1, 2) of the local representation series at
    # discriminant 4m is exactly 1 + 1/8 for every m
    for m in range(1, 101):
        total = Fraction(0)
        for t in (1, 2):
            cnt = sum(1 for x in range(2 * t) if (x * x - 4 * m) % (4 * t) == 0)
            total += Fraction(cnt, t**3)
        assert total == Fraction(9, 8)


def test_series_ring_properties():
    rng = random.Random(0)

    def rand_series():
        prec = rng.choice([4, 6, 8])
        return QSeries([rng.randint(-9, 9) for _ in range(prec + 1)], prec)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QSeries([], a.prec) == a
        assert (a + (-1) * a).coeffs == [0] * (a.prec + 1)


@pytest.mark.parametrize("coeffs, prec", [
    ([1, Fraction(1, 2)], 1), ([1, Fraction(2)], 1), ([1, 2.0], 1), ([1, 2], 1.0),
    ([1, 2], Fraction(1)),
], ids=["fraction-coeff", "integral-fraction-coeff", "float-coeff", "float-prec",
        "fraction-prec"])
def test_series_coefficients_and_precision_must_be_integers(coeffs, prec):
    with pytest.raises(TypeError):
        QSeries(coeffs, prec)


def test_series_have_no_subtraction_negation_or_scalar_addition():
    a = theta3_2tau(4)
    for op in (lambda: a - a, lambda: -a, lambda: 1 + a, lambda: a + 1, lambda: 1 - a,
               lambda: a * Fraction(1, 2), lambda: 0.5 * a):
        with pytest.raises(TypeError):
            op()


def test_truncation_consistency():
    a = theta3_2tau(20)
    b = theta3_2tau(10)
    assert (a * a).truncate(10) == (b * b)
    assert a.truncate(10) == b


def test_pow_matches_repeated_mul():
    t = theta3_2tau(8) + QSeries([0, 0, 0, 5], 8)
    assert t**4 == t * t * t * t
    assert t**5 == t * t * t * t * t
    assert (t**0).coeff(0) == 1


def _random_series(rng, prec, const, kind, density):
    """A seeded series with constant term `const`; `sparse` keeps about one
    coefficient in six, `dense` every one.  With kind `fraction` the
    coefficients are Fractions, which QSeries refuses with TypeError."""
    coeffs = [const if kind == "int" else Fraction(const)]
    for _ in range(prec):
        if density == "sparse" and rng.random() > 1 / 6:
            coeffs.append(0)
        elif kind == "fraction":
            coeffs.append(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        else:
            coeffs.append(rng.randint(-9, 9))
    return QSeries(coeffs, prec)


@pytest.mark.parametrize("density", ["sparse", "dense"])
@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("const", [1, -1, 3, 0])
def test_pow_and_mul_match_the_dense_references(const, kind, density):
    rng = random.Random(f"{const}/{kind}/{density}")
    for _ in range(4):
        prec = rng.choice([0, 1, 7, 16, 30])
        if kind == "fraction":
            with pytest.raises(TypeError):
                _random_series(rng, prec, const, kind, density)
            continue
        f = _random_series(rng, prec, const, kind, density)
        for n in range(10):
            assert (f**n).coeffs == pow_by_squaring(f, n).coeffs, (f, n)
        for other in ("sparse", "dense"):
            g = _random_series(rng, rng.choice([prec, prec + 3]), rng.randint(-2, 2), kind, other)
            want = schoolbook_mul(f, g)
            assert (f * g).prec == (g * f).prec == want.prec
            assert (f * g).coeffs == (g * f).coeffs == want.coeffs, (f, g)


def test_pow_of_a_series_with_a_high_valuation():
    f = QSeries([0, 0, 0, 2, 1], 10)
    assert (f**3).coeffs == [0] * 9 + [8, 12]
    assert (f**4).coeffs == [0] * 11 and (f**0).coeffs == [1] + [0] * 10
    assert (QSeries([], 5) ** 2).coeffs == [0] * 6
    with pytest.raises(ValueError):
        f ** -1


def test_pow_raises_on_an_integer_remainder(monkeypatch):
    # the integer division of Miller's recurrence is checked, never assumed
    monkeypatch.setattr(qs, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(RuntimeError, match="remainder"):
        theta3_2tau(4) ** 2
    monkeypatch.undo()
    assert (theta3_2tau(4) ** 2).coeffs == [1, 4, 4, 0, 4]


def _dense_theta_e7(prec):
    """theta_3(2t)^7 + 112 q theta_3(2t)^3 psi^4 with the dense reference kernels."""
    t3 = theta3_2tau(prec)
    psi = QSeries([1 if m in {n * (n + 1) for n in range(prec + 1)} else 0
                   for m in range(prec + 1)], prec)
    tail = schoolbook_mul(pow_by_squaring(t3, 3), pow_by_squaring(psi, 4))
    return [a + 112 * b for a, b in zip(pow_by_squaring(t3, 7).coeffs, [0] + tail.coeffs)]


def test_theta_series_match_the_dense_references_to_600(monkeypatch):
    monkeypatch.setattr(lt, "_grown_tables", {})
    assert theta_e7(600).coeffs == _dense_theta_e7(600)
    for n in (5, 6, 8):
        assert theta_dn(n, 600).coeffs == pow_by_squaring(theta3_2tau(1200), n).coeffs[::2], n


def test_serialization_roundtrip():
    s = qs.named_theta("E6", 8)
    blob = json.dumps(s.to_json_dict())
    assert [int(c) for c in json.loads(blob)["coefficients"]] == s.coeffs
    assert json.loads(blob)["precision"] == 8
    assert json.loads(blob)["denominator"] == 1
    assert all(isinstance(c, str) for c in json.loads(blob)["coefficients"])


def test_series_reject_a_negative_precision():
    for coeffs, prec in (([1, 2], -1), ([1, 2, 3], -2), ([], -1)):
        with pytest.raises(ValueError, match="precision must be nonnegative"):
            QSeries(coeffs, prec)
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        theta3_2tau(4).truncate(-1)
    assert theta3_2tau(4).truncate(0).coeffs == [1]


def test_coeff_out_of_range():
    t = theta3_2tau(5)
    assert t.coeff(4) == 2 and t.coeff(5) == 0
    for k in (6, -1):
        with pytest.raises(IndexError):
            t.coeff(k)


def test_series_cache_is_order_independent(monkeypatch):
    ms = range(241, 261)
    results = []
    for order in (ms, reversed(ms)):
        monkeypatch.setattr(lt, "_grown_tables", {})
        results.append({(name, m): qs.rep_num(name, 2 * m)
                        for m in order for name in ("E7", "D5")})
    assert results[0] == results[1]
    assert len(results[0]) == 40


def test_series_cache_truncates_to_the_requested_precision(monkeypatch):
    monkeypatch.setattr(lt, "_grown_tables", {})
    fresh = theta_e7(300)
    monkeypatch.setattr(lt, "_grown_tables", {})
    big = theta_e7(480)
    small = theta_e7(300)
    assert big.prec == 480 and small.prec == 300
    assert small == fresh and small.coeffs == fresh.coeffs
    assert theta_e7(480) is big
    assert theta_dn(5, 12).prec == 12 and qs.named_theta("E6", 5).prec == 5


def _count_builds(monkeypatch):
    """Empty the series cache and record, per name, the precision of every build."""
    monkeypatch.setattr(lt, "_grown_tables", {})
    builds = {}
    cached = qs._cached_series

    def counting(name, prec, build):
        def counted(p):
            builds.setdefault(name, []).append(p)
            return build(p)
        return cached(name, prec, counted)

    monkeypatch.setattr(qs, "_cached_series", counting)
    return builds


def test_series_cache_grows_geometrically(monkeypatch):
    # an ascending sweep rebuilds each series a logarithmic number of times
    builds = _count_builds(monkeypatch)
    for m in range(241, 601):
        qs.rep_num("E7", 2 * m)
        qs.rep_num("D5", 2 * m)
    assert builds == {"E7": [241, 482, 964], "D5": [241, 482, 964]}
    assert theta_e7(600).prec == 600 and theta_dn(5, 300).prec == 300


def test_rep_num_builds_the_series_only_as_far_as_asked(monkeypatch):
    builds = _count_builds(monkeypatch)
    assert qs.rep_num("E7", 92) == theta_e7(46).coeff(46)
    assert builds == {"E7": [46]}


def test_rep_num_reads_the_cached_series_without_a_copy(monkeypatch):
    # with the cache longer than the request, rep_num builds no QSeries
    monkeypatch.setattr(lt, "_grown_tables", {})
    want = {"E7": theta_e7(600).coeff(300), "D5": theta_dn(5, 600).coeff(300)}
    made = []
    init = QSeries.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QSeries, "__init__", counting)
    assert {name: qs.rep_num(name, 600) for name in ("E7", "D5")} == want
    assert made == []


def test_rep_num_reads_the_series_named_theta_prints(monkeypatch):
    monkeypatch.setattr(lt, "_grown_tables", {})
    for name in qs.NAMED_LATTICES:
        series = qs.named_theta(name, 300)
        assert [rep_num(name, 2 * m) for m in range(301)] == series.coeffs, name


def test_rep_num_of_the_eisenstein_lattices_reads_their_cached_series(monkeypatch):
    # once E6 is cached, rep_num evaluates no character, hence no divisor sum
    builds = _count_builds(monkeypatch)
    evaluated = []

    def counting(n):
        evaluated.append(n)
        return CHI3(n)

    make = qs._REP_LATTICES["E6"][0]
    monkeypatch.setitem(qs._REP_LATTICES, "E6",
                        (make, lambda p: qs._eisenstein_series(counting, 81, 9, p)))
    series = qs.named_theta("E6", 300)
    assert len(evaluated) == 600
    evaluated.clear()
    for m in range(1, 301):
        assert qs.rep_num("E6", 2 * m) == series.coeff(m)
    assert evaluated == []
    assert builds == {"E6": [300]}


@pytest.mark.parametrize("build", [theta_e7, lambda p: qs.named_theta("E6", p),
                                   lambda p: theta_dn(5, p)],
                         ids=["theta_e7", "theta_e6", "theta_dn"])
def test_cached_theta_series_reject_a_negative_precision(monkeypatch, build):
    monkeypatch.setattr(lt, "_grown_tables", {})
    with pytest.raises(LatticeError, match="precision must be nonnegative"):
        build(-1)
    assert lt._grown_tables == {}
    assert build(0).coeffs == [1]


@pytest.mark.parametrize("name, public", [("E7", theta_e7)])
def test_theta_functions_build_through_the_named_table(monkeypatch, name, public):
    # one builder per cache key: the public theta function and rep_num share it
    monkeypatch.setattr(lt, "_grown_tables", {})
    built = []
    make, build = qs._REP_LATTICES[name]

    def counted(p):
        built.append(p)
        return build(p)

    monkeypatch.setitem(qs._REP_LATTICES, name, (make, counted))
    assert public(12) == qs.named_theta(name, 12)
    assert built == [12]
