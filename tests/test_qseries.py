import json
import random
from fractions import Fraction

import pytest

from k3mod import qseries as qs
from k3mod.qseries import (
    CHI3, CHI4, QSeries, eisenstein_e3, rep_num, sigma_chi, sigma_tilde_chi,
    theta2_2tau, theta3, theta3_2tau, theta_brute, theta_d6_eis, theta_dn,
    theta_e6, theta_e7,
)
from k3mod.lattice import parse_lattice_expr


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
    e_inf = eisenstein_e3(CHI3, "cusp_inf", 5)
    assert e_inf.coeff(0) == 1 and e_inf.coeff(1) == -9
    assert e_inf.coeff(2) == -9 * sigma_chi(2, 2, CHI3) == 27
    e0 = eisenstein_e3(CHI4, "cusp0", 5)
    assert e0.coeff(0) == 0 and e0.coeff(1) == 1
    assert e0.coeff(2) == sigma_tilde_chi(2, 2, CHI4)
    assert eisenstein_e3(CHI3, "cusp_inf", 0).coeffs == [1]
    assert eisenstein_e3(CHI3, "cusp0", 0).coeffs == [0]
    with pytest.raises(ValueError):
        eisenstein_e3(CHI3, "nope", 4)


def test_theta_constants():
    t3 = theta3_2tau(10)
    assert [t3.coeff(m) for m in range(10)] == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]
    half = theta3(4)
    shifted = theta3(4, shift=True)
    # odd half-grid coefficients change sign, even ones are fixed
    for k in range(len(half.coeffs)):
        want = -half.coeffs[k] if k % 2 else half.coeffs[k]
        assert shifted.coeffs[k] == want
    t2 = theta2_2tau(3)
    assert t2.coeff(Fraction(1, 4)) == 2
    assert t2.coeff(Fraction(9, 4)) == 2
    with pytest.raises(ArithmeticError):
        t2.to_integer_grid()


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
    assert theta_e6(12).coeff(1) == 72
    assert theta_d6_eis(240) == theta_dn(6, 240)
    for m in range(1, 30):
        want = 81 * sigma_tilde_chi(m, 2, CHI3) - 9 * sigma_chi(m, 2, CHI3)
        assert theta_e6(30).coeff(m) == want


def test_theta_brute():
    from k3mod import e8
    s = theta_brute(e8.lattice(), 3)
    assert [s.coeff(m) for m in range(4)] == [1, 240, 2160, 6720]
    a2 = parse_lattice_expr("A(2)")
    assert theta_brute(a2, 2).coeff(1) == 6


@pytest.mark.parametrize("name,builder", [
    ("E7", theta_e7), ("E6", theta_e6),
    ("D5", lambda p: theta_dn(5, p)), ("D6", lambda p: theta_dn(6, p)),
    ("D8", lambda p: theta_dn(8, p)),
])
def test_formula_matches_brute(name, builder):
    brute = theta_brute(qs.named_definite_lattice(name), 10)
    series = builder(10)
    for m in range(11):
        assert series.coeff(m) == brute.coeff(m), (name, m)


def test_rep_num():
    assert rep_num("E7", 2) == 126
    assert rep_num("D6", 2) == 60
    assert rep_num("E6", 6) == rep_num("E6", 6, method="brute")
    assert rep_num("D5", 14) == rep_num("D5", 14, method="brute")
    assert rep_num("E7", 3) == 0
    assert rep_num("E6", 0) == 1
    with pytest.raises(ValueError):
        rep_num("E9", 2)


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
        den = rng.choice([1, 2, 4])
        prec = 6
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(prec * den + 1)]
        return QSeries(coeffs, prec, den)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).coeffs == [0] * len((a - a).coeffs)


def test_truncation_consistency():
    a = theta3_2tau(20)
    b = theta3_2tau(10)
    assert (a * a).truncate(10) == (b * b)
    assert a.truncate(10) == b


def test_pow_matches_repeated_mul():
    t = theta3(8)
    assert t**4 == t * t * t * t
    assert (t**0).coeff(0) == 1


def test_serialization_roundtrip():
    s = theta_e6(8)
    blob = json.dumps(s.to_json_dict())
    back = QSeries.from_json_dict(json.loads(blob))
    assert back == s
    assert json.loads(blob)["precision"] == 8
    assert all(isinstance(c, str) for c in json.loads(blob)["coefficients"])


def test_coeff_off_grid_and_out_of_range():
    t = theta3_2tau(5)
    assert t.coeff(Fraction(1, 2)) == 0
    with pytest.raises(IndexError):
        t.coeff(6)


def test_series_cache_is_order_independent(monkeypatch):
    ms = range(241, 261)
    results = []
    for order in (ms, reversed(ms)):
        monkeypatch.setattr(qs, "_series_cache", {})
        results.append({(name, m): qs.rep_num(name, 2 * m)
                        for m in order for name in ("E7", "D5")})
    assert results[0] == results[1]
    assert len(results[0]) == 40


def test_series_cache_truncates_to_the_requested_precision(monkeypatch):
    monkeypatch.setattr(qs, "_series_cache", {})
    fresh = theta_e7(300)
    monkeypatch.setattr(qs, "_series_cache", {})
    big = theta_e7(480)
    small = theta_e7(300)
    assert big.prec == 480 and small.prec == 300
    assert small == fresh and small.coeffs == fresh.coeffs
    assert theta_e7(480) is big
    assert theta_dn(5, 12).prec == 12 and theta_e6(5).prec == 5
