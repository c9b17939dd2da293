"""Exact truncated q-expansions for theta and Eisenstein series.

A QSeries holds coefficients on the grid q^(k/den); the theta constants are
built internally on the quarter-integer grid (where theta2 lives before its
fourth power) and re-indexed to integer powers of q at the end, asserting
that every off-grid coefficient cancels exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .lattice import LatticeError
from . import lattice as lt
from . import roots


def _norm_scalar(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


class QSeries:
    """Truncated power series with exact rational coefficients.

    coeffs[k] is the coefficient of q^(k/den); the series is truncated after
    q^prec, so len(coeffs) == prec * den + 1.
    """

    __slots__ = ("coeffs", "prec", "den")

    def __init__(self, coeffs, prec, den=1):
        want = prec * den + 1
        coeffs = list(coeffs)
        if len(coeffs) < want:
            coeffs += [0] * (want - len(coeffs))
        elif len(coeffs) > want:
            coeffs = coeffs[:want]
        self.coeffs = [_norm_scalar(c) for c in coeffs]
        self.prec = prec
        self.den = den

    # -- structural helpers -------------------------------------------------

    def lift(self, den):
        if den == self.den:
            return self
        if den % self.den:
            raise ValueError("grid denominators are incompatible")
        step = den // self.den
        out = [0] * (self.prec * den + 1)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] = c
        return QSeries(out, self.prec, den)

    def truncate(self, prec):
        if prec > self.prec:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[: max(prec * self.den + 1, 0)], prec, self.den)

    def coeff(self, exponent):
        """Coefficient of q^exponent; exponent may be an integer or Fraction."""
        e = Fraction(exponent) * self.den
        if e.denominator != 1:
            return 0
        k = int(e)
        if k < 0 or k >= len(self.coeffs):
            raise IndexError(f"exponent {exponent} beyond precision {self.prec}")
        return self.coeffs[k]

    def to_integer_grid(self):
        """Re-index to den=1, asserting all off-grid coefficients vanish."""
        for k, c in enumerate(self.coeffs):
            if c and k % self.den:
                raise ArithmeticError(
                    f"off-grid coefficient {c} at q^({k}/{self.den}) did not cancel")
        return QSeries(self.coeffs[:: self.den], self.prec, 1)

    # -- arithmetic ----------------------------------------------------------

    def _align(self, other):
        den = lcm(self.den, other.den)
        prec = min(self.prec, other.prec)
        return self.lift(den).truncate(prec), other.lift(den).truncate(prec)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            out = list(self.coeffs)
            out[0] += other
            return QSeries(out, self.prec, self.den)
        a, b = self._align(other)
        return QSeries([x + y for x, y in zip(a.coeffs, b.coeffs)], a.prec, a.den)

    __radd__ = __add__

    def __neg__(self):
        return QSeries([-c for c in self.coeffs], self.prec, self.den)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return self + (-other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return QSeries([c * other for c in self.coeffs], self.prec, self.den)
        a, b = self._align(other)
        size = a.prec * a.den + 1
        out = [0] * size
        bc = b.coeffs
        for i, ai in enumerate(a.coeffs):
            if ai:
                top = size - i
                for j in range(min(top, len(bc))):
                    bj = bc[j]
                    if bj:
                        out[i + j] += ai * bj
        return QSeries(out, a.prec, a.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = QSeries([1], self.prec, self.den)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return f"QSeries([{head}, ...], prec={self.prec}, den={self.den})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "precision": self.prec,
            "denominator": self.den,
            "coefficients": [str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data):
        coeffs = [Fraction(c) for c in data["coefficients"]]
        return cls(coeffs, data["precision"], data.get("denominator", 1))


# ---------------------------------------------------------------------------
# Dirichlet characters and divisor sums
# ---------------------------------------------------------------------------

class DirichletChar:
    """The unique nontrivial character modulo 3 or 4."""

    __slots__ = ("modulus", "table")

    def __init__(self, modulus):
        if modulus == 3:
            self.table = (0, 1, -1)
        elif modulus == 4:
            self.table = (0, 1, 0, -1)
        else:
            raise ValueError("only moduli 3 and 4 are supported")
        self.modulus = modulus

    def __call__(self, n):
        return self.table[n % self.modulus]


CHI3 = DirichletChar(3)
CHI4 = DirichletChar(4)


def _divisors(m):
    small, large = [], []
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
    return small + large[::-1]


def sigma_chi(m, k, chi):
    """sigma_k(m, chi) = sum over divisors d of chi(d) * d^k."""
    if m < 1:
        raise ValueError("m must be positive")
    return sum(chi(d) * d**k for d in _divisors(m))


def sigma_tilde_chi(m, k, chi):
    """twisted form: sum over divisors d of chi(m/d) * d^k."""
    if m < 1:
        raise ValueError("m must be positive")
    return sum(chi(m // d) * d**k for d in _divisors(m))


def eisenstein_e3(chi, variant, prec):
    """Weight-3 Eisenstein series for chi in {CHI3, CHI4}.

    variant "cusp_inf": 1 - c * sum sigma_2(m, chi) q^m with c = 9 (mod 3)
    or 4 (mod 4); variant "cusp0": sum sigma~_2(m, chi) q^m.
    """
    c = {3: 9, 4: 4}[chi.modulus]
    if variant == "cusp_inf":
        coeffs = [1] + [-c * sigma_chi(m, 2, chi) for m in range(1, prec + 1)]
    elif variant == "cusp0":
        coeffs = [0] + [sigma_tilde_chi(m, 2, chi) for m in range(1, prec + 1)]
    else:
        raise ValueError("variant must be 'cusp_inf' or 'cusp0'")
    return QSeries(coeffs, prec)


# ---------------------------------------------------------------------------
# theta constants and lattice theta series
# ---------------------------------------------------------------------------

def theta3_2tau(prec):
    """theta_3(2 tau) = sum q^(n^2); integral grid."""
    out = [0] * (prec + 1)
    n = 0
    while n * n <= prec:
        out[n * n] += 1 if n == 0 else 2
        n += 1
    return QSeries(out, prec)


def theta2_2tau(prec):
    """theta_2(2 tau) = sum q^((n + 1/2)^2); lives on the quarter grid."""
    out = [0] * (4 * prec + 1)
    n = 0
    while (2 * n + 1) ** 2 <= 4 * prec:
        out[(2 * n + 1) ** 2] += 2
        n += 1
    return QSeries(out, prec, den=4)


def theta3(prec, shift=False):
    """theta_3(tau) (or theta_3(tau + 1) if shift) on the half-integer grid."""
    out = [0] * (2 * prec + 1)
    n = 0
    while n * n <= 2 * prec:
        c = 2 if n else 1
        if shift and n % 2:
            c = -c
        out[n * n] += c
        n += 1
    return QSeries(out, prec, den=2)


# lattice name -> its theta series at the highest precision asked for so far
_series_cache = {}


def _cached_series(name, prec, build):
    """The series `name` to precision prec, from one cached series per name.

    A request at or below the cached precision truncates the cached series,
    which changes no coefficient; a request above it rebuilds the series
    once, at exactly prec, and replaces the cached one.
    """
    series = _series_cache.get(name)
    if series is None or series.prec < prec:
        series = _series_cache[name] = build(prec)
    return series if series.prec == prec else series.truncate(prec)


def _build_e7(prec):
    t3 = theta3_2tau(prec)
    t2 = theta2_2tau(prec)
    return (t3**7 + 7 * t3**3 * t2**4).to_integer_grid()


def theta_e7(prec=240):
    """Theta series of E7: theta_3(2t)^7 + 7 theta_3(2t)^3 theta_2(2t)^4."""
    return _cached_series("E7", prec, _build_e7)


def theta_dn(n, prec=240):
    """Theta series of D_n: (theta_3(t)^n + theta_3(t+1)^n) / 2.

    The half-integer-grid terms cancel exactly; the result is integral in q.
    """
    if n < 2:
        raise ValueError("D_n needs n >= 2")

    def build(p):
        s = (theta3(p) ** n + theta3(p, shift=True) ** n) * Fraction(1, 2)
        return s.to_integer_grid()

    return _cached_series(f"D{n}", prec, build)


def theta_e6(prec=240):
    """Theta series of E6 via 81 E3_cusp0(chi3) + E3_cusp_inf(chi3)."""
    return _cached_series("E6", prec, lambda p: 81 * eisenstein_e3(CHI3, "cusp0", p)
                          + eisenstein_e3(CHI3, "cusp_inf", p))


def theta_d6_eis(prec=240):
    """Theta series of D6 via 64 E3_cusp0(chi4) + E3_cusp_inf(chi4)."""
    return _cached_series("D6eis", prec, lambda p: 64 * eisenstein_e3(CHI4, "cusp0", p)
                          + eisenstein_e3(CHI4, "cusp_inf", p))


def theta_brute(lat, prec):
    """Theta series by direct vector enumeration; the oracle for the closed forms."""
    if not lat.is_even():
        raise LatticeError("brute theta expects an even lattice")
    counts = [0] * (prec + 1)

    def visit(_coords, norm):
        counts[norm // 2] += 1

    roots.enumerate_up_to(lat, 2 * prec, visit)
    counts[0] = 1
    return QSeries(counts, prec)


_REP_LATTICES = {
    "E6": lt.root_lattice_e,
    "E7": lt.root_lattice_e,
    "D5": lt.root_lattice_d,
    "D6": lt.root_lattice_d,
    "D8": lt.root_lattice_d,
}
_named_lattice_cache = {}


def named_definite_lattice(name):
    if name not in _REP_LATTICES:
        raise ValueError(f"unknown lattice name {name!r}")
    if name not in _named_lattice_cache:
        _named_lattice_cache[name] = _REP_LATTICES[name](int(name[1:]))
    return _named_lattice_cache[name]


def rep_num(name, two_d, method="formula"):
    """Representation number N_L(2d) for L in {E6, E7, D5, D6, D8}."""
    if two_d < 0:
        raise ValueError("norm must be nonnegative")
    if two_d == 0:
        return 1
    if two_d % 2:
        return 0
    m = two_d // 2
    if method == "brute":
        return roots.enumerate_norm_vectors(named_definite_lattice(name), two_d)
    if method != "formula":
        raise ValueError("method must be 'formula' or 'brute'")
    if name == "E6":
        return 81 * sigma_tilde_chi(m, 2, CHI3) - 9 * sigma_chi(m, 2, CHI3)
    if name == "D6":
        return 64 * sigma_tilde_chi(m, 2, CHI4) - 4 * sigma_chi(m, 2, CHI4)
    prec = max(240, m)
    if name == "E7":
        return theta_e7(prec).coeff(m)
    if name in ("D5", "D8"):
        return theta_dn(int(name[1]), prec).coeff(m)
    raise ValueError(f"unknown lattice name {name!r}")
