"""Exact truncated q-expansions for theta and Eisenstein series.

Every QSeries is a series in integer powers of q with integer coefficients.
The theta constants that live on finer grids are brought to the integer grid
by two identities (Conway-Sloane, SPLAG ch. 4):

* x in Z^n lies in D_n exactly when its norm is even, so theta_{D_n} is the
  even-norm part of theta_{Z^n}: the q^m coefficient of theta_{D_n} is the
  q^(2m) coefficient of theta_3(2 tau)^n;
* theta_2(2 tau) = 2 q^(1/4) psi(q) with psi(q) = sum_{n >= 0} q^(n(n+1)), so
  theta_2(2 tau)^4 = 16 q psi(q)^4.

The weight-3 Eisenstein forms build the series of E6: each coefficient is
one closed form in the twisted divisor sums (see `_eisenstein_series`),
summed by a divisor sieve.

Each named lattice has one closed form and one cached series, the one
`named_theta` truncates; `rep_num(name, 2m)` reads its q^m coefficient
(`method="brute"` enumerates the vectors instead).  `theta_e7` and
`theta_dn(n)` read the same cache; `theta_dn` also builds D_n for n outside
the named lattices.

Both series kernels are exact and work over the nonzero terms only.  A
product loops over the nonzero terms of the sparser factor, in O(N * nnz)
for precision N.  A power uses J.C.P. Miller's recurrence (Knuth, TAOCP
vol. 2, 4.7), also O(N * nnz).  theta_3 and psi have about sqrt(N) nonzero
terms, so every theta series here is built in O(N * sqrt(N)): the builders
raise the sparse theta constants to powers and multiply a dense power by
sparse factors one at a time, never two dense series.
"""

from __future__ import annotations

from functools import cache, partial
from operator import index

from .lattice import LatticeError
from . import lattice as lt
from . import roots


def _terms(coeffs):
    """The (exponent, coefficient) pairs of the nonzero coefficients, ascending."""
    return [(k, c) for k, c in enumerate(coeffs) if c]


class QSeries:
    """Truncated power series in integer powers of q, integer coefficients.

    coeffs[k] is the coefficient of q^k; the series is truncated after
    q^prec, so len(coeffs) == prec + 1.  The precision and every coefficient
    are read with `operator.index`, so a float or Fraction raises TypeError.
    """

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec):
        self.prec = prec = index(prec)
        if prec < 0:
            raise ValueError("precision must be nonnegative")
        self.coeffs = coeffs = list(map(index, coeffs))
        del coeffs[prec + 1:]
        coeffs += [0] * (prec + 1 - len(coeffs))

    # -- structural helpers -------------------------------------------------

    def truncate(self, prec):
        if prec > self.prec:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.coeffs[:prec + 1], prec)

    def coeff(self, exponent):
        """Coefficient of q^exponent, for an integer 0 <= exponent <= prec."""
        if not 0 <= exponent <= self.prec:
            raise IndexError(f"exponent {exponent} beyond precision {self.prec}")
        return self.coeffs[exponent]

    # -- arithmetic ----------------------------------------------------------

    def _align(self, other):
        prec = min(self.prec, other.prec)
        return self.truncate(prec), other.truncate(prec)

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        return QSeries([x + y for x, y in zip(a.coeffs, b.coeffs)], a.prec)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return QSeries([c * other for c in self.coeffs], self.prec)
        a, b = self._align(other)
        a_terms, b_terms = _terms(a.coeffs), _terms(b.coeffs)
        if len(b_terms) < len(a_terms):
            a_terms, b = b_terms, a
        # one shifted row of the denser factor per nonzero term of the sparser
        out = [0] * (a.prec + 1)
        bc = b.coeffs
        for i, ai in a_terms:
            out[i:] = [o + ai * c for o, c in zip(out[i:], bc)]
        return QSeries(out, a.prec)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

        With self = q^v h and h_0 != 0, g = h^n satisfies
        k h_0 g_k = sum_{j >= 1} ((n + 1) j - k) h_j g_{k-j}, a sum over the
        nonzero h_j only.  Each step divides exactly or raises RuntimeError.
        """
        n = index(n)
        if n < 0:
            raise ValueError("negative powers are not supported")
        prec = self.prec
        out = [0] * (prec + 1)
        if n == 0:
            out[0] = 1
            return QSeries(out, prec)
        terms = _terms(self.coeffs)
        if not terms or terms[0][0] * n > prec:
            return QSeries(out, prec)
        v, h0 = terms[0]
        shift = v * n
        top = prec - shift
        # (j, (n + 1) j h_j, h_j) for the nonzero h_j with j >= 1
        rest = [(i - v, (n + 1) * (i - v) * c, c) for i, c in terms[1:]]
        g = [0] * (top + 1)
        g[0] = h0**n
        live = 0
        for k in range(1, top + 1):
            while live < len(rest) and rest[live][0] <= k:
                live += 1
            s = 0
            for j, a, c in rest[:live]:
                s += (a - k * c) * g[k - j]
            g[k], r = divmod(s, k * h0)
            if r:
                raise RuntimeError(f"Miller's recurrence left a remainder at q^{k}")
        out[shift:] = g
        return QSeries(out, prec)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        a, b = self._align(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        return f"QSeries([{head}, ...], prec={self.prec})"

    # -- serialization -------------------------------------------------------

    def to_json_dict(self):
        return {
            "precision": self.prec,
            "denominator": 1,
            "coefficients": [str(c) for c in self.coeffs],
        }


# ---------------------------------------------------------------------------
# the Dirichlet character mod 3 and the Eisenstein sieve
# ---------------------------------------------------------------------------

def CHI3(n):
    """The nontrivial Dirichlet character modulo 3."""
    return (0, 1, -1)[n % 3]


def _eisenstein_series(chi, a, b, prec):
    """The q-series 1 + sum_m N(2m) q^m with N(2m) = a sigma~_2(m, chi) -
    b sigma_2(m, chi) for m >= 1, the q^m coefficient of
    a E3_cusp0(chi) + E3_cusp_inf(chi), where E3_cusp0 = sum sigma~_2(m, chi) q^m
    and E3_cusp_inf = 1 - b sum sigma_2(m, chi) q^m.  A divisor sieve: each
    d e = m adds d^2 (a chi(e) - b chi(d)), O(N log N) in all."""
    out = [0] * (prec + 1)
    ach = [a * chi(e) for e in range(1, prec + 1)]
    for d in range(1, prec + 1):
        d2, bd = d * d, b * chi(d)
        out[d::d] = [o + d2 * (x - bd) for o, x in zip(out[d::d], ach)]
    out[0] = 1
    return QSeries(out, prec)


# ---------------------------------------------------------------------------
# theta constants and lattice theta series
# ---------------------------------------------------------------------------

def theta3_2tau(prec):
    """theta_3(2 tau) = sum over n in Z of q^(n^2), the theta series of Z."""
    out = [0] * (prec + 1)
    n = 0
    while n * n <= prec:
        out[n * n] += 1 if n == 0 else 2
        n += 1
    return QSeries(out, prec)


def _cached_series(name, prec, build):
    """The one cached series `name`, at precision prec or above (`lattice._grown`)."""
    prec = index(prec)
    if prec < 0:
        raise LatticeError("precision must be nonnegative")
    return lt._grown(name, prec, build)


def _theta(name, prec, build):
    """The cached series `name`, truncated to exactly precision prec."""
    series = _cached_series(name, prec, build)
    return series if series.prec == prec else series.truncate(prec)


def _build_e7(prec):
    t3 = theta3_2tau(prec)
    psi = [0] * (prec + 1)
    n = 0
    while n * (n + 1) <= prec:
        psi[n * (n + 1)] = 1
        n += 1
    # 7 theta_2(2 tau)^4 = 112 q psi^4: the factor q shifts by one place; the
    # dense psi^4 meets the sparse theta_3 one factor at a time
    tail = QSeries(psi, prec) ** 4 * t3 * t3 * t3
    return t3**7 + 112 * QSeries([0] + tail.coeffs, prec)


def theta_e7(prec=240):
    """Theta series of E7: theta_3(2t)^7 + 7 theta_3(2t)^3 theta_2(2t)^4.

    With theta_2(2t)^4 = 16 q psi(q)^4, psi(q) = sum_{n >= 0} q^(n(n+1)), this
    is theta_3(2t)^7 + 112 q theta_3(2t)^3 psi(q)^4, all in integer powers of q.
    """
    return _theta("E7", prec, _named("E7")[1])


def theta_dn(n, prec=240):
    """Theta series of D_n, the even-norm part of theta_{Z^n} = theta_3(2t)^n.

    x in Z^n lies in D_n exactly when x.x is even, so the q^m coefficient is
    the q^(2m) coefficient of theta_3(2t)^n.
    """
    if n < 2:
        raise ValueError("D_n needs n >= 2")
    return _theta(f"D{n}", prec, _dn_builder(n))


def _dn_builder(n):
    return lambda p: QSeries((theta3_2tau(2 * p) ** n).coeffs[::2], p)


def theta_brute(lat, prec):
    """Theta series by direct vector enumeration; the oracle for the closed forms."""
    prec = index(prec)
    if not lat.is_even():
        raise LatticeError("brute theta expects an even lattice")
    if prec < 0:
        raise LatticeError("precision must be nonnegative")
    return QSeries(roots.norm_counts(lat, 2 * prec)[::2], prec)


# name -> (root-lattice constructor, closed-form theta builder), the one table
# of the named lattices; each series is cached under its name.  E6's is
# 81 E3_cusp0(chi3) + E3_cusp_inf(chi3)
_REP_LATTICES = {
    "E6": (lt.root_lattice_e, partial(_eisenstein_series, CHI3, 81, 9)),
    "E7": (lt.root_lattice_e, _build_e7),
    "D5": (lt.root_lattice_d, _dn_builder(5)),
    "D6": (lt.root_lattice_d, _dn_builder(6)),
    "D8": (lt.root_lattice_d, _dn_builder(8)),
}
NAMED_LATTICES = tuple(_REP_LATTICES)


def _named(name):
    if name not in _REP_LATTICES:
        raise ValueError(f"unknown lattice name {name!r}")
    return _REP_LATTICES[name]


@cache
def named_definite_lattice(name):
    return _named(name)[0](int(name[1:]))


def named_theta(name, prec=240):
    """Theta series of a lattice in NAMED_LATTICES, from its closed form."""
    return _theta(name, prec, _named(name)[1])


def rep_num(name, two_d, method="formula"):
    """Representation number N_L(2d) for L in {E6, E7, D5, D6, D8}: the q^d
    coefficient of the one cached series that `named_theta` truncates."""
    build = _named(name)[1]
    if method not in ("formula", "brute"):
        raise ValueError("method must be 'formula' or 'brute'")
    two_d = index(two_d)
    if two_d < 0:
        raise ValueError("norm must be nonnegative")
    if two_d == 0:
        return 1
    if two_d % 2:
        return 0
    m = two_d // 2
    if method == "brute":
        return roots.enumerate_norm_vectors(named_definite_lattice(name), two_d)
    # one coefficient, read off the cached series without truncating a copy
    return _cached_series(name, m, build).coeff(m)
