"""Quotient-singularity arithmetic: fractional eigenvalue sums, cyclotomic
decompositions of finite-order integer matrices, and quasi-reflection tests.

The sum Sigma(g) of fractional eigenvalue exponents decides canonicity of a
cyclic quotient singularity; c_min(d) bounds the contribution of one
irreducible rational summand.  Exponents are always recovered from the
cyclotomic factorisation of the characteristic polynomial, never from a
numerical eigensolver, and so is the order of a matrix g: L = lcm{d : Phi_d
divides det(xI - g)} is the order iff g^L = 1, and no d > 2n^2 matters at
rank n, because phi(d) >= sqrt(d/2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import index

from .lattice import identity_matrix, mat_mul


class EigenExponents:
    """Eigenvalues zeta^{a_1}, ..., zeta^{a_n} of an order-m map, zeta = e^(2 pi i/m);
    a non-integer order or exponent is a `TypeError`, never truncated."""

    __slots__ = ("order", "exponents")

    def __init__(self, order, exponents):
        order = index(order)
        if order < 1:
            raise ValueError("order must be positive")
        exponents = tuple(map(index, exponents))
        if any(a < 0 or a >= order for a in exponents):
            raise ValueError("exponents must satisfy 0 <= a < order")
        self.order = order
        self.exponents = exponents

    def __repr__(self):
        return f"EigenExponents(m={self.order}, a={self.exponents})"


def sigma_rst(e):
    """Sigma(g) = sum a_i / m as an exact rational."""
    return sum((Fraction(a, e.order) for a in e.exponents), Fraction(0))


def sigma_prime(e, l):
    """Modified sum for g of order 2k whose k-th power is a quasi-reflection.

    The last exponent is the odd one; the class of g^l modulo the reflection
    has exponent sum {l a_n / k} + sum_{i<n} {l a_i / 2k}.
    """
    l, m = index(l), e.order
    if m % 2:
        raise ValueError("order must be even (g^k is an involution)")
    k = m // 2
    if not 1 <= l < k:
        raise ValueError("l must satisfy 1 <= l < k")
    if (not e.exponents or e.exponents[-1] % 2 == 0
            or any(a % 2 for a in e.exponents[:-1])):
        raise ValueError("expected even exponents with a single odd final slot")
    total = Fraction(l * e.exponents[-1], k) % 1
    for a in e.exponents[:-1]:
        total += Fraction(l * a, 2 * k) % 1
    return total


def is_quasi_reflection(e):
    """Exactly one nontrivial eigenvalue."""
    return sum(1 for a in e.exponents if a) == 1


def is_reflection(e):
    """Quasi-reflection whose nontrivial eigenvalue is -1."""
    nontrivial = [a for a in e.exponents if a]
    return len(nontrivial) == 1 and 2 * nontrivial[0] == e.order


# ---------------------------------------------------------------------------
# c_min
# ---------------------------------------------------------------------------

def c_min_with_argmin(d):
    """min over shifts a of sum_{0<b<d, (b,d)=1} {(b+a)/d}, with the smallest
    shift attaining it; a non-integer d is a `TypeError`."""
    d = index(d)
    if d < 3:
        raise ValueError("c_min needs d >= 3")
    coprime = [b for b in range(1, d) if gcd(b, d) == 1]
    best = None
    best_a = None
    for a in range(d):
        s = sum((b + a) % d for b in coprime)
        if best is None or s < best:
            best, best_a = s, a
    return Fraction(best, d), best_a


def c_min(d):
    return c_min_with_argmin(d)[0]


# ---------------------------------------------------------------------------
# cyclotomic decomposition
# ---------------------------------------------------------------------------

def euler_phi(n):
    """Euler's totient of n >= 1; a non-integer n is a `TypeError`, n < 1 a
    `ValueError`."""
    out = n = index(n)
    if n < 1:
        raise ValueError("Euler's totient needs n >= 1")
    p = 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


def _poly_divmod(a, b):
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            return None, a
        out[i] = q
        if q:
            for j, y in enumerate(b):
                a[i + j] -= q * y
    return out, a


def cyclotomic_poly(d):
    """Coefficients (low degree first) of the d-th cyclotomic polynomial, a
    tuple; a non-integer d is a `TypeError`, also where `cache` would take
    4.0 for the key 4."""
    return _cyclotomic_poly(index(d))


@cache
def _cyclotomic_poly(d):
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = [0] * d + [1]
    num[0] = -1  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            num, rem = _poly_divmod(num, _cyclotomic_poly(e))
            if num is None or any(rem):
                raise ArithmeticError(f"Phi_{e} does not divide x^{d} - 1 exactly")
    return tuple(num)


def _mat_power(g, e):
    """g^e for e >= 1 as a list of lists, by repeated squaring in at most
    2 log2(e) products."""
    if e == 1:
        return [list(row) for row in g]
    half = _mat_power(mat_mul(g, g), e // 2)
    return mat_mul(half, g) if e % 2 else half


def char_poly(g):
    """Characteristic polynomial det(xI - g), low degree first, exact integers."""
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("matrix must be square")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity_matrix(n)
    for k in range(1, n + 1):
        m = mat_mul(g, m)
        tr = sum(m[i][i] for i in range(n))
        if tr % k:
            raise ArithmeticError("characteristic polynomial is not integral; "
                                  "the matrix must have integer entries")
        c = -tr // k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


class CycloDecomp:
    """Multiplicities nu_d of the cyclotomic factors Phi_d of a characteristic
    polynomial.  The order lcm{d} and the rank sum nu_d phi(d) are computed
    from them.  A non-integer index d or multiplicity is a `TypeError`, one
    below 1 a `ValueError`."""

    __slots__ = ("order", "rank", "multiplicities")

    def __init__(self, multiplicities):
        mult = {index(d): index(v) for d, v in dict(multiplicities).items()}
        if any(d < 1 or v < 1 for d, v in mult.items()):
            raise ValueError("cyclotomic indices and multiplicities must be positive")
        self.multiplicities = mult
        self.order = lcm(*mult)
        self.rank = sum(v * euler_phi(d) for d, v in mult.items())

    def eigen_exponents(self):
        """All eigenvalue exponents on the scale of the element order."""
        m = self.order
        exps = []
        for d in sorted(self.multiplicities):
            prim = [k * (m // d) for k in range(d) if gcd(k, d) == 1] if d > 1 else [0]
            exps.extend(sorted(prim) * self.multiplicities[d])
        return EigenExponents(m, sorted(exps))

    def __repr__(self):
        return f"CycloDecomp(order={self.order}, {self.multiplicities})"


def cyclo_decompose(g):
    """Factor the characteristic polynomial of a finite-order integer matrix
    into cyclotomic polynomials by exact trial division, then derive the order.

    The constant term of det(xI - g) is +-det g, so any other value means g
    is not invertible over Z: `ValueError`.  Phi_d is tried for d up to 2n^2
    (n the rank), since phi(d) >= sqrt(d/2); a remainder is an
    `ArithmeticError`.  Neither takes a power of g.  Each Phi_d gives an
    eigenvalue of exact order d, so the order is L = lcm(d) iff g^L = 1;
    otherwise g has a unipotent part and no finite order: `ValueError`.
    """
    poly = char_poly(g)
    if poly[0] not in (1, -1):
        raise ValueError("matrix is not invertible over Z, so it has no finite order")
    n = len(g)
    mult = {}
    for d in range(1, 2 * n * n + 1):
        if poly == [1]:
            break
        if euler_phi(d) >= len(poly):
            continue
        cp = cyclotomic_poly(d)
        while len(poly) >= len(cp):
            quo, rem = _poly_divmod(poly, cp)
            if quo is None or any(rem):
                break
            mult[d] = mult.get(d, 0) + 1
            poly = quo
    if poly != [1]:
        raise ArithmeticError("characteristic polynomial is not a product of "
                              "cyclotomics; the matrix cannot have finite order")
    decomp = CycloDecomp(mult)
    if _mat_power(g, decomp.order) != identity_matrix(n):
        raise ValueError(f"matrix has no finite order: g^{decomp.order} is not the identity")
    return decomp


# ---------------------------------------------------------------------------
# finite verifications
# ---------------------------------------------------------------------------

def bigphi_verify(r_max):
    """For every r <= r_max with phi(r) >= 6 and every admissible first
    residue k1: check sum_{i>=3} {(k1 + k_i)/r} >= 1 by direct evaluation.

    Returns a report with the minimum attained and any violations (none
    expected).  A non-integer r_max is a `TypeError`.
    """
    r_max = index(r_max)
    if r_max < 7:
        raise ValueError("r_max must be at least 7")
    checked = 0
    min_sum = None
    min_at = None
    violations = []
    for r in range(7, r_max + 1):
        units = [k for k in range(1, r) if gcd(k, r) == 1]
        if len(units) < 6:
            continue
        for k1 in units:
            k2 = r - k1
            rest = [k for k in units if k != k1 and k != k2]
            s = Fraction(sum((k1 + ki) % r for ki in rest), r)
            checked += 1
            if min_sum is None or s < min_sum:
                min_sum, min_at = s, (r, k1)
            if s < 1:
                violations.append({"r": r, "k1": k1, "sum": str(s)})
    return {"checked": checked, "min_sum": min_sum, "min_at": min_at,
            "violations": violations}


def toric_order2_check(g):
    """Consistency report for a finite-order integer matrix acting on a torus.

    Verifies that an integral quasi-reflection is an honest reflection (the
    nontrivial eigenvalue is forced to -1 by trace integrality, so the
    element has order 2) and that otherwise Sigma(g) >= 1 unless g is the
    identity.
    """
    decomp = cyclo_decompose(g)
    exps = decomp.eigen_exponents()
    sigma = sigma_rst(exps)
    qref = is_quasi_reflection(exps)
    report = {
        "order": decomp.order,
        "decomposition": dict(sorted(decomp.multiplicities.items())),
        "sigma": sigma,
        "is_quasi_reflection": qref,
        "is_reflection": is_reflection(exps),
        "consistent": True,
    }
    if qref:
        if not is_reflection(exps) or decomp.order != 2:
            report["consistent"] = False
    elif decomp.order > 1 and sigma < 1:
        report["consistent"] = False
    return report
