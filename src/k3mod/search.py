"""Search for vectors l in E8 of norm 2d orthogonal to few roots.

Four structured families (I-IV below) come from fixing a small root
sublattice and moving l in its orthogonal complement, written in doubled
e-coordinates; each family has a combinatorial count of the orthogonal
roots that is re-verified against the closed-form E8 root count
(`e8.count_orth_roots_2x`) before any hit is emitted.  The exhaustive
search enumerates one dominant representative per Weyl orbit (the
orthogonal-root count is Weyl invariant), which turns the 10^8-vector
streams of the naive scan into a handful of cone vectors.

Hit counts feed the per-degree verdict: a vector orthogonal to between 2
and 12 roots yields a modular form of weight below 19 with the vanishing
needed for general type; a best count of 14 yields weight exactly 19 and a
nonnegative Kodaira dimension.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt

from . import e8
from . import qseries as qs
from . import roots as rt
from .lattice import LatticeError


class FeasibilityError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# inequalities and the exceptional degree set
# ---------------------------------------------------------------------------

def check_mineq(d):
    """4 N_E7(2d) > 28 N_E6(2d) + 63 N_D6(2d), evaluated exactly."""
    return 4 * qs.rep_num("E7", 2 * d) > (28 * qs.rep_num("E6", 2 * d)
                                          + 63 * qs.rep_num("D6", 2 * d))


def check_mineqd(d):
    """5 N_E7 > 28 N_E6 + 63 N_D6 + 378 N_D5 at norm 2d, evaluated exactly."""
    return 5 * qs.rep_num("E7", 2 * d) > (28 * qs.rep_num("E6", 2 * d)
                                          + 63 * qs.rep_num("D6", 2 * d)
                                          + 378 * qs.rep_num("D5", 2 * d))


def compute_pex(max_m=240):
    """Degrees m <= max_m where 5 theta_E7 - 28 theta_E6 - 63 theta_D6 - 378 theta_D5
    has a negative q^m coefficient (the degrees where the second inequality fails)."""
    prec = max(240, max_m)
    combo = (5 * qs.theta_e7(prec) - 28 * qs.theta_e6(prec)
             - 63 * qs.theta_dn(6, prec) - 378 * qs.theta_dn(5, prec))
    return [m for m in range(1, max_m + 1) if combo.coeff(m) < 0]


# ---------------------------------------------------------------------------
# the four structured families (doubled e-coordinates)
# ---------------------------------------------------------------------------
# I   : 4A1-orthogonal    l = m3(e3+e4) + m5(e5+e6) + m7(e7+e8) + m8(e7-e8)
# II  : (2A1+A2)-orth.    l = m5(e3+e4+e5) + m6 e6 + m7 e7 + m8 e8, sum even
# III : A3-orthogonal     l = m4 e4 + ... + m8 e8, coordinate sum even
# IV  : (A1+A2)-orth.     l = m3 e3 + ... + m8 e8 with m8 = m3 + ... + m7

CASES = ("I", "II", "III", "IV")


def embed_case1(m3, m5, m7, m8):
    l = (0, 0, 2 * m3, 2 * m3, 2 * m5, 2 * m5, 2 * (m7 + m8), 2 * (m7 - m8))
    return l


def embed_case2(m5, m6, m7, m8):
    if (m5 + m6 + m7 + m8) % 2:
        raise LatticeError("m5 + m6 + m7 + m8 must be even")
    return (0, 0, 2 * m5, 2 * m5, 2 * m5, 2 * m6, 2 * m7, 2 * m8)


def embed_case3(m4, m5, m6, m7, m8):
    if (m4 + m5 + m6 + m7 + m8) % 2:
        raise LatticeError("coordinate sum must be even")
    return (0, 0, 0, 2 * m4, 2 * m5, 2 * m6, 2 * m7, 2 * m8)


def embed_case4(m3, m4, m5, m6, m7, m8):
    if m8 != m3 + m4 + m5 + m6 + m7:
        raise LatticeError("m8 must equal m3 + ... + m7")
    return (0, 0, 2 * m3, 2 * m4, 2 * m5, 2 * m6, 2 * m7, 2 * m8)


def case_norm(case, ms):
    if case == "I":
        return 2 * sum(m * m for m in ms)
    if case == "II":
        return 3 * ms[0] ** 2 + sum(m * m for m in ms[1:])
    if case in ("III", "IV"):
        return sum(m * m for m in ms)
    raise ValueError(f"unknown case {case!r}")


def _signed_triple_relations(values):
    """Number of relations v_k = +-v_i +- v_j among distinct index triples."""
    n = len(values)
    count = 0
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = values[i], values[j], values[k]
        for sa in (1, -1):
            for sb in (1, -1):
                if sa * a + sb * b == c:
                    count += 1
    return count


def predicate_case1(ms):
    """8 or 12 orthogonal roots for a 4A1-orthogonal tuple, or None (rejected)."""
    if len(ms) != 4:
        raise ValueError("case I takes a 4-tuple")
    a = [abs(m) for m in ms]
    if 0 in a or len(set(a)) != 4:
        return None
    rel = _signed_triple_relations(a)
    if rel > 1:
        return None
    return 8 + 4 * rel


def _sign_sum_hits(target, values):
    """Number of sign patterns with s1 v1 + ... + sk vk == target."""
    count = 0
    for signs in itertools.product((1, -1), repeat=len(values)):
        if sum(s * v for s, v in zip(signs, values)) == target:
            count += 1
    return count


def predicate_case2(ms):
    """10 or 14 orthogonal roots for a (2A1+A2)-orthogonal tuple, or None."""
    if len(ms) != 4:
        raise ValueError("case II takes a 4-tuple")
    m5, rest = ms[0], ms[1:]
    a = [abs(m) for m in ms]
    if 0 in a or len(set(a)) != 4:
        return None
    if _sign_sum_hits(abs(m5), [abs(x) for x in rest]):
        return None
    triple = _sign_sum_hits(3 * abs(m5), [abs(x) for x in rest])
    if triple == 0:
        return 10
    if triple == 1:
        return 14
    return None


def predicate_case3(ms):
    """12 or 14 orthogonal roots for an A3-orthogonal tuple, or None."""
    if len(ms) != 5:
        raise ValueError("case III takes a 5-tuple")
    a = [abs(m) for m in ms]
    if 0 in a:
        return None
    if _sign_sum_hits(0, a):
        return None
    pairs = sum(1 for x, y in itertools.combinations(a, 2) if x == y)
    if pairs == 0:
        return 12
    if pairs == 1:
        return 14
    return None


def case4_formula_count(ms):
    """Orthogonal-root count for an (A1+A2)-orthogonal tuple by the case rules.

    8 base roots, plus 4 per nonempty zero-sum subset of (m3..m7), plus 8 per
    vanishing coordinate (m3..m8), plus 2 per signed pair coincidence.
    """
    if len(ms) != 5:
        raise ValueError("case IV takes the free 5-tuple (m3..m7)")
    m8 = sum(ms)
    full = list(ms) + [m8]
    count = 8
    for r in range(1, 6):
        for sub in itertools.combinations(range(5), r):
            if sum(ms[i] for i in sub) == 0:
                count += 4
    count += 8 * sum(1 for m in full if m == 0)
    for x, y in itertools.combinations(full, 2):
        if x == y:
            count += 2
        if x == -y:
            count += 2
    return count


_E8 = None


def _e8_lattice():
    global _E8
    if _E8 is None:
        _E8 = e8.lattice()
    return _E8


def oracle_orth_count(vec2x):
    """Root count via the generic lattice machinery in simple-root coordinates."""
    alpha = e8.alpha_from_2x(vec2x)
    return rt.count_orth_roots(_e8_lattice(), alpha)


def count_case4(ms):
    """Case IV count, always cross-validated against the E8 root count."""
    n = case4_formula_count(ms)
    vec = embed_case4(*ms, sum(ms))
    actual = e8.count_orth_roots_2x(vec)
    if actual != n:
        raise RuntimeError(
            f"case IV rules gave {n} but the E8 root count gives {actual} for {ms}")
    return n


# ---------------------------------------------------------------------------
# canonical tuple domains
# ---------------------------------------------------------------------------
# Case I enumerates 0 < m3 < m5 < m7 < m8 (the count depends only on the set
# of absolute values); case II takes m5 >= 1 and 0 < m6 < m7 < m8; case III
# takes 1 <= m4 <= ... <= m8; case IV takes m3 <= ... <= m7 over nonzero-sum
# -normalised signed tuples (m8 is determined).  Sign flips and coordinate
# permutations fixing each family preserve the counts, so these domains see
# every hit class.

def iter_case_tuples(case, d):
    two_d = 2 * d
    if case == "I":
        for m3 in range(1, isqrt(d) + 1):
            r3 = d - m3 * m3
            for m5 in range(m3 + 1, isqrt(max(r3, 0)) + 1):
                r5 = r3 - m5 * m5
                for m7 in range(m5 + 1, isqrt(max(r5, 0)) + 1):
                    r7 = r5 - m7 * m7
                    if r7 > m7 * m7:
                        m8 = isqrt(r7)
                        if m8 * m8 == r7 and m8 > m7:
                            yield (m3, m5, m7, m8)
    elif case == "II":
        m5 = 1
        while 3 * m5 * m5 <= two_d:
            rem5 = two_d - 3 * m5 * m5
            for m6 in range(1, isqrt(max(rem5, 0)) + 1):
                r6 = rem5 - m6 * m6
                for m7 in range(m6 + 1, isqrt(max(r6, 0)) + 1):
                    r7 = r6 - m7 * m7
                    if r7 > m7 * m7:
                        m8 = isqrt(r7)
                        if m8 * m8 == r7 and m8 > m7 and (m5 + m6 + m7 + m8) % 2 == 0:
                            yield (m5, m6, m7, m8)
            m5 += 1
    elif case == "III":
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
        yield from rec((), 1, two_d)
    elif case == "IV":
        bound = isqrt(two_d)

        def rec(prefix, lo, sq):
            k = len(prefix)
            if k == 4:
                # m7 solves sq + m7^2 + (s + m7)^2 = 2d, i.e.
                # m7 = (-s +- sqrt(D)) / 2 with D = 4d - s^2 - 2 sq
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
        yield from rec((), -bound, 0)
    else:
        raise ValueError(f"unknown case {case!r}")


def _case4_canonical(ms, m8):
    """Global-sign normalisation: keep the representative with m8 > 0, or the
    lexicographically smaller sorted tuple when m8 == 0."""
    if m8 > 0:
        return True
    if m8 < 0:
        return False
    return ms <= tuple(sorted(-m for m in ms))


# ---------------------------------------------------------------------------
# hits and searches
# ---------------------------------------------------------------------------

class SearchHit:
    """A vector l in E8 with norm 2d orthogonal to n_l roots."""

    __slots__ = ("d", "coords2x", "n_l", "source")

    def __init__(self, d, coords2x, n_l, source):
        self.d = d
        self.coords2x = tuple(coords2x)
        self.n_l = n_l
        self.source = source
        norm = e8.dot2x(self.coords2x, self.coords2x)
        if norm != 2 * d:
            raise LatticeError(f"hit {self.coords2x} has norm {norm}, expected {2 * d}")

    @property
    def weight(self):
        return 12 + self.n_l // 2

    def sort_key(self):
        return (self.n_l, self.coords2x)

    def to_dict(self):
        return {"d": self.d, "coords2x": list(self.coords2x), "N_l": self.n_l,
                "weight": self.weight, "source": self.source}

    def __repr__(self):
        return f"SearchHit(d={self.d}, N_l={self.n_l}, {self.source})"


_EMBED = {"I": embed_case1, "II": embed_case2, "III": embed_case3}
_PREDICATE = {"I": predicate_case1, "II": predicate_case2, "III": predicate_case3}


def structured_search(d, case, targets=range(2, 13)):
    """All hits of one structured family at degree d whose verified orthogonal
    -root count lies in `targets`, sorted by (N_l, coordinates)."""
    targets = frozenset(targets)
    hits = []
    for ms in iter_case_tuples(case, d):
        if case == "IV":
            claimed = case4_formula_count(ms)
            vec = embed_case4(*ms, sum(ms))
        else:
            claimed = _PREDICATE[case](ms)
            if claimed is None:
                continue
            vec = _EMBED[case](*ms)
        actual = e8.count_orth_roots_2x(vec)
        if actual != claimed:
            raise RuntimeError(
                f"case {case} rules claim {claimed} orthogonal roots but the "
                f"E8 root count gives {actual} for {ms}")
        if actual in targets:
            hits.append(SearchHit(d, vec, actual, f"case{case}"))
    hits.sort(key=SearchHit.sort_key)
    return hits


def structured_search_all(d, targets=range(2, 15)):
    hits = []
    for case in CASES:
        hits.extend(structured_search(d, case, targets))
    hits.sort(key=SearchHit.sort_key)
    return hits


# -- exhaustive search -------------------------------------------------------

def _enumerate_dominant(norm):
    """Dominant-chamber vectors of the given norm, as doubled e-coordinates.

    Every Weyl orbit contains exactly one vector with all simple-root
    pairings nonnegative, i.e. nonnegative coordinates on the fundamental
    weights; the weight Gram matrix is the inverse Cartan matrix.
    """
    w = e8.weight_gram()
    n = 8
    a = [[Fraction(w[i][j]) for j in range(n)] for i in range(n)]
    q = [None] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i] = a[i][i]
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / q[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= q[i] * u[i][k] * u[i][l]
                a[l][k] = a[k][l]

    x = [0] * n
    out = []

    def rec(i, budget):
        c = sum(u[i][j] * x[j] for j in range(i + 1, n))
        if i == 0:
            s = budget / q[0]
            rn, rd = isqrt(s.numerator), isqrt(s.denominator)
            if rn * rn != s.numerator or rd * rd != s.denominator:
                return
            for y in {Fraction(rn, rd), Fraction(-rn, rd)}:
                v = y - c
                if v.denominator == 1 and v >= 0:
                    x[0] = int(v)
                    if any(x):
                        vec = [0] * 8
                        for ci, wrow in zip(x, e8.WEIGHTS_2X):
                            if ci:
                                for t in range(8):
                                    vec[t] += ci * wrow[t]
                        out.append(tuple(vec))
            x[0] = 0
            return
        hi_b = isqrt((budget / q[i]).numerator * (budget / q[i]).denominator) \
            // (budget / q[i]).denominator
        hi = int(hi_b - c) if (hi_b - c).denominator == 1 else int(hi_b - c)
        while q[i] * (hi + 1 + c) ** 2 <= budget:
            hi += 1
        while hi >= 0 and q[i] * (hi + c) ** 2 > budget:
            hi -= 1
        for xi in range(0, hi + 1):
            x[i] = xi
            rec(i - 1, budget - q[i] * (xi + c) ** 2)
        x[i] = 0

    rec(n - 1, Fraction(norm))
    out.sort()
    return out


def exhaustive_search(d, max_roots=14, feasibility_bound=150, override=False,
                      method="dominant"):
    """Scan all l in E8 with l^2 = 2d; return a minimal hit with
    2 <= N_l <= max_roots, or None.

    The default method visits one dominant representative per Weyl orbit
    (the count N_l is constant on orbits); "stream" really visits every
    vector and is only sensible for small d.
    """
    if d < 1:
        raise LatticeError("d must be positive")
    if d > feasibility_bound and not override:
        raise FeasibilityError(
            f"exhaustive search at d={d} exceeds the feasibility bound "
            f"{feasibility_bound}; pass override=True to force it")
    best = None
    if method == "dominant":
        for vec in _enumerate_dominant(2 * d):
            n_l = e8.count_orth_roots_2x(vec)
            if 2 <= n_l <= max_roots:
                key = (n_l, vec)
                if best is None or key < best:
                    best = key
    elif method == "stream":
        lat = _e8_lattice()

        def visit(coords, _norm):
            nonlocal best
            vec = e8.to_2x(coords)
            n_l = e8.count_orth_roots_2x(vec)
            if 2 <= n_l <= max_roots:
                key = (n_l, vec)
                if best is None or key < best:
                    best = key

        rt.enumerate_norm_vectors(lat, 2 * d, visit)
    else:
        raise ValueError("method must be 'dominant' or 'stream'")
    if best is None:
        return None
    return SearchHit(d, best[1], best[0], "exhaustive")


# ---------------------------------------------------------------------------
# the per-degree verdict
# ---------------------------------------------------------------------------

GENERAL_TYPE = "general_type"
NONNEGATIVE_KODAIRA = "nonnegative_kodaira"
UNKNOWN = "unknown"


class Verdict:
    """Kodaira-type verdict for the degree-2d moduli space.

    general_type needs a witness with 2 <= N_l <= 12 (weight 12 + N_l/2 at
    most 18, below the dimension 19); nonnegative_kodaira needs a best
    witness with N_l = 14 (weight exactly 19).
    """

    __slots__ = ("d", "kind", "witness", "mineq", "mineqd")

    def __init__(self, d, kind, witness, mineq, mineqd):
        self.d = d
        self.kind = kind
        self.witness = witness
        self.mineq = mineq
        self.mineqd = mineqd

    def to_dict(self):
        return {
            "d": self.d,
            "kind": self.kind,
            "witness": self.witness.to_dict() if self.witness else None,
            "mineq": self.mineq,
            "mineqd": self.mineqd,
        }

    def __repr__(self):
        return f"Verdict(d={self.d}, {self.kind})"


def kodaira_verdict(d, feasibility_bound=150):
    """Derive the verdict for degree 2d; nothing about particular degrees is
    hardcoded, every claim is backed by a verified witness vector.

    Strategy: structured families first (cheap, covers the table degrees and
    far beyond), exhaustive orbit scan as the fallback.  When one of the two
    representation-number inequalities holds a witness must exist, so a
    fruitless search below the feasibility bound is an internal error.
    """
    mineq = check_mineq(d)
    mineqd = check_mineqd(d)
    hits = structured_search_all(d, targets=range(2, 15))
    witness = next((h for h in hits if h.n_l <= 12), None)
    best14 = next((h for h in hits if h.n_l == 14), None)
    if witness is None and d <= feasibility_bound:
        ex = exhaustive_search(d, max_roots=14, feasibility_bound=feasibility_bound)
        if ex is not None:
            if ex.n_l <= 12:
                witness = ex
            elif best14 is None:
                best14 = ex
        if witness is None and (mineq or mineqd):
            raise RuntimeError(
                f"inequalities promise a witness at d={d} but none was found")
    if witness is not None:
        return Verdict(d, GENERAL_TYPE, witness, mineq, mineqd)
    if best14 is not None:
        return Verdict(d, NONNEGATIVE_KODAIRA, best14, mineq, mineqd)
    return Verdict(d, UNKNOWN, None, mineq, mineqd)


# ---------------------------------------------------------------------------
# reference table rows (reproduction fixtures for reports and tests)
# ---------------------------------------------------------------------------
# Rows are (d, tuple) with counts in {8, 12} for family I, 10 for family
# II-10, 14 for II-14; families III and IV carry the count per row.  Two
# rows are corrected against the oracle: family IV at d=68 needs m8 = 6
# (the family constraint m8 = m3+...+m7 and the norm both force it), and
# family II-10 at d=82 needs (2;4,6,10) (the relation 3*5 = 3+4+8 puts the
# previous representative at 14 orthogonal roots, not 10).

TABLE_I = (
    (46, (1, 2, 4, 5)), (50, (1, 2, 3, 6)), (54, (2, 3, 4, 5)), (57, (1, 2, 4, 6)),
    (62, (1, 3, 4, 6)), (63, (1, 2, 3, 7)), (65, (2, 3, 4, 6)), (66, (1, 2, 5, 6)),
    (70, (1, 2, 4, 7)), (71, (1, 3, 5, 6)), (74, (2, 3, 5, 6)), (78, (1, 2, 3, 8)),
    (79, (1, 2, 5, 7)), (81, (2, 4, 5, 6)), (84, (1, 3, 5, 7)), (85, (1, 2, 4, 8)),
    (86, (3, 4, 5, 6)), (90, (1, 2, 6, 7)), (91, (1, 4, 5, 7)), (93, (2, 3, 4, 8)),
    (94, (1, 2, 5, 8)), (95, (1, 3, 6, 7)), (98, (2, 3, 6, 7)), (99, (3, 4, 5, 7)),
    (102, (1, 2, 4, 9)), (105, (1, 2, 6, 8)), (107, (1, 3, 4, 9)), (109, (2, 4, 5, 8)),
    (110, (1, 3, 6, 8)), (111, (1, 2, 5, 9)), (113, (2, 3, 6, 8)), (117, (1, 4, 6, 8)),
    (119, (2, 3, 5, 9)), (121, (1, 2, 4, 10)), (123, (1, 3, 7, 8)), (125, (3, 4, 6, 8)),
    (127, (1, 3, 6, 9)), (131, (3, 4, 5, 9)), (137, (2, 4, 6, 9)), (143, (1, 5, 6, 9)),
)

TABLE_II_10 = (
    (58, (1, 2, 3, 10)), (60, (3, 2, 5, 8)), (64, (5, 1, 4, 6)), (67, (2, 4, 5, 9)),
    (72, (3, 1, 4, 10)), (73, (4, 3, 5, 8)), (75, (6, 1, 4, 5)), (80, (3, 4, 6, 9)),
    (82, (2, 4, 6, 10)), (83, (2, 1, 3, 12)), (87, (6, 1, 4, 7)), (88, (1, 2, 5, 12)),
    (89, (2, 6, 7, 9)), (97, (4, 1, 8, 9)), (100, (7, 1, 4, 6)), (101, (4, 1, 3, 12)),
    (103, (8, 1, 2, 3)), (115, (4, 1, 9, 10)),
)

TABLE_II_14 = (
    (40, (1, 2, 3, 8)), (43, (2, 1, 3, 8)), (48, (3, 1, 2, 8)),
    (52, (1, 2, 4, 9)), (55, (4, 1, 5, 6)), (61, (2, 1, 3, 10)),
)

TABLE_III = (
    (69, (2, 3, 5, 6, 8), 12), (42, (1, 3, 3, 4, 7), 14), (48, (1, 1, 2, 3, 9), 14),
    (49, (2, 2, 4, 5, 7), 14), (51, (1, 6, 6, 2, 5), 14), (53, (1, 4, 4, 3, 8), 14),
    (54, (1, 3, 3, 5, 8), 14), (56, (1, 1, 5, 6, 7), 14), (59, (1, 2, 2, 3, 10), 14),
    (63, (3, 4, 4, 6, 7), 14),
)

TABLE_IV = (
    (68, (1, 3, 4, 5, -7, 6), 12), (77, (2, 3, 4, 5, -8, 6), 12),
    (92, (1, 1, 2, 3, 5, 12), 10), (40, (1, 1, 2, 3, -8, -1), 14),
)


def table_rows(which):
    """Validated reproduction rows for one family table.

    Each row is re-embedded, norm-checked and its root count recomputed with
    the oracle; returns (d, formatted tuple, N_l) triples in table order.
    """
    out = []
    if which == "I":
        for d, ms in TABLE_I:
            vec = embed_case1(*ms)
            _check_norm(vec, d, ms)
            n_l = e8.count_orth_roots_2x(vec)
            if n_l not in (8, 12):
                raise RuntimeError(f"family I row {ms} has N_l={n_l}")
            out.append((d, _fmt_tuple(ms, semi_at=None), n_l))
    elif which in ("II-10", "II-14"):
        rows = TABLE_II_10 if which == "II-10" else TABLE_II_14
        want = 10 if which == "II-10" else 14
        for d, ms in rows:
            vec = embed_case2(*ms)
            _check_norm(vec, d, ms)
            n_l = e8.count_orth_roots_2x(vec)
            if n_l != want:
                raise RuntimeError(f"family II row {ms} has N_l={n_l}, wanted {want}")
            out.append((d, _fmt_tuple(ms, semi_at=1), n_l))
    elif which == "III":
        for d, ms, want in TABLE_III:
            vec = embed_case3(*ms)
            _check_norm(vec, d, ms)
            n_l = e8.count_orth_roots_2x(vec)
            if n_l != want:
                raise RuntimeError(f"family III row {ms} has N_l={n_l}, wanted {want}")
            out.append((d, _fmt_tuple(ms, semi_at=None), n_l))
    elif which == "IV":
        for d, ms, want in TABLE_IV:
            vec = embed_case4(*ms)
            _check_norm(vec, d, ms)
            n_l = e8.count_orth_roots_2x(vec)
            if n_l != want:
                raise RuntimeError(f"family IV row {ms} has N_l={n_l}, wanted {want}")
            out.append((d, _fmt_tuple(ms, semi_at=5), n_l))
    else:
        raise ValueError(f"unknown table {which!r}")
    return out


def _check_norm(vec, d, ms):
    norm = e8.dot2x(vec, vec)
    if norm != 2 * d:
        raise RuntimeError(f"row {ms} has norm {norm}, expected {2 * d}")


def _fmt_tuple(ms, semi_at):
    parts = [str(m) for m in ms]
    if semi_at is None:
        return "(" + ",".join(parts) + ")"
    return "(" + ",".join(parts[:semi_at]) + ";" + ",".join(parts[semi_at:]) + ")"
