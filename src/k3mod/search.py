"""Search for vectors l in E8 of norm 2d orthogonal to few roots.

Four structured families (I-IV below) come from fixing a small root
sublattice and moving l in its orthogonal complement, written in doubled
e-coordinates.  `FAMILIES` holds, per family, a combinatorial rule for the
number of orthogonal roots and the embedding into E8.  Each family at a
degree is one verified stream of (N_l, coords2x): on every tuple with a
claim the norm is checked and the claim is re-verified against the
closed-form E8 root count (`e8.count_orth_roots_2x`), memoised per call on
the W(D8) class of the vector, since N_l is Weyl invariant.  The searches
build their hits from these streams; the verdict keeps one least key per
kind and builds one hit.  Family IV is the largest: its tuples
(m3, ..., m7, -m8) sum to zero, so they are the vectors of norm 2d in A5,
taken modulo S5 (permuting m3..m7) and the global sign.  Three loops choose
m3 <= m4 <= m5, with sum s; the last pair then solves x^2 + 3v^2 = K with
x = 3(m6 + m7) + 2s and v = m7 - m6.  One table of these solutions, shared
by all degrees up to K = 12d (`lattice._grown`), is indexed by K and by
x mod 3 and lists x descending: a triple reads only the x = 2s (mod 3) that
an integral m6 + m7 needs, and stops at the first x that makes
m8 = (x + s) / 3 negative or leaves no m6 >= m5.  The exhaustive search
enumerates one dominant representative per Weyl orbit (the orthogonal-root
count is Weyl invariant), which turns the 10^8-vector streams of the naive
scan into a handful of cone vectors; `roots.enumerate_cone` walks them on
the weight form in integers, so no rational arithmetic.  The walk takes the
fundamental weights in reverse Coxeter order, w1 outermost and w8 (norm 2,
the widest range) solved at the leaf, so it makes one leaf call per choice
of the seven narrower coordinates; a level with an empty range returns
before it computes the next level's centre (`_enumerate_dominant` has the
reasons).

Hit counts feed the per-degree verdict through one map, `_KIND`, from N_l
to the kind it decides (general type or a nonnegative Kodaira dimension).
The verdict has one rule at every degree: the families run first, and the
orbit scan runs wherever no family decides general type.
"""

from __future__ import annotations

import itertools
from math import isqrt
from operator import index, mul

from . import e8
from . import qseries as qs
from . import roots as rt
from .lattice import IntLattice, LatticeError, _grown


# ---------------------------------------------------------------------------
# inequalities and the exceptional degree set
# ---------------------------------------------------------------------------

def _check_degree(d):
    """The degree as an int (`operator.index`), checked positive."""
    d = index(d)
    if d < 1:
        raise LatticeError("d must be positive")
    return d


# each inequality holds at d when its margin, sum weight * N_L(2d), is positive
_INEQUALITIES = {
    "mineq": (("E7", 4), ("E6", -28), ("D6", -63)),
    "mineqd": (("E7", 5), ("E6", -28), ("D6", -63), ("D5", -378)),
}


def _margin(which, d):
    return sum(w * qs.rep_num(name, 2 * d) for name, w in _INEQUALITIES[which])


def check_mineq(d):
    """4 N_E7(2d) > 28 N_E6(2d) + 63 N_D6(2d), evaluated exactly; d >= 1."""
    return _margin("mineq", _check_degree(d)) > 0


def check_mineqd(d):
    """5 N_E7 > 28 N_E6 + 63 N_D6 + 378 N_D5 at norm 2d, evaluated exactly; d >= 1."""
    return _margin("mineqd", _check_degree(d)) > 0


def compute_pex(max_m=240):
    """Degrees m <= max_m where 5 theta_E7 - 28 theta_E6 - 63 theta_D6 - 378 theta_D5
    has a negative q^m coefficient (the degrees where the second inequality fails)."""
    max_m = index(max_m)
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    # read the top coefficients first, so each series is built once, at max_m
    for name, _w in _INEQUALITIES["mineqd"]:
        qs.rep_num(name, 2 * max_m)
    return [m for m in range(1, max_m + 1) if _margin("mineqd", m) < 0]


# ---------------------------------------------------------------------------
# the four structured families (doubled e-coordinates)
# ---------------------------------------------------------------------------
# I   : 4A1-orthogonal    l = m3(e3+e4) + m5(e5+e6) + m7(e7+e8) + m8(e7-e8)
# II  : (2A1+A2)-orth.    l = m5(e3+e4+e5) + m6 e6 + m7 e7 + m8 e8, sum even
# III : A3-orthogonal     l = m4 e4 + ... + m8 e8, coordinate sum even
# IV  : (A1+A2)-orth.     l = m3 e3 + ... + m8 e8 with m8 = m3 + ... + m7


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
    sums = [0]
    for v in values:
        sums = [x + v for x in sums] + [x - v for x in sums]
    return sums.count(target)


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
    vanishing coordinate (m3..m8), plus 2 per signed pair coincidence.  A
    subset of (m3..m7) splits into a subset of (m3, m4, m5) with sum L and
    one of (m6, m7) with sum R, and sums to zero when L = -R; so the zero-sum
    subsets, the empty one included, are counted by meeting the 8 sums L
    with the 4 sums R.
    """
    if len(ms) != 5:
        raise ValueError("case IV takes the free 5-tuple (m3..m7)")
    m3, m4, m5, m6, m7 = ms
    s34 = m3 + m4
    left = (0, m3, m4, s34, m5, m3 + m5, m4 + m5, s34 + m5)
    zero_sums = (left.count(0) + left.count(-m6) + left.count(-m7)
                 + left.count(-m6 - m7))
    count = 8 + 4 * (zero_sums - 1)
    full = tuple(ms) + (s34 + m5 + m6 + m7,)
    count += 8 * full.count(0)
    for x, y in itertools.combinations(full, 2):
        if x == y:
            count += 2
        if x == -y:
            count += 2
    return count


# case -> (the claimed orthogonal-root count of a tuple, or None to skip it;
#          the tuple's vector in doubled e-coordinates)
FAMILIES = {
    "I": (predicate_case1, lambda ms: embed_case1(*ms)),
    "II": (predicate_case2, lambda ms: embed_case2(*ms)),
    "III": (predicate_case3, lambda ms: embed_case3(*ms)),
    "IV": (case4_formula_count, lambda ms: embed_case4(*ms, sum(ms))),
}

CASES = tuple(FAMILIES)


# ---------------------------------------------------------------------------
# canonical tuple domains
# ---------------------------------------------------------------------------
# Cases I-III come from `_square_tuples`, given here as (lo, step, parity).
# I, (m3, m5, m7, m8) of square sum d: (1, 1, none), so 0 < m3 < ... < m8
# (the count depends only on the set of absolute values).  II, m5 >= 1 and
# (m6, m7, m8) of square sum 2d - 3 m5^2: (1, 1, m5 + ... + m8 even).  III,
# (m4, ..., m8) of square sum 2d: (1, 0, sum even).  Case IV runs over the
# A5 shell vectors (m3, ..., m7, -m8) of norm 2d modulo S5 x {+-1}:
# m3 <= ... <= m7, and m8 = m3 + ... + m7 > 0, or m8 = 0 and the tuple is
# the smaller of itself and its negative sorted.  Its last pair (m6, m7)
# comes from the solutions of x^2 + 3v^2 = K (`_case4_pairs`), so no loop
# runs over m6 or m7.  Sign flips and coordinate permutations fixing each
# family preserve the counts, so these domains see every hit class.

def iter_case_tuples(case, d):
    """The tuples of family `case` at degree d (see the domains above)."""
    d = _check_degree(d)
    if case not in FAMILIES:
        raise ValueError(f"unknown case {case!r}")
    return _case_tuples(case, d)


def _square_tuples(total, k, lo, step):
    """The k-tuples x with x_1 >= lo, x_{i+1} >= x_i + step and square sum
    total, in lexicographic order; step >= 0, so k x_1^2 <= total.  The last
    coordinate comes from isqrt, and k = 2 solves it inline."""
    x = lo
    if k == 2:
        while 2 * x * x <= total:
            rest = total - x * x
            y = isqrt(rest)
            if y * y == rest and y >= x + step:
                yield x, y
            x += 1
        return
    while k * x * x <= total:
        for tail in _square_tuples(total - x * x, k - 1, x + step, step):
            yield (x, *tail)
        x += 1


def _case_tuples(case, d):
    two_d = 2 * d
    if case == "I":
        yield from _square_tuples(d, 4, 1, 1)
    elif case == "II":
        for m5 in range(1, isqrt(two_d // 3) + 1):
            for ms in _square_tuples(two_d - 3 * m5 * m5, 3, 1, 1):
                if (m5 + sum(ms)) % 2 == 0:
                    yield (m5, *ms)
    elif case == "III":
        for ms in _square_tuples(two_d, 5, 1, 0):
            if sum(ms) % 2 == 0:
                yield ms
    else:  # "IV"
        # the last pair from u = m6 + m7, v = m7 - m6 >= 0: with s and sq the
        # sum and square sum of (m3, m4, m5), the norm equation reads
        # x^2 + 3v^2 = K with x = 3u + 2s and K = 6(2d - sq) - 2s^2 <= 12d.
        # K is even, so x and v have one parity, and so do u and v: once
        # x = 2s (mod 3), m6 = (lo - 2s) / 6 and m7 = (hi - 2s) / 6 are
        # integers, with lo = x - 3v and hi = x + 3v.  The shared table lists
        # the (x, lo, hi) per K and x mod 3, x descending, so a triple reads
        # only the x of its residue.  It stops at the first x < -s, where
        # m8 = s + u = (x + s) / 3 turns negative, or x < 2s + 6 m5, where
        # lo <= x can no longer give m6 >= m5.
        table = _grown("case4", 12 * d, _case4_pairs)
        for m3 in _case4_range(-isqrt(two_d), 0, 0, 4, two_d):
            for m4 in _case4_range(m3, m3, m3 * m3, 3, two_d):
                s4, sq4 = m3 + m4, m3 * m3 + m4 * m4
                for m5 in _case4_range(m4, s4, sq4, 2, two_d):
                    s, sq = s4 + m5, sq4 + m5 * m5
                    t = 2 * s
                    entries = table.get(3 * (6 * (two_d - sq) - s * t) + t % 3)
                    if entries is None:
                        continue
                    low6 = t + 6 * m5  # m6 >= m5 reads lo >= low6
                    stop = max(-s, low6)
                    tails = []
                    for x, lo, hi in entries:
                        if x < stop:
                            break
                        if lo >= low6:
                            ms = (m3, m4, m5, (lo - t) // 6, (hi - t) // 6)
                            # the global sign: m8 > 0, or m8 = 0 and ms <= -ms sorted
                            if x > -s or ms <= tuple(sorted(-m for m in ms)):
                                tails.append(ms)
                    tails.sort()
                    yield from tails


def _case4_range(lo, s, sq, free, two_d):
    """The values m >= lo of the next family-IV coordinate, given the sum s
    and square sum sq of the coordinates before it, with `free` of m3..m7
    still to come after it and m8 = m3 + ... + m7 last.

    With S = s + m and Q = sq + m^2, the rest adds at least S^2/(free + 1)
    to the norm, so (free + 1)(2d - Q) >= S^2: a quadratic in m.  For m > 0
    every later coordinate is >= m, so m8 >= S + free m as well.
    """
    a, b = free + 2, free + 1
    rem = two_d - sq
    disc = b * (a * rem - s * s)
    if disc < 0:
        return range(0)
    r = isqrt(disc)
    lo = max(lo, -((s + r) // a))
    hi = (r - s) // a
    if hi > 0:
        # largest m > 0 with b m^2 + max(0, s + b m)^2 <= rem
        hi = min(hi, max(0, (r - b * s) // (a * b),
                         min(isqrt(rem // b), (-s - 1) // b)))
    return range(lo, hi + 1)


def _case4_pairs(top):
    """The solutions of x^2 + 3v^2 = K with v >= 0 and K even, for every K
    up to top: a dict from 3K + (x mod 3) to the tuple of (x, x - 3v,
    x + 3v), x descending.  Family IV reads one such table for all degrees,
    `lattice._grown("case4", 12d, _case4_pairs)`: a larger table holds the
    same entries for every K <= top, in the same order, so what a degree
    reads does not depend on the table's history."""
    lists = {}
    for v in range(isqrt(top // 3) + 1):
        # K is even in every lookup: x and v have one parity
        for w in range(v % 2, isqrt(top - 3 * v * v) + 1, 2):
            for x in (w, -w) if w else (0,):
                lists.setdefault(3 * (w * w + 3 * v * v) + x % 3, []).append(
                    (x, x - 3 * v, x + 3 * v))
    return {key: tuple(sorted(entries, reverse=True)) for key, entries in lists.items()}


# ---------------------------------------------------------------------------
# hits and searches
# ---------------------------------------------------------------------------

class SearchHit:
    """A vector l in E8 with norm 2d orthogonal to n_l roots."""

    __slots__ = ("d", "coords2x", "n_l", "source")

    def __init__(self, d, coords2x, n_l, source):
        self.d = d = _check_degree(d)
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


def _family_stream(case, d):
    """The verified (N_l, coords2x) of every tuple of family `case` at degree
    d whose rule claims a count, in tuple order.

    Every such tuple is checked twice before it is yielded: its vector must
    have norm 2d (doubled coordinates: square sum 8d), and the claim must
    equal the closed-form E8 root count, else RuntimeError.  The count is
    memoised for this one call on the class key sorted(|v_i|), which is
    sound when some coordinate is 0: then every signed permutation of v is
    a product of transpositions and an even number of sign changes (flip
    the zero coordinate too), so it lies in W(D8), which is a subgroup of
    W(E8), and N_l is Weyl invariant.  Every family vector has e1 = e2 = 0,
    so every key starts with 0; a key that does not is an internal error.
    """
    tuples = iter_case_tuples(case, d)
    claim, embed = FAMILIES[case]
    oracle = e8.count_orth_roots_2x
    eight_d = 8 * d
    counts = {}
    for ms in tuples:
        claimed = claim(ms)
        if claimed is None:
            continue
        vec = embed(ms)
        norm = sum(map(mul, vec, vec))
        if norm != eight_d:
            raise RuntimeError(f"case {case} tuple {ms} has square sum {norm} "
                               f"in doubled coordinates, expected 8d = {eight_d}")
        key = tuple(sorted(map(abs, vec)))
        actual = counts.get(key)
        if actual is None:
            # a key met before starts with 0, so checking new keys checks all
            if key[0]:
                raise RuntimeError(f"case {case} vector {vec} has no zero "
                                   f"coordinate, so sorted(|v_i|) is no W(D8) class")
            actual = counts[key] = oracle(vec)
        if actual != claimed:
            raise RuntimeError(
                f"case {case} rules claim {claimed} orthogonal roots but the "
                f"E8 root count gives {actual} for {ms}")
        yield actual, vec


def structured_search(d, case, targets):
    """All hits of one structured family at degree d whose verified orthogonal
    -root count lies in `targets`, sorted by (N_l, coordinates).

    The hits are the members of the family's verified stream (every claim
    and norm checked on every tuple, see `_family_stream`) with N_l in
    `targets`."""
    d = _check_degree(d)
    targets = frozenset(targets)
    hits = [SearchHit(d, vec, n_l, f"case{case}")
            for n_l, vec in _family_stream(case, d) if n_l in targets]
    hits.sort(key=SearchHit.sort_key)
    return hits


def structured_search_all(d, targets):
    d = _check_degree(d)
    hits = []
    for case in CASES:
        hits.extend(structured_search(d, case, targets))
    hits.sort(key=SearchHit.sort_key)
    return hits


# -- exhaustive search -------------------------------------------------------

# E8 on the fundamental weights w8, ..., w1, the reverse Coxeter order of
# `_enumerate_dominant` (it carries the memoised scaled form); the
# e-coordinate t of x_0 w8 + ... + x_7 w1 is the pairing of x with column t
_WEIGHT_LATTICE = IntLattice(tuple(row[::-1] for row in e8.weight_gram()[::-1]))
_WEIGHT_COLUMNS = tuple(zip(*e8.WEIGHTS_2X[::-1]))


def _enumerate_dominant(norm):
    """Dominant-chamber vectors of the given norm, as sorted doubled
    e-coordinates.

    Every Weyl orbit contains exactly one vector with all simple-root
    pairings nonnegative, i.e. nonnegative coordinates x_i on the fundamental
    weights; the weight Gram matrix is the inverse Cartan matrix.  So the
    vectors are the nonnegative cone of that form at this norm
    (`roots.enumerate_cone`), mapped to e-coordinates.

    The walk takes the weights in reverse Coxeter order: w1 at its outermost
    level, w8 solved from the square root at the leaf.  The walk makes one
    leaf call per choice of the other seven coordinates, and w8 has norm 2,
    the least of the eight, so its coordinate has the widest range and is
    the one best solved rather than walked.  Of the orders measured
    (Coxeter, reversed, ascending norm, 60 random ones) this was the fastest
    at d <= 61, 62..150 and 200..300; orders that solve w4 (norm 30, the
    narrowest range) at the leaf were over 100 times slower.

    Most levels of the walk (`roots._walk`) have an empty range.  They
    return before computing the next level's centre, so the walk pays for
    a centre product only where a coordinate has a value to take.
    """
    out = [tuple(sum(map(mul, col, x)) for col in _WEIGHT_COLUMNS)
           for x in rt.enumerate_cone(_WEIGHT_LATTICE, norm)]
    out.sort()
    return out


def exhaustive_search(d):
    """Scan all l in E8 with l^2 = 2d; return the hit with the least
    (N_l, coords2x) whose N_l decides a verdict (`_KIND`), or None.

    Visits one dominant representative per Weyl orbit (the count N_l is
    constant on orbits), found by an integer walk of the weight
    coordinates; runs at any d >= 1.
    """
    d = _check_degree(d)
    count = e8.count_orth_roots_2x
    best = min(((n_l, vec) for vec in _enumerate_dominant(2 * d)
                if (n_l := count(vec)) in _KIND), default=None)
    return None if best is None else SearchHit(d, best[1], best[0], "exhaustive")


# ---------------------------------------------------------------------------
# the per-degree verdict
# ---------------------------------------------------------------------------

GENERAL_TYPE = "general_type"
NONNEGATIVE_KODAIRA = "nonnegative_kodaira"
UNKNOWN = "unknown"

# the one verdict rule, N_l -> kind: a vector orthogonal to 2 <= N_l <= 12
# roots gives a cusp form of weight 12 + N_l/2 <= 18, below the dimension
# 19, so general type; N_l = 14 gives weight exactly 19, so kappa >= 0.  No
# other N_l decides anything.
_KIND = {**dict.fromkeys(range(2, 13), GENERAL_TYPE), 14: NONNEGATIVE_KODAIRA}


class Verdict:
    """Kodaira-type verdict for the degree-2d moduli space; the kind is
    computed from the witness: `_KIND` of its N_l, or unknown when there is
    no witness.  A witness whose N_l decides no kind is a `ValueError`.
    """

    __slots__ = ("d", "kind", "witness", "mineq", "mineqd")

    def __init__(self, d, witness, mineq, mineqd):
        self.kind = UNKNOWN if witness is None else _KIND.get(witness.n_l)
        if self.kind is None:
            raise ValueError(f"a witness with N_l = {witness.n_l} decides no verdict")
        self.d = d
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


def kodaira_verdict(d):
    """Derive the verdict for degree 2d; nothing about particular degrees is
    hardcoded, every claim is backed by a verified witness vector.

    One rule at every d, `_KIND`: the witness is the least (N_l, coords2x)
    of kind general_type, else of kind nonnegative_kodaira, else there is
    none and the kind is unknown.  The structured families run first, read
    as their verified streams (`_family_stream`: every tuple's claim and
    norm checked) in CASES order.  One table keeps, per kind, the least key
    and its source, replaced only on a strict <, so among equal keys the
    first family wins, as in the sorted `structured_search_all`.  The
    exhaustive orbit scan runs only when no family gives general type, and
    its hit fills only a kind that no family filled: a family's
    N_l = 14 vector is kept even where the scan's key is smaller.  When one
    of the two representation-number inequalities holds a general-type
    witness must exist, so a fruitless scan is an internal error.
    """
    d = _check_degree(d)
    mineq = check_mineq(d)
    mineqd = check_mineqd(d)
    best = {}  # kind -> ((N_l, coords2x), source)
    for case in CASES:
        source = f"case{case}"
        for key in _family_stream(case, d):
            kind = _KIND.get(key[0])
            if kind is not None:
                held = best.get(kind)
                if held is None or key < held[0]:
                    best[kind] = key, source
    if GENERAL_TYPE not in best:
        ex = exhaustive_search(d)
        if ex is not None:
            best.setdefault(_KIND[ex.n_l], (ex.sort_key(), ex.source))
        if GENERAL_TYPE not in best and (mineq or mineqd):
            raise RuntimeError(
                f"inequalities promise a witness at d={d} but none was found")
    won = best.get(GENERAL_TYPE) or best.get(NONNEGATIVE_KODAIRA)
    witness = None if won is None else SearchHit(d, won[0][1], won[0][0], won[1])
    return Verdict(d, witness, mineq, mineqd)


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


# table -> (rows, embedding, the N_l every row must have or None when each
#           row carries its own as a third entry, position of the ';')
_TABLES = {
    "I": (TABLE_I, embed_case1, (8, 12), None),
    "II-10": (TABLE_II_10, embed_case2, (10,), 1),
    "II-14": (TABLE_II_14, embed_case2, (14,), 1),
    "III": (TABLE_III, embed_case3, None, None),
    "IV": (TABLE_IV, embed_case4, None, 5),
}
TABLES = tuple(_TABLES)


def table_rows(which):
    """Validated reproduction rows for one family table.

    Each row is re-embedded, norm-checked and its root count recomputed with
    the oracle; returns (d, formatted tuple, N_l) triples in table order.
    """
    if which not in _TABLES:
        raise ValueError(f"unknown table {which!r}")
    rows, embed, wanted, semi_at = _TABLES[which]
    out = []
    for d, ms, *own in rows:
        want = wanted or own
        vec = embed(*ms)
        norm = e8.dot2x(vec, vec)
        if norm != 2 * d:
            raise RuntimeError(f"row {ms} has norm {norm}, expected {2 * d}")
        n_l = e8.count_orth_roots_2x(vec)
        if n_l not in want:
            raise RuntimeError(f"table {which} row {ms} has N_l={n_l}, "
                               f"wanted {' or '.join(map(str, want))}")
        out.append((d, _fmt_tuple(ms, semi_at), n_l))
    return out


def _fmt_tuple(ms, semi_at):
    parts = [str(m) for m in ms]
    if semi_at is None:
        return "(" + ",".join(parts) + ")"
    return "(" + ",".join(parts[:semi_at]) + ";" + ",".join(parts[semi_at:]) + ")"
