"""Integral lattices given by Gram matrices, with exact arithmetic throughout.

Everything here works over Z with arbitrary-precision integers.  One
fraction-free elimination, `symmetric_bareiss`, reduces every Gram matrix:
the determinant and the signature of a lattice, taken per orthogonal summand
(`_summands`), and the walker's square completion in `roots` all come from
its pivot rows.  The discriminant group A_L = L^vee/L is read on the
non-unimodular summands alone (`disc_group`), since a unimodular summand
adds nothing to it.  One kernel, `mat_mul`, forms every matrix product in the
package: the SNF check of `disc_group`, the complement Gram of
`orth_complement`, the form check of `reflective.IsometryMatrix` and the
powers in `rst`; one kernel, `_mat_vec`, forms every matrix-vector product
(`pairing_vector`, `reflective.IsometryMatrix.apply_coords`).  Both skip
the zeros of a sparse factor, so a lift of A_{L_2d}, with one nonzero
coordinate, is cheap to pair and to move.
A lattice expression (`parse_lattice_expr`, `make_l2d`) is
parsed into integer Gram blocks, one per atom, whose orthogonal sum becomes
one `IntLattice`: each basis vector is eliminated once.  A dual vector is
integer numerators over one positive denominator, so dual membership,
pairings and the action of an isometry on A_L are integer sums and
congruences; Fractions appear only in outputs (dual coordinates, pairings,
discriminant-form values).  No floating point: discriminant groups, divisors
and elementary divisors are integrality statements and are computed as such.

A vector is its coordinates: every vector argument is a sequence of
integers, one per basis vector, passed beside its lattice and read by
`coords_of`; a wrong length raises `LatticeError`, an entry that is not an
integer `TypeError`.

Caches follow three rules: data derived from one lattice is memoised on it
(`IntLattice.memoised`); a value fixed by its arguments comes from
`functools.cache` on its builder, which returns an immutable value; and a
process-wide table that must cover a requested bound comes from `_grown`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd, prod
from operator import index, mul


class LatticeError(ValueError):
    pass


class ParseError(LatticeError):
    """Raised on malformed lattice expressions; carries the failing position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# small exact linear algebra over Z
# ---------------------------------------------------------------------------

def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    """The product a b of integer matrices given as lists of rows, or
    `LatticeError` when the shapes do not match.  Zeros cost nothing: each
    row of b is read as its nonzero (j, b_kj), and a_ik = 0 skips row k."""
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    if any(len(row) != inner for row in a) or any(len(row) != cols for row in b):
        raise LatticeError("matrix shapes do not match for a product")
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = [[0] * cols for _ in range(rows)]
    for ai, oi in zip(a, out):
        for s, bk in zip(ai, nonzero):
            if s:
                for j, x in bk:
                    oi[j] += s * x
    return out


def _mat_vec(rows, coords):
    """M x for M given as rows: the sum, over the nonzero x_j, of x_j times
    column j of M, so it costs rank x |support| instead of rank^2.  Per
    product that costs more than the row sums: at every coordinate nonzero
    about 2x (31 against 16 us at rank 16), and the two cross near half the
    coordinates nonzero (measured at rank 8, 16 and 21).  So a vector with
    more than half its coordinates nonzero, such as the one that
    `roots.count_orth_roots` pairs, takes the row sums."""
    if 2 * (len(coords) - coords.count(0)) > len(coords):
        return [sum(map(mul, row, coords)) for row in rows]
    out = [0] * len(rows)
    for j, x in enumerate(coords):
        if x:
            out = [o + x * row[j] for o, row in zip(out, rows)]
    return out


def symmetric_bareiss(gram):
    """The pivot rows of a fraction-free elimination of a nonsingular symmetric
    integer matrix G (Bareiss, *Math. Comp.* 22, 1968): the one place a Gram
    matrix is reduced.

    Row k has r_k[k] = D_{k+1}, the leading principal minor of order k + 1,
    and r_k[j] (j > k) the minor on rows 0..k and columns 0..k-1, j; the
    entries left of the diagonal mean nothing.  So D_n = det G, and G has one
    negative eigenvalue per sign change along 1, D_1, ..., D_n (Jacobi).
    Step k sets a_ij = (a_ij D_{k+1} - a_ik a_kj) / D_k below row k, and
    Sylvester's identity makes the division exact.

    A zero pivot is replaced by a congruence on rows and columns k..n-1: a
    swap with a later nonzero diagonal entry, else the addition of a later
    row and column j that meets row k (the new pivot is 2 a_kj).  It is
    unimodular, so it keeps det G, the signature and D_1, ..., D_k, and the
    divisions stay exact; the rows are then those of the transformed matrix.
    A definite G has no zero minor, so it never pivots.  A zero row k of the
    remaining block means G is singular: `LatticeError`, as for an empty or
    non-square G.
    """
    a = [list(row) for row in gram]
    n = len(a)
    if not n or any(len(row) != n for row in a):
        raise LatticeError("Gram matrix is empty or not square")
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j] = a[j], a[k]
                for r in a:
                    r[k], r[j] = r[j], r[k]
            else:
                j = next((j for j in range(k + 1, n) if a[k][j]), None)
                if j is None:
                    raise LatticeError("Gram matrix is singular")
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                for r in a:
                    r[k] += r[j]
        rk = a[k]
        p = rk[k]
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * p - f * rk[j]) // prev
        prev = p
    return a


def _snf_pivot(a, t, cols):
    """(i, j) of the nonzero entry of least absolute value in the block
    a[t:, t:cols], ties broken row-major (the first one met wins), or None
    when the block is zero.  The scan stops at the first entry of absolute
    value 1: nothing nonzero is smaller, and every later tie loses to it."""
    best = piv = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, cols):
            x = abs(row[j])
            if x and (best is None or x < best):
                if x == 1:
                    return i, j
                best, piv = x, (i, j)
    return piv


def smith_normal_form(mat):
    """Smith normal form with transforms: returns (d, u, v) with u*mat*v = d.

    The moves act on two augmented matrices at once: each row of mat carries
    its row of u on the right ([mat | u], so a row move is one statement),
    and the rows of v sit under the columns ([mat ; v], so a column move is
    one statement).  Deterministic pivoting (`_snf_pivot`; Cohen, *A Course
    in Computational Algebraic Number Theory*, 2.4): smallest absolute
    nonzero entry, ties broken row-major, the scan stopping at the first unit
    entry, so generator lifts derived from `v` are reproducible.  Rows of
    unequal length are a `LatticeError`.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if any(len(row) != cols for row in mat):
        raise LatticeError("matrix rows must have equal length")
    a = [[*row, *e] for row, e in zip(mat, identity_matrix(rows))] + identity_matrix(cols)

    def row_op(i, j, q):  # row_i -= q * row_j, u included
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):  # col_i -= q * col_j, v included
        for r in a:
            r[i] -= q * r[j]

    def swap_cols(i, j):
        if i == j:
            return
        for r in a:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(rows, cols):
        piv = _snf_pivot(a[:rows], t, cols)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        swap_cols(t, j)
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:  # remainder becomes the new, smaller pivot
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the remaining block, as a unit pivot does
            if a[t][t] in (1, -1):
                break
            witness = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t]:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            row_op(t, witness, -1)  # fold the offending row into row t
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [row[:cols] for row in a[:rows]], [row[cols:] for row in a[:rows]], a[rows:]


def kernel_basis(mat):
    """Saturated basis of {x in Z^n : mat * x = 0}, as columns."""
    if not mat:
        raise LatticeError("matrix has no rows")
    d, _u, v = smith_normal_form(mat)
    rows = len(mat)
    cols = len(mat[0])
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


# key -> (bound, table): the process-wide tables of `_grown`
_grown_tables = {}


def _grown(key, bound, build):
    """The table build(top) stored under key, for some top >= bound.  The first
    build is at exactly bound; a request above the stored bound rebuilds at
    max(bound, 2 * stored), so an ascending sweep rebuilds O(log) times.
    build(top) must answer every request up to top as build(bound) would."""
    entry = _grown_tables.get(key)
    if entry is None or entry[0] < bound:
        if entry is not None:
            bound = max(bound, 2 * entry[0])
        _grown_tables[key] = entry = bound, build(bound)
    return entry[1]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _summands(g):
    """The orthogonal summands of g, least index first: the components of
    its nonzero pattern, as ascending indices that may interleave."""
    idx = range(len(g))
    seen = set()
    blocks = []
    for start in idx:
        if start not in seen:
            seen.add(start)
            block = [start]
            for i in block:  # the loop reaches what it appends: a breadth-first search
                new = set(compress(idx, g[i])) - seen
                seen |= new
                block += new
            blocks.append(sorted(block))
    return blocks


class IntLattice:
    """An integral lattice presented by a symmetric Gram matrix.

    Instances are immutable after construction.  Every function that takes
    a vector of the lattice takes its coordinates beside the lattice and
    reads them through `coords_of`, so a coordinate tuple of the wrong length
    raises `LatticeError`.  The Gram entries follow the same rule as vector
    entries: one that is not an integer is a `TypeError`, never truncated.
    The det and the signature are the product and the sum of those of the
    orthogonal summands (`_summands`), each from one `symmetric_bareiss`
    pass; an empty Gram or a singular summand is a `LatticeError`.  The
    same pass keeps the basis indices outside the unimodular summands
    (|det| = 1), the only ones `disc_group` reads.  Data
    derived from the Gram matrix (`disc_group`, the root data) is memoised
    on the instance (`memoised`), so it lives exactly as long as the lattice.
    """

    __slots__ = ("gram", "rank", "name", "_det", "_signature", "_nonunimodular", "_memo")

    def __init__(self, gram, name=None):
        g = tuple(tuple(map(index, row)) for row in gram)
        n = len(g)
        if not n or any(len(row) != n for row in g):
            raise LatticeError("Gram matrix is empty or not square")
        if g != tuple(zip(*g)):
            raise LatticeError("Gram matrix must be symmetric")
        det, neg, keep = 1, 0, []
        for block in _summands(g):
            pivots = symmetric_bareiss([[g[i][j] for j in block] for i in block])
            minors = [1] + [row[k] for k, row in enumerate(pivots)]
            det *= minors[-1]
            neg += sum((p < 0) != (q < 0) for p, q in zip(minors, minors[1:]))
            if abs(minors[-1]) != 1:
                keep += block
        self.gram = g
        self.rank = n
        self.name = name
        self._det = det
        self._signature = (n - neg, neg)
        self._nonunimodular = tuple(sorted(keep))
        self._memo = {}

    def memoised(self, key, build):
        """`build(self)`, computed once per key for this lattice."""
        memo = self._memo
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    @property
    def det(self):
        return self._det

    @property
    def signature(self):
        """(n_plus, n_minus)."""
        return self._signature

    def is_even(self):
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def __repr__(self):
        label = self.name or f"rank-{self.rank} lattice"
        return f"IntLattice({label}, det={self.det})"


class DualVec:
    """A vector of the dual lattice: integer numerators `num` (coordinates in
    the lattice basis, read by `coords_of`) over one positive denominator
    `den`.

    Membership is checked in integers: every pairing with a basis vector,
    the entries of `pairing_vector(lattice, num)`, is divisible by `den`.
    `pair` is the bilinear form on dual vectors of one lattice (the same
    object); `coords` gives the rational coordinates, for output only.
    """

    __slots__ = ("lattice", "num", "den")

    def __init__(self, lattice, num, den):
        num = coords_of(lattice, num)
        den = index(den)
        if den < 1:
            raise LatticeError("denominator must be positive")
        if any(p % den for p in pairing_vector(lattice, num)):
            raise LatticeError("vector does not pair integrally with the lattice")
        self.lattice = lattice
        self.num = num
        self.den = den

    @property
    def coords(self):
        return tuple(Fraction(c, self.den) for c in self.num)

    def pair(self, other):
        """The rational pairing (self, other) with another dual vector of the lattice."""
        if other.lattice is not self.lattice:
            raise LatticeError("vector belongs to a different lattice")
        return Fraction(sum(map(mul, pairing_vector(self.lattice, self.num), other.num)),
                        self.den * other.den)

    def norm(self):
        return self.pair(self)

    def __repr__(self):
        return f"DualVec{tuple(str(c) for c in self.coords)}"


class DiscGroup:
    """The finite group A_L = L^vee / L as cyclic invariant factors, with its
    discriminant form.

    `generator_lifts[i]` is a `DualVec` whose class generates the i-th
    cyclic factor; the rest is computed from the lifts.  The invariant
    factors are their denominators, and `q_values` are the discriminant-form
    values (g, g) of the lifts as Fractions, reduced into [0, 2), or None
    when the lattice is odd.  The lattice is read only for its parity.
    `two_elementary` and `parity_delta` are Nikulin's invariants of the form
    (*Integral symmetric bilinear forms and some of their applications*,
    Math. USSR Izv. 14, 1980), computed on read.
    """

    __slots__ = ("invariant_factors", "generator_lifts", "q_values")

    def __init__(self, lattice, generator_lifts):
        self.generator_lifts = lifts = tuple(generator_lifts)
        self.invariant_factors = tuple(lift.den for lift in lifts)
        self.q_values = tuple(lift.norm() % 2 for lift in lifts) if lattice.is_even() else None

    @property
    def order(self):
        return prod(self.invariant_factors)

    @property
    def exponent(self):
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def is_cyclic(self):
        return len(self.invariant_factors) <= 1

    @property
    def two_elementary(self):
        """Every invariant factor is 2 (True for the trivial group)."""
        return all(f == 2 for f in self.invariant_factors)

    @property
    def parity_delta(self):
        """0 when the discriminant form takes only integral values, else 1;
        None when the lattice is odd, as `q_values` is.

        The value at the sum of some generators is the sum of their q-values
        plus 2 (g_i, g_j) over each pair, so the form is integral exactly when
        every q-value and every doubled pairing of two lifts is an integer."""
        if self.q_values is None:
            return None
        lifts = self.generator_lifts
        return int(any(q.denominator != 1 for q in self.q_values)
                   or any((2 * a.pair(b)).denominator != 1
                          for i, a in enumerate(lifts) for b in lifts[i + 1:]))

    def __repr__(self):
        return f"DiscGroup{self.invariant_factors}"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

_E8_EDGES = ((1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _dynkin_gram(kind, n):
    """The Cartan matrix of A_n, D_n or E_n (kind "A", "D" or "E"): 2 on the
    diagonal and -1 on each edge of the Dynkin diagram.  D_n is the chain
    e_i - e_{i+1} plus the fork e_{n-1} + e_n; E_n is on the Coxeter basis
    (chain 1-3-4-5-6-7-8, node 2 on 4)."""
    if kind == "E":
        if n not in (6, 7, 8):
            raise LatticeError("E(n) needs n in {6, 7, 8}")
        edges = [(i - 1, j - 1) for i, j in _E8_EDGES if j <= n]
    else:
        low = 1 if kind == "A" else 2
        if n < low:
            raise LatticeError(f"{kind}(n) needs n >= {low}")
        # the chain has n - 1 edges in A_n, n - 2 in D_n
        edges = [(i, i + 1) for i in range(n - low)]
        if kind == "D" and n >= 3:
            edges.append((n - 3, n - 1))
    g = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def root_lattice_d(n):
    return IntLattice(_dynkin_gram("D", n), name=f"D{n}")


def root_lattice_e(n):
    return IntLattice(_dynkin_gram("E", n), name=f"E{n}")


def _block_gram(blocks):
    """The block-diagonal Gram matrix of the orthogonal sum of the Gram `blocks`."""
    n = sum(map(len, blocks))
    g = [[0] * n for _ in range(n)]
    off = 0
    for block in blocks:
        for i, row in enumerate(block):
            g[off + i][off:off + len(row)] = row
        off += len(block)
    return g


def make_l2d(d):
    """The signature (2, 19) lattice 2U + 2E8(-1) + <-2d>; the <-2d> generator is last."""
    d = index(d)
    if d < 1:
        raise LatticeError("polarisation degree d must be positive")
    return IntLattice(_expr_gram(f"2U+2E8(-1)+<{-2 * d}>"), name=f"L_{2 * d}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def coords_of(lat, x):
    """The coordinates x of a vector of `lat`, as a tuple of ints.

    x is a sequence of `lat.rank` integers: `LatticeError` for a wrong
    length, `TypeError` for an entry that is not an integer (no truncation).
    """
    coords = tuple(map(index, x))
    if len(coords) != lat.rank:
        raise LatticeError("coordinate length does not match lattice rank")
    return coords


def inner(lat, x, y):
    return sum(map(mul, pairing_vector(lat, coords_of(lat, x)), coords_of(lat, y)))


def pairing_vector(lat, coords):
    """All pairings (x, b_j) of x with the lattice basis, i.e. gram * coords.

    The kernel under the vector entry points: `coords` is taken as given, so
    callers pass what `coords_of` returns.  `_mat_vec` forms it: a sparse x
    costs rank x |support| products, so a lift of A_{L_2d} costs 21, not 441."""
    return _mat_vec(lat.gram, coords)


def is_primitive(lat, x):
    return gcd(*coords_of(lat, x)) == 1


def disc_group(lat):
    """Discriminant group via Smith normal form, memoised on the lattice
    (`IntLattice.memoised`): every caller shares one DiscGroup.

    A unimodular summand adds nothing to A_L (A_{L+M} = A_L + A_M; Nikulin
    1980), so G below is the Gram restricted to the basis vectors outside
    the unimodular summands, which `IntLattice` keeps, and each lift is
    padded with zeros: L_2d needs a 1 x 1 SNF, E8 none, and X + V with V
    unimodular has X's lifts, padded.

    With u G v = D (u, v unimodular, D diagonal), G^-1 = v D^-1 u, so the
    dual vector G^-1 u^-1 e_i that realises the i-th cyclic factor is
    v D^-1 e_i = v[:, i] / d_i: the lifts need no inverse and no solve, and
    each is stored as it comes, numerators v[:, i] over the denominator d_i.
    The transforms are checked in integers first: u (G v) = D, with the
    sparse G as the left factor of the first product (`mat_mul` skips the
    zero entries of both factors), and |d_1 ... d_n| = |det G| = |det L|.
    Given the first, det u * det G * det v = det D with det u and det v
    integers and det G != 0, so the second holds exactly when |det u| =
    |det v| = 1: it proves u and v unimodular without eliminating them.
    `LatticeError` if either check fails.  The lifts are reproducible thanks to the
    deterministic SNF pivoting.
    """
    return lat.memoised("disc_group", _disc_group)


def _disc_group(lat):
    keep = lat._nonunimodular
    if not keep:
        return DiscGroup(lat, [])
    g = [[lat.gram[i][j] for j in keep] for i in keep]
    d, u, v = smith_normal_form(g)
    m = len(keep)
    if mat_mul(u, mat_mul(g, v)) != d or abs(prod(d[i][i] for i in range(m))) != abs(lat.det):
        raise LatticeError("Smith normal form transforms do not check")
    rows = dict(zip(keep, v))  # basis index -> its row of v
    return DiscGroup(lat, [DualVec(lat, [rows[k][i] if k in rows else 0 for k in range(lat.rank)],
                                   d[i][i]) for i in range(m) if d[i][i] > 1])


def orth_complement(lat, vectors):
    """Primitive orthogonal complement of the span of `vectors`, with embedding.

    Returns (sublattice, basis) where basis[i] is the coordinate vector in
    `lat` of the i-th basis vector of the complement.  The result is
    saturated: its saturation in `lat` equals itself.
    """
    rows = [pairing_vector(lat, coords_of(lat, vec)) for vec in vectors]
    if not rows:
        raise LatticeError("need at least one vector")
    basis = kernel_basis(rows)
    # rank + nullity = n: the k rows are independent iff the kernel has n - k vectors
    if len(basis) != lat.rank - len(rows):
        raise LatticeError("vectors are not linearly independent")
    if not basis:
        raise LatticeError("the vectors span the whole lattice")
    # Gram B^t (G B), with the basis vectors as the rows of B^t and the
    # sparse G as the left factor of the inner product, as in `disc_group`
    return IntLattice(mat_mul(basis, mat_mul(lat.gram, list(zip(*basis))))), basis


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------
#   expr := term ("+" term)*
#   term := [multiplicity] atom
#   atom := "U" ["(" int ")"] | "A(" n ")" | "D(" n ")" | "E" n ["(" int ")"] | "<" int ">"
# Whitespace is ignored; the scaling suffix "(t)" multiplies the Gram by t.

def parse_lattice_expr(text):
    return IntLattice(_expr_gram(text), name=re.sub(r"\s+", "", text))


def _expr_gram(text):
    """Gram matrix of a lattice expression: the orthogonal sum of its atoms' blocks."""
    return _block_gram(_ExprParser(text).parse())


class _ExprParser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch):
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _int(self):
        self._skip_ws()
        m = re.match(r"-?\d+", self.text[self.pos:])
        if not m:
            raise ParseError("expected an integer", self.pos)
        self.pos += m.end()
        return int(m.group())

    def parse(self):
        parts = [self._term()]
        while self._peek() == "+":
            self.pos += 1
            parts.append(self._term())
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError("trailing input", self.pos)
        return [block for mult, block in parts for _ in range(mult)]

    def _term(self):
        mult = 1
        self._skip_ws()
        m = re.match(r"\d+", self.text[self.pos:])
        if m:
            mult = int(m.group())
            if mult < 1:
                raise ParseError("multiplicity must be positive", self.pos)
            self.pos += m.end()
        return mult, self._atom()

    def _atom(self):
        """The Gram block of the next atom, as rows of ints."""
        ch = self._peek()
        start = self.pos
        if ch == "U":
            self.pos += 1
            scale = self._opt_scale()
            return [[0, scale], [scale, 0]]
        if ch in ("A", "D"):
            self.pos += 1
            self._expect("(")
            n = self._int()
            self._expect(")")
            try:
                return _dynkin_gram(ch, n)
            except LatticeError as exc:
                raise ParseError(str(exc), start) from None
        if ch == "E":
            self.pos += 1
            n = self._int()
            if n not in (6, 7, 8):
                raise ParseError("E rank must be 6, 7 or 8", start)
            scale = self._opt_scale()
            return [[scale * x for x in row] for row in _dynkin_gram("E", n)]
        if ch == "<":
            self.pos += 1
            k = self._int()
            self._expect(">")
            if k == 0:
                raise ParseError("<0> is degenerate", start)
            return [[k]]
        raise ParseError("expected a lattice atom", self.pos)

    def _opt_scale(self):
        if self._peek() == "(":
            self.pos += 1
            t = self._int()
            self._expect(")")
            if t == 0:
                raise ParseError("scale must be nonzero", self.pos)
            return t
        return 1
