"""Seeded workloads for the k3mod benchmark, with independent references.

A workload yields passes: lists of ops whose mix of kinds is fixed and whose
inputs come from the seed.  An op calls the program once; its check runs
after the timed batch and compares the result with a reference that does
not come from the code path under test:

* verdict witnesses: E8 membership and norm 2d in the benchmark's own
  arithmetic, N_l from the generic `roots.count_orth_roots` oracle, and the
  paper's stated results for d >= 40;
* theta series: 240 sigma_3(m) for E8, the `qseries` closed forms for E7/D8;
  representation numbers: the closed forms against the brute enumerator;
* root counts: the type formulas A_n: n(n+1), D_n: 2n(n-1), E6/E7/E8:
  72/126/240, on the Dynkin diagram read off the Gram matrix;
* L_2d: A_L = Z/2d with q = -1/(2d) mod 2, and the complement determinant
  |det L| r^2 / div(r)^2 recomputed by exact elimination here;
* reflections: vectors reflective by construction with known r^2, div(r)
  and class.

Ops reach the program through module attributes (`search.kodaira_verdict`),
so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

from k3mod import e8, lattice, qseries, reflective, roots, rst, search


class Op:
    """One generated input: `fn()` calls the program, `check(out)` returns
    (status, detail, digest) with status "ok", "wrong" or "deviation"."""

    __slots__ = ("label", "fn", "check")

    def __init__(self, label, fn, check):
        self.label = label
        self.fn = fn
        self.check = check


def _ok(problems, digest):
    return ("wrong", "; ".join(problems), digest) if problems else ("ok", "", digest)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

# The paper: general type for d > 61 and d in {46, 50, 54, 57, 58, 60};
# Kodaira dimension >= 0 for d >= 40 with d not in {41, 44, 45, 47}.
PAPER_GENERAL = frozenset({46, 50, 54, 57, 58, 60})
PAPER_NO_CLAIM = frozenset({41, 44, 45, 47})
_STRENGTH = {"unknown": 0, "nonnegative_kodaira": 1, "general_type": 2}


def paper_claim(d):
    if d > 61 or d in PAPER_GENERAL:
        return "general_type"
    if d >= 40 and d not in PAPER_NO_CLAIM:
        return "nonnegative_kodaira"
    return None


def _check_verdict(d, v):
    problems = []
    kind, w = v.kind, v.witness
    if kind not in _STRENGTH:
        return "wrong", f"unknown verdict kind {kind!r}", repr(kind)
    if kind == "unknown" and w is not None:
        problems.append("unknown verdict carries a witness")
    if kind != "unknown":
        if w is None:
            return "wrong", f"{kind} without a witness", kind
        c = tuple(w.coords2x)
        if len(c) != 8 or len({x & 1 for x in c}) != 1 or sum(c) % 4:
            problems.append(f"witness {c} is not in E8")
        elif sum(x * x for x in c) != 8 * d:
            problems.append(f"witness norm {sum(x * x for x in c) / 4} != 2d = {2 * d}")
        else:
            n_l = roots.count_orth_roots(e8.lattice(), e8.alpha_from_2x(c))
            if n_l != w.n_l:
                problems.append(f"witness claims N_l={w.n_l}, oracle counts {n_l}")
        want = range(2, 13) if kind == "general_type" else (14,)
        if w.n_l not in want:
            problems.append(f"{kind} with N_l={w.n_l}")
        if w.weight != 12 + w.n_l // 2:
            problems.append(f"weight {w.weight} != 12 + N_l/2")
    digest = json.dumps(v.to_dict(), sort_keys=True)
    if problems or v.d != d:
        return "wrong", "; ".join(problems) or f"verdict for d={v.d}", digest
    claim = paper_claim(d)
    if claim and _STRENGTH[kind] < _STRENGTH[claim]:
        return "wrong", f"{kind} is weaker than the paper's {claim}", digest
    if claim and _STRENGTH[kind] > _STRENGTH[claim]:
        return ("deviation", f"{kind} with N_l={w.n_l} where the paper states {claim}",
                digest)
    return "ok", "", digest


def _verdict_op(d):
    return Op({"op": "kodaira_verdict", "d": d}, lambda: search.kodaira_verdict(d),
              lambda v: _check_verdict(d, v))


def verdict_low(rng, tiny):
    """Every degree 1..61 once per pass, in seeded order."""
    domain = [3, 46, 52] if tiny else list(range(1, 62))
    while True:
        ds = domain[:]
        rng.shuffle(ds)
        yield [_verdict_op(d) for d in ds]


def verdict_high(rng, tiny):
    """One seeded degree from each of 40 strata of width 6 or 7 over 151..400
    per pass.  Costs rise with d and differ between neighbours, so a finer
    stratification keeps the per-seed median close to the population's."""
    strata = ([[151], [161]] if tiny else
              [range(151 + 250 * i // 40, 151 + 250 * (i + 1) // 40) for i in range(40)])
    while True:
        ds = [rng.choice(s) for s in strata]
        rng.shuffle(ds)
        yield [_verdict_op(d) for d in ds]


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------

def _sigma(m, k):
    return sum(t ** k for t in range(1, m + 1) if m % t == 0)


def _theta_reference(name, prec):
    if name == "E8":
        return [1] + [240 * _sigma(m, 3) for m in range(1, prec + 1)]
    series = qseries.theta_e7(prec) if name == "E7" else qseries.theta_dn(8, prec)
    return list(series.coeffs)


def _theta_op(rng, name, prec):
    """theta_brute on a seeded signed permutation of the basis of E8/E7/D8."""
    base = lattice.parse_lattice_expr({"D8": "D(8)"}.get(name, name)).gram
    n = len(base)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    gram = [[sign[i] * sign[j] * base[perm[i]][perm[j]] for j in range(n)] for i in range(n)]

    def check(series):
        got = list(series.coeffs)
        return _ok([] if got == _theta_reference(name, prec) else
                   [f"coefficients {got} differ from the reference"], json.dumps(got))

    return Op({"op": "theta_brute", "lattice": name, "prec": prec, "perm": perm, "sign": sign},
              lambda: qseries.theta_brute(lattice.IntLattice(gram), prec), check)


# ranges of norm/2 giving roughly 30-120 ms per brute-force representation number
_REP_RANGES = {"E6": (14, 18), "E7": (7, 9), "D5": (40, 50), "D6": (14, 18), "D8": (6, 8)}


def _rep_op(rng, name, tiny):
    lo, hi = (3, 3) if tiny else _REP_RANGES[name]
    two_d = 2 * rng.randint(lo, hi)

    def check(got):
        want = qseries.rep_num(name, two_d, "formula")
        return _ok([] if got == want else [f"{got} != closed form {want}"], str(got))

    return Op({"op": "rep_num_brute", "lattice": name, "norm": two_d},
              lambda: qseries.rep_num(name, two_d, "brute"), check)


_TYPE_ROOTS = {"E6": 72, "E7": 126, "E8": 240, "<2>": 2, "<4>": 0}


def _atom_roots(atom):
    """Root count of one expression atom by its type formula."""
    if atom in _TYPE_ROOTS:
        return _TYPE_ROOTS[atom]
    k = int(atom[2:-1])
    return k * (k + 1) if atom[0] == "A" else 2 * k * (k - 1)


def _dynkin_roots(gram, nodes):
    """Roots of the sub-diagram on `nodes` (norm-2 basis vectors), by type formula."""
    nodes = set(nodes)
    adj = {i: [j for j in nodes if j != i and gram[i][j]] for i in nodes}
    for i in nodes:
        if any(gram[i][j] != -1 for j in adj[i]):
            raise ValueError("basis is not a set of simple roots")
    total, seen = 0, set()
    for start in sorted(nodes):
        if start in seen:
            continue
        comp, todo = [], [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        n = len(comp)
        edges = sum(len(adj[i]) for i in comp) // 2
        branch = [i for i in comp if len(adj[i]) == 3]
        if edges != n - 1 or len(branch) > 1 or any(len(adj[i]) > 3 for i in comp):
            raise ValueError("sub-diagram is not of finite type")
        if not branch:
            total += n * (n + 1)
            continue
        arms = []
        for first in adj[branch[0]]:
            length, prev, cur = 1, branch[0], first
            while True:
                nxt = [j for j in adj[cur] if j != prev]
                if not nxt:
                    break
                prev, cur, length = cur, nxt[0], length + 1
            arms.append(length)
        arms.sort()
        if arms[:2] == [1, 1]:
            total += 2 * n * (n - 1)
        elif arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
            total += {6: 72, 7: 126, 8: 240}[n]
        else:
            raise ValueError(f"sub-diagram with arms {arms} is not of finite type")
    return total


def _eliminate(gram, w):
    """(det G, det(G) G^{-1} w) by exact Gauss-Jordan elimination, independent
    of the program; (0, None) for a singular G."""
    n = len(gram)
    m = [[Fraction(x) for x in row] + [Fraction(w[i])] for i, row in enumerate(gram)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return 0, None
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det), [m[i][n] / m[i][i] * det for i in range(n)]


_ATOMS = ["A(1)", "A(2)", "A(3)", "A(4)", "A(5)", "A(6)", "D(4)", "D(5)", "D(6)",
          "E6", "E7", "E8", "<2>", "<4>"]


def _rank(atom):
    if atom in ("<2>", "<4>"):
        return 1
    return int(atom[1]) if atom[0] == "E" else int(atom[2:-1])


def _roots_op(rng):
    """Roots and orthogonal roots of a fresh seeded direct sum (rank <= 16).

    x has pairing det(G) w_i with the i-th basis vector, w_i >= 0, so it is
    dominant and its orthogonal roots are the roots of the sub-diagram of
    simple roots with w_i = 0."""
    while True:
        atoms = [rng.choice(_ATOMS) for _ in range(rng.randint(1, 3))]
        if sum(map(_rank, atoms)) <= 16:
            break
    expr = "+".join(atoms)
    gram = lattice.parse_lattice_expr(expr).gram
    n = len(gram)
    w = [0 if rng.random() < 0.4 else rng.randint(1, 3) for _ in range(n)]
    _, x = _eliminate(gram, w)
    if any(v.denominator != 1 for v in x):
        raise ArithmeticError("adjugate has a non-integral entry")
    x = [int(v) for v in x]
    root_nodes = [i for i in range(n) if gram[i][i] == 2]
    want_total = sum(map(_atom_roots, atoms))
    want_orth = _dynkin_roots(gram, [i for i in root_nodes if w[i] == 0])

    def run():
        lat = lattice.parse_lattice_expr(expr)
        return roots.enumerate_roots(lat).count, roots.count_orth_roots(lat, x)

    def check(got):
        problems = []
        if _dynkin_roots(gram, root_nodes) != want_total:
            problems.append("Gram diagram does not match the expression's types")
        if got != (want_total, want_orth):
            problems.append(f"(roots, orthogonal) = {got}, type formulas give "
                            f"{(want_total, want_orth)}")
        return _ok(problems, json.dumps(got))

    return Op({"op": "roots", "expr": expr, "x": x}, run, check)


def lattice_enum(rng, tiny):
    """Per pass: deep theta_brute on E8/E7/D8, one brute representation number
    per named lattice, four root enumerations on fresh expressions.  The
    heavy ops stay the majority so that the median lands among them rather
    than on the boundary with the millisecond-scale root ops."""
    thetas = [("E8", 2)] if tiny else [("E8", 5), ("E7", 7), ("D8", 6)]
    names = ["E6"] if tiny else list(_REP_RANGES)
    n_roots = 2 if tiny else 4
    while True:
        ops = ([_theta_op(rng, name, prec) for name, prec in thetas]
               + [_rep_op(rng, name, tiny) for name in names]
               + [_roots_op(rng) for _ in range(n_roots)])
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# reflections and discriminant groups
# ---------------------------------------------------------------------------

def _l2d_vector(d, entries):
    """Coordinates on L_2d = 2U + 2E8(-1) + <-2d>: (u1, v1, u2, v2, E8s..., h)."""
    v = [0] * 21
    for i, c in entries.items():
        v[i] = c
    return tuple(v)


def _coprime_pair(rng):
    while True:
        a, c = rng.randint(-6, 6), rng.randint(-6, 6)
        if gcd(a, c) == 1:
            return a, c


def _disc_op(rng):
    """A_L and the orthogonal complement of r = h + k d (a u1 + c u2), k in {1, 2}:
    r^2 = -2d and div(r) = k d, so |det r^perp| = 2d * 2d / (k d)^2."""
    d = rng.randint(2, 200)
    k = rng.choice((1, 2))
    a, c = _coprime_pair(rng)
    r = _l2d_vector(d, {0: k * d * a, 2: k * d * c, 20: 1})

    def run():
        lat = lattice.make_l2d(d)
        disc = lattice.disc_group(lat)
        comp, basis = lattice.orth_complement(lat, [r])
        return lat, disc, comp, basis

    def check(out):
        lat, disc, comp, basis = out
        problems = []
        if disc.invariant_factors != (2 * d,):
            problems.append(f"A_L = {disc.invariant_factors}, want Z/{2 * d}")
        if disc.q_values != (Fraction(-1, 2 * d) % 2,):
            problems.append(f"q = {disc.q_values}, want -1/{2 * d} mod 2")
        g = lat.gram
        pair = [sum(g[i][j] * r[j] for j in range(21)) for i in range(21)]
        if len(basis) != 20 or any(sum(b[i] * pair[i] for i in range(21)) for b in basis):
            problems.append("complement basis is not orthogonal to r")
        gb = [[sum(g[i][j] * b[j] for j in range(21)) for i in range(21)] for b in basis]
        sub = [[sum(x[i] * y[i] for i in range(21)) for y in gb] for x in basis]
        want = 4 // (k * k)
        det = abs(_eliminate(sub, [0] * len(sub))[0])
        if det != want or abs(comp.det) != want:
            problems.append(f"|det r^perp| = {det} (program {comp.det}), want {want}")
        return _ok(problems, json.dumps([list(disc.invariant_factors),
                                         [str(q) for q in disc.q_values or ()],
                                         comp.det, [list(b) for b in basis]]))

    return Op({"op": "disc_orth", "d": d, "r": list(r)}, run, check)


def _sample_op(rng, seed, tiny):
    d = rng.randint(2, 60)
    samples = 50 if tiny else 500

    def check(rep):
        problems = []
        if rep["samples"] != samples:
            problems.append(f"{rep['samples']} samples, asked for {samples}")
        if rep["counterexamples"]:
            problems.append(f"counterexamples {rep['counterexamples']}")
        if rep["det_mismatches"] or rep["det_checks"] != rep["reflective"]:
            problems.append(f"{rep['det_checks']} det checks for {rep['reflective']} "
                            f"reflective samples, mismatches {rep['det_mismatches']}")
        return _ok(problems, json.dumps(rep, sort_keys=True))

    return Op({"op": "reflk3_sample_check", "d": d, "samples": samples, "seed": seed},
              lambda: reflective.reflk3_sample_check(d, samples=samples, seed=seed), check)


_ACTION = {"in_tilde_O": "id", "minus_in_tilde_O": "-id", "neither": "neither"}


def _reflection_op(expr, d, coords, r2, div, cls):
    want = {"r": list(coords), "rSquared": r2, "div": div, "discAction": _ACTION[cls],
            "class": cls}

    def run():
        lat = lattice.make_l2d(d) if d else lattice.parse_lattice_expr(expr)
        return reflective.reflection_report(lat, coords)

    def check(got):
        return _ok([] if got == want else [f"report {got}, want {want}"],
                   json.dumps(got, sort_keys=True))

    return Op({"op": "reflection_report", "lattice": expr, "r": list(coords)}, run, check)


def _reflection_ops(rng, tiny):
    """Vectors reflective by construction on L_2d (r^2 = -2: id; r^2 = -2d
    with div d or 2d: -id) and a root of A(2)+A(4) (id)."""
    ops = []
    for family in (("minus2",) if tiny else ("minus2", "div2d", "divd") * 3 + ("minus2",)):
        d = rng.randint(2, 200)
        expr = f"L_{2 * d}"
        if family == "minus2":      # a u1 + b v1 + u2 + (-1 - a b) v2: r^2 = -2
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            r = _l2d_vector(d, {0: a, 1: b, 2: 1, 3: -1 - a * b})
            ops.append(_reflection_op(expr, d, r, -2, 1, "in_tilde_O"))
        else:                       # h + k d (a u1 + c u2): r^2 = -2d, div = k d
            k = 2 if family == "div2d" else 1
            a, c = _coprime_pair(rng)
            r = _l2d_vector(d, {0: k * d * a, 2: k * d * c, 20: 1})
            ops.append(_reflection_op(expr, d, r, -2 * d, k * d, "minus_in_tilde_O"))
    if not tiny:
        root = rng.choice([(1, 0), (0, 1), (1, 1)]) + (0, 0, 0, 0)
        ops.append(_reflection_op("A(2)+A(4)", None, root, 2, 1, "in_tilde_O"))
    return ops


def known_defects(name):
    """Inputs the program is known to fail on, run once per reflect-disc run
    outside the timed ops (whose metrics must measure completed work) and
    reported in the result file.  A(2)+A(2) has the non-cyclic A_L = (Z/3)^2;
    r = (0,0,1,-1) (r^2 = 6, div 3) acts as -id on one Z/3 and as id on the
    other, so its class is "neither", but the reflection cross-checks assume
    a cyclic A_L and raise instead."""
    if name != "reflect-disc":
        return []
    return [_reflection_op("A(2)+A(2)", None, r, 6, 3, "neither")
            for r in ((0, 0, 1, -1), (1, -1, 0, 0))]


def _c_min_op(rng):
    d = rng.randint(150, 300)

    def check(got):
        units = [b for b in range(1, d) if gcd(b, d) == 1]
        base = sum(units)
        # sum of (b + a) mod d over the units = sum(b) + a phi(d) - d #{b >= d - a}
        best = min(base + a * len(units) - d * sum(1 for b in units if b >= d - a)
                   for a in range(d))
        return _ok([] if got == Fraction(best, d) else [f"{got} != {Fraction(best, d)}"],
                   str(got))

    return Op({"op": "c_min", "d": d}, lambda: rst.c_min(d), check)


def _bigphi_op(rng, tiny):
    r_max = 10 if tiny else rng.randint(45, 60)

    def check(rep):
        want = 0
        for r in range(7, r_max + 1):
            phi = sum(1 for k in range(1, r) if gcd(k, r) == 1)
            if phi >= 6:
                want += phi
        problems = []
        if rep["checked"] != want:
            problems.append(f"checked {rep['checked']} cases, want {want}")
        if rep["violations"] or (rep["min_sum"] is not None and rep["min_sum"] < 1):
            problems.append(f"violations {rep['violations']}, min {rep['min_sum']}")
        return _ok(problems, json.dumps(rep, default=str, sort_keys=True))

    return Op({"op": "bigphi_verify", "r_max": r_max}, lambda: rst.bigphi_verify(r_max), check)


def reflect_disc(rng, tiny, seed):
    """Per pass: two L_2d discriminant/complement ops, three sampled
    biconditional checks, eleven reflection reports, one c_min, one bigphi.
    The reflection reports are the majority, so the median lands among them;
    the sampled checks and bigphi form the slowest group, with enough members
    that the tail percentile lands inside it."""
    k = 0
    while True:
        ops = ([_disc_op(rng) for _ in range(1 if tiny else 2)]
               + [_sample_op(rng, seed * 1000 + 3 * k + i, tiny) for i in range(1 if tiny else 3)]
               + _reflection_ops(rng, tiny) + [_c_min_op(rng), _bigphi_op(rng, tiny)])
        rng.shuffle(ops)
        k += 1
        yield ops


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def passes(name, seed, tiny=False):
    """The workload's endless sequence of passes for this seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "verdict-low":
        return verdict_low(rng, tiny)
    if name == "verdict-high":
        return verdict_high(rng, tiny)
    if name == "lattice-enum":
        return lattice_enum(rng, tiny)
    if name == "reflect-disc":
        return reflect_disc(rng, tiny, seed)
    raise ValueError(f"unknown workload {name!r}")


def setup_arg(name, seed):
    """Argument for the set-up probe: the first L_2d degree of reflect-disc."""
    if name != "reflect-disc":
        return "-"
    first = next(op for op in next(passes(name, seed)) if op.label["op"] == "disc_orth")
    return str(first.label["d"])
