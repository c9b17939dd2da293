"""Digests of the program's outputs, one sha256 per group.

    python tools/same_outputs.py [--degrees 1-400]

Run it in two checkouts and diff the two outputs: equal lines mean
byte-identical outputs in that group.  The groups are

* `verdict`: `kodaira_verdict(d).to_dict()` for every d in --degrees;
* `search-<case>`: `structured_search(d, case, range(2, 15))`, every hit's
  `to_dict()`, for every d in --degrees and each family;
* `tuples`: `list(iter_case_tuples(case, d))`, in order, for each family
  and every d in --degrees;
* `orbit-scan`: the dominant vectors `_enumerate_dominant(2d)` of the
  exhaustive search, for every d in --degrees up to ORBIT_SCAN_MAX_D;
* `lattice-reflect`: for every d in --degrees up to LATTICE_REFLECT_MAX_D,
  on L_2d: `reflk3_sample_check(d, 300, seed=d)`, `disc_group` (invariant
  factors, q-values, generator lift coordinates), the orthogonal complement
  of h + d u1 + u2 (Gram and basis; h the <-2d> generator, u1 and u2 the
  first basis vectors of the two hyperbolic planes) and `reflection_report`
  on each of `_interesting_vectors(d)`; for d in CRITERION_12_DEGREES also
  `reflk3_sample_check(d, 10**4, seed=0)`, the runs of acceptance
  criterion 12;
* `counts`: `norm_counts(lat, COUNTS_MAX_NORM)` on seeded signed
  permutations of the bases of COUNTS_LATTICES, then `rep_num(name, 2d,
  "brute")` for every name and d in REP_RANGES (the norm ranges of the
  lattice-enum benchmark workload); this group does not depend on --degrees;
* `histograms`: `norm_counts` at tops above COUNTS_MAX_NORM, on seeded
  signed permutations of HISTOGRAMS_PERMUTED and on HISTOGRAMS_PARSED as
  parsed (their leading 2x2 blocks have 1 to 30,000 classes); this group
  does not depend on --degrees;
* `forms`: the integer square completion `roots._scaled_form` of the
  `counts` group's signed permutations and of those of FORMS_EXTRA, then
  (det, signature) of L_2d and of the complement of the `lattice-reflect`
  group for every d up to LATTICE_REFLECT_MAX_D, and of FORMS_INDEFINITE;
  this group does not depend on --degrees either;
* `expressions`: (name, Gram, det, signature) of `parse_lattice_expr` on
  EXPRESSIONS, of `make_l2d(d)` for d in 1..EXPRESSIONS_MAX_D and of
  `root_lattice_d(n)`, `root_lattice_e(n)`, then (exception type, message,
  position) of each of BAD_EXPRESSIONS and of the constructors' bad
  arguments; this group does not depend on --degrees either;
* `series`: the closed-form theta series `theta_e7`, `theta_dn(n)` for n in
  SERIES_DN, `theta_e6` and `theta_d6_eis` at precision SERIES_PREC, then
  `rep_num(name, 2d)` for every named lattice and `check_mineq(d)`,
  `check_mineqd(d)` for every d in 1..SERIES_MAX_D, in ascending order, then
  `compute_pex(PEX_MAX_M)`; this group does not depend on --degrees either;
* `rst`: `cyclo_decompose` (order and multiplicities, in order) and
  `toric_order2_check` on RST_MATRICES seeded unimodular conjugates of
  block-diagonal companion matrices of cyclotomic polynomials, of rank up to
  RST_MAX_RANK, and on RST_EXTRA_BLOCKS, then the errors of RST_SINGULAR,
  then `sigma_rst` and the quasi-reflection flags on seeded exponent lists
  of every order up to RST_MAX_ORDER, `sigma_prime` on seeded lists of
  every even order up to RST_MAX_ORDER, `c_min_with_argmin(d)` for d in
  3..CMIN_MAX_D and `bigphi_verify(CMIN_MAX_D)`; this group does not depend
  on --degrees either;
* `cli-tables`: the stdout of `k3mod tables` in each output format;
* `cli-usage`: the help texts and usage errors of CLI_USAGE, each hashed as
  (exit code, stdout, stderr) at a terminal width of 80 columns;
* `cli-<workload>`: the stdout of every `k3mod` call that
  perfbench/golden.json records for that workload.

The `k3mod` calls run in this process; except in `cli-usage` they hash
(exit code, stdout).

Each group hashes one JSON line per item, in order.  The program is
imported from the `src` directory of the checkout this script lives in.

tests/golden_digests.json pins every group's digest at --degrees 1-61, the
`cli-usage` group once per Python minor version (argparse's help layout
changed in 3.13), and tier-1 recomputes them in-process.  Ranges beyond the
pinned one are still checked by running this script in two checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from k3mod import cli, search  # noqa: E402
from k3mod import lattice, qseries, reflective, roots, rst  # noqa: E402

# the orbit scan's cost rises steeply with d: d = 1..150 takes about 2 s,
# 151..400 about 35-40 s more (CPython 3.11 on a 2-core VM); the cap stays
# at 150 so that `orbit-scan` digests compare with those of earlier checkouts
ORBIT_SCAN_MAX_D = 150
# d = 1..60 takes a few seconds
LATTICE_REFLECT_MAX_D = 60
# the degrees that acceptance criterion 12 samples 10^4 times with seed 0
CRITERION_12_DEGREES = (1, 2, 5, 6)
COUNTS_LATTICES = ("E6", "E7", "E8", "D(5)", "D(8)", "A(2)+A(4)", "E8(-1)")
COUNTS_SEEDS = (0, 1)
COUNTS_MAX_NORM = 16
# d ranges of rep_num(name, 2d, "brute")
REP_RANGES = {"E6": (14, 18), "E7": (7, 9), "D5": (40, 50), "D6": (14, 18), "D8": (6, 8)}
# (expression, top) pairs of the `histograms` group
HISTOGRAMS_PERMUTED = (("E8", 30), ("E7", 30))
HISTOGRAMS_PARSED = (("D(4)", 200), ("<100>+<300>+<2>", 2000), ("<4>+<6>+A(2)", 300),
                     ("E8(-1)", 20))
# definite forms with large or mixed pivot denominators, and indefinite ones
# whose elimination meets a zero pivot
FORMS_EXTRA = ("<100>+<300>+<2>", "<4>+<6>+A(2)")
FORMS_INDEFINITE = ("U", "2U", "U(3)+A(2)", "<-4>+<4>")
# the lattice expressions of the `expressions` group: every atom, scales,
# multiplicities and whitespace, then malformed input (message and position)
EXPRESSIONS = ([f"A({n})" for n in range(1, 9)] + [f"D({n})" for n in range(2, 9)]
               + ["E6", "E7", "E8", "E8(-1)", "E6(3)", "U", "U(3)", "U(-2)", "<2>", "<-2>",
                  "<7>", "<-10>", "2U", "3A(1)", "2E8(-1)", " 2U + 2E8(-1) + <-10> ",
                  "A(2)+A(4)+E6", "E7(2)+D(4)+<-6>", "U(3)+A(2)", "<-4>+<4>"])
EXPRESSIONS_MAX_D = 10
BAD_EXPRESSIONS = ("", "E5", "E9", "U+", "+U", "<0>", "2", "0U", "A(0)", "A(-1)", "D(1)",
                   "A(2", "D(x)", "U)troll", "<x>", "<3", "U(0)", "E8(0)", "E8(1", "Q")
# the theta series and the inequality sweep of the `series` group
SERIES_PREC = 1200
SERIES_DN = (5, 6, 8)
SERIES_MAX_D = 2000
PEX_MAX_M = 600
# the matrices and exponent lists of the `rst` group: blocks are companions
# of Phi_d with phi(d) <= 8; (1, 5, 7, 8, 9) has order 2520, the largest
# finite order at rank 21
RST_MATRICES = 40
RST_SHEARS = 4
RST_MAX_RANK = 21
RST_INDICES = tuple(d for d in range(1, 31) if rst.euler_phi(d) <= 8)
RST_EXTRA_BLOCKS = ((1, 5, 7, 8, 9), (2, 2, 2), (4, 4, 3, 6))
RST_SINGULAR = ([[0]], [[2]], [[1, 0], [0, 3]], [[1, 2], [2, 4]])
RST_MAX_ORDER = 12
CMIN_MAX_D = 60
# the `cli-usage` calls: every help text, then the usage errors of the full
# parser (no command, an unknown command, an option before the command) and
# of a subcommand (trailing, missing and invalid arguments)
CLI_USAGE = ([["--help"]] + [[cmd, "--help"] for cmd in cli._COMMANDS]
             + [[], ["nosuchcommand"], ["--format", "json", "verdict", "3"],
                ["verdict", "5", "extra"], ["verdict"], ["repnum", "X9", "4"],
                ["search", "5", "--case", "V"], ["tables", "--table", "Z"],
                ["verdict", "3", "--format", "xml"]])


def parse_degrees(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def cli_output(argv):
    """(exit code, stdout, stderr) of one `k3mod` call run in this process, at a
    terminal width of 80 columns: argparse wraps its help and usage to the width."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_stdout(argv):
    """(exit code, stdout) of one `k3mod` call run in this process."""
    return cli_output(argv)[:2]


def l2d_complement(lat, d):
    """(complement, basis) of h + d u1 + u2 in L_2d = `lat`."""
    r = [0] * lat.rank
    r[0], r[2], r[-1] = d, 1, 1
    return lattice.orth_complement(lat, [r])


def lattice_reflect(d):
    """The reflection, discriminant and complement outputs on L_2d, as JSON."""
    lat = lattice.make_l2d(d)
    disc = lattice.disc_group(lat)
    comp, basis = l2d_complement(lat, d)
    out = {
        "sample": reflective.reflk3_sample_check(d, 300, seed=d),
        "disc": [disc.invariant_factors, [str(q) for q in disc.q_values],
                 [[str(c) for c in w.coords] for w in disc.generator_lifts]],
        "complement": [comp.gram, basis],
        "reports": [reflective.reflection_report(lat, v)
                    for v in reflective._interesting_vectors(d, lat)],
    }
    if d in CRITERION_12_DEGREES:
        out["criterion_12"] = reflective.reflk3_sample_check(d, 10**4, seed=0)
    return out


def signed_permutation(expr, seed):
    """The lattice `expr` on a seeded signed permutation of its basis."""
    rng = random.Random(f"{expr}/{seed}")
    base = lattice.parse_lattice_expr(expr).gram
    n = len(base)
    perm = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    return lattice.IntLattice([[sign[i] * sign[j] * base[perm[i]][perm[j]] for j in range(n)]
                               for i in range(n)])


def counts():
    """The norm histograms and brute representation numbers, as JSON."""
    for expr in COUNTS_LATTICES:
        for seed in COUNTS_SEEDS:
            yield [expr, seed, roots.norm_counts(signed_permutation(expr, seed),
                                                 COUNTS_MAX_NORM)]
    for name, (lo, hi) in REP_RANGES.items():
        for d in range(lo, hi + 1):
            yield [name, 2 * d, qseries.rep_num(name, 2 * d, "brute")]


def histograms():
    """The norm histograms at large tops, as JSON."""
    for expr, top in HISTOGRAMS_PERMUTED:
        for seed in COUNTS_SEEDS:
            yield [expr, seed, top, roots.norm_counts(signed_permutation(expr, seed), top)]
    for expr, top in HISTOGRAMS_PARSED:
        yield [expr, top, roots.norm_counts(lattice.parse_lattice_expr(expr), top)]


def forms():
    """The square completions and the (det, signature) pairs, as JSON."""
    for expr in COUNTS_LATTICES + FORMS_EXTRA:
        for seed in COUNTS_SEEDS:
            yield [expr, seed, roots._scaled_form(signed_permutation(expr, seed))]
    for d in range(1, LATTICE_REFLECT_MAX_D + 1):
        lat = lattice.make_l2d(d)
        comp = l2d_complement(lat, d)[0]
        yield [d, lat.det, lat.signature, comp.det, comp.signature]
    for expr in FORMS_INDEFINITE:
        lat = lattice.parse_lattice_expr(expr)
        yield [expr, lat.det, lat.signature]


def expressions():
    """The parsed lattices, the named constructors and the parse errors, as JSON."""
    lattices = ([lattice.parse_lattice_expr(text) for text in EXPRESSIONS]
                + [lattice.make_l2d(d) for d in range(1, EXPRESSIONS_MAX_D + 1)]
                + [lattice.root_lattice_d(n) for n in range(2, 9)]
                + [lattice.root_lattice_e(n) for n in (6, 7, 8)])
    for lat in lattices:
        yield [lat.name, lat.gram, lat.det, lat.signature]
    bad = ([(lattice.parse_lattice_expr, text) for text in BAD_EXPRESSIONS]
           + [(lattice.root_lattice_d, 1), (lattice.root_lattice_e, 5), (lattice.make_l2d, 0)])
    for build, arg in bad:
        try:
            build(arg)
        except lattice.LatticeError as exc:
            yield [arg, type(exc).__name__, str(exc), getattr(exc, "pos", None)]
        else:
            yield [arg, "accepted"]


def series():
    """The closed-form theta series, representation numbers and inequalities, as JSON."""
    yield ["E7", qseries.theta_e7(SERIES_PREC).coeffs]
    for n in SERIES_DN:
        yield [f"D{n}", qseries.theta_dn(n, SERIES_PREC).coeffs]
    yield ["E6", qseries.theta_e6(SERIES_PREC).coeffs]
    yield ["D6eis", qseries.theta_d6_eis(SERIES_PREC).coeffs]
    for d in range(1, SERIES_MAX_D + 1):
        yield [d, [qseries.rep_num(name, 2 * d) for name in qseries.NAMED_LATTICES],
               search.check_mineq(d), search.check_mineqd(d)]
    yield ["pex", search.compute_pex(PEX_MAX_M)]


def block_companion(indices):
    """Block-diagonal matrix of the companion matrices of Phi_d, d in `indices`."""
    n = sum(rst.euler_phi(d) for d in indices)
    g = [[0] * n for _ in range(n)]
    at = 0
    for d in indices:
        poly = rst.cyclotomic_poly(d)
        k = len(poly) - 1
        for i in range(k):
            if i:
                g[at + i][at + i - 1] = 1
            g[at + i][at + k - 1] = -poly[i]
        at += k
    return g


def unimodular_conjugate(g, rng):
    """E g E^-1 for a seeded product E of RST_SHEARS elementary matrices I + c e_ij."""
    g = [row[:] for row in g]
    for _ in range(RST_SHEARS if len(g) > 1 else 0):
        i, j = rng.sample(range(len(g)), 2)
        c = rng.choice((-2, -1, 1, 2))
        g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        for row in g:
            row[j] -= c * row[i]
    return g


def rst_outputs():
    """Cyclotomic decompositions, eigenvalue sums and the c_min bounds, as JSON."""
    rng = random.Random("rst")
    blocks = []
    for _ in range(RST_MATRICES):
        indices, left = [], rng.randint(1, RST_MAX_RANK)
        while left:
            indices.append(rng.choice([d for d in RST_INDICES if rst.euler_phi(d) <= left]))
            left -= rst.euler_phi(indices[-1])
        blocks.append(indices)
    for indices in blocks + list(RST_EXTRA_BLOCKS):
        g = unimodular_conjugate(block_companion(indices), rng)
        dec = rst.cyclo_decompose(g)
        report = rst.toric_order2_check(g)
        yield [g, dec.order, list(dec.multiplicities.items()),
               {**report, "sigma": str(report["sigma"])}]
    for g in RST_SINGULAR:
        try:
            yield [g, rst.cyclo_decompose(g).order]
        except ValueError as exc:
            yield [g, str(exc)]
    for m in range(1, RST_MAX_ORDER + 1):
        for _ in range(3):
            e = rst.EigenExponents(m, [rng.randrange(m) for _ in range(rng.randint(1, 6))])
            yield [m, e.exponents, str(rst.sigma_rst(e)), rst.is_quasi_reflection(e),
                   rst.is_reflection(e)]
    for k in range(2, RST_MAX_ORDER // 2 + 1):
        evens = [2 * rng.randrange(k) for _ in range(rng.randint(0, 4))]
        e = rst.EigenExponents(2 * k, evens + [2 * rng.randrange(k) + 1])
        yield [2 * k, e.exponents, [str(rst.sigma_prime(e, l)) for l in range(1, k)]]
    for d in range(3, CMIN_MAX_D + 1):
        value, shift = rst.c_min_with_argmin(d)
        yield [d, str(value), shift]
    report = rst.bigphi_verify(CMIN_MAX_D)
    yield {**report, "min_sum": str(report["min_sum"])}


def groups(degrees):
    """(group name, digest) pairs in a fixed order."""
    yield "verdict", digest(search.kodaira_verdict(d).to_dict() for d in degrees)
    for case in search.CASES:
        yield f"search-{case}", digest(
            [h.to_dict() for h in search.structured_search(d, case, range(2, 15))]
            for d in degrees)
    yield "tuples", digest([case, d, list(search.iter_case_tuples(case, d))]
                           for case in search.CASES for d in degrees)
    yield "orbit-scan", digest(search._enumerate_dominant(2 * d)
                               for d in degrees if d <= ORBIT_SCAN_MAX_D)
    yield "lattice-reflect", digest(lattice_reflect(d)
                                    for d in degrees if d <= LATTICE_REFLECT_MAX_D)
    yield "counts", digest(counts())
    yield "histograms", digest(histograms())
    yield "forms", digest(forms())
    yield "expressions", digest(expressions())
    yield "series", digest(series())
    yield "rst", digest(rst_outputs())
    yield "cli-tables", digest(cli_stdout(["tables", "--format", fmt])
                               for fmt in ("text", "json", "csv"))
    yield "cli-usage", digest(cli_output(argv) for argv in CLI_USAGE)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    for workload, calls in golden.items():
        yield f"cli-{workload}", digest(cli_stdout(c["argv"]) for c in calls)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--degrees", type=parse_degrees, default=range(1, 401),
                    help="degree range LO-HI for the verdict, search, tuples, "
                         "orbit-scan and lattice-reflect groups")
    args = ap.parse_args(argv)
    for name, value in groups(args.degrees):
        print(name, value)


if __name__ == "__main__":
    main()
