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
* `cli-tables`: the stdout of `k3mod tables` in each output format;
* `cli-usage`: the help texts and usage errors of CLI_USAGE, each hashed as
  (exit code, stdout, stderr) at a terminal width of 80 columns;
* `cli-<workload>`: the stdout of every `k3mod` call that
  perfbench/golden.json records for that workload.

The `k3mod` calls run in this process; except in `cli-usage` they hash
(exit code, stdout).

Each group hashes one JSON line per item, in order.  The program is
imported from the `src` directory of the checkout this script lives in.
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
from k3mod import lattice, qseries, reflective, roots  # noqa: E402

# the orbit scan's cost rises steeply with d: d = 1..150 takes about 20 s,
# 1..400 would take about 10 min (CPython 3.11 on a 2-core VM)
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
