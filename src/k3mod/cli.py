"""Command-line surface: one subcommand per computation, reproducible output.

Exit codes: 0 success, 1 computational failure (e.g. infeasible search
bound) or stdout closed before all output was written, 2 usage error,
3 failed internal check (a cross-check between two code paths disagreed).
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import e8
from . import lattice as lt
from . import qseries as qs
from . import reflective as rf
from . import rst
from . import search as se


def _common(sub):
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text",
                     help="output format (default text)")
    sub.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker count (defaults to K3MOD_THREADS or all cores)")
    return sub


def build_parser():
    p = argparse.ArgumentParser(
        prog="k3mod",
        description="Exact lattice arithmetic, E8 root searches and "
                    "Kodaira-type verdicts for degree-2d K3 moduli.")
    subs = p.add_subparsers(dest="command", required=True)

    s = _common(subs.add_parser("roots", help="enumerate the roots of a definite lattice"))
    s.add_argument("expr", help="lattice expression, e.g. E8 or 2U+<-2>")
    s.add_argument("--count", action="store_true", help="print the count only")

    s = _common(subs.add_parser("enum", help="enumerate vectors of a fixed norm"))
    s.add_argument("expr")
    s.add_argument("norm", type=int)
    s.add_argument("--count", action="store_true")

    s = _common(subs.add_parser("repnum", help="representation number N_L(2d)"))
    s.add_argument("name", choices=("E6", "E7", "D5", "D6", "D8"))
    s.add_argument("two_d", type=int)
    s.add_argument("--method", choices=("formula", "brute"), default="formula")

    s = _common(subs.add_parser("theta", help="theta series q-expansion"))
    s.add_argument("name", help="E6, E7, D5, D6, D8 or a lattice expression (brute force)")
    s.add_argument("--prec", type=int, default=20)
    s.add_argument("--method", choices=("formula", "brute"), default="formula")

    s = _common(subs.add_parser("pex", help="degrees where the 5/28/63/378 series "
                                            "has a negative coefficient"))
    s.add_argument("--max", type=int, default=240, dest="max_m")

    s = _common(subs.add_parser("ineq", help="representation-number inequalities at d"))
    s.add_argument("d", type=int)

    s = _common(subs.add_parser("search", help="structured search for vectors with few "
                                               "orthogonal roots"))
    s.add_argument("d", type=int)
    s.add_argument("--case", choices=se.CASES + ("all",), default="all")
    s.add_argument("--targets", default="2-12",
                   help="orthogonal-root counts to keep, e.g. '2-12' or '8,12,14'")

    s = _common(subs.add_parser("verdict", help="Kodaira-type verdict for degree 2d"))
    s.add_argument("d", type=int)
    s.add_argument("--bound", type=int, default=150,
                   help="feasibility bound for the exhaustive fallback")

    s = _common(subs.add_parser("tables", help="reproduce the structured-family tables"))
    s.add_argument("--table", choices=("I", "II-10", "II-14", "III", "IV", "all"),
                   default="all")

    s = _common(subs.add_parser("reflect", help="classify reflections on a lattice"))
    s.add_argument("expr", nargs="?", help="lattice expression (with --vector)")
    s.add_argument("--vector", help="comma-separated integer coordinates")
    s.add_argument("--sample-d", type=int, dest="sample_d",
                   help="sampled biconditional check on L_2d")
    s.add_argument("--samples", type=int, default=10000)

    s = _common(subs.add_parser("disc", help="discriminant group of a lattice"))
    s.add_argument("expr")

    s = _common(subs.add_parser("rst", help="eigenvalue-exponent sums and cyclotomic "
                                            "decompositions"))
    s.add_argument("--exponents", help="m:a1,a2,... for the fractional sum")
    s.add_argument("--sigma-prime", type=int, dest="sigma_prime_l",
                   help="also evaluate the modified sum at this power")
    s.add_argument("--matrix", help="JSON integer matrix to decompose")

    s = _common(subs.add_parser("cmin", help="minimal shifted coprime fractional sum"))
    s.add_argument("d", type=int)

    s = _common(subs.add_parser("bigphi", help="verify the coprime-residue sum bound"))
    s.add_argument("r_max", type=int)

    return p


def _emit(args, payload, text_lines=None, csv_rows=None, csv_header=None):
    """Render one result in the requested format."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=_json_default))
    elif args.format == "csv":
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        if csv_header:
            w.writerow(csv_header)
        for row in csv_rows if csv_rows is not None else _rows_from(payload):
            w.writerow(row)
        sys.stdout.write(out.getvalue())
    else:
        for line in (text_lines if text_lines is not None else [json.dumps(payload, default=_json_default)]):
            print(line)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not serializable: {obj!r}")


def _rows_from(payload):
    if isinstance(payload, dict):
        return sorted(payload.items())
    if isinstance(payload, list):
        return [[x] if not isinstance(x, (list, tuple)) else x for x in payload]
    return [[payload]]


def _parse_targets(text):
    out = set()
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            out.update(range(int(lo), int(hi) + 1))
        else:
            out.add(int(part))
    return out


def resolve_threads(flag):
    if flag is not None:
        n = flag
    else:
        n = int(os.environ.get("K3MOD_THREADS", "0")) or (os.cpu_count() or 1)
    if n < 1:
        raise ValueError("thread count must be positive")
    return n


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_roots(args):
    lat = lt.parse_lattice_expr(args.expr)
    data = rt_roots(lat)
    if args.count:
        _emit(args, data.count, [str(data.count)], [[data.count]])
        return 0
    payload = {"lattice": args.expr, "count": data.count,
               "roots": [list(c) for c in data.coords]}
    _emit(args, payload,
          [f"{data.count} roots"] + [",".join(map(str, c)) for c in data.coords],
          [list(c) for c in data.coords])
    return 0


def rt_roots(lat):
    from . import roots
    return roots.enumerate_roots(lat)


def _cmd_enum(args):
    from . import roots
    lat = lt.parse_lattice_expr(args.expr)
    found = []
    if args.count:
        n = roots.enumerate_norm_vectors(lat, args.norm)
        _emit(args, n, [str(n)], [[n]])
        return 0
    roots.enumerate_norm_vectors(lat, args.norm, lambda c, _n: found.append(c))
    found.sort()
    payload = {"lattice": args.expr, "norm": args.norm, "count": len(found),
               "vectors": [list(c) for c in found]}
    _emit(args, payload,
          [f"{len(found)} vectors"] + [",".join(map(str, c)) for c in found],
          [list(c) for c in found])
    return 0


def _cmd_repnum(args):
    n = qs.rep_num(args.name, args.two_d, args.method)
    _emit(args, n, [str(n)], [[n]])
    return 0


def _cmd_theta(args):
    names = {"E6": qs.theta_e6, "E7": qs.theta_e7, "D5": lambda p: qs.theta_dn(5, p),
             "D6": lambda p: qs.theta_dn(6, p), "D8": lambda p: qs.theta_dn(8, p)}
    if args.method == "formula" and args.name in names:
        series = names[args.name](args.prec).truncate(args.prec)
    else:
        lat = (qs.named_definite_lattice(args.name) if args.name in names
               else lt.parse_lattice_expr(args.name))
        series = qs.theta_brute(lat, args.prec)
    payload = series.to_json_dict()
    _emit(args, payload,
          [f"q^{m}: {series.coeff(m)}" for m in range(args.prec + 1)],
          [[m, series.coeff(m)] for m in range(args.prec + 1)], ["m", "coeff"])
    return 0


def _cmd_pex(args):
    pex = se.compute_pex(args.max_m)
    _emit(args, pex, [" ".join(map(str, pex))], [[m] for m in pex], ["m"])
    return 0


def _cmd_ineq(args):
    payload = {"d": args.d, "mineq": se.check_mineq(args.d),
               "mineqd": se.check_mineqd(args.d)}
    _emit(args, payload,
          [f"mineq: {payload['mineq']}", f"mineqd: {payload['mineqd']}"])
    return 0


def _cmd_search(args):
    targets = _parse_targets(args.targets)
    if args.case == "all":
        hits = se.structured_search_all(args.d, targets)
    else:
        hits = se.structured_search(args.d, args.case, targets)
    payload = [h.to_dict() for h in hits]
    _emit(args, payload,
          [f"{h.source}: N_l={h.n_l} weight={h.weight} l2x={h.coords2x}" for h in hits],
          [[h.d, h.source, h.n_l, h.weight, " ".join(map(str, h.coords2x))] for h in hits],
          ["d", "source", "N_l", "weight", "coords2x"])
    return 0


def _cmd_verdict(args):
    v = se.kodaira_verdict(args.d, feasibility_bound=args.bound)
    payload = v.to_dict()
    lines = [f"d={v.d}: {v.kind}"]
    if v.witness:
        lines.append(f"witness N_l={v.witness.n_l} weight={v.witness.weight} "
                     f"source={v.witness.source} l2x={v.witness.coords2x}")
    _emit(args, payload, lines)
    return 0


def _cmd_tables(args):
    which = ("I", "II-10", "II-14", "III", "IV") if args.table == "all" else (args.table,)
    rows = []
    for w in which:
        for d, tup, n_l in se.table_rows(w):
            rows.append([w, d, tup, n_l])
    if args.format == "json":
        payload = [{"table": w, "d": d, "m_tuple": t, "N_l": n} for w, d, t, n in rows]
        _emit(args, payload)
    else:
        _emit(args, rows, [f"{w}: d={d} {t} N_l={n}" for w, d, t, n in rows],
              [[d, t, n] for _w, d, t, n in rows], ["d", "m-tuple", "N_l"])
    return 0


def _cmd_reflect(args):
    if args.sample_d is not None:
        rep = rf.reflk3_sample_check(args.sample_d, samples=args.samples, seed=args.seed)
        _emit(args, rep, [json.dumps(rep, default=_json_default)])
        return 0
    if not args.expr or not args.vector:
        raise UsageError("reflect needs EXPR --vector or --sample-d")
    lat = lt.parse_lattice_expr(args.expr)
    coords = tuple(int(x) for x in args.vector.split(","))
    rep = rf.reflection_report(lat, coords)
    _emit(args, rep, [json.dumps(rep, default=_json_default)])
    return 0


def _cmd_disc(args):
    lat = lt.parse_lattice_expr(args.expr)
    disc = lt.disc_group(lat)
    payload = {
        "lattice": args.expr,
        "invariant_factors": list(disc.invariant_factors),
        "order": disc.order,
        "exponent": disc.exponent,
        "q_values": None if disc.q_values is None else [str(q) for q in disc.q_values],
        "generator_lifts": [[str(c) for c in w.coords] for w in disc.generator_lifts],
        "two_elementary": rf.is_two_elementary(disc),
        "parity_delta": rf.parity_delta(disc) if disc.q_values is not None else None,
    }
    _emit(args, payload, [
        f"A_L = {' x '.join(f'Z/{f}' for f in disc.invariant_factors) or 'trivial'}",
        f"q on generators: {payload['q_values']}",
        f"2-elementary: {payload['two_elementary']}, delta: {payload['parity_delta']}"])
    return 0


def _cmd_rst(args):
    if args.matrix:
        mat = json.loads(args.matrix)
        rep = rst.toric_order2_check(mat)
        rep["sigma"] = str(rep["sigma"])
        _emit(args, rep, [json.dumps(rep)])
        return 0
    if not args.exponents:
        raise UsageError("rst needs --exponents m:a1,a2,... or --matrix")
    head, _, tail = args.exponents.partition(":")
    e = rst.EigenExponents(int(head), [int(a) for a in tail.split(",") if a])
    payload = {"order": e.order, "exponents": list(e.exponents),
               "sigma": str(rst.sigma_rst(e)),
               "quasi_reflection": rst.is_quasi_reflection(e),
               "reflection": rst.is_reflection(e)}
    if args.sigma_prime_l is not None:
        payload["sigma_prime"] = str(rst.sigma_prime(e, args.sigma_prime_l))
    _emit(args, payload, [json.dumps(payload)])
    return 0


def _cmd_cmin(args):
    value, arg = rst.c_min_with_argmin(args.d)
    payload = {"d": args.d, "c_min": str(value), "argmin": arg}
    _emit(args, payload, [f"c_min({args.d}) = {value} (attained at a = {arg})"],
          [[args.d, str(value), arg]], ["d", "c_min", "argmin"])
    return 0


def _cmd_bigphi(args):
    rep = rst.bigphi_verify(args.r_max)
    payload = {"checked": rep["checked"], "min_sum": str(rep["min_sum"]),
               "min_at": list(rep["min_at"]), "violations": rep["violations"]}
    _emit(args, payload,
          [f"checked {rep['checked']} cases, min sum {rep['min_sum']} at "
           f"r={rep['min_at'][0]}, k1={rep['min_at'][1]}, "
           f"violations: {len(rep['violations'])}"])
    return 0


class UsageError(ValueError):
    pass


_COMMANDS = {
    "roots": _cmd_roots, "enum": _cmd_enum, "repnum": _cmd_repnum,
    "theta": _cmd_theta, "pex": _cmd_pex, "ineq": _cmd_ineq,
    "search": _cmd_search, "verdict": _cmd_verdict, "tables": _cmd_tables,
    "reflect": _cmd_reflect, "disc": _cmd_disc, "rst": _cmd_rst,
    "cmin": _cmd_cmin, "bigphi": _cmd_bigphi,
}


def run(argv):
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        resolve_threads(args.threads)
        return _COMMANDS[args.command](args)
    except (UsageError, lt.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (lt.LatticeError, se.FeasibilityError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; send the unflushed rest nowhere so that the
        # flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
