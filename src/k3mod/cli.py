"""Command-line surface: one subcommand per computation, reproducible output.

Exit codes: 0 success, 1 computational failure (e.g. an indefinite lattice
where a definite one is needed, or a request too large for memory) or stdout
closed before all output was written, 2 usage error, 3 failed internal check
(a cross-check between two code paths disagreed).
Identical invocations produce byte-identical output.

A subcommand body `_cmd_*` returns what it prints and prints nothing: the
payload, then optionally the text lines, the CSV rows and the CSV header
(the arguments of `_emit`).  `run` renders that result once, in the
requested format, and owns the exit code: 0 when the body returns, else the
code of the exception it raised.

Imports happen on use: at module level only `lattice`, whose exceptions
`run` catches; each `_cmd_*` body imports the layers it calls, and `run`
builds the parser of the named subcommand only, so layer-held choices are
read only by their own subcommand.  Each `k3mod` call is a fresh interpreter
that compiles every module it imports unless bytecode is cached, so a cold
call compiles only what it runs (`k3mod cmin 60`: `cli`, `lattice`, `rst`).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import lattice as lt


def build_parser(command=None):
    """The `k3mod` parser with every subcommand, or with `command`'s only.

    On an argv that starts with `command` both print the same usage line: the
    one-subcommand parser lists every subcommand in its metavar.  The full
    parser has none, so its errors name the argument `command`.
    """
    p = argparse.ArgumentParser(
        prog="k3mod",
        description="Exact lattice arithmetic, E8 root searches and "
                    "Kodaira-type verdicts for degree-2d K3 moduli.")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    subs = p.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, help_text):
        if command not in (None, name):
            return None
        s = subs.add_parser(name, help=help_text)
        s.add_argument("--format", choices=("json", "csv", "text"), default="text",
                       help="output format (default text)")
        return s

    if s := add("roots", "enumerate the roots of a definite lattice"):
        s.add_argument("expr", help="lattice expression, e.g. E8 or 2U+<-2>")
        s.add_argument("--count", action="store_true", help="print the count only")

    if s := add("enum", "enumerate vectors of a fixed norm"):
        s.add_argument("expr")
        s.add_argument("norm", type=int)
        s.add_argument("--count", action="store_true")

    if s := add("repnum", "representation number N_L(2d)"):
        from . import qseries as qs
        s.add_argument("name", choices=qs.NAMED_LATTICES)
        s.add_argument("two_d", type=int)
        s.add_argument("--method", choices=("formula", "brute"), default="formula")

    if s := add("theta", "theta series q-expansion"):
        s.add_argument("name", help="E6, E7, D5, D6, D8 or a lattice expression (brute force)")
        s.add_argument("--prec", type=int, default=20)
        s.add_argument("--method", choices=("formula", "brute"))

    if s := add("pex", "degrees where the 5/28/63/378 series has a negative coefficient"):
        s.add_argument("--max", type=int, default=240, dest="max_m")

    if s := add("ineq", "representation-number inequalities at d"):
        s.add_argument("d", type=int)

    if s := add("search", "structured search for vectors with few orthogonal roots"):
        from . import search as se
        s.add_argument("d", type=int)
        s.add_argument("--case", choices=se.CASES + ("all",), default="all")
        s.add_argument("--targets", default="2-12",
                       help="orthogonal-root counts to keep, e.g. '2-12' or '8,12,14'")

    if s := add("verdict", "Kodaira-type verdict for degree 2d"):
        s.add_argument("d", type=int)

    if s := add("tables", "reproduce the structured-family tables"):
        from . import search as se
        s.add_argument("--table", choices=se.TABLES + ("all",), default="all")

    if s := add("reflect", "classify reflections on a lattice"):
        s.add_argument("expr", nargs="?", help="lattice expression (with --vector)")
        s.add_argument("--vector", help="comma-separated integer coordinates")
        s.add_argument("--sample-d", type=int, dest="sample_d",
                       help="sampled biconditional check on L_2d")
        s.add_argument("--samples", type=int, help="samples of --sample-d (default 10000)")
        s.add_argument("--seed", type=int, help="seed of --sample-d (default 0)")

    if s := add("disc", "discriminant group of a lattice"):
        s.add_argument("expr")

    if s := add("rst", "eigenvalue-exponent sums and cyclotomic decompositions"):
        s.add_argument("--exponents", help="m:a1,a2,... for the fractional sum")
        s.add_argument("--sigma-prime", type=int, dest="sigma_prime_l",
                       help="also evaluate the modified sum at this power")
        s.add_argument("--matrix", help="JSON integer matrix to decompose")

    if s := add("cmin", "minimal shifted coprime fractional sum"):
        s.add_argument("d", type=int)

    if s := add("bigphi", "verify the coprime-residue sum bound"):
        s.add_argument("r_max", type=int)

    return p


def _emit(fmt, payload, text_lines=None, csv_rows=None, csv_header=None):
    """Render one subcommand result in the format `fmt`."""
    if fmt == "json":
        print(_dumps(payload, indent=2))
    elif fmt == "csv":
        import csv
        import io
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        if csv_header:
            w.writerow(csv_header)
        for row in csv_rows if csv_rows is not None else _rows_from(payload):
            w.writerow(row)
        sys.stdout.write(out.getvalue())
    else:
        for line in (text_lines if text_lines is not None else [_dumps(payload)]):
            print(line)


def _dumps(obj, **kwargs):
    """`json.dumps` with Fractions as strings."""
    import json
    return json.dumps(obj, default=_json_default, **kwargs)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not serializable: {obj!r}")


def _rows_from(payload):
    """The CSV rows of a payload whose subcommand gives none: a dict gives
    (key, value) rows, a list or dict value written as JSON."""
    if isinstance(payload, dict):
        return [(k, _dumps(v) if isinstance(v, (list, tuple, dict)) else v)
                for k, v in sorted(payload.items())]
    if isinstance(payload, list):
        return [[x] if not isinstance(x, (list, tuple)) else x for x in payload]
    return [[payload]]


def _parse_targets(text):
    out = set()
    for part in text.split(","):
        part = part.strip()
        try:
            if "-" in part[1:]:
                lo, hi = part.split("-", 1)
                lo, hi = int(lo), int(hi)
            else:
                lo = hi = int(part)
        except ValueError:
            raise UsageError(f"--targets has a bad part {part!r}") from None
        if lo > hi:
            raise UsageError(f"--targets has an empty range {part!r}")
        if lo < 0:
            raise UsageError(f"--targets has a negative count {part!r}")
        # no N_l exceeds 240, the number of roots of E8
        out.update(range(lo, min(hi, 240) + 1))
    return out


def _parse_ints(option, parts):
    out = []
    for part in parts:
        try:
            out.append(int(part))
        except ValueError:
            raise UsageError(f"{option} has a bad part {part!r}") from None
    return out


def _parse_matrix(text):
    """A JSON list of lists of ints (bools rejected); the shape is the library's check."""
    import json
    try:
        mat = json.loads(text)
    except ValueError:
        mat = None
    if not (isinstance(mat, list) and all(
            isinstance(row, list) and all(type(x) is int for x in row) for row in mat)):
        raise UsageError("--matrix must be a JSON list of rows of integers")
    return mat


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _number(n):
    """The result of a subcommand that prints one number."""
    return n, [str(n)], [[n]]


def _listing(payload, key):
    """The result of a vector listing: its count, then one vector a line."""
    vectors = payload[key]
    return (payload, [f"{len(vectors)} {key}"] + [",".join(map(str, c)) for c in vectors],
            vectors)


def _cmd_roots(args):
    from . import roots
    data = roots.enumerate_roots(lt.parse_lattice_expr(args.expr))
    if args.count:
        return _number(data.count)
    return _listing({"lattice": args.expr, "count": data.count,
                     "roots": [list(c) for c in data.coords]}, "roots")


def _cmd_enum(args):
    from . import roots
    lat = lt.parse_lattice_expr(args.expr)
    if args.count:
        return _number(roots.enumerate_norm_vectors(lat, args.norm))
    found = []
    roots.enumerate_norm_vectors(lat, args.norm, lambda c, _n: found.append(list(c)))
    found.sort()
    return _listing({"lattice": args.expr, "norm": args.norm, "count": len(found),
                     "vectors": found}, "vectors")


def _cmd_repnum(args):
    from . import qseries as qs
    return _number(qs.rep_num(args.name, args.two_d, args.method))


def _cmd_theta(args):
    from . import qseries as qs
    named = args.name in qs.NAMED_LATTICES
    if args.method == "formula" and not named:
        raise UsageError("--method formula needs a named lattice "
                         f"({', '.join(qs.NAMED_LATTICES)})")
    if args.prec < 0:
        raise ValueError("precision must be nonnegative")
    if named and args.method != "brute":
        series = qs.named_theta(args.name, args.prec)
    else:
        lat = (qs.named_definite_lattice(args.name) if named
               else lt.parse_lattice_expr(args.name))
        series = qs.theta_brute(lat, args.prec)
    return (series.to_json_dict(),
            [f"q^{m}: {series.coeff(m)}" for m in range(args.prec + 1)],
            [[m, series.coeff(m)] for m in range(args.prec + 1)], ["m", "coeff"])


def _cmd_pex(args):
    from . import search as se
    pex = se.compute_pex(args.max_m)
    return pex, [" ".join(map(str, pex))], [[m] for m in pex], ["m"]


def _cmd_ineq(args):
    from . import search as se
    payload = {"d": args.d, "mineq": se.check_mineq(args.d),
               "mineqd": se.check_mineqd(args.d)}
    return payload, [f"mineq: {payload['mineq']}", f"mineqd: {payload['mineqd']}"]


def _cmd_search(args):
    from . import search as se
    targets = _parse_targets(args.targets)
    if args.case == "all":
        hits = se.structured_search_all(args.d, targets)
    else:
        hits = se.structured_search(args.d, args.case, targets)
    return ([h.to_dict() for h in hits],
            [f"{h.source}: N_l={h.n_l} weight={h.weight} l2x={h.coords2x}" for h in hits],
            [[h.d, h.source, h.n_l, h.weight, " ".join(map(str, h.coords2x))] for h in hits],
            ["d", "source", "N_l", "weight", "coords2x"])


def _cmd_verdict(args):
    from . import search as se
    v = se.kodaira_verdict(args.d)
    lines = [f"d={v.d}: {v.kind}"]
    if v.witness:
        lines.append(f"witness N_l={v.witness.n_l} weight={v.witness.weight} "
                     f"source={v.witness.source} l2x={v.witness.coords2x}")
    return v.to_dict(), lines


def _cmd_tables(args):
    from . import search as se
    which = se.TABLES if args.table == "all" else (args.table,)
    rows = [(w, d, tup, n_l) for w in which for d, tup, n_l in se.table_rows(w)]
    return ([{"table": w, "d": d, "m_tuple": t, "N_l": n} for w, d, t, n in rows],
            [f"{w}: d={d} {t} N_l={n}" for w, d, t, n in rows],
            [[d, t, n] for _w, d, t, n in rows], ["d", "m-tuple", "N_l"])


def _cmd_reflect(args):
    from . import reflective as rf
    if args.sample_d is not None:
        if args.expr is not None or args.vector is not None:
            raise UsageError("--sample-d takes no EXPR or --vector")
        samples = 10**4 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        return (rf.reflk3_sample_check(args.sample_d, samples=samples, seed=seed),)
    if not args.expr or not args.vector:
        raise UsageError("reflect needs EXPR --vector or --sample-d")
    if args.samples is not None or args.seed is not None:
        raise UsageError("--samples and --seed go with --sample-d only")
    lat = lt.parse_lattice_expr(args.expr)
    coords = tuple(_parse_ints("--vector", args.vector.split(",")))
    return (rf.reflection_report(lat, coords),)


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
        "two_elementary": disc.two_elementary,
        "parity_delta": disc.parity_delta,
    }
    return payload, [
        f"A_L = {' x '.join(f'Z/{f}' for f in disc.invariant_factors) or 'trivial'}",
        f"q on generators: {payload['q_values']}",
        f"2-elementary: {payload['two_elementary']}, delta: {payload['parity_delta']}"]


def _cmd_rst(args):
    from . import rst
    if args.matrix is not None:
        if args.exponents is not None or args.sigma_prime_l is not None:
            raise UsageError("--matrix takes no --exponents or --sigma-prime")
        rep = rst.toric_order2_check(_parse_matrix(args.matrix))
        rep["sigma"] = str(rep["sigma"])
        return (rep,)
    if not args.exponents:
        raise UsageError("rst needs --exponents m:a1,a2,... or --matrix")
    head, _, tail = args.exponents.partition(":")
    order, *exponents = _parse_ints("--exponents", [head] + [a for a in tail.split(",") if a])
    e = rst.EigenExponents(order, exponents)
    payload = {"order": e.order, "exponents": list(e.exponents),
               "sigma": str(rst.sigma_rst(e)),
               "quasi_reflection": rst.is_quasi_reflection(e),
               "reflection": rst.is_reflection(e)}
    if args.sigma_prime_l is not None:
        payload["sigma_prime"] = str(rst.sigma_prime(e, args.sigma_prime_l))
    return (payload,)


def _cmd_cmin(args):
    from . import rst
    value, arg = rst.c_min_with_argmin(args.d)
    return ({"d": args.d, "c_min": str(value), "argmin": arg},
            [f"c_min({args.d}) = {value} (attained at a = {arg})"],
            [[args.d, str(value), arg]], ["d", "c_min", "argmin"])


def _cmd_bigphi(args):
    from . import rst
    rep = rst.bigphi_verify(args.r_max)
    payload = {"checked": rep["checked"], "min_sum": str(rep["min_sum"]),
               "min_at": list(rep["min_at"]), "violations": rep["violations"]}
    return payload, [f"checked {rep['checked']} cases, min sum {rep['min_sum']} at "
                     f"r={rep['min_at'][0]}, k1={rep['min_at'][1]}, "
                     f"violations: {len(rep['violations'])}"]


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
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        _emit(args.format, *_COMMANDS[args.command](args))
    except (UsageError, lt.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (lt.LatticeError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    return 0


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
