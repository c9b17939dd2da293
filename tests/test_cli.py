import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from k3mod.cli import run


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return invoke


def test_roots_count(capture):
    code, out, _ = capture("roots", "E8", "--count")
    assert code == 0 and out.strip() == "240"


def test_roots_listing_json(capture):
    code, out, _ = capture("roots", "A(2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 6 and len(data["roots"]) == 6


def test_enum(capture):
    code, out, _ = capture("enum", "E8", "4", "--count")
    assert code == 0 and out.strip() == "2160"


def test_repnum(capture):
    code, out, _ = capture("repnum", "E7", "2")
    assert code == 0 and out.strip() == "126"
    code, out, _ = capture("repnum", "D6", "4", "--method", "brute")
    assert code == 0 and int(out) == 252


def test_theta(capture):
    code, out, _ = capture("theta", "E6", "--prec", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["precision"] == 3
    assert data["coefficients"][:2] == ["1", "72"]
    code, out, _ = capture("theta", "A(2)", "--prec", "2", "--method", "brute")
    assert code == 0 and "q^1: 6" in out


def test_pex(capture):
    code, out, _ = capture("pex", "--max", "100")
    assert code == 0
    values = [int(x) for x in out.split()]
    assert values == [m for m in range(1, 101) if m != 96]


def test_ineq(capture):
    code, out, _ = capture("ineq", "96", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"d": 96, "mineq": False, "mineqd": True}


def test_search(capture):
    code, out, _ = capture("search", "46", "--case", "I", "--targets", "8,12",
                           "--format", "json")
    assert code == 0
    hits = json.loads(out)
    assert any(h["N_l"] == 12 for h in hits)


def test_verdict_json(capture):
    code, out, _ = capture("verdict", "57", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "general_type"
    assert data["witness"]["N_l"] <= 12
    assert data["witness"]["weight"] == 12 + data["witness"]["N_l"] // 2


def test_tables_csv(capture):
    code, out, _ = capture("tables", "--table", "IV", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,m-tuple,N_l"
    assert lines[1] == '68,"(1,3,4,5,-7;6)",12'
    assert len(lines) == 5


def test_reflect_vector(capture):
    vec = ",".join(["0"] * 20 + ["1"])
    code, out, _ = capture("reflect", "2U+2E8(-1)+<-10>", "--vector", vec,
                           "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rSquared"] == -10 and data["div"] == 10
    assert data["class"] == "minus_in_tilde_O"


def test_reflect_non_cyclic_disc(capture):
    # A_L = (Z/3)^2 and (Z/4)^2: the class is computed, not a crash
    code, out, err = capture("reflect", "A(2)+A(2)", "--vector", "0,0,1,-1",
                             "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["rSquared"] == 6 and data["div"] == 3
    assert data["discAction"] == "neither" and data["class"] == "neither"
    code, out, _ = capture("reflect", "<-4>+<4>", "--vector", "1,0")
    assert code == 0
    assert json.loads(out)["class"] == "neither"


def test_reflect_sample(capture):
    code, out, _ = capture("reflect", "--sample-d", "2", "--samples", "200",
                           "--seed", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counterexamples"] == [] and data["samples"] == 200


def test_reflect_sample_count_must_be_nonnegative(capture):
    code, out, err = capture("reflect", "--sample-d", "5", "--samples", "-3")
    assert code == 1 and out == ""
    assert err == "error: samples must be nonnegative\n"
    code, out, err = capture("reflect", "--sample-d", "5", "--samples", "0",
                             "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["samples"] == 0


def test_disc(capture):
    code, out, _ = capture("disc", "U(2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["invariant_factors"] == [2, 2]
    assert data["two_elementary"] is True and data["parity_delta"] == 0


def test_rst_exponents(capture):
    code, out, _ = capture("rst", "--exponents", "4:2,2,1", "--sigma-prime", "1")
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == "5/4" and data["sigma_prime"] == "3/2"


def test_rst_matrix(capture):
    code, out, _ = capture("rst", "--matrix", "[[0,1],[1,0]]")
    assert code == 0
    data = json.loads(out)
    assert data["is_reflection"] is True and data["consistent"] is True


def test_cmin(capture):
    code, out, _ = capture("cmin", "30")
    assert code == 0 and "attained at a = 19" in out


def test_bigphi(capture):
    code, out, _ = capture("bigphi", "20", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["violations"] == []


def test_usage_errors(capture):
    code, _, _ = capture("roots")
    assert code == 2
    code, _, err = capture("roots", "E9(")
    assert code == 2 and "error" in err
    code, _, _ = capture("nosuchcommand")
    assert code == 2


def test_computational_failure_exit_code(capture):
    code, _, err = capture("theta", "U", "--method", "brute")
    assert code == 1 and "error" in err


def test_determinism(capture):
    a = capture("verdict", "63", "--format", "json")
    b = capture("verdict", "63", "--format", "json")
    assert a == b
    a = capture("tables", "--format", "csv")
    b = capture("tables", "--format", "csv")
    assert a == b


@pytest.mark.parametrize("argv", [("cmin", "5", "--threads", "2"),
                                  ("verdict", "5", "--seed", "1"),
                                  ("search", "46", "--seed", "1"),
                                  ("verdict", "5", "--bound", "150")])
def test_flags_that_do_nothing_are_usage_errors(capture, argv):
    code, out, err = capture(*argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("exc", [RuntimeError("cross-check disagrees"),
                                 AssertionError("cross-check disagrees")])
def test_internal_check_failure_exit_code(capture, monkeypatch, exc):
    from k3mod import search as se

    def fail(*_args, **_kwargs):
        raise exc

    monkeypatch.setattr(se, "kodaira_verdict", fail)
    code, out, err = capture("verdict", "5")
    assert code == 3 and out == ""
    assert err == "error: internal check failed: cross-check disagrees\n"


def test_memory_error_is_one_error_line(capture, monkeypatch):
    from k3mod import qseries as qs

    def fail(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(qs, "named_theta", fail)
    code, out, err = capture("theta", "E7", "--prec", "100000000000")
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"


def test_usage_errors_name_every_subcommand(capture):
    # the parser of one subcommand prints the full parser's usage line
    code, out, no_command = capture()
    assert code == 2 and out == ""
    usage, _, message = no_command.partition("k3mod: error: ")
    assert "{roots,enum,repnum,theta,pex,ineq,search,verdict,tables,reflect,disc,rst,cmin,bigphi}" \
        in " ".join(usage.split())
    assert message == "the following arguments are required: command\n"
    for argv in (("verdict", "5", "extra"), ("cmin", "5", "extra")):
        code, out, err = capture(*argv)
        assert code == 2 and out == ""
        assert err == usage + "k3mod: error: unrecognized arguments: extra\n"
    code, _, err = capture("nosuchcommand")
    assert code == 2 and err.startswith(usage + "k3mod: error: argument command: invalid choice: ")


# the k3mod modules a fresh process holds after one call of each subcommand
_LAYERS = {
    ("cmin", "5"): {"cli", "lattice", "rst"},
    ("bigphi", "10"): {"cli", "lattice", "rst"},
    ("rst", "--exponents", "4:2,2,1"): {"cli", "lattice", "rst"},
    ("disc", "U(2)"): {"cli", "lattice"},
    ("reflect", "A(2)+A(2)", "--vector", "0,0,1,-1"): {"cli", "lattice", "reflective"},
    ("roots", "A(2)"): {"cli", "lattice", "roots"},
    ("enum", "A(2)", "2", "--count"): {"cli", "lattice", "roots"},
    ("repnum", "E7", "2"): {"cli", "lattice", "qseries", "roots"},
    ("theta", "E6", "--prec", "3"): {"cli", "lattice", "qseries", "roots"},
    ("verdict", "3"): {"cli", "e8", "lattice", "qseries", "roots", "search"},
    ("ineq", "3"): {"cli", "e8", "lattice", "qseries", "roots", "search"},
    ("search", "5", "--case", "I"): {"cli", "e8", "lattice", "qseries", "roots", "search"},
    ("pex", "--max", "10"): {"cli", "e8", "lattice", "qseries", "roots", "search"},
    ("tables", "--table", "IV"): {"cli", "e8", "lattice", "qseries", "roots", "search"},
}


@pytest.mark.parametrize("argv", sorted(_LAYERS), ids=" ".join)
def test_each_subcommand_imports_only_the_layers_it_runs(argv):
    script = ("import contextlib, io, sys\n"
              "from k3mod import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.run(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.startswith('k3mod.')))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, *modules = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    assert set(modules) == {f"k3mod.{name}" for name in _LAYERS[argv]}


# the benchmark's recorded CLI calls; this file is only read here
_GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json")
                     .read_text())
_GOLDEN_CALLS = [(call["argv"], call["stdout"]) for calls in _GOLDEN.values()
                 for call in calls]


@pytest.mark.parametrize("argv, stdout", _GOLDEN_CALLS,
                         ids=[" ".join(argv) for argv, _ in _GOLDEN_CALLS])
def test_golden_stdout(capture, argv, stdout):
    code, out, _ = capture(*argv)
    assert code == 0 and out == stdout


# one call of every subcommand body and of each of its branches
_BODY_CALLS = [
    ("roots", "A(2)"), ("roots", "E8", "--count"), ("enum", "A(2)", "2"),
    ("enum", "E8", "4", "--count"), ("repnum", "E7", "2"), ("theta", "E6", "--prec", "3"),
    ("theta", "A(2)", "--prec", "2", "--method", "brute"), ("pex", "--max", "20"),
    ("ineq", "96"), ("search", "46", "--case", "I", "--targets", "8,12"), ("verdict", "57"),
    ("tables", "--table", "IV"), ("reflect", "A(2)+A(2)", "--vector", "0,0,1,-1"),
    ("reflect", "--sample-d", "2", "--samples", "20", "--seed", "5"), ("disc", "U(2)"),
    ("rst", "--matrix", "[[0,1],[1,0]]"), ("rst", "--exponents", "4:2,2,1", "--sigma-prime", "1"),
    ("cmin", "30"), ("bigphi", "20"),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", _BODY_CALLS, ids=" ".join)
def test_subcommand_bodies_return_what_run_prints(capsys, argv, fmt):
    from k3mod import cli
    argv = [*argv, "--format", fmt]
    args = cli.build_parser(argv[0]).parse_args(argv)
    result = cli._COMMANDS[args.command](args)
    assert capsys.readouterr().out == ""
    cli._emit(args.format, *result)
    rendered = capsys.readouterr().out
    assert run(argv) == 0 and capsys.readouterr().out == rendered != ""


@pytest.mark.parametrize("argv", _BODY_CALLS, ids=" ".join)
def test_csv_cells_holding_lists_or_objects_are_json(capture, argv):
    code, out, _ = capture(*argv, "--format", "csv")
    assert code == 0
    for row in csv.reader(io.StringIO(out)):
        for cell in row:
            if cell[:1] in ("[", "{"):
                json.loads(cell)


def test_closed_stdout_ends_without_traceback():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "k3mod.cli", "verdict", "150",
                             "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before any output is written
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.stderr.close()
    assert err == b"" and code == 1


# stdout of the structured family-IV search and of verdicts above the
# exhaustive bound, recorded before the closed-form root count and the solved
# family-IV coordinate replaced the scan and the leaf loop
_SEARCH_IV_STDOUT = {
    40: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    160: (144, "f3827e3c2cc0cc85054e4d0fc2e8af36086b04c7c7b1623a3d80dc3f40b3ed4d"),
    257: (276, "720fa6364ce99e1ade93523145918c0d3a14df6c5efd8c2c54e6c6dda3207431"),
}
_VERDICT_STDOUT = {
    160: "d=160: general_type\n"
         "witness N_l=8 weight=16 source=caseIV l2x=(0, 0, -30, 2, 8, 10, 14, 4)\n",
    257: "d=257: general_type\n"
         "witness N_l=8 weight=16 source=caseIV l2x=(0, 0, -36, -4, 8, 10, 24, 2)\n",
    333: "d=333: general_type\n"
         "witness N_l=8 weight=16 source=caseIV l2x=(0, 0, -42, 4, 10, 12, 24, 8)\n",
    # recorded before the family-IV search took its last pair from w^2 + 3v^2 = K
    151: "d=151: general_type\n"
         "witness N_l=8 weight=16 source=caseIV l2x=(0, 0, -28, -4, 8, 12, 14, 2)\n",
    233: "d=233: general_type\n"
         "witness N_l=8 weight=16 source=caseIV l2x=(0, 0, -36, 4, 8, 14, 16, 6)\n",
    311: "d=311: general_type\n"
         "witness N_l=8 weight=16 source=caseIV l2x=(0, 0, -40, 2, 10, 12, 24, 8)\n",
    400: "d=400: general_type\n"
         "witness N_l=8 weight=16 source=caseIV l2x=(0, 0, -50, 10, 12, 14, 16, 2)\n",
}
# `search D --case IV --format json`, recorded before the family-IV search
# took its last pair from w^2 + 3v^2 = K: (lines, sha256)
_SEARCH_IV_JSON = {
    46: (194, "ac5f65f6b7f12246cd5a734f0b439ff57ad7c0d30618e44741cb8769bce4c59c"),
    151: (1538, "20abf0282f24b96f84bf8779b2b15814b3d94790aa11e10ffbd67f7dcc1c58a1"),
    233: (3586, "5d39b6a06bbb4ea1507e3166a1975fff8c3a4448341b49b9f9715dd0a195817c"),
    400: (13058, "80e7ea8003db4eae9fe65e29d0eb49bd664a1eb6283fed5be67e50e08fefb5c3"),
}


@pytest.mark.parametrize("d", sorted(_SEARCH_IV_STDOUT))
def test_search_case4_stdout_is_pinned(capture, d):
    code, out, _ = capture("search", str(d), "--case", "IV")
    lines, digest = _SEARCH_IV_STDOUT[d]
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("d", sorted(_SEARCH_IV_JSON))
def test_search_case4_json_stdout_is_pinned(capture, d):
    code, out, _ = capture("search", str(d), "--case", "IV", "--format", "json")
    lines, digest = _SEARCH_IV_JSON[d]
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("d", sorted(_VERDICT_STDOUT))
def test_verdict_stdout_is_pinned(capture, d):
    code, out, _ = capture("verdict", str(d))
    assert code == 0 and out == _VERDICT_STDOUT[d]


@pytest.mark.parametrize("d", ["0", "-3"])
@pytest.mark.parametrize("case", ["all", "IV"])
def test_search_rejects_nonpositive_degree(capture, d, case):
    code, out, err = capture("search", d, "--case", case)
    assert code == 1 and out == ""
    assert err == "error: d must be positive\n"


@pytest.mark.parametrize("method", ["formula", "brute"])
def test_theta_rejects_negative_precision(capture, method):
    code, out, err = capture("theta", "E7", "--prec", "-1", "--method", method)
    assert code == 1 and out == ""
    assert err == "error: precision must be nonnegative\n"


@pytest.mark.parametrize("method", ["formula", "brute"])
def test_theta_precision_zero(capture, method):
    code, out, _ = capture("theta", "E7", "--prec", "0", "--method", method)
    assert code == 0 and out == "q^0: 1\n"


def test_theta_method_formula_needs_a_named_lattice(capture):
    for expr in ("A(2)", "E8"):
        code, out, err = capture("theta", expr, "--method", "formula")
        assert code == 2 and out == ""
        assert err == "error: --method formula needs a named lattice (E6, E7, D5, D6, D8)\n"
    # without --method a named lattice uses its closed form, an expression the enumerator
    assert capture("theta", "D6", "--prec", "4") == capture("theta", "D6", "--prec", "4",
                                                             "--method", "formula")
    assert capture("theta", "A(2)", "--prec", "2") == capture("theta", "A(2)", "--prec", "2",
                                                               "--method", "brute")


def test_rst_non_square_matrix_is_a_computational_error(capture):
    for matrix in ("[[1, 2]]", "[[1,0]]", "[[]]"):
        code, out, err = capture("rst", "--matrix", matrix)
        assert code == 1 and out == ""
        assert err == "error: matrix must be square\n", matrix


@pytest.mark.parametrize("argv", [("ineq", "0"), ("ineq", "-3"), ("verdict", "0"),
                                  ("verdict", "-2")])
def test_inequalities_reject_nonpositive_degree(capture, argv):
    code, out, err = capture(*argv)
    assert code == 1 and out == ""
    assert err == "error: d must be positive\n"


@pytest.mark.parametrize("targets", ["2-", "x", ",", "3-y"])
def test_search_rejects_bad_targets(capture, targets):
    code, out, err = capture("search", "10", "--targets", targets)
    assert code == 2 and out == ""
    assert err.startswith("error: --targets has a bad part ") and err.count("\n") == 1


@pytest.mark.parametrize("targets", ["3-2", "2-12,14-13"])
def test_search_rejects_empty_target_range(capture, targets):
    code, out, err = capture("search", "10", "--targets", targets)
    assert code == 2 and out == ""
    assert err == f"error: --targets has an empty range {targets.split(',')[-1]!r}\n"


@pytest.mark.parametrize("targets", ["-3", "2-12,-1"])
def test_search_rejects_a_negative_target_count(capture, targets):
    # N_l counts roots, so it is never negative; 0 stays a valid count
    code, out, err = capture("search", "5", f"--targets={targets}")
    assert code == 2 and out == ""
    assert err == f"error: --targets has a negative count {targets.split(',')[-1]!r}\n"
    assert capture("search", "5", "--targets=0")[0] == 0


def _search_under_a_memory_limit(targets):
    """`k3mod search 100 --targets TARGETS` in a process whose address
    space is capped at 512 MB."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run([sys.executable, "-m", "k3mod.cli", "search", "100",
                           "--targets", targets], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=limit)


def test_a_huge_target_range_costs_no_memory():
    # no N_l exceeds 240, the number of roots of E8; a range built in full
    # would fail fast under the cap instead of filling the machine's memory
    huge = _search_under_a_memory_limit("0-1000000000000")
    assert (huge.returncode, huge.stderr) == (0, "")
    assert huge.stdout == _search_under_a_memory_limit("0-240").stdout != ""


# `k3mod disc` stdout recorded while dual vectors were still Fraction tuples:
# the text in full, the json as its sha256
_DISC_STDOUT = {
    "2U+2E8(-1)+<-12>": ("A_L = Z/12\nq on generators: ['23/12']\n"
                         "2-elementary: False, delta: 1\n",
                         "d6bbdb52b8f65e2f266be3fb14c74dd360d7b1760a87f274b4aa2e4dda68d6b2"),
    "A(2)+A(2)": ("A_L = Z/3 x Z/3\nq on generators: ['2/3', '2/3']\n"
                  "2-elementary: False, delta: 1\n",
                  "4a72643cac44e015605f20eccf4882635e6c8381b1c78e6e53cff61600243fc6"),
    "U(2)+U(2)": ("A_L = Z/2 x Z/2 x Z/2 x Z/2\nq on generators: ['0', '0', '0', '0']\n"
                  "2-elementary: True, delta: 0\n",
                  "5384b9fa84b856721be1f5f051ac4846b8a4c367a492a1dc2129cafd2061ee33"),
    "D(4)+<6>": ("A_L = Z/2 x Z/2 x Z/6\nq on generators: ['1', '1', '1/6']\n"
                 "2-elementary: False, delta: 1\n",
                 "f15d8bd09eac2803f4be116187d86d489d39b370bc3ed54191cafe70908b1c74"),
    "2U(3)+A(1)": ("A_L = Z/3 x Z/3 x Z/3 x Z/6\nq on generators: ['0', '0', '0', '1/2']\n"
                   "2-elementary: False, delta: 1\n",
                   "19f477d785515f747a97786c3680c8bd67dc0e104f5af0b37a5b605d5bfecd3d"),
    "E8": ("A_L = trivial\nq on generators: []\n2-elementary: True, delta: 0\n",
           "be6275e2323525fa3c8fa8e596abacde92c702183052a96d80304c9f34ac2105"),
    "<2>+<-2>": ("A_L = Z/2 x Z/2\nq on generators: ['1/2', '3/2']\n"
                 "2-elementary: True, delta: 1\n",
                 "c061ad2b138b08d2416b891cfdead218bb130798ba47cc41c6b13d53fdb5771a"),
    "U+A(2)": ("A_L = Z/3\nq on generators: ['2/3']\n2-elementary: False, delta: 1\n",
               "d56683dd7c0449ddd28817d1acebf2b0000912f4c14e161ca519a24bb5e1527e"),
    "E7+<10>": ("A_L = Z/2 x Z/10\nq on generators: ['3/2', '1/10']\n"
                "2-elementary: False, delta: 1\n",
                "5831e80652bc4a9e47de3878d659a0fbedc4c0bae7d438a4f5abe6335cd19e58"),
    "D(5)+U(4)": ("A_L = Z/4 x Z/4 x Z/4\nq on generators: ['5/4', '0', '0']\n"
                  "2-elementary: False, delta: 1\n",
                  "28e358af99a6fed9e8da47dc3882e17f0ccaabfb1901078fed3179c3dd3d3ee6"),
}


@pytest.mark.parametrize("expr", sorted(_DISC_STDOUT))
def test_disc_stdout_is_pinned(capture, expr):
    text, json_digest = _DISC_STDOUT[expr]
    code, out, _ = capture("disc", expr)
    assert code == 0 and out == text
    code, out, _ = capture("disc", expr, "--format", "json")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == json_digest


@pytest.mark.parametrize("matrix", ["5", "[1,2]", '[["a"]]', "[[1.5]]", "{}", "[[true]]",
                                    "[[1, null]]", "[[1,", ""])
def test_rst_matrix_must_be_a_json_integer_matrix(capture, matrix):
    code, out, err = capture("rst", "--matrix", matrix)
    assert code == 2 and out == ""
    assert err == "error: --matrix must be a JSON list of rows of integers\n"


def test_rst_empty_matrix_keeps_its_report(capture):
    code, out, err = capture("rst", "--matrix", "[]")
    assert code == 0 and err == ""
    assert json.loads(out) == {"order": 1, "decomposition": {}, "sigma": "0",
                               "is_quasi_reflection": False, "is_reflection": False,
                               "consistent": True}


@pytest.mark.parametrize("argv, message", [
    (("reflect", "U", "--vector", "a"), "--vector has a bad part 'a'"),
    (("reflect", "U", "--vector", "1,"), "--vector has a bad part ''"),
    (("rst", "--exponents", "abc"), "--exponents has a bad part 'abc'"),
    (("rst", "--exponents", ":1"), "--exponents has a bad part ''"),
    (("rst", "--exponents", "4:2,x"), "--exponents has a bad part 'x'"),
])
def test_integer_lists_are_usage_errors(capture, argv, message):
    code, out, err = capture(*argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("rst", "--matrix", "[[0,1],[1,0]]", "--exponents", "4:2,2,1"),
     "--matrix takes no --exponents or --sigma-prime"),
    (("rst", "--matrix", "[[0,1],[1,0]]", "--sigma-prime", "1"),
     "--matrix takes no --exponents or --sigma-prime"),
    (("reflect", "--sample-d", "5", "U"), "--sample-d takes no EXPR or --vector"),
    (("reflect", "--sample-d", "5", "--vector", "1,0"), "--sample-d takes no EXPR or --vector"),
    (("reflect", "U", "--vector", "1,0", "--samples", "10"),
     "--samples and --seed go with --sample-d only"),
    (("reflect", "U", "--vector", "1,0", "--seed", "3"),
     "--samples and --seed go with --sample-d only"),
])
def test_options_that_would_be_ignored_are_usage_errors(capture, argv, message):
    code, out, err = capture(*argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_reflect_sample_defaults_to_ten_thousand_samples(capture):
    code, out, _ = capture("reflect", "--sample-d", "1", "--format", "json")
    assert code == 0 and json.loads(out)["samples"] == 10**4


def test_rst_sigma_prime_without_exponents_is_a_computational_error(capture):
    code, out, err = capture("rst", "--exponents", "4:", "--sigma-prime", "1")
    assert code == 1 and out == ""
    assert err == "error: expected even exponents with a single odd final slot\n"


@pytest.mark.parametrize("max_m", ["-1", "-500"])
def test_pex_rejects_a_negative_max(capture, max_m):
    code, out, err = capture("pex", "--max", max_m)
    assert code == 1 and out == ""
    assert err == "error: max_m must be nonnegative\n"
    code, out, err = capture("pex", "--max", "0")
    assert code == 0 and out == "\n" and err == ""
