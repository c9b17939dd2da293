import hashlib
import json
import os
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
    code, _, err = capture("verdict", "200", "--bound", "150")
    # structured search succeeds out to 200, so force the failure directly
    from k3mod.search import exhaustive_search, FeasibilityError
    with pytest.raises(FeasibilityError):
        exhaustive_search(500)
    code, _, err = capture("theta", "U", "--method", "brute")
    assert code == 1 and "error" in err


def test_determinism(capture):
    a = capture("verdict", "63", "--format", "json")
    b = capture("verdict", "63", "--format", "json")
    assert a == b
    a = capture("tables", "--format", "csv")
    b = capture("tables", "--format", "csv")
    assert a == b


def test_threads_validation(capture):
    code, out, _ = capture("cmin", "5", "--threads", "2")
    assert code == 0
    code, _, err = capture("cmin", "5", "--threads", "0")
    assert code == 1


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


def test_feasibility_error_keeps_exit_code_one(capture, monkeypatch):
    from k3mod import search as se

    def fail(*_args, **_kwargs):
        raise se.FeasibilityError("beyond the bound")

    monkeypatch.setattr(se, "kodaira_verdict", fail)
    code, _, err = capture("verdict", "5")
    assert code == 1 and err == "error: beyond the bound\n"


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
}


@pytest.mark.parametrize("d", sorted(_SEARCH_IV_STDOUT))
def test_search_case4_stdout_is_pinned(capture, d):
    code, out, _ = capture("search", str(d), "--case", "IV")
    lines, digest = _SEARCH_IV_STDOUT[d]
    assert code == 0 and out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("d", sorted(_VERDICT_STDOUT))
def test_verdict_stdout_is_pinned(capture, d):
    code, out, _ = capture("verdict", str(d))
    assert code == 0 and out == _VERDICT_STDOUT[d]
