"""tools/same_outputs.py on a tiny degree range, and its digests at the
pinned range against tests/golden_digests.json."""
import hashlib
import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from k3mod import e8
from k3mod import lattice as lt
from k3mod import qseries as qs
from k3mod import reflective as rf
from k3mod import rst
from k3mod import search as se

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)
GOLDEN = json.loads((ROOT / "tests" / "golden_digests.json").read_text())
REGENERATE = f"python tools/same_outputs.py --degrees {GOLDEN['degrees']}"
# the generators of the groups that do not depend on --degrees
DEGREE_FREE = ("high_verdicts", "counts", "histograms", "forms", "expressions", "series",
               "rst_outputs")


@pytest.fixture(scope="module")
def computed_once():
    """A function that installs, on a monkeypatch, memoised stand-ins for the
    generators of DEGREE_FREE (each returns its items as a list) and for the
    in-process `k3mod` call `cli_output`.  The memo lives as long as this
    module's tests, so each of those groups and each call runs once."""
    generators = {name: getattr(same_outputs, name) for name in DEGREE_FREE}
    cli_output = same_outputs.cli_output
    items, calls = {}, {}

    def memo_items(name):
        def read():
            if name not in items:
                items[name] = list(generators[name]())
            return items[name]
        return read

    def memo_cli_output(argv):
        key = tuple(argv)
        if key not in calls:
            calls[key] = cli_output(argv)
        return calls[key]

    def install(mp):
        for name in DEGREE_FREE:
            mp.setattr(same_outputs, name, memo_items(name))
        mp.setattr(same_outputs, "cli_output", memo_cli_output)

    return install


def test_one_digest_per_group(capsys, monkeypatch, computed_once):
    computed_once(monkeypatch)
    same_outputs.main(["--degrees", "40-41"])
    lines = capsys.readouterr().out.splitlines()
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    names = [line.split()[0] for line in lines]
    assert names == (["verdict", "verdict-62-400"] + [f"search-{c}" for c in se.CASES]
                     + ["tuples", "orbit-scan", "lattice-reflect", "counts", "histograms", "forms",
                        "expressions", "series", "rst", "cli-tables", "cli-csv", "cli-usage"]
                     + [f"cli-{w}" for w in golden])
    digests = dict(line.split() for line in lines)
    want = hashlib.sha256()
    for d in (40, 41):
        want.update(json.dumps(se.kodaira_verdict(d).to_dict(), sort_keys=True).encode()
                    + b"\n")
    assert digests["verdict"] == want.hexdigest()
    assert digests["verdict-62-400"] == same_outputs.digest(
        se.kodaira_verdict(d).to_dict() for d in range(62, 401))
    assert digests["tuples"] == same_outputs.digest(
        [case, d, [list(ms) for ms in se.iter_case_tuples(case, d)]]
        for case in se.CASES for d in (40, 41))
    assert digests["orbit-scan"] == same_outputs.digest(
        e8.dominant_2x(2 * d) for d in (40, 41))
    assert digests["lattice-reflect"] == same_outputs.digest(
        same_outputs.lattice_reflect(d) for d in (40, 41))
    assert digests["counts"] == same_outputs.digest(same_outputs.counts())
    assert digests["histograms"] == same_outputs.digest(same_outputs.histograms())
    assert digests["forms"] == same_outputs.digest(same_outputs.forms())
    assert digests["expressions"] == same_outputs.digest(same_outputs.expressions())
    assert digests["series"] == same_outputs.digest(same_outputs.series())
    assert digests["rst"] == same_outputs.digest(same_outputs.rst_outputs())
    assert digests["cli-csv"] == same_outputs.digest(
        same_outputs.cli_stdout(argv) for argv in same_outputs.CLI_CSV)
    assert digests["cli-usage"] == same_outputs.digest(
        same_outputs.cli_output(argv) for argv in same_outputs.CLI_USAGE)
    # the in-process calls give the recorded stdout with exit code 0
    for workload, calls in golden.items():
        assert digests[f"cli-{workload}"] == same_outputs.digest(
            (0, c["stdout"]) for c in calls), workload


def test_counts_reads_histograms_and_brute_representation_numbers(monkeypatch, computed_once):
    computed_once(monkeypatch)
    items = list(same_outputs.counts())
    n_hist = len(same_outputs.COUNTS_LATTICES) * len(same_outputs.COUNTS_SEEDS)
    e8 = [hist for expr, _seed, hist in items[:n_hist] if expr == "E8"]
    assert e8 and all(hist[:5] == [1, 0, 240, 0, 2160] and len(hist) == 17 for hist in e8)
    reps = items[n_hist:]
    assert len(reps) == sum(hi - lo + 1 for lo, hi in same_outputs.REP_RANGES.values())
    for name, norm, n in reps:
        assert n == qs.rep_num(name, norm)


def test_histograms_read_norm_counts_at_large_tops(monkeypatch, computed_once):
    computed_once(monkeypatch)
    items = list(same_outputs.histograms())
    n_perm = len(same_outputs.HISTOGRAMS_PERMUTED) * len(same_outputs.COUNTS_SEEDS)
    assert [item[0] for item in items[n_perm:]] == [e for e, _t in same_outputs.HISTOGRAMS_PARSED]
    # the closed forms: 240 sigma_3(m) for E8 and E8(-1), theta_e7 and theta_dn(4)
    checked = set()
    for expr, *_seed, top, hist in items:
        assert len(hist) == top + 1 and hist[0] == 1 and top > same_outputs.COUNTS_MAX_NORM
        e8 = [240 * sum(t ** 3 for t in range(1, m + 1) if m % t == 0)
              for m in range(1, top // 2 + 1)]
        want = {"E8": e8, "E8(-1)": e8, "E7": qs.theta_e7(top // 2).coeffs[1:],
                "D(4)": qs.theta_dn(4, top // 2).coeffs[1:]}
        if expr in want:
            assert hist[2::2] == want[expr] and not any(hist[1::2]), expr
            checked.add(expr)
    assert checked == {"E8", "E8(-1)", "E7", "D(4)"}


def test_cli_usage_reads_help_texts_and_usage_errors(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    outputs = [same_outputs.cli_output(argv) for argv in same_outputs.CLI_USAGE]
    assert same_outputs.os.environ["COLUMNS"] == "200"  # restored after each call
    # the width is pinned to 80 columns, whatever the terminal says
    monkeypatch.setenv("COLUMNS", "40")
    assert [same_outputs.cli_output(argv) for argv in same_outputs.CLI_USAGE] == outputs
    helps = [argv for argv in same_outputs.CLI_USAGE if argv[-1:] == ["--help"]]
    assert len(helps) == 15 and len(outputs) == 24
    for argv, (code, out, err) in zip(same_outputs.CLI_USAGE, outputs):
        if argv in helps:
            prog = " ".join(["k3mod"] + argv[:-1])
            assert code == 0 and err == "" and out.startswith(f"usage: {prog} [-h]"), argv
        else:
            assert code == 2 and out == "" and err.count(" error: ") == 1, argv
    assert "series has a negative\n" in outputs[0][1]  # wrapped at 80 columns


def test_closed_stdout_ends_without_traceback():
    proc = subprocess.Popen([sys.executable, str(ROOT / "tools" / "same_outputs.py"),
                             "--degrees", "1-2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()  # the reader goes away after the first digest
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.stderr.close()
    assert first.startswith(b"verdict ")
    assert err == b"" and code == 1


def test_cli_csv_reads_every_body_call_in_csv():
    from test_cli import _BODY_CALLS
    assert same_outputs.CLI_CSV == [[*argv, "--format", "csv"] for argv in _BODY_CALLS]
    assert {argv[0] for argv in same_outputs.CLI_CSV} == set(same_outputs.cli._COMMANDS)


def test_degree_range_syntax():
    assert same_outputs.parse_degrees("1-400") == range(1, 401)
    assert same_outputs.parse_degrees("7") == range(7, 8)


def test_lattice_reflect_reads_the_l2d_outputs():
    out = same_outputs.lattice_reflect(5)
    assert out["disc"][0] == (10,)
    assert out["sample"]["samples"] == 300 and out["sample"]["counterexamples"] == []
    # h + 5 u1 + u2 has r^2 = -10 and div 1: |det r^perp| = 10 * 10
    assert abs(lt.IntLattice(out["complement"][0]).det) == 100
    assert [r["class"] for r in out["reports"]][:2] == ["minus_in_tilde_O"] * 2
    # criterion 12's runs: 10^4 samples, seed 0, only at its degrees
    big = out["criterion_12"]
    assert (big["samples"], big["reflective"], big["skipped_nonintegral"]) == (10**4, 5, 9995)
    assert big == rf.reflk3_sample_check(5, samples=10**4, seed=0)
    assert "criterion_12" not in same_outputs.lattice_reflect(7)


def test_forms_reads_square_completions_dets_and_signatures(monkeypatch, computed_once):
    computed_once(monkeypatch)
    items = list(same_outputs.forms())
    n_forms = ((len(same_outputs.COUNTS_LATTICES) + len(same_outputs.FORMS_EXTRA))
               * len(same_outputs.COUNTS_SEEDS))
    # L * Q(b_j) = sum_i a_i y_i^2 with y_i = uden_i [i = j] + unum_i[j]
    for expr, seed, (scale, a, unum, uden) in items[:n_forms]:
        g = same_outputs.signed_permutation(expr, seed).gram
        sign = 1 if g[0][0] > 0 else -1
        for j in range(len(g)):
            assert scale * sign * g[j][j] == sum(
                ai * (di * (i == j) + row[j]) ** 2
                for i, (ai, di, row) in enumerate(zip(a, uden, unum))), (expr, seed, j)
    l2d = items[n_forms:n_forms + same_outputs.LATTICE_REFLECT_MAX_D]
    # h + d u1 + u2 has norm -2d, so its complement has signature (2, 18), |det| 4d^2
    assert [(d, det, sig) for d, det, sig, _cd, _cs in l2d][:2] == [(1, -2, (2, 19)),
                                                                  (2, -4, (2, 19))]
    assert all(csig == (2, 18) and abs(cdet) == 4 * d * d for d, _det, _sig, cdet, csig in l2d)
    assert items[n_forms + same_outputs.LATTICE_REFLECT_MAX_D:] == [
        ["U", -1, (1, 1)], ["2U", 1, (2, 2)], ["U(3)+A(2)", -27, (3, 1)],
        ["<-4>+<4>", -16, (1, 1)]]


def test_series_reads_the_theta_series_and_the_inequality_sweep(monkeypatch, computed_once):
    computed_once(monkeypatch)
    items = list(same_outputs.series())
    heads = {name: coeffs[:2] for name, coeffs in items[:6]}
    assert heads == {"E7": [1, 126], "D5": [1, 40], "D6": [1, 60], "D8": [1, 112],
                     "E6": [1, 72], "D6eis": [1, 60]}
    assert all(len(coeffs) == same_outputs.SERIES_PREC + 1 for _name, coeffs in items[:6])
    sweep = items[6:-1]
    assert [d for d, _reps, _mineq, _mineqd in sweep] == list(
        range(1, same_outputs.SERIES_MAX_D + 1))
    assert sweep[0] == [1, [72, 126, 40, 60, 112], False, False]
    # the last degree where either inequality fails is 143
    assert max(d for d, _reps, mineq, mineqd in sweep if not (mineq and mineqd)) == 143
    assert items[-1] == ["pex", se.compute_pex(same_outputs.PEX_MAX_M)]


def test_expressions_read_lattices_and_parse_errors(monkeypatch, computed_once):
    computed_once(monkeypatch)
    items = list(same_outputs.expressions())
    n_bad = len(same_outputs.BAD_EXPRESSIONS) + 3
    good, bad = items[:-n_bad], items[-n_bad:]
    assert len(good) == len(same_outputs.EXPRESSIONS) + same_outputs.EXPRESSIONS_MAX_D + 10
    names = [name for name, *_rest in good]
    assert names[:3] == ["A(1)", "A(2)", "A(3)"] and "2U+2E8(-1)+<-10>" in names
    assert names[-10:] == ["D2", "D3", "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]
    l2d = good[len(same_outputs.EXPRESSIONS):-10]
    assert [(name, det, sig) for name, _gram, det, sig in l2d[:2]] == [("L_2", -2, (2, 19)),
                                                                      ("L_4", -4, (2, 19))]
    # every malformed input is rejected with its message and position
    assert [item[0] for item in bad] == list(same_outputs.BAD_EXPRESSIONS) + [1, 5, 0]
    assert all(item[1] in ("ParseError", "LatticeError") for item in bad)
    assert ["", "ParseError", "expected a lattice atom (at position 0)", 0] in bad
    assert ["U(0)", "ParseError", "scale must be nonzero (at position 4)", 4] in bad


def test_rst_reads_decompositions_sums_and_c_min(monkeypatch, computed_once):
    computed_once(monkeypatch)
    items = list(same_outputs.rst_outputs())
    n_mat = same_outputs.RST_MATRICES + len(same_outputs.RST_EXTRA_BLOCKS)
    ranks = Counter()
    for g, order, mult, report in items[:n_mat]:
        # the multiplicities come in ascending order, and the order is their lcm
        assert [d for d, _v in mult] == sorted(d for d, _v in mult)
        assert sum(v * rst.euler_phi(d) for d, v in mult) == len(g)
        assert report["order"] == order and report["decomposition"] == dict(mult)
        assert report["consistent"]
        ranks[len(g)] += 1
    assert max(ranks) == same_outputs.RST_MAX_RANK and len(ranks) > 10
    assert items[n_mat - 3][1:3] == [2520, [(1, 1), (5, 1), (7, 1), (8, 1), (9, 1)]]
    singular = items[n_mat:n_mat + len(same_outputs.RST_SINGULAR)]
    assert all(out == "matrix is not invertible over Z, so it has no finite order"
               for _g, out in singular)
    assert items[-1] == {"checked": 1078, "min_sum": "10/7", "min_at": (7, 6),
                         "violations": []}
    cmin = items[-1 - (same_outputs.CMIN_MAX_D - 2):-1]
    assert [d for d, _value, _shift in cmin] == list(range(3, same_outputs.CMIN_MAX_D + 1))
    assert cmin[30 - 3] == [30, "46/15", 19]  # c_min(30) = 92/30 at the shift 19


def test_block_companions_and_their_conjugates_have_the_cyclotomic_charpoly():
    g = same_outputs.block_companion((3, 4))
    assert g == [[0, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    h = same_outputs.unimodular_conjugate(g, same_outputs.random.Random(0))
    assert h != g and rst.char_poly(h) == rst.char_poly(g) == [1, 1, 2, 1, 1]


@pytest.fixture(scope="module")
def pinned_digests(computed_once):
    with pytest.MonkeyPatch.context() as mp:
        computed_once(mp)
        return dict(same_outputs.groups(same_outputs.parse_degrees(GOLDEN["degrees"])))


def test_the_output_digests_match_the_pinned_ones(pinned_digests):
    got = {name: value for name, value in pinned_digests.items() if name != "cli-usage"}
    changed = sorted(name for name in got.keys() | GOLDEN["digests"].keys()
                     if got.get(name) != GOLDEN["digests"].get(name))
    assert not changed, (f"groups {changed} differ from tests/golden_digests.json; if the "
                         f"change is meant, regenerate with `{REGENERATE}` and say in "
                         "CHANGES.md which groups changed and why")


def test_the_usage_digest_matches_the_pin_of_this_python(pinned_digests):
    # argparse lays out help texts differently across minor versions (3.13)
    version = f"{sys.version_info[0]}.{sys.version_info[1]}"
    pins = GOLDEN["cli-usage"]
    assert version in pins, (f"no cli-usage digest is pinned for Python {version}: run "
                             f"`python{version} {REGENERATE.partition(' ')[2]}` and add its "
                             "cli-usage line to tests/golden_digests.json")
    assert pinned_digests["cli-usage"] == pins[version], (
        f"cli-usage differs from its Python {version} pin; if meant, regenerate with "
        f"`{REGENERATE}`")


def test_the_verdict_kinds_up_to_61_are_pinned():
    kinds = {}
    for d in range(1, 62):
        kinds.setdefault(se.kodaira_verdict(d).kind, []).append(d)
    assert kinds == GOLDEN["verdict_kinds"]
    assert kinds["general_type"] == [46, 50, 52, 54, 57, 58, 60]


def test_the_inequality_failures_up_to_2000_are_pinned():
    mineq = [d for d in range(1, 2001) if not se.check_mineq(d)]
    mineqd = [d for d in range(1, 2001) if not se.check_mineqd(d)]
    assert (len(mineq), len(mineqd)) == (126, 117)
    assert (mineq, mineqd) == (GOLDEN["mineq_failures"], GOLDEN["mineqd_failures"])
    assert mineq[-1] == mineqd[-1] == 143
