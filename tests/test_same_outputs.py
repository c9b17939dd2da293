"""tools/same_outputs.py on a tiny degree range."""
import hashlib
import importlib.util
import json
from pathlib import Path

from k3mod import lattice as lt
from k3mod import qseries as qs
from k3mod import reflective as rf
from k3mod import search as se

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_one_digest_per_group(capsys):
    same_outputs.main(["--degrees", "40-41"])
    lines = capsys.readouterr().out.splitlines()
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    names = [line.split()[0] for line in lines]
    assert names == (["verdict"] + [f"search-{c}" for c in se.CASES]
                     + ["tuples", "orbit-scan", "lattice-reflect", "counts", "histograms", "forms",
                        "expressions", "series", "cli-tables", "cli-usage"]
                     + [f"cli-{w}" for w in golden])
    digests = dict(line.split() for line in lines)
    want = hashlib.sha256()
    for d in (40, 41):
        want.update(json.dumps(se.kodaira_verdict(d).to_dict(), sort_keys=True).encode()
                    + b"\n")
    assert digests["verdict"] == want.hexdigest()
    assert digests["tuples"] == same_outputs.digest(
        [case, d, [list(ms) for ms in se.iter_case_tuples(case, d)]]
        for case in se.CASES for d in (40, 41))
    assert digests["orbit-scan"] == same_outputs.digest(
        se._enumerate_dominant(2 * d) for d in (40, 41))
    assert digests["lattice-reflect"] == same_outputs.digest(
        same_outputs.lattice_reflect(d) for d in (40, 41))
    assert digests["counts"] == same_outputs.digest(same_outputs.counts())
    assert digests["histograms"] == same_outputs.digest(same_outputs.histograms())
    assert digests["forms"] == same_outputs.digest(same_outputs.forms())
    assert digests["expressions"] == same_outputs.digest(same_outputs.expressions())
    assert digests["series"] == same_outputs.digest(same_outputs.series())
    assert digests["cli-usage"] == same_outputs.digest(
        same_outputs.cli_output(argv) for argv in same_outputs.CLI_USAGE)
    # the in-process calls give the recorded stdout with exit code 0
    for workload, calls in golden.items():
        assert digests[f"cli-{workload}"] == same_outputs.digest(
            (0, c["stdout"]) for c in calls), workload


def test_counts_reads_histograms_and_brute_representation_numbers():
    items = list(same_outputs.counts())
    n_hist = len(same_outputs.COUNTS_LATTICES) * len(same_outputs.COUNTS_SEEDS)
    e8 = [hist for expr, _seed, hist in items[:n_hist] if expr == "E8"]
    assert e8 and all(hist[:5] == [1, 0, 240, 0, 2160] and len(hist) == 17 for hist in e8)
    reps = items[n_hist:]
    assert len(reps) == sum(hi - lo + 1 for lo, hi in same_outputs.REP_RANGES.values())
    for name, norm, n in reps:
        assert n == qs.rep_num(name, norm)


def test_histograms_read_norm_counts_at_large_tops():
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


def test_forms_reads_square_completions_dets_and_signatures():
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


def test_series_reads_the_theta_series_and_the_inequality_sweep():
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


def test_expressions_read_lattices_and_parse_errors():
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
