"""The acceptance rule of tools/ab_bench.py, with the bounds of BENCHMARK.json."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)
BOUNDS = {m["name"]: (m["better"], m["bound"])
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.mark.parametrize("name, old, new, tags", [
    ("op_p50_ms", [10, 10, 10], [12.4, 12.5, 12.6], []),
    ("op_p50_ms", [10, 10, 10], [12.6, 12.6, 12.6], ["worse"]),
    ("op_p50_ms", [10, 10, 10], [5, 5, 5], []),
    ("ops_per_s", [10, 10, 10], [7.6, 7.6, 7.6], []),
    ("ops_per_s", [10, 10, 10], [7.4, 7.4, 7.4], ["worse"]),
    ("ops_per_s", [6, 8, 10, 12, 14], [10, 10, 10, 10, 10], ["unresolved"]),
    ("ops_per_s", [6, 8, 10, 12, 14], [5, 5, 5, 5, 5], ["worse", "unresolved"]),
    ("peak_rss_mb", [24, 24, 24], [26.3, 26.3, 26.3], []),
    ("peak_rss_mb", [24, 24, 24], [26.5, 26.5, 26.5], ["worse"]),
    ("ok_frac", [1, 1, 1], [0.94, 0.96, 1], []),
    ("ok_frac", [1, 1, 1], [0.9, 0.94, 1], ["worse"]),
    ("ops_per_s", [6, 8, 10, 12, 14], [15] * 5, []),
])
def test_acceptance_rule(name, old, new, tags):
    direction, bound = BOUNDS[name]
    assert ab_bench.verdict(old, new, direction, bound) == tags


def test_run_once_reads_the_attempted_op_count(monkeypatch, tmp_path):
    last = {"correct": True, "attempted": 488, "failed": 0,
            "metrics": {"ops_per_s": {"value": 51.3}, "peak_rss_mb": {"value": 24.45}}}

    class Done:
        returncode = 0
        stdout = "progress\n" + json.dumps(last) + "\n"

    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *_a, **_k: Done())
    assert ab_bench.run_once(tmp_path, "verdict-low", 1, 10) \
        == ({"ops_per_s": 51.3, "peak_rss_mb": 24.45}, True, 488)


def test_run_once_compiles_every_module_from_source(monkeypatch, tmp_path):
    caches = [tmp_path / "src" / "k3mod" / "__pycache__", tmp_path / "perfbench" / "__pycache__"]
    kept = tmp_path / "tools" / "__pycache__"
    for cache in caches + [kept]:
        cache.mkdir(parents=True)
        (cache / "cli.cpython-311.pyc").write_bytes(b"")
    calls = []

    class Done:
        returncode = 0
        stdout = json.dumps({"correct": True, "attempted": 1, "metrics": {}}) + "\n"

    def fake_run(argv, **kwargs):
        calls.append((argv, kwargs, [c.exists() for c in caches]))
        return Done()

    monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
    ab_bench.run_once(tmp_path, "reflect-disc", 1, 10)
    # one process, run.py, started with no bytecode under src or perfbench
    [(argv, kwargs, exist)] = calls
    assert argv[1] == "perfbench/run.py" and kwargs["cwd"] == tmp_path
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert exist == [False, False] and kept.exists()


def _summary(monkeypatch, capsys, tmp_path, sides):
    """The summary lines of main(), each side's runs given as a list of
    (peak_rss_mb, attempted), one per seed, or as one such pair for one seed."""
    runs = {side: run if isinstance(run, list) else [run] for side, run in sides.items()}

    def fake_run_once(tree, _workload, seed, _seconds):
        mb, ops = runs["change" if tree == ab_bench.HERE else "parent"][seed - 1]
        return {name: 1.0 for name in BOUNDS} | {"peak_rss_mb": mb}, True, ops

    monkeypatch.setattr(ab_bench, "run_once", fake_run_once)
    monkeypatch.setattr(ab_bench.sys, "argv", [
        "ab_bench.py", "--parent", str(tmp_path), "--workload", "verdict-low",
        "--seeds", f"1-{len(runs['parent'])}"])
    assert ab_bench.main() == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[lines.index("") + 2:]


def test_the_memory_line_gives_the_cost_per_extra_op(monkeypatch, capsys, tmp_path):
    # 28.27 -> 29.76 MB at 2,196 -> 3,233 ops: 1.49 MB over 1,037 ops, and
    # the 0.1 bound, 2.827 MB above the parent, at 1 + 2.827 / 1.49 * 1037 / 2196
    lines = _summary(monkeypatch, capsys, tmp_path,
                     {"parent": (28.27, 2196), "change": (29.76, 3233)})
    assert lines[0].startswith("attempted") and "2196 ->" in lines[0]
    assert lines[1] == ("memory       1.47 KB of peak_rss_mb per extra op; at that rate "
                        "the 0.1 bound is reached at 1.9x the parent's ops")


@pytest.mark.parametrize("parent, change", [
    ((28.27, 2196), (29.76, 2196)),  # the same op count
    ((28.27, 2196), (28.0, 3233)),  # memory fell
    ((28.27, 2196), (28.27, 3233)),  # memory flat
    ((28.27, 2196), (29.76, 1500)),  # fewer ops, more memory
    # 3,446.5 -> 3,477 ops and +0.09 MB in the medians, 3.02 KB per extra op,
    # but the change's 28.15 MB lies inside the parent's [27.975, 28.19]
    ([(27.90, 3440), (28.00, 3445), (28.12, 3448), (28.40, 3450)],
     [(28.10, 3470), (28.14, 3475), (28.16, 3479), (28.20, 3480)]),
])
def test_the_memory_line_reads_n_a_without_a_rise_in_both(monkeypatch, capsys, tmp_path,
                                                          parent, change):
    lines = _summary(monkeypatch, capsys, tmp_path, {"parent": parent, "change": change})
    assert lines[1] == "memory       n/a"

