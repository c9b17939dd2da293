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
