"""Benchmark for k3mod: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from any directory; the program is imported from `src/` next to
`perfbench/`, and nothing needs building.  One process runs the workload:
it makes the inputs from the seed, fills the lazy state untimed, then runs
whole passes of ops (see workloads.py) until at least S seconds of passes
have elapsed, and checks every output against its reference afterwards.
Set-up and CLI costs are measured in fresh processes, one after another,
between the ops of the first S seconds (see run_batch).

Every time below is a wall time scaled to a nominal machine speed by a
reference loop timed before every op on its CPU (speed.py); a probe takes
the scale of the op it follows.  The raw wall times are in the result file
too.  --trace 0 prints the end-to-end metrics:
  ops_per_s     ops in the timed passes divided by the sum of their latencies
  op_p50_ms     median per-op latency, as the Harrell-Davis estimate
                (hd_median); the sample median is in the result file
  op_tail_ms    per-op latency at the highest percentile with at least ten
                samples beyond it (percentile and count in the result file)
  setup_s       median over 9 fresh processes of `import k3mod` plus the
                lazy state the workload's first op fills (probe.py setup)
  cli_ms        median over 9 rounds of the mean wall time of the workload's
                fixed `k3mod ...` calls, each in a fresh process; stdout must
                equal golden.json byte for byte
  peak_rss_mb   peak resident memory of this process
  ok_frac       ops that returned a correct answer / ops attempted
--trace 1 runs the same passes with every public k3mod function wrapped
(tracing.py), replays the same ops untraced in a fresh process to measure
the tracing overhead and compare outputs, and prints the per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`failed` counts ops that raised or disagreed with their reference;
`correct` is false when any op failed, a CLI call's stdout changed, or the
traced outputs differ from the untraced ones.  The workloads' ops all
succeed on the seed program, so an op that raises is a regression; the
inputs the program is known to fail on run outside the timed ops.  The
result file,
perfbench/results/<workload>-seed<N>-trace<T>.json, lists failed ops by
input, deviations from the paper's stated results, the outcome of the
known-defect inputs (workloads.known_defects), the provenance and the raw
samples.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RESULTS = HERE / "results"
WORKLOADS = ("verdict-low", "verdict-high", "lattice-enum", "reflect-disc")
HARD_CAP_S = 75      # stop starting ops after this; a traced run has two batches
REF_EVERY_S = 0.2    # one more reference sample per this much op latency

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s",
             "cli_ms": "ms", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _load_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import k3mod
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import k3mod from {ROOT / 'src'}: {exc}")
    where = Path(k3mod.__file__).resolve().parent
    if where != (ROOT / "src" / "k3mod").resolve():
        sys.exit(f"perfbench: k3mod was imported from {where}, not from {ROOT / 'src'}")


# ---------------------------------------------------------------------------
# the timed batch
# ---------------------------------------------------------------------------

def _pin(cpus):
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:  # affinity is not ours to set here; run unpinned
        pass


def run_batch(workloads, name, seed, seconds, tiny, tracer=None, limit=None, probes=()):
    """Whole passes until `seconds` of pass time (or `limit` ops) are done.

    On a shared virtual machine the CPU speed can drift by tens of percent
    within seconds, partly independently per CPU.  So the ops take turns on
    the allowed CPUs, and the fresh-process `probes` run between ops, spread
    over the first `seconds` of pass time with the pass clock stopped, so
    that they see the same conditions as the ops; each is called with the
    index of the op it follows.  Probes left over run after the batch.

    Before each op, with the pass clock stopped, the reference loop is timed
    on the op's CPU: once, plus once per REF_EVERY_S of the previous op's
    latency, so that the samples spread over the run in proportion to time.

    Returns ([(op, out, error, latency, cpu time, reference samples, cpu)],
    wall seconds, truncated)."""
    cpus = sorted(os.sched_getaffinity(0))
    pending = list(probes)
    try:
        result = _run_passes(workloads.passes(name, seed, tiny), seconds, tracer, limit, cpus,
                             pending, len(pending))
    finally:
        _pin(cpus)
    while pending:
        pending.pop(0)(len(result[0]) - 1)
    return result


def _run_passes(passes, seconds, tracer, limit, cpus, pending, n_probes):
    records, wall, start, last = [], 0.0, perf_counter(), 0.0
    for ops in passes:
        t_pass = perf_counter()
        for op in ops:
            cpu = cpus[len(records) % len(cpus)]
            _pin({cpu})
            t_ref = perf_counter()
            ref = [speed.sample() for _ in range(1 + int(last / REF_EVERY_S))]
            t_pass += perf_counter() - t_ref
            if tracer is not None:
                span = tracer.open("bench.op")
                tracer.active = True
            c0, t0 = process_time(), perf_counter()
            try:
                out, err = op.fn(), None
            except Exception as exc:  # a raising op is a failed op, listed by input
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1, c1 = perf_counter(), process_time()
            if tracer is not None:
                tracer.active = False
                tracer.close(span)
            last = t1 - t0
            records.append((op, out, err, last, c1 - c0, ref, cpu))
            if pending and wall + t1 - t_pass >= seconds * (n_probes - len(pending)) / n_probes:
                t_probe = perf_counter()
                pending.pop(0)(len(records) - 1)
                t_pass += perf_counter() - t_probe
            if limit is not None and len(records) >= limit:
                return records, wall + perf_counter() - t_pass, False
            if t1 - start > HARD_CAP_S:
                return records, wall + perf_counter() - t_pass, True
        wall += perf_counter() - t_pass
        if limit is None and wall >= seconds:
            return records, wall, False


def verify(records):
    """(status, detail, digest) per record; status ok/wrong/deviation/raised."""
    out = []
    for op, result, err, *_ in records:
        if err is not None:
            out.append(("raised", err, "raised " + err))
            continue
        try:
            out.append(op.check(result))
        except Exception as exc:  # a malformed result is a wrong answer
            out.append(("wrong", f"check failed: {type(exc).__name__}: {exc}", repr(exc)))
    return out


def known_defects(workloads, name):
    """Run the workload's known-defect inputs once, untimed; each entry says
    whether the program still fails on it."""
    out = []
    for op in workloads.known_defects(name):
        try:
            result, err = op.fn(), None
        except Exception as exc:  # the defect being reported
            result, err = None, f"{type(exc).__name__}: {exc}"
        (status, detail, _d), = verify([(op, result, err)])
        out.append({"input": op.label, "status": status, "detail": detail})
        if status != "ok":
            print(f"known defect still present: {json.dumps(op.label)}: {detail}",
                  file=sys.stderr)
    return out


def summarize(records):
    """Checks, failed-op count, and failed ops and deviations grouped by input."""
    checks = verify(records)
    failed, deviations = {}, {}
    for (op, *_), (status, detail, _d) in zip(records, checks):
        if status in ("wrong", "raised", "deviation"):
            bucket = deviations if status == "deviation" else failed
            key = json.dumps(op.label, sort_keys=True)
            entry = bucket.setdefault(key, {"input": op.label, "status": status,
                                            "detail": detail, "count": 0})
            entry["count"] += 1
    n_failed = sum(1 for c in checks if c[0] in ("wrong", "raised"))
    return checks, n_failed, list(failed.values()), list(deviations.values())


# ---------------------------------------------------------------------------
# fresh-process measurements
# ---------------------------------------------------------------------------

# Timed child processes get no `timeout=`: with one, subprocess polls for the
# exit in sleeps of up to 50 ms, which quantizes the measured wall time.

def run_setup(name, arg):
    """One fresh set-up probe process."""
    subprocess.run([sys.executable, str(HERE / "probe.py"), "setup", name, arg],
                   env=_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def _golden(name):
    return json.loads((HERE / "golden.json").read_text())[name]


def run_cli(name, mismatches):
    """One round of the workload's fixed CLI calls; stdout mismatches are appended."""
    for entry in _golden(name):
        p = subprocess.run([sys.executable, "-m", "k3mod.cli", *entry["argv"]],
                           env=_env(), cwd=ROOT, capture_output=True)
        if p.returncode or p.stdout != entry["stdout"].encode():
            mismatches.append({"argv": entry["argv"], "code": p.returncode,
                               "stdout": p.stdout.decode(errors="replace")[:400]})


def traced_cli(name, rounds):
    """cli-layer self time per call (ms) from probe.py cli, and stdout mismatches."""
    selfs, mismatches = [], []
    for _ in range(rounds):
        for entry in _golden(name):
            p = subprocess.run([sys.executable, str(HERE / "probe.py"), "cli", *entry["argv"]],
                               env=_env(), cwd=ROOT, capture_output=True, timeout=120)
            tail = p.stderr.decode().strip().splitlines()[-1:] or [""]
            if p.returncode or not tail[0].startswith("PERFBENCH "):
                mismatches.append({"argv": entry["argv"], "code": p.returncode})
                continue
            info = json.loads(tail[0][len("PERFBENCH "):])
            selfs.append(info["cli_self_ms"])
            if info["code"] or p.stdout != entry["stdout"].encode():
                mismatches.append({"argv": entry["argv"], "code": info["code"]})
    return selfs, mismatches


def import_ms(rounds):
    """Median fresh `import k3mod.cli` minus median bare interpreter start, in ms."""
    bare, full = [], []
    for _ in range(rounds):
        for code, sink in (("pass", bare), ("import k3mod.cli", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True)
            sink.append(perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1e3, bare, full


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------

def provenance(args):
    git_sha = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True)
        git_sha = p.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "k3mod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "platform": platform.platform(),
            "numpy": numpy, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}


def emit(args, correct, attempted, failed, metrics, units, extra):
    RESULTS.mkdir(exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"provenance": provenance(args), "result": result, **extra}
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for entry in extra.get("failed_ops", []):
        print(f"failed: {json.dumps(entry['input'])}: {entry['detail']}", file=sys.stderr)
    for entry in extra.get("deviations", []):
        print(f"deviation: {json.dumps(entry['input'])}: {entry['detail']}", file=sys.stderr)
    print(f"result file: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))


def hd_median(values):
    """Harrell-Davis estimate of the median: the mean of the order statistics
    weighted by the Beta((n+1)/2, (n+1)/2) probability of each slice
    [(i-1)/n, i/n].  Where the samples near the middle lie far apart, it
    moves smoothly with them instead of jumping between neighbours."""
    xs = sorted(values)
    n, steps = len(xs), 64
    a = (n - 1) / 2
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp(a * math.log(4 * t * (1 - t))) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_latency(lat):
    """Value at the highest percentile with at least ten samples beyond it."""
    lat = sorted(lat)
    k = len(lat) - 10 if len(lat) > 10 else len(lat)
    return lat[k - 1], 100.0 * k / len(lat)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(args, workloads, probe):
    arg = workloads.setup_arg(args.workload, args.seed)
    setup, cli_rounds, cli_bad = [], [], []
    n_calls = len(_golden(args.workload))

    def setup_probe(after):
        t0 = perf_counter()
        run_setup(args.workload, arg)
        setup.append((perf_counter() - t0, after))

    def cli_probe(after):
        t0 = perf_counter()
        run_cli(args.workload, cli_bad)
        cli_rounds.append(((perf_counter() - t0) / n_calls, after))

    n_setup, n_cli = (1, 1) if args.tiny else (9, 9)
    plan = sorted([(i / n_setup, setup_probe) for i in range(n_setup)]
                  + [((j + 0.5) / n_cli, cli_probe) for j in range(n_cli)], key=lambda t: t[0])
    probe.warm(args.workload, arg)
    records, wall, truncated = run_batch(workloads, args.workload, args.seed, args.seconds,
                                         args.tiny, probes=[fn for _pos, fn in plan])
    checks, n_failed, failed_ops, deviations = summarize(records)
    lat = [r[3] for r in records]
    scale = speed.scales([r[5] for r in records], [r[6] for r in records])

    def times(op_lat, setup_s, cli_s):
        tail, _pct = tail_latency(op_lat)
        return {"ops_per_s": len(op_lat) / sum(op_lat),
                "op_p50_ms": hd_median(op_lat) * 1e3, "op_tail_ms": tail * 1e3,
                "setup_s": statistics.median(setup_s), "cli_ms": statistics.median(cli_s) * 1e3}

    metrics = times([t * k for t, k in zip(lat, scale)], [t * scale[i] for t, i in setup],
                    [t * scale[i] for t, i in cli_rounds])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_frac"] = (len(records) - n_failed) / len(records)
    correct = not cli_bad and n_failed == 0
    extra = {"op_tail": {"percentile": tail_latency(lat)[1], "samples": len(lat)},
             "op_sample_median_ms": statistics.median(t * k for t, k in zip(lat, scale)) * 1e3,
             "unscaled_wall": times(lat, [t for t, _i in setup], [t for t, _i in cli_rounds]),
             "batch_wall_s": wall, "truncated": truncated,
             "failed_ops": failed_ops, "deviations": deviations, "cli_mismatches": cli_bad,
             "known_defects": known_defects(workloads, args.workload),
             "samples": {"op_latency_s": lat, "op_cpu_s": [r[4] for r in records],
                         "reference_s": [r[5] for r in records], "cpu": [r[6] for r in records],
                         "op_scale": scale, "setup_s_after_op": setup,
                         "cli_call_mean_s_after_op": cli_rounds,
                         "op_inputs": [r[0].label for r in records]}}
    emit(args, correct, len(records), n_failed, metrics, E2E_UNITS, extra)


def traced(args, workloads, probe, tracing):
    tracer = tracing.Tracer()
    tracer.install()
    span = tracer.open("bench.setup")
    tracer.active = True
    probe.warm(args.workload, workloads.setup_arg(args.workload, args.seed))
    tracer.active = False
    tracer.close(span)
    records, wall, truncated = run_batch(workloads, args.workload, args.seed, args.seconds,
                                         args.tiny, tracer=tracer)
    checks, n_failed, failed_ops, deviations = summarize(records)

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--replay", str(len(records))] + (["--tiny"] if args.tiny else [])
    p = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=170,
                       check=True)
    replay = json.loads(p.stdout.strip().splitlines()[-1])
    same_outputs = replay["digests"] == [c[2] for c in checks]

    ops = {i for i, sp in enumerate(tracer.spans) if sp[0] == "bench.op"}
    attributed = sum(sp[2] - sp[1] for sp in tracer.spans if sp[3] in ops)
    reps = 1 if args.tiny else 3
    cli_selfs, cli_bad = traced_cli(args.workload, reps)
    imp, bare, full = import_ms(1 if args.tiny else 5)

    metrics = tracing.layer_metrics(tracer)
    metrics.update({
        "cli.import_ms": imp,
        "cli.run.self_ms": statistics.median(cli_selfs) if cli_selfs else 0.0,
        "trace.traced_s": wall,
        "trace.untraced_s": replay["wall"],
        "trace.overhead_frac": wall / replay["wall"] - 1,
        "trace.unattributed_s": wall - attributed,
    })
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
    tracer.write(spans_path)
    correct = same_outputs and not cli_bad and n_failed == 0
    extra = {"batch_wall_s": wall, "truncated": truncated, "outputs_match_untraced": same_outputs,
             "failed_ops": failed_ops, "deviations": deviations, "cli_mismatches": cli_bad,
             "known_defects": known_defects(workloads, args.workload),
             "spans_file": str(spans_path.relative_to(ROOT)),
             "samples": {"cli_self_ms": cli_selfs, "bare_start_s": bare, "import_cli_s": full,
                         "op_inputs": [r[0].label for r in records]}}
    emit(args, correct, len(records), n_failed, metrics, tracing.LAYER_UNITS, extra)


def replay(args, workloads, probe):
    """Untraced run of exactly --replay ops, for the traced run's comparison."""
    probe.warm(args.workload, workloads.setup_arg(args.workload, args.seed))
    records, wall, _t = run_batch(workloads, args.workload, args.seed, 0, args.tiny,
                                  limit=args.replay)
    print(json.dumps({"wall": wall, "digests": [c[2] for c in verify(records)]}))


# ---------------------------------------------------------------------------
# smoke test of the benchmark itself
# ---------------------------------------------------------------------------

def smoke():
    """Tiny inputs of every workload, both modes; every metric named in
    BENCHMARK.json must be emitted with its unit, and nothing else."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "0", "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{w['name']} --trace {trace}"
            if p.returncode:
                problems.append(f"{where}: exit {p.returncode}: {p.stderr[-500:]}")
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"} or res["attempted"] < 1:
                problems.append(f"{where}: malformed result {res}")
                continue
            if not res["correct"]:
                problems.append(f"{where}: outputs disagree with their references")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                diff = set(got.items()) ^ set(want[trace].items())
                problems.append(f"{where}: metric names/units differ: {sorted(diff)}")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{where}: non-numeric metric value")
            print(f"smoke {where}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
    for line in problems:
        print("SMOKE FAILURE " + line, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (used by --smoke)")
    ap.add_argument("--smoke", action="store_true", help="check every workload's metrics")
    ap.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    _load_program()
    import probe
    import tracing
    import workloads

    if args.replay is not None:
        replay(args, workloads, probe)
    elif args.trace:
        traced(args, workloads, probe, tracing)
    else:
        end_to_end(args, workloads, probe)
    return 0


if __name__ == "__main__":
    sys.exit(main())
