"""Seeded end-to-end benchmark of hassewitt, with per-layer tracing.

    python3 bench/run.py --workload forms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src/``.  For
each workload the benchmark

1. generates a corpus from the seed, sized to about ``--seconds`` of work
   at the reference rate, with every answer known by construction;
2. times set-up (spawn a fresh interpreter, import hassewitt, load the
   corpus) several times and keeps the median;
3. runs the corpus once in a fresh client process, a single closed-loop
   caller with a per-request time limit and a cold factorization cache;
4. checks every report against the known answer, checks that
   ``hassewitt batch`` writes the same bytes for a prefix of the corpus,
   and runs the known-defect probes;
5. with ``--trace 1``, runs the same corpus again in a fresh traced
   process and reports per-layer calls and self time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
describe the run for people.  Artifacts go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import corpus
import tracing

BENCH_DIR = Path(__file__).resolve().parent

# Requests per second of the seed commit on the reference machine; the
# corpus holds seconds * rate requests (at least MIN_REQUESTS), so a run
# measures about --seconds at that commit and the same requests after it.
REFERENCE_RATE = {"forms": 190, "fields": 250, "symbols": 2400, "splitting": 110}
MIN_REQUESTS = 1000
SETUP_SAMPLES = 15
REQUEST_LIMIT_S = 2.0
PROBE_LIMIT_S = 1.0
SETUP_LIMIT_S = 30.0
BATCH_CHECK_REQUESTS = 100
COMMANDS = ("hilbert", "form-invariants", "form-isometric", "tracefield", "embedding", "jehanne",
            "hypersurface", "delta", corpus.SPLIT_COMMAND)

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_names() -> list[str]:
    names = []
    for span in tracing.span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{module}.self_s" for module in tracing.LAYERS]
    names.append("arith.factor.distinct_ratio")
    names += [f"cli.{command}.p50_ms" for command in COMMANDS]
    names.append("trace.overhead_ratio")
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio"


class BenchError(RuntimeError):
    pass


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("HASSEWITT_FACTOR_LIMIT", None)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _client_cmd(*args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "client.py"), *args]


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"client did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"client exited with code {proc.returncode}")


def _spawn_until_ready(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a client and return it with the seconds until it said ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=env, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], SETUP_LIMIT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise BenchError("client failed during set-up")
    return proc, ready


def _setup_time(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """_spawn_until_ready with the time scaled to the reference host speed,
    calibrated in this process just before and after."""
    before = calibration.measure()
    proc, ready = _spawn_until_ready(args, env)
    factor = (before + calibration.measure()) / (2 * calibration.REFERENCE_NS)
    return proc, ready / factor


def _scaled(run: dict) -> dict:
    """Latencies and wall time of a client run at the reference speed: each
    interval between two calibrations is divided by their mean slowdown."""
    cal = run["calibration_ns"]
    factors = [(cal[k] + cal[k + 1]) / (2 * calibration.REFERENCE_NS) for k in range(len(run["segments"]))]
    raw_wall = sum(wall for _, wall in run["segments"])
    wall = sum(w / f for (_, w), f in zip(run["segments"], factors))
    latencies = [lat / factors[k] for lat, k in zip(run["latency_ns"], run["segment_of"])]
    return {"wall_ns": wall, "raw_wall_ns": raw_wall, "latency_ns": latencies}


def _run_client(args: list[str], env: dict, timeout: float) -> tuple[float, dict]:
    proc, ready = _setup_time(args, env)
    try:
        _wait(proc, timeout)
    finally:
        proc.stdout.close()
    out = args[args.index("--out") + 1]
    with open(out + ".json", encoding="utf-8") as f:
        return ready, json.load(f)


def _percentile_ms(values_ns: list[int], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    ordered = sorted(values_ns)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] / 1e6


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool, log) -> dict:
    work = root / ".bench_out" / f"{workload}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    count = max(MIN_REQUESTS, seconds * REFERENCE_RATE[workload])
    items = corpus.generate(workload, seed, count)
    requests = work / "requests.jsonl"
    requests.write_bytes(corpus.corpus_bytes(items))
    env = _child_env(root)
    budget = 3 * seconds + 60

    # set-up: the first spawn compiles bytecode and is not counted
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, ready = _setup_time(_client_cmd("--corpus", str(requests), "--setup-only"), env)
        _wait(proc, 60)
        proc.stdout.close()
        setups.append(ready)
    setups = setups[1:]

    reports_path = work / "reports.jsonl"
    timed_args = _client_cmd("--corpus", str(requests), "--out", str(reports_path),
                             "--limit-s", str(REQUEST_LIMIT_S), "--max-s", str(3 * seconds))
    ready, run = _run_client(timed_args, env, budget)
    setups.append(ready)
    report_lines = reports_path.read_text(encoding="utf-8").splitlines()

    attempted = len(run["latency_ns"])
    wrong = []
    failed = 0
    for item, line in zip(items, report_lines):
        report = json.loads(line)
        reason = corpus.check(item, report)
        if reason is not None:
            failed += 1
            if report.get("status") == "ok":
                wrong.append(f"{item.request['id']}: {reason}")
    timing = _scaled(run)
    metrics = {
        "requests_per_s": (attempted - failed) / (timing["wall_ns"] / 1e9),
        "latency_p50_ms": _percentile_ms(timing["latency_ns"], 0.50),
        "latency_p99_ms": _percentile_ms(timing["latency_ns"], 0.99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    correct = not wrong

    # batch mode must write the bytes the benchmark's client wrote
    batch_same = None
    if workload != "splitting":
        prefix = work / "batch_in.jsonl"
        prefix.write_bytes(corpus.corpus_bytes(items[:BATCH_CHECK_REQUESTS]))
        batch_out = work / "batch_out.jsonl"
        subprocess.run([sys.executable, "-m", "hassewitt", "batch", "--in", str(prefix), "--out", str(batch_out)],
                       env=env, check=True, timeout=budget)
        batch_same = batch_out.read_text(encoding="utf-8").splitlines() == report_lines[:BATCH_CHECK_REQUESTS]
        correct = correct and batch_same

    defects = {}
    probes = corpus.defect_probes(workload, seed)
    if probes:
        probe_in = work / "probes.jsonl"
        probe_in.write_bytes(corpus.corpus_bytes(probes))
        probe_out = work / "probes_out.jsonl"
        _run_client(_client_cmd("--corpus", str(probe_in), "--out", str(probe_out),
                                "--limit-s", str(PROBE_LIMIT_S)), env, budget)
        for item, line in zip(probes, probe_out.read_text(encoding="utf-8").splitlines()):
            report = json.loads(line)
            state = "fixed" if corpus.probe_fixed(item, report) else "present"
            defects[item.request["id"]] = f"{state} (status {report['status']})"

    layers = None
    if trace:
        traced_path = work / "reports_traced.jsonl"
        traced_args = _client_cmd("--corpus", str(requests), "--out", str(traced_path), "--trace",
                                  "--limit-s", str(REQUEST_LIMIT_S), "--count", str(attempted),
                                  "--max-s", str(3 * seconds))
        _, traced = _run_client(traced_args, env, budget)
        traced_lines = traced_path.read_text(encoding="utf-8").splitlines()
        if traced_lines != report_lines[: len(traced_lines)]:
            correct = False
            log("traced reports differ from untraced ones")
        layers = _layer_metrics(traced, run)

    raw = {
        "requests_per_s": (attempted - failed) / (timing["raw_wall_ns"] / 1e9),
        "latency_p50_ms": _percentile_ms(run["latency_ns"], 0.50),
        "latency_p99_ms": _percentile_ms(run["latency_ns"], 0.99),
        "host_slowdown": timing["raw_wall_ns"] / timing["wall_ns"],
    }
    result = {
        "workload": workload,
        "seed": seed,
        "requests": attempted,
        "python": run["python"],
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "statuses": run["statuses"],
        "failed_share": failed / attempted,
        "wrong": wrong[:20],
        "batch_bytes_equal": batch_same,
        "known_defects": defects,
        "correct": correct,
        "failed": failed,
        "end_to_end": metrics,
        "raw_wall_clock": raw,
        "per_layer": layers,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _layer_metrics(traced: dict, run: dict) -> dict:
    trace = traced["trace"]
    traced_timing, timing = _scaled(traced), _scaled(run)
    slowdown = traced_timing["raw_wall_ns"] / traced_timing["wall_ns"]
    out = {}
    module_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for span in tracing.span_names():
        self_s = trace["self_ns"][span] / slowdown / 1e9
        out[f"{span}.calls"] = trace["calls"][span]
        out[f"{span}.self_s"] = self_s
        module_self[span.split(".")[0]] += self_s
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value
    calls = trace["factor_calls"]
    out["arith.factor.distinct_ratio"] = trace["factor_distinct"] / calls if calls else 0.0
    by_command: dict[str, list[int]] = {}
    for command, latency in zip(run["commands"], timing["latency_ns"]):
        by_command.setdefault(command, []).append(latency)
    for command in COMMANDS:
        latencies = by_command.get(command)
        out[f"cli.{command}.p50_ms"] = _percentile_ms(latencies, 0.5) if latencies else 0.0
    common = len(traced_timing["latency_ns"])
    out["trace.overhead_ratio"] = sum(traced_timing["latency_ns"]) / sum(timing["latency_ns"][:common])
    return out


def _describe(result: dict, log) -> None:
    log(f"workload {result['workload']}  seed {result['seed']}  requests {result['requests']}  "
        f"python {result['python']}  git {result['git_sha'][:12]}  nproc {result['nproc']}")
    for name, value in result["end_to_end"].items():
        log(f"  {name:<16} {value:12.4f} {END_TO_END_UNITS[name]}")
    log(f"  {'failed_share':<16} {result['failed_share']:12.4f} ratio   statuses {result['statuses']}")
    log("  raw wall clock: " + "  ".join(f"{k} {v:.4f}" for k, v in result["raw_wall_clock"].items()))
    log(f"  correct {result['correct']}  batch bytes equal {result['batch_bytes_equal']}")
    for probe, state in result["known_defects"].items():
        log(f"  known defect {probe}: {state}")
    for line in result["wrong"]:
        log(f"  WRONG {line}")
    if result["per_layer"]:
        for name, value in result["per_layer"].items():
            log(f"  {name:<44} {value:14.6f} {per_layer_unit(name)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hassewitt" / "__init__.py").is_file():
        print("error: run from the repository root (src/hassewitt not found)", file=sys.stderr)
        return 2

    def log(text: str) -> None:
        print(text, flush=True)

    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            result = run_workload(root, workload, args.seed, args.seconds, bool(args.trace), log)
            _describe(result, log)
            results.append(result)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def metrics_of(result: dict, prefix: str) -> dict:
        values = result["per_layer"] if args.trace else result["end_to_end"]
        unit = per_layer_unit if args.trace else END_TO_END_UNITS.get
        return {prefix + name: {"value": value, "unit": unit(name)} for name, value in values.items()}

    metrics: dict = {}
    for result in results:
        metrics.update(metrics_of(result, "" if len(results) == 1 else f"{result['workload']}."))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["requests"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
