"""One benchmark client: a fresh interpreter acting as a closed-loop caller.

Run by ``run.py``, never imported by it.  The client imports hassewitt,
loads a request corpus, prints ``ready`` (the end of set-up), then sends
one request at a time through the same public ``hassewitt.cli`` calls
that ``hassewitt batch`` makes (``execute`` -> ``make_report`` ->
``dump_report``), waiting for each reply before the next.  The splitting
workload's requests have no CLI command; they call ``factor_pattern_mod_p``
directly.

A per-request time limit is enforced with ``SIGALRM``: the interrupted
request is reported with status ``timeout``.  Reports go to ``--out`` one
line each, exactly as batch mode writes them, and the run summary
(latencies, host speed calibrations, peak RSS, optional trace) to
``--out`` + ``.json``.  Every 0.1 s, between requests, the client runs the
calibration kernel; the parent scales each interval's times by it.

    python3 bench/client.py --corpus REQUESTS.jsonl --out REPORTS.jsonl [--trace]
"""

import argparse
import json
import resource
import signal
import sys
import time

import calibration

# Package functions are called through their modules, so that the tracer's
# rebinding of module attributes sees these calls too.
from hassewitt import cli, numberfield
from hassewitt.errors import DomainError

CLIInputError = cli.CLIInputError

SPLIT_COMMAND = "factor-pattern"  # corpus.SPLIT_COMMAND; not imported, to keep set-up lean
CALIBRATE_EVERY_NS = 100_000_000


class RequestTimeout(BaseException):
    """Raised by the alarm; a BaseException so no library handler eats it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def _run_split(params: dict):
    if not isinstance(params, dict):
        raise CLIInputError("parameters must be an object")
    algebra = numberfield.EtaleAlgebra(cli.parse_poly(params.get("poly")))
    pattern = numberfield.factor_pattern_mod_p(algebra, cli.parse_int(params.get("p")))
    return {"pattern": [list(pair) for pair in pattern]}, ()


def handle(line: str) -> dict:
    """One request line to one report, mirroring batch mode's handling."""
    req_id = None
    command = None
    inputs: dict = {}
    try:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CLIInputError(f"malformed JSON: {exc}")
        if not isinstance(request, dict):
            raise CLIInputError("request must be an object")
        req_id = request.get("id")
        command = request.get("command")
        params = request.get("parameters", {})
        if not isinstance(command, str):
            raise CLIInputError("request needs a 'command' string")
        inputs = params if isinstance(params, dict) else {}
        if command == SPLIT_COMMAND:
            outputs, assumptions = _run_split(params)
        else:
            outputs, assumptions = cli.execute(command, params)
        return cli.make_report(req_id, command, inputs, outputs, assumptions)
    except (CLIInputError, DomainError) as exc:
        return cli.make_report(req_id, command, inputs, status="input_error", error=str(exc))
    except Exception as exc:  # noqa: BLE001 - one bad request must not end the run
        return cli.make_report(req_id, command, inputs, status="internal_error", error=str(exc))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--out")
    ap.add_argument("--limit-s", type=float, default=2.0, help="per-request time limit")
    ap.add_argument("--max-s", type=float, default=120.0, help="stop sending after this long")
    ap.add_argument("--count", type=int, default=0, help="send only the first COUNT requests")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    with open(args.corpus, encoding="utf-8") as f:
        lines = f.read().splitlines()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.count:
        lines = lines[: args.count]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    latencies = []
    segment_of = []
    commands = []
    statuses = {}
    segments = []  # (requests, wall ns) between consecutive calibrations
    calibrations = [calibration.measure()]
    clock = time.perf_counter_ns
    with open(args.out, "w", encoding="utf-8") as out:
        deadline = clock() + int(args.max_s * 1e9)
        segment_start = clock()
        segment_count = 0
        for index, line in enumerate(lines):
            if tracer is not None:
                tracer.request = index
            t0 = clock()
            if t0 - segment_start >= CALIBRATE_EVERY_NS:
                segments.append((segment_count, t0 - segment_start))
                calibrations.append(calibration.measure())
                segment_count = 0
                segment_start = t0 = clock()
            signal.setitimer(signal.ITIMER_REAL, args.limit_s)
            try:
                report = handle(line)
                text = cli.dump_report(report)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except RequestTimeout:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.unwind()
                request = json.loads(line)
                report = cli.make_report(request.get("id"), request.get("command"), request.get("parameters", {}),
                                         status="timeout", error=f"exceeded {args.limit_s} s")
                text = cli.dump_report(report)
            t1 = clock()
            latencies.append(t1 - t0)
            segment_of.append(len(segments))
            out.write(text + "\n")
            commands.append(report["command"])
            statuses[report["status"]] = statuses.get(report["status"], 0) + 1
            segment_count += 1
            if t1 > deadline:
                break
        segments.append((segment_count, clock() - segment_start))
    calibrations.append(calibration.measure())
    if tracer is not None:
        tracer.uninstall()

    summary = {
        "latency_ns": latencies,
        "segment_of": segment_of,
        "segments": segments,
        "calibration_ns": calibrations,
        "commands": commands,
        "statuses": statuses,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        summary["trace"] = tracer.summary()
        tracer.write_spans(args.out + ".spans.jsonl")
    with open(args.out + ".json", "w", encoding="utf-8") as f:
        json.dump(summary, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
