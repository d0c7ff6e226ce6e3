"""Benchmark of the expwin CLI.

    python3 bench/run.py --workload {table,spectra,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each round is a fresh interpreter
(bench/worker.py) that imports expwin from ``src`` and serves the workload's
requests in turn; rounds start until S seconds have passed, and every round
serves its whole request list.  With --trace 0 the last line of stdout holds
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, which come from spans around expwin's public functions.  Results
and spans are also written under bench/out/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
MIN_SETUPS = 7        # interpreter starts per run behind the median setup_s
IMPORTTIME_RUNS = 3   # `python -X importtime` runs behind kernels.import_ms
BUDGET_S = 170.0      # the whole run, rounds and starts included


class BenchError(RuntimeError):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(args, serve, deadline):
    """Run one worker; returns its JSON result plus ``setup_s``."""
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), str(args.trace), str(int(serve))]
    t0 = now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(deadline - now(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the run's time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    return res


def kernels_import_ms(src, deadline):
    """Cumulative import time of expwin.kernels, from -X importtime (median)."""
    code = f"import sys; sys.path.insert(0, {src!r}); import expwin.cli"
    values = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=max(deadline - now(), 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"importtime run exited with {proc.returncode}")
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "expwin.kernels":
                values.append(int(fields[1]) / 1000.0)
    if len(values) != IMPORTTIME_RUNS:
        raise BenchError("expwin.kernels missing from -X importtime output")
    return statistics.median(values)


def end_to_end(rounds, setups):
    latency = [x for r in rounds for x in r["latency_s"]]
    # one closed-loop client: a round's timed phase is the time its requests were in flight
    throughput = [(len(r["latency_s"]) - len(r["failed"])) / sum(r["latency_s"]) for r in rounds]
    return {
        "latency_p50_ms": 1000.0 * statistics.median(latency),
        "requests_per_s": statistics.median(throughput),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024.0,
        "setup_s": statistics.median(setups),
    }


def per_layer(rounds, import_ms, names):
    totals = []
    for r in rounds:
        totals += tracing.per_request_totals(r["spans"]).values()
    values = {name: statistics.median(t.get(name, 0.0) for t in totals) for name in names}
    values["kernels.import_ms"] = import_ms
    return values


def run(args, spec):
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "expwin", "__init__.py")):
        raise BenchError(f"no expwin package under {src}; run from the root of a checkout")
    deadline = now() + BUDGET_S
    rounds, start = [], now()
    while not rounds or now() - start < args.seconds:
        rounds.append(launch(args, True, deadline))
    setups = [r["setup_s"] for r in rounds]
    if not args.trace:
        while len(setups) < MIN_SETUPS:
            setups.append(launch(args, False, deadline)["setup_s"])

    problems = [p for r in rounds for p in r["problems"]]
    problems += checks.identical_bytes([r["digests"] for r in rounds])
    attempted = sum(len(r["latency_s"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(rounds, kernels_import_ms(src, deadline), names)
        metrics = spec["per_layer"]
    else:
        values = end_to_end(rounds, setups)
        metrics = spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    detail = {
        "args": vars(args),
        "rounds": len(rounds),
        "latency_ms": [1000.0 * x for r in rounds for x in r["latency_s"]],
        "setup_s": setups,
        "rss_kb": [r["rss_kb"] for r in rounds],
        "failed": [f for r in rounds for f in r["failed"]],
        "problems": problems,
    }
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([r["spans"] for r in rounds], fh)
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["table", "spectra", "oracle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    try:
        result = run(args, spec)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
