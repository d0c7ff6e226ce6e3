"""One benchmark round in a fresh interpreter.

    python3 bench/worker.py <workload> <seed> <trace 0|1> <serve 0|1>

Run from the root of a checkout.  The worker imports expwin from the
checkout's ``src``, builds the workload's requests, and notes the
CLOCK_MONOTONIC time at which it was ready; the parent subtracts its launch
time from that to get the set-up time.  With serve=1 it then calls the CLI
in-process on each request in turn (one closed-loop client), checks each
output after its timer has stopped, and prints one JSON object on stdout.
"""
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main():
    workload, seed, trace, serve = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import expwin.cli

    if os.path.realpath(os.path.dirname(expwin.cli.__file__)) != os.path.realpath(os.path.join(src, "expwin")):
        sys.exit(f"expwin was imported from {expwin.cli.__file__}, not from {src}")
    import workloads

    requests = workloads.build(workload, seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if serve:
        result.update(serve_round(expwin.cli, workload, requests, trace))
    print(json.dumps(result))


def serve_round(cli, workload, requests, trace):
    import checks
    import tracing

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    latency, failed, problems, digests = [], [], [], []
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(req["argv"])
        except (Exception, SystemExit):
            rc = traceback.format_exc()
        latency.append(time.perf_counter() - t0)
        if tracer:
            tracer.request = None
        text = out.getvalue()
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if rc != 0:
            failed.append(f"{' '.join(req['argv'])}: exit {rc}")
            continue
        problems += [f"{' '.join(req['argv'])}: {p}" for p in checks.check(workload, req["ref"], text)]
    return {
        "latency_s": latency,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }


if __name__ == "__main__":
    main()
