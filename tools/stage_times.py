"""Time the stages of ``metrics.full_report`` summed over the table rows.

Runs ``full_report`` itself on every row of ``TABLE_ROWS``, with the names
it looks up in ``expwin.metrics`` wrapped in timers, and prints each
stage's self time summed over the rows: its own wall time minus that of
the wrapped calls inside it, the rule ``bench/tracing.py`` uses, next to
its number of calls per table.  The ``full_report`` line is the time spent
outside every wrapped call.  The half width reads the window at the Simpson
nodes that ``full_report`` evaluated, then its multisection evaluates the
window through ``window_eval``, two grids of 2 x 129 points per row, so
those evaluations count under ``window_eval``, not ``half_width_numeric``.
The ``segment_lobes`` line also gives the bins it searched per table: each
64 Hz chunk once, from the band's last minimum on.  The whole table is
timed REPEATS times and each stage keeps its best sum.  Then comes the line
count of the imported package's source, ``expwin/*.py``, and the last line
gives the minor page faults (``ru_minflt``) of the first pass, which
faults in every buffer the rows need, and of the pass with the best total.
The expwin package is the one on the import path, so two checkouts
compare with::

    PYTHONPATH=/path/to/other/checkout/src python tools/stage_times.py
    PYTHONPATH=src python tools/stage_times.py
"""
import resource
import time
from pathlib import Path

import expwin
from expwin import TABLE_ROWS, metrics
from expwin.specs import parse_window_spec

REPEATS = 3
STAGES = ("window_eval", "_band_dft", "segment_lobes", "energy_leakage", "half_width_numeric", "full_report")


def table_stage_sums():
    """Self seconds and calls per stage, summed over the rows of one pass
    through the table, and the bins ``segment_lobes`` searched."""
    sums = dict.fromkeys(STAGES, 0.0)
    calls = dict.fromkeys(STAGES, 0)
    bins = [0]
    inner = [0.0]  # time of the wrapped calls made so far inside the running call

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            calls[stage] += 1
            if stage == "segment_lobes":
                start = args[1] if len(args) > 1 else 0  # a checkout whose segment_lobes takes no start
                bins[0] += args[0].amplitudes.size - max(start, 1) + 1
            outer, inner[0] = inner[0], 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                sums[stage] += elapsed - inner[0]
                inner[0] = outer + elapsed

        return wrapper

    originals = {stage: getattr(metrics, stage) for stage in STAGES[:-1]}
    for stage, fn in originals.items():
        setattr(metrics, stage, timed(stage, fn))
    try:
        report = timed("full_report", metrics.full_report)
        for label, spec in TABLE_ROWS:
            report(parse_window_spec(spec), label)
    finally:
        for stage, fn in originals.items():
            setattr(metrics, stage, fn)
    return sums, calls, bins[0]


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main():
    runs, faults = [], []
    for _ in range(REPEATS):
        before = minor_faults()
        runs.append(table_stage_sums())
        faults.append(minor_faults() - before)
    _, calls, bins = runs[0]
    for stage in STAGES:
        line = f"{stage:20s} {min(run[0][stage] for run in runs):.3f} s {calls[stage]:6d} calls"
        print(line + (f" {bins:8d} bins" if stage == "segment_lobes" else ""))
    totals = [sum(run[0].values()) for run in runs]
    best = totals.index(min(totals))
    print(f"{'total':20s} {totals[best]:.3f} s")
    package = Path(expwin.__file__).parent
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    print(f"{'source lines':20s} {lines:6d} in {package}")
    print(f"{'minor faults':20s} {faults[0]:6d} cold {faults[best]:6d} best pass")


if __name__ == "__main__":
    main()
