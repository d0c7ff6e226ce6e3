"""Time the stages of ``metrics.full_report`` summed over the table rows.

Runs ``full_report`` itself on every row of ``TABLE_ROWS``, with the names
it looks up in ``expwin.metrics`` wrapped in timers, and prints each
stage's self time summed over the rows: its own wall time minus that of
the wrapped calls inside it, the rule ``bench/tracing.py`` uses.  The
``full_report`` line is the time spent outside every wrapped call.  The
half width's bisection evaluates the window through ``window_eval``, so
those evaluations count under ``window_eval``, not ``half_width_numeric``.
The whole table is timed REPEATS times and each stage keeps its best sum.
The expwin package is the one on the import path, so two checkouts
compare with::

    PYTHONPATH=/path/to/other/checkout/src python tools/stage_times.py
    PYTHONPATH=src python tools/stage_times.py
"""
import time

from expwin import TABLE_ROWS, metrics
from expwin.specs import parse_window_spec

REPEATS = 3
STAGES = ("window_eval", "_band_dft", "segment_lobes", "energy_leakage", "half_width_numeric", "full_report")


def table_stage_sums():
    """Self seconds per stage, summed over the rows of one pass through the table."""
    sums = dict.fromkeys(STAGES, 0.0)
    inner = [0.0]  # time of the wrapped calls made so far inside the running call

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
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
    return sums


def main():
    runs = [table_stage_sums() for _ in range(REPEATS)]
    for stage in STAGES:
        print(f"{stage:20s} {min(run[stage] for run in runs):.3f} s")
    print(f"{'total':20s} {min(sum(run.values()) for run in runs):.3f} s")


if __name__ == "__main__":
    main()
