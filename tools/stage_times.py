"""Time the stages of ``metrics.full_report`` summed over the table rows.

Runs the stages of ``full_report`` one by one for every row of
``TABLE_ROWS`` and prints, per stage, the sum of its wall times over the
rows; the whole table is timed REPEATS times and each stage keeps its
best sum.  The expwin package is the one on the import path, so two
checkouts compare with::

    PYTHONPATH=/path/to/other/checkout/src python tools/stage_times.py
    PYTHONPATH=src python tools/stage_times.py
"""
import time

from expwin import TABLE_ROWS
from expwin.metrics import (
    F_MAX,
    N_SAMPLES,
    PAD_FACTOR,
    energy_leakage,
    half_width_numeric,
    main_lobe_width,
)
from expwin.specs import parse_window_spec
from expwin.spectrum import segment_lobes, spectrum_fft
from expwin.windows import sample

REPEATS = 3
STAGES = ("sample", "spectrum_fft", "segment_lobes", "energy_leakage", "half_width_numeric")


def table_stage_sums():
    """Seconds per stage, summed over the rows of one pass through the table."""
    sums = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        sums[stage] += time.perf_counter() - t0
        return out

    for _, spec in TABLE_ROWS:
        wdef = parse_window_spec(spec)
        values = timed("sample", sample, wdef, N_SAMPLES)
        spec_fft = timed("spectrum_fft", spectrum_fft, values, pad_factor=PAD_FACTOR, f_max=F_MAX)
        seg = timed("segment_lobes", segment_lobes, spec_fft)
        timed("energy_leakage", energy_leakage, wdef, main_lobe_width(seg))
        timed("half_width_numeric", half_width_numeric, wdef)
    return sums


def main():
    runs = [table_stage_sums() for _ in range(REPEATS)]
    best = {stage: min(run[stage] for run in runs) for stage in STAGES}
    for stage in STAGES:
        print(f"{stage:20s} {best[stage]:.3f} s")
    print(f"{'total':20s} {min(sum(run.values()) for run in runs):.3f} s")


if __name__ == "__main__":
    main()
