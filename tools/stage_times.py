"""Time the stages of ``metrics.full_report`` summed over the table rows.

Runs the stages of ``full_report`` one by one for every row of
``TABLE_ROWS`` and prints, per stage, the sum of its wall times over the
rows; the whole table is timed REPEATS times and each stage keeps its
best sum.  The expwin package is the one on the import path, so two
checkouts with the same stages compare with::

    PYTHONPATH=/path/to/other/checkout/src python tools/stage_times.py
    PYTHONPATH=src python tools/stage_times.py

A checkout whose ``full_report`` has other stages is timed with its own
copy of this script.
"""
import time

import numpy as np

from expwin import TABLE_ROWS, metrics
from expwin.metrics import N_PANELS, _band_lobes, energy_leakage, half_width_numeric, main_lobe_width
from expwin.specs import parse_window_spec
from expwin.windows import window_eval

REPEATS = 3
STAGES = ("window_eval", "band_dft", "segment_lobes", "energy_leakage", "half_width_numeric")


def table_stage_sums():
    """Seconds per stage, summed over the rows of one pass through the table.

    The chunked band of ``full_report`` runs through its own helper; the
    ``segment_lobes`` calls it makes after each chunk are timed on their
    own, and the rest of the helper's time is the ``band_dft`` stage.
    """
    sums = dict.fromkeys(STAGES, 0.0)

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        sums[stage] += time.perf_counter() - t0
        return out

    segment_lobes = metrics.segment_lobes
    metrics.segment_lobes = lambda s: timed("segment_lobes", segment_lobes, s)
    try:
        for _, spec in TABLE_ROWS:
            wdef = parse_window_spec(spec)
            w = timed("window_eval", window_eval, wdef, np.linspace(0.0, 1.0, N_PANELS + 1))
            seg = timed("band_dft", _band_lobes, w)
            timed("energy_leakage", energy_leakage, w, main_lobe_width(seg))
            timed("half_width_numeric", half_width_numeric, wdef)
    finally:
        metrics.segment_lobes = segment_lobes
    sums["band_dft"] -= sums["segment_lobes"]
    return sums


def main():
    runs = [table_stage_sums() for _ in range(REPEATS)]
    best = {stage: min(run[stage] for run in runs) for stage in STAGES}
    for stage in STAGES:
        print(f"{stage:20s} {best[stage]:.3f} s")
    print(f"{'total':20s} {min(sum(run.values()) for run in runs):.3f} s")


if __name__ == "__main__":
    main()
