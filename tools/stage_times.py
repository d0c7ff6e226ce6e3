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
``_band_lobes`` turns the weights of each 64 Hz chunk after the first by a
128th root of unity before it calls ``_band_dft``, so the turn counts under
the ``full_report`` line and ``_band_dft`` times the transforms alone.
The ``segment_lobes`` line also gives the bins it searched per table: the
whole band so far, after each 64 Hz chunk.  The whole table is
timed REPEATS times and each stage keeps its best sum.  The ``_csv`` line
gives the best of REPEATS calls of ``expwin.cli._csv`` on the default
``expwin spectrum hann`` band, 6401 rows of frequency, amplitude and dB,
the CSV writer that ``spectrum`` and ``sample`` end in.  The ``_cells``
line gives what the writer costs first in a process: ``_cells.tables()``
and ``_cells.grid(6401, 128)``, the default band's frequency column, each
timed once after ``import expwin._cells`` in a fresh ``python -c``
interpreter, from the run with the best sum of REPEATS.  The two
``spectrum_quadrature`` lines give the best of REPEATS calls of the oracle
on the default ``expwin spectrum <spec> --method quad`` band, 6401 bins to
50 Hz, for the symmetric ``hann``, whose 2^15 + 1 nodes fold to 2^14 + 1,
and the asymmetric ``exp:poly:m=1,n=2``, which keeps all of them, each with
the convolution length its chirp-z plan chose and the minor page faults of
that best call.  Then comes the line count of the imported package's
source, ``expwin/*.py``, and the last line gives the minor page faults
(``ru_minflt``) of the first pass, which faults in every buffer the rows
need, and of the pass with the best total.
The expwin package is the one on the import path, so two checkouts
compare with::

    PYTHONPATH=/path/to/other/checkout/src python tools/stage_times.py
    PYTHONPATH=src python tools/stage_times.py
"""
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import expwin
from expwin import TABLE_ROWS, cli, metrics, spectrum
from expwin.specs import parse_window_spec
from expwin.spectrum import spectrum_fft, spectrum_quadrature
from expwin.windows import sample

REPEATS = 3
QUADRATURE_SPECS = ("hann", "exp:poly:m=1,n=2")  # a symmetric window, folded, and an asymmetric one
FIRST_USE = """\
import time
from expwin import _cells
t0 = time.perf_counter()
_cells.tables()
t1 = time.perf_counter()
_cells.grid(6401, 128)
print(t1 - t0, time.perf_counter() - t1)
"""
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
                start = args[1] if len(args) > 1 else 0  # an older checkout's segment_lobes took a start bin
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


def csv_seconds():
    """Best wall time of the CSV writer on the default ``spectrum hann`` band."""
    s = spectrum_fft(sample(parse_window_spec("hann"), 8192), pad_factor=128, f_max=50.0)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        cli._csv("f_hz,abs,db", 128, s.magnitudes, s.db)
        times.append(time.perf_counter() - t0)
    return min(times), s.amplitudes.size


def cells_first_use_seconds():
    """Seconds of ``_cells.tables()`` and of ``_cells.grid(6401, 128)`` in the
    fresh interpreter, of REPEATS, whose two took least together."""
    path = [str(Path(expwin.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = []
    for _ in range(REPEATS):
        out = subprocess.run([sys.executable, "-c", FIRST_USE], env=env, capture_output=True, text=True, check=True)
        runs.append(tuple(map(float, out.stdout.split())))
    return min(runs, key=sum)


def quadrature_seconds(spec):
    """Best wall time of the oracle on the default ``spectrum <spec> --method quad``
    band, the convolution length of its plan, and the minor faults of that call."""
    sizes = []
    plan = spectrum._chirp_plan

    def recorded(*args):
        chirp, kernel_fft, buf = plan(*args)
        sizes.append(kernel_fft.size)
        return chirp, kernel_fft, buf

    wdef = parse_window_spec(spec)
    spectrum._chirp_plan = recorded
    try:
        runs = []
        for _ in range(REPEATS):
            before = minor_faults()
            t0 = time.perf_counter()
            spectrum_quadrature(wdef, 50.0, 6401)
            runs.append((time.perf_counter() - t0, minor_faults() - before))
    finally:
        spectrum._chirp_plan = plan
    seconds, faults = min(runs)
    return seconds, sizes[-1], faults


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
    seconds, rows = csv_seconds()
    print(f"{'_csv':20s} {seconds:.4f} s {rows:5d} rows of spectrum hann")
    tables, grid = cells_first_use_seconds()
    print(f"{'_cells first use':20s} {tables + grid:.4f} s: tables() {tables:.4f} s, grid(6401, 128) {grid:.4f} s")
    for spec in QUADRATURE_SPECS:
        seconds, size, quad_faults = quadrature_seconds(spec)
        print(f"{'spectrum_quadrature':20s} {seconds:.4f} s {size:6d} points {quad_faults:6d} minor faults {spec}")
    package = Path(expwin.__file__).parent
    lines = sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))
    print(f"{'source lines':20s} {lines:6d} in {package}")
    print(f"{'minor faults':20s} {faults[0]:6d} cold {faults[best]:6d} best pass")


if __name__ == "__main__":
    main()
