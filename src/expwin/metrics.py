"""The six evaluation parameters of a window.

Frequencies are reported in Hz (omega / 2 pi); the time-domain half
width is reported in units of 0.1 s, so the full record is 10.0.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .spectrum import (
    LobeSegmentation,
    _simpson_weights,
    segment_lobes,
    spectrum_fft,
    spectrum_quadrature,
)
from .windows import WindowDef, sample, window_eval

HALF_AMPLITUDE = math.sqrt(2.0) / 2.0
N_SAMPLES = 8192          # samples of the one-second record
PAD_FACTOR = 128          # spectrum bins per Hz
F_MAX = 500.0             # Hz, top of the spectrum that is segmented
DECAY_THRESHOLD_DB = -60.0  # 1/1000 of the f=0 amplitude
HALF_WIDTH_GRID = 8193    # points of the scan for the sqrt(2)/2 crossings
LEAKAGE_STEP_HZ = 0.005   # Simpson panel width of the main-lobe energy integral


class InsufficientLobesError(RuntimeError):
    """Fewer than two nulls or no sidelobe peak in the scan range."""


class NotConvergedError(RuntimeError):
    """No sidelobe peak falls below the threshold within the scan limit."""


class MetricsError(RuntimeError):
    """A sub-operation failed while building a full report."""


@dataclass(frozen=True)
class MetricsReport:
    omega0_hz: float          # half main-lobe width
    leakage_pct: float        # 100 * (1 - main-lobe energy fraction)
    sidelobe_db: float        # first sidelobe height, negative
    sidelobe_width_hz: float  # first sidelobe width
    decay_scale_hz: float     # first sidelobe peak below -60 dB
    half_width_0p1s: float    # time-domain half width, units of 0.1 s

    def as_dict(self) -> dict:
        return asdict(self)


def main_lobe_width(seg: LobeSegmentation) -> float:
    """Half main-lobe width: the first spectral null, in Hz."""
    return float(seg.nulls[0])


def energy_leakage(wdef: WindowDef, omega0_hz: float) -> float:
    """Percentage of window energy outside the main lobe.

    Main-lobe energy is 2 * integral_0^omega0 |Fhat(f)|^2 df (the
    spectrum is conjugate-symmetric); by Parseval the total energy is
    integral_0^1 W(t)^2 dt.  Both integrals use composite Simpson.
    """
    panels = int(math.ceil(omega0_hz / LEAKAGE_STEP_HZ))
    panels += panels % 2
    panels = max(panels, 2)
    spec = spectrum_quadrature(wdef, omega0_hz, panels + 1)
    lobe_energy = 2.0 * omega0_hz * float(np.dot(_simpson_weights(panels), spec.magnitudes ** 2))

    tp = 2 ** 15
    w2 = window_eval(wdef, np.linspace(0.0, 1.0, tp + 1)) ** 2
    total_energy = float(np.dot(_simpson_weights(tp), w2))

    leak = 100.0 * (1.0 - lobe_energy / total_energy)
    return max(leak, 0.0)


def first_sidelobe(seg: LobeSegmentation) -> tuple:
    """Height (dB) and width (Hz) of the first sidelobe."""
    if seg.nulls.size < 2 or seg.peak_db.size < 1:
        raise InsufficientLobesError("need two nulls and one peak for the first sidelobe")
    return float(seg.peak_db[0]), float(seg.nulls[1] - seg.nulls[0])


def decay_scale(seg: LobeSegmentation) -> float:
    """Characteristic frequency where sidelobe leakage drops below -60 dB.

    Returns the frequency of the first sidelobe peak whose height falls
    below DECAY_THRESHOLD_DB: the point where leakage amplitude has
    decayed to 1/1000 of the main lobe.
    """
    below = seg.peak_db < DECAY_THRESHOLD_DB
    if not below.any():
        raise NotConvergedError(
            f"no sidelobe peak falls below {DECAY_THRESHOLD_DB} dB"
            f" up to the last null at {seg.nulls[-1]:g} Hz"
        )
    first = int(np.argmax(below))
    return float(seg.peak_freqs[first])


def _bisect_crossing(wdef: WindowDef, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Root of W(t) - sqrt(2)/2 on [lo, hi], where the sign changes."""
    f_lo = window_eval(wdef, lo) - HALF_AMPLITUDE
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = window_eval(wdef, mid) - HALF_AMPLITUDE
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def half_width_numeric(wdef: WindowDef) -> float:
    """Measure of the set where W >= sqrt(2)/2, in units of 0.1 s.

    Catalog and reconstructed windows are unimodal or flat-topped, so
    the super-level set is a single interval; its edges are located by
    bisection.
    """
    t = np.linspace(0.0, 1.0, HALF_WIDTH_GRID)
    vals = window_eval(wdef, t)
    above = vals >= HALF_AMPLITUDE
    idx = np.nonzero(above)[0]
    if idx.size == 0:
        return 0.0
    left = 0.0 if idx[0] == 0 else _bisect_crossing(wdef, t[idx[0] - 1], t[idx[0]])
    right = 1.0 if idx[-1] == t.size - 1 else _bisect_crossing(wdef, t[idx[-1]], t[idx[-1] + 1])
    return float(10.0 * (right - left))


def half_width_analytic(n: float) -> float:
    """Closed-form half width of the symmetric polynomial-kernel window.

    Valid for the kernel t^n (1-t)^n; returned in units of 0.1 s.
    """
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    s = (1.0 / (4.0 ** n + math.log(math.sqrt(2.0)))) ** (1.0 / n)
    return 10.0 * math.sqrt(1.0 - 4.0 * s)


def full_report(wdef: WindowDef, label: str = None) -> MetricsReport:
    """Run the whole pipeline for one window."""
    try:
        spec = spectrum_fft(sample(wdef, N_SAMPLES), pad_factor=PAD_FACTOR, f_max=F_MAX)
        seg = segment_lobes(spec)
        omega0 = main_lobe_width(seg)
        sl_db, sl_width = first_sidelobe(seg)
        return MetricsReport(
            omega0_hz=omega0,
            leakage_pct=energy_leakage(wdef, omega0),
            sidelobe_db=sl_db,
            sidelobe_width_hz=sl_width,
            decay_scale_hz=decay_scale(seg),
            half_width_0p1s=half_width_numeric(wdef),
        )
    except Exception as exc:
        name = label if label is not None else repr(wdef)
        raise MetricsError(f"{name}: {exc}") from exc
