"""The six evaluation parameters of a window.

Frequencies are reported in Hz (omega / 2 pi); the time-domain half
width is reported in units of 0.1 s, so the full record is 10.0.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .spectrum import LobeSegmentation, NoNullsFoundError, Spectrum, _band_dft, _band_size, _simpson_rule
from .spectrum import segment_lobes
from .windows import WindowDef, window_eval

HALF_AMPLITUDE = math.sqrt(2.0) / 2.0
N_PANELS = 8192           # Simpson panels of the one-second record; nodes k/N_PANELS, k = 0..N_PANELS
PAD_FACTOR = 128          # spectrum bins per Hz
F_MAX = 500.0             # Hz, top of the spectrum that is segmented if no lobe before reaches -60 dB
DECAY_THRESHOLD_DB = -60.0  # 1/1000 of the f=0 amplitude
BISECT_TOL = 1e-8         # width of the final bracket of a half-width edge
BISECT_BITS = 7           # halvings of each half-width bracket per window evaluation


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


def energy_leakage(w: np.ndarray, omega0_hz: float) -> float:
    """Percentage of window energy outside the main lobe of half width ``omega0_hz`` > 0.

    ``w`` holds the window at the nodes t_k = k/P, k = 0..P with P even,
    and g_k = s_k w_k with Simpson weights s_k; Fhat(f) = sum_k g_k
    exp(2 pi i f t_k) is ``spectrum_simpson(w, ...)``.  Its main-lobe energy
    integral_-omega0^omega0 |Fhat(f)|^2 df is exactly
    2 omega0 (R_0 + 2 sum_{d>=1} R_d sinc(2 omega0 d/P)), where R is the
    autocorrelation of g.  By Parseval the total energy is integral_0^1
    W(t)^2 dt, here sum_k s_k w_k^2.
    """
    p = w.size - 1
    g = _simpson_rule(p)[1] * w
    # A circular autocorrelation of length 2P folds lag -P onto lag P only.
    power = np.abs(np.fft.rfft(g, 2 * p))
    power *= power
    r = np.fft.irfft(power, 2 * p)[: p + 1]
    r[p] = g[0] * g[p]
    # np.sinc's own arithmetic at the lags d = 1..P, without its where: y > 0 here
    y = np.pi * (2.0 * omega0_hz * np.arange(1.0, p + 1) / p)
    r[1:] *= 2.0 * np.sin(y) / y
    lobe_energy = 2.0 * omega0_hz * float(np.sum(r))
    total_energy = float(np.dot(g, w))
    return max(100.0 * (1.0 - lobe_energy / total_energy), 0.0)


def _band_lobes(w: np.ndarray) -> LobeSegmentation:
    """Lobes of the Simpson spectrum of the nodes ``w`` at k/PAD_FACTOR Hz, up to F_MAX at most.

    The band grows by N_PANELS bins (64 Hz, one shared chirp-z plan) in one
    array of the full size until it holds a peak below DECAY_THRESHOLD_DB,
    the last lobe a metric reads.  As (c*N_PANELS + j)*k/(N_PANELS*PAD_FACTOR)
    = c*k/PAD_FACTOR + j*k/(N_PANELS*PAD_FACTOR), chunk c is the band from 0 Hz
    of g_k turned by the PAD_FACTOR-th root of unity exp(2*pi*i*c*k/PAD_FACTOR).
    After each chunk the whole band so far is segmented; only the whole band raises.
    """
    g = _simpson_rule(N_PANELS)[1] * w
    k = np.arange(PAD_FACTOR)
    roots = np.exp(2j * np.pi * (k / PAD_FACTOR))
    size = _band_size(F_MAX, PAD_FACTOR)
    amps = np.empty(size, dtype=complex)  # filled chunk by chunk; pages past the last are never touched
    for c, first in enumerate(range(0, size, N_PANELS)):
        end = min(first + N_PANELS, size)
        turned = g * np.resize(roots[c * k % PAD_FACTOR], g.size) if c else g
        amps[first:end] = _band_dft(turned, 1.0 / N_PANELS, 1.0 / PAD_FACTOR, N_PANELS)[: end - first]
        try:
            seg = segment_lobes(Spectrum(amps[:end], 1.0 / PAD_FACTOR))
        except NoNullsFoundError:
            if end == size:
                raise
            continue
        if end == size or (seg.peak_db < DECAY_THRESHOLD_DB).any():
            return seg


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


def _walk(t, w, a: int, b: int) -> tuple:
    """[t[a], t[b]] bisected for W = sqrt(2)/2 on known values w = W(t), indexed as Python floats,
    while the midpoint index (a + b) / 2 is whole and the bracket is wider than BISECT_TOL."""
    below = w[a] < HALF_AMPLITUDE  # a only moves to a midpoint on its own side
    while (a + b) % 2 == 0 and t[b] - t[a] > BISECT_TOL:
        mid = (a + b) // 2
        a, b = (mid, b) if (w[mid] < HALF_AMPLITUDE) == below else (a, mid)
    return t[a], t[b]


def half_width_numeric(wdef: WindowDef, w: np.ndarray) -> float:
    """Measure of the set where W >= sqrt(2)/2, in units of 0.1 s.

    ``w`` holds W at the nodes k/P, k = 0..P with P = w.size - 1 even.  Catalog
    and reconstructed windows are unimodal or flat-topped, so the super-level set
    is one interval around the peak t*, where W = 1.  Its edges are bisected on
    [0, t*] and [t*, 1] down to BISECT_TOL, each as if alone; an end where W is
    still at least sqrt(2)/2 is itself the edge.  W(0), W(1) and the first
    halvings come from ``w``: a bracket is halved on the nodes while both its ends
    and its midpoint are nodes, 12 times per edge when t* = 1/2 and P = N_PANELS,
    fewer when t* is another multiple of 1/P and never otherwise.  Then one window
    evaluation serves BISECT_BITS halvings of both brackets: it takes the
    2**BISECT_BITS + 1 points those halvings can reach, built level by level as
    0.5 * (a + b) like the bisection's own midpoints, and ``_walk``, the node
    stage's walk, then runs down them.  So each edge has the bits of a bisection
    that evaluates one point per step.
    """
    p = w.size - 1
    at_ends = np.array([w[0], w[p]]) >= HALF_AMPLITUDE  # W(0) and W(1)
    t_peak = wdef.peak[0]
    k_peak = t_peak * p
    brackets = [(0.0, t_peak), (t_peak, 1.0)]
    if k_peak.is_integer():
        t, nodes, k = memoryview(_simpson_rule(p)[0]), memoryview(w), int(k_peak)
        brackets = [_walk(t, nodes, 0, k), _walk(t, nodes, k, p)]
    lo, hi = np.array(brackets).T
    while (hi - lo > BISECT_TOL).any():
        grid = np.empty((2, 2 ** BISECT_BITS + 1))
        grid[:, 0], grid[:, -1] = lo, hi
        for level in range(BISECT_BITS):
            step = 2 ** (BISECT_BITS - level)
            grid[:, step // 2 :: step] = 0.5 * (grid[:, : -1 : step] + grid[:, step::step])
        rows = zip(grid.tolist(), window_eval(wdef, grid).tolist())
        brackets = [_walk(t, values, 0, 2 ** BISECT_BITS) for t, values in rows]
        lo, hi = np.array(brackets).T
    edges = np.where(at_ends, np.array([0.0, 1.0]), 0.5 * (lo + hi))
    return float(10.0 * (edges[1] - edges[0]))


def half_width_analytic(n: float) -> float:
    """Closed-form half width of the window of the kernel t^n (1-t)^n, 0 < n < 512, in 0.1 s.

    W = sqrt(2)/2 where 4t(1-t) = (1 + x)^(-1/n), x = ln(sqrt 2) 4^-n; the edges
    lie sqrt(-expm1(-log1p(x)/n)) apart, a form that keeps its digits at large n.
    """
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    if not n < 512:  # 4^n overflows, and PolynomialKernel(n, n) is rejected
        raise ValueError(f"n must be < 512, where 4^n overflows, got {n}")
    x = math.log(math.sqrt(2.0)) * 4.0 ** -n
    return 10.0 * math.sqrt(-math.expm1(-math.log1p(x) / n))


def full_report(wdef: WindowDef, label: str = None) -> MetricsReport:
    """Run the whole pipeline for one window."""
    try:
        w = window_eval(wdef, _simpson_rule(N_PANELS)[0])
        seg = _band_lobes(w)
        omega0 = main_lobe_width(seg)
        sl_db, sl_width = first_sidelobe(seg)
        return MetricsReport(
            omega0_hz=omega0,
            leakage_pct=energy_leakage(w, omega0),
            sidelobe_db=sl_db,
            sidelobe_width_hz=sl_width,
            decay_scale_hz=decay_scale(seg),
            half_width_0p1s=half_width_numeric(wdef, w),
        )
    except Exception as exc:
        name = label if label is not None else repr(wdef)
        raise MetricsError(f"{name}: {exc}") from exc
