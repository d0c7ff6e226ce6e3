"""Frequency-domain analysis of windows.

The transform convention is Fhat(f) = integral_0^1 exp(2*pi*i*f*t) W(t) dt
with frequencies in Hz.  Two independent evaluation paths are provided:
a Riemann sum over the sampled window, and composite-Simpson quadrature
of the defining integral (the oracle for the sampled path).  Both
evaluate a uniform frequency band with one chirp-z transform.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .windows import SampledWindow, WindowDef, sample, window_eval


class NoNullsFoundError(RuntimeError):
    """No local minimum of the spectrum exists below the scan limit."""


@dataclass
class Spectrum:
    """Complex spectrum on a non-negative frequency grid (Hz)."""

    frequencies: np.ndarray
    amplitudes: np.ndarray
    db: np.ndarray = field(init=False)

    def __post_init__(self):
        mag = np.abs(self.amplitudes)
        with np.errstate(divide="ignore"):
            self.db = 20.0 * np.log10(mag / mag[0])
        self.db[0] = 0.0

    @property
    def df(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)


@dataclass
class LobeSegmentation:
    """Nulls and sidelobe peaks of the positive-frequency spectrum."""

    nulls: np.ndarray              # Hz, strictly increasing
    peak_freqs: np.ndarray         # Hz, peak i lies between nulls i and i+1
    peak_db: np.ndarray            # dB relative to the f=0 amplitude

    @property
    def main_lobe_edge(self) -> float:
        return float(self.nulls[0])


def _band_dft(g: np.ndarray, dt: float, df: float, m: int) -> np.ndarray:
    """Sum_k g_k exp(2*pi*i*(j*df)*(k*dt)) for j = 0..m-1.

    Bluestein's chirp-z transform: with jk = (j^2 + k^2 - (j-k)^2)/2 the
    sum becomes a linear convolution with the chirp exp(-i*pi*a*l^2),
    a = dt*df, done by power-of-two FFTs.  The chirp phase a*k^2 is
    reduced mod 2 before multiplying by pi, so it stays exact whenever
    a is a power of two.
    """
    n = g.size
    size = 1 << (n + m - 2).bit_length()  # power of two >= n + m - 1
    k2 = np.arange(max(n, m), dtype=float) ** 2
    chirp = np.exp(1j * np.pi * np.fmod(dt * df * k2, 2.0))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    conv = np.fft.ifft(np.fft.fft(g * chirp[:n], size) * np.fft.fft(kernel))
    return chirp[:m] * conv[:m]


def spectrum_fft(w: SampledWindow, pad_factor: int = 128, f_max: float = 500.0) -> Spectrum:
    """Spectrum of the sample record on the grid k/pad_factor Hz up to f_max.

    The Riemann sum dt * sum_k W(k dt) exp(2 pi i f k dt) is evaluated
    at exactly the requested bins, for any sample count; the f=0 bin
    approximates integral of W.  Raises ValueError for f_max outside
    [0, Nyquist], where the bins would alias.
    """
    if pad_factor < 2:
        raise ValueError(f"pad_factor must be >= 2, got {pad_factor}")
    nyquist = 0.5 / w.dt
    if not 0.0 <= f_max <= nyquist:
        raise ValueError(f"f_max must be in [0, {nyquist:g}] Hz (Nyquist), got {f_max:g}")
    freqs = np.arange(int(f_max * pad_factor) + 2) / pad_factor
    freqs = freqs[freqs <= f_max + 1e-12]
    amps = _band_dft(w.values, w.dt, 1.0 / pad_factor, freqs.size) * w.dt
    return Spectrum(frequencies=freqs, amplitudes=amps)


def _simpson_weights(panels: int) -> np.ndarray:
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * panels)


def spectrum_quadrature(
    wdef: WindowDef, f_grid: Sequence[float], panels: int = 2 ** 15
) -> Spectrum:
    """Spectrum by composite Simpson quadrature of the defining integral.

    Independent of the sampled path: the window is re-evaluated on a
    dense quadrature grid that includes t = 1.  A uniform frequency grid
    goes through the chirp-z band transform (exp(2 pi i f0 t) folded into
    the integrand for a grid starting at f0); any other grid is summed
    directly, one frequency at a time.
    """
    f = np.asarray(f_grid, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("f_grid must be a non-empty 1-D sequence")
    steps = np.diff(f)
    if np.any(steps < 0) or np.any(f < 0):
        raise ValueError("f_grid must be sorted and non-negative")
    if panels < 2 ** 15:
        panels = 2 ** 15
    if panels % 2:
        panels += 1

    t = np.linspace(0.0, 1.0, panels + 1)
    g = _simpson_weights(panels) * np.asarray(window_eval(wdef, t), dtype=float)

    if f.size > 2 and np.allclose(steps, steps[0], rtol=0.0, atol=1e-12):
        df = (f[-1] - f[0]) / (f.size - 1)
        amps = _band_dft(g * np.exp(2j * np.pi * f[0] * t), 1.0 / panels, df, f.size)
    else:
        amps = np.array([np.dot(g, np.exp(2j * np.pi * fj * t)) for fj in f])
    return Spectrum(frequencies=f, amplitudes=amps)


def _parabolic_vertex(x0: float, h: float, ym: float, y0: float, yp: float):
    """Vertex of the parabola through (x0-h, ym), (x0, y0), (x0+h, yp)."""
    denom = ym - 2.0 * y0 + yp
    if denom == 0.0 or not np.isfinite(denom):
        return x0, y0
    delta = 0.5 * (ym - yp) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    return x0 + delta * h, y0 - 0.25 * (ym - yp) * delta


def segment_lobes(s: Spectrum, f_max: Optional[float] = None) -> LobeSegmentation:
    """Locate spectrum nulls and the sidelobe peaks between them.

    Nulls are local minima of |Fhat| on the grid, refined by 3-point
    parabolic interpolation; windows without true spectral zeros still
    yield nulls through their local minima.  Each peak is the largest
    grid magnitude strictly between consecutive nulls, refined on the
    dB values.
    """
    if s.df > 0.02 + 1e-12:
        raise ValueError(f"grid spacing {s.df} Hz too coarse for segmentation")
    if f_max is not None:
        keep = s.frequencies <= f_max + 1e-12
        freqs, mag, db = s.frequencies[keep], s.magnitudes[keep], s.db[keep]
    else:
        freqs, mag, db = s.frequencies, s.magnitudes, s.db

    interior = np.arange(1, mag.size - 1)
    is_min = (mag[interior] < mag[interior - 1]) & (mag[interior] <= mag[interior + 1])
    min_idx = interior[is_min]
    if min_idx.size == 0:
        raise NoNullsFoundError("no spectral local minimum below the scan limit")

    h = s.df
    nulls = np.array(
        [
            _parabolic_vertex(freqs[i], h, mag[i - 1], mag[i], mag[i + 1])[0]
            for i in min_idx
        ]
    )

    peak_freqs, peak_db = [], []
    for a, b in zip(min_idx[:-1], min_idx[1:]):
        if b - a < 2:
            continue
        k = a + 1 + int(np.argmax(mag[a + 1 : b]))
        pf, pdb = _parabolic_vertex(freqs[k], h, db[k - 1], db[k], db[k + 1])
        peak_freqs.append(pf)
        peak_db.append(pdb)
    return LobeSegmentation(
        nulls=nulls,
        peak_freqs=np.asarray(peak_freqs),
        peak_db=np.asarray(peak_db),
    )


def apply_window(signal: Sequence[float], wdef: WindowDef) -> np.ndarray:
    """Modulate a signal sampled on t_k = k/N by the window."""
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1 or x.size < 16:
        raise ValueError("signal must be 1-D with at least 16 samples")
    return x * sample(wdef, x.size).values
