"""Frequency-domain analysis of windows.

The transform convention is Fhat(f) = integral_0^1 exp(2*pi*i*f*t) W(t) dt
with frequencies in Hz.  Two independent evaluation paths are provided:
a Riemann sum over the sampled window, and composite-Simpson quadrature
of the defining integral (the oracle for the sampled path).  Both
evaluate an evenly spaced band that starts at 0 Hz with one chirp-z
transform.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .windows import WindowDef, window_eval


class NoNullsFoundError(RuntimeError):
    """No local minimum of the spectrum exists below the scan limit."""


@dataclass
class Spectrum:
    """Complex spectrum on an evenly spaced band from 0 Hz.

    dB values are relative to the f=0 amplitude, so a zero or
    non-finite DC value raises ValueError.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray
    db: np.ndarray = field(init=False)

    def __post_init__(self):
        mag = np.abs(self.amplitudes)
        if not (np.isfinite(mag[0]) and mag[0] > 0.0):
            raise ValueError(f"DC value |W^(0)| = {mag[0]:g} is zero or not finite; dB levels are undefined")
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


def _band_dft(g: np.ndarray, dt: float, df: float, m: int) -> np.ndarray:
    """Sum_k g_k exp(2*pi*i*(j*df)*(k*dt)) for j = 0..m-1.

    Bluestein's chirp-z transform: with jk = (j^2 + k^2 - (j-k)^2)/2 the
    sum becomes a linear convolution with the chirp exp(-i*pi*a*l^2),
    a = dt*df, done by power-of-two FFTs.  The chirp phase a*k^2 is
    reduced mod 2 before multiplying by pi, so it stays exact whenever
    a is a power of two; otherwise its absolute error grows with a*k^2,
    which is why values above 2^24 raise ValueError.
    """
    n = g.size
    k_max = max(n, m)
    phase_max = dt * df * k_max ** 2
    if phase_max > 2.0 ** 24:
        raise ValueError(
            f"band too sparse for the chirp-z phase: dt*df*max(n,m)^2 = {phase_max:.3g} > 2^24;"
            " use more frequencies or a lower f_max"
        )
    size = 1 << (n + m - 2).bit_length()  # power of two >= n + m - 1
    k2 = np.arange(k_max, dtype=float) ** 2
    chirp = np.exp(1j * np.pi * np.fmod(dt * df * k2, 2.0))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    conv = np.fft.ifft(np.fft.fft(g * chirp[:n], size) * np.fft.fft(kernel))
    return chirp[:m] * conv[:m]


def _band_grid(f_max: float, pad_factor: int) -> np.ndarray:
    """The grid k/pad_factor Hz, k >= 0, up to f_max (1e-12 Hz slack)."""
    if pad_factor < 2:
        raise ValueError(f"pad_factor must be >= 2, got {pad_factor}")
    if not f_max >= 0.0:
        raise ValueError(f"f_max must be >= 0 Hz, got {f_max:g}")
    if not np.isfinite(f_max):
        raise ValueError(f"f_max must be finite, got {f_max:g}")
    freqs = np.arange(int(f_max * pad_factor) + 2) / pad_factor
    return freqs[freqs <= f_max + 1e-12]


def spectrum_fft(values: np.ndarray, pad_factor: int = 128, f_max: float = 500.0) -> Spectrum:
    """Spectrum of the samples W(k/N), k < N, on the grid k/pad_factor Hz up to f_max.

    The Riemann sum dt * sum_k W(k dt) exp(2 pi i f k dt), dt = 1/N, is
    evaluated at exactly the requested bins, for any sample count; the
    f=0 bin approximates integral of W.  Raises ValueError for f_max
    outside [0, Nyquist], where the bins would alias.
    """
    dt = 1.0 / values.size
    nyquist = 0.5 / dt
    if f_max > nyquist:
        raise ValueError(f"f_max must be in [0, {nyquist:g}] Hz (Nyquist), got {f_max:g}")
    freqs = _band_grid(f_max, pad_factor)
    amps = _band_dft(values, dt, 1.0 / pad_factor, freqs.size) * dt
    return Spectrum(frequencies=freqs, amplitudes=amps)


def _simpson_weights(panels: int) -> np.ndarray:
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * panels)


def spectrum_quadrature(wdef: WindowDef, f_max: float, m: int) -> Spectrum:
    """Spectrum at m evenly spaced frequencies from 0 to f_max Hz.

    Composite Simpson quadrature of the defining integral, independent
    of the sampled path: the window is re-evaluated on a dense grid that
    includes t = 1, with 64 panels per Hz of f_max and at least 2^15;
    f_max above 32768 Hz (2^21 panels) raises ValueError.
    """
    if m < 1 or not 0.0 <= f_max < np.inf:
        raise ValueError(f"need m >= 1 frequencies and a finite f_max >= 0 Hz, got {m} and {f_max:g}")
    if f_max > 32768.0:
        raise ValueError(f"quadrature is limited to 32768 Hz, got {f_max:g} Hz")
    panels = max(2 ** 15, int(np.ceil(64.0 * f_max)))
    panels += panels % 2

    t = np.linspace(0.0, 1.0, panels + 1)
    g = _simpson_weights(panels) * window_eval(wdef, t)
    amps = _band_dft(g, 1.0 / panels, f_max / max(m - 1, 1), m)
    return Spectrum(frequencies=np.linspace(0.0, f_max, m), amplitudes=amps)


def _parabolic_vertex(x0, h, ym, y0, yp):
    """Vertices of the parabolas through (x0-h, ym), (x0, y0), (x0+h, yp).

    Elementwise over arrays; a flat or non-finite triple keeps its
    middle point.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = ym - 2.0 * y0 + yp
        keep = (denom == 0.0) | ~np.isfinite(denom)
        delta = np.clip(0.5 * (ym - yp) / denom, -0.5, 0.5)
        return (
            np.where(keep, x0, x0 + delta * h),
            np.where(keep, y0, y0 - 0.25 * (ym - yp) * delta),
        )


def segment_lobes(s: Spectrum) -> LobeSegmentation:
    """Locate spectrum nulls and the sidelobe peaks between them.

    Nulls are local minima of |Fhat| on the grid, refined by 3-point
    parabolic interpolation; windows without true spectral zeros still
    yield nulls through their local minima.  Each peak is the first
    largest grid magnitude strictly between consecutive nulls, refined
    on the dB values.  The whole grid of ``s`` is segmented.
    """
    if s.frequencies.size < 3:
        raise NoNullsFoundError(f"a spectrum of {s.frequencies.size} bins has no local minimum")
    if s.df > 0.02 + 1e-12:
        raise ValueError(f"grid spacing {s.df} Hz too coarse for segmentation")
    freqs, mag, db, h = s.frequencies, s.magnitudes, s.db, s.df

    mins = np.arange(1, mag.size - 1)
    mins = mins[(mag[mins] < mag[mins - 1]) & (mag[mins] <= mag[mins + 1])]
    if mins.size == 0:
        raise NoNullsFoundError("no spectral local minimum below the scan limit")
    nulls = _parabolic_vertex(freqs[mins], h, mag[mins - 1], mag[mins], mag[mins + 1])[0]

    # Each point between the first and last minima joins the lobe closed
    # by the next minimum at or after it; that minimum is never the lobe's
    # first largest point, since mag[m] < mag[m - 1].  Sorting by lobe,
    # then by falling magnitude (stable, so ties keep grid order) puts
    # each lobe's first largest point first.
    j = np.arange(mins[0] + 1, mins[-1])
    lobe = np.searchsorted(mins, j)
    order = np.lexsort((-mag[j], lobe))
    k = j[order[np.unique(lobe[order], return_index=True)[1]]]
    peak_freqs, peak_db = _parabolic_vertex(freqs[k], h, db[k - 1], db[k], db[k + 1])
    return LobeSegmentation(nulls=nulls, peak_freqs=peak_freqs, peak_db=peak_db)

