"""Frequency-domain analysis of windows.

The transform convention is Fhat(f) = integral_0^1 exp(2*pi*i*f*t) W(t) dt
with frequencies in Hz.  A Riemann sum over the sampled window
(``spectrum_fft``) and composite-Simpson quadrature over the window at the
nodes k/P, k = 0..P (``spectrum_simpson``; ``spectrum_quadrature`` on a dense
grid is the oracle) both evaluate an evenly spaced band from 0 Hz with one
chirp-z transform.  Its plan, cached for the last band shape, holds the
chirp, the kernel FFT and the one complex work buffer the convolution runs
in; the table rows build their bands in chunks of one shape and share it.
A ``Spectrum`` is the band's amplitudes and its spacing ``df``: bin k lies
at k*df Hz.
"""
from __future__ import annotations

import functools
import math
import mmap
import threading
from dataclasses import dataclass, field

import numpy as np

from .windows import WindowDef, window_eval


class NoNullsFoundError(RuntimeError):
    """No local minimum of the spectrum exists below the scan limit."""


def _db(mag: np.ndarray, dc: float) -> np.ndarray:
    """20 log10(mag / dc) in place of ``mag``, so no temporaries: dB relative to ``dc``, -inf where mag is 0."""
    mag /= dc
    with np.errstate(divide="ignore"):
        np.log10(mag, out=mag)
    mag *= 20.0
    return mag


@dataclass
class Spectrum:
    """Complex spectrum on the band k*df Hz, k = 0, 1, ..., from 0 Hz.

    A symmetric window's ``spectrum_quadrature`` holds the real, signed
    exp(-i*pi*f) * Fhat(f).  dB values are relative to the f=0 amplitude
    ``dc``, so an empty band or a zero or non-finite DC value raises
    ValueError; they and the frequencies are computed when read.
    """

    amplitudes: np.ndarray
    df: float
    dc: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.amplitudes.size == 0:
            raise ValueError("an empty band has no DC value; dB levels are undefined")
        self.dc = float(np.abs(self.amplitudes[:1])[0])  # array np.abs: a scalar's can differ in the last bit
        if not (np.isfinite(self.dc) and self.dc > 0.0):
            raise ValueError(f"DC value |W^(0)| = {self.dc:g} is zero or not finite; dB levels are undefined")

    @property
    def db(self) -> np.ndarray:
        return _db(self.magnitudes, self.dc)

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(self.amplitudes.size) * self.df

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.amplitudes)


@dataclass
class LobeSegmentation:
    """Nulls and sidelobe peaks of the positive-frequency spectrum."""

    nulls: np.ndarray              # Hz, strictly increasing
    peak_freqs: np.ndarray         # Hz, peak i lies between nulls i and i+1
    peak_db: np.ndarray            # dB relative to the f=0 amplitude


@functools.lru_cache(maxsize=1)
def _chirp_plan(n: int, m: int, a: float) -> tuple:
    """Read-only chirp exp(i*pi*a*k^2), k < max(n, m), FFT of the Bluestein kernel, and work buffer.

    The complex convolution buffer of the FFT size, used under ``_WORK_LOCK``,
    is kept so a chunked band faults it in once.  It has its own anonymous
    mapping, not malloc's heap: a long-lived block there would keep the heap
    from shrinking back below it, and the rows' transient arrays would fault
    fresh pages in above it.  The FFT size is the least 2^k, 3*2^k or 5*2^k
    >= n + m - 1: radix-3 and radix-5 passes cost about what radix-2 ones do
    per point, and the table's chunks and the default FFT band keep their
    16384.  Only the last plan is kept, until a band of another shape
    replaces it: 16 bytes times max(n, m) plus the FFT size for chirp and
    kernel FFT, and 16 bytes times the FFT size for the buffer.  The table rows' chunks of
    8192 bins over 8193 nodes share one, about 0.4 MB plus 0.26 MB of buffer
    (n + m - 1 = 16384, no padding).  A symmetric window's quadrature band,
    6401 bins over 16385 folded nodes by default, holds about 0.66 MB plus
    0.39 MB (22785 padded to 24576), and to 32768 Hz at 128 bins per Hz
    168 MB plus 101 MB (5*2^20 + 1 padded to 3*2^21); over an asymmetric
    window's 32769 or 2^21 + 1 nodes, 1.2 MB plus 0.66 MB (39169 padded to
    40960) or 200 MB plus 134 MB (3*2^21 + 1 padded to 2^23).
    """
    size = min(c << ((n + m - 2) // c).bit_length() for c in (1, 3, 5))  # least c*2^k >= n + m - 1
    k2 = np.arange(max(n, m), dtype=float) ** 2
    chirp = np.exp(1j * np.pi * np.fmod(a * k2, 2.0))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.conj(chirp[:m])
    kernel[size - n + 1 :] = np.conj(chirp[n - 1 : 0 : -1])
    kernel_fft = np.fft.fft(kernel)
    chirp.flags.writeable = kernel_fft.flags.writeable = False
    return chirp, kernel_fft, np.frombuffer(mmap.mmap(-1, 16 * size), dtype=complex)


# How to bring each term of the chirp-z phase dt*df*max(m^2, n^2) back under 2^24.
_PHASE_REMEDIES = {
    "m^2": "the band has too many frequencies; use fewer, with a lower f_max or a coarser frequency spacing",
    "n^2": "too many nodes for the frequency spacing; use fewer nodes or a finer spacing, more frequencies to f_max",
}
_WORK_LOCK = threading.Lock()  # held while ``_band_dft`` fills and reads a plan's work buffer


def _band_dft(g: np.ndarray, dt: float, df: float, m: int) -> np.ndarray:
    """Sum_k g_k exp(2*pi*i*(j*df)*(k*dt)) for j = 0..m-1.

    Bluestein's chirp-z transform: with jk = (j^2 + k^2 - (j-k)^2)/2 the
    sum becomes a linear convolution with the chirp exp(-i*pi*a*l^2),
    a = dt*df, done by FFTs in place in the work buffer of the plan
    ``_chirp_plan`` keeps for (n, m, a).  The phases a*k^2 are reduced
    mod 2, so they stay exact whenever a is a power of two; otherwise
    their absolute error grows with the phase, which is why values above
    2^24 raise ValueError.  The result is a fresh array.
    """
    n = g.size
    terms = {"m^2": m * m, "n^2": n * n}
    term = max(terms, key=terms.get)
    phase_max = dt * df * terms[term]
    if phase_max > 2.0 ** 24:
        raise ValueError(f"chirp-z phase dt*df*{term} = {phase_max:.3g} > 2^24: {_PHASE_REMEDIES[term]}")
    chirp, kernel_fft, buf = _chirp_plan(n, m, dt * df)
    with _WORK_LOCK:
        np.multiply(g, chirp[:n], out=buf[:n])
        buf[n:] = 0.0
        np.fft.fft(buf, out=buf)
        buf *= kernel_fft
        np.fft.ifft(buf, out=buf)
        return chirp[:m] * buf[:m]


def _band_size(f_max: float, pad_factor: int) -> int:
    """How many k >= 0 have k/pad_factor, rounded to a float, at most f_max Hz.

    Exact for every accepted input: counted in integers, not in floats.
    ValueError unless 2 <= pad_factor <= 2^53 and f_max is finite and >= 0.
    """
    if pad_factor < 2:
        raise ValueError(f"pad_factor must be >= 2, got {pad_factor}")
    if pad_factor > 2 ** 53:
        raise ValueError(f"pad_factor must be at most 2^53, got about 10^{math.log10(pad_factor):.0f}")
    if not f_max >= 0.0:
        raise ValueError(f"f_max must be >= 0 Hz, got {f_max:g}")
    if not np.isfinite(f_max):
        raise ValueError(f"f_max must be finite, got {f_max:g}")
    # k/pad_factor rounds to f_max or below while it lies below f_max + ulp/2, the midpoint
    # to the next float, or on it if f_max's last bit is 0 and the tie rounds to f_max.
    (a, b), (c, d) = f_max.as_integer_ratio(), math.ulp(f_max).as_integer_ratio()
    top, bottom = pad_factor * (2 * a * d + b * c), 2 * b * d  # pad_factor * (f_max + ulp/2)
    return top // bottom + 1 if f_max / math.ulp(f_max) % 2 == 0 else -(-top // bottom)


def spectrum_fft(values: np.ndarray, pad_factor: int, f_max: float) -> Spectrum:
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
    m = _band_size(f_max, pad_factor)
    amps = _band_dft(values, dt, 1.0 / pad_factor, m) * dt
    return Spectrum(amps, 1.0 / pad_factor)


@functools.lru_cache(maxsize=1)
def _simpson_rule(panels: int) -> tuple:
    """Read-only nodes k/panels, k = 0..panels, and their Simpson weights, kept for the last panel count.

    ValueError unless panels is even and >= 2.
    """
    if panels < 2 or panels % 2:
        raise ValueError(f"Simpson's rule needs an even number of panels >= 2, got {panels}")
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    rule = np.linspace(0.0, 1.0, panels + 1), weights / (3.0 * panels)
    for a in rule:
        a.flags.writeable = False
    return rule


def spectrum_simpson(values: np.ndarray, f_max: float, m: int) -> Spectrum:
    """Composite-Simpson spectrum of the nodes W(k/P), k = 0..P, P even, at m frequencies 0..f_max Hz."""
    panels = values.size - 1
    df = f_max / max(m - 1, 1)
    return Spectrum(_band_dft(_simpson_rule(panels)[1] * values, 1.0 / panels, df, m), df)


def spectrum_quadrature(wdef: WindowDef, pad_factor: int, f_max: float) -> Spectrum:
    """Spectrum on the grid k/pad_factor Hz up to f_max, the band of ``spectrum_fft``.

    Composite Simpson over the window re-evaluated on a dense grid that
    includes t = 1, with P = 64 panels per Hz of the top bin and at least
    2^15; a finite f_max above 32768 Hz (2^21 panels) raises ValueError
    before the band is counted.  A symmetric window is evaluated on t <= 1/2
    only: node P/2 + j and its weight equal node P/2 - j's, so the folded
    h_0 = g_(P/2), h_j = 2*g_(P/2-j) give the real, signed
    A(f) = exp(-i*pi*f)*Fhat(f) = sum_j h_j cos(2*pi*f*j/P).
    """
    if np.inf > f_max > 32768.0:
        raise ValueError(f"quadrature is limited to 32768 Hz, got {f_max:.12g} Hz")
    m = _band_size(f_max, pad_factor)
    panels = max(2 ** 15, int(np.ceil(64.0 * ((m - 1) / pad_factor))))
    panels += panels % 2
    t, weights = _simpson_rule(panels)
    df = 1.0 / pad_factor
    if not wdef.symmetric:
        return Spectrum(_band_dft(weights * window_eval(wdef, t), 1.0 / panels, df, m), df)
    h = (weights[: panels // 2 + 1] * window_eval(wdef, t[: panels // 2 + 1]))[::-1]
    h[1:] *= 2.0
    return Spectrum(_band_dft(h, 1.0 / panels, df, m).real.copy(), df)


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
    on the dB values.
    """
    if s.amplitudes.size < 3:
        raise NoNullsFoundError(f"a spectrum of {s.amplitudes.size} bins has no local minimum")
    if s.df > 0.02 + 1e-12:
        raise ValueError(f"grid spacing {s.df} Hz too coarse for segmentation")
    mag = np.abs(s.amplitudes)
    mins = np.flatnonzero((mag[1:-1] < mag[:-2]) & (mag[1:-1] <= mag[2:])) + 1
    if mins.size == 0:
        raise NoNullsFoundError("no spectral local minimum below the scan limit")
    h = s.df
    nulls = _parabolic_vertex(mins * h, h, mag[mins - 1], mag[mins], mag[mins + 1])[0]

    # Lobe i runs from mins[i] + 1 to mins[i + 1]; its closing minimum is
    # never its first largest point, since mag[m] < mag[m - 1].  The peak
    # is the lobe's first bin whose magnitude equals the lobe's maximum:
    # of all lobes' such bins, the first at or after the lobe's start.
    lobes = mag[mins[0] + 1 : mins[-1] + 1]
    starts = mins[:-1] - mins[0]
    tops = np.flatnonzero(lobes == np.repeat(np.maximum.reduceat(lobes, starts), np.diff(mins)))
    k = mins[0] + 1 + tops[np.searchsorted(tops, starts)]
    peak_freqs, peak_db = _parabolic_vertex(k * h, h, *_db(mag[np.stack((k - 1, k, k + 1))], s.dc))
    return LobeSegmentation(nulls=nulls, peak_freqs=peak_freqs, peak_db=peak_db)
