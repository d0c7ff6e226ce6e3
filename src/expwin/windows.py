"""Window catalog and the exponential kernel reconstruction.

All windows live on the unit interval: W(t) is given by its formula for
t in [0, 1] and is identically zero outside.  Windows built from a
kernel B(t) take the form W(t) = exp(1/B_max - 1/B(t)), which vanishes
with all derivatives at both endpoints.  Every window is a callable W(t)
with a ``peak`` (t*, W(t*)) and ``symmetric``, true if W(t) = W(1 - t);
``window_eval`` is the one entry point that evaluates it.  A
``CatalogWindow`` checks its id and parameters and finds its ``peak``
(1/2, W(1/2)) when built, so evaluating one raises nothing; an exponential
window peaks at its kernel's t*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

import numpy as np

from .kernels import PolynomialKernel, ScaledSineKernel, kernel_eval

# exp() underflows to 0 below roughly exp(-745); beyond that the true
# window value is indistinguishable from zero in double precision.
_UNDERFLOW_EXPONENT = 745.0


class BadParameterError(ValueError):
    """Window parameter outside its documented range."""


def _w_rectangular(t, p):
    return np.ones_like(t)


def _w_triangular(t, p):
    # Bartlett form reaching 0 at both endpoints.
    return 1.0 - 2.0 * np.abs(t - 0.5)


def _w_welch(t, p):
    return 4.0 * t * (1.0 - t)


def _w_sine(t, p):
    return np.sin(np.pi * t)


def _w_hann(t, p):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * t)


def _w_hamming(t, p):
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * t)


def _w_gaussian(t, p):
    with np.errstate(over="ignore"):  # an infinite quotient correctly gives W = 0
        return np.exp(-0.5 * ((t - 0.5) / p["sigma"]) ** 2)


def _w_cauchy_lorentz(t, p):
    gamma = np.float64(p["gamma"])  # gamma ** 2 overflows to inf, not OverflowError
    return gamma ** 2 / ((t - 0.5) ** 2 + gamma ** 2)


def _w_poisson(t, p):
    with np.errstate(over="ignore"):  # an infinite quotient correctly gives W = 0
        return np.exp(-np.abs(t - 0.5) / p["tau"])


def _w_kaiser(t, p):
    alpha = p["alpha"]
    arg = np.pi * alpha * np.sqrt(np.clip(1.0 - (2.0 * t - 1.0) ** 2, 0.0, None))
    i0 = np.i0(np.append(arg, np.pi * alpha))  # one call: np.i0 has a large fixed cost
    return i0[:-1] / i0[-1]


def _w_tukey(t, p):
    alpha = p["alpha"]
    out = np.ones_like(t)
    left = t < alpha / 2.0
    right = 1.0 - t < alpha / 2.0  # not t > 1 - alpha/2, which rounds to t > 1 for alpha < 2^-52
    out[left] = 0.5 * (1.0 - np.cos(2.0 * np.pi * t[left] / alpha))
    out[right] = 0.5 * (1.0 - np.cos(2.0 * np.pi * (1.0 - t[right]) / alpha))
    return out


def _w_planck_taper(t, p):
    eps = p["epsilon"]
    out = np.ones_like(t)
    left = (t > 0.0) & (t < eps)
    right = (t > 1.0 - eps) & (t < 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        zl = eps / t[left] + eps / (t[left] - eps)
        out[left] = 1.0 / (1.0 + np.exp(np.minimum(zl, _UNDERFLOW_EXPONENT)))
        zr = eps / (1.0 - t[right]) + eps / (1.0 - t[right] - eps)
        out[right] = 1.0 / (1.0 + np.exp(np.minimum(zr, _UNDERFLOW_EXPONENT)))
    out[(t <= 0.0) | (t >= 1.0)] = 0.0
    return out


def _w_avci_exp(t, p):
    alpha = p["alpha"]
    return np.exp(alpha * np.sqrt(np.clip(1.0 - 4.0 * (t - 0.5) ** 2, 0.0, None)) - alpha)


# id -> (eval, default params, formula string)
CATALOG: Dict[str, tuple] = {
    "rectangular": (_w_rectangular, {}, "1"),
    "triangular": (_w_triangular, {}, "1 - 2|t - 1/2|"),
    "welch": (_w_welch, {}, "4t(1-t)"),
    "sine": (_w_sine, {}, "sin(pi t)"),
    "hann": (_w_hann, {}, "0.5 - 0.5 cos(2 pi t)"),
    "hamming": (_w_hamming, {}, "0.54 - 0.46 cos(2 pi t)"),
    "gaussian": (_w_gaussian, {"sigma": 0.5}, "exp(-((t-0.5)/sigma)^2 / 2)"),
    "cauchy_lorentz": (_w_cauchy_lorentz, {"gamma": 0.5}, "gamma^2 / ((t-0.5)^2 + gamma^2)"),
    "poisson": (_w_poisson, {"tau": 0.5}, "exp(-|t-0.5|/tau)"),
    "kaiser": (_w_kaiser, {"alpha": 8.0 / math.pi}, "I0(pi a sqrt(1-(2t-1)^2)) / I0(pi a)"),
    "tukey": (_w_tukey, {"alpha": 0.5}, "cosine-tapered flat top, taper fraction alpha"),
    "planck_taper": (_w_planck_taper, {"epsilon": 0.25}, "Planck taper, taper fraction epsilon"),
    "avci_exp": (_w_avci_exp, {"alpha": 2.0}, "exp(a sqrt(1-4(t-0.5)^2)) / exp(a)"),
}

# Open range (low, high) of each parameter; a parameter not listed must be > 0.
_OPEN_RANGES = {("tukey", "alpha"): (0.0, 1.0), ("planck_taper", "epsilon"): (0.0, 0.5)}


@dataclass(frozen=True)
class CatalogWindow:
    """A catalog window by id and sorted parameters; also the kernel of exp:win: windows.

    Raises BadParameterError on an unknown id, an unknown or repeated key, a value out of
    range or a non-finite W(1/2)."""

    window_id: str
    params: Tuple[Tuple[str, float], ...] = ()
    peak: Tuple[float, float] = field(init=False, repr=False, compare=False)
    symmetric = True  # every catalog formula has W(t) = W(1 - t)

    def __post_init__(self):
        if self.window_id not in CATALOG:
            raise BadParameterError(f"unknown window id {self.window_id!r}")
        keys = [key for key, _ in self.params]
        if len(set(keys)) < len(keys):
            raise BadParameterError(f"{self.window_id} takes each parameter once, got {keys}")
        unknown = set(keys) - set(CATALOG[self.window_id][1])
        if unknown:
            raise BadParameterError(f"{self.window_id} does not take parameters {sorted(unknown)}")
        for key, value in self.params:
            low, high = _OPEN_RANGES.get((self.window_id, key), (0.0, math.inf))
            if not low < value < high:
                bound = f"> {low:g}" if high == math.inf else f"in ({low:g},{high:g})"
                raise BadParameterError(f"{self.window_id} {key} must be {bound}, got {value}")
        with np.errstate(all="ignore"):
            w_half = float(self(0.5))
        if not math.isfinite(w_half):
            raise BadParameterError(f"{self.window_id} {dict(self.params)} gives a non-finite W(1/2)")
        object.__setattr__(self, "peak", (0.5, w_half))

    def __call__(self, t):
        """W(t), raising nothing; unset parameters take the id's defaults."""
        fn, defaults, _ = CATALOG[self.window_id]
        p = {**defaults, **dict(self.params)}
        t = np.asarray(t, dtype=float)
        # Formulas see a 1-d array inside [0, 1]: a scalar t gets array arithmetic
        # (numpy scalar ** and np.i0 differ in the last bit), and none overflows.
        out = np.asarray(fn(np.clip(t, 0.0, 1.0).reshape(-1), p), dtype=float).reshape(t.shape)
        out[(t < 0.0) | (t > 1.0)] = 0.0
        return out[()]


KernelSpec = Union[PolynomialKernel, ScaledSineKernel, CatalogWindow]


@dataclass(frozen=True)
class ExpKernelWindow:
    kernel: KernelSpec
    symmetric = property(lambda self: self.kernel.symmetric)

    @property
    def peak(self) -> Tuple[float, float]:
        return self.kernel.peak[0], 1.0

    def __call__(self, t):
        """W(t) = exp(1/B_max - 1/B(t)); zero outside (0, 1), wherever B(t) underflows
        to 0 or 1/B(t) overflows, and where the exponent is below exp()'s underflow."""
        b_max = self.kernel.peak[1]
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        interior = (t > 0.0) & (t < 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            exponent = 1.0 / b_max - 1.0 / kernel_eval(self.kernel, t[interior])
        out[interior] = np.where(exponent < -_UNDERFLOW_EXPONENT, 0.0, np.exp(exponent))
        return out[()]


WindowDef = Union[CatalogWindow, ExpKernelWindow]


def catalog(window_id: str, **params: float) -> CatalogWindow:
    """Build a CatalogWindow from keyword parameters (checked as the constructor checks them)."""
    return CatalogWindow(window_id, tuple(sorted(params.items())))


def window_eval(wdef: WindowDef, t):
    """Evaluate any WindowDef at ``t``: a numpy float64 for a scalar
    ``t``, an array of its shape for an array ``t``."""
    return wdef(t)


def sample(wdef: WindowDef, n_samples: int) -> np.ndarray:
    """Sample a window on the grid t_k = k/n_samples, k = 0..n_samples-1."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    t = np.arange(n_samples) / n_samples
    return window_eval(wdef, t)
