"""Window catalog and the exponential kernel reconstruction.

All windows live on the unit interval: W(t) is given by its formula for
t in [0, 1] and is identically zero outside.  Windows built from a
kernel B(t) take the form W(t) = exp(1/B_max - 1/B(t)), which vanishes
with all derivatives at both endpoints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .kernels import KernelSpec, kernel_eval, kernel_max

# exp() underflows to 0 below roughly exp(-745); beyond that the true
# window value is indistinguishable from zero in double precision.
_UNDERFLOW_EXPONENT = 745.0


class BadParameterError(ValueError):
    """Window parameter outside its documented range."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BadParameterError(msg)


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
    sigma = p["sigma"]
    _require(sigma > 0, f"gaussian sigma must be > 0, got {sigma}")
    return np.exp(-0.5 * ((t - 0.5) / sigma) ** 2)


def _w_cauchy_lorentz(t, p):
    gamma = p["gamma"]
    _require(gamma > 0, f"cauchy_lorentz gamma must be > 0, got {gamma}")
    return gamma ** 2 / ((t - 0.5) ** 2 + gamma ** 2)


def _w_poisson(t, p):
    tau = p["tau"]
    _require(tau > 0, f"poisson tau must be > 0, got {tau}")
    return np.exp(-np.abs(t - 0.5) / tau)


def _w_kaiser(t, p):
    alpha = p["alpha"]
    _require(alpha > 0, f"kaiser alpha must be > 0, got {alpha}")
    arg = np.pi * alpha * np.sqrt(np.clip(1.0 - (2.0 * t - 1.0) ** 2, 0.0, None))
    return np.i0(arg) / float(np.i0(np.pi * alpha))


def _w_tukey(t, p):
    alpha = p["alpha"]
    _require(0 < alpha < 1, f"tukey alpha must be in (0,1), got {alpha}")
    out = np.ones_like(t)
    left = t < alpha / 2.0
    right = t > 1.0 - alpha / 2.0
    out[left] = 0.5 * (1.0 - np.cos(2.0 * np.pi * t[left] / alpha))
    out[right] = 0.5 * (1.0 - np.cos(2.0 * np.pi * (1.0 - t[right]) / alpha))
    return out


def _w_planck_taper(t, p):
    eps = p["epsilon"]
    _require(0 < eps < 0.5, f"planck_taper epsilon must be in (0,0.5), got {eps}")
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
    _require(alpha > 0, f"avci_exp alpha must be > 0, got {alpha}")
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


def catalog_eval(window_id: str, params: Optional[Mapping[str, float]], t):
    """Evaluate a catalog window at scalar or array ``t``.

    The formula value is returned on [0, 1]; outside the unit interval
    the window is zero.
    """
    if window_id not in CATALOG:
        raise BadParameterError(f"unknown window id: {window_id!r}")
    fn, defaults, _ = CATALOG[window_id]
    p = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise BadParameterError(f"{window_id} does not take parameters {sorted(unknown)}")
        p.update(params)

    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    out = np.asarray(fn(t_arr, p), dtype=float)
    out[(t_arr < 0.0) | (t_arr > 1.0)] = 0.0
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CatalogWindow:
    window_id: str
    params: Tuple[Tuple[str, float], ...] = ()

    @property
    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class ExpKernelWindow:
    kernel: KernelSpec


WindowDef = Union[CatalogWindow, ExpKernelWindow]


def catalog(window_id: str, **params: float) -> CatalogWindow:
    """Build a CatalogWindow, validating id and parameters."""
    w = CatalogWindow(window_id, tuple(sorted(params.items())))
    catalog_eval(window_id, params, 0.5)  # validate eagerly
    return w


def exp_window_eval(kernel: KernelSpec, t):
    """Exponential reconstruction W(t) = exp(1/B_max - 1/B(t)).

    Zero outside (0, 1), wherever B(t) underflows to 0, and wherever the
    exponent falls below the double-precision underflow threshold.
    """
    _, b_max = kernel_max(kernel)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)

    out = np.zeros_like(t_arr)
    interior = (t_arr > 0.0) & (t_arr < 1.0)
    b = kernel_eval(kernel, t_arr[interior])
    b = np.atleast_1d(np.asarray(b, dtype=float))
    with np.errstate(divide="ignore"):
        exponent = 1.0 / b_max - 1.0 / b
    vals = np.where(exponent < -_UNDERFLOW_EXPONENT, 0.0, np.exp(np.maximum(exponent, -_UNDERFLOW_EXPONENT)))
    out[interior] = vals
    return float(out[0]) if scalar else out


def window_eval(wdef: WindowDef, t):
    """Evaluate any WindowDef at scalar or array ``t``."""
    if isinstance(wdef, CatalogWindow):
        return catalog_eval(wdef.window_id, wdef.params_dict, t)
    if isinstance(wdef, ExpKernelWindow):
        return exp_window_eval(wdef.kernel, t)
    raise TypeError(f"unknown window definition: {wdef!r}")


@dataclass(frozen=True)
class SampledWindow:
    """Uniform samples W(k/N), k = 0..N-1, over a one-second record."""

    values: np.ndarray
    n_samples: int

    @property
    def dt(self) -> float:
        return 1.0 / self.n_samples


def sample(wdef: WindowDef, n_samples: int) -> SampledWindow:
    """Sample a window on the grid t_k = k/n_samples."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    t = np.arange(n_samples) / n_samples
    values = np.asarray(window_eval(wdef, t), dtype=float)
    return SampledWindow(values=values, n_samples=n_samples)
