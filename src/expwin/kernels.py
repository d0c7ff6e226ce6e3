"""Kernel functions B(t) feeding the exponential window construction.

A kernel is any function that is strictly positive on the open unit
interval and approaches a non-negative limit at both endpoints; a value
that underflows to exactly 0 in double precision is accepted and gives
W = 0 there.  Three
families are supported: two-exponent polynomials t^m (1-t)^n, scaled
sines c*sin(pi*t), and wrapped catalog windows (the window itself acts
as the kernel).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np


class InvalidKernelError(ValueError):
    """Kernel parameters or values violate positivity requirements."""


@dataclass(frozen=True)
class PolynomialKernel:
    """B(t) = t^m (1-t)^n with m, n > 0."""

    m: float
    n: float

    def __post_init__(self):
        if not (self.m > 0 and self.n > 0):
            raise InvalidKernelError(
                f"polynomial kernel requires m > 0 and n > 0, got m={self.m}, n={self.n}"
            )


@dataclass(frozen=True)
class ScaledSineKernel:
    """B(t) = c * sin(pi*t) with c > 0."""

    c: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise InvalidKernelError(f"sine kernel requires c > 0, got c={self.c}")


@dataclass(frozen=True)
class WrappedWindowKernel:
    """B(t) = W(t) for a catalog window, identified by id and parameters."""

    window_id: str
    params: Tuple[Tuple[str, float], ...] = ()

    @property
    def params_dict(self) -> dict:
        return dict(self.params)


KernelSpec = Union[PolynomialKernel, ScaledSineKernel, WrappedWindowKernel]


def kernel_eval(spec: KernelSpec, t):
    """Evaluate B(t) for scalar or array ``t`` in [0, 1].

    Endpoint values are the one-sided limits (0 for polynomial and
    scaled-sine kernels).  Raises InvalidKernelError if the kernel is
    negative or NaN at a requested interior point.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)

    if isinstance(spec, PolynomialKernel):
        # exp(m*ln t + n*ln(1-t)) keeps fractional exponents well defined;
        # the endpoints are mapped to the limit value 0.
        out = np.zeros_like(t_arr)
        interior = (t_arr > 0.0) & (t_arr < 1.0)
        ti = t_arr[interior]
        out[interior] = np.exp(spec.m * np.log(ti) + spec.n * np.log1p(-ti))
    elif isinstance(spec, ScaledSineKernel):
        out = spec.c * np.sin(np.pi * np.clip(t_arr, 0.0, 1.0))
        out[(t_arr <= 0.0) | (t_arr >= 1.0)] = 0.0
    elif isinstance(spec, WrappedWindowKernel):
        from .windows import catalog_eval  # windows imports this module

        out = catalog_eval(spec.window_id, spec.params_dict, t_arr)
    else:
        raise TypeError(f"unknown kernel spec: {spec!r}")

    interior = (t_arr > 0.0) & (t_arr < 1.0)
    if not np.all(out[interior] >= 0.0):
        raise InvalidKernelError(f"kernel {spec!r} is negative or NaN inside (0,1)")
    return float(out[0]) if scalar else out


def kernel_max(spec: KernelSpec) -> Tuple[float, float]:
    """Locate the maximum of B(t) on (0, 1).

    Returns ``(t_star, b_max)`` in closed form: t_star = m/(m+n) for
    polynomial kernels, and 1/2 for scaled sines and wrapped catalog
    windows, which are all symmetric about 1/2 and peak there.
    """
    t_star = spec.m / (spec.m + spec.n) if isinstance(spec, PolynomialKernel) else 0.5
    b_max = kernel_eval(spec, t_star)
    if not b_max > 0.0:
        raise InvalidKernelError(f"kernel {spec!r} has non-positive maximum {b_max}")
    return float(t_star), float(b_max)
