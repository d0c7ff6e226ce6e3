"""Kernel functions B(t) feeding the exponential window construction.

A kernel is a callable B(t) that is strictly positive on the open unit
interval and approaches a non-negative limit at both endpoints; a value
that underflows to exactly 0 in double precision is accepted and gives
W = 0 there.  Two families live here, two-exponent polynomials
t^m (1-t)^n and scaled sines c*sin(pi*t); a catalog window
(``windows.CatalogWindow``) is a callable with a ``peak`` too, and serves
as a kernel as it is.  Each family finds its ``peak`` (t*, B(t*)) when it
is built, t* being m/(m+n) or 1/2, and rejects a B(t*) whose reciprocal
is not finite.  ``kernel_eval`` is the checked way to evaluate any kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np


class InvalidKernelError(ValueError):
    """Kernel parameters or values violate positivity requirements."""


def _checked_peak(kernel, t_star: float) -> Tuple[float, float]:
    """(t*, B(t*)); raises InvalidKernelError unless 1/B(t*) is positive and finite."""
    b_max = float(kernel_eval(kernel, t_star))
    if not b_max > 0.0:
        raise InvalidKernelError(f"kernel {kernel!r} has non-positive maximum {b_max}")
    if not math.isfinite(1.0 / b_max):
        raise InvalidKernelError(f"kernel {kernel!r} has maximum {b_max}, whose reciprocal overflows")
    return t_star, b_max


@dataclass(frozen=True)
class PolynomialKernel:
    """B(t) = t^m (1-t)^n with m, n > 0 and a positive, finite 1/B(t*)."""

    m: float
    n: float
    peak: Tuple[float, float] = field(init=False, repr=False, compare=False)
    symmetric = property(lambda self: self.m == self.n)  # B(t) = B(1 - t)

    def __post_init__(self):
        if not (self.m > 0 and self.n > 0):
            raise InvalidKernelError(
                f"polynomial kernel requires m > 0 and n > 0, got m={self.m}, n={self.n}"
            )
        object.__setattr__(self, "peak", _checked_peak(self, float(self.m / (self.m + self.n))))

    def __call__(self, t):
        # exp(m*ln t + n*ln(1-t)) keeps fractional exponents well defined;
        # the endpoints are mapped to the limit value 0.
        t = np.asarray(t, dtype=float)
        interior = (t > 0.0) & (t < 1.0)
        out = np.zeros_like(t)
        ti = t[interior]
        out[interior] = np.exp(self.m * np.log(ti) + self.n * np.log1p(-ti))
        return out[()]


@dataclass(frozen=True)
class ScaledSineKernel:
    """B(t) = c * sin(pi*t) with c > 0 and a finite 1/c."""

    c: float = 1.0
    peak: Tuple[float, float] = field(init=False, repr=False, compare=False)
    symmetric = True  # sin(pi t) = sin(pi (1 - t))

    def __post_init__(self):
        if not self.c > 0:
            raise InvalidKernelError(f"sine kernel requires c > 0, got c={self.c}")
        object.__setattr__(self, "peak", _checked_peak(self, 0.5))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.c * np.sin(np.pi * np.clip(t, 0.0, 1.0)))
        out[(t <= 0.0) | (t >= 1.0)] = 0.0
        return out[()]


def kernel_eval(kernel, t):
    """Evaluate the kernel B(t) at ``t`` in [0, 1].

    A scalar ``t`` gives a numpy float64, an array ``t`` an array of its
    shape.  Endpoint values are the one-sided limits (0 for polynomial
    and scaled-sine kernels).  Raises InvalidKernelError if the kernel
    is negative or NaN at a requested interior point.
    """
    out = kernel(t)
    # Values at and beyond the endpoints are limits and are not checked; the
    # interior mask is built only when some value fails.
    if not np.all(out >= 0.0) and not np.all(out[np.greater(t, 0.0) & np.less(t, 1.0)] >= 0.0):
        raise InvalidKernelError(f"kernel {kernel!r} is negative or NaN inside (0,1)")
    return out
