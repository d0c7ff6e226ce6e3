"""Kernel functions B(t) feeding the exponential window construction.

A kernel is any function that is strictly positive on the open unit
interval and approaches a non-negative limit at both endpoints; a value
that underflows to exactly 0 in double precision is accepted and gives
W = 0 there.  Three families are supported: two-exponent polynomials
t^m (1-t)^n, scaled sines c*sin(pi*t), and catalog windows
(``windows.CatalogWindow``), where the window itself acts as the kernel.
Each finds its ``peak`` (t*, B(t*)) when it is built; t* is m/(m+n) or 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple, Union

import numpy as np

if TYPE_CHECKING:
    from .windows import CatalogWindow


class InvalidKernelError(ValueError):
    """Kernel parameters or values violate positivity requirements."""


@dataclass(frozen=True)
class PolynomialKernel:
    """B(t) = t^m (1-t)^n with m, n > 0 and a positive B(t*)."""

    m: float
    n: float
    peak: Tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.m > 0 and self.n > 0):
            raise InvalidKernelError(
                f"polynomial kernel requires m > 0 and n > 0, got m={self.m}, n={self.n}"
            )
        t_star = float(self.m / (self.m + self.n))
        object.__setattr__(self, "peak", (t_star, float(kernel_eval(self, t_star))))
        if not self.peak[1] > 0.0:
            raise InvalidKernelError(f"kernel {self!r} has non-positive maximum {self.peak[1]}")


@dataclass(frozen=True)
class ScaledSineKernel:
    """B(t) = c * sin(pi*t) with c > 0."""

    c: float = 1.0
    peak: Tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.c > 0:
            raise InvalidKernelError(f"sine kernel requires c > 0, got c={self.c}")
        object.__setattr__(self, "peak", (0.5, float(kernel_eval(self, 0.5))))


KernelSpec = Union[PolynomialKernel, ScaledSineKernel, "CatalogWindow"]


def kernel_eval(spec: KernelSpec, t):
    """Evaluate B(t) at ``t`` in [0, 1].

    A scalar ``t`` gives a numpy float64, an array ``t`` an array of its
    shape.  Endpoint values are the one-sided limits (0 for polynomial
    and scaled-sine kernels).  Raises InvalidKernelError if the kernel
    is negative or NaN at a requested interior point.
    """
    t = np.asarray(t, dtype=float)
    interior = (t > 0.0) & (t < 1.0)
    if isinstance(spec, PolynomialKernel):
        # exp(m*ln t + n*ln(1-t)) keeps fractional exponents well defined;
        # the endpoints are mapped to the limit value 0.
        out = np.zeros_like(t)
        ti = t[interior]
        out[interior] = np.exp(spec.m * np.log(ti) + spec.n * np.log1p(-ti))
    elif isinstance(spec, ScaledSineKernel):
        out = np.asarray(spec.c * np.sin(np.pi * np.clip(t, 0.0, 1.0)))
        out[(t <= 0.0) | (t >= 1.0)] = 0.0
    else:
        from .windows import CatalogWindow, catalog_eval  # windows imports this module

        if not isinstance(spec, CatalogWindow):
            raise TypeError(f"unknown kernel spec: {spec!r}")
        out = catalog_eval(spec, t)

    if not np.all(out[interior] >= 0.0):
        raise InvalidKernelError(f"kernel {spec!r} is negative or NaN inside (0,1)")
    return out[()]

