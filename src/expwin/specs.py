"""Textual window specifications.

Grammar::

    <id>[:key=val[,key=val...]]     catalog window, e.g. tukey:alpha=0.5
    exp:poly:m=<r>,n=<r>            polynomial-kernel reconstruction
    exp:sine:c=<r>                  scaled-sine-kernel reconstruction
    exp:win:<catalog-spec>          reconstruction with a catalog window as kernel

Each key may appear once.  ``parse_window_spec`` and ``format_window_spec``
round-trip exactly.
"""
from __future__ import annotations

import math
from typing import Dict

from .kernels import PolynomialKernel, ScaledSineKernel
from .windows import BadParameterError, CatalogWindow, ExpKernelWindow, WindowDef


class SpecParseError(ValueError):
    """Malformed window spec string."""


def _parse_params(text: str, context: str) -> Dict[str, float]:
    params = {}
    for item in text.split(","):
        if "=" not in item:
            raise SpecParseError(f"expected key=value in {context!r}, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        try:
            value = float(val)
        except ValueError:
            raise SpecParseError(f"non-numeric value {val!r} for {key!r} in {context!r}") from None
        if not math.isfinite(value):
            raise SpecParseError(f"non-finite value {val!r} for {key!r} in {context!r}")
        if key in params:
            raise SpecParseError(f"repeated key {key!r} in {context!r}")
        params[key] = value
    return params


def _parse_catalog(text: str) -> CatalogWindow:
    window_id, _, rest = text.partition(":")
    params = _parse_params(rest, text) if rest else {}
    try:
        return CatalogWindow(window_id, tuple(sorted(params.items())))
    except BadParameterError as exc:
        raise SpecParseError(str(exc)) from exc


def parse_window_spec(text: str) -> WindowDef:
    """Parse a window spec string into a WindowDef."""
    text = text.strip()
    if not text:
        raise SpecParseError("empty window spec")
    if not text.startswith("exp:"):
        return _parse_catalog(text)

    rest = text[4:]
    kind, _, args = rest.partition(":")
    if kind == "poly":
        p = _parse_params(args, text)
        if set(p) != {"m", "n"}:
            raise SpecParseError(f"exp:poly takes exactly m and n, got {sorted(p)} in {text!r}")
        return ExpKernelWindow(PolynomialKernel(m=p["m"], n=p["n"]))
    if kind == "sine":
        p = _parse_params(args, text) if args else {"c": 1.0}
        if set(p) != {"c"}:
            raise SpecParseError(f"exp:sine takes exactly c, got {sorted(p)} in {text!r}")
        return ExpKernelWindow(ScaledSineKernel(c=p["c"]))
    if kind == "win":
        return ExpKernelWindow(_parse_catalog(args))
    raise SpecParseError(f"unknown reconstruction kind {kind!r} in {text!r}")


def format_window_spec(wdef: WindowDef) -> str:
    """Canonical spec string for a WindowDef."""
    if isinstance(wdef, CatalogWindow):
        params = ",".join(f"{k}={v!r}" for k, v in sorted(wdef.params))
        return f"{wdef.window_id}:{params}" if params else wdef.window_id
    if isinstance(wdef, ExpKernelWindow):
        k = wdef.kernel
        if isinstance(k, PolynomialKernel):
            return f"exp:poly:m={k.m!r},n={k.n!r}"
        if isinstance(k, ScaledSineKernel):
            return f"exp:sine:c={k.c!r}"
        if isinstance(k, CatalogWindow):
            return "exp:win:" + format_window_spec(k)
    raise TypeError(f"cannot format {wdef!r}")
