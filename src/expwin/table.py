"""Composition of the full window-comparison table.

Rows appear in a fixed order: the seven kernel reconstructions, the six
symmetric polynomial exponents, then the classical catalog (with Tukey
and Planck-taper expanded to their three tabulated parameter values).
"""
from __future__ import annotations

import math
from typing import List

from .metrics import MetricsReport, full_report
from .specs import parse_window_spec

KAISER_ALPHA = 8.0 / math.pi

# (label, spec string) in table order
TABLE_ROWS = [
    ("Exp[Welch]", "exp:win:welch"),
    ("Exp[Sine]", "exp:win:sine"),
    ("Exp[sin(pi t)/2]", "exp:sine:c=0.5"),
    ("Exp[2 sin(pi t)]", "exp:sine:c=2.0"),
    ("Exp[Hann]", "exp:win:hann"),
    ("Exp[Kaiser a=8/pi]", f"exp:win:kaiser:alpha={KAISER_ALPHA!r}"),
    ("Exp[Tukey a=0.5]", "exp:win:tukey:alpha=0.5"),
    ("Exp poly n=0.1", "exp:poly:m=0.1,n=0.1"),
    ("Exp poly n=0.25", "exp:poly:m=0.25,n=0.25"),
    ("Exp poly n=0.5", "exp:poly:m=0.5,n=0.5"),
    ("Exp poly n=1.0", "exp:poly:m=1.0,n=1.0"),
    ("Exp poly n=1.5", "exp:poly:m=1.5,n=1.5"),
    ("Exp poly n=2.0", "exp:poly:m=2.0,n=2.0"),
    ("Rectangular", "rectangular"),
    ("Triangular", "triangular"),
    ("Welch", "welch"),
    ("Sine", "sine"),
    ("Hann", "hann"),
    ("Hamming", "hamming"),
    ("Gaussian s=0.5", "gaussian:sigma=0.5"),
    ("Cauchy-Lorentz g=0.5", "cauchy_lorentz:gamma=0.5"),
    ("Poisson tau=0.5", "poisson:tau=0.5"),
    ("Kaiser a=8/pi", f"kaiser:alpha={KAISER_ALPHA!r}"),
    ("Tukey a=0.3", "tukey:alpha=0.3"),
    ("Tukey a=0.5", "tukey:alpha=0.5"),
    ("Tukey a=0.7", "tukey:alpha=0.7"),
    ("Planck-taper e=0.15", "planck_taper:epsilon=0.15"),
    ("Planck-taper e=0.25", "planck_taper:epsilon=0.25"),
    ("Planck-taper e=0.35", "planck_taper:epsilon=0.35"),
]


def compute_table() -> List[MetricsReport]:
    """Metrics for every row of ``TABLE_ROWS``, in order.

    A failing row raises the ``MetricsError`` of ``full_report``, whose
    message starts with the row's label.
    """
    return [full_report(parse_window_spec(spec), label=label) for label, spec in TABLE_ROWS]
