"""Acceptance gate: end-to-end checks of the published comparison table,
independent closed-form anchors, dual-path spectral agreement, Parseval
consistency, and the qualitative property suite.

Each criterion prints one [PASS]/[FAIL] line (visible with ``pytest -s``
or on failure).
"""
import math
import time

import numpy as np
import pytest

from expwin.kernels import PolynomialKernel, ScaledSineKernel
from expwin.metrics import N_PANELS, half_width_analytic, half_width_numeric
from expwin.specs import parse_window_spec
from expwin.spectrum import segment_lobes, spectrum_fft, spectrum_quadrature
from expwin.table import TABLE_ROWS, compute_table
from expwin.windows import (
    CATALOG,
    ExpKernelWindow,
    catalog,
    sample,
    window_eval,
)

# Published values per table row:
# (omega0_hz, leakage_pct, sidelobe magnitude dB, sidelobe_width_hz,
#  decay_scale_hz, half_width_0p1s)
EXPECTED_TABLE = {
    "Exp[Welch]": (1.59, 1.01, 20.1, 1.23, 11.2, 5.07),
    "Exp[Sine]": (1.69, 0.76, 21.2, 1.27, 10.4, 4.67),
    "Exp[sin(pi t)/2]": (2.13, 0.22, 25.8, 1.39, 7.80, 3.50),
    "Exp[2 sin(pi t)]": (1.42, 1.74, 18.2, 1.20, 14.1, 5.98),
    "Exp[Hann]": (2.27, 0.40, 23.5, 1.62, 10.1, 3.39),
    "Exp[Kaiser a=8/pi]": (2.70, 0.24, 25.4, 1.87, 10.0, 2.80),
    "Exp[Tukey a=0.5]": (1.40, 4.87, 14.3, 1.40, 13.3, 6.69),
    "Exp poly n=0.1": (1.05, 6.51, 14.4, 1.01, 140.6, 9.63),
    "Exp poly n=0.25": (1.19, 3.11, 16.5, 1.04, 37.9, 7.64),
    "Exp poly n=0.5": (1.52, 0.89, 20.7, 1.14, 12.7, 5.23),
    "Exp poly n=1.0": (2.61, 0.06, 30.5, 1.48, 7.29, 2.83),
    "Exp poly n=1.5": (4.68, 0.00, 44.2, 1.98, 7.24, 1.67),
    "Exp poly n=2.0": (8.71, 0.00, 65.5, 2.65, 9.38, 1.03),
    "Rectangular": (1.00, 9.71, 13.3, 1.00, 317.5, 10.0),
    "Triangular": (2.00, 0.29, 26.5, 2.00, 21.0, 2.93),
    "Welch": (1.43, 0.79, 21.3, 1.03, 18.0, 5.41),
    "Sine": (1.50, 0.51, 23.0, 1.00, 16.0, 5.00),
    "Hann": (2.00, 0.05, 31.5, 1.00, 7.46, 3.64),
    "Hamming": (2.00, 0.04, 44.1, 0.60, 47.5, 3.82),
    "Gaussian s=0.5": (1.11, 4.48, 16.5, 0.95, 225.5, 8.32),
    "Cauchy-Lorentz g=0.5": (1.18, 2.94, 19.0, 0.86, 202.5, 6.43),
    "Poisson tau=0.5": (1.30, 2.19, 25.5, 0.61, 185.5, 3.47),
    "Kaiser a=8/pi": (2.74, 0.00, 58.7, 0.51, 3.54, 3.01),
    "Tukey a=0.3": (1.18, 6.16, 13.8, 1.17, 9.67, 8.09),
    "Tukey a=0.5": (1.34, 3.75, 15.1, 1.33, 9.63, 6.82),
    "Tukey a=0.7": (1.54, 1.62, 18.2, 1.54, 4.45, 5.55),
    "Planck-taper e=0.15": (1.18, 6.96, 13.6, 1.17, 13.0, 8.18),
    "Planck-taper e=0.25": (1.34, 4.92, 14.3, 1.33, 7.90, 6.97),
    "Planck-taper e=0.35": (1.54, 2.86, 16.0, 1.54, 9.62, 5.76),
}

POLY_EXPONENTS = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0]
NODES = np.linspace(0.0, 1.0, N_PANELS + 1)  # the Simpson nodes full_report evaluates the window at


def _report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table():
    start = time.perf_counter()
    rows = compute_table()
    return rows, time.perf_counter() - start


def test_criterion_1_table_reproduction(table):
    rows, elapsed = table
    failures = []
    for (label, _), r in zip(TABLE_ROWS, rows):
        exp = EXPECTED_TABLE[label]
        got = (
            r.omega0_hz,
            r.leakage_pct,
            -r.sidelobe_db,
            r.sidelobe_width_hz,
            r.decay_scale_hz,
            r.half_width_0p1s,
        )
        sw_tol = 0.1 if label == "Poisson tau=0.5" else 0.05
        tols = (0.03, 0.15, 0.5, sw_tol, 0.05 * exp[4], 0.03)
        for name, g, e, tol in zip(
            ("omega0", "leakage", "sidelobe", "sidelobe_width", "decay", "half_width"),
            got,
            exp,
            tols,
        ):
            if abs(g - e) > tol:
                failures.append(f"{label}.{name}: got {g:.4f}, expected {e} +/- {tol:.3g}")
    if elapsed >= 60.0:
        failures.append(f"table runtime {elapsed:.1f}s >= 60s")
    _report(
        "criterion 1: full table reproduction",
        not failures,
        "; ".join(failures) or f"{len(rows)} rows in {elapsed:.1f}s",
    )


def test_criterion_2_analytic_half_width():
    failures = []
    for n in POLY_EXPONENTS:
        analytic = half_width_analytic(n)
        wdef = ExpKernelWindow(PolynomialKernel(n, n))
        numeric = half_width_numeric(wdef, window_eval(wdef, NODES))
        if abs(analytic - numeric) >= 0.02:
            failures.append(f"n={n}: analytic {analytic:.4f} vs bisection {numeric:.4f}")
        tabulated = EXPECTED_TABLE[f"Exp poly n={n}"][5]
        if abs(analytic - tabulated) >= 0.03:
            failures.append(f"n={n}: analytic {analytic:.4f} vs tabulated {tabulated}")
    _report("criterion 2: analytic half width", not failures, "; ".join(failures))


def test_criterion_3_spectral_oracle():
    worst = ("", 0.0)
    for wid in sorted(CATALOG):
        wdef = catalog(wid)
        s_f = spectrum_fft(sample(wdef, 8192), 128, 50.0)
        s_q = spectrum_quadrature(wdef, 128, 50.0)
        rel = float(np.max(np.abs(s_f.magnitudes - s_q.magnitudes)) / s_q.magnitudes[0])
        if rel > worst[1]:
            worst = (wid, rel)
    _report(
        "criterion 3: FFT vs quadrature oracle",
        worst[1] < 1e-4,
        f"worst {worst[0]}: {worst[1]:.2e}",
    )


def test_criterion_4_parseval():
    failures = []
    worst = 0.0
    for _, spec in TABLE_ROWS:
        wdef = parse_window_spec(spec)
        s = spectrum_fft(sample(wdef, 8192), 128, 500.0)
        m2 = s.magnitudes ** 2
        n = m2.size - 1 - ((m2.size - 1) % 2)
        wts = np.ones(n + 1)
        wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
        freq_energy = 2.0 * (s.df / 3.0) * float(np.dot(wts, m2[: n + 1]))
        tp = 2 ** 15
        t = np.linspace(0.0, 1.0, tp + 1)
        tw = np.ones(tp + 1)
        tw[1:-1:2], tw[2:-1:2] = 4.0, 2.0
        time_energy = float(np.dot(tw, np.asarray(window_eval(wdef, t)) ** 2)) / (3.0 * tp)
        ratio = freq_energy / time_energy
        worst = max(worst, abs(ratio - 1.0))
        if not 0.995 <= ratio <= 1.005:
            failures.append(f"{spec}: ratio {ratio:.5f}")
    _report("criterion 4: Parseval energy check", not failures, f"max deviation {worst:.2e}")


def test_criterion_5_closed_form_anchors():
    failures = []
    seg = segment_lobes(spectrum_fft(sample(catalog("rectangular"), 8192), 128, 10.0))
    # sinc anchors: first zero at 1 Hz; first sidelobe via brute-force
    # maximization of |sin(pi f)/(pi f)| on (1, 2)
    fg = np.linspace(1.0, 2.0, 200001)[1:-1]
    mg = np.abs(np.sin(np.pi * fg) / (np.pi * fg))
    k = int(np.argmax(mg))
    anchor_db = 20.0 * math.log10(mg[k])
    if abs(seg.nulls[0] - 1.000) > 0.005:
        failures.append(f"first null {seg.nulls[0]:.4f} vs 1.000")
    if abs(seg.peak_db[0] - anchor_db) > 0.1:
        failures.append(f"first sidelobe {seg.peak_db[0]:.3f} dB vs {anchor_db:.3f} dB")
    half = half_width_numeric(catalog("sine"), window_eval(catalog("sine"), NODES)) / 10.0
    if abs(half - 0.5) > 1e-6:
        failures.append(f"sine half width {half:.8f} vs 0.5")
    _report("criterion 5: closed-form sanity anchors", not failures, "; ".join(failures))


def test_criterion_6_property_suite(table):
    rows, _ = table
    failures = []

    t = np.linspace(0, 1, 1001)
    for n in (0.5, 1.0, 2.0):
        v = window_eval(ExpKernelWindow(PolynomialKernel(n, n)), t)
        if np.max(np.abs(v - v[::-1])) > 1e-12:
            failures.append(f"symmetry n={n}")
        if abs(v.max() - 1.0) > 1e-12:
            failures.append(f"normalization n={n}")

    base = window_eval(ExpKernelWindow(ScaledSineKernel(1.0)), t)
    for c in (0.5, 2.0):
        if np.max(np.abs(window_eval(ExpKernelWindow(ScaledSineKernel(c)), t) - base ** (1.0 / c))) > 1e-12:
            failures.append(f"coefficient-power c={c}")

    by_label = {label: r for (label, _), r in zip(TABLE_ROWS, rows)}
    omega = [by_label[f"Exp poly n={n}"].omega0_hz for n in POLY_EXPONENTS]
    delta = [by_label[f"Exp poly n={n}"].half_width_0p1s for n in POLY_EXPONENTS]
    if not all(a < b for a, b in zip(omega, omega[1:])):
        failures.append("omega0 not increasing in n")
    if not all(a > b for a, b in zip(delta, delta[1:])):
        failures.append("half width not decreasing in n")

    for m, n in ((1.0, 2.0), (2.0, 1.0), (0.7, 1.9)):
        t_star, _ = PolynomialKernel(m, n).peak
        if abs(t_star - m / (m + n)) > 1e-12:
            failures.append(f"argmax m={m},n={n}")
    _report("criterion 6: property suite", not failures, "; ".join(failures))


def test_criterion_7_shape_match_claim():
    t = np.linspace(0, 1, 1001)
    gap = float(
        np.max(np.abs(window_eval(ExpKernelWindow(PolynomialKernel(0.6, 0.6)), t) - np.sin(np.pi * t)))
    )
    _report("criterion 7: n=0.6 shape match to sine", gap < 0.03, f"max gap {gap:.5f}")
