import math

import numpy as np
import pytest

from expwin import metrics
from expwin.kernels import PolynomialKernel, ScaledSineKernel
from expwin.metrics import (
    InsufficientLobesError,
    MetricsError,
    NotConvergedError,
    decay_scale,
    energy_leakage,
    first_sidelobe,
    full_report,
    half_width_analytic,
    half_width_numeric,
    main_lobe_width,
)
from expwin.spectrum import LobeSegmentation, segment_lobes, spectrum_fft
from expwin.windows import CATALOG, CatalogWindow, ExpKernelWindow, catalog, sample

KAISER_ALPHA = 8 / math.pi


def _segment(wdef, f_max=500.0):
    return segment_lobes(spectrum_fft(sample(wdef, 8192), 128, f_max))


@pytest.fixture(scope="module")
def segs():
    cache = {}

    def get(spec_key, wdef):
        if spec_key not in cache:
            cache[spec_key] = _segment(wdef)
        return cache[spec_key]

    return get


class TestMainLobeWidth:
    def test_rectangular(self, segs):
        assert main_lobe_width(segs("rect", catalog("rectangular"))) == pytest.approx(1.00, abs=0.02)

    def test_sine(self, segs):
        assert main_lobe_width(segs("sine", catalog("sine"))) == pytest.approx(1.50, abs=0.02)

    def test_exp_poly_1(self, segs):
        wdef = ExpKernelWindow(PolynomialKernel(1, 1))
        assert main_lobe_width(segs("poly1", wdef)) == pytest.approx(2.61, abs=0.03)


class TestEnergyLeakage:
    def test_rectangular(self, segs):
        w0 = main_lobe_width(segs("rect", catalog("rectangular")))
        assert energy_leakage(catalog("rectangular"), w0) == pytest.approx(9.71, abs=0.15)

    def test_hann(self, segs):
        w0 = main_lobe_width(segs("hann", catalog("hann")))
        assert energy_leakage(catalog("hann"), w0) == pytest.approx(0.05, abs=0.02)

    def test_near_total_concentration(self):
        wdef = ExpKernelWindow(PolynomialKernel(1.5, 1.5))
        seg = _segment(wdef)
        assert energy_leakage(wdef, main_lobe_width(seg)) < 0.005

    def test_grid_refinement_converged(self, segs, monkeypatch):
        wdef = catalog("tukey", alpha=0.5)
        w0 = main_lobe_width(segs("tukey05", wdef))
        a = energy_leakage(wdef, w0)
        monkeypatch.setattr(metrics, "LEAKAGE_STEP_HZ", 0.0025)
        b = energy_leakage(wdef, w0)
        assert abs(a - b) < 0.02


class TestFirstSidelobe:
    def test_rectangular(self, segs):
        h, w = first_sidelobe(segs("rect", catalog("rectangular")))
        assert h == pytest.approx(-13.3, abs=0.2)
        assert w == pytest.approx(1.00, abs=0.02)

    def test_hamming(self, segs):
        h, w = first_sidelobe(segs("hamming", catalog("hamming")))
        assert h == pytest.approx(-44.1, abs=0.5)
        assert w == pytest.approx(0.60, abs=0.03)

    def test_exp_scaled_sine_2(self, segs):
        wdef = ExpKernelWindow(ScaledSineKernel(2.0))
        h, w = first_sidelobe(segs("sine2", wdef))
        assert h == pytest.approx(-18.2, abs=0.3)
        assert w == pytest.approx(1.20, abs=0.03)

    def test_insufficient_lobes(self):
        seg = LobeSegmentation(
            nulls=np.array([1.0]), peak_freqs=np.array([]), peak_db=np.array([])
        )
        with pytest.raises(InsufficientLobesError):
            first_sidelobe(seg)


class TestDecayScale:
    def test_rectangular(self, segs):
        got = decay_scale(segs("rect", catalog("rectangular")))
        assert got == pytest.approx(317.5, rel=0.05)

    def test_hann(self, segs):
        assert decay_scale(segs("hann", catalog("hann"))) == pytest.approx(7.46, rel=0.05)

    def test_kaiser(self, segs):
        wdef = catalog("kaiser", alpha=KAISER_ALPHA)
        assert decay_scale(segs("kaiser", wdef)) == pytest.approx(3.54, rel=0.05)

    def test_not_converged_raises(self):
        seg = LobeSegmentation(
            nulls=np.array([1.0, 2.0, 3.0]),
            peak_freqs=np.array([1.5, 2.5]),
            peak_db=np.array([-20.0, -40.0]),
        )
        with pytest.raises(NotConvergedError, match="last null at 3 Hz"):
            decay_scale(seg)

    def test_at_least_main_lobe_width(self, segs):
        for wid in CATALOG:
            seg = segs(wid, catalog(wid))
            assert decay_scale(seg) >= main_lobe_width(seg)


class TestHalfWidth:
    def test_rectangular_full_record(self):
        assert half_width_numeric(catalog("rectangular")) == 10.0

    def test_sine_closed_form(self):
        # sin(pi t) >= sqrt(2)/2 exactly on [1/4, 3/4]
        assert half_width_numeric(catalog("sine")) == pytest.approx(5.00, abs=1e-5)

    def test_hann(self):
        assert half_width_numeric(catalog("hann")) == pytest.approx(3.64, abs=0.01)

    def test_analytic_values(self):
        assert half_width_analytic(1.0) == pytest.approx(2.824, abs=0.001)
        assert half_width_analytic(0.5) == pytest.approx(5.23, abs=0.01)
        assert half_width_analytic(2.0) == pytest.approx(1.03, abs=0.01)

    @pytest.mark.parametrize("n", [0.1, 0.25, 0.5, 1.0, 1.5, 2.0])
    def test_analytic_matches_bisection(self, n):
        numeric = half_width_numeric(ExpKernelWindow(PolynomialKernel(n, n)))
        assert abs(numeric - half_width_analytic(n)) < 0.02


class TestFullReport:
    def test_rectangular_row(self):
        r = full_report(catalog("rectangular"))
        assert r.omega0_hz == pytest.approx(1.00, abs=0.03)
        assert r.leakage_pct == pytest.approx(9.71, abs=0.15)
        assert r.sidelobe_db == pytest.approx(-13.3, abs=0.5)
        assert r.sidelobe_width_hz == pytest.approx(1.00, abs=0.05)
        assert r.decay_scale_hz == pytest.approx(317.5, rel=0.05)
        assert r.half_width_0p1s == pytest.approx(10.0, abs=0.03)

    def test_exp_hann_row(self):
        r = full_report(ExpKernelWindow(CatalogWindow("hann")))
        assert r.omega0_hz == pytest.approx(2.27, abs=0.03)
        assert r.leakage_pct == pytest.approx(0.40, abs=0.15)
        assert r.sidelobe_db == pytest.approx(-23.5, abs=0.5)
        assert r.sidelobe_width_hz == pytest.approx(1.62, abs=0.05)
        assert r.decay_scale_hz == pytest.approx(10.1, rel=0.05)
        assert r.half_width_0p1s == pytest.approx(3.39, abs=0.03)

    def test_tukey_row(self):
        r = full_report(catalog("tukey", alpha=0.5))
        assert r.omega0_hz == pytest.approx(1.34, abs=0.03)
        assert r.leakage_pct == pytest.approx(3.75, abs=0.15)
        assert r.sidelobe_db == pytest.approx(-15.1, abs=0.5)
        assert r.sidelobe_width_hz == pytest.approx(1.33, abs=0.05)
        assert r.decay_scale_hz == pytest.approx(9.63, rel=0.05)
        assert r.half_width_0p1s == pytest.approx(6.82, abs=0.03)

    def test_asymmetric_window_bounds(self):
        r = full_report(ExpKernelWindow(PolynomialKernel(1.0, 2.0)))
        assert r.omega0_hz > 0
        assert 0 <= r.leakage_pct < 100
        assert r.sidelobe_db < 0
        assert r.sidelobe_width_hz > 0
        assert r.decay_scale_hz >= r.omega0_hz
        assert 0 < r.half_width_0p1s <= 10

    def test_error_carries_window_identity(self):
        with pytest.raises(MetricsError, match="poisson probe"):
            # the spectrum of this wrapped window has no local minimum
            wdef = ExpKernelWindow(CatalogWindow("poisson", (("tau", 0.05),)))
            full_report(wdef, label="poisson probe")


@pytest.fixture(scope="module")
def poly_reports():
    ns = [0.1, 0.25, 0.5, 1.0, 1.5, 2.0]
    return ns, [full_report(ExpKernelWindow(PolynomialKernel(n, n))) for n in ns]


class TestTrends:
    def test_main_lobe_grows_with_exponent(self, poly_reports):
        _, reports = poly_reports
        omega = [r.omega0_hz for r in reports]
        assert all(a < b for a, b in zip(omega, omega[1:]))

    def test_half_width_shrinks_with_exponent(self, poly_reports):
        _, reports = poly_reports
        hw = [r.half_width_0p1s for r in reports]
        assert all(a > b for a, b in zip(hw, hw[1:]))

    def test_sine_coefficient_tradeoff(self):
        reports = [
            full_report(ExpKernelWindow(ScaledSineKernel(c))) for c in (0.5, 1.0, 2.0)
        ]
        omega = [r.omega0_hz for r in reports]
        sidelobe = [r.sidelobe_db for r in reports]
        assert omega[0] > omega[1] > omega[2]
        assert sidelobe[0] < sidelobe[1] < sidelobe[2]
