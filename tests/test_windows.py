import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import i0 as scipy_i0

from expwin.kernels import PolynomialKernel, ScaledSineKernel, kernel_eval, kernel_max
from expwin.windows import (
    CATALOG,
    BadParameterError,
    CatalogWindow,
    ExpKernelWindow,
    catalog,
    catalog_eval,
    exp_window_eval,
    sample,
    window_eval,
)
from strategies import catalog_windows, kernels

SYMMETRIC_IDS = sorted(CATALOG)


class TestCatalogEval:
    def test_hann_peak(self):
        assert catalog_eval("hann", None, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_welch_quarter(self):
        assert catalog_eval("welch", None, 0.25) == pytest.approx(0.75, abs=1e-15)

    def test_kaiser_peak(self):
        assert catalog_eval("kaiser", {"alpha": 8 / math.pi}, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_planck_flat_top(self):
        assert catalog_eval("planck_taper", {"epsilon": 0.25}, 0.5) == 1.0
        assert catalog_eval("planck_taper", {"epsilon": 0.25}, 0.3) == 1.0

    def test_triangular_vanishes_at_ends(self):
        assert catalog_eval("triangular", None, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert catalog_eval("triangular", None, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_zero_outside_unit_interval(self):
        for wid in CATALOG:
            assert catalog_eval(wid, None, -0.1) == 0.0
            assert catalog_eval(wid, None, 1.1) == 0.0

    def test_formula_not_evaluated_outside_unit_interval(self):
        # 2 pi t / alpha overflows at t = -0.5, and 2 pi (1 - t) / alpha at t = 1.5
        for t in (-0.5, 1.5):
            assert catalog_eval("tukey", {"alpha": 1e-320}, t) == 0.0

    def test_starred_windows_positive_at_ends(self):
        for wid in ("gaussian", "cauchy_lorentz", "poisson", "hamming"):
            assert catalog_eval(wid, None, 0.0) > 0.0
            assert catalog_eval(wid, None, 1.0) > 0.0

    def test_bad_parameters(self):
        with pytest.raises(BadParameterError):
            catalog_eval("tukey", {"alpha": 1.5}, 0.5)
        with pytest.raises(BadParameterError):
            catalog_eval("planck_taper", {"epsilon": 0.6}, 0.5)
        with pytest.raises(BadParameterError):
            catalog_eval("gaussian", {"sigma": -1.0}, 0.5)
        with pytest.raises(BadParameterError):
            catalog_eval("nosuch", None, 0.5)
        with pytest.raises(BadParameterError):
            catalog_eval("hann", {"alpha": 1.0}, 0.5)

    def test_bessel_i0_matches_scipy(self):
        t = np.linspace(0.0, 1.0, 121)
        for alpha in (0.5, 8 / math.pi, 12.0):
            ref = scipy_i0(np.pi * alpha * np.sqrt(1.0 - (2.0 * t - 1.0) ** 2))
            ref = ref / scipy_i0(np.pi * alpha)
            ours = catalog_eval("kaiser", {"alpha": alpha}, t)
            assert np.max(np.abs(ours - ref) / ref) < 1e-14


class TestExpWindow:
    def test_normalized_at_maximum(self):
        assert exp_window_eval(PolynomialKernel(1, 1), 0.5) == pytest.approx(1.0, abs=1e-12)
        assert exp_window_eval(PolynomialKernel(2, 1), 2 / 3) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_point_value(self):
        # exp(4 - 1/(0.25*0.75))
        assert exp_window_eval(PolynomialKernel(1, 1), 0.25) == pytest.approx(
            math.exp(4 - 16 / 3), rel=1e-13
        )

    def test_zero_at_and_outside_endpoints(self):
        k = PolynomialKernel(1, 1)
        for t in (-0.5, 0.0, 1.0, 1.5):
            assert exp_window_eval(k, t) == 0.0

    def test_underflow_clamps_to_exact_zero(self):
        # 1/B(t) ~ 1e9 near the endpoint, far past the exp underflow
        assert exp_window_eval(PolynomialKernel(1, 1), 1e-9) == 0.0

    def test_overflowing_reciprocal_gives_zero_window(self):
        # B(1e-310) is subnormal, so 1/B overflows to inf: W is 0, no warning
        assert exp_window_eval(PolynomialKernel(1, 1), 1e-310) == 0.0

    def test_underflowed_kernel_gives_zero_window(self):
        # next to the edges the Planck taper underflows to exactly 0
        k = CatalogWindow("planck_taper", (("epsilon", 0.1),))
        t = np.array([1e-4, 0.5, 1 - 1e-4])
        assert kernel_eval(k, t)[0] == 0.0
        assert exp_window_eval(k, t).tolist() == [0.0, 1.0, 0.0]

    def test_wrapped_hann_kernel(self):
        k = CatalogWindow("hann")
        assert exp_window_eval(k, 0.5) == pytest.approx(1.0, abs=1e-12)
        w_quarter = math.exp(1.0 - 1.0 / 0.5)
        assert exp_window_eval(k, 0.25) == pytest.approx(w_quarter, rel=1e-13)


class TestSample:
    def test_rectangular(self):
        assert sample(catalog("rectangular"), 4).tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_sine_closed_form(self):
        w = sample(catalog("sine"), 4)
        assert w == pytest.approx([0.0, math.sqrt(2) / 2, 1.0, math.sqrt(2) / 2], abs=1e-15)

    def test_exp_poly_two_samples(self):
        assert sample(ExpKernelWindow(PolynomialKernel(1, 1)), 2).tolist() == [0.0, 1.0]

    def test_values_in_unit_range(self):
        for wid in CATALOG:
            v = sample(catalog(wid), 64)
            assert np.all(np.isfinite(v))
            assert np.all((v >= 0.0) & (v <= 1.0))


class TestProperties:
    @pytest.mark.parametrize("wid", SYMMETRIC_IDS)
    def test_catalog_symmetry_and_normalization(self, wid):
        t = np.linspace(0, 1, 1001)
        v = window_eval(catalog(wid), t)
        assert np.max(np.abs(v - v[::-1])) < 1e-12
        assert abs(v.max() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
    def test_exp_poly_symmetry(self, n):
        t = np.linspace(0, 1, 1001)
        v = exp_window_eval(PolynomialKernel(n, n), t)
        assert np.max(np.abs(v - v[::-1])) < 1e-12
        assert abs(v.max() - 1.0) < 1e-12

    @settings(deadline=None)
    @given(c=st.floats(0.2, 5.0))
    def test_coefficient_power_identity(self, c):
        # scaling the kernel by c raises the window to the power 1/c
        t = np.linspace(0, 1, 201)
        scaled = exp_window_eval(ScaledSineKernel(c), t)
        base = exp_window_eval(ScaledSineKernel(1.0), t)
        assert np.max(np.abs(scaled - base ** (1.0 / c))) < 1e-12

    @settings(deadline=None)
    @given(kernel=kernels(), t=st.lists(st.floats(-0.5, 1.5), max_size=20))
    def test_exp_window_is_one_at_kernel_maximum(self, kernel, t):
        wdef = ExpKernelWindow(kernel)
        t_star, _ = kernel_max(kernel)
        assert window_eval(wdef, t_star) == 1.0
        assert window_eval(wdef, np.array([*t, t_star, *t]))[len(t)] == 1.0

    @settings(deadline=None)
    @given(
        wdef=st.one_of(catalog_windows(), kernels().map(ExpKernelWindow)),
        t=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=40),
    )
    def test_scalar_and_array_evaluation_agree_exactly(self, wdef, t):
        values = window_eval(wdef, np.array(t))
        scalars = [window_eval(wdef, x) for x in t]
        assert all(type(v) is np.float64 for v in scalars)
        assert np.array(scalars).tobytes() == values.tobytes()

    def test_scalar_and_array_catalog_evaluation_agree_on_seeded_points(self):
        # numpy scalar ** and np.i0 differ from the array loops in the last
        # bit at about one point in 3000, too rarely for the property above
        t = np.random.default_rng(0).uniform(-0.1, 1.1, 3001)
        for wdef in map(catalog, CATALOG):
            scalars = np.array([window_eval(wdef, x) for x in t])
            assert scalars.tobytes() == window_eval(wdef, t).tobytes()

    @pytest.mark.parametrize("n", [0.75, 1.0, 1.5, 2.0])
    def test_endpoint_decay_of_derivatives(self, n):
        # W and centered finite differences of order 1..4 (h=1e-4) all
        # vanish near the endpoints for smooth-kernel windows.
        k = PolynomialKernel(n, n)
        h = 1e-4
        for t0 in (1e-3, 1 - 1e-3):
            v = exp_window_eval(k, t0 + h * np.arange(-2, 3))
            assert v[2] < 1e-8
            d1 = (v[3] - v[1]) / (2 * h)
            d2 = (v[3] - 2 * v[2] + v[1]) / h ** 2
            d3 = (v[4] - 2 * v[3] + 2 * v[1] - v[0]) / (2 * h ** 3)
            d4 = (v[4] - 4 * v[3] + 6 * v[2] - 4 * v[1] + v[0]) / h ** 4
            for d in (d1, d2, d3, d4):
                assert abs(d) < 1e-8

    def test_poly06_gap_to_sine_window_frozen(self):
        # Brute-force measured gap between the n=0.6 polynomial-kernel
        # window and sin(pi t); regression-freeze at the observed level.
        t = np.linspace(0, 1, 1001)
        gap = np.max(np.abs(exp_window_eval(PolynomialKernel(0.6, 0.6), t) - np.sin(np.pi * t)))
        assert gap == pytest.approx(0.1671150494533, abs=1e-10)
