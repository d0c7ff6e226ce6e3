import numpy as np
import pytest
from hypothesis import given, strategies as st

from expwin.kernels import (
    InvalidKernelError,
    PolynomialKernel,
    ScaledSineKernel,
    kernel_eval,
    kernel_max,
)
from expwin.windows import CATALOG, CatalogWindow


class TestKernelEval:
    def test_polynomial_symmetric_midpoint(self):
        assert kernel_eval(PolynomialKernel(1, 1), 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_polynomial_endpoint_limit(self):
        assert kernel_eval(PolynomialKernel(1, 1), 0.0) == 0.0
        assert kernel_eval(PolynomialKernel(1, 1), 1.0) == 0.0

    def test_polynomial_asymmetric(self):
        # t^2 (1-t) at t = 2/3 is 4/27
        assert kernel_eval(PolynomialKernel(2, 1), 2 / 3) == pytest.approx(4 / 27, rel=1e-14)

    def test_scaled_sine(self):
        assert kernel_eval(ScaledSineKernel(2.0), 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_fractional_exponents(self):
        t = 0.3
        expect = t ** 0.7 * (1 - t) ** 1.3
        assert kernel_eval(PolynomialKernel(0.7, 1.3), t) == pytest.approx(expect, rel=1e-13)

    def test_wrapped_window(self):
        k = CatalogWindow("hann")
        assert kernel_eval(k, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert kernel_eval(k, 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        k = PolynomialKernel(0.5, 1.5)
        t = np.linspace(0, 1, 17)
        vec = kernel_eval(k, t)
        assert vec == pytest.approx([kernel_eval(k, float(x)) for x in t])

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidKernelError):
            PolynomialKernel(0, 1)
        with pytest.raises(InvalidKernelError):
            PolynomialKernel(1, -2)
        with pytest.raises(InvalidKernelError):
            ScaledSineKernel(0.0)

    def test_endpoint_limits_nonnegative(self):
        for k in (PolynomialKernel(0.3, 2.0), ScaledSineKernel(0.5), CatalogWindow("welch")):
            assert kernel_eval(k, 1e-9) >= 0.0
            assert kernel_eval(k, 1 - 1e-9) >= 0.0


class TestKernelMax:
    def test_polynomial_symmetric(self):
        t_star, b_max = kernel_max(PolynomialKernel(1, 1))
        assert t_star == 0.5
        assert b_max == pytest.approx(0.25, abs=1e-15)

    def test_polynomial_asymmetric_closed_form(self):
        t_star, b_max = kernel_max(PolynomialKernel(2, 1))
        assert t_star == pytest.approx(2 / 3, abs=1e-15)
        assert b_max == pytest.approx(4 / 27, rel=1e-14)

    def test_scaled_sine(self):
        t_star, b_max = kernel_max(ScaledSineKernel(1.0))
        assert t_star == pytest.approx(0.5, abs=1e-10)
        assert b_max == pytest.approx(1.0, abs=1e-12)

    def test_wrapped_flat_top_plateau(self):
        _, b_max = kernel_max(CatalogWindow("tukey", (("alpha", 0.5),)))
        assert b_max == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("wid", sorted(CATALOG))
    def test_wrapped_catalog_peaks_at_midpoint(self, wid):
        k = CatalogWindow(wid)
        t_star, b_max = kernel_max(k)
        assert t_star == 0.5 and b_max == pytest.approx(1.0, abs=1e-15)
        assert np.all(kernel_eval(k, np.linspace(0, 1, 10001)) <= b_max)

    @given(
        m=st.floats(0.1, 4.0),
        n=st.floats(0.1, 4.0),
    )
    def test_max_is_local_max(self, m, n):
        k = PolynomialKernel(m, n)
        t_star, b_max = kernel_max(k)
        assert 0 < t_star < 1
        for dt in (-1e-6, 1e-6):
            assert kernel_eval(k, t_star + dt) <= b_max + 1e-12


class TestProperties:
    # fl(1-t) rounding amplified by n*|log t| pushes the symmetry defect
    # to a few ulps at large exponents; 1e-15 holds for n <= 0.5.
    @pytest.mark.parametrize(
        "n,tol", [(0.1, 1e-15), (0.25, 1e-15), (0.5, 1e-15), (1.0, 5e-15), (2.0, 5e-15)]
    )
    def test_symmetric_polynomial_mirror(self, n, tol):
        k = PolynomialKernel(n, n)
        t = np.linspace(0, 1, 1001)[1:-1]
        a = kernel_eval(k, t)
        b = kernel_eval(k, 1.0 - t)
        assert np.max(np.abs(a - b) / a) < tol

    @given(c=st.floats(0.05, 20.0))
    def test_scaled_sine_is_exact_multiple(self, c):
        t = np.linspace(0, 1, 101)
        scaled = kernel_eval(ScaledSineKernel(c), t)
        unit = kernel_eval(ScaledSineKernel(1.0), t)
        assert np.array_equal(scaled, c * unit)
