import ast

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expwin.kernels import (
    InvalidKernelError,
    PolynomialKernel,
    ScaledSineKernel,
    kernel_eval,
)
from expwin import kernels
from expwin.specs import parse_window_spec
from expwin.windows import CATALOG, CatalogWindow, window_eval


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

    def test_negative_inside_rejected(self):
        # B(t) = t - 1/2 is negative on (0, 1/2); its value at an endpoint is a limit, not checked
        def kernel(t):
            return np.asarray(t) - 0.5

        with pytest.raises(InvalidKernelError, match=r"negative or NaN inside \(0,1\)"):
            kernel_eval(kernel, np.array([0.25, 0.75]))
        assert kernel_eval(kernel, np.array([0.0, 0.75])).tolist() == [-0.5, 0.25]

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidKernelError):
            PolynomialKernel(0, 1)
        with pytest.raises(InvalidKernelError):
            PolynomialKernel(1, -2)
        with pytest.raises(InvalidKernelError):
            ScaledSineKernel(0.0)

    def test_underflowing_maximum_rejected_when_built(self):
        # (1/2)^1200 underflows to 0, so B(t*) is not positive
        with pytest.raises(InvalidKernelError, match="non-positive maximum"):
            PolynomialKernel(600, 600)

    @pytest.mark.parametrize("spec", ["exp:poly:m=520,n=520", "exp:sine:c=1e-320"])
    def test_subnormal_maximum_rejected_when_built(self, spec):
        # B(t*) is positive but subnormal, so 1/B(t*) overflows and W would be NaN
        with pytest.raises(InvalidKernelError, match="reciprocal overflows"):
            parse_window_spec(spec)

    def test_endpoint_limits_nonnegative(self):
        for k in (PolynomialKernel(0.3, 2.0), ScaledSineKernel(0.5), CatalogWindow("welch")):
            assert kernel_eval(k, 1e-9) >= 0.0
            assert kernel_eval(k, 1 - 1e-9) >= 0.0


class TestKernelPeak:
    def test_polynomial_peak_is_exact(self):
        k = PolynomialKernel(2, 1)
        assert k.peak == (2 / 3, kernel_eval(k, 2 / 3))

    @pytest.mark.parametrize("c", [0.1, 1.0, 3.7])
    def test_scaled_sine_peak_is_c(self, c):
        assert ScaledSineKernel(c).peak == (0.5, c)

    def test_peak_leaves_equality_hash_and_repr_alone(self):
        assert PolynomialKernel(2, 1) == PolynomialKernel(2, 1)
        assert hash(ScaledSineKernel(2.0)) == hash(ScaledSineKernel(2.0))
        assert repr(PolynomialKernel(2, 1)) == "PolynomialKernel(m=2, n=1)"
        assert repr(CatalogWindow("hann")) == "CatalogWindow(window_id='hann', params=())"


class TestKernelMax:
    """The kernel maximum (t*, B(t*)) that ``peak`` returns."""

    def test_polynomial_symmetric(self):
        t_star, b_max = PolynomialKernel(1, 1).peak
        assert t_star == 0.5
        assert b_max == pytest.approx(0.25, abs=1e-15)

    def test_polynomial_asymmetric_closed_form(self):
        t_star, b_max = PolynomialKernel(2, 1).peak
        assert t_star == pytest.approx(2 / 3, abs=1e-15)
        assert b_max == pytest.approx(4 / 27, rel=1e-14)

    def test_scaled_sine(self):
        t_star, b_max = ScaledSineKernel(1.0).peak
        assert t_star == pytest.approx(0.5, abs=1e-10)
        assert b_max == pytest.approx(1.0, abs=1e-12)

    def test_wrapped_flat_top_plateau(self):
        _, b_max = CatalogWindow("tukey", (("alpha", 0.5),)).peak
        assert b_max == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("wid", sorted(CATALOG))
    def test_wrapped_catalog_peaks_at_midpoint(self, wid):
        k = CatalogWindow(wid)
        t_star, b_max = k.peak
        assert t_star == 0.5 and b_max == pytest.approx(1.0, abs=1e-15)
        assert k.peak == (0.5, window_eval(k, 0.5))
        assert np.all(kernel_eval(k, np.linspace(0, 1, 10001)) <= b_max)

    @given(
        m=st.floats(0.1, 4.0),
        n=st.floats(0.1, 4.0),
    )
    def test_max_is_local_max(self, m, n):
        k = PolynomialKernel(m, n)
        t_star, b_max = k.peak
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


def test_kernels_module_imports_nothing_from_windows():
    # windows builds on kernels; an import back, even inside a function, is a cycle
    with open(kernels.__file__) as f:
        tree = ast.parse(f.read())
    imports = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports and not [line for line in imports if "windows" in line]
