"""Hypothesis strategies for window definitions, shared by the test modules."""
from hypothesis import strategies as st

from expwin.kernels import PolynomialKernel, ScaledSineKernel
from expwin.windows import CATALOG, ExpKernelWindow, catalog

# Drawn range (low, high) of each catalog parameter; the ends are excluded,
# so the open ranges of tukey alpha and planck_taper epsilon are covered whole.
PARAM_RANGES = {
    ("gaussian", "sigma"): (0.01, 10.0),
    ("cauchy_lorentz", "gamma"): (0.01, 10.0),
    ("poisson", "tau"): (0.01, 10.0),
    ("kaiser", "alpha"): (0.01, 20.0),
    ("tukey", "alpha"): (0.0, 1.0),
    ("planck_taper", "epsilon"): (0.0, 0.5),
    ("avci_exp", "alpha"): (0.01, 20.0),
}


def _in_range(window_id):
    keys = CATALOG[window_id][1]
    params = {
        key: st.floats(*PARAM_RANGES[window_id, key], exclude_min=True, exclude_max=True)
        for key in keys
    }
    return st.fixed_dictionaries(params).map(lambda p: catalog(window_id, **p))


def catalog_windows():
    """Any catalog window with random in-range parameters."""
    return st.sampled_from(sorted(CATALOG)).flatmap(_in_range)


def kernels():
    """Any kernel: exp:poly (m, n), exp:sine (c) or a catalog window."""
    return st.one_of(
        st.builds(PolynomialKernel, st.floats(0.05, 8.0), st.floats(0.05, 8.0)),
        st.builds(ScaledSineKernel, st.floats(0.1, 10.0)),
        catalog_windows(),
    )


def symmetric_windows():
    """Windows with W(t) = W(1 - t): any catalog window, exp:sine, exp:win: and exp:poly with m = n."""
    return st.one_of(
        catalog_windows(),
        st.one_of(
            st.floats(0.05, 8.0).map(lambda n: PolynomialKernel(n, n)),
            st.builds(ScaledSineKernel, st.floats(0.1, 10.0)),
            catalog_windows(),
        ).map(ExpKernelWindow),
    )


def asymmetric_windows():
    """exp:poly windows with m != n."""
    return st.builds(PolynomialKernel, st.floats(0.05, 8.0), st.floats(0.05, 8.0)).filter(
        lambda k: k.m != k.n
    ).map(ExpKernelWindow)
