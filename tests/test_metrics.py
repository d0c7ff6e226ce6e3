import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import sici

from expwin import metrics
from expwin.kernels import PolynomialKernel, ScaledSineKernel
from expwin.metrics import (
    DECAY_THRESHOLD_DB,
    HALF_AMPLITUDE,
    N_PANELS,
    PAD_FACTOR,
    InsufficientLobesError,
    MetricsError,
    NotConvergedError,
    _band_lobes,
    decay_scale,
    energy_leakage,
    first_sidelobe,
    full_report,
    half_width_analytic,
    half_width_numeric,
    main_lobe_width,
)
from expwin.specs import format_window_spec, parse_window_spec
from expwin.spectrum import (
    LobeSegmentation,
    NoNullsFoundError,
    Spectrum,
    _band_dft,
    _chirp_plan,
    _simpson_rule,
    segment_lobes,
    spectrum_simpson,
)
from expwin.table import TABLE_ROWS, compute_table
from expwin.windows import CATALOG, CatalogWindow, ExpKernelWindow, catalog, window_eval
from strategies import catalog_windows, kernels

KAISER_ALPHA = 8 / math.pi


def _nodes(wdef, panels=N_PANELS):
    """The window at t_k = k/panels, k = 0..panels."""
    return window_eval(wdef, np.linspace(0.0, 1.0, panels + 1))


def _segment(wdef):
    """Lobes of the spectrum full_report reads: Simpson on N_PANELS panels, k/128 Hz to 500 Hz."""
    return segment_lobes(spectrum_simpson(_nodes(wdef), 500.0, 64001))


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
        assert energy_leakage(_nodes(catalog("rectangular")), w0) == pytest.approx(9.71, abs=0.15)

    def test_hann(self, segs):
        w0 = main_lobe_width(segs("hann", catalog("hann")))
        assert energy_leakage(_nodes(catalog("hann")), w0) == pytest.approx(0.05, abs=0.02)

    def test_near_total_concentration(self):
        wdef = ExpKernelWindow(PolynomialKernel(1.5, 1.5))
        seg = _segment(wdef)
        assert energy_leakage(_nodes(wdef), main_lobe_width(seg)) < 0.005

    @pytest.mark.parametrize("w0", [None, 0.37, 1.0, 2.5, 7.3])
    def test_rectangular_closed_form(self, segs, w0):
        # 2 integral_0^w0 sinc^2(f) df = (2/pi) (Si(2 pi w0) - sin^2(pi w0)/(pi w0))
        if w0 is None:
            w0 = main_lobe_width(segs("rect", catalog("rectangular")))
        x = math.pi * w0
        exact = 100.0 * (1.0 - 2.0 / math.pi * (sici(2.0 * x)[0] - math.sin(x) ** 2 / x))
        assert abs(energy_leakage(_nodes(catalog("rectangular")), w0) - exact) < 1e-9

    @pytest.mark.parametrize(
        "spec", ["tukey:alpha=0.5", "exp:poly:m=0.1,n=0.1", "exp:win:kaiser:alpha=2.5464790894703255"]
    )
    def test_matches_simpson_over_quadrature_spectrum(self, spec):
        # Simpson in f at a 0.00125 Hz step over |Fhat|^2 of the Simpson
        # spectrum of the same N_PANELS nodes, whose exact integral
        # energy_leakage computes
        wdef = parse_window_spec(spec)
        w = _nodes(wdef)
        w0 = main_lobe_width(_segment(wdef))
        panels = int(math.ceil(w0 / 0.00125))
        panels += panels % 2
        spec_s = spectrum_simpson(w, w0, panels + 1)
        lobe = 2.0 * w0 * np.dot(_simpson_rule(panels)[1], spec_s.magnitudes ** 2)
        total = np.dot(_simpson_rule(N_PANELS)[1], w ** 2)
        assert abs(energy_leakage(w, w0) - 100.0 * (1.0 - lobe / total)) < 1e-6

    @pytest.mark.parametrize("label, spec", TABLE_ROWS)
    def test_table_rows_resolved_by_n_panels(self, label, spec):
        # the printed leakage, from N_PANELS nodes, against 2^15 panels;
        # the largest gap is 6.9e-4 points, at Exp poly n=0.1
        wdef = parse_window_spec(spec)
        r = full_report(wdef)
        assert abs(r.leakage_pct - energy_leakage(_nodes(wdef, 2 ** 15), r.omega0_hz)) < 1e-3

    @pytest.mark.parametrize("label, spec", TABLE_ROWS[::4])
    def test_matches_np_sinc_form_bit_for_bit(self, label, spec):
        wdef = parse_window_spec(spec)
        w, w0 = _nodes(wdef), full_report(wdef).omega0_hz
        g = _simpson_rule(N_PANELS)[1] * w
        r = np.fft.irfft(np.abs(np.fft.rfft(g, 2 * N_PANELS)) ** 2, 2 * N_PANELS)[: N_PANELS + 1]
        r[N_PANELS] = g[0] * g[N_PANELS]
        r[1:] *= 2.0 * np.sinc(2.0 * w0 * np.arange(1, N_PANELS + 1) / N_PANELS)
        want = max(100.0 * (1.0 - 2.0 * w0 * float(np.sum(r)) / float(np.dot(g, w))), 0.0)
        assert energy_leakage(w, w0) == want

    @pytest.mark.parametrize("size", [2, 8, 8192])
    def test_odd_panel_count_raises(self, size):
        with pytest.raises(ValueError, match="even number of panels"):
            energy_leakage(np.ones(size), 1.0)


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

    def test_analytic_rejects_non_positive_exponent(self):
        with pytest.raises(ValueError, match="n must be > 0, got 0"):
            half_width_analytic(0)

    @pytest.mark.parametrize("m, n", [(12, 13), (11, 12)])
    def test_set_narrower_than_grid_step(self, m, n):
        # W >= sqrt(2)/2 only on about 3e-5 s around t* = m/(m+n), between
        # two scan nodes for m=12, n=13; reference edges by brentq
        wdef = ExpKernelWindow(PolynomialKernel(m, n))
        t_star = m / (m + n)

        def f(t):
            return window_eval(wdef, t) - HALF_AMPLITUDE

        right = brentq(f, t_star, t_star + 0.01, xtol=1e-14)
        left = brentq(f, t_star - 0.01, t_star, xtol=1e-14)
        assert abs(half_width_numeric(wdef) - 10.0 * (right - left)) < 2e-7

    @pytest.mark.parametrize(
        "spec",
        [spec for _, spec in TABLE_ROWS]
        + ["exp:poly:m=12,n=13", "exp:poly:m=0.3,n=4", "exp:poly:m=1,n=3", "exp:poly:m=3,n=5", "exp:poly:m=1,n=2"],
    )
    def test_matches_one_edge_at_a_time_bisection(self, spec):
        # the edges are bisected together on 2-element arrays, from the peak
        # t* out to each end, first on the Simpson nodes while both ends and
        # the midpoint are nodes (t* = 1/2 in the table rows, 1/4 and 3/8
        # here, never for 1/3); each must get the bits of a scalar bisection
        # of its own interval, and an end where W >= sqrt(2)/2 is the edge
        wdef = parse_window_spec(spec)

        def bisect(lo, hi):
            f_lo = window_eval(wdef, lo) - HALF_AMPLITUDE
            while hi - lo > 1e-8:
                mid = 0.5 * (lo + hi)
                f_mid = window_eval(wdef, mid) - HALF_AMPLITUDE
                if (f_lo < 0) == (f_mid < 0):
                    lo, f_lo = mid, f_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        t_peak = wdef.peak[0]
        left = 0.0 if window_eval(wdef, 0.0) >= HALF_AMPLITUDE else bisect(0.0, t_peak)
        right = 1.0 if window_eval(wdef, 1.0) >= HALF_AMPLITUDE else bisect(t_peak, 1.0)
        assert half_width_numeric(wdef) == float(10.0 * (right - left))

    @settings(deadline=None, max_examples=60)
    @given(wdef=st.one_of(catalog_windows(), kernels().map(ExpKernelWindow)))
    def test_drawn_windows_match_one_edge_at_a_time_bisection(self, wdef):
        self.test_matches_one_edge_at_a_time_bisection(format_window_spec(wdef))

    @settings(deadline=None, max_examples=60)
    @given(wdef=st.one_of(catalog_windows(), kernels().map(ExpKernelWindow)))
    def test_matches_brentq_from_the_peak(self, wdef):
        # unimodality: W - sqrt(2)/2 changes sign once on each side of the
        # peak, so brentq from t* finds the same edges the bisection does
        t_peak = wdef.peak[0]

        def f(t):
            return window_eval(wdef, t) - HALF_AMPLITUDE

        left = 0.0 if f(0.0) >= 0 else brentq(f, 0.0, t_peak, xtol=1e-14)
        right = 1.0 if f(1.0) >= 0 else brentq(f, t_peak, 1.0, xtol=1e-14)
        assert abs(half_width_numeric(wdef) - 10.0 * (right - left)) < 2e-7

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

    def test_rectangular_decay_is_converged_sinc_peak(self):
        # |W^(f)| = |sinc(f)|: scan each lobe (k, k+1) at 1e-4 Hz for the first
        # peak below -60 dB (318.49968 Hz at -60.005 dB, after 317.49968 Hz
        # at -59.978 dB; a Riemann sum over 8192 samples gives 319.5)
        f = np.linspace(0.0, 1.0, 10001)
        while 20.0 * np.log10(np.max(np.abs(np.sinc(f)))) >= DECAY_THRESHOLD_DB:
            f += 1.0
        peak = f[np.argmax(np.abs(np.sinc(f)))]
        assert abs(full_report(catalog("rectangular")).decay_scale_hz - peak) < 1e-3

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


class TestChunkedBand:
    """full_report stops its band at the chunk that holds the -60 dB lobe."""

    @pytest.mark.parametrize("label, spec", TABLE_ROWS)
    def test_table_row_matches_whole_band(self, label, spec):
        wdef = parse_window_spec(spec)
        seg = _segment(wdef)
        omega0 = main_lobe_width(seg)
        want = (
            omega0,
            energy_leakage(_nodes(wdef), omega0),
            *first_sidelobe(seg),
            decay_scale(seg),
            half_width_numeric(wdef),
        )
        got = tuple(full_report(wdef).as_dict().values())
        assert np.max(np.abs(np.subtract(got, want))) < 1e-9

    @pytest.mark.parametrize(
        "spec, cause, message",
        [
            ("exp:win:triangular", NotConvergedError, "up to the last null at 12.4571 Hz"),
            ("exp:poly:m=0.1035,n=1.5598", NoNullsFoundError, "no spectral local minimum"),
        ],
    )
    def test_errors_come_from_whole_band(self, spec, cause, message):
        with pytest.raises(MetricsError, match=message) as info:
            full_report(parse_window_spec(spec))
        assert isinstance(info.value.__cause__, cause)

    @staticmethod
    def _check_matches_concatenated_chunks(wdef):
        # the band _band_lobes stops at, segmented whole from bin 0 after
        # each chunk: its lobes, or its error, bit for bit
        w = _nodes(wdef)
        g = _simpson_rule(N_PANELS)[1] * w
        chunks = [
            _band_dft(g, 1.0 / N_PANELS, 1.0 / PAD_FACTOR, N_PANELS, first) for first in range(0, 64001, N_PANELS)
        ]
        for count in range(1, len(chunks) + 1):
            amps = np.concatenate(chunks[:count])[:64001]
            try:
                want = segment_lobes(Spectrum(amps, 1.0 / PAD_FACTOR))
            except NoNullsFoundError as exc:
                if count < len(chunks):
                    continue
                with pytest.raises(NoNullsFoundError, match=re.escape(str(exc))):
                    _band_lobes(w)
                return
            if count == len(chunks) or (want.peak_db < DECAY_THRESHOLD_DB).any():
                break
        got = _band_lobes(w)
        for key in ("nulls", "peak_freqs", "peak_db"):
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key
        assert got.last_min == want.last_min

    @pytest.mark.parametrize(
        "spec",
        [spec for _, spec in TABLE_ROWS]
        + [
            "exp:poly:m=0.1035,n=1.5598",  # no minimum in any chunk: the whole band's error
            "exp:poly:m=1.1352,n=2.8555",  # the first minimum lies in the second chunk
            "exp:win:triangular",  # runs to 500 Hz
        ],
    )
    def test_matches_segmentation_of_concatenated_chunks(self, spec):
        self._check_matches_concatenated_chunks(parse_window_spec(spec))

    @settings(deadline=None, max_examples=25)
    @given(wdef=st.one_of(catalog_windows(), kernels().map(ExpKernelWindow)))
    def test_drawn_windows_match_segmentation_of_concatenated_chunks(self, wdef):
        self._check_matches_concatenated_chunks(wdef)

    @staticmethod
    def _count_window_evals(monkeypatch):
        shapes = []

        def counted(wdef, t):
            shapes.append(np.shape(t))
            return window_eval(wdef, t)

        metrics._node_values.cache_clear()
        monkeypatch.setattr(metrics, "window_eval", counted)
        return shapes

    def test_row_with_peak_at_half_evaluates_window_three_times(self, monkeypatch):
        # once on the Simpson nodes, which also give the half width its first
        # 12 halvings per edge, then twice for 2 x 7 more
        shapes = self._count_window_evals(monkeypatch)
        full_report(parse_window_spec("exp:win:hann"))
        assert shapes == [(N_PANELS + 1,), (2, 129), (2, 129)]

    def test_table_evaluates_each_window_three_times(self, monkeypatch):
        shapes = self._count_window_evals(monkeypatch)
        compute_table()
        assert len(shapes) == 3 * len(TABLE_ROWS)

    def test_node_values_are_read_only(self):
        w = metrics._node_values(catalog("hann"))
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0
        for a in metrics._simpson_rule(N_PANELS):
            assert not a.flags.writeable

    def test_reports_of_alternating_windows_match_fresh_ones(self):
        # the node values cached for a are dropped for b and evaluated again
        windows = [parse_window_spec(spec) for spec in ("exp:win:hann", "tukey:alpha=0.3", "exp:win:hann")]
        fresh = []
        for wdef in windows:
            metrics._node_values.cache_clear()
            fresh.append((full_report(wdef), half_width_numeric(wdef)))
        metrics._node_values.cache_clear()
        got = [(full_report(wdef), half_width_numeric(wdef)) for wdef in windows]
        assert repr(got) == repr(fresh)

    def test_table_builds_one_plan(self):
        _chirp_plan.cache_clear()
        compute_table()
        assert _chirp_plan.cache_info().currsize == 1
        assert _chirp_plan.cache_info().misses == 1
        _chirp_plan(N_PANELS + 1, N_PANELS, 2.0 ** -20)
        assert _chirp_plan.cache_info().misses == 1


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
