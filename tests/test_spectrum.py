import math
import re
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from expwin import metrics, spectrum
from expwin.cli import main
from expwin.kernels import PolynomialKernel, ScaledSineKernel
from expwin.spectrum import (
    NoNullsFoundError,
    Spectrum,
    _band_dft,
    _band_size,
    _chirp_plan,
    _simpson_rule,
    segment_lobes,
    spectrum_fft,
    spectrum_quadrature,
    spectrum_simpson,
)
from expwin.specs import parse_window_spec
from expwin.windows import ExpKernelWindow, catalog, sample, window_eval
from strategies import asymmetric_windows, symmetric_windows


def _nudged(x, ulps):
    """x moved by ``ulps`` floats up (> 0) or down (< 0), but not below 0."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return max(x, 0.0)


def _count_by_bisection(f_max, pad):
    """How many k >= 0 have k/pad, rounded to a float, at most f_max: the
    least k past f_max, found by bisection, since k/pad never falls as k rises."""
    inside, outside = 0, (math.floor(f_max) + 1) * pad
    while outside - inside > 1:
        mid = (inside + outside) // 2
        if mid / pad <= f_max:
            inside = mid
        else:
            outside = mid
    return outside


def _sinc_mag(f):
    return abs(math.sin(math.pi * f) / (math.pi * f)) if f else 1.0


class TestSpectrumFFT:
    def test_dc_bin_is_window_integral(self):
        s = spectrum_fft(sample(catalog("rectangular"), 8192), 128, 5.0)
        assert abs(s.amplitudes[0]) == pytest.approx(1.0, abs=1e-6)
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, 5.0)
        assert abs(s.amplitudes[0]) == pytest.approx(0.5, abs=1e-6)

    def test_rectangular_matches_sinc(self):
        s = spectrum_fft(sample(catalog("rectangular"), 8192), 128, 5.0)
        j = int(round(0.5 / s.df))
        assert s.frequencies[j] == pytest.approx(0.5, abs=1e-12)
        assert s.magnitudes[j] == pytest.approx(2 / math.pi, abs=1e-4)

    def test_grid_spacing(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, 5.0)
        assert s.df == pytest.approx(1 / 128, abs=1e-15)

    def test_one_bin_band_keeps_its_spacing(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, 0.0)
        assert (s.amplitudes.size, s.df) == (1, 1 / 128)
        assert s.frequencies.tolist() == [0.0]

    def test_db_normalization(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, 5.0)
        assert s.db[0] == 0.0
        assert np.all(s.db[1:] <= 0.0)

    def test_grid_exact_for_any_sample_count(self):
        s = spectrum_fft(sample(catalog("rectangular"), 1000), 128, 1.0)
        assert np.array_equal(s.frequencies, np.arange(129) / 128)

    # With a power-of-two N the chirp phases are exact and only FFT
    # round-off (about 4e-16) remains; 1/N = 0.001 is itself rounded.
    @pytest.mark.parametrize("n,tol", [(8192, 2e-15), (1000, 1e-12)])
    def test_matches_direct_sum_at_probe_bins(self, n, tol):
        # dt * sum_k w_k exp(2 pi i f k/N), with the phase f k/N reduced
        # exactly in integers; the last probe is the bin at 500 Hz
        w = sample(ExpKernelWindow(PolynomialKernel(1, 1)), n)
        s = spectrum_fft(w, 128, 500.0)
        probes = [0, 1, 128, 12345, 40000, 64000]
        assert s.frequencies[-1] == 500.0 and s.frequencies.size == 64001
        k = np.arange(n)
        for j in probes:
            phase = 2 * np.pi * ((j * k) % (128 * n)) / (128 * n)
            direct = np.sum(w * np.exp(1j * phase)) / n
            assert abs(s.amplitudes[j] - direct) < tol * abs(s.amplitudes[0])

    def test_above_nyquist_rejected(self):
        w = sample(catalog("hann"), 256)
        assert spectrum_fft(w, 128, 128.0).frequencies[-1] == 128.0
        with pytest.raises(ValueError, match="Nyquist"):
            spectrum_fft(w, 128, 500.0)

    def test_zero_dc_rejected(self):
        # every sample of this steep window underflows to 0
        w = sample(parse_window_spec("exp:poly:m=50,n=51"), 8192)
        assert not w.any()
        with pytest.raises(ValueError, match="DC"):
            spectrum_fft(w, 128, 50.0)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="empty band has no DC value"):
            Spectrum(np.array([], complex), 1 / 128)

    @pytest.mark.parametrize("pad", [2 ** 53 + 1, 10 ** 400], ids=["2^53+1", "10^400"])
    def test_pad_past_limit_rejected_before_any_conversion(self, pad):
        # f_max * 10**400 would overflow converting the integer to float
        with pytest.raises(ValueError, match=r"pad_factor must be at most 2\^53"):
            _band_size(50.0, pad)
        with pytest.raises(ValueError, match=r"pad_factor must be at most 2\^53"):
            spectrum_fft(sample(catalog("hann"), 64), pad, 0.0)

    def test_pad_at_limit_has_a_band_size(self):
        # 50 + j/2^53 rounds to 50 up to j = 32, the midpoint 50 + 2^-48 to the
        # next float, whose tie goes to 50's even last bit
        assert _band_size(50.0, 2 ** 53) == 50 * 2 ** 53 + 33

    @given(data=st.data())
    def test_band_size_counts_grid_points_up_to_fmax(self, data):
        # every k >= 0 whose float k/pad is at most f_max, counted one by
        # one; f_max drawn freely or at a grid point moved by up to 2 ulps
        pad = data.draw(st.integers(2, 1000), label="pad")
        on_grid = st.builds(_nudged, st.integers(0, 10 * pad).map(lambda k: k / pad), st.integers(-2, 2))
        f_max = data.draw(st.one_of(st.floats(0.0, 10.0), on_grid), label="f_max")
        count = 0
        while count / pad <= f_max:
            count += 1
        assert _band_size(f_max, pad) == count

    @given(data=st.data())
    def test_band_size_is_exact_past_2_to_53(self, data):
        # 2^53 <= f_max * pad <= 2^59, where up to 2^5 neighbours of k/pad
        # round to the same float; pads that are powers of two put ties on the grid
        pad = data.draw(st.one_of(st.integers(2 ** 44, 2 ** 53), st.integers(44, 53).map(lambda j: 2 ** j)), label="pad")
        on_grid = st.builds(_nudged, st.integers(2 ** 53, 2 ** 59).map(lambda k: k / pad), st.integers(-2, 2))
        f_max = data.draw(st.one_of(st.floats(2 ** 53 / pad, 2 ** 59 / pad), on_grid), label="f_max")
        assume(Fraction(f_max) * pad >= 2 ** 53)
        assert _band_size(f_max, pad) == _count_by_bisection(f_max, pad)


class TestChirpPlan:
    def test_repeat_call_is_bit_identical(self):
        g = sample(catalog("hann"), 8192) / 8192
        a = _band_dft(g, 1 / 8192, 1 / 128, 64001)
        b = _band_dft(g.copy(), 1 / 8192, 1 / 128, 64001)
        assert a.tobytes() == b.tobytes()

    def test_cached_plan_is_read_only_and_single(self):
        g = np.ones(64)
        _band_dft(g, 1 / 64, 0.5, 40)
        _band_dft(g, 1 / 64, 0.25, 40)
        assert _chirp_plan.cache_info().currsize <= 1
        chirp, kernel_fft, buf = _chirp_plan(64, 40, 1 / 256)
        for arr in (chirp, kernel_fft):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        _band_dft(g, 1 / 64, 0.25, 40)
        assert _chirp_plan(64, 40, 1 / 256)[2] is buf  # one shape, one work buffer

    def test_non_power_of_two_step_matches_direct_sum(self):
        # a = dt*df = 0.3/777 is not a power of two, so the chirp phases round
        rng = np.random.default_rng(5)
        n, dt, df, m = 777, 1 / 777, 0.3, 500
        g = rng.standard_normal(n)
        got = _band_dft(g, dt, df, m)
        k = np.arange(n)
        for j in (0, 1, 123, 256, 499):
            direct = np.sum(g * np.exp(2j * np.pi * (j * df) * (k * dt)))
            assert abs(got[j] - direct) < 1e-12 * np.sum(np.abs(g))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000), m=st.integers(1, 3000))
    def test_fft_size_is_least_of_three_families(self, n, m):
        # every c * 2^k, c in {1, 3, 5}, up to the first one at or above n + m - 1
        least = min(next(c << k for k in range(64) if c << k >= n + m - 1) for c in (1, 3, 5))
        assert _chirp_plan(n, m, 2.0 ** -20)[1].size == least

    @pytest.mark.parametrize(
        "n, m, size",
        [(8193, 8192, 16384), (8192, 6401, 16384), (32769, 6401, 40960), (16385, 6401, 24576)],
        ids=["table chunk", "default spectrum", "default quadrature", "folded default quadrature"],
    )
    def test_fft_size_of_default_bands(self, n, m, size):
        assert _chirp_plan(n, m, 2.0 ** -20)[1].size == size

    @pytest.mark.parametrize("spec, shape", [("hann", (16385, 6401)), ("exp:poly:m=1,n=2", (32769, 6401))])
    def test_quadrature_command_plan_shape(self, spec, shape, tmp_path, monkeypatch):
        # a symmetric window's default quad band transforms the 2^14 + 1 folded nodes
        shapes = []
        plan = spectrum._chirp_plan
        monkeypatch.setattr(spectrum, "_chirp_plan", lambda n, m, a: shapes.append((n, m)) or plan(n, m, a))
        assert main(["spectrum", spec, "--method", "quad", "--out", str(tmp_path / "s.csv")]) == 0
        assert shapes == [shape]

    # n + m - 1 = 599 pads to 5 * 2^7 and 749 to 3 * 2^8; dt*df = 2^-16 keeps
    # the direct sum's phases j*k*dt*df exact.
    @pytest.mark.parametrize("n, m, size", [(400, 200, 640), (500, 250, 768)])
    def test_radix_three_and_five_sizes_match_direct_sum(self, n, m, size):
        g = np.random.default_rng(n).standard_normal(n)
        dt, df = 1 / 512, 1 / 128
        got = _band_dft(g, dt, df, m)
        assert _chirp_plan(n, m, dt * df)[1].size == size
        jk = np.outer(np.arange(m), np.arange(n)).astype(float)
        direct = np.exp(2j * np.pi * np.fmod(jk * (dt * df), 1.0)) @ g
        assert np.max(np.abs(got - direct)) < 1e-13 * np.sum(np.abs(g))

    @pytest.mark.parametrize("c", range(1, 8))
    def test_band_from_later_bin_matches_slice_of_whole_band(self, c):
        # chunk c of a table row: 8193 nodes turned by exp(2*pi*i*c*k/128),
        # 8192 bins from 0 Hz, dt*df = 2^-20
        g = np.random.default_rng(c).standard_normal(8193)
        first = 8192 * c
        turn = np.exp(2j * np.pi * np.fmod(c * np.arange(8193) / 128, 1.0))
        got = _band_dft(g * turn, 1 / 8192, 1 / 128, 8192)
        want = _band_dft(g, 1 / 8192, 1 / 128, first + 8192)[first:]
        assert np.max(np.abs(got - want)) < 1e-12 * np.sum(np.abs(g))

    def test_result_does_not_alias_work_buffer(self):
        rng = np.random.default_rng(7)
        got = _band_dft(rng.standard_normal(8193), 1 / 8192, 1 / 128, 8192)
        before = got.tobytes()
        _band_dft(rng.standard_normal(8193) + 1j * rng.standard_normal(8193), 1 / 8192, 1 / 128, 8192)
        assert got.tobytes() == before

    def test_threads_match_serial_calls(self):
        # four threads switching every microsecond contend for the shared work buffer
        rng = np.random.default_rng(8)
        gs = [[rng.standard_normal(8193) + 1j * rng.standard_normal(8193) for _ in range(4)] for _ in range(4)]
        serial = [[_band_dft(g, 1 / 8192, 1 / 128, 8192).tobytes() for g in row] for row in gs]
        results = [None] * len(gs)
        start = threading.Barrier(len(gs))

        def work(i):
            start.wait()
            results[i] = [_band_dft(g, 1 / 8192, 1 / 128, 8192).tobytes() for _ in range(5) for g in gs[i]]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(gs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want * 5 for want in serial]

    @pytest.mark.parametrize(
        "n, df, m, term, remedy",
        [
            # 5e10 bins at 1e-9 Hz over 8192 nodes: m^2/(8192e9) = 3.1e8
            (8192, 1e-9, 50_000_000_001, "m^2", "use fewer"),
            # 2 bins 20000.3 Hz apart over 1280021 nodes: n^2 * df/n = 2.6e10
            (1_280_021, 20000.3, 2, "n^2", "use fewer nodes or a finer spacing"),
        ],
        ids=["m^2", "n^2"],
    )
    def test_phase_error_names_its_term_and_remedy(self, n, df, m, term, remedy):
        match = rf"chirp-z phase dt\*df\*{re.escape(term)} = .* > 2\^24: .*{remedy}"
        with pytest.raises(ValueError, match=match):
            _band_dft(np.ones(n), 1.0 / (n - 1), df, m)

    @pytest.mark.parametrize("c", range(1, 8))
    def test_periodic_turn_matches_full_length(self, c, monkeypatch):
        # the weights a table row's chunk c transforms: its 128-point table of
        # turns, tiled over the 8193 nodes, against exp(2*pi*i*c*k/128) at every
        # node; exp:win:triangular's band runs to 500 Hz, through chunk 7
        w = window_eval(parse_window_spec("exp:win:triangular"), _simpson_rule(8192)[0])
        inputs = []
        monkeypatch.setattr(metrics, "_band_dft", lambda g, *args: inputs.append(g) or _band_dft(g, *args))
        metrics._band_lobes(w)
        assert len(inputs) == 8
        want = _simpson_rule(8192)[1] * w * np.exp(2j * np.pi * np.fmod(c * np.arange(8193) / 128, 1.0))
        assert inputs[c].tobytes() == want.tobytes()


class TestSpectrumQuadrature:
    def test_rectangular_null_at_integer(self):
        s = spectrum_quadrature(catalog("rectangular"), 2, 1.0)
        assert s.magnitudes[-1] < 1e-9

    def test_sine_dc_value(self):
        s = spectrum_quadrature(catalog("sine"), 2, 1.0)
        assert s.magnitudes[0] == pytest.approx(2 / math.pi, rel=1e-10)

    def test_cross_path_agreement_exp_window(self):
        wdef = ExpKernelWindow(PolynomialKernel(1, 1))
        s_f = spectrum_fft(sample(wdef, 8192), 128, 10.0)
        s_q = spectrum_quadrature(wdef, 128, 10.0)
        assert abs(s_f.amplitudes[0] - s_q.amplitudes[0]) < 1e-6
        rel = np.max(np.abs(s_f.magnitudes - s_q.magnitudes)) / s_q.magnitudes[0]
        assert rel < 1e-4

    @pytest.mark.parametrize("f", [2000.3, 20000.3])
    def test_high_frequency_matches_sinc(self, f):
        # the panel count grows with the highest frequency; f is the top bin of the 0.1 Hz grid
        s = spectrum_quadrature(catalog("rectangular"), 10, f)
        assert s.magnitudes[-1] == pytest.approx(_sinc_mag(f), rel=2e-6)
        assert np.max(np.abs(s.magnitudes - np.abs(np.sinc(s.frequencies)))) < 1e-9

    def test_sparse_band_rejected(self):
        # 2000 * 2^20 + 1 bins of 2^-20 Hz over 128000 panels: the chirp
        # phase dt*df*m^2 reaches 3.3e7, where float64 keeps too few digits
        with pytest.raises(ValueError, match=r"chirp-z phase dt\*df\*m\^2"):
            spectrum_quadrature(catalog("rectangular"), 2 ** 20, 2000.0)

    def test_frequency_limit(self):
        with pytest.raises(ValueError, match="32768"):
            spectrum_quadrature(catalog("rectangular"), 2, 32768.5)

    def test_conjugate_symmetry(self):
        # real windows: Fhat(-f) = conj(Fhat(f)); checked by direct Simpson
        from expwin.windows import window_eval

        wdef = catalog("hamming")
        t = np.linspace(0, 1, 2 ** 15 + 1)
        w = np.ones(t.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        g = w / (3 * (t.size - 1)) * window_eval(wdef, t)
        for f in (0.7, 2.3, 11.0):
            pos = np.dot(g, np.exp(2j * np.pi * f * t))
            neg = np.dot(g, np.exp(-2j * np.pi * f * t))
            assert neg == pytest.approx(np.conj(pos), abs=1e-12)


class TestSymmetricFold:
    """A symmetric window's quadrature band from the nodes t <= 1/2, against
    ``spectrum_simpson`` of all 2^15 + 1 nodes."""

    @staticmethod
    def unfolded(wdef):
        return spectrum_simpson(window_eval(wdef, _simpson_rule(2 ** 15)[0]), 50.0, 6401)

    @settings(max_examples=40, deadline=None)
    @given(wdef=symmetric_windows())
    def test_folded_magnitudes_match_unfolded(self, wdef):
        got, want = spectrum_quadrature(wdef, 128, 50.0), self.unfolded(wdef)
        assert got.amplitudes.dtype == np.float64
        assert np.max(np.abs(np.abs(got.amplitudes) - want.magnitudes)) <= 1e-12 * want.dc

    @settings(max_examples=15, deadline=None)
    @given(wdef=asymmetric_windows())
    def test_asymmetric_window_takes_unfolded_path(self, wdef):
        got = spectrum_quadrature(wdef, 128, 50.0).amplitudes
        assert got.dtype == complex
        assert got.tobytes() == self.unfolded(wdef).amplitudes.tobytes()

    def test_amplitude_is_signed(self):
        # rectangular: A(f) = exp(-i*pi*f) * Fhat(f) = sinc(f), negative on (1, 2)
        s = spectrum_quadrature(catalog("rectangular"), 128, 2.0)
        assert np.max(np.abs(s.amplitudes - np.sinc(s.frequencies))) < 1e-12
        assert s.amplitudes[150] < 0.0


_EXP_WINDOWS = st.one_of(
    st.builds(PolynomialKernel, st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
    st.builds(ScaledSineKernel, st.floats(0.1, 10.0)),
).map(ExpKernelWindow)


class TestCrossPathProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        wdef=st.one_of(symmetric_windows(), asymmetric_windows()),
        pad=st.integers(2, 300),
        f_max=st.floats(0.0, 50.0),
    )
    def test_quadrature_band_is_fft_band(self, wdef, pad, f_max):
        # both methods space the bins k/pad at 1.0/pad, bit for bit
        s_q = spectrum_quadrature(wdef, pad, f_max)
        s_f = spectrum_fft(sample(wdef, 8192), pad, f_max)
        assert s_q.frequencies.tobytes() == s_f.frequencies.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(wdef=_EXP_WINDOWS)
    def test_fft_matches_quadrature(self, wdef):
        # A window that rises to w[1] within one sample acts as an edge
        # jump (exp:poly with m or n near 0.05): there the Riemann sum is
        # only first order, and it errs by a fraction of w[1] * dt.
        w = sample(wdef, 8192)
        s_f = spectrum_fft(w, 128, 50.0)
        s_q = spectrum_quadrature(wdef, 128, 50.0)
        dc = s_q.magnitudes[0]
        edge = (w[1] + w[-1]) / w.size / dc
        assert np.max(np.abs(s_f.magnitudes - s_q.magnitudes)) / dc <= 1e-4 + edge

    @settings(max_examples=30, deadline=None)
    @given(wdef=_EXP_WINDOWS)
    def test_quadrature_dc_is_simpson_integral(self, wdef):
        panels = 2 ** 15
        t = np.linspace(0.0, 1.0, panels + 1)
        wts = np.ones(panels + 1)
        wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
        integral = float(np.dot(wts, window_eval(wdef, t))) / (3.0 * panels)
        dc = spectrum_quadrature(wdef, 128, 50.0).amplitudes[0]
        assert abs(dc - integral) <= 1e-12 * integral


def _segment_loop(s):
    """Reference segmentation, one null and one lobe at a time."""
    mag, db, f, h = s.magnitudes, s.db, s.frequencies, s.df

    def vertex(x0, ym, y0, yp):
        denom = ym - 2.0 * y0 + yp
        if denom == 0.0 or not np.isfinite(denom):
            return x0, y0
        delta = float(np.clip(0.5 * (ym - yp) / denom, -0.5, 0.5))
        return x0 + delta * h, y0 - 0.25 * (ym - yp) * delta

    mins = [i for i in range(1, mag.size - 1) if mag[i - 1] > mag[i] <= mag[i + 1]]
    nulls = [vertex(f[i], mag[i - 1], mag[i], mag[i + 1])[0] for i in mins]
    peaks = []
    for a, b in zip(mins[:-1], mins[1:]):
        k = a + 1 + int(np.argmax(mag[a + 1 : b]))
        peaks.append(vertex(f[k], db[k - 1], db[k], db[k + 1]))
    peaks = np.array(peaks, dtype=float).reshape(-1, 2)
    return np.array(nulls), peaks[:, 0], peaks[:, 1]


def _hand_spectrum(mags):
    return Spectrum(np.array(mags, float), 0.01)


@pytest.fixture(scope="module")
def rect_seg():
    s = spectrum_fft(sample(catalog("rectangular"), 8192), 128, 10.0)
    return segment_lobes(s)


class TestSegmentLobes:
    def test_rectangular_nulls_at_integers(self, rect_seg):
        for k in range(1, 6):
            assert rect_seg.nulls[k - 1] == pytest.approx(float(k), abs=0.005)

    def test_rectangular_first_sidelobe(self, rect_seg):
        assert rect_seg.peak_freqs[0] == pytest.approx(1.430, abs=0.01)
        assert rect_seg.peak_db[0] == pytest.approx(-13.26, abs=0.1)

    def test_peaks_interleave_nulls(self, rect_seg):
        for i, f in enumerate(rect_seg.peak_freqs):
            assert rect_seg.nulls[i] < f < rect_seg.nulls[i + 1]

    def test_peaks_below_zero_db(self, rect_seg):
        assert np.all(rect_seg.peak_db <= 0.0)

    def test_hann_main_lobe_edge(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, 10.0)
        seg = segment_lobes(s)
        assert seg.nulls[0] == pytest.approx(2.00, abs=0.01)

    def test_poisson_minima_count_as_nulls(self):
        s = spectrum_fft(sample(catalog("poisson"), 8192), 128, 10.0)
        seg = segment_lobes(s)
        assert seg.nulls.size >= 2

    def test_no_nulls_raises(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, 1.0)
        with pytest.raises(NoNullsFoundError):
            segment_lobes(s)  # below the first null at 2 Hz

    @pytest.mark.parametrize("f_max", [0.0, 1.0 / 128])
    def test_fewer_than_three_bins_raises(self, f_max):
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, f_max)
        with pytest.raises(NoNullsFoundError, match="bins"):
            segment_lobes(s)

    @pytest.mark.parametrize(
        "spec,f_max",
        [
            ("rectangular", 20.0),
            ("hann", 20.0),
            ("kaiser:alpha=2.546", 50.0),
            ("poisson", 20.0),
            ("exp:poly:m=2.0,n=2.0", 500.0),
        ],
    )
    def test_matches_loop_reference(self, spec, f_max):
        # most minima of exp:poly below 500 Hz are round-off, some at -inf dB
        s = spectrum_fft(sample(parse_window_spec(spec), 8192), 128, f_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seg = segment_lobes(s)
        for got, want in zip((seg.nulls, seg.peak_freqs, seg.peak_db), _segment_loop(s)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(
        mags=st.tuples(st.integers(1, 3), st.lists(st.integers(0, 3), min_size=2, max_size=30)).map(
            lambda dc_rest: [dc_rest[0], *dc_rest[1]]
        )
    )
    def test_small_integer_magnitudes_match_loop(self, mags):
        # small integers give ties, plateaus, exact zeros and 0, 1 or many minima
        s = _hand_spectrum(mags)
        want = _segment_loop(s)
        if want[0].size == 0:
            with pytest.raises(NoNullsFoundError):
                segment_lobes(s)
            return
        seg = segment_lobes(s)
        for got, ref in zip((seg.nulls, seg.peak_freqs, seg.peak_db), want):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_plateau_peak_takes_first_index(self):
        # minima at 2 and 7; the plateau at 3..5 is refined from index 3,
        # whose vertex lies half a bin to the right
        s = _hand_spectrum([1.0, 0.5, 0.1, 0.3, 0.3, 0.3, 0.2, 0.05, 0.4])
        seg = segment_lobes(s)
        assert seg.peak_freqs.tolist() == [s.frequencies[3] + 0.5 * s.df]

    def test_zero_magnitude_neighbours_keep_grid_point(self):
        # exact zeros at 2 and 4 put -inf dB on both sides of the peak
        s = _hand_spectrum([1.0, 0.5, 0.0, 0.3, 0.0, 0.4, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seg = segment_lobes(s)
        assert seg.peak_freqs.tolist() == [s.frequencies[3]]
        assert seg.peak_db.tolist() == [s.db[3]]
        assert seg.nulls.size == 2 and np.all(np.isfinite(seg.nulls))

    def test_single_null_gives_empty_peaks(self):
        seg = segment_lobes(_hand_spectrum([1.0, 0.5, 0.1, 0.3, 0.4]))
        assert seg.nulls.size == 1
        for arr in (seg.peak_freqs, seg.peak_db):
            assert arr.dtype == np.float64 and arr.size == 0

    def test_coarse_grid_rejected(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 16, 10.0)
        with pytest.raises(ValueError):
            segment_lobes(s)


class TestWindowedTone:
    def test_modulated_tone_nulls(self):
        # cos(2 pi 10 t) under a Hann window: spectrum peak at 10 Hz with
        # first nulls offset by the 2 Hz main-lobe half width
        n = 1024
        x = np.cos(2 * np.pi * 10 * np.arange(n) / n)
        y = x * sample(catalog("hann"), n)
        s = spectrum_fft(y, 128, 20.0)
        seg = segment_lobes(s)
        peak_bin = int(np.argmax(s.magnitudes))
        assert s.frequencies[peak_bin] == pytest.approx(10.0, abs=0.01)
        lower = seg.nulls[np.argmin(np.abs(seg.nulls - 8.0))]
        upper = seg.nulls[np.argmin(np.abs(seg.nulls - 12.0))]
        assert lower == pytest.approx(8.0, abs=0.05)
        assert upper == pytest.approx(12.0, abs=0.05)
