import math

import numpy as np
import pytest

from expwin.kernels import PolynomialKernel
from expwin.spectrum import (
    NoNullsFoundError,
    SampledWindow,
    apply_window,
    segment_lobes,
    spectrum_fft,
    spectrum_quadrature,
)
from expwin.windows import ExpKernelWindow, catalog, sample


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
            direct = np.sum(w.values * np.exp(1j * phase)) / n
            assert abs(s.amplitudes[j] - direct) < tol * abs(s.amplitudes[0])

    def test_above_nyquist_rejected(self):
        w = sample(catalog("hann"), 256)
        assert spectrum_fft(w, 128, 128.0).frequencies[-1] == 128.0
        with pytest.raises(ValueError, match="Nyquist"):
            spectrum_fft(w, 128, 500.0)


class TestSpectrumQuadrature:
    def test_rectangular_null_at_integer(self):
        s = spectrum_quadrature(catalog("rectangular"), [1.0])
        assert s.magnitudes[-1] < 1e-9

    def test_sine_dc_value(self):
        s = spectrum_quadrature(catalog("sine"), [0.0, 1.0])
        assert s.magnitudes[0] == pytest.approx(2 / math.pi, rel=1e-10)

    def test_cross_path_agreement_exp_window(self):
        wdef = ExpKernelWindow(PolynomialKernel(1, 1))
        s_f = spectrum_fft(sample(wdef, 8192), 128, 10.0)
        s_q = spectrum_quadrature(wdef, s_f.frequencies)
        assert abs(s_f.amplitudes[0] - s_q.amplitudes[0]) < 1e-6
        rel = np.max(np.abs(s_f.magnitudes - s_q.magnitudes)) / s_q.magnitudes[0]
        assert rel < 1e-4

    def test_uniform_and_arbitrary_grids_agree(self):
        # the chirp-z band transform must match direct evaluation
        wdef = catalog("hann")
        f_uniform = np.arange(600) * 0.01
        s_u = spectrum_quadrature(wdef, f_uniform)
        picks = [0, 1, 17, 123, 599]
        s_d = spectrum_quadrature(wdef, f_uniform[picks] + 0.0)
        # non-uniform selection goes through the direct branch
        assert np.max(np.abs(s_u.amplitudes[picks] - s_d.amplitudes)) < 1e-12

    def test_offset_grid_matches_direct_sum(self):
        # a uniform grid not starting at 0 folds exp(2 pi i f0 t) into g
        wdef = catalog("kaiser")
        f_uniform = 3.3 + np.arange(400) * 0.07
        s_u = spectrum_quadrature(wdef, f_uniform)
        picks = [0, 1, 57, 250, 399]
        s_d = spectrum_quadrature(wdef, f_uniform[picks])
        assert np.max(np.abs(s_u.amplitudes[picks] - s_d.amplitudes)) < 1e-12

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


@pytest.fixture(scope="module")
def rect_seg():
    s = spectrum_fft(sample(catalog("rectangular"), 8192), 128, 10.0)
    return segment_lobes(s, 10.0)


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
        seg = segment_lobes(s, 10.0)
        assert seg.main_lobe_edge == pytest.approx(2.00, abs=0.01)

    def test_starred_window_minima_count_as_nulls(self):
        s = spectrum_fft(sample(catalog("poisson"), 8192), 128, 10.0)
        seg = segment_lobes(s, 10.0)
        assert seg.nulls.size >= 2

    def test_no_nulls_raises(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 128, 10.0)
        with pytest.raises(NoNullsFoundError):
            segment_lobes(s, 1.0)  # below the first null at 2 Hz

    def test_coarse_grid_rejected(self):
        s = spectrum_fft(sample(catalog("hann"), 8192), 16, 10.0)
        with pytest.raises(ValueError):
            segment_lobes(s, 10.0)


class TestApplyWindow:
    def test_rectangular_is_identity(self):
        x = np.ones(64)
        assert np.array_equal(apply_window(x, catalog("rectangular")), x)

    def test_constant_signal_returns_window(self):
        x = np.ones(64)
        assert np.array_equal(apply_window(x, catalog("hann")), sample(catalog("hann"), 64).values)

    def test_modulated_tone_nulls(self):
        # cos(2 pi 10 t) under a Hann window: spectrum peak at 10 Hz with
        # first nulls offset by the 2 Hz main-lobe half width
        n = 1024
        x = np.cos(2 * np.pi * 10 * np.arange(n) / n)
        y = apply_window(x, catalog("hann"))
        s = spectrum_fft(SampledWindow(values=y, n_samples=n), 128, 20.0)
        seg = segment_lobes(s, 20.0)
        peak_bin = int(np.argmax(s.magnitudes))
        assert s.frequencies[peak_bin] == pytest.approx(10.0, abs=0.01)
        lower = seg.nulls[np.argmin(np.abs(seg.nulls - 8.0))]
        upper = seg.nulls[np.argmin(np.abs(seg.nulls - 12.0))]
        assert lower == pytest.approx(8.0, abs=0.05)
        assert upper == pytest.approx(12.0, abs=0.05)

    def test_short_signal_rejected(self):
        with pytest.raises(ValueError):
            apply_window(np.ones(8), catalog("hann"))
