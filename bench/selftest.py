"""Self-test of the benchmark's correctness checks: each rejects a perturbed output.

    python3 bench/selftest.py

Correct outputs are built here from the references in checks.py, in the
CLI's CSV layout, so the test needs no expwin.  Each case first shows that
the check accepts the correct output, then that it names the perturbation.
"""
import unittest

import numpy as np

import checks


def spectrum_csv(f, a):
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(a / a[0])
    db[0] = 0.0
    return "f_hz,abs,db\n" + "".join(f"{x:.12g},{y:.12g},{z:.12g}\n" for x, y, z in zip(f, a, db))


def fft_spectrum(ref):
    """What `expwin spectrum <spec>` prints, computed with numpy's FFT."""
    n = checks.N_SAMPLES
    w = checks.window_fn(ref)(np.arange(n) / n)
    amps = np.abs(np.fft.rfft(w, n * checks.PAD_S)) / n
    f = np.arange(int(checks.FMAX_HZ * checks.PAD_S) + 1) / checks.PAD_S
    return f, amps[: f.size]


def grid():
    return np.arange(int(checks.FMAX_HZ * checks.PAD_S) + 1) / checks.PAD_S


def names(problems):
    return {p.split(":")[0] for p in problems}


class SpectraCheck(unittest.TestCase):
    ref = ["poly", 1.3, 0.7]

    def setUp(self):
        self.f, self.a = fft_spectrum(self.ref)

    def test_accepts_correct_output(self):
        self.assertEqual(checks.check_spectra(self.ref, spectrum_csv(self.f, self.a)), [])

    def test_rejects_abs_off_at_a_probe_bin(self):
        self.a[333] *= 1.0 + 1e-6
        self.assertEqual(names(checks.check_spectra(self.ref, spectrum_csv(self.f, self.a))), {"dft"})

    def test_rejects_another_window(self):
        f, a = fft_spectrum(["poly", 1.3, 0.71])
        self.assertEqual(names(checks.check_spectra(self.ref, spectrum_csv(f, a))), {"dft"})

    def test_rejects_grid_off_k_over_128(self):
        self.f[10] += 1e-9
        self.assertIn("grid", names(checks.check_spectra(self.ref, spectrum_csv(self.f, self.a))))

    def test_rejects_missing_row(self):
        text = spectrum_csv(self.f[:-1], self.a[:-1])
        self.assertEqual(names(checks.check_spectra(self.ref, text)), {"grid"})

    def test_rejects_db_inconsistent_with_abs(self):
        lines = spectrum_csv(self.f, self.a).split("\n")
        f, a, db = lines[100].split(",")
        lines[100] = f"{f},{a},{float(db) + 1e-6:.12g}"
        self.assertEqual(names(checks.check_spectra(self.ref, "\n".join(lines))), {"db"})

    def test_rejects_bad_layout(self):
        self.assertEqual(names(checks.check_spectra(self.ref, "f,abs,db\n0,1,0\n")), {"layout"})


class OracleCheck(unittest.TestCase):
    def test_closed_form_accepts_then_rejects(self):
        ref = ["catalog", "hann", {}]
        a = np.abs(checks.CLOSED_FORM["hann"](grid()))
        self.assertEqual(checks.check_oracle(ref, spectrum_csv(grid(), a)), [])
        a[4321] += 2e-6 * a[0]  # 33.76 Hz, off every probe frequency
        self.assertEqual(names(checks.check_oracle(ref, spectrum_csv(grid(), a))), {"closed-form"})

    def test_quadrature_accepts_then_rejects(self):
        ref = ["catalog", "kaiser", {}]
        a = checks.quadrature_abs(ref, grid())
        self.assertEqual(checks.check_oracle(ref, spectrum_csv(grid(), a)), [])
        a[int(19.5 * checks.PAD_S)] += 2e-6 * a[0]
        self.assertEqual(names(checks.check_oracle(ref, spectrum_csv(grid(), a))), {"quadrature"})

    def test_every_closed_form_matches_the_quadrature(self):
        f = np.linspace(0.0, 50.0, 97)
        for wid, ft in checks.CLOSED_FORM.items():
            q = checks.quadrature_abs(["catalog", wid, {}], f)
            np.testing.assert_allclose(np.abs(ft(f)), q, rtol=0, atol=1e-12, err_msg=wid)


class TableCheck(unittest.TestCase):
    def setUp(self):
        self.rows = {}
        for label, v in checks.PAPER_TABLE.items():
            self.rows[label] = [f"{v[0]:.2f}", f"{v[1]:.2f}", f"{v[2]:.1f}", f"{v[3]:.2f}", f"{v[4]:.2f}", f"{v[5]:.2f}"]

    def csv(self):
        lines = [",".join(checks.TABLE_COLUMNS)]
        lines += [",".join([label, '"spec,x"'] + cells) for label, cells in self.rows.items()]
        return "\n".join(lines) + "\n"

    def problems(self):
        return names(checks.check_table(self.csv()))

    def test_accepts_the_paper_values(self):
        self.assertEqual(checks.check_table(self.csv()), [])

    def test_rejects_value_off_the_paper(self):
        self.rows["Hann"][0] = "2.10"
        self.assertEqual(self.problems(), {"paper"})

    def test_rejects_error_cell(self):
        self.rows["Hann"] = ["ERROR: boom", "", "", "", "", ""]
        self.assertEqual(self.problems(), {"error-cell"})

    def test_rejects_missing_row(self):
        del self.rows["Hann"]
        self.assertEqual(self.problems(), {"layout"})

    def test_rejects_rectangular_null_off_1_hz(self):
        self.rows["Rectangular"][0] = "1.02"  # within the paper's 0.03
        self.assertEqual(self.problems(), {"rect-null"})

    def test_rejects_rectangular_sidelobe_off_sinc(self):
        self.rows["Rectangular"][2] = "13.5"  # within the paper's 0.5 dB
        self.assertEqual(self.problems(), {"rect-sidelobe"})

    def test_rejects_sine_half_width_off_5(self):
        self.rows["Sine"][5] = "5.02"  # within the paper's 0.03
        self.assertEqual(self.problems(), {"sine-half-width"})

    def test_rejects_poly_half_width_off_closed_form(self):
        exact = checks.poly_half_width(1.0)
        paper = checks.PAPER_TABLE["Exp poly n=1.0"][5]
        off = exact + (0.03 if paper > exact else -0.03)  # toward the paper value
        self.rows["Exp poly n=1.0"][5] = f"{off:.2f}"
        self.assertEqual(self.problems(), {"poly-half-width"})


class IdenticalBytes(unittest.TestCase):
    def test_rejects_a_round_that_differs(self):
        self.assertEqual(checks.identical_bytes([["a", "b"], ["a", "b"]]), [])
        self.assertEqual(names(checks.identical_bytes([["a", "b"], ["a", "c"]])), {"identical-bytes"})


if __name__ == "__main__":
    unittest.main()
