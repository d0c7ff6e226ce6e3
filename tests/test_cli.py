import csv
import io
import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expwin import _cells, table
from expwin.cli import _csv, build_parser, main
from expwin.kernels import PolynomialKernel, ScaledSineKernel
from expwin.metrics import MetricsError
from expwin.specs import SpecParseError, format_window_spec, parse_window_spec
from expwin.spectrum import spectrum_fft
from expwin.table import TABLE_ROWS
from expwin.windows import CatalogWindow, ExpKernelWindow, catalog, sample
from strategies import catalog_windows, kernels

# `expwin table --format csv`, byte for byte.  A change that moves a cell
# updates this text and names the cell in CHANGES.md.
TABLE_CSV = """\
window,spec,omega0_hz,leakage_pct,sidelobe_db,sidelobe_width_hz,decay_scale_hz,half_width_0p1s
Exp[Welch],exp:win:welch,1.59,1.01,20.1,1.24,11.23,5.07
Exp[Sine],exp:win:sine,1.69,0.76,21.2,1.27,10.38,4.67
Exp[sin(pi t)/2],exp:sine:c=0.5,2.13,0.22,25.8,1.39,7.79,3.50
Exp[2 sin(pi t)],exp:sine:c=2.0,1.43,1.74,18.2,1.19,14.04,5.98
Exp[Hann],exp:win:hann,2.26,0.40,23.5,1.62,10.14,3.39
Exp[Kaiser a=8/pi],exp:win:kaiser:alpha=2.5464790894703255,2.71,0.25,25.4,1.86,10.02,2.79
Exp[Tukey a=0.5],exp:win:tukey:alpha=0.5,1.40,4.87,14.3,1.39,13.24,6.69
Exp poly n=0.1,"exp:poly:m=0.1,n=0.1",1.06,6.51,14.4,1.01,140.60,9.64
Exp poly n=0.25,"exp:poly:m=0.25,n=0.25",1.19,3.11,16.5,1.04,37.94,7.64
Exp poly n=0.5,"exp:poly:m=0.5,n=0.5",1.52,0.89,20.7,1.14,12.67,5.23
Exp poly n=1.0,"exp:poly:m=1.0,n=1.0",2.61,0.06,30.5,1.48,7.28,2.82
Exp poly n=1.5,"exp:poly:m=1.5,n=1.5",4.68,0.00,44.2,1.98,7.24,1.67
Exp poly n=2.0,"exp:poly:m=2.0,n=2.0",8.70,0.00,65.5,2.65,9.37,1.03
Rectangular,rectangular,1.00,9.72,13.3,1.00,318.50,10.00
Triangular,triangular,2.00,0.29,26.5,2.00,20.98,2.93
Welch,welch,1.43,0.79,21.3,1.03,17.98,5.41
Sine,sine,1.50,0.51,23.0,1.00,15.99,5.00
Hann,hann,2.00,0.05,31.5,1.00,7.46,3.64
Hamming,hamming,2.00,0.04,44.0,0.60,47.50,3.82
Gaussian s=0.5,gaussian:sigma=0.5,1.11,4.48,16.5,0.94,226.50,8.33
Cauchy-Lorentz g=0.5,cauchy_lorentz:gamma=0.5,1.18,2.94,19.0,0.86,203.50,6.44
Poisson tau=0.5,poisson:tau=0.5,1.30,2.19,25.5,0.61,185.50,3.47
Kaiser a=8/pi,kaiser:alpha=2.5464790894703255,2.74,0.00,58.7,0.50,3.54,3.01
Tukey a=0.3,tukey:alpha=0.3,1.18,6.16,13.8,1.18,9.67,8.09
Tukey a=0.5,tukey:alpha=0.5,1.33,3.75,15.1,1.33,9.62,6.82
Tukey a=0.7,tukey:alpha=0.7,1.54,1.62,18.2,1.54,4.44,5.55
Planck-taper e=0.15,planck_taper:epsilon=0.15,1.18,6.96,13.6,1.18,12.97,8.18
Planck-taper e=0.25,planck_taper:epsilon=0.25,1.33,4.92,14.3,1.33,7.90,6.97
Planck-taper e=0.35,planck_taper:epsilon=0.35,1.54,2.86,16.0,1.54,9.62,5.76
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("hann", catalog("hann")),
            ("tukey:alpha=0.5", catalog("tukey", alpha=0.5)),
            ("kaiser:alpha=2.546", catalog("kaiser", alpha=2.546)),
            ("exp:poly:m=1.0,n=1.0", ExpKernelWindow(PolynomialKernel(1.0, 1.0))),
            ("exp:sine:c=2.0", ExpKernelWindow(ScaledSineKernel(2.0))),
            ("exp:win:hann", ExpKernelWindow(CatalogWindow("hann"))),
            (
                "exp:win:tukey:alpha=0.5",
                ExpKernelWindow(CatalogWindow("tukey", (("alpha", 0.5),))),
            ),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_window_spec(text) == expected

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "nosuch",
            "hann:alpha=1",
            "tukey:alpha=2.0",
            "exp:poly:m=1",
            "exp:poly:m=1,n=x",
            "exp:what:c=1",
            "exp:win:nosuch",
            "tukey:alpha=0.3,alpha=0.7",
            "exp:poly:m=1,m=2,n=1",
            "exp:sine:c=1,c=2",
            "exp:win:tukey:alpha=0.3,alpha=0.7",
            "tukey:alpha",
            "exp:sine:d=1",
        ],
    )
    def test_parse_errors_name_token(self, bad):
        with pytest.raises(SpecParseError):
            parse_window_spec(bad)

    def test_format_rejects_non_window(self):
        with pytest.raises(TypeError, match="cannot format"):
            format_window_spec(object())

    @pytest.mark.parametrize("label_spec", TABLE_ROWS)
    def test_round_trip_table_rows(self, label_spec):
        _, spec = label_spec
        wdef = parse_window_spec(spec)
        assert parse_window_spec(format_window_spec(wdef)) == wdef

    @given(
        m=st.floats(0.05, 8.0),
        n=st.floats(0.05, 8.0),
    )
    def test_round_trip_poly(self, m, n):
        wdef = ExpKernelWindow(PolynomialKernel(m, n))
        assert parse_window_spec(format_window_spec(wdef)) == wdef

    @given(wdef=st.one_of(catalog_windows(), kernels().map(ExpKernelWindow)))
    def test_round_trip_every_constructor(self, wdef):
        text = format_window_spec(wdef)
        assert parse_window_spec(text) == wdef
        assert format_window_spec(parse_window_spec(text)) == text

    @pytest.mark.parametrize(
        "argv,key",
        [
            (("metrics", "tukey:alpha=0.3,alpha=0.7"), "alpha"),
            (("sample", "exp:poly:m=1,m=2,n=1"), "m"),
        ],
    )
    def test_repeated_key_fails(self, capsys, argv, key):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: repeated key {key!r} in ")


class TestListCommand:
    def test_covers_all_table_rows(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for _, spec in TABLE_ROWS:
            assert spec in out
        assert len(TABLE_ROWS) >= 24

    def test_mentions_formulas_and_constructors(self, capsys):
        _, out, _ = run_cli(capsys, "list")
        assert "hamming" in out and "0.54 - 0.46 cos(2 pi t)" in out
        assert "exp:poly:m=<r>,n=<r>" in out


class TestSampleCommand:
    def test_rectangular(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "rectangular", "--n", "4")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "t,w"
        assert [l.split(",")[1] for l in lines[1:]] == ["1"] * 4

    def test_exp_poly_two(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "exp:poly:m=1,n=1", "--n", "2")
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        assert [(float(t), float(w)) for t, w in rows] == [(0.0, 0.0), (0.5, 1.0)]

    def test_sine_values(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "sine", "--n", "4")
        w = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
        assert w == pytest.approx([0.0, math.sqrt(2) / 2, 1.0, math.sqrt(2) / 2], abs=1e-11)

    def test_one_sample_fails(self, capsys):
        code, out, err = run_cli(capsys, "sample", "hann", "--n", "1")
        assert (code, out) == (1, "")
        assert err == "error: n_samples must be >= 2, got 1\n"

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "sample", "hann:alpha=1", "--n", "4")
        assert code == 1
        assert "hann" in err

    @pytest.mark.parametrize("spec", ["tukey:window_id=1", "exp:win:tukey:window_id=1"])
    def test_key_named_window_id_is_unknown_parameter(self, capsys, spec):
        code, out, err = run_cli(capsys, "sample", spec, "--n", "4")
        assert (code, out) == (1, "")
        assert err == "error: tukey does not take parameters ['window_id']\n"

    @pytest.mark.parametrize("spec", ["exp:poly:m=520,n=520", "exp:sine:c=1e-320"])
    def test_subnormal_kernel_maximum_fails_when_parsed(self, capsys, spec):
        # 1/B(t*) overflows, which would make every window value NaN
        code, out, err = run_cli(capsys, "sample", spec, "--n", "8")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "reciprocal overflows" in err

    @pytest.mark.parametrize(
        "spec,column",
        [
            ("kaiser:alpha=300", None),
            ("exp:win:kaiser:alpha=227", None),
            ("cauchy_lorentz:gamma=1e-170", None),
            ("cauchy_lorentz:gamma=1e160", None),
            ("gaussian:sigma=1e-200", ["0", "0", "1", "0"]),
            ("poisson:tau=1e-310", ["0", "0", "1", "0"]),
        ],
    )
    def test_extreme_catalog_parameters(self, capsys, spec, column):
        # a window that is not finite at its peak is an error, never NaN on stdout
        code, out, err = run_cli(capsys, "sample", spec, "--n", "4")
        if column is None:
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and "non-finite W(1/2)" in err
        else:
            assert (code, err) == (0, "")
            assert [l.split(",")[1] for l in out.strip().split("\n")[1:]] == column


class TestSpectrumCommand:
    def test_quadrature_null(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "rectangular", "--fmax", "5", "--method", "quad")
        assert code == 0
        rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in out.strip().split("\n")[1:]}
        assert rows[1.0] < 1e-9

    def test_tiny_fmax_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "hann", "--fmax", "1e-9")
        lines = out.strip().split("\n")
        assert code == 0
        assert len(lines) == 2
        f, _, db = lines[1].split(",")
        assert float(f) == 0.0 and float(db) == 0.0

    def test_fft_and_quad_agree(self, capsys):
        _, out_f, _ = run_cli(
            capsys, "spectrum", "exp:poly:m=1,n=1", "--fmax", "10", "--method", "fft"
        )
        _, out_q, _ = run_cli(
            capsys, "spectrum", "exp:poly:m=1,n=1", "--fmax", "10", "--method", "quad"
        )
        a_f = np.array([float(r.split(",")[1]) for r in out_f.strip().split("\n")[1:]])
        a_q = np.array([float(r.split(",")[1]) for r in out_q.strip().split("\n")[1:]])
        assert a_f.size == a_q.size
        assert np.max(np.abs(a_f - a_q)) / a_q[0] < 1e-4

    def test_methods_share_frequency_grid(self, capsys):
        # 0.29 * 100 rounds to 28.999...; both methods still end at 0.29
        cols = {}
        for method in ("fft", "quad"):
            code, out, _ = run_cli(
                capsys, "spectrum", "hann", "--fmax", "0.29", "--pad", "100", "--method", method
            )
            assert code == 0
            cols[method] = [r.split(",")[0] for r in out.strip().split("\n")[1:]]
        assert cols["fft"] == cols["quad"]
        assert cols["quad"][-1] == "0.29"

    @pytest.mark.parametrize("pad,fmax", [("100", "3"), ("7", "2.5")])
    def test_quad_grid_text_matches_fft(self, capsys, pad, fmax):
        # both methods write the grid k/pad
        cols = {}
        for method in ("fft", "quad"):
            code, out, _ = run_cli(capsys, "spectrum", "hann", "--fmax", fmax, "--pad", pad, "--method", method)
            assert code == 0
            cols[method] = [r.split(",")[0] for r in out.split("\n")[1:-1]]
        assert cols["fft"] == cols["quad"]
        assert cols["fft"] == [f"{k / int(pad):.12g}" for k in range(len(cols["fft"]))]

    def test_negative_fmax_quad_fails(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "hann", "--fmax", "-1", "--method", "quad")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_above_nyquist_fails(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "hann", "--fmax", "500", "--n", "256")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Nyquist" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ("--fmax", "nan"),
            ("--fmax", "nan", "--method", "quad"),
            ("--fmax", "inf", "--method", "quad"),
        ],
    )
    def test_non_finite_fmax_fails(self, capsys, extra):
        code, out, err = run_cli(capsys, "spectrum", "hann", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: f_max ")

    def test_rejected_quad_band_is_not_built(self, capsys):
        # the 12.8 million frequencies of this band would take about 100 MB
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "spectrum", "hann", "--fmax", "100000", "--method", "quad")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == "error: quadrature is limited to 32768 Hz, got 100000 Hz\n"
        assert peak < 2**20

    # 1e307 * 128 overflows to inf, so no band size exists; the band of
    # 32768.004 Hz would end at 32768 Hz, but the request is past the limit
    @pytest.mark.parametrize("fmax,shown", [("1e307", "1e+307"), ("32768.004", "32768.004")])
    def test_quad_fmax_past_limit_names_it(self, capsys, fmax, shown):
        code, out, err = run_cli(capsys, "spectrum", "hann", "--method", "quad", "--fmax", fmax)
        assert (code, out) == (1, "")
        assert err == f"error: quadrature is limited to 32768 Hz, got {shown} Hz\n"

    @pytest.mark.parametrize("method", ["fft", "quad"])
    def test_pad_past_float_range_names_limit(self, capsys, method):
        code, out, err = run_cli(capsys, "spectrum", "hann", "--pad", "1" + "0" * 400, "--method", method)
        assert (code, out) == (1, "")
        assert err == "error: pad_factor must be at most 2^53, got about 10^400\n"

    @pytest.mark.parametrize("method", ["fft", "quad"])
    def test_pad_below_two_fails(self, capsys, method):
        code, out, err = run_cli(capsys, "spectrum", "hann", "--pad", "1", "--method", method)
        assert (code, out) == (1, "")
        assert err == "error: pad_factor must be >= 2, got 1\n"

    @pytest.mark.parametrize("method", ["fft", "quad"])
    def test_finest_grid_to_zero_prints_one_row(self, capsys, method):
        # the next bin, 1/2^53 Hz, lies past --fmax 0
        code, out, _ = run_cli(capsys, "spectrum", "hann", "--fmax", "0", "--pad", str(2 ** 53), "--method", method)
        assert code == 0
        assert out == "f_hz,abs,db\n0,0.5,0\n"

    def test_too_many_bins_names_band_size(self, capsys):
        # 5e10 bins of 1e-9 Hz to 50 Hz: the band is too large, not too sparse
        code, out, err = run_cli(capsys, "spectrum", "hann", "--pad", "1000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: chirp-z phase dt*df*m^2 = 3.05e+08 > 2^24: ")
        assert "use fewer" in err and "more frequencies" not in err

    def test_wrapped_planck_taper(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "exp:win:planck_taper:epsilon=0.1")
        assert code == 0
        assert out.count("\n") == 1 + 6401

    def test_one_bin_quad_band(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "hann", "--fmax", "0.005", "--method", "quad")
        assert code == 0
        assert out == "f_hz,abs,db\n0,0.5,0\n"

    def test_zero_dc_fails(self, capsys):
        # every sample underflows to 0, so no dB level is defined
        code, out, err = run_cli(capsys, "spectrum", "exp:poly:m=50,n=51")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "DC" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "kaiser:alpha=inf"),
            ("spectrum", "cauchy_lorentz:gamma=inf"),
            ("spectrum", "gaussian:sigma=nan"),
            ("metrics", "exp:sine:c=inf"),
            ("metrics", "exp:poly:m=nan,n=1"),
            ("sample", "exp:win:tukey:alpha=-inf"),
        ],
    )
    def test_non_finite_parameter_fails(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "non-finite" in err


class TestMetricsCommand:
    def test_rectangular_json(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "rectangular")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "window",
            "omega0_hz",
            "leakage_pct",
            "sidelobe_db",
            "sidelobe_width_hz",
            "decay_scale_hz",
            "half_width_0p1s",
        }
        assert payload["window"] == "rectangular"
        assert payload["omega0_hz"] == pytest.approx(1.00, abs=0.03)
        assert payload["leakage_pct"] == pytest.approx(9.71, abs=0.15)

    def test_hamming_sidelobe(self, capsys):
        _, out, _ = run_cli(capsys, "metrics", "hamming")
        assert json.loads(out)["sidelobe_db"] == pytest.approx(-44.1, abs=0.5)

    def test_unknown_window_fails(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "bogus:x=1")
        assert code == 1
        assert "bogus" in err

    def test_unwritable_out_path_fails_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "no_such_dir" / "x.json"
        code, out, err = run_cli(capsys, "metrics", "hann", "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "no_such_dir" in err

    def test_underflowing_kernel_fails_when_parsed(self, capsys):
        # (1/2)^1200 underflows, so the kernel has no positive maximum
        code, out, err = run_cli(capsys, "metrics", "exp:poly:m=600,n=600")
        assert code == 1
        assert out == ""
        assert err.startswith("error: kernel PolynomialKernel(m=600.0, n=600.0)")

    def test_wrapped_planck_taper(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "exp:win:planck_taper")
        assert code == 0
        assert json.loads(out)["window"] == "exp:win:planck_taper"

    def test_failure_leaves_out_file_untouched(self, tmp_path, capsys):
        path = tmp_path / "o.json"
        path.write_text('{"good": 1}')
        code, out, err = run_cli(capsys, "metrics", "bogus", "--out", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert path.read_text() == '{"good": 1}'


@pytest.fixture(scope="module")
def table_csv():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["table", "--format", "csv"])
    return code, buf.getvalue()


class TestTableCommand:
    def test_row_order_and_count(self, table_csv):
        code, out = table_csv
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + len(TABLE_ROWS)
        labels = [l.split(",")[0] for l in lines[1:]]
        assert labels == [label for label, _ in TABLE_ROWS]

    def test_rectangular_row_values(self, table_csv):
        _, out = table_csv
        row = next(l for l in out.strip().split("\n") if l.startswith("Rectangular"))
        cells = row.split(",")
        assert float(cells[2]) == pytest.approx(1.00, abs=0.03)
        assert float(cells[3]) == pytest.approx(9.71, abs=0.15)
        assert float(cells[4]) == pytest.approx(13.3, abs=0.5)  # positive magnitude
        assert float(cells[7]) == pytest.approx(10.0, abs=0.03)

    def test_markdown_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "markdown")
        assert code == 0
        assert out.startswith("| window")
        assert "| Rectangular" in out

    def test_csv_bytes_pinned(self, table_csv):
        code, out = table_csv
        assert code == 0
        assert out == TABLE_CSV

    def test_markdown_cells_match_pinned_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--format", "markdown")
        assert code == 0
        lines = out.split("\n")
        assert lines[-1] == "" and set(lines[1]) <= set("|- ")
        cells = [[c.strip() for c in l[1:-1].split("|")] for l in lines[:1] + lines[2:-1]]
        assert cells == list(csv.reader(io.StringIO(TABLE_CSV)))

    def test_failing_row_is_an_ordinary_error(self, capsys, monkeypatch):
        # exp:win:poisson:tau=0.05 has no spectral local minimum below 500 Hz
        bad = ("Bad", "exp:win:poisson:tau=0.05")
        monkeypatch.setattr(table, "TABLE_ROWS", table.TABLE_ROWS + [bad])
        code, out, err = run_cli(capsys, "table")
        assert code == 1
        assert out == ""
        assert err.startswith("error: Bad: ")
        with pytest.raises(MetricsError, match="^Bad: "):
            table.compute_table()


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "sample", "exp:sine:c=2.0", "--n", "64")
        _, out2, _ = run_cli(capsys, "sample", "exp:sine:c=2.0", "--n", "64")
        assert out1 == out2

    def test_out_flag_matches_stdout(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "sample", "hann", "--n", "32")
        path = tmp_path / "w.csv"
        code = main(["sample", "hann", "--n", "32", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        assert path.read_text() == out


def _csv_per_cell(header, *columns):
    """The writer `_csv` replaced, one f-string per cell: the oracle of its bytes."""
    cells = [[f"{x:.12g}" for x in c.tolist()] for c in columns]
    return "\n".join([header] + [",".join(row) for row in zip(*cells)]) + "\n"


# infinities, NaN, negative zero, the smallest subnormal, the largest
# subnormal and the smallest normal number
SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308]

float64s = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.sampled_from(SPECIAL_FLOATS),
)


@st.composite
def csv_columns(draw):
    rows, values = draw(st.integers(1, 64)), draw(st.integers(1, 3))
    column = st.lists(float64s, min_size=rows, max_size=rows).map(np.array)
    return [draw(column) for _ in range(values)]


class TestCsvWriter:
    @given(divisor=st.integers(1, 2**31), columns=csv_columns())
    def test_matches_per_cell_writer(self, divisor, columns):
        header = ",".join(f"c{i}" for i in range(1 + len(columns)))
        grid = np.arange(columns[0].size) / divisor
        assert _csv(header, divisor, *columns) == _csv_per_cell(header, grid, *columns)

    def test_grid_changes_within_a_process(self, capsys):
        # the grid column's text is kept for the last grid only; each output
        # must carry its own grid, also when an earlier one comes back
        runs = [
            (("spectrum", "hann", "--pad", "128"), np.arange(6401) / 128),
            (("sample", "hann", "--n", "1000"), np.arange(1000) / 1000),
            (("spectrum", "hann", "--pad", "128"), np.arange(6401) / 128),
        ]
        for argv, grid in runs:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "")
            assert [r.split(",")[0] for r in out.split("\n")[1:-1]] == [f"{x:.12g}" for x in grid]


def _nudged(x):
    """x and its neighbours one ulp below and above."""
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _boundary_floats():
    """Cells where "%.12g" is hardest to get right: halfway cases of the 12th
    digit and cases 2**-11, 2**-12 and 2**-13 of its unit either side of
    them, around the array path's fallback margin of 2**-12; powers of ten,
    the carry into a 13th digit, the exponents around the array path's limit
    of 1e+-277, and the special and subnormal values."""
    rng = np.random.default_rng(27)
    mantissas, exps = rng.integers(10**11, 10**12, 4096).tolist(), rng.integers(-300, 301, 4096).tolist()
    halves = [float(f"{m}5e{k - 12}") for m, k in zip(mantissas, exps)]
    margins = [
        float((Fraction(2 * m + 1, 2) + Fraction(s, 2**j)) * Fraction(10) ** (k - 11))
        for m, k in zip(mantissas, exps) for j in (11, 12, 13) for s in (-1, 1)
    ]
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    nines = [float(f"999999999999.5e{k}") for k in range(-320, 297)]
    limit = [float(f"{m}e{s}{k}") for m in (1, 3.3, 9.9999999999995) for s in "+-" for k in range(274, 286)]
    finite = _nudged(np.array(halves + margins + powers + nines + limit))
    subnormals = rng.integers(1, 2**52, 256, dtype=np.uint64).view(np.float64)
    return np.concatenate([finite, -finite, subnormals, -subnormals, SPECIAL_FLOATS, [0.0]])


class TestCsvWriterBulk:
    """The array writer against the per-cell one on whole columns, far
    larger than the property above draws."""

    @staticmethod
    def check(header, divisor, *columns):
        grid = np.arange(columns[0].size) / divisor
        got, want = _csv(header, divisor, *columns), _csv_per_cell(header, grid, *columns)
        assert got == want, [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w][:5]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2718).integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False)
        self.check("k,a,b,c,d", 7, *bits.view(np.float64).reshape(4, -1))

    def test_boundary_values(self):
        self.check("k,x", 3, _boundary_floats())

    @pytest.mark.parametrize("spec", ["hann", "exp:poly:m=1.3,n=2.1", "rectangular"])
    def test_default_spectrum_band(self, spec):
        s = spectrum_fft(sample(parse_window_spec(spec), 8192), pad_factor=128, f_max=50.0)
        assert s.amplitudes.size == 6401
        self.check("f_hz,abs,db", 128, s.magnitudes, s.db)

    def test_single_row(self):
        self.check("t,w", 64, np.array([0.123456789012345]))


def test_exponent_words_are_the_to_bytes_words():
    # tables() packs the per-exponent integers with one array("Q") in the
    # host's byte order; as little-endian words they are the bytes that
    # int.to_bytes(8, "little") gives each of them
    by_e = _cells.tables()[1]
    assert by_e.shape == (7, 2 * _cells.EMAX + 1)
    want = b"".join(v.to_bytes(8, "little") for v in _cells._exponent_words())
    assert by_e.astype(_cells.WORD).tobytes() == want


def test_powers_are_correctly_rounded():
    # every 10**(11 - e), |e| <= EMAX, is the float nearest the exact power,
    # in the table before any value needs it
    powers = _cells.tables()[2]
    exps = range(-_cells.EMAX, _cells.EMAX + 1)
    assert powers.tolist() == [float(Fraction(10) ** (11 - e)) for e in exps]


class TestCachedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_non_default_call_leaves_defaults(self, capsys):
        code, default, _ = run_cli(capsys, "spectrum", "hann")
        assert code == 0
        assert default.count("\n") == 1 + 6401 and default.split("\n")[-2].startswith("50,")
        code, other, _ = run_cli(capsys, "spectrum", "hann", "--fmax", "3", "--pad", "100", "--method", "quad")
        assert code == 0
        assert other.count("\n") == 1 + 301
        code, again, _ = run_cli(capsys, "spectrum", "hann")
        assert code == 0
        assert again == default

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "hann", "--method", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = run_cli(capsys, "sample", "hann", "--n", "4")
        assert (code, err) == (0, "")
        assert out.startswith("t,w\n0,")

    def test_out_then_stdout(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        code, out, _ = run_cli(capsys, "spectrum", "hann", "--fmax", "2", "--out", str(path))
        assert (code, out) == (0, "")
        code, out, _ = run_cli(capsys, "spectrum", "hann", "--fmax", "2")
        assert code == 0
        assert out == path.read_text()
