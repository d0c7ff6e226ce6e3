import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expwin.cli import main
from expwin.kernels import PolynomialKernel, ScaledSineKernel, WrappedWindowKernel
from expwin.specs import SpecParseError, format_window_spec, parse_window_spec
from expwin.table import TABLE_ROWS
from expwin.windows import CatalogWindow, ExpKernelWindow, catalog


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
            ("exp:win:hann", ExpKernelWindow(WrappedWindowKernel("hann"))),
            (
                "exp:win:tukey:alpha=0.5",
                ExpKernelWindow(WrappedWindowKernel("tukey", (("alpha", 0.5),))),
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
        ],
    )
    def test_parse_errors_name_token(self, bad):
        with pytest.raises(SpecParseError):
            parse_window_spec(bad)

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

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run_cli(capsys, "sample", "hann:alpha=1", "--n", "4")
        assert code == 1
        assert "hann" in err


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


    def test_above_nyquist_fails(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "hann", "--fmax", "500", "--n", "256")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Nyquist" in err

    def test_wrapped_planck_taper(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "exp:win:planck_taper:epsilon=0.1")
        assert code == 0
        assert out.count("\n") == 1 + 6401


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

    def test_wrapped_planck_taper(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "exp:win:planck_taper")
        assert code == 0
        assert json.loads(out)["window"] == "exp:win:planck_taper"


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
