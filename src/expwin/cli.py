"""Command-line interface.

Subcommands: ``list``, ``sample``, ``spectrum``, ``metrics``, ``table``.
Column data is CSV (header row, LF endings, '.' decimal separator);
metrics are a single JSON object.  Output is deterministic: identical
invocations produce byte-identical bytes.

Handlers return their whole output; ``main`` writes it to stdout or
``--out`` only on success.  Every failure, a ``table`` row included,
exits 1 with ``error: <message>`` on stderr and leaves ``--out`` as it was.

CSV cells have the bytes of ``"%.12g" % x`` (``expwin._cells``); row k of
the grid column is k/``--pad`` Hz for a spectrum, k/``--n`` for ``sample``.
Between calls of ``main`` a process keeps the argument parser, the CSV
writer's tables and the encoded cells of the last grid column (0.20 MB for
the default 6401-row band); every call parses into a fresh namespace.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields

import numpy as np

from .spectrum import _band_size, _check_quadrature_limit, spectrum_fft, spectrum_quadrature
from .specs import format_window_spec, parse_window_spec
from .table import TABLE_ROWS, compute_table
from .metrics import MetricsReport, full_report
from .windows import CATALOG, sample


def _csv(header: str, divisor: int, *columns: np.ndarray) -> str:
    """CSV text: the header line, then row k holds k/divisor and element k
    of every float64 column, each as "%.12g" (the same text as "{:.12g}")."""
    from . import _cells  # on first use: a process that writes no CSV compiles none of it
    n = columns[0].size
    text = bytearray(32 * n * (1 + len(columns)))
    words = np.frombuffer(text, _cells.WORD).reshape(n, 1 + len(columns), 4)
    words[:, 0] = _cells.grid(n, divisor)
    for i, c in enumerate(columns, 1):
        _cells.write(c, "\n" if i == len(columns) else ",", words[:, i])
    return header + "\n" + text.translate(None, b"\0").decode("ascii")


def cmd_list(args) -> str:
    lines = ["Comparison-table rows (label | spec):"]
    for label, spec in TABLE_ROWS:
        lines.append(f"  {label:22s} {spec}")
    lines.append("")
    lines.append("Catalog windows (id | parameters | formula):")
    for wid, (_, defaults, formula) in CATALOG.items():
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(defaults.items())) or "-"
        lines.append(f"  {wid:15s} {params:15s} {formula}")
    lines.append("")
    lines.append("Reconstruction constructors:")
    lines.append("  exp:poly:m=<r>,n=<r>   kernel t^m (1-t)^n")
    lines.append("  exp:sine:c=<r>         kernel c sin(pi t)")
    lines.append("  exp:win:<catalog-spec> kernel = catalog window")
    return "\n".join(lines) + "\n"


def cmd_sample(args) -> str:
    return _csv("t,w", args.n, sample(parse_window_spec(args.spec), args.n))


def cmd_spectrum(args) -> str:
    wdef = parse_window_spec(args.spec)
    if args.method == "fft":
        s = spectrum_fft(sample(wdef, args.n), pad_factor=args.pad, f_max=args.fmax)
    else:
        _check_quadrature_limit(args.fmax)  # before the band size, which overflows for a huge f_max
        m = _band_size(args.fmax, args.pad)
        s = spectrum_quadrature(wdef, (m - 1) / args.pad, m)
    return _csv("f_hz,abs,db", args.pad, s.magnitudes, s.db)


def cmd_metrics(args) -> str:
    wdef = parse_window_spec(args.spec)
    report = full_report(wdef, label=args.spec)
    payload = {"window": format_window_spec(wdef)}
    payload.update(report.as_dict())
    return json.dumps(payload, indent=2) + "\n"


TABLE_COLUMNS = ["window", "spec"] + [f.name for f in fields(MetricsReport)]


def cmd_table(args) -> str:
    # sidelobe printed as a positive magnitude, matching the table's sign
    # convention; the JSON metrics command keeps it signed.
    rendered = [
        [label, spec, f"{r.omega0_hz:.2f}", f"{r.leakage_pct:.2f}", f"{-r.sidelobe_db:.1f}",
         f"{r.sidelobe_width_hz:.2f}", f"{r.decay_scale_hz:.2f}", f"{r.half_width_0p1s:.2f}"]
        for (label, spec), r in zip(TABLE_ROWS, compute_table(), strict=True)
    ]
    if args.format == "csv":
        lines = [",".join(TABLE_COLUMNS)]
        lines += [",".join(f'"{c}"' if "," in c else c for c in row) for row in rendered]
    else:
        widths = [max(len(r[i]) for r in rendered + [TABLE_COLUMNS]) for i in range(len(TABLE_COLUMNS))]
        def fmt_row(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        lines = [fmt_row(TABLE_COLUMNS), fmt_row(["-" * w for w in widths])]
        lines += [fmt_row(r) for r in rendered]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="expwin",
        description="Window-function toolkit: catalog, exponential reconstructions, spectra, metrics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list window ids, parameters, and table rows")

    sp = sub.add_parser("sample", help="sample a window to CSV (t,w)")
    sp.add_argument("spec", help="window spec string, e.g. hann or exp:poly:m=1,n=1")
    sp.add_argument("--n", type=int, default=1024, help="number of samples")

    spc = sub.add_parser("spectrum", help="window spectrum to CSV (f_hz,abs,db)")
    spc.add_argument("spec")
    spc.add_argument("--fmax", type=float, default=50.0, help="highest frequency, Hz")
    spc.add_argument("--method", choices=["fft", "quad"], default="fft")
    spc.add_argument("--pad", type=int, default=128, help="frequency grid spacing is 1/pad Hz")
    spc.add_argument("--n", type=int, default=8192, help="samples for the fft method")

    mt = sub.add_parser("metrics", help="six evaluation parameters as JSON")
    mt.add_argument("spec")

    tb = sub.add_parser("table", help="full comparison table")
    tb.add_argument("--format", choices=["csv", "markdown"], default="csv")

    for s in (sp, spc, mt, tb):
        s.add_argument("--out", default=None, help="output path (default: stdout)")
    return p


_HANDLERS = {
    "list": cmd_list,
    "sample": cmd_sample,
    "spectrum": cmd_spectrum,
    "metrics": cmd_metrics,
    "table": cmd_table,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_path = getattr(args, "out", None)
    try:
        text = _HANDLERS[args.command](args)
        if out_path:
            with open(out_path, "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
