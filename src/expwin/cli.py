"""Command-line interface.

Subcommands: ``list``, ``sample``, ``spectrum``, ``metrics``, ``table``.
Column data is CSV (header row, LF endings, '.' decimal separator);
metrics are a single JSON object.  Output is deterministic: identical
invocations produce byte-identical bytes.
"""
from __future__ import annotations

import argparse
import json
import sys

from .spectrum import _band_grid, spectrum_fft, spectrum_quadrature
from .specs import format_window_spec, parse_window_spec
from .table import TABLE_ROWS, compute_table
from .metrics import full_report
from .windows import CATALOG, sample


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def cmd_list(args, out) -> int:
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
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_sample(args, out) -> int:
    wdef = parse_window_spec(args.spec)
    rows = ["t,w"]
    for k, v in enumerate(sample(wdef, args.n)):
        rows.append(f"{_fmt(k / args.n)},{_fmt(v)}")
    out.write("\n".join(rows) + "\n")
    return 0


def cmd_spectrum(args, out) -> int:
    wdef = parse_window_spec(args.spec)
    if args.method == "fft":
        s = spectrum_fft(sample(wdef, args.n), pad_factor=args.pad, f_max=args.fmax)
    else:
        grid = _band_grid(args.fmax, args.pad)
        s = spectrum_quadrature(wdef, grid[-1], grid.size)
    rows = ["f_hz,abs,db"]
    for f, a, d in zip(s.frequencies, s.magnitudes, s.db):
        rows.append(f"{_fmt(f)},{_fmt(a)},{_fmt(d)}")
    out.write("\n".join(rows) + "\n")
    return 0


def cmd_metrics(args, out) -> int:
    wdef = parse_window_spec(args.spec)
    report = full_report(wdef, label=args.spec)
    payload = {"window": format_window_spec(wdef)}
    payload.update(report.as_dict())
    out.write(json.dumps(payload, indent=2) + "\n")
    return 0


TABLE_COLUMNS = [
    "window",
    "spec",
    "omega0_hz",
    "leakage_pct",
    "sidelobe_db",
    "sidelobe_width_hz",
    "decay_scale_hz",
    "half_width_0p1s",
]


def cmd_table(args, out) -> int:
    rows = compute_table()
    failed = False
    rendered = []
    for row in rows:
        if row.report is None:
            failed = True
            rendered.append([row.label, row.spec, f"ERROR: {row.error}"] + [""] * 5)
            continue
        r = row.report
        # sidelobe printed as a positive magnitude, matching the table's
        # sign convention; the JSON metrics command keeps it signed.
        rendered.append(
            [
                row.label,
                row.spec,
                f"{r.omega0_hz:.2f}",
                f"{r.leakage_pct:.2f}",
                f"{-r.sidelobe_db:.1f}",
                f"{r.sidelobe_width_hz:.2f}",
                f"{r.decay_scale_hz:.2f}",
                f"{r.half_width_0p1s:.2f}",
            ]
        )
    if args.format == "csv":
        lines = [",".join(TABLE_COLUMNS)]
        lines += [",".join(f'"{c}"' if "," in c else c for c in row) for row in rendered]
        out.write("\n".join(lines) + "\n")
    else:
        widths = [max(len(r[i]) for r in rendered + [TABLE_COLUMNS]) for i in range(len(TABLE_COLUMNS))]
        def fmt_row(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        lines = [fmt_row(TABLE_COLUMNS), fmt_row(["-" * w for w in widths])]
        lines += [fmt_row(r) for r in rendered]
        out.write("\n".join(lines) + "\n")
    return 1 if failed else 0


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
        if out_path:
            with open(out_path, "w", newline="\n") as fh:
                return _HANDLERS[args.command](args, fh)
        return _HANDLERS[args.command](args, sys.stdout)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
