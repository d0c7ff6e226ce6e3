"""Digest of the expwin CLI over a fixed set of invocations.

Runs ``expwin.cli.main`` in-process on each invocation below and prints one
line per invocation::

    <exit status> <sha256 of stdout, a NUL byte, then stderr> <argv>

The expwin package is the one on the import path, so two checkouts compare
with::

    PYTHONPATH=/path/to/other/checkout/src python tools/cli_digest.py > other.txt
    PYTHONPATH=src python tools/cli_digest.py > this.txt
    diff other.txt this.txt

The set covers ``list``; ``table`` as CSV and markdown; ``metrics``, FFT
``spectrum`` and ``sample`` for the table rows, the catalog ids, their
``exp:win:`` forms and a few more specs; quadrature spectra of the catalog
ids and of one asymmetric ``exp:poly`` at four band settings; catalog
windows at extreme parameters; a sample whose values span 1 to 1e-289; a
run of spectra and samples whose grid changes from one invocation to the
next; and error paths.  No invocation
allocates more than about 100 MB.  Warnings are printed without their
source path, so they compare across checkouts.
"""
import contextlib
import hashlib
import io
import shlex
import warnings

from expwin import CATALOG, TABLE_ROWS
from expwin.cli import main

EXTRA_SPECS = [
    "exp:poly:m=5,n=5",
    "exp:poly:m=3,n=3",
    "exp:sine:c=0.3",
    "gaussian:sigma=0.2",
    "kaiser:alpha=2.546",
    "tukey:alpha=0.9",
    "exp:win:planck_taper:epsilon=0.1",
    "exp:poly:m=1,n=2",
    "exp:poly:m=12,n=13",
    "exp:poly:m=520,n=520",
    "exp:sine:c=1e-320",
]

QUAD_BANDS = [[], ["--fmax", "0.29", "--pad", "100"], ["--fmax", "900", "--pad", "3"], ["--fmax", "0.005"]]
QUAD_ASYMMETRIC_SPEC = "exp:poly:m=1,n=2"  # the catalog ids are symmetric: this one takes the unfolded path

EXTREME_SPECS = [
    "kaiser:alpha=300",
    "cauchy_lorentz:gamma=1e160",
    "cauchy_lorentz:gamma=1e-170",
    "gaussian:sigma=1e-200",
    "poisson:tau=1e-310",
    "kaiser:alpha=200",
    "cauchy_lorentz:gamma=1e-150",
    "gaussian:sigma=1e-150",
    "tukey:alpha=1e-320",
    "avci_exp:alpha=1e300",
]

# The frequency or time grid changes from one invocation to the next and
# then returns to the default band, in one process.
GRID_ARGVS = [
    ["spectrum", "hann", "--pad", "100", "--fmax", "3"],
    ["spectrum", "hann", "--n", "1000", "--fmax", "20"],
    ["sample", "hann", "--n", "1000"],
    ["spectrum", "exp:poly:m=0.05,n=3", "--fmax", "2"],
    ["spectrum", "hann", "--fmax", "0", "--pad", "9007199254740992"],
    ["spectrum", "hann"],
]

ERROR_ARGVS = [
    ["sample", ""],
    ["sample", "nosuch"],
    ["metrics", "nosuch"],
    ["sample", "exp:win:nosuch"],
    ["sample", "hann:alpha=1"],
    ["sample", "hann:alpha=1,beta=2"],
    ["sample", "tukey:alpha=2.0"],
    ["sample", "tukey:alpha=0"],
    ["sample", "planck_taper:epsilon=0.5"],
    ["sample", "gaussian:sigma=-1"],
    ["sample", "kaiser:alpha=0"],
    ["sample", "tukey:alpha=x"],
    ["sample", "tukey:alpha"],
    ["sample", "tukey:alpha=0.3,alpha=0.7"],
    ["spectrum", "kaiser:alpha=inf"],
    ["sample", "exp:what:c=1"],
    ["sample", "exp:poly:m=1"],
    ["sample", "exp:poly:m=1,n=x"],
    ["sample", "exp:poly:m=0,n=1"],
    ["sample", "exp:sine:c=0"],
    ["sample", "hann", "--n", "1"],
    ["spectrum", "hann", "--fmax", "500", "--n", "256"],
    ["spectrum", "hann", "--fmax", "-1", "--method", "quad"],
    ["spectrum", "hann", "--pad", "1"],
    ["spectrum", "hann", "--pad", "1" + "0" * 400],
    ["spectrum", "hann", "--fmax", "nan"],
    ["spectrum", "hann", "--fmax", "inf", "--method", "quad"],
    ["spectrum", "hann", "--fmax", "40000", "--pad", "2", "--method", "quad"],
    ["spectrum", "hann", "--method", "quad", "--fmax", "1e307"],
    ["spectrum", "exp:poly:m=50,n=51"],
    ["metrics", "exp:win:poisson:tau=0.05"],
    ["metrics", "exp:poly:m=600,n=600"],
    ["sample", "hann", "--out", "/nonexistent-directory/w.csv"],
    ["spectrum", "hann", "--method", "nope"],
    ["sample", "hann", "--n", "x"],
]


def invocations():
    catalog_ids = list(CATALOG)
    specs = [spec for _, spec in TABLE_ROWS] + catalog_ids
    specs += ["exp:win:" + wid for wid in catalog_ids] + EXTRA_SPECS
    yield ["list"]
    yield ["table"]
    yield ["table", "--format", "markdown"]
    for spec in specs:
        yield ["metrics", spec]
        yield ["spectrum", spec]
        yield ["sample", spec, "--n", "257"]
    for band in QUAD_BANDS:
        for spec in catalog_ids + [QUAD_ASYMMETRIC_SPEC]:
            yield ["spectrum", spec, "--method", "quad", *band]
    for spec in EXTREME_SPECS:
        yield ["sample", spec, "--n", "4"]
    # values from 1 down to about 1e-289: CSV cells on both sides of the
    # writer's 1e-277 limit, past which a cell is %-formatted on its own
    yield ["sample", "gaussian:sigma=0.0137", "--n", "64"]
    yield from GRID_ARGVS
    yield from ERROR_ARGVS


def run(argv):
    """Exit status, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main_digest():
    warnings.simplefilter("always")
    warnings.formatwarning = lambda message, category, *_: f"{category.__name__}: {message}\n"
    for argv in invocations():
        code, out, err = run(argv)
        digest = hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()
        print(code, digest, shlex.join(argv))


if __name__ == "__main__":
    main_digest()
