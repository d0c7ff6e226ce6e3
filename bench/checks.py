"""Correctness checks for the benchmark's requests.

Every reference here is computed from the window formulas and closed forms
written out in this file, with numpy only; nothing is imported from expwin.
Each check returns a list of problems, empty when the output is correct.
Every problem starts with the name of the check that found it.
"""
import csv
import io
import math

import numpy as np

PAD_S = 128       # CLI default: zero-padded duration, grid spacing 1/128 Hz
FMAX_HZ = 50.0    # CLI default --fmax
N_SAMPLES = 8192  # CLI default --n for the fft method

# ---------------------------------------------------------------- windows

# id -> (default parameters, W(t, params) on [0, 1])
CATALOG = {
    "rectangular": ({}, lambda t, p: np.ones_like(t)),
    "triangular": ({}, lambda t, p: 1.0 - np.abs(2.0 * t - 1.0)),
    "welch": ({}, lambda t, p: 1.0 - (2.0 * t - 1.0) ** 2),
    "sine": ({}, lambda t, p: np.sin(np.pi * t)),
    "hann": ({}, lambda t, p: np.sin(np.pi * t) ** 2),
    "hamming": ({}, lambda t, p: 0.54 + 0.46 * np.cos(2.0 * np.pi * (t - 0.5))),
    "gaussian": ({"sigma": 0.5}, lambda t, p: np.exp(-((t - 0.5) ** 2) / (2.0 * p["sigma"] ** 2))),
    "cauchy_lorentz": ({"gamma": 0.5}, lambda t, p: 1.0 / (1.0 + ((t - 0.5) / p["gamma"]) ** 2)),
    "poisson": ({"tau": 0.5}, lambda t, p: np.exp(-np.abs(t - 0.5) / p["tau"])),
    "kaiser": (
        {"alpha": 8.0 / math.pi},
        lambda t, p: np.i0(np.pi * p["alpha"] * np.sqrt(np.clip(4.0 * t * (1.0 - t), 0.0, None)))
        / np.i0(np.pi * p["alpha"]),
    ),
    "tukey": ({"alpha": 0.5}, lambda t, p: _tukey(t, p["alpha"])),
    "planck_taper": ({"epsilon": 0.25}, lambda t, p: _planck(t, p["epsilon"])),
    "avci_exp": (
        {"alpha": 2.0},
        lambda t, p: np.exp(p["alpha"] * (np.sqrt(np.clip(4.0 * t * (1.0 - t), 0.0, None)) - 1.0)),
    ),
}


def _tukey(t, alpha):
    edge = np.minimum(t, 1.0 - t)  # distance to the nearer record edge
    taper = 0.5 * (1.0 - np.cos(2.0 * np.pi * edge / alpha))
    return np.where(edge < alpha / 2.0, taper, 1.0)


def _planck(t, eps):
    edge = np.minimum(t, 1.0 - t)
    inside = (edge > 0.0) & (edge < eps)
    e = np.where(inside, edge, eps / 2.0)
    with np.errstate(over="ignore"):
        rise = 1.0 / (1.0 + np.exp(eps / e - eps / (eps - e)))
    return np.where(inside, rise, np.where(edge <= 0.0, 0.0, 1.0))


def window_fn(ref):
    """W(t) for a reference description, zero outside [0, 1].

    ``ref`` is ``["catalog", id, params]``, ``["poly", m, n]``,
    ``["sine", c]`` or ``["win", id, params]``; the last three are the
    exponential reconstruction W = exp(1/B_max - 1/B(t)) on (0, 1).
    """
    kind = ref[0]
    if kind == "catalog":
        defaults, f = CATALOG[ref[1]]
        p = {**defaults, **ref[2]}
        return lambda t: np.where((t >= 0.0) & (t <= 1.0), f(t, p), 0.0)
    if kind == "poly":
        m, n = ref[1], ref[2]
        ts = m / (m + n)
        b_max = ts ** m * (1.0 - ts) ** n
        kernel = lambda t: t ** m * (1.0 - t) ** n
    elif kind == "sine":
        c = ref[1]
        b_max = c
        kernel = lambda t: c * np.sin(np.pi * t)
    else:  # every catalog window peaks at 1 at t = 1/2
        defaults, f = CATALOG[ref[1]]
        p = {**defaults, **ref[2]}
        b_max = 1.0
        kernel = lambda t: f(t, p)

    def w(t):
        inside = (t > 0.0) & (t < 1.0)
        b = kernel(np.where(inside, t, 0.5))
        return np.where(inside, np.exp(1.0 / b_max - 1.0 / b), 0.0)

    return w


# ---------------------------------------------------------- spectrum CSV


def parse_spectrum(text):
    """(f, abs, db) arrays and the problems found in the CSV layout."""
    lines = text.split("\n")
    if lines[0] != "f_hz,abs,db" or lines[-1] != "":
        return None, ["layout: bad header or missing final newline"]
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    except ValueError as exc:
        return None, [f"layout: {exc}"]
    if rows.ndim != 2 or rows.shape[1] != 3:
        return None, ["layout: rows are not f,abs,db"]
    return rows.T, []


def check_grid_and_db(f, a, db):
    """The grid is exactly k/128 Hz up to 50 Hz; db is 20 log10(abs/abs0)."""
    problems = []
    n = int(round(FMAX_HZ * PAD_S)) + 1
    if f.size != n or not np.array_equal(f, np.arange(n) / PAD_S):
        problems.append(f"grid: not exactly k/{PAD_S} Hz for k = 0..{n - 1}")
    if not a[0] > 0.0 or db[0] != 0.0:
        return problems + ["db: the f=0 row must have abs > 0 and db 0"]
    with np.errstate(divide="ignore"):
        want = 20.0 * np.log10(a / a[0])
    finite = np.isfinite(want)
    same_inf = np.array_equal(np.isneginf(want), np.isneginf(db))
    # both columns carry 12 significant digits, about 1e-11 dB of rounding
    close = np.abs(db[finite] - want[finite]) <= 1e-8 + 1e-10 * np.abs(want[finite])
    if not same_inf or not close.all():
        problems.append("db: column differs from 20 log10(abs/abs0)")
    return problems


# ---------------------------------------------------------- spectra check

SPECTRA_PROBE_BINS = np.array([0, 1, 64, 127, 128, 333, 1280, 4097, 6400])
SPECTRA_TOL = 1e-9  # |abs - direct DFT| relative to abs at f=0


def check_spectra(ref, text):
    """FFT-path spectrum: grid, db column, and a direct DFT at probe bins."""
    cols, problems = parse_spectrum(text)
    if cols is None:
        return problems
    f, a, db = cols
    problems += check_grid_and_db(f, a, db)
    if problems:
        return problems
    w = window_fn(ref)(np.arange(N_SAMPLES) / N_SAMPLES)
    k = np.arange(N_SAMPLES)
    phase = np.exp(2j * np.pi * np.outer(SPECTRA_PROBE_BINS, k) / (PAD_S * N_SAMPLES))
    direct = np.abs(phase @ w) / N_SAMPLES
    err = np.abs(a[SPECTRA_PROBE_BINS] - direct) / direct[0]
    if err.max() > SPECTRA_TOL:
        j = int(SPECTRA_PROBE_BINS[np.argmax(err)])
        problems.append(f"dft: bin {j} is off the direct DFT by {err.max():.2e} of abs0")
    return problems


# ----------------------------------------------------------- oracle check


def _welch_ft(f):
    a = np.pi * np.asarray(f, dtype=float)
    safe = np.where(a == 0.0, 1.0, a)
    return np.where(a == 0.0, 2.0 / 3.0, 2.0 * (np.sin(safe) - safe * np.cos(safe)) / safe ** 3)


# |W^(f)| for windows symmetric about t = 1/2, from the cosine transform of
# W(u + 1/2) on [-1/2, 1/2]; np.sinc(x) is sin(pi x)/(pi x)
CLOSED_FORM = {
    "rectangular": np.sinc,
    "triangular": lambda f: 0.5 * np.sinc(f / 2.0) ** 2,
    "welch": _welch_ft,
    "sine": lambda f: 0.5 * (np.sinc(f + 0.5) + np.sinc(f - 0.5)),
    "hann": lambda f: 0.5 * np.sinc(f) + 0.25 * (np.sinc(f + 1.0) + np.sinc(f - 1.0)),
    "hamming": lambda f: 0.54 * np.sinc(f) + 0.23 * (np.sinc(f + 1.0) + np.sinc(f - 1.0)),
}

ORACLE_PROBES_HZ = np.array([0.0, 0.5, 1.0, 2.5, 7.75, 19.5, 33.25, 50.0])
ORACLE_TOL = 1e-6  # |abs - reference| relative to |W^(0)|


def _gl_nodes(segments=24, order=48):
    """Gauss-Legendre nodes and weights for t = (1 - cos theta)/2, theta in [0, pi].

    The substitution makes sqrt(t(1-t)) smooth; segment ends fall on
    t = 1/4, 1/2 and 3/4, where the default Tukey and Poisson windows
    have kinks.
    """
    x, wx = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, np.pi, segments + 1)
    half = np.diff(edges) / 2.0
    theta = (edges[:-1, None] + half[:, None] * (x + 1.0)).ravel()
    wt = (half[:, None] * wx).ravel() * np.sin(theta) / 2.0
    return (1.0 - np.cos(theta)) / 2.0, wt


def quadrature_abs(ref, freqs):
    """|integral_0^1 exp(2 pi i f t) W(t) dt| by Gauss-Legendre quadrature."""
    t, wt = _gl_nodes()
    g = wt * window_fn(ref)(t)
    return np.abs(np.exp(2j * np.pi * np.outer(freqs, t)) @ g)


def check_oracle(ref, text):
    """Quadrature-path spectrum of a catalog window at default parameters."""
    cols, problems = parse_spectrum(text)
    if cols is None:
        return problems
    f, a, db = cols
    problems += check_grid_and_db(f, a, db)
    if problems:
        return problems
    wid = ref[1]
    if wid in CLOSED_FORM:
        want, got, at = np.abs(CLOSED_FORM[wid](f)), a, f
        name = "closed-form"
    else:
        idx = np.rint(ORACLE_PROBES_HZ * PAD_S).astype(int)
        want, got, at = quadrature_abs(ref, ORACLE_PROBES_HZ), a[idx], ORACLE_PROBES_HZ
        name = "quadrature"
    err = np.abs(got - want) / want[0]
    if err.max() > ORACLE_TOL:
        problems.append(
            f"{name}: {wid} at {at[np.argmax(err)]} Hz is off by {err.max():.2e} of |W^(0)|"
        )
    return problems


# ------------------------------------------------------------ table check

TABLE_COLUMNS = [
    "window", "spec", "omega0_hz", "leakage_pct", "sidelobe_db",
    "sidelobe_width_hz", "decay_scale_hz", "half_width_0p1s",
]

# The paper's published table, as listed in the acceptance tests:
# (omega0 Hz, leakage %, sidelobe magnitude dB, sidelobe width Hz,
#  decay scale Hz, half width in 0.1 s)
PAPER_TABLE = {
    "Exp[Welch]": (1.59, 1.01, 20.1, 1.23, 11.2, 5.07),
    "Exp[Sine]": (1.69, 0.76, 21.2, 1.27, 10.4, 4.67),
    "Exp[sin(pi t)/2]": (2.13, 0.22, 25.8, 1.39, 7.80, 3.50),
    "Exp[2 sin(pi t)]": (1.42, 1.74, 18.2, 1.20, 14.1, 5.98),
    "Exp[Hann]": (2.27, 0.40, 23.5, 1.62, 10.1, 3.39),
    "Exp[Kaiser a=8/pi]": (2.70, 0.24, 25.4, 1.87, 10.0, 2.80),
    "Exp[Tukey a=0.5]": (1.40, 4.87, 14.3, 1.40, 13.3, 6.69),
    "Exp poly n=0.1": (1.05, 6.51, 14.4, 1.01, 140.6, 9.63),
    "Exp poly n=0.25": (1.19, 3.11, 16.5, 1.04, 37.9, 7.64),
    "Exp poly n=0.5": (1.52, 0.89, 20.7, 1.14, 12.7, 5.23),
    "Exp poly n=1.0": (2.61, 0.06, 30.5, 1.48, 7.29, 2.83),
    "Exp poly n=1.5": (4.68, 0.00, 44.2, 1.98, 7.24, 1.67),
    "Exp poly n=2.0": (8.71, 0.00, 65.5, 2.65, 9.38, 1.03),
    "Rectangular": (1.00, 9.71, 13.3, 1.00, 317.5, 10.0),
    "Triangular": (2.00, 0.29, 26.5, 2.00, 21.0, 2.93),
    "Welch": (1.43, 0.79, 21.3, 1.03, 18.0, 5.41),
    "Sine": (1.50, 0.51, 23.0, 1.00, 16.0, 5.00),
    "Hann": (2.00, 0.05, 31.5, 1.00, 7.46, 3.64),
    "Hamming": (2.00, 0.04, 44.1, 0.60, 47.5, 3.82),
    "Gaussian s=0.5": (1.11, 4.48, 16.5, 0.95, 225.5, 8.32),
    "Cauchy-Lorentz g=0.5": (1.18, 2.94, 19.0, 0.86, 202.5, 6.43),
    "Poisson tau=0.5": (1.30, 2.19, 25.5, 0.61, 185.5, 3.47),
    "Kaiser a=8/pi": (2.74, 0.00, 58.7, 0.51, 3.54, 3.01),
    "Tukey a=0.3": (1.18, 6.16, 13.8, 1.17, 9.67, 8.09),
    "Tukey a=0.5": (1.34, 3.75, 15.1, 1.33, 9.63, 6.82),
    "Tukey a=0.7": (1.54, 1.62, 18.2, 1.54, 4.45, 5.55),
    "Planck-taper e=0.15": (1.18, 6.96, 13.6, 1.17, 13.0, 8.18),
    "Planck-taper e=0.25": (1.34, 4.92, 14.3, 1.33, 7.90, 6.97),
    "Planck-taper e=0.35": (1.54, 2.86, 16.0, 1.54, 9.62, 5.76),
}
POLY_ROWS = {f"Exp poly n={n}": n for n in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0)}

# Half a unit in the last printed digit of each numeric column: a value
# within tolerance can print that much further away.
PRINT_HALF_UNIT = (0.005, 0.005, 0.05, 0.005, 0.005, 0.005)


def _paper_tolerances(label, expected):
    width_tol = 0.1 if label == "Poisson tau=0.5" else 0.05
    return (0.03, 0.15, 0.5, width_tol, 0.05 * expected[4], 0.03)


def poly_half_width(n):
    """Half width (0.1 s units) of exp(4^n - 1/(t(1-t))^n) at sqrt(2)/2.

    W = sqrt(2)/2 where (t(1-t))^-n = 4^n + ln sqrt(2); the two roots
    t = (1 -+ sqrt(1 - 4s))/2 with s = (4^n + ln sqrt(2))^(-1/n) are
    sqrt(1 - 4s) apart.
    """
    s = (4.0 ** n + math.log(math.sqrt(2.0))) ** (-1.0 / n)
    return 10.0 * math.sqrt(1.0 - 4.0 * s)


def sinc_first_sidelobe_db():
    """Brute-force maximum of |sin(pi f)/(pi f)| on (1, 2), in dB."""
    f = np.linspace(1.0, 2.0, 200001)[1:-1]
    return 20.0 * math.log10(float(np.max(np.abs(np.sinc(f)))))


def check_table(text):
    """The 29-row CSV table against the paper and the closed-form anchors."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TABLE_COLUMNS:
        return ["layout: bad header"]
    body = rows[1:]
    if [r[0] for r in body] != list(PAPER_TABLE):
        return ["layout: rows are not the paper's 29 windows in order"]
    problems = []
    values = {}
    for r in body:
        if any("ERROR" in cell for cell in r):
            problems.append(f"error-cell: {r[0]}: {r[2]}")
            continue
        got = tuple(float(x) for x in r[2:])
        values[r[0]] = got
        exp = PAPER_TABLE[r[0]]
        for col, g, e, tol, half in zip(
            TABLE_COLUMNS[2:], got, exp, _paper_tolerances(r[0], exp), PRINT_HALF_UNIT
        ):
            if abs(g - e) > tol + half:
                problems.append(f"paper: {r[0]}.{col} = {g}, paper {e} +/- {tol:.3g}")
    anchors = []
    if "Rectangular" in values:
        rect = values["Rectangular"]
        anchors += [
            ("rect-null", rect[0], 1.0, 0.005 + PRINT_HALF_UNIT[0]),
            ("rect-sidelobe", rect[2], -sinc_first_sidelobe_db(), 0.1 + PRINT_HALF_UNIT[2]),
        ]
    if "Sine" in values:
        anchors.append(("sine-half-width", values["Sine"][5], 5.0, 1e-6 + PRINT_HALF_UNIT[5]))
    for label, n in POLY_ROWS.items():
        if label in values:
            anchors.append(
                ("poly-half-width", values[label][5], poly_half_width(n), 0.02 + PRINT_HALF_UNIT[5])
            )
    for name, got, want, tol in anchors:
        if abs(got - want) > tol:
            problems.append(f"{name}: {got} vs {want:.4f} +/- {tol:.3g}")
    return problems


def check(workload, ref, text):
    if workload == "table":
        return check_table(text)
    if workload == "spectra":
        return check_spectra(ref, text)
    return check_oracle(ref, text)


def identical_bytes(digests_per_round):
    """Every round's outputs must be byte-identical to the first round's."""
    first = digests_per_round[0]
    return [
        f"identical-bytes: request {i} of round {n} differs from round 1"
        for n, digests in enumerate(digests_per_round[1:], 2)
        for i, (a, b) in enumerate(zip(first, digests))
        if a != b
    ]
