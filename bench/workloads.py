"""The benchmark's workloads: the CLI requests of one round, made from a seed.

Each request is ``{"argv": [...], "ref": ...}``; ``ref`` describes the window
to the correctness checks in ``checks.py`` without going through expwin.
"""
import numpy as np

# Drawn parameter ranges of the catalog windows, (low, high).
CATALOG_PARAMS = {
    "rectangular": {},
    "triangular": {},
    "welch": {},
    "sine": {},
    "hann": {},
    "hamming": {},
    "gaussian": {"sigma": (0.15, 0.8)},
    "cauchy_lorentz": {"gamma": (0.1, 0.8)},
    "poisson": {"tau": (0.1, 0.8)},
    "kaiser": {"alpha": (0.5, 4.0)},
    "tukey": {"alpha": (0.1, 0.9)},
    "planck_taper": {"epsilon": (0.05, 0.45)},
    "avci_exp": {"alpha": (0.5, 4.0)},
}
# planck_taper is left out as a kernel: expwin rejects exp:win:planck_taper
# for every parameter (the taper underflows to 0 next to the record edges).
WRAPPED_IDS = [wid for wid in CATALOG_PARAMS if wid != "planck_taper"]
POLY_RANGE = (0.1, 3.0)   # m and n of exp:poly, drawn independently
SINE_RANGE = (0.25, 4.0)  # c of exp:sine
N_POLY = N_SINE = 12


def _catalog_spec(rng, wid):
    params = {k: round(float(rng.uniform(*r)), 4) for k, r in CATALOG_PARAMS[wid].items()}
    text = ",".join(f"{k}={v!r}" for k, v in params.items())
    return (f"{wid}:{text}" if text else wid), params


def spectra_requests(seed):
    """One spec per catalog window, one exp:win per usable catalog window,
    and 12 each of exp:poly and exp:sine, all distinct, in seeded order."""
    rng = np.random.default_rng(seed)
    specs = {}
    for wid in CATALOG_PARAMS:
        spec, params = _catalog_spec(rng, wid)
        specs[spec] = ["catalog", wid, params]
    for wid in WRAPPED_IDS:
        spec, params = _catalog_spec(rng, wid)
        specs["exp:win:" + spec] = ["win", wid, params]
    target = len(specs) + N_POLY
    while len(specs) < target:
        m, n = (round(float(x), 4) for x in rng.uniform(*POLY_RANGE, size=2))
        specs[f"exp:poly:m={m!r},n={n!r}"] = ["poly", m, n]
    target += N_SINE
    while len(specs) < target:
        c = round(float(rng.uniform(*SINE_RANGE)), 4)
        specs[f"exp:sine:c={c!r}"] = ["sine", c]
    order = rng.permutation(len(specs))
    items = list(specs.items())
    return [{"argv": ["spectrum", items[i][0]], "ref": items[i][1]} for i in order]


def build(workload, seed):
    """The requests of one round; only ``spectra`` depends on the seed."""
    if workload == "table":
        return [{"argv": ["table", "--format", "csv"], "ref": None}]
    if workload == "spectra":
        return spectra_requests(seed)
    if workload == "oracle":
        return [
            {"argv": ["spectrum", wid, "--method", "quad"], "ref": ["catalog", wid, {}]}
            for wid in sorted(CATALOG_PARAMS)
        ]
    raise ValueError(f"unknown workload {workload!r}")
