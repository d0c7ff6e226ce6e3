"""expwin: window-function engineering toolkit.

Classical window catalog, exponential-kernel window reconstructions,
dual-path spectrum computation (sampled Riemann sum and Simpson
quadrature, both through one chirp-z band transform),
and the six-parameter spectral evaluation suite.
"""
from .kernels import (
    InvalidKernelError,
    PolynomialKernel,
    ScaledSineKernel,
    kernel_eval,
)
from .windows import (
    CATALOG,
    BadParameterError,
    CatalogWindow,
    ExpKernelWindow,
    KernelSpec,
    WindowDef,
    catalog,
    sample,
    window_eval,
)
from .spectrum import (
    LobeSegmentation,
    NoNullsFoundError,
    Spectrum,
    segment_lobes,
    spectrum_fft,
    spectrum_quadrature,
    spectrum_simpson,
)
from .metrics import (
    InsufficientLobesError,
    MetricsError,
    MetricsReport,
    NotConvergedError,
    decay_scale,
    energy_leakage,
    first_sidelobe,
    full_report,
    half_width_analytic,
    half_width_numeric,
    main_lobe_width,
)
from .specs import SpecParseError, format_window_spec, parse_window_spec
from .table import TABLE_ROWS, compute_table

__version__ = "0.1.0"
