"""eisenkit: numerics for real-analytic Eisenstein series and their
L-function bookkeeping.

Submodules
----------
special_functions
    Complex Gamma, zeta, completed zeta, power-divisor sums, K-Bessel.
eisenstein
    Lattice-sum and Fourier evaluators of E(z, s), coefficient extraction,
    functional-equation and reflection defect checks.
euler_products
    Partial L-functions over Satake eigenvalue data and the constant-term
    ratios that, for SL2, give the Eisenstein scattering coefficient.
root_systems
    Simple root systems, Weyl orders, maximal parabolics and the graded
    nilradical decomposition behind the ratio integers a_j.
cli
    The ``eisenkit`` command-line tool tying everything together.
"""

__version__ = "0.1.0"

from .eisenstein import (
    SeriesValue,
    TruncationPolicy,
    eval_fourier,
    eval_lattice_sum,
    extract_coefficient_by_quadrature,
    first_coefficient_xi_check,
    fourier_coefficient,
    functional_equation_defect,
    scattering_ratio,
)
from .errors import (
    AccuracyError,
    ConvergenceWarning,
    DivergenceError,
    DomainError,
    EisenkitError,
    InvalidTypeError,
    PlaceDataError,
    PoleError,
    ResourceError,
)
from .euler_products import (
    LFunctionData,
    PlaceDatum,
    RatioSpec,
    SatakeClass,
    constant_term_ratio,
    local_factor,
    partial_l,
    read_place_data,
    trivial_zeta_data,
)
from .root_systems import (
    AdjointDecomposition,
    ParabolicDatum,
    RootSystem,
    build_root_system,
    enumerate_table,
    levi_type,
    nilradical_decomposition,
    weyl_group_order,
    weyl_order_closed_form,
)
from .special_functions import (
    bessel_k,
    gamma,
    sigma_power,
    xi_completed,
    zeta,
)


def kernel_backend() -> str:
    """Name of the kernel implementation: always 'numpy'."""
    return "numpy"


__all__ = [
    "__version__",
    "kernel_backend",
    # special functions
    "gamma",
    "zeta",
    "xi_completed",
    "sigma_power",
    "bessel_k",
    # eisenstein
    "TruncationPolicy",
    "SeriesValue",
    "eval_lattice_sum",
    "eval_fourier",
    "fourier_coefficient",
    "scattering_ratio",
    "functional_equation_defect",
    "extract_coefficient_by_quadrature",
    "first_coefficient_xi_check",
    # euler products
    "SatakeClass",
    "PlaceDatum",
    "LFunctionData",
    "RatioSpec",
    "local_factor",
    "partial_l",
    "constant_term_ratio",
    "read_place_data",
    "trivial_zeta_data",
    # root systems
    "RootSystem",
    "ParabolicDatum",
    "AdjointDecomposition",
    "build_root_system",
    "weyl_group_order",
    "weyl_order_closed_form",
    "levi_type",
    "nilradical_decomposition",
    "enumerate_table",
    # errors
    "EisenkitError",
    "PoleError",
    "DomainError",
    "DivergenceError",
    "AccuracyError",
    "InvalidTypeError",
    "ResourceError",
    "PlaceDataError",
    "ConvergenceWarning",
]
