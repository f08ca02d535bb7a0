"""eisenkit: numerics for real-analytic Eisenstein series and their
L-function bookkeeping.

Every public name is reachable as ``eisenkit.<name>``; the layer that
defines it is imported on first access, so the analytic half never loads
the bookkeeping half (``euler_products``, ``root_systems``) or the reverse.

Submodules
----------
special_functions
    Complex Gamma, zeta, completed zeta, power-divisor sums, K-Bessel.
eisenstein
    Lattice-sum and Fourier evaluators of E(z, s), the scattering ratio c(s),
    coefficient extraction.
euler_products
    Partial L-functions over Satake eigenvalue data and the constant-term
    ratios that, for SL2, give the Eisenstein scattering coefficient.
root_systems
    Simple root systems, maximal parabolics, their Levi types and the graded
    nilradical decomposition whose level j takes argument js in the ratio.
cli
    The ``eisenkit`` command-line tool tying everything together.
"""

import importlib

__version__ = "0.1.0"

#: Each layer and the public names it defines.
_EXPORTS = {
    "special_functions": ("gamma", "zeta", "xi_completed", "sigma_power", "bessel_k"),
    "eisenstein": (
        "TruncationPolicy", "SeriesValue", "eval_lattice_sum", "eval_fourier",
        "fourier_coefficient", "scattering_ratio", "extract_coefficient_by_quadrature",
    ),
    "euler_products": (
        "PlaceDatum", "LFunctionData", "local_factor", "partial_l",
        "constant_term_ratio", "read_place_data", "trivial_zeta_data",
    ),
    "root_systems": (
        "ParabolicDatum", "build_root_system",
        "levi_type", "nilradical_decomposition", "enumerate_table",
    ),
    "errors": (
        "EisenkitError", "PoleError", "DomainError", "DivergenceError", "AccuracyError",
        "InvalidTypeError", "PlaceDataError", "ConvergenceWarning",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "kernel_backend", *_LAYER_OF]


def kernel_backend() -> str:
    """Name of the kernel implementation: always 'numpy'."""
    return "numpy"


def __getattr__(name: str):
    # resolved on every access and never bound here: whatever patches a
    # layer's attribute (and later puts it back) is seen through the package
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
