"""Spectrum of the dbar-Neumann Laplacian on polydiscs.

The operator acts on (0, q)-forms over P(a_1, ..., a_n) as minus one
quarter of the componentwise Laplacian, with Dirichlet conditions in the
J-variables and dbar-Neumann conditions in the rest.  Its whole spectrum
consists of eigenvalues  (1/4) sum_k lambda_k  built from squared scaled
Bessel zeros and zeros of the holomorphic factor family; eigenvalues that
admit a holomorphic factor (the bottom always does) have infinite
multiplicity and make up the essential spectrum.

The package computes certified Bessel zeros, enumerates and groups the
spectrum below a cutoff, evaluates the eigenforms and their boundary
residuals, applies the operator and its inverse spectrally, and checks
everything against independent oracles (arbitrary-precision series,
finite differences, quadrature, brute-force enumeration).

`import polyspec` is cheap: it imports no submodule and no numpy.  Each
public name is resolved from its module on first use.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the module that defines it; the names are `__all__`,
# and `__getattr__` (PEP 562) imports each from its module on first access.
_EXPORTS = {
    **dict.fromkeys(
        ("MAX_ORDER", "MAX_ARGUMENT", "bessel_j", "bessel_j_many", "bessel_j_prime",
         "bessel_j_second", "oracle_bessel_j"),
        "bessel",
    ),
    **dict.fromkeys(("ZeroCache", "j0_bracket", "MAX_ZERO_ORDER", "MAX_ZERO_INDEX"), "zeros"),
    **dict.fromkeys(
        ("FactorKind", "ModeFactor", "dirichlet_factor", "neumann_factor", "holomorphic_factor",
         "dirichlet_factors", "neumann_factors", "robin_residual", "radial_profile"),
        "disc_modes",
    ),
    **dict.fromkeys(("Polydisc", "bottom"), "polydisc"),
    **dict.fromkeys(
        ("EigenMode", "SpectralPoint", "enumerate_modes", "assemble_spectrum", "counting",
         "mode_descriptor"),
        "spectrum",
    ),
    **dict.fromkeys(
        ("FormPoint", "eval_coefficient", "laplacian_residual", "dbar_boundary_residual",
         "factor_dbar_boundary", "box_coefficient_value"),
        "eigenforms",
    ),
    **dict.fromkeys(
        ("BoundaryCondition", "FdConfig", "fd_radial_eigs", "fd_convergence_report",
         "quad_inner_product", "radial_basis_gram", "brute_force_spectrum", "sufficient_bounds"),
        "verify",
    ),
    **dict.fromkeys(
        ("Expansion", "expand", "expand_from_samples", "apply_box", "apply_inverse", "synthesize",
         "mode_norm_sq", "expansion_norm", "sample_on_grid"),
        "spectral_ops",
    ),
    **dict.fromkeys(
        ("PolyspecError", "InvalidArgumentError", "UnsupportedRangeError",
         "InternalConsistencyError", "OracleInsufficientError", "InvariantViolationError"),
        "errors",
    ),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
