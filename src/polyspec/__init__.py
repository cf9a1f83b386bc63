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
"""

from .bessel import (
    bessel_j_many,
    MAX_ARGUMENT,
    MAX_ORDER,
    bessel_j,
    bessel_j_prime,
    bessel_j_second,
    oracle_bessel_j,
)
from .disc_modes import (
    FactorKind,
    ModeFactor,
    dirichlet_factor,
    dirichlet_factors,
    holomorphic_factor,
    neumann_factor,
    neumann_factors,
    radial_profile,
    robin_residual,
)
from .eigenforms import (
    FormPoint,
    box_coefficient_value,
    dbar_boundary_residual,
    eval_coefficient,
    factor_dbar_boundary,
    laplacian_residual,
)
from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    InvariantViolationError,
    OracleInsufficientError,
    PolyspecError,
    UnsupportedRangeError,
)
from .spectral_ops import (
    Expansion,
    apply_box,
    apply_inverse,
    expand,
    expand_from_samples,
    expansion_norm,
    mode_norm_sq,
    sample_on_grid,
    synthesize,
)
from .spectrum import (
    EigenMode,
    Polydisc,
    SpectralPoint,
    assemble_spectrum,
    bottom,
    counting,
    enumerate_modes,
    mode_descriptor,
)
from .verify import (
    BoundaryCondition,
    FdConfig,
    brute_force_spectrum,
    fd_convergence_report,
    fd_radial_eigs,
    quad_inner_product,
    radial_basis_gram,
    sufficient_bounds,
)
from .zeros import MAX_ZERO_INDEX, MAX_ZERO_ORDER, ZeroCache, j0_bracket

__version__ = "0.1.0"

__all__ = [
    "MAX_ORDER",
    "MAX_ARGUMENT",
    "bessel_j",
    "bessel_j_many",
    "bessel_j_prime",
    "bessel_j_second",
    "oracle_bessel_j",
    "ZeroCache",
    "j0_bracket",
    "MAX_ZERO_ORDER",
    "MAX_ZERO_INDEX",
    "FactorKind",
    "ModeFactor",
    "dirichlet_factor",
    "neumann_factor",
    "holomorphic_factor",
    "dirichlet_factors",
    "neumann_factors",
    "robin_residual",
    "radial_profile",
    "Polydisc",
    "EigenMode",
    "SpectralPoint",
    "enumerate_modes",
    "assemble_spectrum",
    "bottom",
    "counting",
    "mode_descriptor",
    "FormPoint",
    "eval_coefficient",
    "laplacian_residual",
    "dbar_boundary_residual",
    "factor_dbar_boundary",
    "box_coefficient_value",
    "BoundaryCondition",
    "FdConfig",
    "fd_radial_eigs",
    "fd_convergence_report",
    "quad_inner_product",
    "radial_basis_gram",
    "brute_force_spectrum",
    "sufficient_bounds",
    "Expansion",
    "expand",
    "expand_from_samples",
    "apply_box",
    "apply_inverse",
    "synthesize",
    "mode_norm_sq",
    "expansion_norm",
    "sample_on_grid",
    "PolyspecError",
    "InvalidArgumentError",
    "UnsupportedRangeError",
    "InternalConsistencyError",
    "OracleInsufficientError",
    "InvariantViolationError",
]
