"""One-dimensional two-state quantum walks, two independent ways.

Distributions come from exact direct evolution on a growing lattice window
and, independently, from a closed form built on Chebyshev coefficients in a
Laurent basis; the operator algebra behind the walk is verified exactly on
finite cyclic lattices, as one 2 x 2 Fourier symbol per lattice mode; the
rescaled position converges to a known limit density, measured by
Kolmogorov distance and characteristic functions.
"""

from .algebra_check import CyclicRep, RelationReport, build_rep, verify_relations
from .cheb_engine import (
    LaurentPoly,
    TransferQuadruple,
    char_fn_components,
    cross_series,
    cross_series_quadrature,
    qn_distribution,
    transfer_polys,
)
from .coin import (
    CoinMatrix,
    PolarParams,
    check_polar,
    hadamard_coin,
    make_coin,
    polar,
    psi_from_phi,
    split,
)
from .direct_walk import (
    Distribution,
    WalkState,
    distribution,
    distribution_to_csv,
    evolve,
    evolve_snapshots,
    initial_state,
)
from .errors import (
    DegenerateCoin,
    InvalidConfig,
    NormViolation,
    ParamViolation,
    PathMismatch,
    QuadratureDivergence,
    QuadratureFailure,
    QWalkError,
    RelationFailure,
    ResourceLimit,
)
from .limit_law import (
    LimitDensity,
    asym_integrals,
    asym_limits,
    cdf_grid,
    density,
    density_cdf_csv,
    kolmogorov_distance,
    lambda_phi,
    lambda_psi,
    limit_char_fn,
)

__version__ = "0.1.0"

__all__ = [
    "CoinMatrix",
    "PolarParams",
    "make_coin",
    "split",
    "polar",
    "check_polar",
    "psi_from_phi",
    "hadamard_coin",
    "WalkState",
    "Distribution",
    "initial_state",
    "evolve",
    "evolve_snapshots",
    "distribution",
    "distribution_to_csv",
    "LaurentPoly",
    "TransferQuadruple",
    "transfer_polys",
    "qn_distribution",
    "cross_series",
    "cross_series_quadrature",
    "char_fn_components",
    "CyclicRep",
    "RelationReport",
    "build_rep",
    "verify_relations",
    "LimitDensity",
    "lambda_psi",
    "lambda_phi",
    "density",
    "cdf_grid",
    "limit_char_fn",
    "asym_integrals",
    "asym_limits",
    "kolmogorov_distance",
    "density_cdf_csv",
    "QWalkError",
    "NormViolation",
    "DegenerateCoin",
    "ParamViolation",
    "PathMismatch",
    "ResourceLimit",
    "QuadratureDivergence",
    "QuadratureFailure",
    "RelationFailure",
    "InvalidConfig",
]
