"""Exact moment-series calculus for free probability convolutions.

Truncated power series over Q and Q[t] drive an exact implementation of the
free, Boolean, monotone and two-state free convolutions, Jacobi-parameter
conversions and the evolution operators (Phi, coefficient stripping, the
Bercovici-Pata and Belinschi-Nica maps, subordination distributions), in one
and several non-commuting variables; ``catalog`` checks the paper's
identities on them exactly.
"""

from .catalog import CATALOG, NC_CATALOG, Check, VerifyReport, nc_verify, verify
from .coeffs import ExactDivisionError, TPoly, formal_t
from .convolutions import (
    boolean_convolve,
    boolean_power,
    free_convolve,
    free_deconvolve,
    free_power,
    monotone_convolve,
    two_state_convolve,
    two_state_power,
)
from .evolution import (
    belinschi_nica,
    bercovici_pata,
    bercovici_pata_inverse,
    cauchy_evolution_residual,
    maassen_semigroup,
    pde_residual,
    phi_map,
    phi_two,
    strip,
    subordination,
    subordination_inverse,
    triple_from_semigroup,
    two_state_semigroup,
)
from .functionals import (
    CanonicalTriple,
    ConsistencyError,
    JacobiDepthError,
    JacobiParams,
    MomentFunctional,
    NoJacobiRepresentationError,
    TwoStatePair,
    ZeroVarianceError,
    arcsine,
    bernoulli_sym,
    family,
    free_meixner,
    free_poisson,
    jacobi_from_moments,
    moments_from_jacobi,
    point_mass,
    semicircular,
)
from .multivariate import (
    NCFunctional,
    NCPair,
    nc_bp,
    nc_bp_inverse,
    nc_boolean_convolve,
    nc_boolean_power,
    nc_eta,
    nc_free_convolve,
    nc_free_power,
    nc_from_univariate,
    nc_moments_from_eta,
    nc_moments_from_r,
    nc_phi,
    nc_point_mass,
    nc_r,
    nc_subordination,
    nc_subordination_inverse,
    nc_tilde_from_two_state_r,
    nc_to_univariate,
    nc_two_state_r,
)
from .oracle import (
    SetPartition,
    boolean_cumulants_oracle,
    enumerate_interval,
    enumerate_nc,
    free_cumulants_oracle,
    moments_from_free_cumulants,
)
from .series import (
    CompositionDomainError,
    LaurentAtInfinity,
    NotInvertibleError,
    TruncSeries,
)
from .transforms import (
    cauchy_g,
    eta_from_moments,
    f_at_infinity,
    f_inverse_at_infinity,
    m_series,
    moments_from_eta,
    moments_from_r,
    r_from_moments,
    tilde_from_two_state_r,
    two_state_r,
    two_state_r_by_reversion,
    voiculescu_phi,
    voiculescu_phi_by_reversion,
)

__version__ = "0.1.0"
