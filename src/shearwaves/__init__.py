"""Coefficient verification and pseudospectral simulation for a highly
nonlinear shallow-water model over a constant-vorticity shear current."""

from .besov import besov_norm, decompose, inequality_suite
from .coeffs import (
    DerivedIntermediates,
    GeneralCoefficients,
    IdentityCheck,
    ModelCoefficients,
    burns_speed,
    derived_intermediates,
    identity_suite,
    model_coefficients,
    normalize,
)
from .forms import (
    ProfileSum,
    RescaleReport,
    ScaleParams,
    TravelingGaussian,
    residual_local_form,
    rhs_nonlocal,
    surface_elevation_leading,
    velocity_rate_from_rescaled_form,
    verify_form_equivalence,
    verify_rescale,
)
from .solver import (
    DiagnosticsRecord,
    SimConfig,
    Trajectory,
    breaking_monitor,
    h1_growth_check,
    integrate,
    manufactured_forcing,
    step_rk4,
)
from .spectral import (
    Field,
    Grid,
    dealias,
    derivative,
    helmholtz_inverse,
    helmholtz_inverse_dx,
    sobolev_norm,
    sup_norm,
)

__version__ = "0.1.0"
