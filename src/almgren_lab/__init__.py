"""Numerical laboratory for weighted extension problems of order s in (1, 2).

Implements the weighted eigenbases on the half cylinder and half sphere, the
fourth-order extension profile with its constant, exact separable solutions
of the extended system, the frequency function with its derivative
identities, and numerical verification of the supporting weighted
inequalities.
"""

from .core import (
    AlmgrenLabError,
    AngularGrid1D,
    ClassificationError,
    DomainError,
    InputError,
    RegimeError,
    ResolutionError,
    SolverError,
    TraceProportionalityError,
    UnmatchedExponentError,
    VanishingDenominatorError,
    WeightParams,
    integrate_halfball,
    integrate_halfsphere,
)
from .special_functions import (
    bessel_h,
    bessel_j,
    bessel_zero,
    radial_norm_gamma,
)
from .cylinder import (
    CylinderMode,
    DirichletSpectrum,
    cylinder_mode,
    cylinder_spectrum,
    dirichlet_eigs,
)
from .hemisphere import (
    SpectralMode,
    hemisphere_eigs,
    hemisphere_modes,
    polynomial_mode,
    sigma_exponents,
)
from .profile import (
    BesselProfile,
    ProfileSolution,
    build_extension,
    extension_constant,
    solve_profile,
    trace_laplacian_check,
)
from .synthesis import (
    CoefficientFit,
    SeparableSolution,
    eval_solution,
    fit_blowup,
    fourier_coefficient,
    k_constant,
    synthesize,
)
from .almgren import (
    FrequencyTrace,
    check_H_derivative,
    check_pohozaev,
    compute_DH,
    frequency,
    frequency_limit,
    nu_decomposition,
    radius_schedule,
    trace,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
