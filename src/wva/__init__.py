"""Weak-measurement probe engineering toolkit.

Simulates weak measurement with post-selection for observables that square
to the identity: weak values, probe wavefunctions in momentum space, exact
post-selected evolution, quadrature of position/momentum shifts, closed-form
oracles for the shifts and their bounds, and an independent variational
maximizer of the shift.
"""

from .analytic import (
    GaussianShiftPrediction,
    evolution_factor,
    evolution_factor_derivative,
    extrapolate_orthogonality_limit,
    gaussian_exact_shifts,
    inverse_fourth_factor_integral,
    inverse_square_factor_integral,
    max_shift,
    orthogonality_limit_check,
    shift_lower_bound,
)
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    GridTooLarge,
    NonFinite,
    OrthogonalSelection,
    TailMassTooLarge,
    WvaError,
    ZeroNorm,
    ZeroRealPart,
)
from .evolution import EvolvedProbe, PostSelectedEvolution, apply_postselection, apply_weak_order
from .expectation import ShiftReport, expect_p, expect_q, expect_q_with_residual, shift_report
from .optimizer import (
    OptimizerConfig,
    OptimizerTrace,
    SupportCircle,
    default_position_cap,
    final_position,
    gauge_fix,
    gradient,
    maximize,
    objective,
    periodic_representative,
    projected_gradient_norm,
    shift_on_circle,
)
from .probe import (
    MomentumGrid,
    PositionSamples,
    ProbeWavefunction,
    final_probe_momentum,
    final_probe_position,
    gaussian_probe,
    numeric_derivative,
    optimal_probe,
    position_amplitudes,
    recommended_gaussian_grid,
    recommended_support_points,
    smoothed_optimal_probe,
    smoothed_support_grid,
    to_position_density,
)
from .system import (
    Observable,
    SystemState,
    WeakValue,
    compute_weak_value,
    mach_zehnder_setup,
    mach_zehnder_weak_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
