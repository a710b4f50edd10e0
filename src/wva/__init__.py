"""Weak-measurement probe engineering toolkit.

Simulates weak measurement with post-selection for observables that square
to the identity: weak values, probe wavefunctions in momentum space, exact
post-selected evolution, quadrature of position/momentum shifts, closed-form
oracles for the shifts and their bounds, and an independent variational
maximizer of the shift.

BLAS threads: when ``import wva`` is the first import of numpy, numpy's
OpenBLAS starts with one thread, so a ``wva`` process runs no helper thread
that spins through start-up.  ``wva`` sets ``OPENBLAS_NUM_THREADS=1`` for that
one import and then removes it, so ``os.environ`` is as it was and
subprocesses inherit nothing.  A host keeps its own pool by importing numpy
before ``wva``, or by setting ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``
or ``OMP_NUM_THREADS``.
"""

import os as _os
import sys as _sys

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in _sys.modules and not any(name in _os.environ for name in _BLAS_THREAD_VARIABLES):
    # OpenBLAS reads its thread count once, when numpy loads it.
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .analytic import (
    GaussianShiftPrediction,
    evolution_factor,
    evolution_factor_and_derivative,
    extrapolate_orthogonality_limit,
    gaussian_exact_shifts,
    inverse_fourth_factor_integral,
    inverse_square_factor_integral,
    max_shift,
    optimal_initial_momentum,
    shift_lower_bound,
)
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    GridTooLarge,
    NonFinite,
    OrthogonalSelection,
    ScaleOutOfRange,
    UnderResolvedGrid,
    WvaError,
    ZeroNorm,
    ZeroRealPart,
)
from .evolution import PostSelectedEvolution, apply_postselection
from .expectation import ShiftReport, shift_report
from .optimizer import (
    AscentCore,
    OptimizerConfig,
    OptimizerTrace,
    gauge_fix,
    maximize,
    periodic_representative,
)
from .probe import (
    MomentumGrid,
    NodeSamples,
    ProbeWavefunction,
    QuadratureNodes,
    gaussian_probe,
    numeric_derivative,
    optimal_probe,
    position_amplitudes,
    recommended_support_points,
    smoothed_optimal_probe,
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
