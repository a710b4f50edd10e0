"""Post-selected impulsive von Neumann evolution of momentum-space probes.

Because the observable squares to the identity, post-selection acts on the
momentum wavefunction as multiplication by overlap * (cos gp - i A sin gp).
States come back unnormalized, as :class:`wva.probe.NodeSamples` whose squared
norm, the weight |overlap|^2 * integral(|factor * psi|^2), keeps the
measurement back-action testable.  The weight is the post-selection success
probability only when the overlap comes from a physical selection (as from
:func:`wva.system.compute_weak_value`).  :meth:`wva.system.WeakValue.from_value`
sets the overlap to one, so the weight is the factor integral alone.  For the
optimal probe the weight is |overlap|^2 * |Re A| (|overlap|^2 * Re A when
Re A > 0): 2 at A = 2 under ``from_value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import evolution_factor_and_derivative
from .probe import NodeSamples, ProbeWavefunction
from .system import WeakValue


@dataclass(frozen=True, eq=False)
class PostSelectedEvolution:
    """Impulsive coupling of strength ``coupling`` followed by the selection
    summarized in ``weak``: plain data.  Its factor B and B' come from
    :func:`wva.analytic.evolution_factor_and_derivative` with
    ``(coupling, weak.value, p)``."""

    coupling: float
    weak: WeakValue

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coupling) and self.coupling > 0):
            raise ValueError("coupling must be positive and finite")


def apply_postselection(evo: PostSelectedEvolution, probe: ProbeWavefunction) -> NodeSamples:
    """Exact post-selected evolution, valid at any coupling strength.

    The output values are overlap * factor(p) * probe values, pointwise; the
    derivative follows by the product rule with the analytic factor
    derivative.  Its ``weight``, the quadrature of |output|^2, is a success
    probability only for a physical selection (see the module docstring).
    The output is on the node set of the probe's ``evolution_view`` when it
    has one, and on the probe's own grid otherwise.
    """
    return _postselected(evo.coupling, evo.weak.value, evo.weak.overlap, probe.evolution_view or probe)


def _postselected(coupling: float, weak_value, overlap, state: NodeSamples) -> NodeSamples:
    """overlap * B * state and its derivative; ``weak_value`` and ``overlap``
    are scalars, or columns of one value per line of a block of states."""
    b, bd = evolution_factor_and_derivative(coupling, weak_value, state.grid.points)
    values = state.values
    return NodeSamples(state.grid, overlap * b * values, overlap * (bd * values + b * state.derivative))
