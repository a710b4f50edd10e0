"""Shift reports: the mean position and momentum of a probe before and after
its post-selected evolution, and their differences.

Each state measures itself (:meth:`wva.probe.NodeSamples.means`): position
acts in momentum space as i d/dp, so its mean is the real part of
i * integral(conj(psi) psi') / integral(|psi|^2), a quotient independent of
normalization.  Every integral is the quadrature rule of the state's node
set: composite Simpson on a :class:`~wva.probe.MomentumGrid`,
Clenshaw-Curtis on :class:`~wva.probe.QuadratureNodes`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import PostSelectedEvolution, apply_postselection
from .probe import ProbeWavefunction


@dataclass(frozen=True)
class ShiftReport:
    """Initial/final expectations, their differences, and the weight (squared
    norm) of the post-selected state for one probe-evolution pair.

    The weight is the success probability only for a physical selection; with
    :meth:`wva.system.WeakValue.from_value` the overlap is one and, for the
    optimal probe, the weight is |Re A| (see :mod:`wva.evolution`)."""

    q_initial: float
    q_final: float
    p_initial: float
    p_final: float
    weight: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.q_initial, self.q_final, self.p_initial, self.p_final, self.weight)):
            raise ValueError("shift report entries must be finite")

    @property
    def delta_q(self) -> float:
        return self.q_final - self.q_initial

    @property
    def delta_p(self) -> float:
        return self.p_final - self.p_initial


def shift_report(evo: PostSelectedEvolution, probe: ProbeWavefunction) -> ShiftReport:
    """Initial expectations, post-selected evolution, final expectations.

    Final-state expectations are taken on the unnormalized evolved values;
    the expectation quotients make that legitimate, and the weight, their
    squared norm, stays available: |overlap|^2 * |Re A| for the optimal
    probe, a success probability only for a physical selection.  The
    overlap cancels from every quotient, so the weight is refused as zero
    only when it is below ``ZERO_NORM_FLOOR`` of |overlap|^2.  Each state's
    density, weight and moment integrands are its own cached members, formed
    once for its halving check and its means.

    Each state is integrated on its own node set: the initial state on the
    probe's grid, the evolved state on the one :func:`apply_postselection`
    puts it on.  When that is the probe's ``evolution_view`` (the optimal
    probe on theta nodes), the evolved state's halving estimates are checked.

    Raises
    ------
    ZeroNorm
        If post-selection annihilated the state: its weight is below
        ``ZERO_NORM_FLOOR`` of |overlap|^2.
    UnderResolvedGrid
        If the evolution view does not resolve the evolved state.
    """
    q_initial, p_initial, _ = probe.means()
    evolved = apply_postselection(evo, probe)
    final = evolved.grid
    if final is not probe.grid:  # each integrand against its absolute integral
        final.check_resolved(
            "the post-selected state, exact on the support nodes only under the evolution that "
            "the probe cancels",
            {name: (x, float(final.integrate(np.abs(x)))) for name, x in evolved.integrands.items()},
        )
    q_final, p_final, _ = evolved.means(abs(evo.weak.overlap) ** 2)
    return ShiftReport(q_initial, q_final, p_initial, p_final, evolved.weight)
