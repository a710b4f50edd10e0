"""Shift reports: the mean position and momentum of a probe before and after
its post-selected evolution, and their differences.

Each state measures itself (:meth:`wva.probe.NodeSamples.means`) and
certifies itself (:meth:`wva.probe.NodeSamples.check_resolved`): position
acts in momentum space as i d/dp, so its mean is the real part of
i * integral(conj(psi) psi') / integral(|psi|^2), a quotient independent of
normalization.  Every integral is the quadrature rule of the state's node
set: composite Simpson on a :class:`~wva.probe.MomentumGrid`,
Clenshaw-Curtis on :class:`~wva.probe.QuadratureNodes`.  The optimal probes
of many weak values are reported in batches by :func:`optimal_shift_reports`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import WvaError
from .evolution import PostSelectedEvolution, _postselected, apply_postselection
from .probe import BATCH_NODES, ProbeWavefunction, _check_halving, _means, _optimal_batch, _reaches, _theta_row
from .probe import _require_finite, _require_normalized
from .system import WeakValue


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
    """Initial expectations, post-selected evolution, final expectations,
    each state certified by its halving check.

    Final-state expectations are taken on the unnormalized evolved values;
    the expectation quotients make that legitimate, and the weight, their
    squared norm, stays available: |overlap|^2 * |Re A| for the optimal
    probe, a success probability only for a physical selection.  The
    overlap cancels from every quotient, so the weight is refused as zero
    only when it is below ``ZERO_NORM_FLOOR`` of |overlap|^2.

    Each state is integrated on its own node set: the initial state on the
    probe's, the evolved state on the one :func:`apply_postselection` puts
    it on.  Once both means are taken, both states meet
    :meth:`~wva.probe.NodeSamples.check_resolved`, on either kind of node
    set, from the same cached integrands as their means.  The smoothed probe
    is exempt: its edge kinks hold its estimates above ``HALVING_TOL``.

    Raises
    ------
    ZeroNorm
        If post-selection annihilated the state: its weight is below
        ``ZERO_NORM_FLOOR`` of |overlap|^2.
    UnderResolvedGrid
        If the halving estimates of the probe or of the post-selected state
        exceed their tolerance, or its grid has no nested rule (a count that
        is not 4k + 1).
    """
    evolved = apply_postselection(evo, probe)
    q_initial, p_initial, _ = probe.means()
    q_final, p_final, _ = evolved.means(abs(evo.weak.overlap) ** 2)
    # Exempt until ROADMAP Direction 6 puts the smoothed probe on nodes and deletes this line.
    states = () if probe.label.startswith("smoothed") else (("the probe", probe), ("the post-selected state", evolved))
    for what, state in states:
        state.check_resolved(what)
    return ShiftReport(q_initial, q_final, p_initial, p_final, evolved.weight)


def optimal_shift_reports(
    coupling: float, weak_values: Iterable[WeakValue], extent: int = 1
) -> Iterator[ShiftReport | WvaError]:
    """For each weak value in turn, :func:`shift_report` of
    ``PostSelectedEvolution(coupling, wv)`` and ``optimal_probe(coupling,
    wv.value, None, extent)``, byte for byte, or the error that ends it.

    Each weak value meets the probe's checks, and has its theta panels cut,
    on its own.  Rows then join a batch while it holds at most
    ``BATCH_NODES`` theta nodes, and a batch evaluates its nodes, samples,
    post-selected states and integrands once.  A row's integrals are pairwise
    sums over its own nodes; those of the post-selected states, which share
    the support nodes, are one sum along each line of their block.  The
    reach max |p| of each row's nodes and of the support nodes, which scales
    the halving check, is taken once per batch.  A row's checks come in the
    order of :func:`shift_report`.  Weak values are read as the batches
    need them, so a sweep holds one or two batches at a time.
    """
    batch, held = [], 0
    for wv in weak_values:
        try:
            row = _theta_row(coupling, wv.value, extent)
        except WvaError as exc:
            yield from _batch_reports(coupling, batch, extent)
            batch, held = [], 0
            yield exc
            continue
        if held + row.nodes > BATCH_NODES:
            yield from _batch_reports(coupling, batch, extent)
            batch, held = [], 0
        batch.append((wv, row))
        held += row.nodes
    yield from _batch_reports(coupling, batch, extent)


def _batch_reports(coupling: float, batch: list, extent: int) -> Iterator[ShiftReport | WvaError]:
    if not batch:
        return
    probes, views, runs = _optimal_batch(coupling, [row for _, row in batch], extent)
    _require_finite(probes.values, "values")
    _require_finite(probes.derivative, "derivative")
    weak = np.array([wv.value for wv, _ in batch])[:, None]
    overlap = np.array([wv.overlap for wv, _ in batch])[:, None]
    evolved = _postselected(coupling, weak, overlap, views)
    reaches = _reaches(probes.grid.points, [run.start for run in runs])  # one pass over the batch
    (final_reach,) = _reaches(views.grid.points, [0])  # the rows share the support nodes
    final_count = views.grid.n_points
    rows = zip(batch, runs, reaches, probes.run_integrals(runs), evolved.run_integrals())
    for (wv, _), run, reach, (weight, *moments, size, errors), final in rows:
        final_weight, final_position, final_momentum, final_size, final_errors = final
        _require_normalized(weight)
        try:
            q_initial, p_initial, _ = _means(weight, *moments)
            q_final, p_final, _ = _means(final_weight, final_position, final_momentum, abs(wv.overlap) ** 2)
            _check_halving("the probe", run.stop - run.start, reach, weight, size, errors)
            _check_halving("the post-selected state", final_count, final_reach, final_weight, final_size, final_errors)
            yield ShiftReport(q_initial, q_final, p_initial, p_final, final_weight)
        except WvaError as exc:
            yield exc
