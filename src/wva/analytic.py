"""Closed-form shift predictions, bounds, and integral identities.

This is the oracle layer: every quadrature or optimizer result elsewhere in
the package is tested against the expressions here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDenominator, ZeroRealPart

#: |Re A| below this is treated as a vanishing real part.
ZERO_REAL_EPS = 1e-12


def evolution_factor_and_derivative(coupling: float, weak_value: complex, p):
    """Momentum-space factor B = cos(g p) - i A sin(g p) applied by
    post-selection when the observable squares to the identity, and its
    momentum derivative B' = g (-sin(g p) - i A cos(g p)), from one cos/sin
    evaluation: the only one in the package.  Where |B| is small the
    difference loses digits; the optimal probe's theta panels
    (:func:`wva.probe.theta_nodes`) compute B from theta = arg B instead."""
    gp = coupling * np.asarray(p, dtype=float)
    cos, sin = np.cos(gp), np.sin(gp)
    return cos - 1j * weak_value * sin, coupling * (-sin - 1j * weak_value * cos)


def evolution_factor(coupling: float, weak_value: complex, p):
    """B of :func:`evolution_factor_and_derivative`."""
    return evolution_factor_and_derivative(coupling, weak_value, p)[0]


def _require_real_part(weak_value: complex) -> complex:
    aw = complex(weak_value)
    if abs(aw.real) < ZERO_REAL_EPS:
        raise ZeroRealPart(f"|Re A| = {abs(aw.real):.3e} is below {ZERO_REAL_EPS:.0e}")
    return aw


def _require_extent(extent: int) -> None:
    """Raise :class:`ValueError` unless ``extent``, the count of periods pi/g
    that a hard-support probe spans, is a positive integer."""
    if not (isinstance(extent, numbers.Integral) and extent >= 1):
        raise ValueError("extent must be a positive integer")


@dataclass(frozen=True)
class GaussianShiftPrediction:
    """Exact position/momentum shifts for a Gaussian probe, with the
    back-action denominator that caps its amplification."""

    delta_q: float
    delta_p: float
    denominator: float


def gaussian_exact_shifts(
    coupling: float, width: float, weak_value: complex
) -> GaussianShiftPrediction:
    """Full-order shifts for the Gaussian probe of momentum-space width ``width``.

    delta_q = g Re A / D and delta_p = 2 g W^2 Im A e^{-2 g^2 W^2} / D with
    D = 1 + (1 - |A|^2)(e^{-2 g^2 W^2} - 1) / 2.

    Raises
    ------
    DegenerateDenominator
        If |D| < 1e-12.
    """
    aw = complex(weak_value)
    damping = math.exp(-2.0 * coupling**2 * width**2)
    denominator = 1.0 + 0.5 * (1.0 - abs(aw) ** 2) * (damping - 1.0)
    if abs(denominator) < 1e-12:
        raise DegenerateDenominator(f"denominator = {denominator:.3e}")
    delta_q = coupling * aw.real / denominator
    delta_p = 2.0 * coupling * width**2 * aw.imag * damping / denominator
    return GaussianShiftPrediction(delta_q, delta_p, denominator)


def max_shift(coupling: float, weak_value: complex) -> float:
    """Largest attainable position shift, g (|A|^2 + 1) / (2 Re A).

    Achieved by the hard-support probe of :func:`wva.probe.optimal_probe`;
    grows without bound as |A| does.
    """
    aw = _require_real_part(weak_value)
    return coupling * (abs(aw) ** 2 + 1.0) / (2.0 * aw.real)


def optimal_initial_momentum(coupling: float, weak_value: complex, extent: int = 1) -> float:
    """Mean momentum of the optimal probe on a support of ``extent`` periods,
    arg(|A|^2 + |Re A| - i Im A) / g, plus atan(Im A / |Re A|) / g when the
    extent is even.

    The probe's density g |Re A| / (pi |B|^2) is a wrapped Cauchy (Poisson
    kernel) density in 2gp; its mean over the support takes this closed form,
    checked against composite-Simpson quadrature on p-grids.  The periods of
    an even support run over gp in [0, pi] (shifted by whole periods)
    instead of [-pi/2, pi/2].  Moving a period's window up by pi/2g moves its
    mean up by pi/g times the probe's mass on [-pi/2g, 0], which is
    1/2 + atan(Im A / |Re A|) / pi, and the even support's mean lies pi/2g
    below that window's.  The post-selected state is flat on the support, so
    its mean momentum is zero and the momentum shift is minus this value.
    """
    aw = _require_real_part(weak_value)
    _require_extent(extent)
    mean = math.atan2(-aw.imag, abs(aw) ** 2 + abs(aw.real)) / coupling
    if extent % 2 == 0:
        mean += math.atan(aw.imag / abs(aw.real)) / coupling
    return mean


def shift_lower_bound(coupling: float, weak_value: complex) -> float:
    """Lower bound g sqrt((Im A)^2 + 1) on |max_shift|; itself never below g.

    The whole chain is tight at A = +/-1, where the measurement reduces to a
    projective one and the probe is displaced by exactly g.
    """
    aw = _require_real_part(weak_value)
    return coupling * math.sqrt(aw.imag**2 + 1.0)


def inverse_square_factor_integral(coupling: float, weak_value: complex) -> float:
    """Closed form of the integral of |factor|^-2 over one support period
    [-pi/2g, pi/2g]: pi / (g |Re A|).

    Its reciprocal is the squared normalization constant of the optimal probe.
    """
    aw = _require_real_part(weak_value)
    return math.pi / (coupling * abs(aw.real))


def inverse_fourth_factor_integral(coupling: float, weak_value: complex) -> float:
    """Closed form of the integral of |factor|^-4 over [-pi/2g, pi/2g]:
    (|A|^2 + 1) / (2 (Re A)^2) times :func:`inverse_square_factor_integral`."""
    aw = _require_real_part(weak_value)
    ratio = (abs(aw) ** 2 + 1.0) / (2.0 * aw.real**2)
    return ratio * inverse_square_factor_integral(coupling, aw)


def extrapolate_orthogonality_limit(samples: Sequence[tuple[float, float]]) -> float:
    """Linear least-squares extrapolation of the product <q>_f * |overlap| to
    zero overlap.

    ``samples`` are (|overlap|, <q>_f * |overlap|) pairs along a
    post-selection family; as the post state approaches orthogonality the
    product tends to g/2 for the optimal probe.  Fits
    product = a * |overlap| + b over the five samples with the smallest
    |overlap| and returns the intercept b.
    """
    if len(samples) < 2:
        raise ValueError("extrapolation needs at least two samples")
    ordered = sorted(samples, key=lambda s: s[0])[:5]
    overlaps = np.array([s[0] for s in ordered])
    products = np.array([s[1] for s in ordered])
    slope, intercept = np.polyfit(overlaps, products, 1)
    return float(intercept)
