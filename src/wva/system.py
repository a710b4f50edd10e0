"""Pre/post-selected finite-dimensional systems and their weak values.

The shipped constructors are two-level, but states and observables carry an
arbitrary dimension d >= 2.  Observables are validated to be Hermitian and
involutory (M @ M == identity), which is what makes the momentum-space
evolution factor of :mod:`wva.evolution` exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OrthogonalSelection, ScaleOutOfRange

#: Largest |<post|pre>| treated as orthogonal selection.  A Hermitian
#: involutory observable has |<post|M|pre>| <= 1, so every weak value computed
#: from states has modulus at most 1 / ORTHOGONALITY_EPS = 1e12.
ORTHOGONALITY_EPS = 1e-12
#: Range of a scale: a probe's momentum scale (a Gaussian width, or 1/g for the
#: support probes; the range is symmetric, so g may be checked in its place)
#: and, by its upper end, the modulus of a weak value.  Samples, derivatives
#: and their quadrature products grow like up to the third power of the scale
#: or of its inverse, and |A|^2 enters the shifts, so within this range they
#: all stay normal doubles (above 1e-300 and below 1e300).
SCALE_RANGE = (1e-100, 1e100)

_MATRIX_TOL = 1e-12


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite; a complex entry needs both parts finite."""
    return bool(np.isfinite(arr).all())


def _unit_peak(arr: np.ndarray, *companions: np.ndarray) -> list[np.ndarray]:
    """Complex ``arr`` and its ``companions`` times the power of two that brings
    the largest real or imaginary part of ``arr`` into [0.5, 1) (one if ``arr``
    is all zero).  Exact, so a normalization that follows keeps its bits.
    Applied by ``np.ldexp`` to the float parts: 2^k is no double for a
    subnormal peak."""
    parts = [np.ascontiguousarray(x).view(np.float64) for x in (arr, *companions)]
    exponent = _peak_exponent(float(np.abs(parts[0]).max()))
    return [np.ldexp(x, exponent).view(np.complex128) for x in parts]


def _peak_exponent(peak: float) -> int:
    """The k for which 2^k ``peak`` lies in [0.5, 1) (zero for a zero peak)."""
    return -math.frexp(peak)[1]


def _normalized(arr: np.ndarray) -> np.ndarray:
    """Complex ``arr``, scaled by :func:`_unit_peak`, over its norm from ``np.vdot``."""
    return arr / math.sqrt(np.vdot(arr, arr).real)


def _angle_amplitudes(angle: float) -> np.ndarray:
    """``SystemState([cos angle, sin angle]).amplitudes`` bit for bit, without the
    checks that a finite angle passes, and scaled by the exact ``math.ldexp``."""
    cos, sin = math.cos(angle), math.sin(angle)
    exponent = _peak_exponent(max(abs(cos), abs(sin)))
    return _normalized(np.array([math.ldexp(cos, exponent), math.ldexp(sin, exponent)], dtype=np.complex128))


@dataclass(frozen=True, eq=False)
class SystemState:
    """State vector of the system, normalized at construction.

    Parameters
    ----------
    amplitudes : array_like of complex
        Basis amplitudes; any nonzero finite vector of dimension >= 2, at
        any scale.  The stored vector is rescaled to unit norm (global scale
        and phase never enter a weak value).
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("a state needs a 1-d amplitude vector of dimension >= 2")
        if not all_finite(arr):
            raise ValueError("state amplitudes must be finite")
        if not arr.any():
            raise ValueError("cannot normalize a zero state vector")
        arr = _normalized(*_unit_peak(arr))
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian involutory observable (its square is the identity)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("observable must be a square matrix of dimension >= 2")
        if not all_finite(m):
            raise ValueError("observable entries must be finite")
        if np.abs(m - m.conj().T).max() > _MATRIX_TOL:
            raise ValueError("observable must be Hermitian")
        residual = m @ m
        residual.flat[:: m.shape[0] + 1] -= 1.0  # M @ M minus the identity
        if np.abs(residual).max() > _MATRIX_TOL:
            raise ValueError("observable must square to the identity")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class WeakValue:
    """Weak value together with the selection overlap that produced it.

    ``value`` is <post|M|pre> / <post|pre> and can be any complex number up
    to ``SCALE_RANGE[1]`` in modulus; ``overlap`` is <post|pre>, at most one
    in modulus, and ``success_probability`` its squared modulus, i.e. the
    probability cost of the post-selection.

    Raises
    ------
    ScaleOutOfRange
        If |value| exceeds ``SCALE_RANGE[1]``: beyond it |A|^2 and the shifts
        overflow double precision.
    """

    value: complex
    overlap: complex

    def __post_init__(self) -> None:
        if self.overlap == 0:
            raise ValueError("weak value requires a nonzero selection overlap")
        for x in (self.value, self.overlap):
            if not (math.isfinite(x.real) and math.isfinite(x.imag)):
                raise ValueError("weak value fields must be finite")
        modulus = math.hypot(self.value.real, self.value.imag)
        if modulus > SCALE_RANGE[1]:
            raise ScaleOutOfRange(
                f"|weak value| = {modulus:.3e} exceeds {SCALE_RANGE[1]:g}, beyond which "
                "|A|^2 and the shifts leave double precision"
            )
        if not abs(self.overlap) <= 1.0 + 1e-12:
            raise ValueError("selection overlap must have modulus at most 1")

    @property
    def success_probability(self) -> float:
        return abs(self.overlap) ** 2

    @classmethod
    def from_value(cls, value: complex) -> "WeakValue":
        """Wrap a bare weak value, folding the selection into a unit overlap."""
        return cls(complex(value), 1.0 + 0.0j)


def compute_weak_value(pre: SystemState, post: SystemState, observable: Observable) -> WeakValue:
    """Weak value of ``observable`` for the given pre-/post-selection.

    Raises
    ------
    DimensionMismatch
        If the states and the observable do not share one dimension.
    OrthogonalSelection
        If |<post|pre>| < ``ORTHOGONALITY_EPS``; the weak value is undefined there.
    """
    return _weak_value(*_selected(pre, post.dimension, observable), post.amplitudes)


def _selected(pre: SystemState, post_dimension: int, observable: Observable) -> tuple[np.ndarray, np.ndarray]:
    """The amplitudes of ``pre`` and M @ ``pre``, once both states' dimensions
    are the observable's; a sweep in post-selection builds them once."""
    d = observable.dimension
    if pre.dimension != d or post_dimension != d:
        raise DimensionMismatch(f"dimensions differ: pre={pre.dimension}, post={post_dimension}, obs={d}")
    return pre.amplitudes, observable.matrix @ pre.amplitudes


def _weak_value(pre: np.ndarray, observed: np.ndarray, post: np.ndarray) -> WeakValue:
    """<post|M|pre> / <post|pre> from the unit amplitudes ``pre`` and ``post``
    and ``observed`` = M @ ``pre``, each product by ``np.vdot``."""
    overlap = complex(np.vdot(post, pre))
    if abs(overlap) < ORTHOGONALITY_EPS:
        raise OrthogonalSelection(
            f"|<post|pre>| = {abs(overlap):.3e} below ORTHOGONALITY_EPS = {ORTHOGONALITY_EPS:.3e}"
        )
    return WeakValue(complex(np.vdot(post, observed)) / overlap, overlap)


#: The observable of :func:`mach_zehnder_setup`, built once: it is frozen and
#: read-only, so every setup shares it.
_MACH_ZEHNDER_OBSERVABLE = Observable(np.diag([-1.0, 1.0]))


def mach_zehnder_setup(
    path_angle: float, polarizer_angle: float
) -> tuple[SystemState, SystemState, Observable]:
    """Interferometer selection: polarizing splitter in, polarizer out.

    A polarization state cos(chi)|H> + sin(chi)|V> enters a polarizing beam
    splitter that routes H into one arm and V into the other, so the reachable
    product states span the two-dimensional subspace {|H, arm-1>, |V, arm-2>}.
    The recombining balanced splitter followed by a polarizer at angle phi in
    the detected port acts, pulled back onto that subspace, along the
    direction (-cos(phi), sin(phi)); the splitter's 1/sqrt(2) port factor
    drops out on normalization.  The returned observable is twice the
    projector onto the second arm minus the identity, which squares to one.

    Returns
    -------
    (pre, post, observable)
        Ready for :func:`compute_weak_value`.
    """
    pre = SystemState(np.array([math.cos(path_angle), math.sin(path_angle)]))
    post = SystemState(np.array([-math.cos(polarizer_angle), math.sin(polarizer_angle)]))
    return pre, post, _MACH_ZEHNDER_OBSERVABLE


def mach_zehnder_weak_value(path_angle: float, polarizer_angle: float) -> WeakValue:
    """Closed-form weak value of the second-arm projector for the setup above.

    Equals -sin(chi) sin(phi) / cos(chi + phi) and agrees with the
    matrix-element route through :func:`mach_zehnder_setup` via the affine map
    2 * value - 1 (the setup ships the involutory observable, not the
    projector).

    Raises
    ------
    OrthogonalSelection
        When |cos(chi + phi)| < ``ORTHOGONALITY_EPS``.
    """
    angle = path_angle + polarizer_angle  # cos(chi + phi) by its identity where the sum overflows
    overlap = -math.cos(angle) if math.isfinite(angle) else (
        math.sin(path_angle) * math.sin(polarizer_angle) - math.cos(path_angle) * math.cos(polarizer_angle))
    if abs(overlap) < ORTHOGONALITY_EPS:
        raise OrthogonalSelection(
            f"|cos(chi + phi)| = {abs(overlap):.3e} below ORTHOGONALITY_EPS = {ORTHOGONALITY_EPS:.3e}"
        )
    numerator = math.sin(path_angle) * math.sin(polarizer_angle)
    return WeakValue(complex(numerator / overlap), complex(overlap))
