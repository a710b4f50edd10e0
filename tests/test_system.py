import math

import numpy as np
import pytest

from wva import (
    DimensionMismatch,
    Observable,
    OrthogonalSelection,
    ScaleOutOfRange,
    SystemState,
    WeakValue,
    compute_weak_value,
    mach_zehnder_setup,
    mach_zehnder_weak_value,
)

PAULI_Z = np.diag([1.0, -1.0])


def test_state_normalized_on_construction():
    state = SystemState([3.0, 4.0])
    assert np.isclose(np.vdot(state.amplitudes, state.amplitudes).real, 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "amplitudes",
    [[1e200, 1e200], [1.0, 1e308], [1.7e308, 1.7e308j], [-1.7e308, 5e-324],
     [1e-13, 1e-13], [1e-200, 1e-200], [5e-324, 5e-324]],
)
def test_state_whose_squared_norm_overflows_is_normalized(amplitudes):
    # The squared norm overflows to inf, which once normalized the state to
    # zeros, or it falls below an absolute floor, once refused as zero.
    scaled = np.array(amplitudes) / np.abs(np.array(amplitudes)).max()
    np.testing.assert_allclose(SystemState(amplitudes).amplitudes, SystemState(scaled).amplitudes, rtol=1e-15)


def test_state_rejects_zero_and_nonfinite():
    with pytest.raises(ValueError):
        SystemState([0.0, 0.0])
    with pytest.raises(ValueError):
        SystemState([1.0, np.nan])


def test_observable_must_be_hermitian_involution():
    Observable(PAULI_Z)
    Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        Observable(np.diag([1.0, 0.0]))  # projector: squares to itself, not to 1
    with pytest.raises(ValueError):
        Observable(np.diag([2.0, -2.0]))  # Hermitian but square is 4


def test_weak_value_eigenstate_postselection():
    # Post-selecting onto an eigenstate returns the eigenvalue.
    wv = compute_weak_value(
        SystemState([1.0, 1.0]), SystemState([1.0, 0.0]), Observable(PAULI_Z)
    )
    assert wv.value == pytest.approx(1.0, abs=1e-14)
    assert wv.value.imag == pytest.approx(0.0, abs=1e-14)


def test_weak_value_tilted_postselection():
    # Direct 2x2 linear-algebra oracle: (cos - sin)/(cos + sin) at pi/8.
    angle = math.pi / 8
    post = np.array([math.cos(angle), math.sin(angle)])
    pre = np.array([1.0, 1.0]) / math.sqrt(2.0)
    expected = (post @ PAULI_Z @ pre) / (post @ pre)
    assert expected == pytest.approx(math.tan(math.pi / 8), abs=1e-15)
    wv = compute_weak_value(SystemState(pre), SystemState(post), Observable(PAULI_Z))
    assert wv.value == pytest.approx(0.4142135623730950, abs=1e-12)
    assert wv.success_probability == pytest.approx(abs(post @ pre) ** 2, abs=1e-12)


def test_weak_value_orthogonal_selection_raises():
    with pytest.raises(OrthogonalSelection):
        compute_weak_value(
            SystemState([1.0, 1.0]), SystemState([1.0, -1.0]), Observable(PAULI_Z)
        )


def test_weak_value_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compute_weak_value(
            SystemState([1.0, 0.0, 0.0]), SystemState([0.0, 1.0, 0.0]), Observable(PAULI_Z)
        )


def test_weak_value_type_rejects_an_overlap_beyond_one():
    with pytest.raises(ValueError, match="modulus at most 1"):
        WeakValue(2.0 + 0j, 1.0 + 1e-9 + 1e-9j)


def test_weak_value_type_rejects_zero_overlap():
    with pytest.raises(ValueError):
        WeakValue(1.0 + 0j, 0.0 + 0j)


def test_weak_value_beyond_the_scale_range_is_refused():
    assert WeakValue.from_value(complex(-1e100, 0.0)).value == -1e100
    with pytest.raises(ScaleOutOfRange):
        WeakValue.from_value(1e100 + 1e100j)
    with pytest.raises(ScaleOutOfRange):
        WeakValue.from_value(complex(1e308, 1e308))  # |A| overflows a double
    # From pre/post/obs, <post|X|pre> / <post|pre> = 1 / 1e-110 would be out of
    # range, but |<post|pre>| < ORTHOGONALITY_EPS refuses the selection first:
    # a computed weak value has |A| <= 1 / ORTHOGONALITY_EPS = 1e12.
    pre, post = SystemState([1.0, 0.0]), SystemState([1e-110, 1.0])
    pauli_x = Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(OrthogonalSelection):
        compute_weak_value(pre, post, pauli_x)
    edge = compute_weak_value(pre, SystemState([1e-12, 1.0]), pauli_x)
    assert abs(edge.value) == pytest.approx(1e12, rel=1e-12)


def test_weak_value_global_phase_invariance():
    rng = np.random.default_rng(11)
    obs = Observable(np.array([[0.0, -1j], [1j, 0.0]]))
    for _ in range(20):
        pre = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        post = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        base = compute_weak_value(SystemState(pre), SystemState(post), obs)
        phased = compute_weak_value(
            SystemState(pre * np.exp(0.7j)), SystemState(post * np.exp(-1.3j)), obs
        )
        assert phased.value == pytest.approx(base.value, abs=1e-12)
        assert phased.success_probability == pytest.approx(base.success_probability, abs=1e-12)


def test_affine_covariance_of_projector_observables():
    # For obs = 2P - 1, the weak value is 2 * (projector weak value) - 1.
    rng = np.random.default_rng(3)
    projector = np.diag([0.0, 1.0])
    obs = Observable(2.0 * projector - np.eye(2))
    for _ in range(20):
        pre = SystemState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        post = SystemState(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        wv = compute_weak_value(pre, post, obs)
        overlap = np.vdot(post.amplitudes, pre.amplitudes)
        projector_wv = np.vdot(post.amplitudes, projector @ pre.amplitudes) / overlap
        assert wv.value == pytest.approx(2.0 * projector_wv - 1.0, abs=1e-12)


class TestMachZehnder:
    def test_zero_polarizer_angle(self):
        wv = mach_zehnder_weak_value(math.pi / 4, 0.0)
        assert wv.value == 0.0
        pre, post, obs = mach_zehnder_setup(math.pi / 4, 0.0)
        a_w = compute_weak_value(pre, post, obs)
        assert a_w.value == pytest.approx(-1.0, abs=1e-14)

    def test_closed_form_against_matrix_elements(self):
        # -sin(chi) sin(phi) / cos(chi + phi) at (pi/6, pi/6) equals -1/2.
        wv = mach_zehnder_weak_value(math.pi / 6, math.pi / 6)
        assert wv.value == pytest.approx(-0.5, abs=1e-14)
        pre, post, obs = mach_zehnder_setup(math.pi / 6, math.pi / 6)
        a_w = compute_weak_value(pre, post, obs)
        assert 2.0 * wv.value - 1.0 == pytest.approx(a_w.value, abs=1e-12)
        assert wv.overlap == pytest.approx(a_w.overlap, abs=1e-12)

    def test_zero_injection_angle(self):
        for phi in (0.3, 1.0, -2.0):
            assert mach_zehnder_weak_value(0.0, phi).value == 0.0

    def test_orthogonal_selection(self):
        with pytest.raises(OrthogonalSelection):
            mach_zehnder_weak_value(math.pi / 3, math.pi / 6)

    def test_divergence_near_orthogonality(self):
        wv = mach_zehnder_weak_value(math.pi / 4, math.pi / 4 - 1e-4)
        assert abs(wv.value) > 1e3

    @pytest.mark.parametrize("chi, phi", [(1e308, 1e308), (-1e308, -1e308), (1.7e308, 1e308)])
    def test_angles_whose_sum_overflows_agree_with_the_matrix_route(self, chi, phi):
        closed = mach_zehnder_weak_value(chi, phi)
        matrix = compute_weak_value(*mach_zehnder_setup(chi, phi))
        assert 2.0 * closed.value - 1.0 == pytest.approx(matrix.value, rel=1e-12)
        assert closed.overlap == pytest.approx(matrix.overlap, rel=1e-12)

    def test_agreement_everywhere_defined(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 29, endpoint=False)
        for chi in angles:
            for phi in angles:
                if abs(math.cos(chi + phi)) < 1e-6:
                    continue
                closed = mach_zehnder_weak_value(chi, phi)
                pre, post, obs = mach_zehnder_setup(chi, phi)
                matrix = compute_weak_value(pre, post, obs)
                assert abs((2.0 * closed.value - 1.0) - matrix.value) < 1e-12 * max(
                    1.0, abs(matrix.value)
                )
