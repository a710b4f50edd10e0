import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wva import (
    AscentCore,
    MomentumGrid,
    NodeSamples,
    OptimizerConfig,
    PostSelectedEvolution,
    ProbeWavefunction,
    WeakValue,
    ZeroRealPart,
    gauge_fix,
    gaussian_exact_shifts,
    gaussian_probe,
    maximize,
    max_shift,
    optimal_probe,
    periodic_representative,
    shift_lower_bound,
    shift_report,
)

G = 0.1
AW = math.sqrt(3) + 2.0 * math.sqrt(3) * 1j


def evo_for(value, coupling=G):
    return PostSelectedEvolution(coupling, WeakValue.from_value(value))


def core_for(value, n_points):
    return AscentCore(MomentumGrid.for_support(G, n_points), evo_for(value))


def shift_of(values, derivative, grid, evo):
    """Shift of a probe given by samples of any scale: the shift report of
    its normalized samples."""
    return shift_report(evo, ProbeWavefunction.normalized(grid, values, derivative)).delta_q


class TestShiftReport:
    def test_matches_closed_form_on_optimal_probe(self):
        probe = optimal_probe(G, AW, n_points=4097)
        value = shift_of(probe.values, probe.derivative, probe.grid, evo_for(AW))
        assert value == pytest.approx(max_shift(G, AW), rel=1e-6)

    def test_matches_closed_form_on_gaussian(self):
        width = 1.0
        probe = gaussian_probe(G, width)
        value = shift_of(probe.values, probe.derivative, probe.grid, evo_for(AW))
        assert value == pytest.approx(gaussian_exact_shifts(G, width, AW).delta_q, rel=1e-8)

    def test_scale_invariance(self):
        probe = optimal_probe(G, AW, n_points=513)
        evo = evo_for(AW)
        base = shift_of(probe.values, probe.derivative, probe.grid, evo)
        for scale in (7.0, 0.01j, -2.0 + 1.0j):
            scaled = shift_of(scale * probe.values, scale * probe.derivative, probe.grid, evo)
            assert scaled == pytest.approx(base, rel=1e-12)


class TestGradient:
    def test_finite_difference_agreement(self):
        # The gradient must reproduce central finite differences of the
        # functional it differentiates, component by component.
        rng = np.random.default_rng(5)
        core = core_for(1.5 + 0.7j, 33)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        grad = core.value_and_gradient(x)[1]
        eps = 1e-6
        for k in range(x.size):
            for direction in (1.0, 1j):
                plus = x.copy()
                plus[k] += eps * direction
                minus = x.copy()
                minus[k] -= eps * direction
                fd = (
                    core.value_and_gradient(plus)[0] - core.value_and_gradient(minus)[0]
                ) / (2.0 * eps)
                analytic = 2.0 * (grad[k].real if direction == 1.0 else grad[k].imag)
                assert abs(fd - analytic) <= 1e-4 * max(abs(analytic), 1e-10)

    def test_vanishes_at_analytic_optimum(self):
        for value in (2.0 + 0j, AW):
            probe = optimal_probe(G, value, n_points=513)
            core = AscentCore(probe.grid, evo_for(value))
            assert core.projected_gradient_norm(periodic_representative(probe)) < 1e-10

    def test_nonzero_at_gaussian(self):
        core = core_for(2.0, 513)
        x = np.exp(-(core.points**2) / 20.0).astype(complex)
        assert core.projected_gradient_norm(x) > 1e-3

    def test_scaling_consistent_with_quotient_rule(self):
        # R(c x) = R(x) forces grad(c x) = grad(x) / conj(c).
        rng = np.random.default_rng(6)
        core = core_for(AW, 65)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        base = core.value_and_gradient(x)[1]
        c = 2.0 - 3.0j
        scaled = core.value_and_gradient(c * x)[1]
        assert np.allclose(scaled, base / np.conj(c), atol=1e-12)

    @pytest.mark.parametrize("size", [63, 65, 1])
    def test_methods_take_the_circle_samples_only(self, size):
        # The closed grid has 65 points and the circle 64: the wrap point
        # is not dropped, and no other length broadcasts.
        core = core_for(AW, 65)
        x = np.ones(size, dtype=complex)
        methods = (core.value_and_gradient, core.mean_position, core.shift, core.projected_gradient_norm)
        for method in methods:
            with pytest.raises(ValueError, match="circle samples"):
                method(x)


real_parts = st.floats(0.05, 20.0).flatmap(lambda r: st.sampled_from([r, -r]))
weak_values = st.builds(complex, real_parts, st.floats(-20.0, 20.0))
scales = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)


class TestScaleProperties:
    """Every functional is a quotient, so rescaling the probe by any nonzero
    complex c leaves it unchanged and divides its Wirtinger gradient by conj(c)."""

    GRID = MomentumGrid.for_support(G, 65)
    # Largest position eigenvalue: the natural size of a mean position here.
    SCALE = math.pi / GRID.spacing

    @staticmethod
    def _samples(seed, size):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), value=weak_values, c=scales)
    def test_functionals_are_scale_invariant(self, seed, value, c):
        core = AscentCore(self.GRID, evo_for(value))
        x = self._samples(seed, 64)
        for functional in (lambda x: core.value_and_gradient(x)[0], core.shift):
            base = functional(x)
            assert functional(c * x) == pytest.approx(base, rel=1e-10, abs=1e-12 * self.SCALE)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), value=weak_values, c=scales)
    def test_shift_report_is_scale_invariant(self, seed, value, c):
        # Random samples on GRID are refused by the report's halving check; a
        # Gaussian times a random quadratic on this wider grid is resolved.
        evo = evo_for(value)
        grid = MomentumGrid(-12.0, 12.0, 257)
        p, (a, b, d) = grid.points, self._samples(seed, 3)
        envelope, poly = np.exp(-(p**2) / 4.0), a + b * p + d * p**2
        values, derivative = envelope * poly, envelope * (b + 2.0 * d * p - 0.5 * p * poly)
        base = shift_of(values, derivative, grid, evo)
        scaled = shift_of(c * values, c * derivative, grid, evo)
        assert scaled == pytest.approx(base, rel=1e-10, abs=1e-12 * math.pi / grid.spacing)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), value=weak_values, c=scales)
    def test_gradient_scales_inversely_with_conjugate(self, seed, value, c):
        core = AscentCore(self.GRID, evo_for(value))
        x = self._samples(seed, 64)
        expected = core.value_and_gradient(x)[1] / np.conj(c)
        scaled = core.value_and_gradient(c * x)[1]
        assert np.max(np.abs(scaled - expected)) <= 1e-10 * np.max(np.abs(expected))


@settings(max_examples=200, deadline=None)
@given(coupling=st.floats(1e-4, 10.0), value=weak_values)
def test_bound_chain(coupling, value):
    # g <= g sqrt((Im A)^2 + 1) <= |max_shift|, the last up to rounding at
    # its equality point |Re A| = sqrt((Im A)^2 + 1).
    lower = shift_lower_bound(coupling, value)
    assert coupling <= lower
    assert lower <= abs(max_shift(coupling, value)) * (1.0 + 4.0 * np.finfo(float).eps)


class TestMaximize:
    GRID = MomentumGrid.for_support(G, 513)

    def test_gaussian_init_reaches_closed_form(self, maximize_once):
        trace = maximize_once(OptimizerConfig(grid=self.GRID), evo_for(2.0))
        assert trace.converged
        final = trace.iterations[-1][1]
        assert abs(final - 0.125) < 1e-3 * 0.125

    def test_random_init_reaches_closed_form_and_profile(self, maximize_once):
        trace = maximize_once(OptimizerConfig(grid=self.GRID, seed=7, init="random"), evo_for(AW))
        assert trace.converged
        final = trace.iterations[-1][1]
        reference = max_shift(G, AW)
        assert abs(final - reference) < 1e-3 * reference
        fixed = gauge_fix(trace.final_probe)
        target = optimal_probe(G, AW, n_points=513)
        mismatch = np.max(np.abs(np.abs(fixed.values) - np.abs(target.values)))
        assert mismatch < 1e-2 * np.max(np.abs(target.values))

    @pytest.mark.parametrize(
        "value",
        [-2.0, -2.0 + 0.13j, -0.36 + 0.13j, -AW.conjugate()],
        ids=["-2", "-2+0.13i", "-0.36+0.13i", "-A_fig"],
    )
    def test_negative_real_part_reaches_closed_form(self, value, maximize_once):
        # For Re A < 0 the closed-form shift is negative, the minimum of the
        # final mean position: the ascent must run toward it, not away.
        for seed, init in ((0, "gaussian"), (1, "random")):
            trace = maximize_once(OptimizerConfig(grid=self.GRID, seed=seed, init=init), evo_for(value))
            assert trace.converged
            final = trace.iterations[-1][1]
            reference = max_shift(G, value)
            assert abs(final - reference) <= 1e-3 * abs(reference), (init, final, reference)
            assert abs(final) <= abs(reference) + 1e-6, (init, final, reference)

    def test_zero_real_part_is_refused_before_the_ascent(self):
        with pytest.raises(ZeroRealPart):
            maximize(OptimizerConfig(grid=self.GRID), evo_for(1e-13 + 1j))

    @pytest.mark.parametrize("extent", [1, 2, 3, 4])
    def test_grid_must_span_whole_support_periods(self, extent):
        # The twist-compensating phase is exact only on whole periods pi/g.
        evo = evo_for(2.0)
        AscentCore(MomentumGrid.for_support(G, 257, extent), evo)
        half = 0.5 * extent * math.pi / G
        for p_min, p_max in ((-12.0, 12.0), (-half, half + 1.0), (-half, 0.7 * half)):
            with pytest.raises(ValueError, match="whole number"):
                maximize(OptimizerConfig(grid=MomentumGrid(p_min, p_max, 513)), evo)

    def test_projective_weak_value_pins_shift_at_coupling(self):
        trace = maximize(OptimizerConfig(grid=self.GRID), evo_for(1.0))
        final = trace.iterations[-1][1]
        assert final == pytest.approx(G, abs=1e-9)

    def test_single_iteration_budget(self):
        trace = maximize(OptimizerConfig(grid=self.GRID, max_iters=1), evo_for(AW))
        assert not trace.converged
        assert len(trace.iterations) == 1

    def test_seed_variation_agrees(self, maximize_once):
        finals = []
        for seed in (1, 2, 3):
            trace = maximize_once(OptimizerConfig(grid=self.GRID, seed=seed, init="random"), evo_for(AW))
            finals.append(trace.iterations[-1][1])
        spread = max(finals) - min(finals)
        assert spread < 1e-3 * max_shift(G, AW)

    def test_reproducible_given_seed(self):
        config = OptimizerConfig(grid=self.GRID, seed=42, init="random")
        first = maximize(config, evo_for(AW))
        second = maximize(config, evo_for(AW))
        assert first.iterations == second.iterations
        assert np.array_equal(first.final_probe.values, second.final_probe.values)

    def test_converged_shift_never_claims_more_than_closed_form(self, maximize_once):
        # The converged report must not exceed the closed-form maximum of the
        # back-action-cancelling family.
        for value in (2.0 + 0j, AW):
            for seed, init in ((0, "gaussian"), (7, "random")):
                trace = maximize_once(OptimizerConfig(grid=self.GRID, seed=seed, init=init), evo_for(value))
                assert trace.iterations[-1][1] <= max_shift(G, value) + 1e-6

    def test_core_shift_matches_shift_report_for_smooth_states(self):
        probe = optimal_probe(G, AW, n_points=513)
        evo = evo_for(AW)
        circle_value = AscentCore(probe.grid, evo).shift(periodic_representative(probe))
        assert circle_value == pytest.approx(shift_report(evo, probe).delta_q, rel=1e-9)

    def test_config_validation(self):
        grid = MomentumGrid.for_support(G, 65)
        with pytest.raises(ValueError):
            OptimizerConfig(grid=grid, max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grid=grid, tol=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(grid=grid, init="simulated-annealing")

    def test_window_holds_the_closed_form_shift(self):
        for value in (AW, -AW.conjugate(), 2.0, -0.36 + 0.13j):
            core = AscentCore(self.GRID, evo_for(value))
            assert core.cap > abs(max_shift(G, value))
            assert core.cap <= 0.4 * math.pi / self.GRID.spacing


class TestGaugeFix:
    def test_zero_mean_and_real_midpoint(self, maximize_once):
        grid = MomentumGrid.for_support(G, 513)
        trace = maximize_once(OptimizerConfig(grid=grid, seed=3, init="random"), evo_for(AW))
        fixed = gauge_fix(trace.final_probe)
        mean = NodeSamples(grid, fixed.values, fixed.derivative).means()[0]
        assert abs(mean) < 1e-6
        midpoint = fixed.values[grid.n_points // 2]
        assert midpoint.imag == pytest.approx(0.0, abs=1e-10)
        assert midpoint.real > 0.0
