import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wva import (
    MomentumGrid,
    OptimizerConfig,
    PostSelectedEvolution,
    WeakValue,
    default_position_cap,
    final_position,
    gauge_fix,
    gaussian_exact_shifts,
    gaussian_probe,
    gradient,
    maximize,
    max_shift,
    objective,
    optimal_probe,
    periodic_representative,
    projected_gradient_norm,
    recommended_gaussian_grid,
    shift_lower_bound,
    shift_on_circle,
)

G = 0.1
AW = math.sqrt(3) + 2.0 * math.sqrt(3) * 1j


def evo_for(value, coupling=G):
    return PostSelectedEvolution(coupling, WeakValue.from_value(value))


class TestObjective:
    def test_matches_closed_form_on_optimal_probe(self):
        probe = optimal_probe(G, AW, n_points=4097)
        value = objective(probe.values, probe.derivative, probe.grid, evo_for(AW))
        assert value == pytest.approx(max_shift(G, AW), rel=1e-6)

    def test_matches_closed_form_on_gaussian(self):
        width = 1.0
        probe = gaussian_probe(width, recommended_gaussian_grid(G, width))
        value = objective(probe.values, probe.derivative, probe.grid, evo_for(AW))
        assert value == pytest.approx(gaussian_exact_shifts(G, width, AW).delta_q, rel=1e-8)

    def test_scale_invariance(self):
        probe = optimal_probe(G, AW, n_points=513)
        evo = evo_for(AW)
        base = objective(probe.values, probe.derivative, probe.grid, evo)
        for scale in (7.0, 0.01j, -2.0 + 1.0j):
            scaled = objective(
                scale * probe.values, scale * probe.derivative, probe.grid, evo
            )
            assert scaled == pytest.approx(base, rel=1e-12)


class TestGradient:
    def test_finite_difference_agreement(self):
        # The gradient must reproduce central finite differences of the
        # functional it differentiates, component by component.
        rng = np.random.default_rng(5)
        grid = MomentumGrid.for_support(G, 33)
        evo = evo_for(1.5 + 0.7j)
        x = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        grad = gradient(x, grid, evo)
        eps = 1e-6
        for k in range(x.size):
            for direction in (1.0, 1j):
                plus = x.copy()
                plus[k] += eps * direction
                minus = x.copy()
                minus[k] -= eps * direction
                fd = (
                    final_position(plus, grid, evo) - final_position(minus, grid, evo)
                ) / (2.0 * eps)
                analytic = 2.0 * (grad[k].real if direction == 1.0 else grad[k].imag)
                assert abs(fd - analytic) <= 1e-4 * max(abs(analytic), 1e-10)

    def test_vanishes_at_analytic_optimum(self):
        for value in (2.0 + 0j, AW):
            probe = optimal_probe(G, value, n_points=513)
            x = periodic_representative(probe)
            norm = projected_gradient_norm(x, probe.grid, evo_for(value))
            assert norm < 1e-10

    def test_nonzero_at_gaussian(self):
        grid = MomentumGrid.for_support(G, 513)
        p = grid.points[:-1]
        x = np.exp(-(p**2) / 20.0).astype(complex)
        norm = projected_gradient_norm(x, grid, evo_for(2.0))
        assert norm > 1e-3

    def test_scaling_consistent_with_quotient_rule(self):
        # R(c x) = R(x) forces grad(c x) = grad(x) / conj(c).
        rng = np.random.default_rng(6)
        grid = MomentumGrid.for_support(G, 65)
        evo = evo_for(AW)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        base = gradient(x, grid, evo)
        c = 2.0 - 3.0j
        scaled = gradient(c * x, grid, evo)
        assert np.allclose(scaled, base / np.conj(c), atol=1e-12)


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
        evo = evo_for(value)
        x = self._samples(seed, 64)
        for functional in (final_position, shift_on_circle):
            base = functional(x, self.GRID, evo)
            assert functional(c * x, self.GRID, evo) == pytest.approx(
                base, rel=1e-10, abs=1e-12 * self.SCALE
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), value=weak_values, c=scales)
    def test_objective_is_scale_invariant(self, seed, value, c):
        evo = evo_for(value)
        values, derivative = self._samples(seed, 65), self._samples(seed + 1, 65)
        base = objective(values, derivative, self.GRID, evo)
        scaled = objective(c * values, c * derivative, self.GRID, evo)
        assert scaled == pytest.approx(base, rel=1e-10, abs=1e-12 * self.SCALE)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), value=weak_values, c=scales)
    def test_gradient_scales_inversely_with_conjugate(self, seed, value, c):
        evo = evo_for(value)
        x = self._samples(seed, 64)
        expected = gradient(x, self.GRID, evo) / np.conj(c)
        scaled = gradient(c * x, self.GRID, evo)
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
    def test_gaussian_init_reaches_closed_form(self):
        grid = MomentumGrid.for_support(G, 513)
        trace = maximize(OptimizerConfig(grid=grid), evo_for(2.0))
        assert trace.converged
        final = trace.iterations[-1][1]
        assert abs(final - 0.125) < 1e-3 * 0.125

    def test_random_init_reaches_closed_form_and_profile(self):
        grid = MomentumGrid.for_support(G, 513)
        trace = maximize(
            OptimizerConfig(grid=grid, seed=7, init="random"), evo_for(AW)
        )
        assert trace.converged
        final = trace.iterations[-1][1]
        reference = max_shift(G, AW)
        assert abs(final - reference) < 1e-3 * reference
        fixed = gauge_fix(trace.final_probe)
        target = optimal_probe(G, AW, n_points=513)
        mismatch = np.max(np.abs(np.abs(fixed.values) - np.abs(target.values)))
        assert mismatch < 1e-2 * np.max(np.abs(target.values))

    def test_projective_weak_value_pins_shift_at_coupling(self):
        grid = MomentumGrid.for_support(G, 513)
        trace = maximize(OptimizerConfig(grid=grid), evo_for(1.0))
        final = trace.iterations[-1][1]
        assert final == pytest.approx(G, abs=1e-9)

    def test_single_iteration_budget(self):
        grid = MomentumGrid.for_support(G, 513)
        trace = maximize(OptimizerConfig(grid=grid, max_iters=1), evo_for(AW))
        assert not trace.converged
        assert len(trace.iterations) == 1

    def test_seed_variation_agrees(self):
        grid = MomentumGrid.for_support(G, 513)
        finals = []
        for seed in (1, 2, 3):
            trace = maximize(
                OptimizerConfig(grid=grid, seed=seed, init="random"), evo_for(AW)
            )
            finals.append(trace.iterations[-1][1])
        spread = max(finals) - min(finals)
        assert spread < 1e-3 * max_shift(G, AW)

    def test_reproducible_given_seed(self):
        grid = MomentumGrid.for_support(G, 513)
        config = OptimizerConfig(grid=grid, seed=42, init="random")
        first = maximize(config, evo_for(AW))
        second = maximize(config, evo_for(AW))
        assert first.iterations == second.iterations
        assert np.array_equal(first.final_probe.values, second.final_probe.values)

    def test_converged_shift_never_claims_more_than_closed_form(self):
        # The converged report must not exceed the closed-form maximum of the
        # back-action-cancelling family.
        grid = MomentumGrid.for_support(G, 513)
        for value in (2.0 + 0j, AW):
            for seed, init in ((0, "gaussian"), (7, "random")):
                trace = maximize(
                    OptimizerConfig(grid=grid, seed=seed, init=init), evo_for(value)
                )
                assert trace.iterations[-1][1] <= max_shift(G, value) + 1e-6

    def test_shift_on_circle_matches_objective_for_smooth_states(self):
        probe = optimal_probe(G, AW, n_points=513)
        evo = evo_for(AW)
        circle_value = shift_on_circle(periodic_representative(probe), probe.grid, evo)
        simpson_value = objective(probe.values, probe.derivative, probe.grid, evo)
        assert circle_value == pytest.approx(simpson_value, rel=1e-9)

    def test_config_validation(self):
        grid = MomentumGrid.for_support(G, 65)
        with pytest.raises(ValueError):
            OptimizerConfig(grid=grid, max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(grid=grid, tol=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(grid=grid, init="simulated-annealing")

    def test_position_cap_override(self):
        grid = MomentumGrid.for_support(G, 513)
        assert default_position_cap(grid, evo_for(AW)) > max_shift(G, AW)
        trace = maximize(
            OptimizerConfig(grid=grid, position_cap=3.0), evo_for(AW)
        )
        # window too tight for this weak value's spectral spread: the search
        # still converges but lands measurably short of the closed form
        final = trace.iterations[-1][1]
        assert final < max_shift(G, AW)


class TestGaugeFix:
    def test_zero_mean_and_real_midpoint(self):
        from wva.expectation import expect_q

        grid = MomentumGrid.for_support(G, 513)
        trace = maximize(OptimizerConfig(grid=grid, seed=3, init="random"), evo_for(AW))
        fixed = gauge_fix(trace.final_probe)
        mean = expect_q(fixed.values, fixed.derivative_or_numeric(), grid)
        assert abs(mean) < 1e-6
        midpoint = fixed.values[grid.n_points // 2]
        assert midpoint.imag == pytest.approx(0.0, abs=1e-10)
        assert midpoint.real > 0.0
