import math

import numpy as np
import pytest

from wva import (
    GridTooLarge,
    MomentumGrid,
    ProbeWavefunction,
    TailMassTooLarge,
    ZeroRealPart,
    evolution_factor,
    final_probe_momentum,
    final_probe_position,
    gaussian_probe,
    max_shift,
    numeric_derivative,
    optimal_probe,
    position_amplitudes,
    recommended_gaussian_grid,
    recommended_support_points,
    smoothed_optimal_probe,
    smoothed_support_grid,
    to_position_density,
)
from wva.evolution import PostSelectedEvolution
from wva.expectation import expect_p, expect_q, shift_report
from wva.probe import MAX_GRID_POINTS
from wva.system import WeakValue

G = 0.1
AW = math.sqrt(3) + 2.0 * math.sqrt(3) * 1j


class TestMomentumGrid:
    def test_rejects_even_or_tiny_counts(self):
        with pytest.raises(ValueError):
            MomentumGrid(-1.0, 1.0, 4)
        with pytest.raises(ValueError):
            MomentumGrid(-1.0, 1.0, 1)
        with pytest.raises(ValueError):
            MomentumGrid(1.0, -1.0, 5)

    def test_points_and_weights(self):
        grid = MomentumGrid(-1.0, 1.0, 5)
        assert grid.spacing == pytest.approx(0.5)
        assert np.allclose(grid.points, [-1.0, -0.5, 0.0, 0.5, 1.0])
        # Simpson integrates cubics exactly.
        assert grid.integrate(grid.points**3 + 1.0) == pytest.approx(2.0, abs=1e-14)

    def test_for_support(self):
        grid = MomentumGrid.for_support(G, 101)
        assert grid.p_max == pytest.approx(math.pi / (2.0 * G))
        grid3 = MomentumGrid.for_support(G, 101, extent=3)
        assert grid3.p_max == pytest.approx(3.0 * math.pi / (2.0 * G))


def test_numeric_derivative_fourth_order():
    # Error on a smooth function should fall ~16x per grid doubling.
    errors = []
    for n in (65, 129, 257):
        grid = MomentumGrid(-2.0, 2.0, n)
        values = np.exp(1j * grid.points) * np.cos(grid.points)
        exact = np.exp(1j * grid.points) * (1j * np.cos(grid.points) - np.sin(grid.points))
        errors.append(np.max(np.abs(numeric_derivative(values, grid) - exact)))
    assert errors[0] / errors[1] > 8.0
    assert errors[1] / errors[2] > 8.0


def test_wavefunction_requires_normalization():
    grid = MomentumGrid(-1.0, 1.0, 21)
    with pytest.raises(ValueError):
        ProbeWavefunction(grid, np.full(21, 10.0 + 0j))
    probe = ProbeWavefunction.normalized(grid, np.full(21, 10.0 + 0j))
    assert probe.norm_squared() == pytest.approx(1.0, abs=1e-12)


class TestGaussianProbe:
    def test_normalized_on_grid(self):
        grid = MomentumGrid(-20.0, 20.0, 4001)
        probe = gaussian_probe(1.0, grid)
        assert probe.norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_zero_means(self):
        grid = MomentumGrid(-20.0, 20.0, 4001)
        probe = gaussian_probe(1.0, grid)
        assert expect_p(probe.values, grid) == pytest.approx(0.0, abs=1e-10)
        assert expect_q(probe.values, probe.derivative, grid) == pytest.approx(0.0, abs=1e-8)

    def test_width_scales_momentum_deviation(self):
        # Quadrature oracle for the second moment.
        def momentum_std(width):
            grid = recommended_gaussian_grid(G, width)
            probe = gaussian_probe(width, grid)
            return math.sqrt(
                float(grid.integrate(grid.points**2 * np.abs(probe.values) ** 2))
            )

        assert momentum_std(2.0) / momentum_std(1.0) == pytest.approx(2.0, abs=1e-8)

    def test_tail_mass_guard(self):
        with pytest.raises(TailMassTooLarge):
            gaussian_probe(1.0, MomentumGrid(-3.0, 3.0, 301))

    def test_derivative_is_analytic(self):
        grid = MomentumGrid(-20.0, 20.0, 2001)
        probe = gaussian_probe(1.0, grid)
        assert np.allclose(
            probe.derivative, -grid.points / 2.0 * probe.values, atol=1e-14
        )


class TestOptimalProbe:
    def test_normalized(self):
        probe = optimal_probe(G, AW)
        assert probe.norm_squared() == pytest.approx(1.0, abs=1e-8)

    def test_rejects_imaginary_weak_value(self):
        with pytest.raises(ZeroRealPart):
            optimal_probe(G, 1j)

    def test_unit_weak_value_is_flat(self):
        probe = optimal_probe(G, 1.0)
        density = np.abs(probe.values) ** 2
        assert np.allclose(density, G / math.pi, atol=1e-10)

    def test_normalization_constant_matches_integral_identity(self):
        # |C|^2 = g |Re A| / pi: the unnormalized closed form should already
        # carry unit norm up to quadrature error.
        grid = MomentumGrid.for_support(G, 4097)
        shift = max_shift(G, AW)
        raw = (
            math.sqrt(G * abs(AW.real) / math.pi)
            * np.exp(-1j * shift * grid.points)
            / evolution_factor(G, AW, grid.points)
        )
        assert float(grid.integrate(np.abs(raw) ** 2)) == pytest.approx(1.0, abs=1e-8)

    def test_edge_densities_equal(self):
        probe = optimal_probe(G, AW)
        assert abs(probe.values[0]) ** 2 == pytest.approx(
            abs(probe.values[-1]) ** 2, abs=1e-10
        )

    def test_zero_initial_mean_position(self):
        probe = optimal_probe(G, AW)
        assert expect_q(probe.values, probe.derivative, probe.grid) == pytest.approx(
            0.0, abs=1e-6
        )

    @pytest.mark.parametrize("extent,n", [(1, 4097), (2, 8193), (3, 12289)])
    def test_extended_support_reproduces_shift(self, extent, n):
        evo = PostSelectedEvolution(G, WeakValue.from_value(AW))
        probe = optimal_probe(G, AW, n_points=n, extent=extent)
        report = shift_report(evo, probe)
        assert report.delta_q == pytest.approx(max_shift(G, AW), abs=1e-6)


class TestFinalProbeMomentum:
    def test_flat_density(self):
        probe = final_probe_momentum(G, AW)
        assert np.allclose(np.abs(probe.values) ** 2, G / math.pi, atol=1e-10)

    def test_equals_evolved_optimal_probe(self):
        # Composing the optimal probe with the evolution factor must land on
        # the flat final form, pointwise after normalization.
        initial = optimal_probe(G, AW)
        factor = evolution_factor(G, AW, initial.grid.points)
        evolved = factor * initial.values
        evolved /= math.sqrt(float(initial.grid.integrate(np.abs(evolved) ** 2)))
        final = final_probe_momentum(G, AW)
        assert np.max(np.abs(evolved - final.values)) < 1e-10

    def test_phase_slope(self):
        # d(phase)/dp = -g(|A|^2 + 1)/(2 Re A) = -0.461880215...
        probe = final_probe_momentum(G, AW)
        phase = np.unwrap(np.angle(probe.values))
        slope = np.polyfit(probe.grid.points, phase, 1)[0]
        assert slope == pytest.approx(-0.461880215352, abs=1e-9)


class TestFinalProbePosition:
    def test_parseval_of_series_coefficients(self):
        samples = final_probe_position(G, AW, n_range=12)
        total = float(np.sum(np.abs(samples.series_coefficients) ** 2))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_peak_sample_nearest_final_mean(self):
        samples = final_probe_position(G, AW, n_range=16)
        shift = max_shift(G, AW)
        peak = samples.positions[int(np.argmax(np.abs(samples.values)))]
        nearest = samples.positions[int(np.argmin(np.abs(samples.positions - shift)))]
        assert peak == nearest

    def test_positions_exactly_on_comb(self):
        samples = final_probe_position(G, AW, n_range=5)
        assert np.array_equal(samples.positions, 2.0 * G * samples.offsets)

    def test_values_match_quadrature(self):
        # Cross-check the closed-form samples against the direct Fourier
        # integral of the final momentum wavefunction.
        samples = final_probe_position(G, AW, n_range=8)
        probe = final_probe_momentum(G, AW, n_points=8193)
        quad = position_amplitudes(probe, samples.positions)
        assert np.max(np.abs(quad - samples.values)) < 1e-8

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            final_probe_position(G, AW, n_range=0)


class TestSmoothedProbe:
    def test_continuous_at_support_edges(self):
        smoothing = 20.0
        grid = smoothed_support_grid(G, smoothing)
        probe = smoothed_optimal_probe(G, AW, smoothing, grid)
        half = math.pi / (2.0 * G)
        i_left = int(round((-half - grid.p_min) / grid.spacing))
        i_right = int(round((half - grid.p_min) / grid.spacing))
        # closed-form interior values at the edges
        edge = optimal_probe(G, AW)
        scale = abs(probe.values[i_left]) / abs(edge.values[0])
        assert abs(probe.values[i_left + 1] - probe.values[i_left]) < 0.1 * abs(
            probe.values[i_left]
        )
        assert abs(probe.values[i_right]) == pytest.approx(
            scale * abs(edge.values[-1]), rel=1e-10
        )

    def test_pointwise_limit_is_optimal_probe(self):
        # On the support interior, the renormalized smoothed probe converges
        # pointwise to the hard-support closed form as the rate grows.
        shift = max_shift(G, AW)
        amplitude = math.sqrt(G * abs(AW.real) / math.pi)
        previous = None
        for smoothing in (50.0, 200.0, 800.0):
            grid = smoothed_support_grid(G, smoothing, n_interior=4097)
            probe = smoothed_optimal_probe(G, AW, smoothing, grid)
            half = math.pi / (2.0 * G)
            i_left = int(round((-half - grid.p_min) / grid.spacing))
            i_right = int(round((half - grid.p_min) / grid.spacing))
            p_interior = grid.points[i_left : i_right + 1]
            limit = (
                amplitude
                * np.exp(-1j * shift * p_interior)
                / evolution_factor(G, AW, p_interior)
            )
            deviation = float(np.max(np.abs(probe.values[i_left : i_right + 1] - limit)))
            if previous is not None:
                assert deviation < previous
            previous = deviation
        assert previous < 1e-5

    def test_shift_regression_at_moderate_smoothing(self):
        # Frozen quadrature-pipeline value for smoothing rate 10/g.
        evo = PostSelectedEvolution(G, WeakValue.from_value(AW))
        grid = smoothed_support_grid(G, 100.0)
        probe = smoothed_optimal_probe(G, AW, 100.0, grid)
        report = shift_report(evo, probe)
        assert report.delta_q == pytest.approx(0.461736912436021, abs=1e-9)
        # within a fraction of a percent of the hard-support maximum
        assert abs(report.delta_q - max_shift(G, AW)) / max_shift(G, AW) < 5e-4

    def test_tail_mass_guard(self):
        grid = smoothed_support_grid(G, 100.0)
        tight = MomentumGrid(grid.p_min / 1.001, -grid.p_min / 1.001, 513)
        with pytest.raises((TailMassTooLarge, ValueError)):
            smoothed_optimal_probe(G, AW, 0.05, tight)

    def test_misaligned_grid_rejected(self):
        grid = MomentumGrid(-18.0, 18.0, 4097)
        with pytest.raises(ValueError):
            smoothed_optimal_probe(G, AW, 100.0, grid)


class TestPositionDensity:
    def test_gaussian_density(self):
        width = 1.0
        grid = recommended_gaussian_grid(G, width)
        probe = gaussian_probe(width, grid)
        positions, density = to_position_density(probe, -5.0, 5.0, 801)
        q_grid = MomentumGrid(-5.0, 5.0, 801)
        assert float(q_grid.integrate(density)) == pytest.approx(1.0, abs=1e-6)
        mean = float(q_grid.integrate(positions * density))
        assert mean == pytest.approx(0.0, abs=1e-8)
        # |psi(q)|^2 = sqrt(2/pi) W exp(-2 W^2 q^2)
        expected = math.sqrt(2.0 / math.pi) * width * np.exp(-2.0 * width**2 * positions**2)
        assert np.max(np.abs(density - expected)) < 1e-6

    def test_translation_shifts_density(self):
        width = 1.0
        grid = recommended_gaussian_grid(G, width)
        probe = gaussian_probe(width, grid)
        a = 0.7
        shifted = ProbeWavefunction.normalized(
            grid,
            probe.values * np.exp(-1j * a * grid.points),
            (probe.derivative - 1j * a * probe.values) * np.exp(-1j * a * grid.points),
        )
        base_q, base_density = to_position_density(probe, -5.0, 5.0, 401)
        shift_q, shift_density = to_position_density(shifted, -5.0 + a, 5.0 + a, 401)
        assert np.max(np.abs(shift_density - base_density)) < 1e-12

    def test_hard_support_tail_law(self):
        # A hard-support probe scatters O(1/L) of its density beyond |q| = L,
        # so the captured mass follows 1 - c/L; doubling L halves the deficit.
        probe = optimal_probe(G, 2.0, n_points=32769)
        deficits = []
        for half_width in (20.0, 40.0):
            n = int(round(2 * half_width / 0.05)) + 1
            positions, density = to_position_density(probe, -half_width, half_width, n)
            q_grid = MomentumGrid(-half_width, half_width, n)
            deficits.append(1.0 - float(q_grid.integrate(density)))
        assert deficits[0] > 1e-4  # genuinely missing mass, not quadrature noise
        assert deficits[0] / deficits[1] == pytest.approx(2.0, rel=0.15)


@pytest.mark.parametrize("n", [5, 7, 513])
def test_numeric_derivative_exact_on_quartics(n):
    # The stencils are fourth order, so p^k with k <= 4 differentiates exactly
    # at every point, the one-sided edge rows included, up to round-off.
    grid = MomentumGrid(-1.3, 2.1, n)
    p = grid.points
    for k in range(5):
        derivative = numeric_derivative(p**k, grid)
        # Stencil weights sum to 128/12 in magnitude; allow a few times the round-off.
        tolerance = 64.0 * np.finfo(float).eps * 2.1**k / grid.spacing
        np.testing.assert_allclose(derivative, k * p ** max(k - 1, 0), rtol=0, atol=tolerance)


def test_grid_budget_checked_before_allocation():
    with pytest.raises(GridTooLarge):
        MomentumGrid(-1.0, 1.0, MAX_GRID_POINTS + 1)
    with pytest.raises(GridTooLarge):
        MomentumGrid.for_support(G, recommended_support_points(1e-9 + 1j))
