import math

import numpy as np
import pytest

from wva import (
    MomentumGrid,
    PostSelectedEvolution,
    WeakValue,
    ZeroRealPart,
    evolution_factor,
    evolution_factor_and_derivative,
    extrapolate_orthogonality_limit,
    gaussian_exact_shifts,
    gaussian_probe,
    inverse_fourth_factor_integral,
    inverse_square_factor_integral,
    max_shift,
    optimal_initial_momentum,
    optimal_probe,
    recommended_gaussian_grid,
    recommended_support_points,
    shift_lower_bound,
    shift_report,
)

G = 0.1
AW = math.sqrt(3) + 2.0 * math.sqrt(3) * 1j


class TestGaussianExactShifts:
    def test_unimodular_weak_value(self):
        value = complex(math.cos(1.1), math.sin(1.1))
        prediction = gaussian_exact_shifts(G, 1.0, value)
        assert prediction.denominator == pytest.approx(1.0, abs=1e-14)
        assert prediction.delta_q == pytest.approx(G * value.real, abs=1e-14)

    def test_frozen_reference_point(self):
        # 0.2 / (1 + 0.5 (1 - 4)(e^{-0.02} - 1)) evaluated independently:
        damping = math.exp(-0.02)
        denominator = 1.0 + 0.5 * (1.0 - 4.0) * (damping - 1.0)
        prediction = gaussian_exact_shifts(0.1, 1.0, 2.0)
        assert prediction.delta_q == pytest.approx(0.2 / denominator, abs=1e-15)
        assert prediction.delta_q == pytest.approx(0.194230954134853, abs=1e-12)

    def test_narrow_width_recovers_weak_regime(self):
        prediction = gaussian_exact_shifts(G, 1e-9, AW)
        assert prediction.delta_q == pytest.approx(G * AW.real, rel=1e-12)

    def test_denominator_positive_for_amplifying_weak_values(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            value = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(value) < 1.0:
                continue
            coupling = rng.uniform(0.01, 1.0)
            width = rng.uniform(0.2, 8.0)
            assert gaussian_exact_shifts(coupling, width, value).denominator > 0.0

    def test_denominator_bounded_below(self):
        # 1 + (1 - |A|^2)(e^{-2 g^2 W^2} - 1)/2 exceeds 1/2 for every real
        # coupling and width, so the degenerate guard is purely defensive.
        rng = np.random.default_rng(17)
        for _ in range(300):
            value = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            coupling = rng.uniform(1e-3, 2.0)
            width = rng.uniform(0.05, 10.0)
            assert gaussian_exact_shifts(coupling, width, value).denominator > 0.5


class TestMaxShift:
    def test_projective_floor(self):
        assert max_shift(G, 1.0) == G

    def test_reference_point(self):
        # 0.1 (15 + 1) / (2 sqrt 3), from the amplification target parameters.
        assert max_shift(G, AW) == pytest.approx(0.461880215352, abs=1e-12)

    def test_linear_in_coupling(self):
        assert max_shift(2.0 * G, AW) == pytest.approx(2.0 * max_shift(G, AW), rel=1e-14)

    def test_rejects_imaginary_weak_value(self):
        with pytest.raises(ZeroRealPart):
            max_shift(G, 3j)


class TestShiftLowerBound:
    def test_tight_at_unit_real_weak_value(self):
        assert shift_lower_bound(G, 1.0) == G
        assert abs(max_shift(G, 1.0)) == G
        assert shift_lower_bound(G, -1.0) == G
        assert abs(max_shift(G, -1.0)) == G

    def test_reference_point(self):
        assert shift_lower_bound(G, AW) == pytest.approx(0.1 * math.sqrt(13.0), abs=1e-12)
        assert shift_lower_bound(G, AW) <= abs(max_shift(G, AW))

    def test_chain_on_random_weak_values(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            value = complex(
                rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0]), rng.uniform(-5.0, 5.0)
            )
            bound = shift_lower_bound(G, value)
            assert abs(max_shift(G, value)) >= bound - 1e-12
            assert bound >= G - 1e-15


class TestFactorIntegrals:
    def test_unit_weak_value(self):
        assert inverse_square_factor_integral(G, 1.0) == pytest.approx(
            math.pi / G, rel=1e-14
        )
        assert inverse_fourth_factor_integral(G, 1.0) == pytest.approx(
            math.pi / G, rel=1e-14
        )

    def test_depends_only_on_absolute_real_part(self):
        assert inverse_square_factor_integral(G, 1.5 + 2.0j) == pytest.approx(
            inverse_square_factor_integral(G, -1.5 + 0.7j), rel=1e-14
        )

    def test_real_weak_value_fourth_power(self):
        r = 2.0
        expected = (r**2 + 1.0) / (2.0 * r**2) * math.pi / (G * r)
        assert inverse_fourth_factor_integral(G, r) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("value", [1.0 + 0j, 2.0 + 0j, 1.0 + 1.0j, AW])
    def test_quadrature_agreement(self, value):
        grid = MomentumGrid.for_support(G, 4097)
        density = np.abs(evolution_factor(G, value, grid.points)) ** 2
        quad_sq = float(grid.integrate(1.0 / density))
        quad_fourth = float(grid.integrate(1.0 / density**2))
        assert quad_sq == pytest.approx(inverse_square_factor_integral(G, value), rel=1e-8)
        assert quad_fourth == pytest.approx(
            inverse_fourth_factor_integral(G, value), rel=1e-7
        )


def test_orthogonality_extrapolation_fits_the_five_smallest_overlaps():
    # Exact line 0.05 + 2 |overlap| on the five smallest overlaps; the
    # samples beyond them lie far off it and must not move the intercept.
    near = [(x, 0.05 + 2.0 * x) for x in (1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2)]
    far = [(x, 10.0) for x in (0.1, 0.2, 0.4)]
    assert extrapolate_orthogonality_limit(far + near) == pytest.approx(0.05, abs=1e-12)


class TestClosedFormsAgainstPipeline:
    @pytest.mark.parametrize("coupling", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("real", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("imag", [-5.0, 0.0, 2.0])
    def test_max_shift_matches_optimal_probe_pipeline(self, coupling, real, imag):
        value = complex(real, imag)
        evo = PostSelectedEvolution(coupling, WeakValue.from_value(value))
        probe = optimal_probe(coupling, value, recommended_support_points(value))
        report = shift_report(evo, probe)
        assert report.delta_q == pytest.approx(max_shift(coupling, value), rel=1e-6)

    @pytest.mark.parametrize("coupling", [0.05, 0.5])
    @pytest.mark.parametrize("width", [0.5, 2.0])
    def test_gaussian_shifts_match_pipeline(self, coupling, width):
        value = 1.0 + 1.0j
        probe = gaussian_probe(width, recommended_gaussian_grid(coupling, width))
        evo = PostSelectedEvolution(coupling, WeakValue.from_value(value))
        report = shift_report(evo, probe)
        prediction = gaussian_exact_shifts(coupling, width, value)
        assert report.delta_q == pytest.approx(prediction.delta_q, rel=1e-6)
        assert report.delta_p == pytest.approx(prediction.delta_p, rel=1e-6, abs=1e-12)

    def test_normalization_identity(self):
        # 1 / (inverse-square integral) equals g |Re A| / pi.
        for value in (1.0 + 0j, AW, -0.7 + 2.0j):
            assert 1.0 / inverse_square_factor_integral(G, value) == pytest.approx(
                G * abs(complex(value).real) / math.pi, rel=1e-14
            )


class TestStationarity:
    def test_final_position_is_second_order_flat_at_optimum(self):
        # The variational functional (final mean position) changes only at
        # second order under random smooth perturbations of the closed-form
        # probe: log-log slope 2 across three decades.
        from wva import AscentCore, periodic_representative

        probe = optimal_probe(G, AW, n_points=4097)
        core = AscentCore(probe.grid, PostSelectedEvolution(G, WeakValue.from_value(AW)))
        x = periodic_representative(probe)
        base = core.value_and_gradient(x)[0]

        rng = np.random.default_rng(9)
        n = x.size
        bump = np.zeros(n, dtype=complex)
        for m in rng.integers(-60, 61, size=12):
            bump += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(
                2j * math.pi * m * np.arange(n) / n
            )
        bump /= np.linalg.norm(bump) / np.linalg.norm(x)

        epsilons = (1e-2, 1e-3, 1e-4)
        changes = [
            abs(core.value_and_gradient(x + eps * bump)[0] - base)
            for eps in epsilons
        ]
        slope = np.polyfit(np.log(epsilons), np.log(changes), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("value", [AW, 2.0 + 30.0j, -0.5 + 0.25j])
def test_factor_and_derivative_equal_the_separate_views(value):
    grids = (MomentumGrid.for_support(G, 4097), recommended_gaussian_grid(G, 1.0))
    for grid in grids:
        factor, derivative = evolution_factor_and_derivative(G, value, grid.points)
        gp = G * grid.points  # the two factors as written before they shared one cos/sin
        assert np.array_equal(factor, evolution_factor(G, value, grid.points))
        assert np.array_equal(factor, np.cos(gp) - 1j * value * np.sin(gp))
        assert np.array_equal(derivative, G * (-np.sin(gp) - 1j * value * np.cos(gp)))


def _simpson_mean_momentum(coupling, value, extent, n_points):
    grid = MomentumGrid.for_support(coupling, n_points, extent)
    density = 1.0 / np.abs(evolution_factor(coupling, value, grid.points)) ** 2
    return float(grid.integrate(grid.points * density)) / float(grid.integrate(density))


@pytest.mark.parametrize(
    "value, n_points",
    [(AW, 8193), (2.0 + 30.0j, 36161), (1e-3 + 1.0j, 400001), (-1.5 + 2.0j, 8193)],
)
def test_optimal_initial_momentum_matches_p_grid(value, n_points):
    oracle = optimal_initial_momentum(G, value)
    assert _simpson_mean_momentum(G, value, 1, n_points) == pytest.approx(oracle, abs=1e-13)
    # Odd extents repeat the central period symmetrically; an even one ends
    # in half periods, and its mean moves by atan(Im A / |Re A|) / g.
    assert _simpson_mean_momentum(G, value, 3, 3 * n_points - 2) == pytest.approx(oracle, abs=1e-12)
    even = _simpson_mean_momentum(G, value, 2, 2 * n_points - 1)
    assert abs(even - oracle) > 1.0
    assert even == pytest.approx(optimal_initial_momentum(G, value, 2), abs=1e-10)


def test_optimal_initial_momentum_of_a_real_weak_value_is_zero():
    assert optimal_initial_momentum(G, 2.0) == 0.0
    assert optimal_initial_momentum(G, -7.0) == 0.0
    assert optimal_initial_momentum(G, 2.0, 2) == 0.0
