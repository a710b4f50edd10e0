import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wva import (
    GridTooLarge,
    MomentumGrid,
    NodeSamples,
    ProbeWavefunction,
    QuadratureNodes,
    ScaleOutOfRange,
    UnderResolvedGrid,
    ZeroNorm,
    ZeroRealPart,
    evolution_factor,
    gaussian_probe,
    max_shift,
    numeric_derivative,
    optimal_initial_momentum,
    optimal_probe,
    position_amplitudes,
    recommended_support_points,
    smoothed_optimal_probe,
)
from wva.analytic import inverse_fourth_factor_integral, inverse_square_factor_integral
from wva.cli import format_number
from wva.evolution import PostSelectedEvolution, apply_postselection
from wva.expectation import shift_report
from wva.probe import (
    DENSE_SUM_MAX_TERMS,
    MAX_GRID_POINTS,
    _chirp_z_sum,
    _clenshaw_curtis,
    _theta_lines,
    _theta_row,
    support_nodes,
    theta_nodes,
)
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

    @settings(max_examples=60, deadline=None)
    @given(
        half_panels=st.integers(1, 20000),
        complex_samples=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(half_panels=1, complex_samples=False, seed=0)
    @example(half_panels=1, complex_samples=True, seed=0)
    @example(half_panels=2, complex_samples=False, seed=0)
    @example(half_panels=2, complex_samples=True, seed=0)
    def test_integrate_matches_weighted_sum(self, half_panels, complex_samples, seed):
        # n = 2 * half_panels + 1 runs over the odd counts 3..40,001.
        n = 2 * half_panels + 1
        grid = MomentumGrid(-3.0, 5.0, n)
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=n)
        if complex_samples:
            samples = samples + 1j * rng.normal(size=n)
        weights = np.full(n, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= grid.spacing / 3.0
        result = grid.integrate(samples)
        assert np.iscomplexobj(result) == complex_samples
        assert abs(result - weights @ samples) <= 1e-14 * np.sum(np.abs(weights * samples))

    def test_for_support(self):
        grid = MomentumGrid.for_support(G, 101)
        assert grid.p_max == pytest.approx(math.pi / (2.0 * G))
        grid3 = MomentumGrid.for_support(G, 101, extent=3)
        assert grid3.p_max == pytest.approx(3.0 * math.pi / (2.0 * G))


@pytest.mark.parametrize("extent", [0, -1, 1.5])
@pytest.mark.parametrize("n_points", [None, 101])
def test_support_extent_must_be_a_positive_integer(extent, n_points):
    # On theta nodes 0 once raised ZeroDivisionError, -1 a math domain error
    # and 1.5 a norm error; the p-grid took 1.5.
    with pytest.raises(ValueError, match="extent must be a positive integer"):
        optimal_probe(G, 2.0, n_points, extent=extent)
    if n_points is not None:
        with pytest.raises(ValueError, match="extent must be a positive integer"):
            MomentumGrid.for_support(G, n_points, extent)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda s: MomentumGrid.for_support(s),
        lambda s: optimal_probe(s, 2.0),
        lambda s: optimal_probe(s, 2.0, 4097),
        lambda s: gaussian_probe(G, s),
        lambda s: gaussian_probe(s, 1.0),
        lambda s: smoothed_optimal_probe(s, 2.0, 30.0),
        lambda s: smoothed_optimal_probe(G, 2.0, s),
    ],
    ids=["support coupling", "optimal coupling", "optimal grid coupling", "gaussian width",
         "gaussian coupling", "smoothed coupling", "smoothed smoothing"],
)
def test_scales_that_are_not_positive_are_refused(build, scale):
    # for_support and smoothed_optimal_probe once refused 0 and -1 as a
    # ValueError, and gaussian_probe its width, each before check_scale.
    # gaussian_probe once dropped a coupling of 0, -1 or NaN and returned a
    # 4,001-point probe.
    with pytest.raises(ScaleOutOfRange):
        build(scale)


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
    assert probe.weight == pytest.approx(1.0, abs=1e-12)


def test_normalized_refuses_a_weight_as_zero_only_against_the_samples_own_size():
    # Unit circle samples on the support of g = 1e12, as the ascent leaves
    # them, weigh pi / (512 g) = 6.1e-15: small, not zero.
    grid = MomentumGrid.for_support(1e12, 513)
    probe = ProbeWavefunction.normalized(grid, np.full(513, 512**-0.5 + 0j))
    assert probe.weight == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ZeroNorm):
        ProbeWavefunction.normalized(grid, np.zeros(513, dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.inf)], ids=["nan", "inf", "imag-inf"])
def test_wavefunction_rejects_non_finite_samples(bad):
    grid = MomentumGrid(-1.0, 1.0, 21)
    probe = ProbeWavefunction.normalized(grid, np.ones(21, dtype=complex))
    spoiled = probe.values.copy()
    spoiled[7] = bad
    with pytest.raises(ValueError, match="wavefunction values must be finite"):
        ProbeWavefunction(grid, spoiled)
    with pytest.raises(ValueError, match="wavefunction values must be finite"):
        ProbeWavefunction.normalized(grid, spoiled)
    derivative = np.zeros(21, dtype=complex)
    derivative[7] = bad
    with pytest.raises(ValueError, match="wavefunction derivative must be finite"):
        ProbeWavefunction(grid, probe.values, derivative)
    with pytest.raises(ValueError, match="wavefunction derivative must be finite"):
        ProbeWavefunction.normalized(grid, probe.values, derivative)


def test_probe_without_derivative_needs_a_momentum_grid():
    # The stencil runs once, at construction, and only on a uniform grid.
    source = optimal_probe(G, AW)
    with pytest.raises(ValueError, match="the stencil needs a MomentumGrid"):
        ProbeWavefunction(source.grid, source.values)
    grid = MomentumGrid(-1.0, 1.0, 21)
    probe = ProbeWavefunction.normalized(grid, np.exp(1j * grid.points))
    assert np.array_equal(probe.derivative, numeric_derivative(probe.values, grid))
    assert not probe.derivative.flags.writeable


class TestGaussianProbe:
    def test_normalized_on_grid(self):
        probe = gaussian_probe(G, 1.0)
        assert probe.weight == pytest.approx(1.0, abs=1e-10)

    def test_zero_means(self):
        probe = gaussian_probe(G, 1.0)
        grid = probe.grid
        mean_p = grid.integrate(grid.points * np.abs(probe.values) ** 2) / probe.weight
        assert mean_p == pytest.approx(0.0, abs=1e-10)
        assert NodeSamples(grid, probe.values, probe.derivative).means()[0] == pytest.approx(0.0, abs=1e-8)

    def test_width_scales_momentum_deviation(self):
        # Quadrature oracle for the second moment.
        def momentum_std(width):
            probe = gaussian_probe(G, width)
            grid = probe.grid
            return math.sqrt(
                float(grid.integrate(grid.points**2 * np.abs(probe.values) ** 2))
            )

        assert momentum_std(2.0) / momentum_std(1.0) == pytest.approx(2.0, abs=1e-8)

    def test_derivative_is_analytic(self):
        probe = gaussian_probe(G, 1.0, 2001)
        assert np.allclose(
            probe.derivative, -probe.grid.points / 2.0 * probe.values, atol=1e-14
        )


class TestOptimalProbe:
    def test_normalized(self):
        probe = optimal_probe(G, AW)
        assert probe.weight == pytest.approx(1.0, abs=1e-8)

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
        assert NodeSamples(probe.grid, probe.values, probe.derivative).means()[0] == pytest.approx(
            0.0, abs=1e-6
        )

    @pytest.mark.parametrize("value", [1.0 + 300.0j, 1e-4 + 1.0j, 1e-3 + 1.0j, 2.0 + 30.0j])
    def test_default_reports_the_closed_form_shift_beyond_the_p_grid_law(self, value):
        # |A|^2 / |Re A| outgrows a 4097-point p-grid at each of these A; there
        # the shift comes out as 9.635, 1952.5, 95.33 and 22.636, with no error.
        report = shift_report(PostSelectedEvolution(G, WeakValue.from_value(value)), optimal_probe(G, value))
        assert report.delta_q == pytest.approx(max_shift(G, value), rel=1e-12)

    @pytest.mark.parametrize("extent,n", [(1, 4097), (2, 8193), (3, 12289)])
    def test_extended_support_reproduces_shift(self, extent, n):
        evo = PostSelectedEvolution(G, WeakValue.from_value(AW))
        probe = optimal_probe(G, AW, n_points=n, extent=extent)
        report = shift_report(evo, probe)
        assert report.delta_q == pytest.approx(max_shift(G, AW), abs=1e-6)

    @pytest.mark.parametrize("intervals", [2, 4, 8])
    @pytest.mark.parametrize("value", [AW, 2.0, 1.0 + 30.0j, -0.36 + 0.13j, 1e-3 + 1.0j])
    def test_coarse_theta_rule_is_refused_by_its_certificate(self, monkeypatch, intervals, value):
        # The probe is built unchecked, and its norm check must not refuse a
        # coarse rule as a ValueError; the shift report's halving check
        # refuses it.
        monkeypatch.setattr("wva.probe.PANEL_INTERVALS", intervals)
        probe = optimal_probe(G, value, None)
        with pytest.raises(UnderResolvedGrid, match="the probe: on"):
            shift_report(PostSelectedEvolution(G, WeakValue.from_value(value)), probe)

    @settings(max_examples=60, deadline=None)
    @given(
        log_real=st.floats(-3.0, 1.5),
        log_imag=st.floats(-3.0, 1.5),
        signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
        coupling=st.sampled_from([0.1, 0.5, 2.0]),
        extent=st.integers(1, 4),
    )
    @example(log_real=-4.0, log_imag=-7.0, signs=(1.0, 1.0), coupling=G, extent=1)
    @example(log_real=-4.0, log_imag=math.log10(3e-6), signs=(-1.0, 1.0), coupling=G, extent=1)
    @example(log_real=-9.0, log_imag=0.0, signs=(1.0, 1.0), coupling=G, extent=1)
    @example(log_real=math.log10(2.05), log_imag=math.log10(0.06), signs=(-1.0, 1.0), coupling=G, extent=1)
    @example(log_real=-3.0, log_imag=-9.0, signs=(1.0, 1.0), coupling=G, extent=1)
    def test_theta_node_weight_is_one_to_rounding(self, log_real, log_imag, signs, coupling, extent):
        # The density times dp/dtheta is constant on every theta panel, and
        # Clenshaw-Curtis integrates constants exactly: whatever the rule, the
        # analytic amplitude weighs 1 up to the rounding of the sum.
        value = complex(signs[0] * 10.0**log_real, signs[1] * 10.0**log_imag)
        probe = optimal_probe(coupling, value, None, extent)
        assert abs(probe.weight - 1.0) <= 8.0 * np.finfo(float).eps


def _final_optimal_probe() -> ProbeWavefunction:
    """The post-selected p-grid optimal probe, normalized as a dump normalizes it."""
    initial = optimal_probe(G, AW, n_points=8193)
    evolved = apply_postselection(PostSelectedEvolution(G, WeakValue.from_value(AW)), initial)
    return ProbeWavefunction.normalized(initial.grid, evolved.values / math.sqrt(evolved.weight))


class TestFinalProbePosition:
    def test_parseval_of_series_coefficients(self):
        # The final state without its linear phase is flat on the support; its
        # coefficients on the orthonormal comb of spacing 2g are sqrt(2g) times
        # its position amplitudes at q = 2 g n, and only the zeroth survives.
        grid = MomentumGrid.for_support(G, 4097)
        flat = ProbeWavefunction.normalized(grid, np.ones(grid.n_points, dtype=complex))
        coefficients = math.sqrt(2.0 * G) * position_amplitudes(flat, 2.0 * G * np.arange(-12, 13))
        total = float(np.sum(np.abs(coefficients) ** 2))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_peak_sample_nearest_final_mean(self):
        positions = 2.0 * G * np.arange(-16, 17)
        values = position_amplitudes(_final_optimal_probe(), positions)
        shift = max_shift(G, AW)
        peak = positions[int(np.argmax(np.abs(values)))]
        nearest = positions[int(np.argmin(np.abs(positions - shift)))]
        assert peak == nearest

    def test_values_match_quadrature(self):
        # The direct Fourier integral of the post-selected p-grid optimal
        # probe against its closed form, the shifted Dirichlet kernel (np.sinc
        # handles the removable singularity at the mean final position).
        positions = 2.0 * G * np.arange(-8, 9)
        quad = position_amplitudes(_final_optimal_probe(), positions)
        closed = np.sinc((positions - max_shift(G, AW)) / (2.0 * G)) / math.sqrt(2.0 * G)
        assert np.max(np.abs(quad - closed)) < 1e-8


class TestSmoothedProbe:
    def test_continuous_at_support_edges(self):
        smoothing = 20.0
        probe = smoothed_optimal_probe(G, AW, smoothing)
        grid = probe.grid
        half = math.pi / (2.0 * G)
        i_left = int(round((-half - grid.p_min) / grid.spacing))
        i_right = int(round((half - grid.p_min) / grid.spacing))
        # closed-form interior values at the edges
        edge = optimal_probe(G, AW, n_points=4097)
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
            probe = smoothed_optimal_probe(G, AW, smoothing, 4097)
            grid = probe.grid
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
        probe = smoothed_optimal_probe(G, AW, 100.0)
        report = shift_report(evo, probe)
        assert report.delta_q == pytest.approx(0.461736912436021, abs=1e-9)
        # within a fraction of a percent of the hard-support maximum
        assert abs(report.delta_q - max_shift(G, AW)) / max_shift(G, AW) < 5e-4

    @pytest.mark.parametrize(
        "value, printed", [(1.0 + 30.0j, "45.0521985138"), (1e-3 + 1.0j, "99.8940564664")]
    )
    def test_default_grid_reports_the_cli_shift(self, value, printed):
        # A 4,097-point interior gave 44.997 and 106.392 here with no error;
        # the count now comes from the weak value, as in the CLI.
        probe = smoothed_optimal_probe(G, value, 30.0)
        report = shift_report(PostSelectedEvolution(G, WeakValue.from_value(value)), probe)
        assert format_number(report.delta_q) == printed

    def test_kinks_sit_on_even_indices(self):
        half = math.pi / (2.0 * G)
        for smoothing, n_points in ((20.0, None), (20.0, 1024), (0.5, 3), (1e3, 513)):
            grid = smoothed_optimal_probe(G, AW, smoothing, n_points).grid
            for edge in (-half, half):
                position = (edge - grid.p_min) / grid.spacing
                index = round(position)
                assert abs(position - index) < 1e-6 and index % 2 == 0
                assert 2 <= index <= grid.n_points - 3


def _dense_sum(q, grid, weighted):
    """The direct sum the chirp-z transform replaces: one exponential per (q, p) pair."""
    return np.exp(1j * np.outer(q, grid.points)) @ weighted


odd_counts = st.integers(1, 2728).map(lambda k: 2 * k + 1)  # 3 .. 5,457 momenta


class TestChirpZ:
    @settings(max_examples=40, deadline=None)
    @given(
        q0=st.floats(-20.0, 20.0),
        span=st.floats(0.01, 40.0),
        n_q=st.integers(2, 801),
        p_min=st.floats(-60.0, -0.5),
        p_max=st.floats(0.5, 60.0),
        n_p=odd_counts,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_sum_on_uniform_positions(self, q0, span, n_q, p_min, p_max, n_p, seed):
        # Ascending grids, with or without zero inside, from two points up.
        grid = MomentumGrid(p_min, p_max, n_p)
        rng = np.random.default_rng(seed)
        weighted = grid.weights * (rng.normal(size=n_p) + 1j * rng.normal(size=n_p))
        q = np.linspace(q0, q0 + span, n_q)
        step = (q[-1] - q[0]) / (n_q - 1)
        dense = _dense_sum(q, grid, weighted)
        fast = _chirp_z_sum(q[0], step, n_q, grid, weighted)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))

    @settings(max_examples=20, deadline=None)
    @given(
        coupling=st.floats(0.05, 1.0),
        aw_re=st.floats(0.5, 4.0),
        aw_im=st.floats(-4.0, 4.0),
        n_range=st.integers(1, 400),
        n_p=odd_counts,
    )
    def test_matches_dense_sum_on_the_comb(self, coupling, aw_re, aw_im, n_range, n_p):
        probe = optimal_probe(coupling, complex(aw_re, aw_im), n_points=n_p)
        weighted = probe.grid.weights * probe.values
        q = 2.0 * coupling * np.arange(-n_range, n_range + 1)
        dense = _dense_sum(q, probe.grid, weighted)
        fast = _chirp_z_sum(q[0], 2.0 * coupling, q.size, probe.grid, weighted)
        assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_non_uniform_positions_take_the_dense_sum(self):
        probe = optimal_probe(G, AW, n_points=4097)
        q = np.linspace(-20.0, 20.0, 801)
        q[400] += 0.05  # one position off the uniform spacing
        assert q.size * probe.grid.n_points > DENSE_SUM_MAX_TERMS
        dense = _dense_sum(q, probe.grid, probe.grid.weights * probe.values)
        amplitudes = position_amplitudes(probe, q) * math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(amplitudes - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_large_transform_memory(self):
        # A dense 801 x 40,001 sum holds one 99-row chunk of exponentials
        # (over 120 MiB); the chirp-z transform needs a few length-65,536 arrays.
        probe = gaussian_probe(G, 1.0, 40001)
        positions = np.linspace(-8.0, 8.0, 801)
        probe.grid.weights, probe.grid.points  # cached before tracing
        tracemalloc.start()
        try:
            amplitudes = position_amplitudes(probe, positions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        weighted = probe.grid.weights * probe.values
        dense = _dense_sum(positions[::40], probe.grid, weighted) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(amplitudes[::40] - dense)) <= 1e-12 * np.max(np.abs(dense))


def _position_density(probe, q_min, q_max, n_points):
    """Uniform positions from q_min to q_max and |psi(q)|^2 at them."""
    positions = np.linspace(q_min, q_max, n_points)
    return positions, np.abs(position_amplitudes(probe, positions)) ** 2


class TestPositionDensity:
    def test_gaussian_density(self):
        width = 1.0
        probe = gaussian_probe(G, width)
        positions, density = _position_density(probe, -5.0, 5.0, 801)
        q_grid = MomentumGrid(-5.0, 5.0, 801)
        assert float(q_grid.integrate(density)) == pytest.approx(1.0, abs=1e-6)
        mean = float(q_grid.integrate(positions * density))
        assert mean == pytest.approx(0.0, abs=1e-8)
        # |psi(q)|^2 = sqrt(2/pi) W exp(-2 W^2 q^2)
        expected = math.sqrt(2.0 / math.pi) * width * np.exp(-2.0 * width**2 * positions**2)
        assert np.max(np.abs(density - expected)) < 1e-6

    def test_translation_shifts_density(self):
        width = 1.0
        probe = gaussian_probe(G, width)
        grid = probe.grid
        a = 0.7
        shifted = ProbeWavefunction.normalized(
            grid,
            probe.values * np.exp(-1j * a * grid.points),
            (probe.derivative - 1j * a * probe.values) * np.exp(-1j * a * grid.points),
        )
        base_q, base_density = _position_density(probe, -5.0, 5.0, 401)
        shift_q, shift_density = _position_density(shifted, -5.0 + a, 5.0 + a, 401)
        assert np.max(np.abs(shift_density - base_density)) < 1e-12

    def test_hard_support_tail_law(self):
        # A hard-support probe scatters O(1/L) of its density beyond |q| = L,
        # so the captured mass follows 1 - c/L; doubling L halves the deficit.
        probe = optimal_probe(G, 2.0, n_points=32769)
        deficits = []
        for half_width in (20.0, 40.0):
            n = int(round(2 * half_width / 0.05)) + 1
            positions, density = _position_density(probe, -half_width, half_width, n)
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


class TestNodeSets:
    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_clenshaw_curtis_is_exact_to_its_degree(self, n):
        # n intervals integrate polynomials of degree n exactly; the nested
        # rule on n/2 intervals those of degree n/2, so the halving estimate
        # vanishes there.  Simpson on a MomentumGrid of the same n + 1 points
        # and its nested rule on the even-index points both integrate cubics
        # exactly.
        half = math.pi / (2.0 * G)
        rules = ((support_nodes(G, 1, n), n, n // 2), (MomentumGrid.for_support(G, n + 1), 3, 3))
        for nodes, degree, nested in rules:
            x = nodes.points / half
            assert nodes.points[0] == -half and nodes.points[-1] == half
            for k in range(degree + 1):
                exact = half * (1.0 - (-1.0) ** (k + 1)) / (k + 1)
                assert float(nodes.integrate(x**k)) == pytest.approx(exact, abs=1e-13 * half)
                if k <= nested:
                    assert nodes.halving_error(x**k) <= 1e-13 * half
            runge = 1.0 / (1.0 + 25.0 * x**2)  # unresolved on 16 intervals
            assert (nodes.halving_error(runge) > 1e-4 * half) == (n == 16)

    @settings(max_examples=60, deadline=None)
    @given(
        log_real=st.floats(-3.0, 3.0),
        imag=st.floats(-1e3, 1e3),
        extent=st.integers(1, 4),
        coupling=st.floats(1e-3, 10.0),
        width=st.floats(1e-2, 1e2),
        n=st.integers(1, 2000).map(lambda k: 2 * k + 1),
    )
    def test_recommended_counts_have_a_nested_rule(self, log_real, imag, extent, coupling, width, n):
        assert recommended_support_points(complex(10.0**log_real, imag), extent) % 4 == 1
        grid = gaussian_probe(coupling, width).grid
        assert grid.n_points % 4 == 1 and grid.n_points >= 4001
        assert grid.spacing <= min(width / 80.0, 0.022 / coupling) * (1.0 + 1e-12)
        assert gaussian_probe(coupling, width, n).grid == MomentumGrid(-7.5 * width, 7.5 * width, n)

    @pytest.mark.parametrize("extent", [1, 2, 3])
    @pytest.mark.parametrize("value", [AW, 2.0 + 30.0j, 1e-3 + 1.0j, -1.5 + 2.0j, 5.0])
    def test_theta_nodes_map_onto_the_support(self, extent, value):
        nodes, factor, _ = theta_nodes(G, [_theta_row(G, value, extent, 64)], extent, 64)
        half = extent * math.pi / (2.0 * G)
        assert np.all(np.abs(nodes.points) <= half * (1.0 + 1e-15))
        assert nodes.points.min() == pytest.approx(-half) and nodes.points.max() == pytest.approx(half)
        # B from theta is B(p) at the mapped momenta.
        np.testing.assert_allclose(factor, evolution_factor(G, value, nodes.points), rtol=1e-9, atol=1e-12)
        # The optimal density is uniform in theta, so |B|^-2 integrates exactly;
        # |B|^-4 is a trigonometric polynomial of degree 2 in theta.
        density = 1.0 / np.abs(factor) ** 2
        assert float(nodes.integrate(density)) == pytest.approx(
            extent * inverse_square_factor_integral(G, value), rel=1e-13
        )
        assert float(nodes.integrate(density**2)) == pytest.approx(
            extent * inverse_fourth_factor_integral(G, value), rel=1e-12
        )

    @pytest.mark.parametrize("extent", [1, 2, 3, 4])
    def test_theta_lines_are_those_of_a_loop_over_rows_periods_and_panels(self, extent):
        rng = np.random.default_rng(extent)
        values = rng.choice([-1, 1], 7) * 10 ** rng.uniform(-3, 2, 7) + 1j * rng.uniform(-30, 30, 7)
        rows = [_theta_row(G, value, extent) for value in [*values, 1.0, -1.0]]
        lines = []
        for row in rows:
            sign = math.copysign(1.0, row.aw.real)
            for period in range(extent):
                turns = period - 0.5 * (extent - 1)
                for left, right in zip(row.cuts[:-1], row.cuts[1:]):
                    half = 0.0 if extent % 2 else (-0.5 if left < 0.0 else 0.5)
                    lines.append((abs(row.aw.real), sign * row.aw.imag, sign, left, right, turns + half))
        table, panels = _theta_lines(rows, extent)
        assert table.tobytes() == np.array(lines).T.tobytes()
        assert panels == [extent * (len(row.cuts) - 1) for row in rows]

    def test_default_optimal_probe_lives_on_theta_nodes(self):
        probe = optimal_probe(G, AW)
        assert isinstance(probe.grid, QuadratureNodes)
        assert probe.grid.n_points <= 257
        # The analytic amplitude is normalized on the nodes without rescaling.
        assert probe.weight == pytest.approx(1.0, abs=1e-14)
        view = probe.evolution_view
        assert isinstance(view.grid, QuadratureNodes) and view.grid.n_points == 17
        assert isinstance(optimal_probe(G, AW, 4097).grid, MomentumGrid)  # an explicit count keeps its p-grid

    def test_node_budget_is_checked_before_allocation(self):
        with pytest.raises(GridTooLarge):
            optimal_probe(G, 2.0, None, extent=10**8)

    def test_unit_weak_values_need_one_panel(self):
        # B(p) = exp(-/+ igp) at A = +/-1: arg B is linear in theta, so the
        # window is one panel of 32 intervals.
        for value in (1.0, -1.0):
            probe = optimal_probe(G, value, None)
            assert probe.grid.n_points == 33
            report = shift_report(PostSelectedEvolution(G, WeakValue(value, 1.0)), probe)
            assert report.delta_q == pytest.approx(max_shift(G, value), rel=1e-12)

    @pytest.mark.parametrize(
        "value, n_points",
        [
            (2.0, 99),  # theta* = pi/2 - i atanh(1/2): one cut pi/8 from each window end
            (30.0, 165),
            (1000.0, 297),
            (-1000.0, 297),
            (AW, 198),
            (2.0 + 30.0j, 330),
            (1.0 + 300.0j, 462),
        ],
    )
    def test_panels_grade_logarithmically_toward_the_singularity(self, value, n_points):
        # A cut every factor 8 from pi down to 2 |Im theta*|, about a / |A|^2
        # for large |A|: the node count grows like log |A|, not like |A|^2.
        probe = optimal_probe(G, value, None)
        assert probe.grid.n_points == n_points
        report = shift_report(PostSelectedEvolution(G, WeakValue.from_value(value)), probe)
        assert report.delta_q == pytest.approx(max_shift(G, value), rel=1e-12)
        assert report.delta_p == pytest.approx(-optimal_initial_momentum(G, value), abs=1e-12 * math.pi / (2 * G))

    @pytest.mark.parametrize("value", [1e-9 + 1.0j, 1e-12 + 1.0j, 1e-4 + 1e-10j, -1e-4 + 1e-10j])
    def test_singularity_inside_the_window_is_resolved(self, value):
        # Once refused: at |A| near 1 the steep step of p(theta) sits a/2 from
        # a window end, split by it; at |A| < 1 it sits mid window.
        report = shift_report(PostSelectedEvolution(G, WeakValue.from_value(value)), optimal_probe(G, value, None))
        assert report.delta_q == pytest.approx(max_shift(G, value), rel=1e-12)
        assert report.delta_p == pytest.approx(-optimal_initial_momentum(G, value), abs=1e-12 * math.pi / (2 * G))

    def test_unresolved_rule_is_refused(self, monkeypatch):
        probe = optimal_probe(G, AW, None)
        monkeypatch.setattr("wva.probe.HALVING_TOL", 1e-30)
        with pytest.raises(UnderResolvedGrid, match=f"the probe: on {probe.grid.n_points} nodes"):
            shift_report(PostSelectedEvolution(G, WeakValue.from_value(AW)), probe)

    def test_scales_outside_double_range_are_refused(self):
        with pytest.raises(ScaleOutOfRange):
            optimal_probe(1e-300, 2.0, None)
        with pytest.raises(ScaleOutOfRange):
            optimal_probe(1e-300, 2.0, 4097)
        for width in (1e-300, 1e-160, 1e120):
            with pytest.raises(ScaleOutOfRange):
                gaussian_probe(G, width)


def _seeded_cases():
    """(g, A, extent): hard and once-refused cases at extent 1, A = +/-1 and
    2, and 200 seeded draws over extents 1-4."""
    rng = np.random.default_rng(14)
    named = [2.0 + 30.0j, 1.0 + 300.0j, -1.05 + 217.0j, 1e-9 + 1.0j, 1e-4 + 1e-10j, -1e-4 + 1e-10j]
    cases = [(G, value, 1) for value in named + [1.0, -1.0, 2.0, AW]]
    for k in range(200):
        real = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.5)
        imag = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.5)
        cases.append(((0.1, 0.5, 2.0)[k % 3], complex(real, imag), 1 + k % 4))
    return cases


class TestThetaPanels:
    def test_seeded_cases_meet_the_closed_forms(self):
        for coupling, value, extent in _seeded_cases():
            weak = WeakValue.from_value(value)
            probe = optimal_probe(coupling, value, None, extent)
            report = shift_report(PostSelectedEvolution(coupling, weak), probe)
            case = (coupling, value, extent)
            assert report.delta_q == pytest.approx(max_shift(coupling, value), rel=1e-12), case
            assert report.weight == pytest.approx(abs(value.real), rel=1e-12), case
            expected = optimal_initial_momentum(coupling, value, extent)
            assert report.p_initial == pytest.approx(expected, abs=1e-12 * math.pi / (2 * coupling)), case

    def test_node_budget_counts_every_panel(self, monkeypatch):
        # Every panel is evaluated at 32 intervals: one panel fits in 40
        # nodes, the three of A = 2 do not.
        monkeypatch.setattr("wva.probe.MAX_GRID_POINTS", 40)
        assert optimal_probe(2.0 * G, 1.0, None).grid.n_points == 33
        with pytest.raises(GridTooLarge, match="99 quadrature nodes exceed the budget 40"):
            optimal_probe(2.0 * G, 2.0, None)

    def test_cached_node_sets_are_read_only(self):
        nodes = support_nodes(G, 1, 16)
        assert support_nodes(G, 1, 16) is nodes
        arrays = [nodes.points, nodes.weights, nodes.coarse_weights]
        for n in (16, 32, 64):
            arrays += _clenshaw_curtis(n)
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("n", [16 << k for k in range(12)])
    def test_even_index_nodes_are_the_half_rule_bitwise(self, n):
        assert np.array_equal(_clenshaw_curtis(2 * n)[0][::2], _clenshaw_curtis(n)[0])
