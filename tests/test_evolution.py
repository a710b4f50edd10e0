import math

import numpy as np
import pytest

from wva import (
    PostSelectedEvolution,
    WeakValue,
    apply_postselection,
    evolution_factor,
    gaussian_probe,
    gaussian_exact_shifts,
    max_shift,
    optimal_probe,
)

G = 0.1
AW = math.sqrt(3) + 2.0 * math.sqrt(3) * 1j


def make_evo(coupling=G, value=AW, overlap=None):
    if overlap is None:
        return PostSelectedEvolution(coupling, WeakValue.from_value(value))
    return PostSelectedEvolution(coupling, WeakValue(complex(value), complex(overlap)))


def factor(evo, p):
    return evolution_factor(evo.coupling, evo.weak.value, p)


class TestFactor:
    def test_identity_at_zero(self):
        assert factor(make_evo(), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_period_imaginary_weak_value(self):
        # cos(pi/2) - i * i * sin(pi/2) = 1 (direct evaluation)
        evo = PostSelectedEvolution(G, WeakValue(1j, 1.0 + 0j))
        value = factor(evo, math.pi / (2.0 * G))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_periodicity(self):
        evo = make_evo()
        p = np.linspace(-3.0, 3.0, 17)
        assert np.allclose(factor(evo, p + 2.0 * math.pi / G), factor(evo, p), atol=1e-10)

    def test_density_positive_for_real_part(self):
        rng = np.random.default_rng(4)
        p = np.linspace(-math.pi / (2 * G), math.pi / (2 * G), 4001)
        for _ in range(25):
            value = complex(rng.uniform(0.05, 5.0) * rng.choice([-1, 1]), rng.uniform(-5, 5))
            evo = make_evo(value=value)
            assert np.min(np.abs(factor(evo, p)) ** 2) > 0.0

    def test_coupling_must_be_positive(self):
        with pytest.raises(ValueError):
            PostSelectedEvolution(0.0, WeakValue.from_value(1.0))


class TestApplyPostselection:
    def test_eigenstate_weak_value_is_pure_translation(self):
        # A = 1 gives |factor| = 1: the weight is the selection probability
        # and moduli are preserved pointwise.
        overlap = 0.6 - 0.3j
        evo = make_evo(value=1.0, overlap=overlap)
        probe = gaussian_probe(G, 1.0)
        evolved = apply_postselection(evo, probe)
        assert evolved.weight == pytest.approx(abs(overlap) ** 2, abs=1e-10)
        assert np.allclose(
            np.abs(evolved.values), abs(overlap) * np.abs(probe.values), atol=1e-12
        )

    def test_optimal_probe_flattens(self):
        evo = make_evo()
        probe = optimal_probe(G, AW)
        evolved = apply_postselection(evo, probe)
        density = np.abs(evolved.values) ** 2
        assert np.max(density) - np.min(density) < 1e-12 * np.max(density) + 1e-15

    def test_p_grid_optimal_probe_ends_flat_with_phase_slope_minus_max_shift(self):
        # The post-selected optimal probe, normalized, is the flat final state
        # sqrt(g/pi) exp(-i max_shift p) pointwise; max_shift = 0.461880215352.
        probe = optimal_probe(G, AW, n_points=4097)
        evolved = apply_postselection(make_evo(), probe)
        final = evolved.values / math.sqrt(evolved.weight)
        p = probe.grid.points
        assert np.allclose(np.abs(final) ** 2, G / math.pi, rtol=0, atol=1e-10)
        slope = np.polyfit(p, np.unwrap(np.angle(final)), 1)[0]
        assert slope == pytest.approx(-0.461880215352, abs=1e-9)
        flat = math.sqrt(G / math.pi) * np.exp(-1j * max_shift(G, AW) * p)
        assert np.max(np.abs(final - flat)) < 1e-10

    def test_gaussian_weight_matches_backaction_denominator(self):
        overlap = 0.5 + 0.2j
        evo = make_evo(overlap=overlap)
        width = 1.0
        probe = gaussian_probe(G, width)
        evolved = apply_postselection(evo, probe)
        denominator = gaussian_exact_shifts(G, width, AW).denominator
        assert evolved.weight == pytest.approx(
            abs(overlap) ** 2 * denominator, rel=1e-10
        )

    def test_pointwise_ratio_is_exact(self):
        evo = make_evo(overlap=0.8 + 0.1j)
        probe = gaussian_probe(G, 1.0)
        evolved = apply_postselection(evo, probe)
        expected = evo.weak.overlap * factor(evo, probe.grid.points) * probe.values
        assert np.array_equal(evolved.values, expected)
