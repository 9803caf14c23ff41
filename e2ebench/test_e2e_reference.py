"""Tests of the benchmark's own reference computations (numpy only)."""

import math

import numpy as np
import pytest

import layers
import reference
from workloads import ic_overrides


def single_vortex(t, s, omega, eps, dA):
    """Closed-form velocity of one regularized vortex element."""
    d = np.subtract(t, s)
    return dA / (4 * math.pi) * np.cross(omega, d) / (d @ d + eps * eps) ** 1.5


def test_direct_sum_matches_single_vortex():
    t = np.array([[1.0, 0.0, 0.0]])
    s = np.array([[0.0, 0.0, 0.0]])
    omega = np.array([[0.0, 0.0, 2.0]])
    got = reference.br_direct_sum(t, s, omega, eps=0.5, dA=0.3)
    # w x (t - s) = (0, 2, 0); |t - s|^2 + eps^2 = 1.25.
    expected = np.array([0.0, 0.3 / (4 * math.pi) * 2.0 / 1.25 ** 1.5, 0.0])
    np.testing.assert_allclose(got[0], expected, rtol=1e-15, atol=0)


def test_direct_sum_is_superposition_of_single_vortices():
    rng = np.random.default_rng(3)
    t, s, omega = (rng.standard_normal((n, 3)) for n in (5, 7, 7))
    got = reference.br_direct_sum(t, s, omega, eps=0.1, dA=0.02, chunk=2)
    expected = [
        sum(single_vortex(ti, sj, wj, 0.1, 0.02) for sj, wj in zip(s, omega))
        for ti in t
    ]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_self_interaction_vanishes():
    p = np.array([[0.3, -0.2, 0.1]])
    got = reference.br_direct_sum(p, p, np.array([[1.0, 2.0, 3.0]]), 0.1, 1.0)
    assert np.all(got == 0.0)


def test_cutoff_mask_is_inclusive_and_drops_far_sources():
    t = np.zeros((1, 3))
    s = np.array([[1.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    omega = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    masked = reference.br_direct_sum(t, s, omega, 0.2, 1.0, cutoff=1.0)
    near_only = reference.br_direct_sum(t, s[:1], omega[:1], 0.2, 1.0)
    np.testing.assert_array_equal(masked, near_only)
    assert np.abs(masked).max() > 0


def test_linear_growth_is_cosh_without_damping():
    k = np.array([1.0, 2.0, 5.0])
    got = reference.rt_linear_growth(0.5, 10.0, k, 0.4)
    np.testing.assert_allclose(got, np.cosh(np.sqrt(5.0 * k) * 0.4), rtol=1e-14)


def test_damped_growth_solves_its_ode():
    a, g, k, mu = 0.5, 10.0, 4.0, 0.02
    h = lambda t: reference.rt_linear_growth(a, g, k, t, mu=mu)  # noqa: E731
    dt = 1e-4
    assert h(0.0) == pytest.approx(1.0, abs=1e-14)
    assert (h(dt) - h(-dt)) / (2 * dt) == pytest.approx(0.0, abs=1e-6)
    t = 0.3
    d1 = (h(t + dt) - h(t - dt)) / (2 * dt)
    d2 = (h(t + dt) - 2 * h(t) + h(t - dt)) / dt**2
    assert d2 + mu * k * k * d1 - a * g * k * h(t) == pytest.approx(0.0, abs=1e-5)
    assert h(t) < np.cosh(math.sqrt(a * g * k) * t)


def test_dominant_modes_finds_the_largest_without_conjugates():
    x = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    X, Y = np.meshgrid(x, x, indexing="ij")
    h = np.cos(3 * X) + 0.5 * np.sin(Y + 0.2)
    modes = reference.dominant_modes(h, 2)
    assert sorted(min(m, (-m[0] % 16, -m[1] % 16)) for m in modes) == [
        (0, 1), (3, 0)
    ]


def test_assemble_blocks_round_trip_and_rejects_overlap():
    full = np.arange(6 * 4 * 2, dtype=float).reshape(6, 4, 2)
    blocks = [((0, 0), full[:3]), ((3, 0), full[3:])]
    np.testing.assert_array_equal(reference.assemble_blocks(blocks, (6, 4)), full)
    with pytest.raises(ValueError):
        reference.assemble_blocks([((0, 0), full[:4]), ((3, 0), full[3:])], (6, 4))


def test_gather_fields_assembles_every_rank():
    full = np.arange(4 * 6, dtype=float).reshape(4, 6)

    class TwoRanks:
        def allgather(self, obj):
            other = ((0, 3), [full[:, 3:]])
            return [obj, other]

    (got,) = reference.gather_fields(TwoRanks(), (0, 0), [full[:, :3]], (4, 6))
    np.testing.assert_array_equal(got, full)


def test_tangent_vorticity_of_a_flat_sheet():
    a = np.linspace(-1, 1, 5)
    A1, A2 = np.meshgrid(a, a, indexing="ij")
    z = np.stack([A1, A2, np.zeros_like(A1)], axis=-1)
    gamma = np.stack([np.full_like(A1, 2.0), np.full_like(A1, -1.0)], axis=-1)
    omega = reference.tangent_vorticity(z, gamma, (0.5, 0.5))
    np.testing.assert_allclose(omega[..., 0], 2.0)
    np.testing.assert_allclose(omega[..., 1], -1.0)
    np.testing.assert_allclose(omega[..., 2], 0.0)


def test_seed_overrides_only_random_initial_conditions():
    assert ic_overrides({"kind": "multi_mode", "seed": 11}, 4) == {"seed": 4}
    assert ic_overrides({"kind": "multi_mode", "seed": 11}, None) == {}
    assert ic_overrides({"kind": "single_mode"}, 4) == {}


def test_every_layer_metric_is_reported():
    got = layers.median_layers([{"core.step_ms": 2.0}, {"core.step_ms": 4.0}])
    assert set(got) == set(layers.METRICS)
    assert got["core.step_ms"] == 3.0 and got["fft.transform_s"] == 0.0
