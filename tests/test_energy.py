"""Tests for energy functionals, traces, and the gradient diagnostic."""

import math

import numpy as np
import pytest

from deformflow import (
    SUBCRITICAL_LINEAR,
    EnergyTrace,
    FlowConfig,
    FlowState,
    PotentialParams,
    Trajectory,
    VelocityGrid,
    c_model,
    critical_beta,
    dirichlet_energy,
    energy_density,
    energy_trace,
    integrate,
    l2_energy,
    l2_energy_rate,
    unique_quadratic_profile,
)
from oracles import adaptive_simpson

PI = math.pi
BETA_C = critical_beta()

# antiderivative oracles on [0, beta_c]:
#   uniform gap 1:      2 * beta_c                    (integrand 2)
#   static profile gap: 2 pi^2 beta^4 -> 2 pi^2 bc^5/5
#   uniform rate:       -4 alpha bc^3/3               (integrand -4 alpha beta^2)
L2_UNIFORM_GAP_ONE = 1.6512905423531128
L2_STATIC_PROFILE = 1.514702094608188
RATE_UNIFORM_GAP_ONE = -0.750445625173549


def subcritical_grid(n=2001):
    return VelocityGrid.uniform(BETA_C, n)


def test_l2_energy_uniform_gap():
    grid = subcritical_grid()
    state = FlowState(0.0, tuple(PI + 1.0 for _ in grid.samples))
    np.testing.assert_allclose(l2_energy(state, grid), L2_UNIFORM_GAP_ONE, rtol=1e-10)


def test_l2_energy_static_profile():
    grid = subcritical_grid()
    state = FlowState(0.0, tuple(c_model(b) for b in grid.samples))
    np.testing.assert_allclose(l2_energy(state, grid), L2_STATIC_PROFILE, rtol=1e-8)


def test_l2_energy_static_profile_against_live_quadrature():
    ref = 2.0 * adaptive_simpson(lambda b: (PI * b * b) ** 2, 0.0, BETA_C, 1e-13)
    np.testing.assert_allclose(L2_STATIC_PROFILE, ref, rtol=1e-12)


def test_l2_energy_scales_with_wave_speed():
    grid = subcritical_grid(401)
    state = FlowState(0.0, tuple(PI + 1.0 for _ in grid.samples))
    e1 = l2_energy(state, grid)
    e3 = l2_energy(state, grid, c=3.0)
    np.testing.assert_allclose(e3, 3.0 * e1, rtol=1e-14)


def test_l2_energy_truncates_above_critical_ratio():
    # samples past the critical ratio do not contribute
    g_full = VelocityGrid(tuple(np.linspace(0.0, BETA_C, 1001)))
    ext = tuple(np.linspace(0.0, BETA_C, 1001)) + (0.9, 1.0)
    g_ext = VelocityGrid(ext)
    s_full = FlowState(0.0, tuple(PI + 1.0 for _ in g_full.samples))
    s_ext = FlowState(0.0, tuple(PI + 1.0 for _ in g_ext.samples))
    np.testing.assert_allclose(
        l2_energy(s_ext, g_ext), l2_energy(s_full, g_full), rtol=1e-12
    )


def test_l2_energy_requires_grid_reaching_critical_ratio():
    grid = VelocityGrid.uniform(0.75, 101)
    state = FlowState(0.0, tuple(PI for _ in grid.samples))
    with pytest.raises(ValueError):
        l2_energy(state, grid)


def test_l2_energy_even_sample_count():
    # even-count uniform grids fall back to Simpson plus one trapezoid panel
    grid = VelocityGrid(tuple(np.linspace(0.0, BETA_C, 2000)))
    state = FlowState(0.0, tuple(PI + 1.0 for _ in grid.samples))
    np.testing.assert_allclose(l2_energy(state, grid), L2_UNIFORM_GAP_ONE, rtol=1e-9)


def test_rate_uniform_gap():
    grid = subcritical_grid()
    state = FlowState(0.0, tuple(PI + 1.0 for _ in grid.samples))
    np.testing.assert_allclose(
        l2_energy_rate(state, grid, alpha=1.0), RATE_UNIFORM_GAP_ONE, rtol=1e-10
    )
    np.testing.assert_allclose(
        l2_energy_rate(state, grid, alpha=2.5), 2.5 * RATE_UNIFORM_GAP_ONE, rtol=1e-10
    )


def test_rate_vanishes_on_relaxed_profile():
    grid = subcritical_grid(401)
    state = FlowState(0.0, tuple(PI for _ in grid.samples))
    assert l2_energy_rate(state, grid, alpha=1.0) == 0.0


def test_rate_is_never_positive():
    rng = np.random.default_rng(7)
    grid = subcritical_grid(257)
    for _ in range(20):
        prof = tuple(PI + rng.uniform(-2.0, 2.0) for _ in grid.samples)
        assert l2_energy_rate(FlowState(0.0, prof), grid, alpha=1.3) <= 0.0


def test_energy_trace_from_trajectory():
    cfg = FlowConfig(regime=SUBCRITICAL_LINEAR, alpha=1.0, dt=1e-3)
    grid = subcritical_grid(129)
    init = tuple(PI + 1.0 for _ in grid.samples)
    traj = integrate(grid, init, cfg, tau_end=2.0, snapshot_every=0.25)
    trace = energy_trace(traj)
    assert trace.taus.size == len(traj.states)
    assert trace.taus[0] == 0.0
    # monotone decay along the flow
    es = trace.energies
    assert all(b < a for a, b in zip(es, es[1:]))
    # trace rate must agree with the dissipation identity at each snapshot
    for rate, state in zip(trace.rates, traj.states):
        np.testing.assert_allclose(
            rate, l2_energy_rate(state, grid, alpha=1.0), rtol=1e-12
        )


def test_energy_trace_slope_matches_reported_rate():
    # centered finite-difference slope of E(tau) vs the analytic rate
    cfg = FlowConfig(regime=SUBCRITICAL_LINEAR, alpha=1.0, dt=1e-4)
    grid = subcritical_grid(129)
    init = tuple(PI + 1.0 for _ in grid.samples)
    traj = integrate(grid, init, cfg, tau_end=0.05, snapshot_every=1e-3)
    trace = energy_trace(traj)
    taus = trace.taus
    es = trace.energies
    for i in range(1, len(es) - 1):
        slope = (es[i + 1] - es[i - 1]) / (taus[i + 1] - taus[i - 1])
        np.testing.assert_allclose(slope, trace.rates[i], rtol=0, atol=1e-6)


def test_energy_trace_validation():
    with pytest.raises(ValueError):
        EnergyTrace([0.0], [-1.0], [0.0])
    with pytest.raises(ValueError):
        EnergyTrace([0.5, 0.5], [1.0, 1.0], [0.0, 0.0])


def test_dirichlet_energy_quadratic_profile():
    # profile pi (1 - v^2) sampled over the band [-1, 1]:
    # (1/2) integral of (2 pi v)^2 = 4 pi^2 / 3
    n = 4097
    xs = np.linspace(-1.0, 1.0, n)
    vals = PI * (1.0 - xs * xs)
    np.testing.assert_allclose(dirichlet_energy(vals), 4.0 * PI**2 / 3.0, rtol=1e-12)


def test_dirichlet_energy_linear_profile_exact():
    # slope 3 over a band of width 2: (1/2) * 9 * 2
    xs = np.linspace(-1.0, 1.0, 11)
    np.testing.assert_allclose(dirichlet_energy(3.0 * xs + 1.0), 9.0, rtol=1e-14)


def test_dirichlet_energy_scales_inversely_with_wave_speed():
    # same samples over a band twice as wide: slopes halve, length doubles
    xs = np.linspace(-1.0, 1.0, 101)
    vals = np.cos(xs)
    e1 = dirichlet_energy(vals)
    e2 = dirichlet_energy(vals, c=2.0)
    np.testing.assert_allclose(e2, e1 / 2.0, rtol=1e-14)


def test_dirichlet_energy_kink_converges_slowly():
    # tent pi (1 - |v|) on [-1, 1]: exact value pi^2, but the vertex
    # costs O(h) accuracy
    def tent_energy(n):
        xs = np.linspace(-1.0, 1.0, n)
        vals = PI * (1.0 - np.abs(xs))
        return dirichlet_energy(vals)

    errs = [abs(tent_energy(n) - PI**2) for n in (2**10 + 1, 2**12 + 1, 2**14 + 1)]
    assert errs[0] > errs[1] > errs[2]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    for r in ratios:  # each refinement quarters h, so the O(h) error drops ~4x
        assert 3.0 < r < 5.0


def test_dirichlet_energy_needs_three_samples():
    with pytest.raises(ValueError):
        dirichlet_energy(np.array([1.0, 2.0]))


def test_energy_density_components():
    p = PotentialParams(lam=2.0)
    got = energy_density(PI + 1.0, 0.5, 0.25, p)
    want = 0.5 * 0.25 + 0.5 * 0.0625 + 1.0
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_energy_density_vanishes_at_rest_state():
    p = PotentialParams(lam=3.0)
    assert energy_density(PI, 0.0, 0.0, p) == 0.0


def test_energy_density_at_full_compression():
    # C = 0 leaves only the potential well: lambda pi^2 / 2
    p = PotentialParams(lam=2.0)
    np.testing.assert_allclose(energy_density(0.0, 0.0, 0.0, p), PI**2, rtol=1e-15)


def test_potential_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(lam=-0.5)


def test_unique_quadratic_profile():
    a, b = unique_quadratic_profile()
    np.testing.assert_allclose(a, -PI, rtol=1e-14)
    np.testing.assert_allclose(b, PI, rtol=1e-14)
    a2, b2 = unique_quadratic_profile(c=2.0)
    np.testing.assert_allclose(a2, -PI / 4.0, rtol=1e-14)
    np.testing.assert_allclose(b2, PI, rtol=1e-14)
    # recovered coefficients reproduce the boundary data
    np.testing.assert_allclose(a2 * 4.0 + b2, 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "grid",
    [
        VelocityGrid.uniform(BETA_C, 65),
        VelocityGrid.uniform(BETA_C, 64),
        VelocityGrid((*VelocityGrid.uniform(BETA_C, 33).samples, 0.9, 0.95, 1.0)),  # the last 3 drop out
        VelocityGrid((0.0, 0.1, 0.35, 0.4, 0.7, BETA_C, 0.9)),  # trapezoid weights
    ],
    ids=["odd", "even", "past-critical", "non-uniform"],
)
def test_energy_trace_matches_per_snapshot_functionals(grid):
    rng = np.random.default_rng(11)
    cfg = FlowConfig(regime=SUBCRITICAL_LINEAR, alpha=1.7, c=0.8, dt=1e-3)
    init = tuple(PI + rng.uniform(-1.5, 1.5) for _ in grid.samples)
    traj = integrate(grid, init, cfg, tau_end=1.0, snapshot_every=0.05)
    trace = energy_trace(traj)
    assert trace.taus.tolist() == traj.taus.tolist()
    for st, e, rate in zip(traj.states, trace.energies, trace.rates):
        np.testing.assert_allclose(e, l2_energy(st, grid, 0.8), rtol=1e-14, atol=0)
        np.testing.assert_allclose(rate, l2_energy_rate(st, grid, 1.7, 0.8), rtol=1e-14, atol=0)


def test_energy_trace_is_bitwise_the_per_state_functionals():
    # one kernel: a snapshot gets the same digits in a stack as alone, on a grid past the critical ratio
    grid = VelocityGrid((*VelocityGrid.uniform(BETA_C, 64).samples, 0.9, 0.95))
    profiles = PI + np.random.default_rng(5).uniform(-1.0, 1.0, (40, 66))
    traj = Trajectory(grid, FlowConfig(alpha=1.3, c=0.7), np.arange(40.0), profiles)
    trace = energy_trace(traj)
    assert trace.energies.tolist() == [l2_energy(st, grid, 0.7) for st in traj.states]
    assert trace.rates.tolist() == [l2_energy_rate(st, grid, 1.3, 0.7) for st in traj.states]
