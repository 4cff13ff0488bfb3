"""Tests for energy functionals, traces, and the gradient diagnostic."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it
    given = None

import deformflow.energy
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
from deformflow.energy import _BLOCK, _UNIFORM_RTOL, _subcritical_window, _uniform_gaps
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


def test_l2_energy_needs_two_subcritical_samples():
    # only 0.5 lies at or below beta_c, so no rule has a panel
    state = FlowState(0.0, (4.0, 4.0))
    with pytest.raises(ValueError) as info:
        l2_energy(state, VelocityGrid((0.5, 0.95)))
    assert str(info.value) == "grid must contain at least 2 samples at or below the critical ratio"


def test_l2_energy_profile_length_must_be_the_grids():
    with pytest.raises(ValueError) as info:
        l2_energy(FlowState(0.0, (4.0, 4.0, 4.0)), subcritical_grid(4))
    assert str(info.value) == "profile has 3 values for a grid of 4 samples"


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
    with pytest.raises(ValueError, match=r"^energy trace must not be empty$"):
        EnergyTrace([], [], [])
    with pytest.raises(ValueError, match=r"^energies and rates must have the shape of taus, \(2,\)$"):
        EnergyTrace([0.0, 1.0], [1.0], [0.0, 0.0])


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


def test_unique_quadratic_profile_whose_c_squared_underflows_is_singular():
    # c = 1e-200 is positive, but c^2 underflows to 0, so both pins constrain b alone
    with pytest.raises(ValueError, match="^constraint system is singular$"):
        unique_quadratic_profile(c=1e-200)


def _quadratic_solve(c2: float) -> tuple[float, float]:
    # the reference: the pins C(0) = pi, C(c) = 0 as a 2x2 system through LAPACK
    a, b = np.linalg.solve(np.array([[0.0, 1.0], [c2, 1.0]]), np.array([PI, 0.0]))
    return float(a), float(b)


def test_unique_quadratic_profile_is_bitwise_the_solve_over_the_float_range():
    # c = m 2^e with e over every binade of positive floats, so c^2 is 0, subnormal, normal or inf;
    # the named c have a subnormal c^2, which warned in the solve's det, and the edges of that band
    rng = np.random.default_rng(20260531)
    cs = np.ldexp(rng.uniform(1.0, 2.0, 20_000), rng.integers(-1074, 1024, 20_000)).tolist()
    kinds = set()
    for c in cs + [1e-158, 1.4e-154, 1.32e-154, 1.5e-162, 1.4916681462400413e-154, 1.3407807929942596e154]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning escapes at any c
            try:
                got = unique_quadratic_profile(c)
            except ValueError as refusal:
                got = str(refusal)
        c2 = c * c
        if c2 == 0.0:
            kinds.add("singular")
            assert got == "constraint system is singular"
        elif c2 >= sys.float_info.min:
            kinds.add("inf" if math.isinf(c2) else "normal")
            assert [x.hex() for x in got] == [x.hex() for x in _quadratic_solve(c2)], c
        elif math.isfinite(-PI / c2):  # a subnormal c^2, which the solve refused as singular
            kinds.add("subnormal")
            assert got == (-PI / c2, PI)
        else:
            kinds.add("too-small")
            assert got == f"c is too small: -pi / c^2 is not finite, got {c!r}"
    assert kinds == {"singular", "subnormal", "too-small", "normal", "inf"}


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


# ---------------------------------------------------------------------------
# The streamed kernels against the full-length kernels they replaced.


def uniform_simpson_weights(n, h):
    """Composite Simpson weights, plus one trapezoid interval when n is even."""
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[0] = h / 3.0
    w[m - 1] = h / 3.0
    w[1 : m - 1 : 2] = 4.0 * h / 3.0
    w[2 : m - 1 : 2] = 2.0 * h / 3.0
    if m < n:
        w[n - 2] += 0.5 * h
        w[n - 1] += 0.5 * h
    return w


def dirichlet_energy_reference(values, c=1.0):
    """np.gradient and the whole Simpson weight vector, one long dot product."""
    vals = np.asarray(values, dtype=float)
    h = 2.0 * c / (vals.size - 1)
    g = np.gradient(vals, h, edge_order=2)
    return 0.5 * float(uniform_simpson_weights(vals.size, h) @ (g * g))


def dirichlet_energy_blocked_reference(values, c=1.0):
    """The streamed kernel's order: the same digits.

    np.gradient's end derivatives, the unscaled interior differences summed
    in blocks of _BLOCK, and one (2h)^2 division of their sum.
    """
    vals = np.asarray(values, dtype=float)
    n = vals.size
    h = 2.0 * c / (n - 1)
    ends = np.gradient(vals, h, edge_order=2)[[0, -1] if n % 2 else [0, -2, -1]].tolist()
    central = vals[2:] - vals[:-2]  # 2h times the derivative at nodes 1 .. n - 2
    if n % 2:
        total = ends[0] * ends[0] + ends[1] * ends[1]
    else:  # Simpson up to node n - 2, then a trapezoid interval: weights 1 + 3/2 and 3/2 in units of h/3
        total = ends[0] * ends[0] + 2.5 * (ends[1] * ends[1]) + 1.5 * (ends[2] * ends[2])
        central = central[:-1]
    sq = central * central
    blocks = 0.0
    for i in range(0, sq.size, _BLOCK):
        block = sq[i : i + _BLOCK]
        blocks += 4.0 * block[::2].sum() + 2.0 * block[1::2].sum()
    return 0.5 * (h / 3.0 * (total + float(blocks) / (2.0 * h) ** 2))


def band_integrals_reference(profiles, grid, beta_squared):
    """The boolean-mask band kernel with np.allclose's uniformity test."""
    bc = critical_beta()
    keep = grid.samples <= bc * (1.0 + _UNIFORM_RTOL)
    kept = grid.samples[keep]
    gaps = np.diff(kept)
    if kept.size >= 3 and np.allclose(gaps, gaps[0], rtol=_UNIFORM_RTOL, atol=0.0):
        w = uniform_simpson_weights(kept.size, float(gaps[0]))
    else:
        w = np.zeros(kept.size)
        w[:-1] += 0.5 * gaps
        w[1:] += 0.5 * gaps
    dev = profiles[:, keep] - PI
    x = kept * kept * dev * dev if beta_squared else dev * dev
    return (np.ascontiguousarray(x)[:, None, :] @ w[:, None])[:, 0, 0]


# n with the streamed interior (n - 2 nodes, n - 3 when n is even) one short of, at and one past
# each of the first three block edges, in both parities
BLOCK_EDGE_NS = sorted({k * _BLOCK + d for k in (1, 2, 3) for d in (1, 2, 3, 4)} | {3, 4, 5, 6})


def smooth_profile(n, c, coeffs):
    v = np.linspace(-c, c, n)
    a, b, k, phi = coeffs
    return a * np.cos(k * v / c + phi) + b * (v / c) ** 2


@pytest.mark.parametrize("n", BLOCK_EDGE_NS)
def test_dirichlet_energy_sums_np_gradients_derivatives_blockwise(n):
    vals = smooth_profile(n, 1.3, (2.0, -0.7, 3.1, 0.4))
    assert dirichlet_energy(vals, 1.3) == dirichlet_energy_blocked_reference(vals, 1.3)
    ref = dirichlet_energy_reference(vals, 1.3)
    assert abs(dirichlet_energy(vals, 1.3) - ref) <= 1e-12 * ref


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
def test_dirichlet_energy_matches_the_full_length_kernel():
    amplitudes = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))
    coeffs = st.tuples(amplitudes, amplitudes, st.floats(0.0, 20.0), st.floats(-3.0, 3.0))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.sampled_from(BLOCK_EDGE_NS), st.integers(3, 3 * _BLOCK + 3)), st.floats(0.1, 10.0), coeffs)
    def check(n, c, coeffs):
        vals = smooth_profile(n, c, coeffs)
        got = dirichlet_energy(vals, c)
        assert got == dirichlet_energy_blocked_reference(vals, c)
        ref = dirichlet_energy_reference(vals, c)
        assert abs(got - ref) <= 1e-12 * ref

    check()


def test_dirichlet_energy_memory_is_independent_of_the_profile_length():
    vals = smooth_profile(2**20 + 1, 1.0, (2.0, 1.0, 5.0, 0.0))
    tracemalloc.start()
    try:
        dirichlet_energy(vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < vals.nbytes / 4  # the full-length kernel peaked at 3x


def test_dirichlet_energy_names_a_non_finite_value():
    for bad in (math.nan, math.inf, -math.inf):
        for i in (0, 1, 2**16, 2**16 + 2):  # an end, an interior node, either side of a block edge
            vals = np.ones(2**16 + 3)
            vals[i] = bad
            with pytest.raises(ValueError, match=f"profile values must be finite, got {bad!r}"):
                dirichlet_energy(vals)


@pytest.mark.parametrize(
    "vals, c",
    [
        (np.linspace(0.0, 1.0, 65), 1e-320),  # (2h)^2 underflows to 0
        (np.linspace(0.0, 1.0, 65), 5e-324),  # h itself underflows to 0
        (np.linspace(0.0, 1e200, 65), 1.0),  # the squared differences overflow
        (np.linspace(0.0, 1.0, 64), 1e200),  # (2h)^2 overflows
    ],
    ids=["square-underflows", "h-underflows", "squares-overflow", "square-overflows"],
)
def test_dirichlet_energy_raises_where_its_arithmetic_overflows(vals, c):
    h = 2.0 * c / (vals.size - 1)
    with pytest.raises(FloatingPointError) as overflow:
        dirichlet_energy(vals, c)
    assert str(overflow.value) == f"Dirichlet energy overflows the float range at h = {h!r} (c = {c!r})"


def test_l2_energy_raises_where_the_integral_overflows():
    # (C - pi)^2 = 1e400 is past the float range
    with pytest.raises(FloatingPointError) as overflow:
        l2_energy(FlowState(2.0, (1e200,) * 3), VelocityGrid((0.0, 0.5, BETA_C)))
    assert str(overflow.value) == "L2 energy E overflows the float range at tau = 2.0"


@pytest.mark.parametrize(
    "c0, alpha, c",
    [(1e200, 0.5, 1.0), (1e10, 1e308, 1.0), (1e10, 1e308, 10.0)],
    ids=["integral", "prefactor", "alpha-c-at-rest"],
)
def test_l2_energy_rate_raises_where_the_integral_overflows(c0, alpha, c):
    # C = 1e10 has a finite energy and beta^2 integral (2.1e19); there the rate, -4 alpha c times it, is -8.6e327;
    # alpha c = 1e309 is past the range, which at rest still answers -0.0 (the test below), but off rest the
    # redone rate -4 (alpha (c I)) is past it too and is refused
    state, grid = FlowState(2.0, (c0,) * 3), VelocityGrid((0.0, 0.5, BETA_C))
    with pytest.raises(FloatingPointError) as overflow:
        l2_energy_rate(state, grid, alpha=alpha, c=c)
    assert str(overflow.value) == "L2 dissipation rate dE/dtau overflows the float range at tau = 2.0"


@pytest.mark.parametrize(
    "c0, c, want",
    [(PI + 0.1, 1.0, -8.568009595323938e305), (PI, 1.0, -0.0), (PI, 10.0, -0.0)],
    ids=["finite-rate", "at-rest", "alpha-c-at-rest"],
)
def test_l2_energy_rate_takes_a_prefactor_past_the_float_range_where_the_rate_is_inside_it(c0, c, want):
    # alpha 1e308 times 4 is past the float range, but times the integral first it is not; at rest it meets 0,
    # and so it does where alpha c = 1e309 is past the range too: the rate is then -4 (alpha (c I))
    rate = l2_energy_rate(FlowState(0.0, (c0,) * 3), VelocityGrid((0.0, 0.5, BETA_C)), alpha=1e308, c=c)
    assert math.copysign(1.0, rate) == -1.0
    assert rate == want


def test_l2_energy_rate_redoes_only_the_rows_whose_alpha_c_overflows():
    # at rest alpha c = 1e309 meets I = 0 as -0.0; the moving row keeps the digits of alpha (c I) and the
    # trace names the first snapshot whose rate is past the float range either way
    grid, cfg = VelocityGrid((0.0, 0.5, BETA_C)), FlowConfig(alpha=1e308, c=10.0)
    trace = energy_trace(Trajectory(grid, cfg, (0.0, 1.0), ((PI,) * 3, (PI + 1e-5,) * 3)))
    moving = l2_energy_rate(FlowState(1.0, (PI + 1e-5,) * 3), grid, alpha=1e308, c=10.0)
    assert trace.rates.tolist() == [-0.0, moving] and math.copysign(1.0, trace.rates[0]) == -1.0
    assert math.isfinite(moving)
    profiles = ((PI,) * 3, (1e10,) * 3, (1e10,) * 3)
    with pytest.raises(FloatingPointError) as overflow:
        energy_trace(Trajectory(grid, cfg, (0.0, 0.5, 1.0), profiles))
    assert str(overflow.value) == "L2 dissipation rate dE/dtau overflows the float range at tau = 0.5"


def test_energy_trace_names_the_first_snapshot_whose_integral_overflows():
    grid = VelocityGrid((0.0, 0.5, BETA_C))
    profiles = ((4.0,) * 3, (1e200,) * 3, (1e200,) * 3)
    with pytest.raises(FloatingPointError) as overflow:
        energy_trace(Trajectory(grid, FlowConfig(), (0.0, 0.5, 1.0), profiles))
    assert str(overflow.value) == "L2 energy E overflows the float range at tau = 0.5"
    # every finite trace is unchanged: the same digits as the per-state functionals
    finite = energy_trace(Trajectory(grid, FlowConfig(alpha=0.5), (0.0, 1.0), ((4.0,) * 3, (1e10,) * 3)))
    assert finite.energies.tolist() == [l2_energy(FlowState(0.0, p), grid) for p in ((4.0,) * 3, (1e10,) * 3)]


BAND_GRIDS = {
    "odd": VelocityGrid.uniform(BETA_C, 65),
    "even": VelocityGrid.uniform(BETA_C, 64),
    "past-critical": VelocityGrid((*VelocityGrid.uniform(BETA_C, 33).samples, 0.9, 0.95, 1.0)),
    "non-uniform": VelocityGrid(np.sort(np.r_[0.0, np.random.default_rng(3).uniform(0.0, BETA_C, 40), BETA_C])),
    # the last subcritical sample inside the 1e-9 slack, above and below beta_c, and at its edge
    "slack-edge": VelocityGrid((*np.linspace(0.0, BETA_C, 40), BETA_C * (1.0 + _UNIFORM_RTOL), 0.9)),
    "slack-above": VelocityGrid((*np.linspace(0.0, BETA_C * (1.0 + 5e-10), 41), 0.9)),
    "slack-below": VelocityGrid((*np.linspace(0.0, BETA_C * (1.0 - 5e-10), 40), BETA_C * (1.0 + 2e-9), 0.9)),
}


@pytest.mark.parametrize("grid", BAND_GRIDS.values(), ids=BAND_GRIDS.keys())
def test_l2_functionals_are_bitwise_the_mask_kernel(grid):
    # the streamed sums add in another order than the mask kernel's dot product
    profiles = PI + np.random.default_rng(grid.n).uniform(-2.0, 2.0, (7, grid.n))
    want_e = 2.0 * 0.7 * band_integrals_reference(profiles, grid, False)
    want_r = -2.0 * 1.3 * 2.0 * 0.7 * band_integrals_reference(profiles, grid, True)
    trace = energy_trace(Trajectory(grid, FlowConfig(alpha=1.3, c=0.7), np.arange(7.0), profiles))
    np.testing.assert_allclose(trace.energies, want_e, rtol=1e-14, atol=0)
    np.testing.assert_allclose(trace.rates, want_r, rtol=1e-14, atol=0)
    for p, e, r in zip(profiles, want_e.tolist(), want_r.tolist()):
        np.testing.assert_allclose(l2_energy(FlowState(0.0, p), grid, 0.7), e, rtol=1e-14, atol=0)
        np.testing.assert_allclose(l2_energy_rate(FlowState(0.0, p), grid, 1.3, 0.7), r, rtol=1e-14, atol=0)


# Subcritical sample counts and snapshot counts that split the beta^2 integrand into several tiles:
# rows of one column tile, one tile per row, exactly _BLOCK columns, and a band shorter than the grid.
TILED_GRIDS = {
    "many-rows": (VelocityGrid.uniform(BETA_C, 65), 1100),
    "column-tiles": (VelocityGrid.uniform(BETA_C, _BLOCK + 5), 3),
    "one-block": (VelocityGrid.uniform(BETA_C, _BLOCK), 2),
    "band-of-two-blocks": (VelocityGrid((*VelocityGrid.uniform(BETA_C, 2 * _BLOCK + 3).samples, 0.9, 1.0)), 2),
}


@pytest.mark.parametrize("grid, m", TILED_GRIDS.values(), ids=TILED_GRIDS.keys())
def test_tiled_rate_is_bitwise_the_mask_kernel(grid, m):
    profiles = PI + np.random.default_rng(m).uniform(-2.0, 2.0, (m, grid.n))
    want_r = -2.0 * 1.3 * 2.0 * 0.7 * band_integrals_reference(profiles, grid, True)
    trace = energy_trace(Trajectory(grid, FlowConfig(alpha=1.3, c=0.7), np.arange(float(m)), profiles))
    np.testing.assert_allclose(trace.rates, want_r, rtol=1e-14, atol=0)
    np.testing.assert_allclose(l2_energy_rate(FlowState(0.0, profiles[-1]), grid, 1.3, 0.7), want_r[-1], rtol=1e-14, atol=0)


def test_l2_functionals_memory_is_independent_of_the_profile_length():
    grid = VelocityGrid.uniform(critical_beta(), 2**20 + 1)
    state = FlowState(0.0, PI + np.sin(5.0 * grid.samples))
    tracemalloc.start()
    try:
        l2_energy(state, grid)  # builds the grid's window too
        l2_energy_rate(state, grid, 1.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.profile.nbytes / 4  # the matmul kernel built full-length dev, beta^2, diff and weights


def square_sums_per_block_reference(fill, m, nodes, weights):
    """The streamed sums with each block's row sums added into the running sums as it is formed."""
    k = len(nodes)
    rows, cols = max(1, _BLOCK // k), min(k, _BLOCK)
    buf = np.empty(min(rows, m) * cols)
    sums = np.zeros(m)
    for r in range(0, m, rows):
        rs = slice(r, min(r + rows, m))
        for c in range(nodes.start, nodes.stop, cols):
            cs = slice(c, min(c + cols, nodes.stop))
            g = buf[: (rs.stop - r) * (cs.stop - c)].reshape(rs.stop - r, cs.stop - c)
            fill(g, rs, cs)
            g *= g
            if weights is None:
                sums[rs] += 4.0 * np.add.reduce(g[:, ::2], axis=1) + 2.0 * np.add.reduce(g[:, 1::2], axis=1)
            else:
                g *= weights[cs]
                sums[rs] += np.add.reduce(g, axis=1)
    return sums


@pytest.mark.parametrize("n", [3, 4, 5, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 2, 2**20 + 1])
def test_dirichlet_energy_folds_its_blocks_as_the_per_block_sums(monkeypatch, n):
    vals = np.random.default_rng(n).uniform(-3.0, 3.0, n)  # rough, so that any other order of the blocks rounds apart
    got = np.float64(dirichlet_energy(vals, 1.3))
    monkeypatch.setattr(deformflow.energy, "_square_sums", square_sums_per_block_reference)
    assert got.tobytes() == np.float64(dirichlet_energy(vals, 1.3)).tobytes()


# BAND_GRIDS, and uniform and trapezoid windows of several column tiles
FOLD_GRIDS = {
    **BAND_GRIDS,
    "uniform-blocks": VelocityGrid.uniform(BETA_C, 2 * _BLOCK + 4),
    "non-uniform-blocks": VelocityGrid(np.linspace(0.0, 1.0, 2 * _BLOCK + 5) ** 2 * BETA_C),
}


@pytest.mark.parametrize("m", [1, 3, 40])
@pytest.mark.parametrize("grid", FOLD_GRIDS.values(), ids=FOLD_GRIDS.keys())
def test_energy_trace_folds_its_blocks_as_the_per_block_sums(monkeypatch, grid, m):
    profiles = PI + np.random.default_rng(grid.n + m).uniform(-2.0, 2.0, (m, grid.n))
    traj = Trajectory(grid, FlowConfig(alpha=1.3, c=0.7), np.arange(float(m)), profiles)
    got = energy_trace(traj)
    monkeypatch.setattr(deformflow.energy, "_square_sums", square_sums_per_block_reference)
    want = energy_trace(traj)
    assert got.energies.tobytes() == want.energies.tobytes()
    assert got.rates.tobytes() == want.rates.tobytes()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ENERGIES_SCRIPT = """
import numpy as np
from deformflow import FlowConfig, FlowState, Trajectory, VelocityGrid, critical_beta
from deformflow import dirichlet_energy, energy_trace, l2_energy, l2_energy_rate
for n in (10001, 20001, 65537):
    grid = VelocityGrid.uniform(critical_beta(), n)
    profiles = np.pi + np.outer(np.linspace(0.2, 1.0, 5), np.sin(7.0 * grid.samples))
    state = FlowState(0.0, profiles[-1])
    trace = energy_trace(Trajectory(grid, FlowConfig(alpha=1.3, c=0.7), np.arange(5.0), profiles))
    bent = VelocityGrid(grid.samples * grid.samples / critical_beta())  # trapezoid weights
    v = np.linspace(-1.0, 1.0, n)
    print(repr(l2_energy(state, grid)), repr(l2_energy_rate(state, grid, 1.3)))
    print(repr(l2_energy(state, bent)), repr(l2_energy_rate(state, bent, 1.3)))
    print(repr(trace.energies.tolist()), repr(trace.rates.tolist()))
    print(repr(dirichlet_energy(5e3 * np.cos(3.0 * v) + v * v)))
"""


def test_energies_do_not_depend_on_the_blas_thread_count():
    # a threaded BLAS splits a long dot product across its threads, in an order set by their count
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(deformflow.energy.__file__).parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", ENERGIES_SCRIPT], env=threads, capture_output=True, text=True, timeout=120, check=True
        ).stdout
        for threads in (env, {**env, **dict.fromkeys(BLAS_THREAD_VARS, "1")})
    ]
    assert outputs[0].count("\n") == 12
    assert outputs[0] == outputs[1]


def shifted_tail(samples, at, x):
    """samples with sample at + 1 moved to x and every later one by as much, so only gap `at` changes."""
    s = samples.copy()
    s[at + 1 :] += x - s[at + 1]
    return s


# Windows of 1, 2 and 3 blocks of _BLOCK gaps, with the off gap at the last index of the first block,
# or the first or second index of the next.
BLOCK_EDGE_GAPS = [
    (gaps, at)
    for gaps in (_BLOCK, _BLOCK + 2, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK)
    for at in (_BLOCK - 1, _BLOCK, _BLOCK + 1)
    if at < gaps
]


@pytest.mark.parametrize("gaps, at", BLOCK_EDGE_GAPS)
def test_window_turns_trapezoid_where_the_whole_diff_does(gaps, at):
    base = VelocityGrid.uniform(BETA_C, gaps + 1).samples
    g0 = base[1] - base[0]
    x = base[at] + (g0 + _UNIFORM_RTOL * g0)
    for _ in range(8):  # a few samples' ulps below the bound, so that the first is within it
        x = np.nextafter(x, -math.inf)
    decisions = []
    while not decisions or decisions[-1]:  # up to the first sample whose gap is past the bound
        samples = shifted_tail(base, at, x)
        diff = np.diff(samples)
        uniform = _uniform_gaps(diff)
        assert uniform == allclose_decision(diff)
        grid = VelocityGrid(samples)
        k, h, w = _subcritical_window(grid)
        assert k == grid.n and (w is None) == uniform and (h is None) != uniform
        decisions.append(uniform)
        x = np.nextafter(x, math.inf)
    assert decisions[0] and not decisions[-1]
    # the last grid is the trapezoid one
    profile = PI + np.sin(3.0 * grid.samples)
    want = band_integrals_reference(profile[None], grid, True)[0]
    np.testing.assert_allclose(l2_energy_rate(FlowState(0.0, profile), grid, 1.0), -4.0 * want, rtol=1e-14, atol=0)


def allclose_decision(gaps):
    """The uniformity test _uniform_gaps replaced, kept as its judge."""
    return np.allclose(gaps, gaps[0], rtol=_UNIFORM_RTOL, atol=0.0)


@pytest.mark.parametrize("scale", [0, -40, 30])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_uniformity_decision_is_np_allclose_at_the_bound(scale, sign):
    # rtol * 1e9 rounds to exactly 1, so a gap of g0 +- bound deviates from g0 by exactly the bound
    g0 = sign * math.ldexp(1e9, scale)
    bound = _UNIFORM_RTOL * abs(g0)
    assert (g0 + bound) - g0 == bound == g0 - (g0 - bound)
    up, down = (lambda x: np.nextafter(x, math.inf)), (lambda x: np.nextafter(x, -math.inf))
    cases = {
        "at +bound": ([g0, g0 + bound, g0], True),
        "ulp past +bound": ([g0, up(g0 + bound), g0], False),
        "at -bound": ([g0, g0 - bound], True),
        "ulp past -bound": ([g0, down(g0 - bound)], False),
        "both signs at the bound": ([g0, g0 + bound, g0 - bound, g0], True),
        "both signs, one past": ([g0, g0 + bound, down(g0 - bound)], False),
        "g0 largest": ([g0, g0 - bound, g0 - bound / 2], True),
        "g0 smallest": ([g0, g0 + bound / 2, g0 + bound], True),
        "g0 largest, one past": ([g0, g0 - bound / 2, down(g0 - bound)], False),
        "g0 smallest, one past": ([g0, up(g0 + bound), g0 + bound / 2], False),
        "all equal": ([g0] * 5, True),
        "nan": ([g0, math.nan, g0], False),
    }
    for name, (gaps, uniform) in cases.items():
        gaps = np.array(gaps)
        assert _uniform_gaps(gaps) == allclose_decision(gaps) == uniform, name


def test_uniformity_decision_is_np_allclose_on_drawn_gaps():
    # one gap deviates by about the bound, within about an ulp of it at 1 -+ 1e-7, and the rest by less
    rng = np.random.default_rng(29)
    decisions = []
    for _ in range(3000):
        g0 = math.ldexp(rng.uniform(0.5, 1.0), int(rng.integers(-60, 20))) * rng.choice((1.0, -1.0))
        bound = _UNIFORM_RTOL * abs(g0)
        gaps = g0 + bound * rng.uniform(-1.0, 1.0, int(rng.integers(2, 9)))
        gaps[0] = g0
        extreme = rng.choice((0.5, 1.0 - 1e-7, 1.0, 1.0 + 1e-7, 1.5)) * rng.choice((1.0, -1.0))
        gaps[rng.integers(1, gaps.size)] = g0 + bound * extreme
        decisions.append(_uniform_gaps(gaps))
        assert decisions[-1] == allclose_decision(gaps)
    assert 0.2 < np.mean(decisions) < 0.8  # both outcomes are drawn
