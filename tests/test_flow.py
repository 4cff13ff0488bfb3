"""Tests for relaxation dynamics: targets, closed forms, integrators."""

import functools
import math
import time

import numpy as np
import pytest

import deformflow.flow
from deformflow import (
    CONFORMAL_NONLINEAR,
    MAX_SNAPSHOT_VALUES,
    SECOND_ORDER,
    SUBCRITICAL_LINEAR,
    SUPERCRITICAL_LINEAR,
    FlowConfig,
    FlowDomainError,
    FlowState,
    Trajectory,
    VelocityGrid,
    analytic_conformal,
    analytic_linear,
    c_model,
    critical_beta,
    integrate,
    linearized_alpha,
    relaxation_target,
    relaxation_time,
    rhs,
    second_order_solution,
)

PI = math.pi
BETA_C = critical_beta()


def linear_cfg(**kw):
    kw.setdefault("regime", SUBCRITICAL_LINEAR)
    return FlowConfig(**kw)


class TestTargets:
    def test_subcritical_target_is_pi(self):
        cfg = linear_cfg(K=1.0)
        for b in (0.0, 0.3, BETA_C * 0.999):
            assert relaxation_target(b, cfg) == PI

    def test_tie_at_critical_ratio_goes_subcritical(self):
        cfg = linear_cfg(K=1.0)
        assert relaxation_target(BETA_C, cfg) == PI

    def test_supercritical_target(self):
        cfg = linear_cfg(K=2.0)
        b = 0.9
        np.testing.assert_allclose(relaxation_target(b, cfg), PI + 2.0 / (b * b), rtol=1e-15)

    def test_zero_offset_collapses_branches(self):
        cfg = linear_cfg(K=0.0)
        assert relaxation_target(0.95, cfg) == PI


class TestRhs:
    def test_linear_rhs_value(self):
        cfg = linear_cfg(alpha=2.0)
        b = 0.5
        np.testing.assert_allclose(rhs(4.0, b, cfg), -2.0 * b * b * (4.0 - PI), rtol=1e-15)
        np.testing.assert_allclose(rhs(PI + 1.0, 0.5, linear_cfg()), -0.25, rtol=1e-15)

    def test_fixed_point_has_zero_rate(self):
        cfg = linear_cfg()
        assert rhs(PI, 0.5, cfg) == 0.0

    def test_conformal_rhs_value(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=3.0)
        np.testing.assert_allclose(rhs(2.0, 0.1, cfg), -3.0, rtol=1e-15)

    def test_conformal_rhs_rejects_nonpositive_value(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR)
        with pytest.raises(FlowDomainError):
            rhs(0.0, 0.1, cfg)

    def test_second_order_not_expressible_as_first_order_rate(self):
        cfg = FlowConfig(regime=SECOND_ORDER)
        with pytest.raises(ValueError):
            rhs(3.0, 0.5, cfg)


class TestClosedForms:
    def test_linear_half_life(self):
        # after tau = ln2 / (alpha beta^2) the gap halves exactly
        cfg = linear_cfg(alpha=1.7)
        b = 0.45
        tau = math.log(2.0) / (1.7 * b * b)
        got = analytic_linear(b, tau, PI + 1.0, cfg)
        np.testing.assert_allclose(got - PI, 0.5, rtol=1e-14)

    def test_linear_relaxation_time(self):
        np.testing.assert_allclose(relaxation_time(0.5, 2.0), 2.0, rtol=1e-15)
        np.testing.assert_allclose(relaxation_time(1.0, 1.0), 1.0, rtol=1e-15)
        np.testing.assert_allclose(relaxation_time(0.5, 1.0), 4.0, rtol=1e-15)
        np.testing.assert_allclose(relaxation_time(0.1, 2.0), 50.0, rtol=1e-13)
        with pytest.raises(ValueError):
            relaxation_time(0.0, 2.0)

    def test_frozen_velocity_is_stationary(self):
        cfg = linear_cfg(alpha=3.0)
        assert analytic_linear(0.0, 100.0, 5.0, cfg) == 5.0

    def test_conformal_closed_form(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=1.0)
        c0 = 2.0
        for tau in (0.0, 0.3, 0.9):
            np.testing.assert_allclose(
                analytic_conformal(tau, c0, cfg),
                math.sqrt(c0 * c0 - 4.0 * tau),
                rtol=1e-15,
            )
        np.testing.assert_allclose(analytic_conformal(0.75, 2.0, cfg), 1.0, rtol=1e-15)

    def test_conformal_domain_exhaustion(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=1.0)
        with pytest.raises(FlowDomainError) as exc:
            analytic_conformal(1.0, 2.0, cfg)  # tau* = c0^2 / (4 k) = 1
        assert exc.value.tau_star == pytest.approx(1.0)

    def test_linearized_alpha_value(self):
        np.testing.assert_allclose(linearized_alpha(1.0), 2.0 / (PI * PI), rtol=1e-15)
        np.testing.assert_allclose(linearized_alpha(3.0), 6.0 / (PI * PI), rtol=1e-15)
        np.testing.assert_allclose(linearized_alpha(PI * PI / 2.0), 1.0, rtol=1e-15)
        np.testing.assert_allclose(linearized_alpha(1.0), 0.2026423672846756, rtol=1e-15)

    def test_second_order_solution_oscillates(self):
        b, alpha, d0 = 0.5, 4.0, 0.25
        omega = b * math.sqrt(alpha)
        period = 2.0 * PI / omega
        np.testing.assert_allclose(second_order_solution(b, alpha, d0, 0.0), PI + d0, rtol=1e-15)
        np.testing.assert_allclose(
            second_order_solution(b, alpha, d0, period / 2.0), PI - d0, rtol=1e-12
        )
        np.testing.assert_allclose(
            second_order_solution(b, alpha, d0, period), PI + d0, rtol=1e-12
        )
        # unit frequency, half period: pi + cos(pi) = pi - 1
        np.testing.assert_allclose(second_order_solution(1.0, 1.0, 1.0, PI), PI - 1.0, rtol=1e-12)
        assert second_order_solution(0.7, 2.0, 0.0, 5.0) == PI


class TestGridAndStates:
    def test_uniform_grid_endpoints_exact(self):
        g = VelocityGrid.uniform(BETA_C, 65)
        assert g.samples[0] == 0.0
        assert g.samples[-1] == BETA_C
        assert g.n == 65
        assert g.beta_max == BETA_C

    def test_grid_requires_increasing_samples(self):
        with pytest.raises(ValueError):
            VelocityGrid((0.5, 0.5))
        with pytest.raises(ValueError):
            VelocityGrid((0.5, 0.2))
        with pytest.raises(ValueError):
            VelocityGrid((0.9,))

    def test_state_requires_finite_profile(self):
        with pytest.raises(ValueError):
            FlowState(0.0, (1.0, float("inf")))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(regime="bogus")
        with pytest.raises(ValueError):
            FlowConfig(regime=SUBCRITICAL_LINEAR, alpha=0.0)
        with pytest.raises(ValueError):
            FlowConfig(regime=SUBCRITICAL_LINEAR, method="euler")
        with pytest.raises(ValueError):
            FlowConfig(regime=SUBCRITICAL_LINEAR, dt=-1e-3)


class TestIntegrateLinear:
    def test_matches_closed_form(self):
        cfg = linear_cfg(alpha=2.5, dt=1e-3)
        grid = VelocityGrid((0.2, 0.5, 0.8))
        init = (4.0, 1.0, 6.0)
        traj = integrate(grid, init, cfg, tau_end=2.0, snapshot_every=0.5)
        assert traj.taus[0] == 0.0
        assert traj.taus[-1] == pytest.approx(2.0)
        for state in traj.states:
            for b, c0, got in zip(grid.samples, init, state.profile):
                want = analytic_linear(b, state.tau, c0, cfg)
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_randomized_runs_match_closed_form(self):
        rng = np.random.default_rng(20260814)
        for _ in range(25):
            alpha = float(rng.uniform(0.1, 10.0))
            beta = float(rng.uniform(0.05, 1.0))
            c0 = float(rng.uniform(0.0, 2.0 * PI))
            kappa = alpha * beta * beta
            cfg = linear_cfg(alpha=alpha, dt=0.01 / kappa)  # 300 steps per run
            grid = VelocityGrid((beta / 2.0, beta))
            traj = integrate(grid, (c0, c0), cfg, tau_end=3.0 / kappa)
            want = analytic_linear(beta, traj.taus[-1], c0, cfg)
            np.testing.assert_allclose(
                traj.states[-1].profile[1], want, rtol=1e-9, atol=1e-12
            )

    def test_supercritical_pull_up(self):
        cfg = FlowConfig(regime=SUPERCRITICAL_LINEAR, alpha=1.0, K=1.0, dt=1e-3)
        grid = VelocityGrid((0.9, 1.0))
        traj = integrate(grid, (PI, PI), cfg, tau_end=40.0)
        final = traj.states[-1].profile
        for b, got in zip(grid.samples, final):
            np.testing.assert_allclose(got, PI + 1.0 / (b * b), rtol=1e-8)

    def test_adaptive_matches_closed_form(self):
        cfg = linear_cfg(alpha=4.0, method="adaptive-rk", tol=1e-11)
        grid = VelocityGrid((0.3, 0.9))
        traj = integrate(grid, (2.0, 5.0), cfg, tau_end=1.5)
        for b, c0, got in zip(grid.samples, (2.0, 5.0), traj.states[-1].profile):
            want = analytic_linear(b, 1.5, c0, cfg)
            np.testing.assert_allclose(got, want, rtol=1e-7)

    def test_snapshot_cadence(self):
        cfg = linear_cfg(dt=1e-2)
        grid = VelocityGrid((0.1, 0.2))
        traj = integrate(grid, (PI, PI), cfg, tau_end=1.0, snapshot_every=0.25)
        np.testing.assert_allclose(traj.taus, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)

    def test_rejects_mismatched_profile(self):
        cfg = linear_cfg()
        grid = VelocityGrid((0.1, 0.2))
        with pytest.raises(ValueError):
            integrate(grid, (PI,), cfg, tau_end=1.0)

    def test_rejects_nonpositive_horizon(self):
        cfg = linear_cfg()
        grid = VelocityGrid((0.1, 0.2))
        with pytest.raises(ValueError):
            integrate(grid, (PI, PI), cfg, tau_end=0.0)


class TestIntegrateConformal:
    def test_matches_closed_form(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=1.0, dt=1e-4)
        grid = VelocityGrid((0.0, 0.5))
        traj = integrate(grid, (2.0, 3.0), cfg, tau_end=0.9, snapshot_every=0.3)
        for state in traj.states:
            for c0, got in zip((2.0, 3.0), state.profile):
                want = math.sqrt(c0 * c0 - 4.0 * state.tau)
                np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_refuses_horizon_past_exhaustion(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=1.0, dt=1e-3)
        grid = VelocityGrid((0.0, 0.5))
        with pytest.raises(FlowDomainError) as exc:
            integrate(grid, (2.0, 3.0), cfg, tau_end=1.0)  # first sample dies at tau* = 1
        assert exc.value.tau_star == pytest.approx(1.0)

    def test_velocity_independent_decay(self):
        # conformal shrinkage ignores beta: identical initials stay identical
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=2.0, dt=1e-3)
        grid = VelocityGrid((0.1, 0.6, 0.95))
        traj = integrate(grid, (4.0, 4.0, 4.0), cfg, tau_end=0.5)
        prof = traj.states[-1].profile
        assert prof[0] == prof[1] == prof[2]


class TestIntegrateSecondOrder:
    def test_matches_cosine_solution(self):
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=4.0, dt=1e-3)
        grid = VelocityGrid((0.25, 0.5))
        init = (PI + 0.5, PI - 0.25)
        traj = integrate(grid, init, cfg, tau_end=6.0, snapshot_every=1.0)
        for state in traj.states:
            for b, c0, got in zip(grid.samples, init, state.profile):
                want = second_order_solution(b, 4.0, c0 - PI, state.tau)
                np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    def test_oscillation_does_not_decay(self):
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=1.0, dt=1e-3)
        grid = VelocityGrid((0.4, 0.8))
        period = 2.0 * PI / (0.4 * 1.0)
        traj = integrate(grid, (PI + 1.0, PI + 1.0), cfg, tau_end=period)
        got = traj.states[-1].profile[0]
        np.testing.assert_allclose(got, PI + 1.0, rtol=1e-6)


def rk4_loop(deriv, y, h, n):
    """Plain rk4 on a tuple state, one step at a time."""
    for _ in range(n):
        k1 = deriv(y)
        k2 = deriv(tuple(v + 0.5 * h * k for v, k in zip(y, k1)))
        k3 = deriv(tuple(v + 0.5 * h * k for v, k in zip(y, k2)))
        k4 = deriv(tuple(v + h * k for v, k in zip(y, k3)))
        y = tuple(v + h / 6.0 * (a + 2.0 * (b + c) + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4))
    return y


class TestArrayIntegrator:
    @pytest.mark.parametrize("regime", [SUBCRITICAL_LINEAR, SUPERCRITICAL_LINEAR, SECOND_ORDER])
    def test_closed_form_stepping_matches_step_loop(self, regime):
        rng = np.random.default_rng(20261017)
        for _ in range(8):
            alpha = float(rng.uniform(0.1, 10.0))
            beta = float(rng.uniform(BETA_C, 1.0))
            c0 = float(rng.uniform(0.0, 2.0 * PI))
            kappa = alpha * beta * beta
            dt = float(rng.uniform(0.002, 0.02)) / kappa
            tau_end = dt * (int(rng.integers(50, 1000)) + float(rng.uniform(0.1, 0.9)))
            cfg = FlowConfig(regime=regime, alpha=alpha, K=1.5, dt=dt)
            grid = VelocityGrid((beta / 3.0, beta))
            traj = integrate(grid, (c0, c0), cfg, tau_end=tau_end)
            n_full = math.floor(tau_end / dt)
            for b, got in zip(grid.samples, traj.states[-1].profile):
                k = alpha * b * b
                if regime == SECOND_ORDER:
                    y0, deriv = (c0, 0.0), (lambda y, k=k: (y[1], -k * (y[0] - PI)))
                else:
                    t = relaxation_target(b, cfg)
                    y0, deriv = (c0,), (lambda y, k=k, t=t: (-k * (y[0] - t),))
                y = rk4_loop(deriv, rk4_loop(deriv, y0, dt, n_full), tau_end - n_full * dt, 1)
                np.testing.assert_allclose(got, y[0], rtol=1e-12)

    def test_adaptive_second_order_meets_oracle_tolerance(self):
        grid = VelocityGrid.uniform(BETA_C, 257)
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=5.0, method="adaptive-rk", tol=1e-10)
        traj = integrate(grid, (4.5,) * grid.n, cfg, tau_end=10.0, snapshot_every=0.1)
        want = [second_order_solution(b, 5.0, 4.5 - PI, 10.0) for b in grid.samples]
        np.testing.assert_allclose(traj.states[-1].profile, want, rtol=1e-8)

    def test_stiff_default_step_reaches_rest_in_bounded_work(self):
        # dt = auto is 0.01 / kappa_max, about 1e-302 here: ~1e302 steps in closed form
        grid = VelocityGrid((0.5, BETA_C))
        traj = integrate(grid, (4.0, 2.0), FlowConfig(alpha=1e300), tau_end=1.0)
        np.testing.assert_allclose(traj.states[-1].profile, (PI, PI), rtol=1e-15)
        assert traj.config.dt == 0.01 / (1e300 * BETA_C * BETA_C)

    def test_returned_config_records_default_step(self):
        traj = integrate(VelocityGrid((0.1, 0.2)), (PI, PI), linear_cfg(), tau_end=1.0)
        assert traj.config.dt == 1e-3

    @pytest.mark.filterwarnings("error")  # numpy overflow warnings must not escape
    @pytest.mark.parametrize("method", ["rk4", "adaptive-rk"])
    def test_blow_up_raises_arithmetic_error(self, method):
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=1e300, dt=0.1, method=method)
        with pytest.raises(FloatingPointError, match="non-finite"):
            integrate(VelocityGrid((0.5, 0.8)), (4.0, 4.0), cfg, tau_end=1.0)

    @pytest.mark.parametrize(
        "every, dt", [(0.01, 0.01), (0.1, 0.003), (0.07, 0.01)], ids=["one-step", "remainder", "two-pairs"]
    )
    @pytest.mark.parametrize("regime", [SUBCRITICAL_LINEAR, SECOND_ORDER])
    def test_propagator_is_built_once_per_step_pair(self, monkeypatch, regime, every, dt):
        grid = VelocityGrid.uniform(BETA_C, 17)
        cfg = FlowConfig(regime=regime, alpha=0.7, dt=dt)
        calls = []
        rk4_power = deformflow.flow._rk4_power
        monkeypatch.setattr(deformflow.flow, "_rk4_power", lambda a, h, n: calls.append((h, n)) or rk4_power(a, h, n))
        traj = integrate(grid, (4.0,) * grid.n, cfg, tau_end=2.0, snapshot_every=every)
        cached = list(calls)
        monkeypatch.setattr(functools, "lru_cache", lambda maxsize: lambda f: f)  # a propagator per segment
        fresh = integrate(grid, (4.0,) * grid.n, cfg, tau_end=2.0, snapshot_every=every)
        assert len(cached) == len(set(cached)) < len(calls) - len(cached)
        if every == dt:
            assert cached == [(dt, 1)]
        assert traj.profiles.tobytes() == fresh.profiles.tobytes()

    def test_failing_step_at_the_floor_raises_in_bounded_time(self, deadline):
        # rk4 is stable only for kappa h < 2.79; kappa = 6.4e19 needs h far below the 1e-14 floor
        cfg = FlowConfig(alpha=1e20, dt=0.1, method="adaptive-rk")
        start = time.perf_counter()
        with deadline(1.0), pytest.raises(FloatingPointError, match=r"h = .*tau = .*alpha = 1e\+20"):
            integrate(VelocityGrid((0.5, 0.8)), (4.0, 4.0), cfg, tau_end=1.0)
        assert time.perf_counter() - start < 1.0


def snapshot_times_loop(tau_end, every):
    """The snapshot-time loop that the arithmetic count replaced, kept as its reference."""
    times, j = [0.0], 1
    while j * every < tau_end * (1.0 - 1e-12):
        times.append(j * every)
        j += 1
    return times + [tau_end]


class TestTrajectoryArrays:
    def test_integrate_fills_read_only_arrays(self):
        grid = VelocityGrid.uniform(BETA_C, 9)
        traj = integrate(grid, (4.0,) * 9, linear_cfg(dt=1e-3), tau_end=1.0, snapshot_every=0.25)
        assert traj.taus.dtype == traj.profiles.dtype == np.float64
        assert traj.taus.shape == (5,) and traj.profiles.shape == (5, 9)
        assert not traj.taus.flags.writeable and not traj.profiles.flags.writeable
        for st, tau, row in zip(traj.states, traj.taus, traj.profiles):
            assert isinstance(st, FlowState)
            assert st.tau == tau and st.profile.tolist() == row.tolist()

    def test_caller_array_stays_writable(self):
        profiles = np.full((2, 2), PI)
        Trajectory(VelocityGrid((0.1, 0.2)), linear_cfg(), [0.0, 1.0], profiles)
        profiles[0, 0] = 1.0  # the trajectory holds a read-only view, not the caller's flag

    @pytest.mark.parametrize(
        "taus, profiles, message",
        [
            ([], np.empty((0, 2)), "at least one state"),
            ([0.0, 1.0], np.full((2, 3), PI), "shape"),
            ([0.0, -1.0], np.full((2, 2), PI), r"tau must be finite and >= 0, got -1.0"),
            ([0.0, 1.0], [[PI, PI], [PI, np.inf]], "profile values must be finite, got inf"),
            ([1.0, 1.0], np.full((2, 2), PI), "strictly increasing"),
        ],
    )
    def test_validation(self, taus, profiles, message):
        with pytest.raises(ValueError, match=message):
            Trajectory(VelocityGrid((0.1, 0.2)), linear_cfg(), taus, profiles)

    @pytest.mark.parametrize(
        "tau_end, every",
        [(10.0, 0.01), (1.0, 0.1), (0.3, 0.1), (10.0, 1 / 3), (1.0, 1.0), (1.0, 2.0), (0.7, 0.7000000000001)],
    )
    def test_snapshot_times_match_the_loop(self, tau_end, every):
        traj = integrate(VelocityGrid((0.1, 0.2)), (PI, PI), linear_cfg(dt=0.05), tau_end, every)
        assert traj.taus.tolist() == snapshot_times_loop(tau_end, every)

    def test_snapshot_count_is_bounded_before_any_work(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"more than {MAX_SNAPSHOT_VALUES} values"):
            integrate(VelocityGrid.uniform(BETA_C, 65), (4.0,) * 65, linear_cfg(), 10.0, 1e-9)
        assert time.perf_counter() - start < 1.0

    def test_subnormal_step_names_dt_and_alpha(self):
        # dt = auto is 0.01 / 1e308, a subnormal; tau / dt overflows to inf
        with pytest.raises(FloatingPointError, match=r"dt = 1e-310 .*alpha = 1e\+308"):
            integrate(VelocityGrid((0.5, 1.0)), (4.0, 4.0), linear_cfg(alpha=1e308), tau_end=1.0)


def uniform_loop(beta_max, n, beta_min=0.0):
    """The list comprehension that VelocityGrid.uniform replaced, kept as its reference."""
    step = (beta_max - beta_min) / (n - 1)
    samples = [beta_min + i * step for i in range(n)]
    samples[0] = beta_min
    samples[-1] = beta_max
    return samples


class TestGridAndStateArrays:
    @pytest.mark.parametrize(
        "beta_max, n, beta_min",
        [(BETA_C, 2, 0.0), (BETA_C, 65, 0.0), (1.0, 100001, 0.0), (0.9, 65, 0.2), (BETA_C, 100001, 0.1)],
    )
    def test_uniform_is_bitwise_the_loop(self, beta_max, n, beta_min):
        got = np.array(VelocityGrid.uniform(beta_max, n, beta_min).samples)
        assert got.tobytes() == np.array(uniform_loop(beta_max, n, beta_min)).tobytes()

    @pytest.mark.parametrize(
        "samples, first_bad",
        [((0.1, math.nan, 1.5), "nan"), ((-0.1, 0.5, 1.5), "-0.1"), ((0.2, 1.5, 2.0), "1.5")],
    )
    def test_grid_message_names_the_first_bad_value(self, samples, first_bad):
        with pytest.raises(ValueError, match=rf"^grid samples must lie in \[0, 1\], got {first_bad}$"):
            VelocityGrid(samples)

    def test_state_message_names_the_first_bad_value(self):
        with pytest.raises(ValueError, match=r"^profile values must be finite, got inf$"):
            FlowState(0.0, (1.0, math.inf, math.nan))

    def test_samples_and_profile_are_read_only_float64(self):
        samples, profile = np.array([0.1, 0.2, 0.3]), np.array([1, 2, 3])
        held = (VelocityGrid(samples).samples, FlowState(0.0, profile).profile)
        for array in held:
            assert isinstance(array, np.ndarray) and array.dtype == np.float64
            assert not array.flags.writeable
        samples[0] = profile[0] = 0  # the caller's arrays stay writable

    def test_later_writes_to_the_callers_arrays_do_not_reach_validated_objects(self):
        samples, profile = np.array([0.1, 0.2]), np.array([1.0, 2.0])
        taus, profiles = np.array([0.0, 1.0]), np.full((2, 2), PI)
        grid, state = VelocityGrid(samples), FlowState(0.0, profile)
        traj = Trajectory(grid, linear_cfg(), taus, profiles)
        samples[0], profile[0], taus[1], profiles[0, 0] = 5.0, math.nan, -1.0, math.inf
        assert grid.samples.tolist() == [0.1, 0.2]
        assert state.profile.tolist() == [1.0, 2.0]
        assert traj.taus.tolist() == [0.0, 1.0] and traj.profiles.tolist() == [[PI, PI], [PI, PI]]

    def test_two_dimensional_input_is_rejected(self):
        with pytest.raises(ValueError):
            VelocityGrid(np.array([[0.1, 0.2], [0.3, 0.4]]))
        with pytest.raises(ValueError):
            FlowState(0.0, np.full((2, 2), PI))


class TestPlainNumbersInErrors:
    @pytest.mark.parametrize(
        "tau_end, method",
        [(1.5, "rk4"), (0.999999, "adaptive-rk")],
        ids=["before-stepping", "in-a-stage"],  # a trial step near tau* = 1 leaves the domain
    )
    def test_conformal_domain_error_carries_floats(self, tau_end, method):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, dt=0.5, method=method, tol=1e-6)
        with pytest.raises(FlowDomainError) as info:
            integrate(VelocityGrid((0.3, 0.5)), (2.0, 3.0), cfg, tau_end=tau_end)
        assert type(info.value.beta) is float and type(info.value.tau_star) is float
        assert "np." not in str(info.value)

    @pytest.mark.parametrize("c0", [-1.0, 0.0])  # 0: the default dt divides by C_min^2
    def test_conformal_profile_message_names_a_float(self, c0):
        with pytest.raises(ValueError, match=rf"positive initial profile, got {c0!r}$"):
            integrate(VelocityGrid((0.3, 0.5)), (2.0, c0), FlowConfig(regime=CONFORMAL_NONLINEAR), tau_end=0.5)

    def test_conformal_default_step_is_a_float(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR)
        traj = integrate(VelocityGrid((0.3, 0.5)), (0.3, 3.0), cfg, tau_end=0.01)
        assert type(traj.config.dt) is float and traj.config.dt < 1e-3  # 0.01 C_min^2 / (2 k)
