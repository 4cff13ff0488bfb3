"""Tests for relaxation dynamics: targets, closed forms, integrators."""

import functools
import itertools
import math
import operator
import sys
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it
    given = None

import deformflow.cli
import deformflow.flow
from deformflow import (
    CONFORMAL_NONLINEAR,
    LINEAR_REGIMES,
    MAX_SNAPSHOT_VALUES,
    MAX_STEPS,
    METHODS,
    REGIMES,
    SECOND_ORDER,
    SUBCRITICAL_LINEAR,
    SUPERCRITICAL_LINEAR,
    EnergyTrace,
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
    snapshot_times,
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

    @pytest.mark.parametrize(
        "closed_form, regime, message",
        [
            (lambda cfg: analytic_linear(0.5, 1.0, 4.0, cfg), CONFORMAL_NONLINEAR,
             "analytic_linear requires a linear regime, got 'conformal-nonlinear'"),
            (lambda cfg: analytic_linear(0.5, 1.0, 4.0, cfg), SECOND_ORDER,
             "analytic_linear requires a linear regime, got 'second-order'"),
            (lambda cfg: analytic_conformal(0.1, 2.0, cfg), SUBCRITICAL_LINEAR,
             "analytic_conformal requires the conformal regime, got 'subcritical-linear'"),
            (lambda cfg: analytic_conformal(0.1, 2.0, cfg), SECOND_ORDER,
             "analytic_conformal requires the conformal regime, got 'second-order'"),
        ],
        ids=["linear-conformal", "linear-second-order", "conformal-subcritical", "conformal-second-order"],
    )
    def test_closed_form_of_another_regime_is_refused(self, closed_form, regime, message):
        with pytest.raises(ValueError) as info:
            closed_form(FlowConfig(regime=regime))
        assert str(info.value) == message

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

    def test_state_requires_a_profile(self):
        with pytest.raises(ValueError) as info:
            FlowState(0.0, ())
        assert str(info.value) == "profile must not be empty"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(regime="bogus")
        with pytest.raises(ValueError):
            FlowConfig(regime=SUBCRITICAL_LINEAR, alpha=0.0)
        with pytest.raises(ValueError):
            FlowConfig(regime=SUBCRITICAL_LINEAR, method="euler")
        with pytest.raises(ValueError):
            FlowConfig(regime=SUBCRITICAL_LINEAR, dt=-1e-3)

    def test_k_curv_keeps_4k_finite(self):
        # with 4 k finite, tau* = C^2 / (4 k) is inf / finite, never inf / inf = NaN
        k_max = sys.float_info.max / 4.0
        assert FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=k_max).k_curv == k_max
        with pytest.raises(ValueError) as info:
            FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=math.nextafter(k_max, math.inf))
        assert str(info.value) == (
            "k_curv must be <= 4.4942328371557893e+307 so that 4 * k_curv is finite, got 4.49423283715579e+307"
        )


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

    def test_a_stage_outside_the_domain_is_refused(self, monkeypatch):
        # rk4 stays above the exact C, so no run reaches the per-stage guard: a step whose
        # given stage state has its third sample at 0 stands in for one that does
        rk4_step = deformflow.flow._rk4_step
        for stage in range(4):

            def step_to_zero(f, y, h, k, stage=stage):
                calls = itertools.count()

                def zeroed(u, out):
                    if next(calls) == stage:
                        u = u.copy()
                        u[0, 2] = 0.0
                    return f(u, out)

                rk4_step(zeroed, y, h, k)

            monkeypatch.setattr(deformflow.flow, "_rk4_step", step_to_zero)
            cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=2.0, dt=1e-3)
            with pytest.raises(FlowDomainError) as info:
                integrate(VelocityGrid((0.1, 0.3, 0.6, 0.9)), (4.0, 3.0, 5.0, 2.0), cfg, tau_end=0.1)
            # sample 2 starts at C = 5, so tau* = 25 / 8
            assert str(info.value) == "conformal flow exhausts its domain at tau* = 3.125 (beta = 0.6)"
            assert type(info.value.beta) is float and type(info.value.tau_star) is float
            assert (info.value.beta, info.value.tau_star) == (0.6, 3.125)

    def test_velocity_independent_decay(self):
        # conformal shrinkage ignores beta: identical initials stay identical
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=2.0, dt=1e-3)
        grid = VelocityGrid((0.1, 0.6, 0.95))
        traj = integrate(grid, (4.0, 4.0, 4.0), cfg, tau_end=0.5)
        prof = traj.states[-1].profile
        assert prof[0] == prof[1] == prof[2]

    # auto dt is 7.2e-4 in the last case; every snapshot interval ends in a remainder step
    @pytest.mark.parametrize(
        "dt, c0, k, tau_end", [(1e-3, (2.0, 4.0), 1.0, 0.1), (3e-3, (1.5, 3.0), 0.2, 0.1), (7e-4, (5.0, 9.0), 7.5, 0.1),
                               (None, (1.2, 2.0), 10.0, 0.03)]
    )
    def test_in_place_steps_are_the_allocating_formula(self, dt, c0, k, tau_end):
        grid = VelocityGrid.uniform(0.9, 4097)
        init = np.random.default_rng(4097).uniform(*c0, grid.n)
        traj = integrate(grid, init, FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=k, dt=dt), tau_end, tau_end / 2.9)

        def f(u):
            return -2.0 * k / u

        y, want = np.array([init]), []
        for runs in deformflow.flow._step_plan(traj.taus.tolist(), traj.config.dt, 1.0):
            for h, n in runs:
                for _ in range(n):
                    k1 = f(y)
                    k2 = f(y + 0.5 * h * k1)
                    k3 = f(y + 0.5 * h * k2)
                    k4 = f(y + h * k3)
                    y = y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
            want.append(y[0])
        assert len(want) == 3
        assert traj.profiles[1:].tobytes() == np.array(want).tobytes()

    def test_tau_star_past_the_square_of_the_largest_float_is_refused_before_stepping(self, monkeypatch):
        # C0^2 = 1e310 overflows, but tau* = C0^2 / (4 k) = 55.6 does not
        monkeypatch.setattr(deformflow.flow, "_rk4_step", None)  # stepping would fail on the call
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=4.4942328371557893e307)
        message = r"tau\* = 55.62684646268004 \(beta = 0.0\); requested tau_end = 100.0$"
        with pytest.raises(FlowDomainError, match=message):
            integrate(VelocityGrid((0.0, 0.5)), (1e155, 2e155), cfg, tau_end=100.0)


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


def rk4_power_matrix(a, h, n):
    """R(hA)^n - I through (n, d, d) matrices and batched @, as integrate built its propagator
    before it became one or two numbers per sample: the reference."""
    z = h * a
    eye = np.eye(a.shape[-1])
    d = z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
    out = np.zeros_like(d)
    while n:
        if n & 1:
            out = out + d + out @ d
        d = 2.0 * d + d @ d
        n >>= 1
    return out


def apply_matrix(m, e):
    """Per-sample matrix-vector product: m is (n, d, d), e is (d, n)."""
    return np.einsum("nij,jn->in", m, e)


def matrix_system(grid, cfg, init):
    """(A as (n, d, d), rest as (d, 1) or (1, n), the state (d, n)) of u' = A (u - rest): the reference's."""
    kappa = cfg.alpha * grid.samples * grid.samples
    if cfg.regime == SECOND_ORDER:
        a = np.zeros((grid.n, 2, 2))
        a[:, 0, 1], a[:, 1, 0] = 1.0, -kappa
        return a, np.array([[PI], [0.0]]), np.array([init, np.zeros(grid.n)])
    return -kappa[:, None, None], relaxation_target(grid.samples, cfg)[None], np.array([init])


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

    def test_adaptive_second_order_at_alpha_20_meets_the_oracle(self):
        grid = VelocityGrid.uniform(BETA_C, 257)
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=20.0, method="adaptive-rk", tol=1e-10)
        traj = integrate(grid, (4.5,) * grid.n, cfg, tau_end=10.0, snapshot_every=0.1)
        want = second_order_solution(grid.samples, 20.0, 4.5 - PI, 10.0)
        np.testing.assert_allclose(traj.profiles[-1], want, rtol=1e-8)

    @pytest.mark.parametrize("every", [None, 0.1], ids=["one-segment", "101-snapshots"])
    def test_adaptive_error_does_not_depend_on_the_cadence(self, every):
        grid = VelocityGrid.uniform(BETA_C, 257)
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=1.0, method="adaptive-rk", tol=1e-10)
        traj = integrate(grid, (4.0,) * grid.n, cfg, tau_end=10.0, snapshot_every=every)
        want = second_order_solution(grid.samples, 1.0, 4.0 - PI, traj.taus[:, None])
        np.testing.assert_allclose(traj.profiles, want, rtol=1e-9)  # every stored row, not only the last

    @pytest.mark.parametrize("regime, budget", [(SECOND_ORDER, 2000), (SUBCRITICAL_LINEAR, 1100)])
    def test_adaptive_derivative_evaluations_are_bounded(self, monkeypatch, regime, budget):
        # the adaptive workload's cadence: 257 samples, 101 snapshots over tau 10, tol 1e-10
        calls = []
        segments = deformflow.flow._adaptive_segments
        monkeypatch.setattr(
            deformflow.flow, "_adaptive_segments", lambda f, *args: segments(lambda y: calls.append(1) or f(y), *args)
        )
        cfg = FlowConfig(regime=regime, alpha=1.0, method="adaptive-rk", tol=1e-10)
        integrate(VelocityGrid.uniform(BETA_C, 257), (4.0,) * 257, cfg, tau_end=10.0, snapshot_every=0.1)
        assert 0 < len(calls) <= budget

    @pytest.mark.parametrize("regime", [SUBCRITICAL_LINEAR, SUPERCRITICAL_LINEAR, SECOND_ORDER])
    def test_adaptive_derivative_is_bitwise_the_per_sample_product(self, regime):
        # the reference derivative: A (u - rest) through the per-sample matrix product
        grid = VelocityGrid.uniform(0.95, 65)
        cfg = FlowConfig(regime=regime, alpha=20.0, K=1.3, method="adaptive-rk", tol=1e-10, dt=1e-3)
        traj = integrate(grid, (3.8,) * grid.n, cfg, tau_end=5.0, snapshot_every=0.5)
        a, rest, y = matrix_system(grid, cfg, traj.profiles[0])
        steps = deformflow.flow._adaptive_segments(
            lambda u: apply_matrix(a, u - rest), y, traj.taus.tolist(), 1e-3, cfg, MAX_STEPS
        )
        assert [s[0].tolist() for s in steps] == traj.profiles[1:].tolist()

    @pytest.mark.parametrize("regime", [SUBCRITICAL_LINEAR, SUPERCRITICAL_LINEAR, SECOND_ORDER])
    def test_rk4_stepping_is_the_matrix_reference(self, regime):
        # first-order propagators are bitwise the 1 x 1 matrices; second-order ones round differently
        grid = VelocityGrid.uniform(0.95, 65)
        cfg = FlowConfig(regime=regime, alpha=20.0, K=1.3, dt=3e-3)
        traj = integrate(grid, (3.8,) * grid.n, cfg, tau_end=5.0, snapshot_every=0.07)
        a, rest, y = matrix_system(grid, cfg, traj.profiles[0])
        want = []
        for runs in deformflow.flow._step_plan(traj.taus.tolist(), cfg.dt, cfg.alpha):
            for h, n in runs:
                y = y + apply_matrix(rk4_power_matrix(a, h, n), y - rest)
            want.append(y[0])
        if regime == SECOND_ORDER:
            np.testing.assert_allclose(traj.profiles[1:], want, rtol=1e-14, atol=0.0)
        else:
            assert traj.profiles[1:].tobytes() == np.array(want).tobytes()

    @pytest.mark.skipif(given is None, reason="needs Hypothesis")
    def test_propagator_is_the_matrix_reference(self):
        eps, power = np.finfo(float).eps, deformflow.flow._rk4_power
        counts = st.one_of(
            st.sampled_from([0, 1, 2, 3]),
            st.builds(lambda k, j: 2**k + j, st.integers(1, 40), st.sampled_from([-1, 1])),
            st.integers(0, 2**40),
        )

        @settings(max_examples=300, deadline=None)
        @given(log_uniform(1e-8, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), counts)
        def check(h, fractions, count):
            x = np.array(fractions)  # kappa h, or omega h, as a fraction of its rk4 stability bound
            neg_kappa = -x * deformflow.flow._RK4_REAL_BOUND / h
            want = rk4_power_matrix(neg_kappa[:, None, None], h, count)[:, 0, 0]
            assert power(neg_kappa, h, count, False).tobytes() == want.tobytes()

            omega = x * deformflow.flow._RK4_IMAG_BOUND / h
            kappa = omega * omega
            a = np.zeros((x.size, 2, 2))
            a[:, 0, 1], a[:, 1, 0] = 1.0, -kappa
            want = rk4_power_matrix(a, h, count)
            d0, d1 = power(-kappa, h, count, True)
            # 4 ulps, and 4 more per radian that the count steps turn through; the off-diagonal
            # entries are sin(phase) / omega and -omega sin(phase), and |sin(phase) / omega| <= count h
            tol = 4.0 * eps * (1.0 + count * omega * h)
            reach = np.minimum(count * h, 1.0 / np.maximum(omega, 1e-300))
            assert (np.abs(d0 - want[:, 0, 0]) <= tol).all() and (np.abs(d0 - want[:, 1, 1]) <= tol).all()
            assert (np.abs(h * d1 - want[:, 0, 1]) <= tol * reach).all()
            assert (np.abs(kappa * h * d1 + want[:, 1, 0]) <= tol * kappa * reach).all()

        check()

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
        # rk4 refuses the step before stepping; the adaptive run overflows and is caught
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=1e300, dt=0.1, method=method)
        message = "past the stability bound" if method == "rk4" else "non-finite"
        with pytest.raises(FloatingPointError, match=message):
            integrate(VelocityGrid((0.5, 0.8)), (4.0, 4.0), cfg, tau_end=1.0)

    @pytest.mark.parametrize(
        "regime, bound",
        [(SUBCRITICAL_LINEAR, 2.785293563405282), (SECOND_ORDER, 2.0 * math.sqrt(2.0))],
    )
    def test_rk4_step_is_checked_against_its_stability_bound(self, monkeypatch, regime, bound):
        # kappa_max = 1 at beta = 1: dt = bound is stable, the next double is refused before any work
        grid = VelocityGrid((0.5, 1.0))
        traj = integrate(grid, (4.0, 4.0), FlowConfig(regime=regime, dt=bound), tau_end=100.0)
        assert np.abs(traj.profiles).max() <= 4.0 * (1.0 + 1e-9)
        past = FlowConfig(regime=regime, dt=math.nextafter(bound, math.inf))
        # a snapshot interval of 1.0 is shorter than dt, so that is the step, and it is stable
        integrate(grid, (4.0, 4.0), past, tau_end=1.0)
        monkeypatch.setattr(deformflow.flow, "_rk4_power", None)  # stepping would fail on the call
        # intervals 4, 4 and 2: the last is inside the bound, the first two take full dt steps
        with pytest.raises(FloatingPointError, match=f"past the stability bound.* > {bound!r} \\(alpha = 1.0\\)"):
            integrate(grid, (4.0, 4.0), past, tau_end=10.0, snapshot_every=4.0)
        # adaptive-rk sizes its own steps, so the same dt is only its first guess
        integrate(grid, (4.0, 4.0), FlowConfig(regime=regime, dt=2.0 * bound, method="adaptive-rk"), tau_end=1.0)

    @pytest.mark.parametrize(
        "every, dt", [(0.01, 0.01), (0.1, 0.003), (0.07, 0.01)], ids=["one-step", "remainder", "two-pairs"]
    )
    @pytest.mark.parametrize("regime", [SUBCRITICAL_LINEAR, SECOND_ORDER])
    def test_propagator_is_built_once_per_step_pair(self, monkeypatch, regime, every, dt):
        grid = VelocityGrid.uniform(BETA_C, 17)
        cfg = FlowConfig(regime=regime, alpha=0.7, dt=dt)
        calls = []
        rk4_power = deformflow.flow._rk4_power
        monkeypatch.setattr(deformflow.flow, "_rk4_power", lambda *args: calls.append(args[1:3]) or rk4_power(*args))
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

    # across tau 1, dt = 0.01 is exactly 100 steps, and dt = 0.03 is 33 steps and a remainder step
    @pytest.mark.parametrize("dt, steps", [(0.01, 100), (0.03, 34)])
    def test_conformal_rk4_past_the_step_budget_is_refused_before_stepping(self, monkeypatch, dt, steps):
        grid, cfg = VelocityGrid((0.5, 0.8)), FlowConfig(regime=CONFORMAL_NONLINEAR, dt=dt)
        monkeypatch.setattr(deformflow.flow, "MAX_STEPS", steps)
        integrate(grid, (4.0, 4.0), cfg, tau_end=1.0)
        monkeypatch.setattr(deformflow.flow, "MAX_STEPS", steps - 1)
        monkeypatch.setattr(deformflow.flow, "_rk4_step", None)  # stepping would fail on the call
        message = rf"conformal-nonlinear rk4 with dt = {dt} needs {steps} steps by tau = 1.0, past the budget of "
        with pytest.raises(FloatingPointError, match=message + rf"{steps - 1} steps \(alpha = 1.0\)"):
            integrate(grid, (4.0, 4.0), cfg, tau_end=1.0)

    def test_adaptive_step_budget_counts_attempts_over_the_whole_run(self, monkeypatch):
        grid = VelocityGrid.uniform(BETA_C, 17)
        cfg = FlowConfig(regime=SECOND_ORDER, alpha=20.0, method="adaptive-rk")
        attempts = []
        dp_step = deformflow.flow._dp_step
        monkeypatch.setattr(deformflow.flow, "_dp_step", lambda *args: attempts.append(1) or dp_step(*args))
        run = functools.partial(integrate, grid, (4.0,) * grid.n, cfg, tau_end=2.0, snapshot_every=0.5)
        traj = run()
        spent = len(attempts)
        monkeypatch.setattr(deformflow.flow, "MAX_STEPS", spent)
        assert run().profiles.tobytes() == traj.profiles.tobytes()
        # one attempt short fails in the last of the four intervals, though no interval takes that many
        monkeypatch.setattr(deformflow.flow, "MAX_STEPS", spent - 1)
        message = rf"second-order adaptive-rk spent its budget of {spent - 1} attempted steps by tau = 1\.[5-9]"
        with pytest.raises(FloatingPointError, match=message + r".* \(h = .*, alpha = 20.0\)"):
            run()


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
        profiles[0, 0] = 1.0  # the trajectory holds a read-only copy, not the caller's flag

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

    def test_snapshot_interval_count_is_bounded(self):
        assert len(snapshot_times(float(MAX_STEPS), 1.0, 2)) == MAX_STEPS + 1
        with pytest.raises(ValueError, match=rf"makes {MAX_STEPS + 1} snapshot intervals, more than MAX_STEPS"):
            snapshot_times(MAX_STEPS + 0.5, 1.0, 2)

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

    @pytest.mark.parametrize(
        "samples, first_bad",
        [
            # increasing, with only the last end out of range: the first bad sample, not the end
            ((0.2, 0.5, 1.5, 2.0), "1.5"),
            (np.linspace(0.2, 1.0 + 1e-5, 100001), repr(float(np.linspace(0.2, 1.0 + 1e-5, 100001)[99999]))),
            # increasing, with only the first end out of range
            (np.linspace(-1e-5, 0.9, 100001), "-1e-05"),
            # a NaN in the middle of an increasing grid whose ends are in range
            (np.r_[np.linspace(0.0, 0.4, 50000), math.nan, np.linspace(0.5, 1.0, 50000)], "nan"),
            # not increasing, with a value out of range: the range message comes first
            ((0.5, 0.2, 1.5), "1.5"),
            (np.r_[0.3, 0.3, np.linspace(0.4, 0.9, 99997), -0.5], "-0.5"),
        ],
        ids=["short-last-end", "long-last-end", "long-first-end", "long-nan", "short-unordered", "long-unordered"],
    )
    def test_long_grid_message_names_the_first_bad_value(self, samples, first_bad):
        with pytest.raises(ValueError, match=rf"^grid samples must lie in \[0, 1\], got {first_bad}$"):
            VelocityGrid(samples)

    @pytest.mark.parametrize(
        "samples",
        [np.r_[np.linspace(0.0, 0.5, 50000), np.linspace(0.5, 1.0, 50000)], (0.0, 1.0, 1.0), (0.4, 0.3)],
        ids=["long-repeat", "repeated-end", "decreasing"],
    )
    def test_grid_in_range_but_not_increasing_gets_the_order_message(self, samples):
        with pytest.raises(ValueError, match=r"^grid samples must be strictly increasing$"):
            VelocityGrid(samples)

    def test_uniform_grid_peaks_near_its_own_bytes(self):
        tracemalloc.start()
        try:
            grid = VelocityGrid.uniform(1.0, 2**20 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * grid.samples.nbytes  # a copy and temporaries peaked at 3.1x

    @pytest.mark.parametrize("regime", REGIMES)
    def test_integrate_peaks_near_the_bytes_it_stores(self, regime):
        n = 2**14
        grid, init = VelocityGrid.uniform(BETA_C, n), np.full(n, 4.0)
        tracemalloc.start()
        try:
            traj = integrate(grid, init, FlowConfig(regime=regime), tau_end=0.25, snapshot_every=0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = traj.taus.nbytes + traj.profiles.nbytes
        assert traj.profiles.shape == (251, n)
        assert peak < 1.5 * stored  # a Trajectory copy of the buffer peaked at 2.1x

    @pytest.mark.parametrize(
        "regime, bound", [(SUBCRITICAL_LINEAR, 5.5), (SUPERCRITICAL_LINEAR, 5.5), (SECOND_ORDER, 9.0)]
    )
    def test_rk4_peaks_at_a_few_profiles_on_two_snapshots(self, regime, bound):
        # the propagator is one or two numbers a sample: as (n, 2, 2) matrices it peaked at 15.0x
        n = 2**18
        grid, init = VelocityGrid.uniform(0.95, n), np.full(n, 4.0)
        tracemalloc.start()
        try:
            traj = integrate(grid, init, FlowConfig(regime=regime, K=1.3), tau_end=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.profiles.shape == (2, n)
        assert peak <= bound * traj.profiles.nbytes

    def test_a_callers_read_only_array_made_writeable_again_does_not_reach_validated_objects(self):
        samples, profile = np.array([0.1, 0.2]), np.array([1.0, 2.0])
        taus, profiles = np.array([0.0, 1.0]), np.full((2, 2), PI)
        arrays = (samples, profile, taus, profiles)
        for array in arrays:
            array.flags.writeable = False
        grid, state = VelocityGrid(samples), FlowState(0.0, profile)
        traj = Trajectory(grid, linear_cfg(), taus, profiles)
        for array in arrays:
            array.flags.writeable = True
        samples[0], profile[0], taus[1], profiles[0, 0] = 5.0, math.nan, -1.0, math.inf
        assert grid.samples.tolist() == [0.1, 0.2]
        assert state.profile.tolist() == [1.0, 2.0]
        assert traj.taus.tolist() == [0.0, 1.0] and traj.profiles.tolist() == [[PI, PI], [PI, PI]]

    def test_package_built_arrays_are_plain_read_only_ndarrays(self):
        grid = VelocityGrid.uniform(BETA_C, 9)
        traj = integrate(grid, (4.0,) * 9, linear_cfg(), tau_end=1.0, snapshot_every=0.5)
        for array in (grid.samples, traj.profiles):
            assert type(array) is np.ndarray and array.dtype == np.float64
            assert not array.flags.writeable


# Inputs to every constructor that reads an array, as factories, since a generator is spent once read.
INTAKE_INPUTS = {
    "floats": lambda: [0.0, 0.25, 0.5],
    "ints": lambda: [0, 1],
    "bools": lambda: [False, True],
    "numpy-scalars": lambda: [np.float16(0.0), np.float32(0.25), np.int64(1)],
    "numeric-strings": lambda: ["0", " 0.25 ", "5e-1"],
    "none": lambda: [0.0, None],
    "huge-int": lambda: [0.0, 2**1100],
    "complex": lambda: [0.0, 1j],
    "nested": lambda: [[0.0, 0.25], [0.5, 1.0]],
    "ragged": lambda: [[0.0], [0.25, 0.5]],
    "empty": lambda: [],
    "tuple": lambda: (0.0, 0.25, 0.5),
    "generator": lambda: (x for x in (0.0, 0.25)),
    "0-d": lambda: 0.5,
}
INTAKE_BUILDS = {
    "grid": lambda v: (VelocityGrid(v).samples,),
    "state": lambda v: (FlowState(0.0, v).profile,),
    "trajectory-taus": lambda v: (Trajectory(VelocityGrid((0.0, 1.0)), linear_cfg(), v, [[PI, PI]] * 3).taus,),
    "trajectory-profiles": lambda v: (Trajectory(VelocityGrid((0.0, 1.0)), linear_cfg(), (0.0, 1.0), v).profiles,),
    "energy-trace": lambda v: operator.attrgetter("taus", "energies", "rates")(EnergyTrace(v, v, v)),
}


def intake_outcome(build):
    """The arrays build() holds as bytes, or the type and message of what it raised."""
    try:
        held = build()
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in held]


class NumpySpy:
    """numpy for deformflow.flow, recording each np.array and np.fromiter call that module makes."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("array", "fromiter"):
            return attr

        def spy(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        return spy


class TestIntake:
    @pytest.mark.parametrize("build", INTAKE_BUILDS.values(), ids=INTAKE_BUILDS.keys())
    @pytest.mark.parametrize("values", INTAKE_INPUTS.values(), ids=INTAKE_INPUTS.keys())
    def test_a_sequence_reads_as_np_array_reads_it(self, build, values):
        # np.array(values, dtype=float) was the one reader: the same bytes, or its exception and message
        want = intake_outcome(lambda: build(np.array(values(), dtype=float)))
        assert intake_outcome(lambda: build(values())) == want

    def test_a_flat_list_is_read_in_one_fromiter_pass(self, monkeypatch):
        spy = NumpySpy()
        monkeypatch.setattr(deformflow.flow, "np", spy)
        for build, reads in ((lambda v: FlowState(0.0, v), 1), (VelocityGrid, 1), (lambda v: EnergyTrace(v, v, v), 3)):
            spy.calls.clear()
            build([i / 1024 for i in range(1025)])
            assert spy.calls == ["fromiter"] * reads
        spy.calls.clear()
        FlowState(0.0, (1.0, 2.0))
        assert spy.calls == ["fromiter"]
        spy.calls.clear()
        Trajectory(VelocityGrid((0.0, 1.0)), linear_cfg(), [0.0], [[PI, PI]])  # a nested list falls through
        assert spy.calls == ["fromiter", "fromiter", "fromiter", "array"]


class TestPlainNumbersInErrors:
    def test_conformal_domain_error_carries_floats(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, dt=0.5, tol=1e-6)
        with pytest.raises(FlowDomainError) as info:
            integrate(VelocityGrid((0.3, 0.5)), (2.0, 3.0), cfg, tau_end=1.5)  # past tau* = 1, before stepping
        assert type(info.value.beta) is float and type(info.value.tau_star) is float
        assert "np." not in str(info.value)

    def test_adaptive_run_just_short_of_tau_star_finishes(self):
        # the solution exists up to tau* = 1.0; no trial step may report it exhausted earlier
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, dt=0.5, method="adaptive-rk", tol=1e-6)
        traj = integrate(VelocityGrid((0.3, 0.5)), (2.0, 3.0), cfg, tau_end=0.999999)
        last = traj.profiles[-1]
        assert np.isfinite(last).all() and (last > 0.0).all()

    @pytest.mark.parametrize("c0", [-1.0, 0.0])  # 0: the default dt divides by C_min^2
    def test_conformal_profile_message_names_a_float(self, c0):
        with pytest.raises(ValueError, match=rf"positive initial profile, got {c0!r}$"):
            integrate(VelocityGrid((0.3, 0.5)), (2.0, c0), FlowConfig(regime=CONFORMAL_NONLINEAR), tau_end=0.5)

    def test_conformal_default_step_is_a_float(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR)
        traj = integrate(VelocityGrid((0.3, 0.5)), (0.3, 3.0), cfg, tau_end=0.01)
        assert type(traj.config.dt) is float and traj.config.dt < 1e-3  # 0.01 C_min^2 / (2 k)


def split_segment_loop(delta, dt, alpha):
    """The per-interval split that the step plan replaced, kept as its reference: (step, count) pairs."""
    steps = delta / dt
    if not math.isfinite(steps):
        raise FloatingPointError(f"dt = {dt!r} is too small to step across {delta!r} (alpha = {alpha!r})")
    n = int(math.floor(steps + 1e-9))
    rem = min(delta - n * dt, dt)
    return [(dt, n), (rem, 1)] if rem > 1e-9 * dt else [(dt, n)]


if given is not None:

    def log_uniform(lo, hi):
        return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def plan_gaps(dt):
    """1,500 random snapshot intervals for a step dt, the positive ones kept."""
    rng = np.random.default_rng(20261018)
    multiples = rng.integers(0, 1000, 300) * dt
    gaps = np.concatenate([
        multiples * (1.0 + rng.uniform(-3e-9, 3e-9, 300)),  # within 1e-9 dt of a multiple of dt, both sides
        multiples + rng.uniform(-3e-9, 3e-9, 300) * dt,
        rng.uniform(0.0, 1.0, 300) * dt,  # shorter than dt
        rng.uniform(0.0, 1000.0, 300) * dt,
        rng.uniform(1e16, 1e18, 300) * dt,  # past 2**53 steps, where count * dt is inexact
    ])
    return gaps[gaps > 0.0]


class TestStepPlan:
    @pytest.mark.parametrize("dt", [1e-3, 0.003, 0.1, 1 / 3, 7.0, 1e-200])
    def test_plan_is_the_split_loop_interval_by_interval(self, dt):
        times = np.concatenate([[0.0], np.cumsum(plan_gaps(dt))]).tolist()
        plan = deformflow.flow._step_plan(times, dt, 2.0)
        assert len(plan) == len(times) - 1
        for runs, tau0, tau1 in zip(plan, times, times[1:]):
            assert all(type(h) is float and type(n) is int for h, n in runs)
            assert runs == split_segment_loop(tau1 - tau0, dt, 2.0)

    @pytest.mark.parametrize("dt", [1e-3, 0.003, 0.1, 1 / 3, 7.0, 1e-200])
    def test_pre_step_checks_read_the_split_loops_totals(self, monkeypatch, dt):
        # the first interval, 5e-10 dt, takes no step: its count is 0 and its remainder is dropped
        times = np.concatenate([[0.0], np.cumsum([5e-10 * dt, *plan_gaps(dt)])]).tolist()
        want = [split_segment_loop(tau1 - tau0, dt, 2.0) for tau0, tau1 in zip(times, times[1:])]
        assert want[0] == [(dt, 0)]
        # per interval count + (rem > 0) steps, the longest being dt if count else rem, or none
        steps = list(itertools.accumulate(split[0][1] + len(split) - 1 for split in want))
        longest = max(split[0][0] if split[0][1] else split[-1][0] if len(split) > 1 else 0.0 for split in want)

        monkeypatch.setattr(deformflow.flow, "_rk4_power", None)  # stepping would fail on the call
        monkeypatch.setattr(deformflow.flow, "snapshot_times", lambda *args: times)
        grid, init = VelocityGrid((0.5, 1.0)), (4.0, 4.0)
        conformal = FlowConfig(regime=CONFORMAL_NONLINEAR, alpha=2.0, dt=dt)
        linear = FlowConfig(alpha=3.0 / longest, dt=dt)  # kappa_max = alpha, so kappa_max h = 3 at h = longest
        monkeypatch.setattr(deformflow.flow, "MAX_STEPS", steps[-1] - 1)
        first = steps.index(steps[-1])  # the first interval to reach the total
        with pytest.raises(FloatingPointError) as budget:
            integrate(grid, init, conformal, tau_end=1.0)
        assert str(budget.value) == (
            f"conformal-nonlinear rk4 with dt = {dt!r} needs {steps[-1]} steps by tau = {times[first + 1]!r}, "
            f"past the budget of {steps[-1] - 1} steps (alpha = 2.0)"
        )
        with pytest.raises(FloatingPointError, match="past the stability bound") as stability:
            integrate(grid, init, linear, tau_end=1.0)
        assert str(stability.value).startswith(f"subcritical-linear rk4 step h = {longest!r} (dt = {dt!r})")
        # the interval with no step alone passes both checks: no step at all, and no step past the bound
        monkeypatch.setattr(deformflow.flow, "snapshot_times", lambda *args: times[:2])
        monkeypatch.setattr(deformflow.flow, "MAX_STEPS", 0)
        assert integrate(grid, init, conformal, tau_end=1.0).profiles.tolist() == [[4.0, 4.0]] * 2
        with pytest.raises(TypeError, match="not callable"):
            integrate(grid, init, linear, tau_end=1.0)

    def test_plan_names_the_first_interval_dt_cannot_step_across(self):
        times = [0.0, 0.5, 1.0, 1.25]
        with pytest.raises(FloatingPointError) as want:
            split_segment_loop(0.5, 1e-310, 7.0)
        with pytest.raises(FloatingPointError) as got:
            deformflow.flow._step_plan(times, 1e-310, 7.0)
        assert str(got.value) == str(want.value) == "dt = 1e-310 is too small to step across 0.5 (alpha = 7.0)"

    def test_conformal_default_step_close_to_tau_star_matches_or_raises(self):
        # tau* = 0.25: C falls to 0.0063, where the rate 2 k / C^2 is 5e4 and dt = 1e-3 is 50 / rate
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR)
        try:
            traj = integrate(VelocityGrid((0.1, 0.5)), (1.0, 1.0), cfg, tau_end=0.24999)
        except (FloatingPointError, FlowDomainError):
            return
        np.testing.assert_allclose(traj.profiles[-1], math.sqrt(1.0 - 4.0 * 0.24999), rtol=1e-7, atol=1e-9)

    @pytest.mark.skipif(given is None, reason="needs Hypothesis")
    def test_every_draw_matches_its_closed_form_or_raises_in_bounded_work(self, deadline):
        @settings(max_examples=300, deadline=None)
        @given(
            st.sampled_from(REGIMES),
            st.sampled_from(METHODS),
            log_uniform(1e-2, 1e2),  # alpha
            log_uniform(1e-2, 1.0),  # beta_max
            st.one_of(st.none(), log_uniform(1e-4, 10.0)),  # dt
            log_uniform(0.1, 100.0),  # C0
            log_uniform(1e-2, 10.0),  # tau_end
            st.one_of(st.none(), log_uniform(1e-2, 10.0)),  # snapshot_every: the plan's intervals
            st.integers(2, 17),
        )
        def check(regime, method, alpha, beta_max, dt, c0, tau_end, every, n):
            grid = VelocityGrid.uniform(beta_max, n)
            cfg = FlowConfig(regime=regime, alpha=alpha, K=1.0, dt=dt, method=method)
            try:
                with deadline(10.0):
                    traj = integrate(grid, (c0,) * n, cfg, tau_end, every)
            except (FloatingPointError, FlowDomainError, ValueError):
                return
            assert np.isfinite(traj.profiles).all()
            taus = np.broadcast_to(traj.taus[:, None], traj.profiles.shape)
            if regime == CONFORMAL_NONLINEAR:
                want, target = analytic_conformal(taus, c0, cfg), None
            elif regime == SECOND_ORDER:
                want, target = second_order_solution(grid.samples, alpha, c0 - PI, taus), PI
            else:
                want, target = analytic_linear(grid.samples, taus, c0, cfg), relaxation_target(grid.samples, cfg)
            if target is not None and method == "rk4":  # |R(z)| <= 1 inside both stability bounds
                assert (np.abs(traj.profiles - target) <= np.abs(c0 - target) * (1.0 + 1e-9)).all()
            # the conformal oracle tests above reach 0.9 tau*; closer to tau* see the default-step test above
            if (dt is None or method == "adaptive-rk") and (target is not None or tau_end <= 0.9 * c0 * c0 / 4.0):
                np.testing.assert_allclose(traj.profiles, want, rtol=1e-7, atol=1e-9)

        check()


def symmetry(regime, s):
    """The factors on alpha, on C and on every time that map a run to another run of the same regime.

    Linear: alpha s, tau / s.  Second-order: alpha s^2, tau / s.
    Conformal: C s, tau s^2, since dC/dtau = -2 k / C.
    """
    if regime in LINEAR_REGIMES:
        return s, 1.0, 1.0 / s
    if regime == SECOND_ORDER:
        return s * s, 1.0, 1.0 / s
    return 1.0, s, s * s


def integrate_or_refusal(grid, init, cfg, tau_end, every):
    """The trajectory, or the type of the exception integrate refused with."""
    try:
        return integrate(grid, init, cfg, tau_end, every)
    except (ArithmeticError, ValueError) as exc:  # FlowDomainError is an ArithmeticError
        return type(exc)


def assert_scaled_run_is_the_scaled_trajectory(cfg, grid, init, tau_end, every, s):
    """With s a power of 2, every factor of symmetry() is exact, so each rounding scales with the run."""
    on_alpha, on_c, on_tau = symmetry(cfg.regime, s)
    scaled = replace(cfg, alpha=cfg.alpha * on_alpha, dt=cfg.dt * on_tau)
    times = tau_end * on_tau, None if every is None else every * on_tau
    one = integrate_or_refusal(grid, init, cfg, tau_end, every)
    two = integrate_or_refusal(grid, np.multiply(init, on_c), scaled, *times)
    if isinstance(one, type) or isinstance(two, type):
        assert one == two
        return
    assert np.array_equal(two.taus, one.taus * on_tau)
    assert np.array_equal(two.profiles, one.profiles * on_c)


EQUIVARIANT = [(regime, "rk4") for regime in REGIMES] + [(regime, "adaptive-rk") for regime in LINEAR_REGIMES]


class TestScalingSymmetries:
    @pytest.mark.skipif(given is None, reason="needs Hypothesis")
    def test_scaled_config_gives_the_scaled_trajectory(self):
        @settings(max_examples=60, deadline=None)
        @given(
            st.sampled_from(EQUIVARIANT),
            st.sampled_from([-5, -3, -1, 1, 2, 4]),  # s = 2^j
            log_uniform(0.1, 10.0),  # alpha
            st.floats(0.0, 2.0),  # K
            log_uniform(1e-3, 1.0),  # k_curv
            log_uniform(0.1, 1.0),  # beta_max
            st.lists(log_uniform(0.5, 5.0), min_size=2, max_size=9),  # the initial profile
            log_uniform(1e-2, 3.0),  # tau_end
            log_uniform(0.7, 200.0),  # tau_end / dt: the remainder steps vary
            st.one_of(st.none(), st.floats(0.05, 1.0)),  # snapshot_every / tau_end
        )
        def check(pair, j, alpha, K, k_curv, beta_max, init, tau_end, steps, every):
            regime, method = pair
            cfg = FlowConfig(regime=regime, method=method, alpha=alpha, K=K, k_curv=k_curv, dt=tau_end / steps)
            grid = VelocityGrid.uniform(beta_max, len(init))
            every = None if every is None else every * tau_end
            assert_scaled_run_is_the_scaled_trajectory(cfg, grid, init, tau_end, every, 2.0**j)

        check()

    @pytest.mark.parametrize("j", [-3, 1, 300])  # at s = 2^300, C^2 overflows and the rate is formed scaled
    def test_conformal_stability_refusal_is_the_scaled_refusal(self, j):
        # C s with dt and tau_end s^2: h scales by s^2 and the rate 2 k / C_min^2 at tau_end by s^-2
        for s in (1.0, 2.0**j):
            dt = 0.05 * s * s  # no snapshot between, so every step is dt
            cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, dt=dt)
            with pytest.raises(FloatingPointError) as refusal:
                integrate(VelocityGrid((0.1, 0.5)), (s, s), cfg, 0.2499 * s * s)
            assert str(refusal.value) == (
                f"conformal-nonlinear rk4 step h = {dt!r} (dt = {dt!r}) is past the stability bound: "
                f"kappa_end * h = 250.0000000000275 > 2.785293563405282 (k_curv = 1.0)"
            )

    @pytest.mark.xfail(
        strict=True, reason="adaptive-rk weighs its error by tol (1 + |y|), which does not scale with C or dC/dtau"
    )
    @pytest.mark.parametrize("regime", [CONFORMAL_NONLINEAR, SECOND_ORDER])
    def test_scaled_adaptive_config_gives_the_scaled_trajectory(self, regime):
        cfg = FlowConfig(regime=regime, method="adaptive-rk", alpha=2.0, k_curv=0.5, dt=0.01)
        init = (3.0, 3.5, 4.0, 4.5)
        assert_scaled_run_is_the_scaled_trajectory(cfg, VelocityGrid.uniform(1.0, 4), init, 1.0, 0.25, 8.0)

    def test_cli_runs_at_two_scales_write_the_same_profiles(self, tmp_path):
        columns = []
        for alpha, dt, tau_end in (("1.5", "0.003", "2"), ("6", "0.00075", "0.5")):
            cfg, out = tmp_path / f"{alpha}.cfg", tmp_path / f"{alpha}.csv"
            cfg.write_text(
                f"regime = supercritical-linear\nalpha = {alpha}\nK = 0.5\ndt = {dt}\ngrid.beta_max = 1\n", encoding="utf-8"
            )
            argv = ["flow", "--config", str(cfg), "--tau-end", tau_end, "--out", str(out)]
            assert deformflow.cli.main(argv) == deformflow.cli.EXIT_OK
            lines = out.read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines if line and not line.startswith("#")]
            columns.append([row[1:] for row in rows[1:]])
        assert len(columns[0]) == 11 * 65 and columns[0] == columns[1]
