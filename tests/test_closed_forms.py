"""The closed forms take a float or an array: arrays match the scalar arithmetic bit for bit."""

import math

import numpy as np
import pytest

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # only the property tests need it
    given = None

from deformflow import (
    CONFORMAL_NONLINEAR,
    LINEAR_REGIMES,
    SUPERCRITICAL_LINEAR,
    FlowConfig,
    FlowDomainError,
    FlowState,
    ManifoldSpec,
    PotentialParams,
    VelocityGrid,
    analytic_conformal,
    analytic_linear,
    c_supercritical_limit,
    conformal_rescale,
    critical_beta,
    dirichlet_energy,
    energy_density,
    flow_invariant_scaling,
    geometric_measures,
    l2_energy,
    l2_energy_rate,
    linearized_alpha,
    relaxation_target,
    relaxation_time,
    rhs,
    second_order_solution,
    unique_quadratic_profile,
    velocity_ratio,
)

PI = math.pi
BETA_C = critical_beta()
NAN = math.nan


# The scalar bodies that the array forms replaced, kept as their references.


def c_supercritical_limit_loop(beta, K, c=1.0):
    bc = beta * c
    return math.pi + K / (bc * bc)


def relaxation_target_loop(beta, cfg):
    if beta <= critical_beta():
        return math.pi
    return c_supercritical_limit_loop(beta, cfg.K, cfg.c)


def rhs_loop(C, beta, cfg):
    if cfg.regime in LINEAR_REGIMES:
        return -cfg.alpha * beta * beta * (C - relaxation_target_loop(beta, cfg))
    return -2.0 * cfg.k_curv / C


def analytic_linear_loop(beta, tau, C_init, cfg):
    target = relaxation_target_loop(beta, cfg)
    kappa = cfg.alpha * beta * beta
    return target + (C_init - target) * math.exp(-kappa * tau)


def analytic_conformal_loop(tau, C_init, cfg):
    k = cfg.k_curv
    tau_star = C_init * C_init / (4.0 * k)
    if tau >= tau_star:
        raise FlowDomainError(f"conformal flow exhausts its domain at tau* = {tau_star!r}", tau_star=tau_star)
    return math.sqrt(C_init * C_init - 4.0 * k * tau)


def relaxation_time_loop(beta, alpha):
    return 1.0 / (alpha * beta * beta)


def second_order_solution_loop(beta, alpha, deltaC0, tau):
    omega = beta * math.sqrt(alpha)
    return math.pi + deltaC0 * math.cos(omega * tau)


def energy_density_loop(C, dC_dtau, grad_C, params):
    dev = C - math.pi
    return 0.5 * dC_dtau * dC_dtau + 0.5 * grad_C * grad_C + 0.5 * params.lam * dev * dev


def elementwise(f, *args):
    """f on Python floats, one broadcast element at a time, as a float64 array."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    flat = [f(*xs) for xs in zip(*(a.ravel().tolist() for a in arrays))]
    return np.array(flat, dtype=float).reshape(arrays[0].shape)


def assert_bitwise(got, want):
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


if given is not None:
    # Every draw holds beta = 0, beta_c exactly and its neighbours, and beta = 1, as a column,
    # against a row of times that holds tau = 0; K is 0 in one draw of several.
    betas = st.lists(st.floats(0.0, 1.0), max_size=12).map(
        lambda xs: np.array([0.0, np.nextafter(BETA_C, 0.0), BETA_C, np.nextafter(BETA_C, 1.0), 1.0, *xs])[:, None]
    )
    taus = st.lists(st.floats(0.0, 50.0), max_size=8).map(lambda xs: np.array([0.0, *xs])[None, :])
    fractions = st.lists(st.floats(0.0, 0.999), max_size=8).map(lambda xs: np.array([0.0, *xs])[None, :])
    offsets = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    alphas = st.floats(1e-3, 1e3)
    speeds = st.floats(0.1, 10.0)
    values = st.floats(-10.0, 10.0)
    linear_configs = st.builds(
        FlowConfig, regime=st.sampled_from(LINEAR_REGIMES), alpha=alphas, c=speeds, K=offsets
    )


@pytest.mark.skipif(given is None, reason="needs Hypothesis")
class TestArraysMatchTheScalarLoops:
    def test_relaxation_target(self):
        @given(betas, linear_configs)
        def check(beta, cfg):
            want = elementwise(lambda b: relaxation_target_loop(b, cfg), beta)
            assert_bitwise(relaxation_target(beta, cfg), want)

        check()

    def test_c_supercritical_limit(self):
        @given(betas, offsets, speeds)
        def check(beta, K, c):
            beta = beta[beta[:, 0] >= 1e-100]  # beta > 0; below 1e-100 the scalar body can divide by 0
            want = elementwise(c_supercritical_limit_loop, beta, K, c)
            assert_bitwise(c_supercritical_limit(beta, K, c), want)

        check()

    def test_rhs_linear(self):
        @given(betas, values, linear_configs)
        def check(beta, C, cfg):
            assert_bitwise(rhs(C, beta, cfg), elementwise(lambda c, b: rhs_loop(c, b, cfg), C, beta))

        check()

    def test_rhs_conformal(self):
        @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8), st.floats(0.1, 10.0))
        def check(cs, k):
            cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=k)
            C = np.array(cs)  # beta only names a sample in an error
            assert_bitwise(rhs(C, 0.5, cfg), elementwise(lambda c: rhs_loop(c, 0.5, cfg), C))

        check()

    def test_analytic_linear(self):
        @given(betas, taus, values, linear_configs)
        def check(beta, tau, c0, cfg):
            want = elementwise(lambda b, t: analytic_linear_loop(b, t, c0, cfg), beta, tau)
            assert_bitwise(analytic_linear(beta, tau, c0, cfg), want)

        check()

    def test_analytic_conformal(self):
        @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12), fractions, st.floats(0.1, 10.0))
        def check(cs, fraction, k):
            cfg = FlowConfig(regime=CONFORMAL_NONLINEAR, k_curv=k)
            c0 = np.array(cs)[:, None]
            tau = fraction * (c0 * c0 / (4.0 * k))  # short of tau* everywhere
            want = elementwise(lambda t, c: analytic_conformal_loop(t, c, cfg), tau, c0)
            assert_bitwise(analytic_conformal(tau, c0, cfg), want)

        check()

    def test_relaxation_time(self):
        @given(betas, alphas)
        def check(beta, alpha):
            beta = beta[beta[:, 0] >= 1e-100]  # beta > 0; below 1e-100 the scalar body can divide by 0
            assert_bitwise(relaxation_time(beta, alpha), elementwise(relaxation_time_loop, beta, alpha))

        check()

    def test_second_order_solution(self):
        @given(betas, alphas, values, taus)
        def check(beta, alpha, d0, tau):
            want = elementwise(second_order_solution_loop, beta, alpha, d0, tau)
            assert_bitwise(second_order_solution(beta, alpha, d0, tau), want)

        check()

    def test_energy_density(self):
        @given(betas, taus, st.floats(0.0, 10.0))
        def check(beta, tau, lam):
            params = PotentialParams(lam)
            C, rate, grad = PI * (1.0 - beta * beta), -tau, 2.0 * beta  # three shapes broadcast
            want = elementwise(lambda c, r, g: energy_density_loop(c, r, g, params), C, rate, grad)
            assert_bitwise(energy_density(C, rate, grad, params), want)

        check()


class TestFloatInFloatOut:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: relaxation_target(0.9, FlowConfig(regime=SUPERCRITICAL_LINEAR, K=1.0)),
            lambda: relaxation_target(0.3, FlowConfig()),
            lambda: rhs(4.0, 0.5, FlowConfig()),
            lambda: rhs(2.0, 0.5, FlowConfig(regime=CONFORMAL_NONLINEAR)),
            lambda: analytic_linear(0.5, 1.0, 4.0, FlowConfig()),
            lambda: analytic_conformal(0.5, 2.0, FlowConfig(regime=CONFORMAL_NONLINEAR)),
            lambda: relaxation_time(0.5, 2.0),
            lambda: second_order_solution(0.5, 4.0, 0.25, 1.0),
            lambda: c_supercritical_limit(0.9, 1.0),
            lambda: energy_density(PI + 1.0, 0.5, 0.25, PotentialParams(2.0)),
            lambda: analytic_linear(np.float64(0.5), np.float64(1.0), np.float64(4.0), FlowConfig()),
        ],
        ids=["target-above", "target-below", "rhs-linear", "rhs-conformal", "linear", "conformal", "relaxation-time",
             "second-order", "supercritical", "density", "linear-numpy-scalars"],
    )
    def test_a_float_argument_returns_a_float(self, call):
        assert type(call()) is float


class TestArrayErrorsNameTheFirstBadValue:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: relaxation_target(np.array([0.2, 1.5, -1.0]), FlowConfig()), r"beta must lie in \[0, 1\], got 1.5"),
            (lambda: analytic_linear(0.5, np.array([0.0, -2.0, -3.0]), 4.0, FlowConfig()), "tau .* got -2.0"),
            (lambda: analytic_linear(0.5, 1.0, np.array([4.0, NAN]), FlowConfig()), "C_init must be finite, got nan"),
            (lambda: relaxation_time(np.array([0.5, 0.0, -1.0]), 1.0), "0 < beta <= 1, got 0.0"),
            (lambda: second_order_solution(0.5, 1.0, np.array([0.0, math.inf, NAN]), 1.0), "deltaC0 .* got inf"),
            (lambda: c_supercritical_limit(np.array([0.9, -0.5, 0.0]), 1.0), "beta .* got -0.5"),
            (lambda: energy_density(1.0, np.array([0.0, -math.inf, NAN]), 0.0, PotentialParams()), "dC_dtau .* got -inf"),
        ],
        ids=["target", "linear-tau", "linear-c0", "relaxation-time", "second-order", "supercritical", "density"],
    )
    def test_value_error(self, call, message):
        with pytest.raises(ValueError, match=rf"{message}$"):
            call()

    @pytest.mark.parametrize(
        "call, bad",
        [
            (lambda: c_supercritical_limit(1e-200, 0.0), "1e-200"),
            (lambda: c_supercritical_limit(np.array([0.9, 1e-200, 5e-324]), 1.0), "1e-200"),
            (lambda: relaxation_time(1e-200, 1.0), "1e-200"),
            (lambda: relaxation_time(np.array([0.5, 1e-170, 1e-200]), 1.0), "1e-170"),
        ],
        ids=["supercritical-float", "supercritical-array", "relaxation-time-float", "relaxation-time-array"],
    )
    def test_underflowing_beta_is_named(self, call, bad):
        # (beta c)^2 and alpha beta^2 underflow to 0, and 1e-200 also under K = 0 gives 0 / 0
        with pytest.raises(ValueError, match=rf"^beta is too small: .* is not finite, got {bad}$"):
            call()

    def test_conformal_closed_form_names_the_first_exhausted_sample(self):
        cfg = FlowConfig(regime=CONFORMAL_NONLINEAR)
        tau, c0 = np.array([0.5, 1.0, 3.0]), np.array([2.0, 1.0, 1.0])  # tau* = 1.0, 0.25, 0.25
        with pytest.raises(FlowDomainError, match=r"tau\* = 0.25 \(requested tau = 1.0\)$") as info:
            analytic_conformal(tau, c0, cfg)
        assert type(info.value.tau_star) is float and info.value.tau_star == 0.25

    def test_conformal_rhs_names_the_first_sample_outside_the_domain(self):
        with pytest.raises(FlowDomainError, match=r"\(C = 0.0\)$") as info:
            rhs(np.array([1.0, 0.0, -1.0]), np.array([0.1, 0.2, 0.3]), FlowConfig(regime=CONFORMAL_NONLINEAR))
        assert type(info.value.beta) is float and info.value.beta == 0.2


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: l2_energy(FlowState(0.0, (PI,) * 5), VelocityGrid.uniform(BETA_C, 5), c=NAN), "c"),
        (lambda: l2_energy_rate(FlowState(0.0, (PI,) * 5), VelocityGrid.uniform(BETA_C, 5), alpha=NAN), "alpha"),
        (lambda: dirichlet_energy(np.ones(5), c=NAN), "c"),
        (lambda: dirichlet_energy(np.ones(5), c=math.inf), "c"),
        (lambda: c_supercritical_limit(0.9, 1.0, c=NAN), "c"),
        (lambda: c_supercritical_limit(NAN, 1.0), "beta"),
        (lambda: c_supercritical_limit(0.9, NAN), "K"),
        (lambda: geometric_measures(0.5, NAN), "diameter"),
        (lambda: velocity_ratio(0.5, c=NAN), "c"),
        (lambda: unique_quadratic_profile(c=math.inf), "c"),
        (lambda: FlowConfig(alpha=NAN), "alpha"),
        (lambda: FlowConfig(c=NAN), "c"),
        (lambda: FlowConfig(K=math.inf), "K"),
        (lambda: FlowConfig(dt=NAN), "dt"),
        (lambda: PotentialParams(lam=NAN), "lambda"),
        (lambda: linearized_alpha(NAN), "k_curv"),
        (lambda: relaxation_time(0.5, NAN), "alpha"),
        (lambda: ManifoldSpec(6.0, NAN), "volume"),
        (lambda: conformal_rescale(ManifoldSpec(6.0, 1.0), NAN), "scale factor"),
        (lambda: flow_invariant_scaling(NAN, 6.0, 1.0), "conformal factor"),
    ],
    ids=["l2_energy", "l2_energy_rate", "dirichlet-nan", "dirichlet-inf", "supercritical-c", "supercritical-beta",
         "supercritical-K", "geometric_measures", "velocity_ratio", "unique_quadratic_profile", "config-alpha",
         "config-c", "config-K", "config-dt", "potential", "linearized_alpha", "relaxation_time", "manifold",
         "conformal_rescale", "flow_invariant_scaling"],
)
def test_nan_and_inf_parameters_raise_and_name_the_parameter(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        call()

