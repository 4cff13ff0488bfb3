"""Relaxation flows of the deformation factor over a grid of speed ratios.

Three first-order regimes and one second-order regime share a common
integrator:

* ``subcritical-linear`` / ``supercritical-linear``:
  dC/dtau = -alpha beta^2 (C - target), where the target is pi below the
  critical ratio and pi + K/(beta c)^2 at or above it.  Samples exactly at
  the critical ratio use the subcritical target (deterministic tie-break;
  the audit table notes that the two targets disagree there unless K = 0).
* ``conformal-nonlinear``: dC/dtau = -2 k / C, which drives C to 0 in the
  finite time tau* = C(0)^2 / (4 k).
* ``second-order``: d^2C/dtau^2 + alpha beta^2 (C - pi) = 0, an undamped
  oscillation; the first-order flows are its overdamped limit.

Grid samples are decoupled, but the integrator advances the whole grid as
one array state: classical rk4 with a fixed step, in closed form with one
or two numbers per sample for the linear and second-order regimes, or the
Dormand-Prince 5(4) pair with one adaptive step sequence for every sample.
That pair reuses the last stage of a step as the first of the next (FSAL),
sizes its steps with a PI controller and lands a step on every snapshot
time (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .deform import _check_beta, _first, _libm, _require, _require_positive, _scalar
from .deform import c_supercritical_limit, critical_beta

__all__ = [
    "SUBCRITICAL_LINEAR",
    "SUPERCRITICAL_LINEAR",
    "CONFORMAL_NONLINEAR",
    "SECOND_ORDER",
    "REGIMES",
    "LINEAR_REGIMES",
    "METHODS",
    "MAX_SNAPSHOT_VALUES",
    "MAX_STEPS",
    "FlowDomainError",
    "FlowConfig",
    "VelocityGrid",
    "FlowState",
    "Trajectory",
    "relaxation_target",
    "rhs",
    "analytic_linear",
    "analytic_conformal",
    "integrate",
    "snapshot_times",
    "linearized_alpha",
    "relaxation_time",
    "second_order_solution",
]

SUBCRITICAL_LINEAR = "subcritical-linear"
SUPERCRITICAL_LINEAR = "supercritical-linear"
CONFORMAL_NONLINEAR = "conformal-nonlinear"
SECOND_ORDER = "second-order"
REGIMES = (SUBCRITICAL_LINEAR, SUPERCRITICAL_LINEAR, CONFORMAL_NONLINEAR, SECOND_ORDER)
LINEAR_REGIMES = (SUBCRITICAL_LINEAR, SUPERCRITICAL_LINEAR)

RK4 = "rk4"
ADAPTIVE_RK = "adaptive-rk"
METHODS = (RK4, ADAPTIVE_RK)

# Relative slack used when comparing accumulated times against boundaries.
_TIME_RTOL = 1e-12
# rk4 is stable for h lambda on [-2.785293563405282, 0] of the real axis and within 2 sqrt(2) of 0 on
# the imaginary axis (Hairer & Wanner, Solving ODEs II, IV.2): kappa dt and omega dt must stay inside.
_RK4_REAL_BOUND = 2.785293563405282
_RK4_IMAG_BOUND = 2.0 * math.sqrt(2.0)
# Most profile values a trajectory may store (512 MiB of float64).  integrate fills one buffer
# of them and the Trajectory adopts it, so they are held once.
MAX_SNAPSHOT_VALUES = 2**26
# Most conformal rk4 steps, or attempted adaptive-rk steps, in a run: steps, not work.  A second-order Dormand-Prince
# attempt takes ~0.035 ms at grid.n = 257, 1.3 ms at 2**16 and 42 ms at 2**20 on a 2 vCPU AMD EPYC, so the longest
# run admitted grows from ~3 s at 257 to ~1 h at 2**20; nothing bounds steps times samples yet.
MAX_STEPS = 80_000


class FlowDomainError(ArithmeticError):
    """The conformal flow left its domain: C reaches 0 at finite tau*."""

    def __init__(self, message: str, beta: float | None = None, tau_star: float | None = None):
        super().__init__(message)
        self.beta = beta
        self.tau_star = tau_star


class _Fresh(np.ndarray):
    """array.view(_Fresh) marks a float64 array that the package has just built, holds nowhere
    else and will not write again, for _read_only to adopt."""


def _read_only(values) -> np.ndarray:
    """values as a read-only float64 array.

    A _Fresh view is adopted without a copy.  Anything else, a caller's
    array writeable or not, is copied, so later writes to the caller's
    array cannot reach the result.  A list or tuple is read in one pass by
    np.fromiter; one it refuses, such as a nested or non-numeric one, goes
    to np.array, which gives the same exception or the nested shape.
    """
    if type(values) is _Fresh:
        array = values.view(np.ndarray)
    elif isinstance(values, (list, tuple)):
        try:
            array = np.fromiter(values, float, len(values))
        except (TypeError, ValueError, OverflowError):
            array = np.array(values, dtype=float)
    else:
        array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class FlowConfig:
    """Parameters shared by every flow run.

    ``dt = None`` asks the integrator for its default step,
    min(1e-3, 0.01 / kappa_max) with kappa_max the fastest linear rate on
    the grid (the conformal regime substitutes its initial rate scale).
    """

    regime: str = SUBCRITICAL_LINEAR
    alpha: float = 1.0
    c: float = 1.0
    K: float = 0.0
    k_curv: float = 1.0
    dt: float | None = None
    method: str = RK4
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for name in ("alpha", "c", "k_curv", "tol"):
            _require_positive(getattr(self, name), name)
        # a finite 4 k keeps tau* = C^2 / (4 k) and -2 k / C from inf / inf = NaN
        k_max = sys.float_info.max / 4.0
        _require(self.k_curv, self.k_curv <= k_max, f"k_curv must be <= {k_max!r} so that 4 * k_curv is finite")
        if self.dt is not None:
            _require_positive(self.dt, "dt")
        _require(self.K, np.isfinite(self.K) & (self.K >= 0.0), "K must be finite and >= 0")


@dataclass(frozen=True, eq=False)  # arrays have no single truth value, so == is identity
class VelocityGrid:
    """Strictly increasing speed-ratio samples in [0, 1], a read-only float64 array."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = _read_only(self.samples)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValueError(f"grid samples must be 1-d, got shape {samples.shape}")
        if samples.size < 2:
            raise ValueError(f"grid needs at least 2 samples, got {samples.size}")
        # Strictly increasing samples lie in [0, 1] when their ends do.  NaN fails every comparison,
        # and on failure the full range check runs first, so its message names the first bad value.
        if not (samples[0] >= 0.0 and samples[-1] <= 1.0 and (samples[1:] > samples[:-1]).all()):
            _check_beta(samples, "grid samples")
            raise ValueError("grid samples must be strictly increasing")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def beta_max(self) -> float:
        return float(self.samples[-1])

    @classmethod
    def uniform(cls, beta_max: float, n: int, beta_min: float = 0.0) -> "VelocityGrid":
        """Evenly spaced grid over [beta_min, beta_max] with exact endpoints."""
        if n < 2:
            raise ValueError(f"grid needs at least 2 samples, got {n}")
        if not 0.0 <= beta_min < beta_max <= 1.0:
            raise ValueError(
                f"need 0 <= beta_min < beta_max <= 1, got [{beta_min!r}, {beta_max!r}]"
            )
        return cls(np.linspace(beta_min, beta_max, n).view(_Fresh))


@dataclass(frozen=True, eq=False)
class FlowState:
    """One snapshot: the profile of C over the grid at time tau, a read-only float64 array."""

    tau: float
    profile: np.ndarray

    def __post_init__(self) -> None:
        _require(self.tau, np.isfinite(self.tau) & (self.tau >= 0.0), "tau must be finite and >= 0")
        profile = _read_only(self.profile)
        object.__setattr__(self, "profile", profile)
        if profile.ndim != 1:
            raise ValueError(f"profile must be 1-d, got shape {profile.shape}")
        if not profile.size:
            raise ValueError("profile must not be empty")
        _require(profile, np.isfinite(profile), "profile values must be finite")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered snapshots of one flow run on a fixed grid.

    taus has shape (m,) and profiles has shape (m, grid.n), both float64
    and read-only; states gives the same snapshots as FlowState objects.
    """

    grid: VelocityGrid
    config: FlowConfig
    taus: np.ndarray
    profiles: np.ndarray

    def __post_init__(self) -> None:
        taus, profiles = _read_only(self.taus), _read_only(self.profiles)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "profiles", profiles)
        if taus.ndim != 1 or taus.size == 0:
            raise ValueError("trajectory needs at least one state")
        if profiles.shape != (taus.size, self.grid.n):
            raise ValueError(
                f"profiles have shape {profiles.shape} for {taus.size} states on a grid of {self.grid.n}"
            )
        _require(taus, np.isfinite(taus) & (taus >= 0.0), "tau must be finite and >= 0")
        _require(profiles, np.isfinite(profiles), "profile values must be finite")
        if not (np.diff(taus) > 0.0).all():
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def states(self) -> tuple[FlowState, ...]:
        return tuple(FlowState(tau=t, profile=p) for t, p in zip(self.taus.tolist(), self.profiles))


def relaxation_target(beta, cfg: FlowConfig):
    """Fixed point of the linear flow at beta, a float or an array.

    pi below (and exactly at) the critical ratio, pi + K/(beta c)^2 above.
    """
    _check_beta(beta)
    beta = np.asarray(beta, dtype=float)
    above = beta > critical_beta()
    target = np.full(beta.shape, math.pi)
    target[above] = c_supercritical_limit(beta[above], cfg.K, cfg.c)
    return _scalar(target)


def rhs(C, beta, cfg: FlowConfig):
    """Instantaneous dC/dtau for the configured first-order regime, for floats or arrays."""
    _require(C, np.isfinite(C), "C must be finite")
    if cfg.regime in LINEAR_REGIMES:
        target = relaxation_target(beta, cfg)
        return _scalar(-cfg.alpha * beta * beta * (C - target))
    if cfg.regime == CONFORMAL_NONLINEAR:
        undefined = np.less_equal(C, 0.0)
        if undefined.any():
            c, b = _first(undefined, C, beta)
            raise FlowDomainError(f"conformal derivative undefined at C <= 0 (C = {c!r})", beta=b)
        return _scalar(-2.0 * cfg.k_curv / C)
    raise ValueError(
        "second-order regime evolves the pair (C, dC/dtau); "
        "use integrate or second_order_solution"
    )


def analytic_linear(beta, tau, C_init, cfg: FlowConfig):
    """Closed-form linear relaxation target + (C_init - target) exp(-kappa tau), for floats or arrays."""
    if cfg.regime not in LINEAR_REGIMES:
        raise ValueError(f"analytic_linear requires a linear regime, got {cfg.regime!r}")
    _require(tau, np.isfinite(tau) & (tau >= 0.0), "tau must be finite and >= 0")
    _require(C_init, np.isfinite(C_init), "C_init must be finite")
    target = relaxation_target(beta, cfg)
    kappa = cfg.alpha * beta * beta
    return _scalar(target + (C_init - target) * _libm(math.exp, -kappa * tau))


def analytic_conformal(tau, C_init, cfg: FlowConfig):
    """Closed-form conformal decay sqrt(C_init^2 - 4 k tau), for floats or arrays.

    Defined for tau < tau* = C_init^2 / (4 k); at or beyond tau* the flow
    has exhausted its domain and a FlowDomainError names the first such sample.
    """
    if cfg.regime != CONFORMAL_NONLINEAR:
        raise ValueError(f"analytic_conformal requires the conformal regime, got {cfg.regime!r}")
    _require(tau, np.isfinite(tau) & (tau >= 0.0), "tau must be finite and >= 0")
    _require_positive(C_init, "C_init")
    s, tau_star, remainder = _conformal_scale(C_init, cfg.k_curv, tau)
    exhausted = np.greater_equal(tau, tau_star)
    if exhausted.any():
        t, star = _first(exhausted, tau, tau_star)
        raise FlowDomainError(
            f"conformal flow exhausts its domain at tau* = {star!r} (requested tau = {t!r})",
            tau_star=star,
        )
    return _scalar(np.sqrt(remainder) / s)


def _conformal_scale(C, k: float, tau=0.0):
    """(s, tau*, s^2 C(tau)^2) for C > 0: s is 2**-512 where C^2 overflows and 1 elsewhere, so (C s)^2 is finite.

    tau* = C^2 / (4 k) is (C s)^2 / (4 k s) / s, which is inf, as from a
    subnormal k, only where tau* is past the largest float.  The remainder
    s^2 (C^2 - 4 k tau) is (C s)^2 - 4 k s (tau s), finite for tau < tau*;
    where s < 1, 4 k s and tau s may underflow, which loses only what lies
    far below the ulp of (C s)^2 >= 1.  Scaling by a power of two is exact,
    so where s is 1 the digits are those of C^2 / (4 k) and C^2 - 4 k tau.
    """
    with np.errstate(over="ignore", divide="ignore"):
        s = np.where(np.isinf(C * C), 2.0**-512, 1.0)
        c = C * s
        return s, c * c / (4.0 * k * s) / s, c * c - 4.0 * k * s * (tau * s)


def linearized_alpha(k_curv: float) -> float:
    """Sensitivity 2 k / pi^2 of the conformal derivative at C = pi.

    The conformal flow has no fixed point at pi, but nearby trajectories
    separate at this rate, which plays the role of the linear coefficient
    alpha for small departures from pi.
    """
    _require_positive(k_curv, "k_curv")
    return 2.0 * k_curv / (math.pi * math.pi)


def relaxation_time(beta, alpha):
    """Linear-flow e-folding time 1 / (alpha beta^2), for floats or arrays; diverges as beta -> 0.

    A beta so small that alpha beta^2 underflows and the time is not finite raises ValueError.
    """
    _require_positive(alpha, "alpha")
    _require(beta, (beta > 0.0) & (beta <= 1.0), "relaxation time requires 0 < beta <= 1")
    with np.errstate(divide="ignore", over="ignore"):
        time = 1.0 / np.asarray(alpha * beta * beta)
    _require(beta, np.isfinite(time), "beta is too small: 1 / (alpha beta^2) is not finite")
    return _scalar(time)


def second_order_solution(beta, alpha, deltaC0, tau):
    """Undamped oscillation pi + deltaC0 cos(omega tau), omega = beta sqrt(alpha), for floats or arrays.

    Starts from C = pi + deltaC0 with zero initial rate.
    """
    _require_positive(alpha, "alpha")
    _check_beta(beta)
    _require(tau, np.isfinite(tau) & (tau >= 0.0), "tau must be finite and >= 0")
    _require(deltaC0, np.isfinite(deltaC0), "deltaC0 must be finite")
    omega = beta * np.sqrt(alpha)
    return _scalar(math.pi + deltaC0 * np.cos(omega * tau))


# ---------------------------------------------------------------------------
# integrator internals


def snapshot_times(tau_end: float, snapshot_every: float | None, n: int) -> list[float]:
    """0, the multiples j * snapshot_every short of tau_end, and tau_end.

    snapshot_every = None keeps 0 and tau_end alone.  Raises ValueError,
    before anything of n samples is built, when the snapshots would store
    more than MAX_SNAPSHOT_VALUES profile values on n samples, or make more
    than MAX_STEPS intervals: every method spends Python work per interval.
    """
    _require_positive(tau_end, "tau_end")
    tau_end = float(tau_end)
    if snapshot_every is None:
        snapshot_every = tau_end  # no snapshot falls short of tau_end
    else:
        _require_positive(snapshot_every, "snapshot_every")
    if 2 * n > MAX_SNAPSHOT_VALUES:
        raise ValueError(
            f"grid.n = {n!r} would store more than {MAX_SNAPSHOT_VALUES} values in the first and last "
            "snapshots alone"
        )
    bound = tau_end * (1.0 - _TIME_RTOL)
    # k is the largest j with j * snapshot_every < bound, from above: past the cap (q is inf on overflow) k starts
    # there, and below it snapshot_every >= bound / 2**26, so (ceil(q) + 1) * snapshot_every is well past bound
    k = math.ceil(min(bound / snapshot_every, MAX_SNAPSHOT_VALUES))
    while k > 0 and k * snapshot_every >= bound:
        k -= 1
    if (k + 2) * n > MAX_SNAPSHOT_VALUES:
        raise ValueError(
            f"snapshot_every = {snapshot_every!r} over tau_end = {tau_end!r} would store more than "
            f"{MAX_SNAPSHOT_VALUES} values on {n} samples; raise snapshot_every"
        )
    if k + 1 > MAX_STEPS:
        raise ValueError(
            f"snapshot_every = {snapshot_every!r} over tau_end = {tau_end!r} makes {k + 1} snapshot intervals, "
            f"more than MAX_STEPS = {MAX_STEPS}; raise snapshot_every"
        )
    return [0.0, *(np.arange(1, k + 1) * snapshot_every).tolist(), tau_end]


def _step_plan(times: list[float], dt: float, knob: str) -> list[list[tuple[float, int]]]:
    """Runs of (h, count) per snapshot interval: [(dt, count)], then (rem, 1) when a remainder step is left."""
    gaps = np.diff(times)
    with np.errstate(over="ignore", divide="ignore"):
        steps = gaps / dt
    if not np.isfinite(steps).all():
        (gap,) = _first(~np.isfinite(steps), gaps)
        raise FloatingPointError(f"dt = {dt!r} is too small to step across {gap!r} ({knob})")
    counts = np.floor(steps + 1e-9)
    # Past 2**53 steps count * dt is inexact, so the remainder is capped at one step.
    rems = np.minimum(gaps - counts * dt, dt)
    counts_rems = zip(map(int, counts.tolist()), rems.tolist())
    return [[(dt, n), (rem, 1)] if rem > 1e-9 * dt else [(dt, n)] for n, rem in counts_rems]


def _rk4_step(f, y: np.ndarray, h: float, k: np.ndarray) -> None:
    """One classical rk4 step of y' = f(y) for the whole grid state, written over y.

    f(u, out) writes f(u) into out.  k holds five arrays of y's shape, the
    four stages and a stage state that then takes their sum, so a step
    allocates nothing.  Each operation is that of
    y + h / 6 (k1 + 2 (k2 + k3) + k4) with k2 = f(y + h / 2 k1), ...,
    in the same order, and IEEE sums and products do not depend on the
    order of their operands, so the digits are the allocating formula's.
    """
    k1, k2, k3, k4, s = k
    f(y, k1)
    for stage, ki, c in ((k2, k1, 0.5 * h), (k3, k2, 0.5 * h), (k4, k3, h)):
        np.multiply(c, ki, out=s)
        s += y
        f(s, stage)
    np.add(k2, k3, out=s)
    s *= 2.0
    s += k1
    s += k4
    s *= h / 6.0
    y += s


def _rk4_power(neg_kappa: np.ndarray, h: float, n: int, pair: bool) -> np.ndarray:
    """R(hA)^n - I per sample, with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

    n rk4 steps of u' = A u map u to R(hA)^n u (Hairer, Norsett & Wanner,
    Solving ODEs I, IV.2).  A is -kappa, giving one number d, or for a pair
    [[0, 1], [-kappa, 0]], where (hA)^2 = -s I with s = kappa h^2, the rows
    (d0, d1) of d0 I + d1 hA, whose products are (d0 e0 - s d1 e1, d0 e1 + d1 e0).
    Powering deviations from I, (I + d)(I + e) = I + d + e + de, keeps the
    low bits of d that I + d would round away.
    """
    if pair:
        s = -(h * (h * neg_kappa))
        d = np.array([s * (s / 24.0 - 0.5), 1.0 - s / 6.0])

        def mul(d: np.ndarray, e: np.ndarray) -> np.ndarray:
            return np.array([d[0] * e[0] - s * d[1] * e[1], d[0] * e[1] + d[1] * e[0]])
    else:
        z = h * neg_kappa
        d = z * (1.0 + z * (1.0 + z * (1.0 + z / 4.0) / 3.0) / 2.0)
        mul = np.multiply
    out = np.zeros_like(d)
    while n:
        if n & 1:
            out = out + d + mul(out, d)
        d = 2.0 * d + mul(d, d)
        n >>= 1
    return out


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980).  Row i gives stage i + 2 from the
# derivatives before it; the last row is the 5th-order weights b, so the last stage is the
# derivative at the new state (first same as last).  _DP_E holds b - b_hat over all 7 stages.
_DP_A = tuple(
    np.array(row)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))


def _dp_step(f, y: np.ndarray, k: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One Dormand-Prince step from y, where k[0] = f(y): the 5th-order state and error estimate; k[6] = f(state)."""
    for i, row in enumerate(_DP_A, 1):
        stage = y + h * (row @ k[:i]).reshape(y.shape)
        k[i] = f(stage).ravel()
    return stage, h * (_DP_E @ k).reshape(y.shape)


def _adaptive_segments(f, y: np.ndarray, times: list[float], h: float, cfg: FlowConfig, max_steps: int, knob: str):
    """Dormand-Prince 5(4) over the snapshot times, one step sequence for the whole state.

    Yields the state at each of times[1:].  Every stage calls f, so the
    conformal domain check sees each one, and the last stage of an accepted
    step is the first of the next (FSAL): 6 evaluations per step.  A step
    advances with the 5th-order solution and is accepted when its error
    estimate |e| <= tol (1 + |y|) in every component.  The next step is
    h * 0.9 err^-0.17 err_prev^0.04, clamped to [0.2 h, 5 h], a PI
    controller with the DOPRI5 exponents (Gustafsson, ACM TOMS 17, 1991);
    err is |e| / (tol (1 + |y|)) at its largest, and err_prev that of the
    last accepted step not clipped, at least 1e-4.
    Steps are clipped to land on each snapshot time, so every yielded state
    passed the error test; the step proposed before a clip carries on, and
    the first is h.  A finite step at the floor 1e-14 max(delta, 1) of its
    segment that fails the test raises FloatingPointError, since smaller
    steps would not finish, and so does an attempt past max_steps, counted
    over the whole run, each naming knob; a non-finite state is yielded for the caller to report.
    """
    k = np.empty((7, y.size))  # the run's stages: an accepted step copies its last into row 0 (FSAL)
    k[0] = f(y).ravel()
    err_prev = 1e-4
    attempts = 0
    for tau0, tau1 in zip(times, times[1:]):
        delta, t = tau1 - tau0, 0.0
        h_floor = 1e-14 * max(delta, 1.0)
        while t < delta * (1.0 - _TIME_RTOL):
            step = min(h, delta - t)
            if attempts == max_steps:
                raise FloatingPointError(
                    f"{cfg.regime} adaptive-rk spent its budget of {max_steps} attempted steps by "
                    f"tau = {tau0 + t!r} (h = {step!r}, {knob})"
                )
            attempts += 1
            y_new, e = _dp_step(f, y, k, step)
            err = float(np.max(np.abs(e) / (1.0 + np.abs(y_new)))) / cfg.tol
            if not err <= 1.0 and step <= h_floor and np.isfinite(y_new).all():
                raise FloatingPointError(
                    f"adaptive step h = {step!r} at the step floor fails its error test at tau = {tau0 + t!r} "
                    f"({knob}, tol = {cfg.tol!r})"
                )
            # NaN or inf err shrinks the step: max() keeps 0.2 when the product is NaN
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.17 * err_prev**0.04))
            if err <= 1.0 or step <= h_floor:
                y, t = y_new, t + step
                k[0] = k[6]  # a rejected attempt leaves row 0 as it was
                if not np.isfinite(y).all():
                    break  # the caller reports it
                if step == h:  # a step clipped to the snapshot leaves the controller as it was
                    h, err_prev = step * factor, max(err, 1e-4)
            else:
                h = step * factor
        yield y


def integrate(
    grid: VelocityGrid,
    initial,
    cfg: FlowConfig,
    tau_end: float,
    snapshot_every: float | None = None,
) -> Trajectory:
    """Advance every grid sample from its initial value to tau_end.

    Returns snapshots at the multiples of snapshot_every inside
    [0, tau_end] plus the final time; when snapshot_every is omitted only
    the initial and final states are kept.  The returned config records
    the dt actually used; dt = None is min(1e-3, 0.01 / kappa_max).  The
    grid is one array state.  rk4 plans each snapshot interval as runs of
    (h, count), count steps of dt and then a remainder step if one is left,
    and evaluates linear and second-order runs in closed form, R(h A)^count
    as one or two numbers a sample.  adaptive-rk takes one Dormand-Prince
    step sequence for all samples, starting from dt and carried across the
    snapshots.  A run whose h is past the stability bound at kappa_max (for
    conformal rk4, at the rate 2 k / C_min^2 reached by tau_end), or
    conformal runs of more than MAX_STEPS steps in all, raise
    FloatingPointError before any stepping, as do adaptive-rk past MAX_STEPS
    attempted steps (steps, not work) and a state that stops being finite.
    Refusals name k_curv for the conformal flow and alpha for the others.
    """
    init = np.asarray(initial, dtype=float)
    if init.shape != (grid.n,):
        raise ValueError(f"initial profile has {init.size} values for a grid of {grid.n}")
    _require(init, np.isfinite(init), "initial value must be finite")
    times = snapshot_times(tau_end, snapshot_every, grid.n)

    # Each flow family builds y, kappa_max, the knob its refusals name, f, the rk4 stability bound and rk4(plan).
    if cfg.regime == CONFORMAL_NONLINEAR:
        c_min = float(init.min())
        if not c_min > 0.0:  # tau* = C^2 / (4 k) holds for positive C alone
            raise ValueError(f"conformal flow requires a positive initial profile, got {c_min!r}")
        k, knob = cfg.k_curv, f"k_curv = {cfg.k_curv!r}"

        def exhausted(i: int, detail: str = "") -> FlowDomainError:
            b, star = float(grid.samples[i]), float(_conformal_scale(init[i], k)[1])
            message = f"conformal flow exhausts its domain at tau* = {star!r} (beta = {b!r})"
            return FlowDomainError(message + detail, beta=b, tau_star=star)

        # tau* grows with C, so C_min's is the least, but samples a few ulps apart can have tau* that round equal:
        # the refusal names the first of least tau*.  The rate 2 k / C_min^2 reached by tau_end is inf only where
        # the scaled remainder rounds to 0 among subnormals, and an rk4 run is then refused.
        s, tau_star, remainder = _conformal_scale(c_min, k, tau_end)
        if tau_end >= tau_star * (1.0 - _TIME_RTOL):
            raise exhausted(int(np.argmin(_conformal_scale(init, k)[1])), f"; requested tau_end = {tau_end!r}")
        y, kappa_max = np.array([init]), 2.0 * k / (c_min * c_min)  # the initial rate; C_min^2 > 0 as tau* > tau_end
        with np.errstate(divide="ignore", over="ignore"):
            rate = float(2.0 * k * s / remainder * s)
        name, bound = "kappa_end", _RK4_REAL_BOUND

        def f(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if y.min() <= 0.0:
                raise exhausted(int(np.argmax(y[0] <= 0.0)))
            return np.divide(-2.0 * k, y, out=out)

        def rk4(plan):
            stages = np.empty((5, *y.shape))  # y and these are the run's stepping buffers
            for runs in plan:
                for h, n in runs:
                    for _ in range(n):
                        _rk4_step(f, y, h, stages)
                yield y
            f(y, stages[0])  # no rk4 step evaluates the final state, which must lie in the domain too
    else:
        # u' = A (u - rest) per sample, and act gives A u, -kappa u or (u1, -kappa u0), to f and the propagator
        kappa_max, knob = cfg.alpha * grid.beta_max * grid.beta_max, f"alpha = {cfg.alpha!r}"  # the samples increase
        neg_kappa = -cfg.alpha * grid.samples * grid.samples
        pair = cfg.regime == SECOND_ORDER  # the state is (C, dC/dtau), with zero initial rate
        if pair:
            y, rest = np.array([init, np.zeros(grid.n)]), np.array([[math.pi], [0.0]])
            name, rate, bound = "omega_max", math.sqrt(kappa_max), _RK4_IMAG_BOUND
        else:
            y, rest = np.array([init]), relaxation_target(grid.samples, cfg)[None]
            name, rate, bound = "kappa_max", kappa_max, _RK4_REAL_BOUND

        def act(u: np.ndarray) -> np.ndarray:
            return np.array([u[1], neg_kappa * u[0]]) if pair else neg_kappa * u

        def f(y: np.ndarray) -> np.ndarray:
            return act(y - rest)

        # Intervals repeat their (dt, count) run, whose propagator is built once; remainder runs may all differ.
        power = functools.lru_cache(maxsize=4)(lambda h, count: _rk4_power(neg_kappa, h, count, pair))

        def rk4(plan):
            state = y
            for runs in plan:
                for h, n in runs:
                    d, u = power(h, n), state - rest
                    state = state + (d[0] * u + h * d[1] * act(u) if pair else d * u)
                yield state
    dt = cfg.dt
    if dt is None:  # kappa_max is 0 only where alpha beta_max^2 underflows
        dt = min(1e-3, 0.01 / kappa_max) if kappa_max > 0.0 else 1e-3

    if cfg.method == RK4:
        plan = _step_plan(times, dt, knob)
        if cfg.regime == CONFORMAL_NONLINEAR:  # a conformal step costs Python work, so the run is budgeted
            for tau1, steps in zip(times[1:], itertools.accumulate(sum(n for _, n in runs) for runs in plan)):
                if steps > MAX_STEPS:
                    raise FloatingPointError(
                        f"{cfg.regime} rk4 with dt = {dt!r} needs {steps} steps by tau = {tau1!r}, "
                        f"past the budget of {MAX_STEPS} steps ({knob})"
                    )
        h = max((step for runs in plan for step, n in runs if n), default=0.0)  # the longest step taken
        if rate * h > bound:
            raise FloatingPointError(
                f"{cfg.regime} rk4 step h = {h!r} (dt = {dt!r}) is past the stability bound: "
                f"{name} * h = {rate * h!r} > {bound!r} ({knob})"
            )

    profiles = np.empty((len(times), grid.n))
    profiles[0] = init
    with np.errstate(all="ignore"):  # a non-finite state is reported below instead
        states = rk4(plan) if cfg.method == RK4 else _adaptive_segments(f, y, times, dt, cfg, MAX_STEPS, knob)
        for j, y in enumerate(states, 1):
            if not np.isfinite(y).all():
                raise FloatingPointError(f"non-finite flow state by tau = {times[j]!r} (dt = {dt!r})")
            profiles[j] = y[0]

    return Trajectory(grid=grid, config=replace(cfg, dt=dt), taus=times, profiles=profiles.view(_Fresh))
