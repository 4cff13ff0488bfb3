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
one array state: classical rk4 with a fixed step, in closed form for the
linear and second-order regimes, or step-doubling rk4 with one adaptive
step sequence for every sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .deform import _check_beta, _require, c_supercritical_limit, critical_beta

__all__ = [
    "SUBCRITICAL_LINEAR",
    "SUPERCRITICAL_LINEAR",
    "CONFORMAL_NONLINEAR",
    "SECOND_ORDER",
    "REGIMES",
    "LINEAR_REGIMES",
    "METHODS",
    "MAX_SNAPSHOT_VALUES",
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
# Most profile values a trajectory may store (512 MiB of float64).
MAX_SNAPSHOT_VALUES = 2**26


class FlowDomainError(ArithmeticError):
    """The conformal flow left its domain: C reaches 0 at finite tau*."""

    def __init__(self, message: str, beta: float | None = None, tau_star: float | None = None):
        super().__init__(message)
        self.beta = beta
        self.tau_star = tau_star


def _read_only(values) -> np.ndarray:
    """A read-only float64 view of values; the caller's own array stays writable."""
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


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
        if not (_require_finite("alpha", self.alpha) > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if not (_require_finite("c", self.c) > 0.0):
            raise ValueError(f"c must be positive, got {self.c!r}")
        if not (_require_finite("K", self.K) >= 0.0):
            raise ValueError(f"K must be >= 0, got {self.K!r}")
        if not (_require_finite("k_curv", self.k_curv) > 0.0):
            raise ValueError(f"k_curv must be positive, got {self.k_curv!r}")
        if self.dt is not None and not (_require_finite("dt", self.dt) > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not (_require_finite("tol", self.tol) > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")


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
        _check_beta(samples, "grid samples")
        if not (np.diff(samples) > 0.0).all():
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
        step = (beta_max - beta_min) / (n - 1)
        samples = beta_min + np.arange(n) * step
        samples[0] = beta_min
        samples[-1] = beta_max
        return cls(samples)


@dataclass(frozen=True, eq=False)
class FlowState:
    """One snapshot: the profile of C over the grid at time tau, a read-only float64 array."""

    tau: float
    profile: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise ValueError(f"tau must be finite and >= 0, got {self.tau!r}")
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


def relaxation_target(beta: float, cfg: FlowConfig) -> float:
    """Fixed point of the linear flow at one sample.

    pi below (and exactly at) the critical ratio, pi + K/(beta c)^2 above.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    if beta <= critical_beta():
        return math.pi
    return c_supercritical_limit(beta, cfg.K, cfg.c)


def rhs(C: float, beta: float, cfg: FlowConfig) -> float:
    """Instantaneous dC/dtau for the configured first-order regime."""
    _require_finite("C", C)
    if cfg.regime in LINEAR_REGIMES:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
        return -cfg.alpha * beta * beta * (C - relaxation_target(beta, cfg))
    if cfg.regime == CONFORMAL_NONLINEAR:
        if C <= 0.0:
            raise FlowDomainError(
                f"conformal derivative undefined at C <= 0 (C = {C!r})", beta=beta
            )
        return -2.0 * cfg.k_curv / C
    raise ValueError(
        "second-order regime evolves the pair (C, dC/dtau); "
        "use integrate or second_order_solution"
    )


def analytic_linear(beta: float, tau: float, C_init: float, cfg: FlowConfig) -> float:
    """Closed-form linear relaxation target + (C_init - target) exp(-kappa tau)."""
    if cfg.regime not in LINEAR_REGIMES:
        raise ValueError(f"analytic_linear requires a linear regime, got {cfg.regime!r}")
    if not (_require_finite("tau", tau) >= 0.0):
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    _require_finite("C_init", C_init)
    target = relaxation_target(beta, cfg)
    kappa = cfg.alpha * beta * beta
    return target + (C_init - target) * math.exp(-kappa * tau)


def analytic_conformal(tau: float, C_init: float, cfg: FlowConfig) -> float:
    """Closed-form conformal decay sqrt(C_init^2 - 4 k tau).

    Defined for tau < tau* = C_init^2 / (4 k); at or beyond tau* the flow
    has exhausted its domain and a FlowDomainError is raised.
    """
    if cfg.regime != CONFORMAL_NONLINEAR:
        raise ValueError(f"analytic_conformal requires the conformal regime, got {cfg.regime!r}")
    if not (_require_finite("tau", tau) >= 0.0):
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    if not (_require_finite("C_init", C_init) > 0.0):
        raise ValueError(f"conformal flow requires C_init > 0, got {C_init!r}")
    k = cfg.k_curv
    tau_star = C_init * C_init / (4.0 * k)
    if tau >= tau_star:
        raise FlowDomainError(
            f"conformal flow exhausts its domain at tau* = {tau_star!r} "
            f"(requested tau = {tau!r})",
            tau_star=tau_star,
        )
    return math.sqrt(C_init * C_init - 4.0 * k * tau)


def linearized_alpha(k_curv: float) -> float:
    """Sensitivity 2 k / pi^2 of the conformal derivative at C = pi.

    The conformal flow has no fixed point at pi, but nearby trajectories
    separate at this rate, which plays the role of the linear coefficient
    alpha for small departures from pi.
    """
    if not (_require_finite("k_curv", k_curv) > 0.0):
        raise ValueError(f"k_curv must be positive, got {k_curv!r}")
    return 2.0 * k_curv / (math.pi * math.pi)


def relaxation_time(beta: float, alpha: float) -> float:
    """Linear-flow e-folding time 1 / (alpha beta^2); diverges as beta -> 0."""
    if not (_require_finite("alpha", alpha) > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"relaxation time requires 0 < beta <= 1, got {beta!r}")
    return 1.0 / (alpha * beta * beta)


def second_order_solution(beta: float, alpha: float, deltaC0: float, tau: float) -> float:
    """Undamped oscillation pi + deltaC0 cos(omega tau), omega = beta sqrt(alpha).

    Starts from C = pi + deltaC0 with zero initial rate.
    """
    if not (_require_finite("alpha", alpha) > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")
    if not (_require_finite("tau", tau) >= 0.0):
        raise ValueError(f"tau must be >= 0, got {tau!r}")
    _require_finite("deltaC0", deltaC0)
    omega = beta * math.sqrt(alpha)
    return math.pi + deltaC0 * math.cos(omega * tau)


# ---------------------------------------------------------------------------
# integrator internals


def _snapshot_times(tau_end: float, snapshot_every: float, n: int) -> list[float]:
    """0, the multiples j * snapshot_every short of tau_end, and tau_end.

    Raises ValueError before building anything when the snapshots would
    store more than MAX_SNAPSHOT_VALUES profile values on n samples.
    """
    bound = tau_end * (1.0 - _TIME_RTOL)
    # k is the largest j with j * snapshot_every < bound; the estimate is inf on overflow
    k = math.ceil(min(bound / snapshot_every, MAX_SNAPSHOT_VALUES))
    while k < MAX_SNAPSHOT_VALUES and (k + 1) * snapshot_every < bound:
        k += 1
    while k > 0 and k * snapshot_every >= bound:
        k -= 1
    if (k + 2) * n > MAX_SNAPSHOT_VALUES:
        raise ValueError(
            f"snapshot_every = {snapshot_every!r} over tau_end = {tau_end!r} would store more than "
            f"{MAX_SNAPSHOT_VALUES} values on {n} samples; raise snapshot_every"
        )
    return [0.0, *(np.arange(1, k + 1) * snapshot_every).tolist(), tau_end]


def _split_segment(delta: float, dt: float, alpha: float) -> list[tuple[float, int]]:
    """(step, count) pairs across delta: full dt steps, then any remainder step."""
    steps = delta / dt
    if not math.isfinite(steps):
        raise FloatingPointError(f"dt = {dt!r} is too small to step across {delta!r} (alpha = {alpha!r})")
    n = int(math.floor(steps + 1e-9))
    # Past 2**53 steps n * dt is inexact, so the remainder is capped at one step.
    rem = min(delta - n * dt, dt)
    return [(dt, n), (rem, 1)] if rem > 1e-9 * dt else [(dt, n)]


def _rk4_step(f, y: np.ndarray, h: float) -> np.ndarray:
    """One classical rk4 step of y' = f(y) for the whole grid state."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _apply(m: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per-sample matrix-vector product: m is (n, d, d), e is (d, n)."""
    return np.einsum("nij,jn->in", m, e)


def _rk4_power(a: np.ndarray, h: float, n: int) -> np.ndarray:
    """R(hA)^n - I per sample, with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.

    n rk4 steps of u' = A u map u to R(hA)^n u (Hairer, Norsett & Wanner,
    Solving ODEs I, IV.2).  Powering deviations from I, (I + d)(I + e) =
    I + d + e + de, keeps the low bits of d that I + d would round away.
    """
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


def _adaptive_segment(f, y: np.ndarray, tau0: float, delta: float, h0: float, cfg: FlowConfig) -> np.ndarray:
    """Step-doubling rk4 over [tau0, tau0 + delta], one step sequence for the whole state.

    A step is accepted when |half - big| / 15 <= tol (1 + |half|) in every
    component.  A finite step at the floor h <= 1e-14 max(delta, 1) that fails
    this test raises FloatingPointError, since smaller steps would not finish;
    a non-finite one is returned for the caller to report.
    """
    t = 0.0
    h = min(h0, delta)
    h_floor = 1e-14 * max(delta, 1.0)
    while t < delta * (1.0 - _TIME_RTOL):
        h = min(h, delta - t)
        big = _rk4_step(f, y, h)
        half = _rk4_step(f, _rk4_step(f, y, 0.5 * h), 0.5 * h)
        err = float(np.max(np.abs(half - big) / (1.0 + np.abs(half)))) / (15.0 * cfg.tol)
        if not err <= 1.0 and h <= h_floor and np.isfinite(half).all():
            raise FloatingPointError(
                f"adaptive step h = {h!r} at the step floor fails its error test at tau = {tau0 + t!r} "
                f"(alpha = {cfg.alpha!r}, tol = {cfg.tol!r})"
            )
        if err <= 1.0 or h <= h_floor:
            y = half
            if not np.isfinite(y).all():
                return y  # the caller reports it
            t += h
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * err**-0.2)
            h *= max(grow, 0.2)
        else:
            h *= max(0.2, 0.9 * err**-0.2)
    return y


def _default_dt(grid: VelocityGrid, initial: np.ndarray, cfg: FlowConfig) -> float:
    if cfg.regime == CONFORMAL_NONLINEAR:
        c_min = float(initial.min())
        kappa_max = 2.0 * cfg.k_curv / (c_min * c_min)
    else:
        kappa_max = cfg.alpha * grid.beta_max * grid.beta_max
    if kappa_max <= 0.0:
        return 1e-3
    return min(1e-3, 0.01 / kappa_max)


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
    the dt actually used.  The grid is one array state: fixed-step rk4 of
    the linear and second-order regimes is evaluated in closed form,
    R(dt A)^n per sample, and adaptive-rk takes one step sequence for every
    sample.  A state that stops being finite raises FloatingPointError.
    """
    init = np.asarray(initial, dtype=float)
    if init.shape != (grid.n,):
        raise ValueError(f"initial profile has {init.size} values for a grid of {grid.n}")
    _require(init, np.isfinite(init), "initial value must be finite")
    if not (_require_finite("tau_end", tau_end) > 0.0):
        raise ValueError(f"tau_end must be positive, got {tau_end!r}")
    if snapshot_every is None:
        snapshot_every = float(tau_end)  # no snapshot falls short of tau_end
    elif not (_require_finite("snapshot_every", snapshot_every) > 0.0):
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every!r}")
    times = _snapshot_times(float(tau_end), snapshot_every, grid.n)
    conformal = cfg.regime == CONFORMAL_NONLINEAR
    if conformal and not init.min() > 0.0:  # before the default dt, which divides by C_min^2
        raise ValueError(f"conformal flow requires a positive initial profile, got {float(init.min())!r}")
    dt = cfg.dt if cfg.dt is not None else _default_dt(grid, init, cfg)

    y = np.array([init])
    if conformal:
        stars = init * init / (4.0 * cfg.k_curv)

        def exhausted(i: int, detail: str = "") -> FlowDomainError:
            b, star = float(grid.samples[i]), float(stars[i])
            message = f"conformal flow exhausts its domain at tau* = {star!r} (beta = {b!r})"
            return FlowDomainError(message + detail, beta=b, tau_star=star)

        i_min = int(np.argmin(stars))
        if tau_end >= stars[i_min] * (1.0 - _TIME_RTOL):
            raise exhausted(i_min, f"; requested tau_end = {tau_end!r}")

        def f(y: np.ndarray) -> np.ndarray:
            if y.min() <= 0.0:
                raise exhausted(int(np.argmax(y[0] <= 0.0)))
            return -2.0 * cfg.k_curv / y
    else:
        # u' = A (u - rest) per sample: A is (n, d, d), rest broadcasts to (d, n).
        kappa = cfg.alpha * grid.samples * grid.samples
        if cfg.regime == SECOND_ORDER:  # the pair (C, dC/dtau) with zero initial rate
            a = np.zeros((grid.n, 2, 2))
            a[:, 0, 1], a[:, 1, 0] = 1.0, -kappa
            rest = np.array([[math.pi], [0.0]])
            y = np.array([init, np.zeros(grid.n)])
        else:
            a = -kappa[:, None, None]
            rest = np.array([[relaxation_target(b, cfg) for b in grid.samples.tolist()]])

        def f(y: np.ndarray) -> np.ndarray:
            return _apply(a, y - rest)

        # Segments repeat their full-step (h, count) pair, so its propagator is built once.  The
        # cache is small because remainder steps can give every segment a pair of its own.
        power = functools.lru_cache(maxsize=4)(lambda h, count: _rk4_power(a, h, count))

    profiles = np.empty((len(times), grid.n))
    profiles[0] = init
    with np.errstate(all="ignore"):  # a non-finite state is reported below instead
        for j in range(1, len(times)):
            delta = times[j] - times[j - 1]
            if cfg.method == ADAPTIVE_RK:
                y = _adaptive_segment(f, y, times[j - 1], delta, dt, cfg)
            else:
                for h, count in _split_segment(delta, dt, cfg.alpha):
                    if conformal:
                        for _ in range(count):
                            y = _rk4_step(f, y, h)
                    else:
                        y = y + _apply(power(h, count), y - rest)
            if not np.isfinite(y).all():
                raise FloatingPointError(f"non-finite flow state by tau = {times[j]!r} (dt = {dt!r})")
            profiles[j] = y[0]
        if conformal:
            f(y)  # no step evaluates the final state, which must lie in the domain too

    return Trajectory(grid=grid, config=replace(cfg, dt=dt), taus=times, profiles=profiles)
