"""Energy functionals of deformation profiles.

Two distinct energies appear:

* the L2 distance from the rest value, E = integral of (C - pi)^2 over the
  subcritical speed band, which the linear flow dissipates monotonically;
* the Dirichlet energy (1/2) integral of (dC/dv)^2 over the full band,
  whose minimiser under the boundary pins C(0) = pi, C(+-c) = 0 is the
  quadratic factor itself.

Quadrature is composite Simpson on uniform grids (with a single trapezoid
interval when the sample count is even) and trapezoid otherwise.  A
state and a trajectory share one kernel over a (snapshots, samples)
array, which builds the weights per grid, not per snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import _require, _require_positive, _scalar, critical_beta
from .flow import FlowState, Trajectory, VelocityGrid, _read_only

__all__ = [
    "PotentialParams",
    "EnergyTrace",
    "l2_energy",
    "l2_energy_rate",
    "energy_trace",
    "dirichlet_energy",
    "energy_density",
    "unique_quadratic_profile",
]

# Grid spacings equal within this relative tolerance count as uniform.
_UNIFORM_RTOL = 1e-9


def _uniform_simpson_weights(n: int, h: float) -> np.ndarray:
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


def _quadrature_weights(x: np.ndarray) -> np.ndarray:
    n = x.size
    if n < 2:
        raise ValueError("quadrature needs at least 2 samples")
    gaps = np.diff(x)
    if n >= 3 and np.allclose(gaps, gaps[0], rtol=_UNIFORM_RTOL, atol=0.0):
        return _uniform_simpson_weights(n, float(gaps[0]))
    w = np.zeros(n)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


def _subcritical_window(grid: VelocityGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of the samples at or below the critical ratio, their betas and quadrature weights."""
    bc = critical_beta()
    keep = grid.samples <= bc * (1.0 + _UNIFORM_RTOL)
    kept = grid.samples[keep]
    if kept.size < 2:
        raise ValueError("grid must contain at least 2 samples at or below the critical ratio")
    if kept[-1] < bc * (1.0 - _UNIFORM_RTOL):
        raise ValueError(
            f"grid must reach the critical ratio {bc!r} to cover the energy domain; "
            f"last subcritical sample is {float(kept[-1])!r}"
        )
    return keep, kept, _quadrature_weights(kept)


def _band_integrals(profiles: np.ndarray, grid: VelocityGrid, beta_squared: bool) -> np.ndarray:
    """Integral over [0, beta_c] of (C - pi)^2, times beta^2 if asked, for each row of profiles (m, n).

    Each contiguous row is one (1, k) @ (k, 1) product, so a row gets the
    same digits alone or in a stack; the gemv behind x @ w, or a strided
    row (profiles[:, keep] is column-major), sums in another order.
    """
    if profiles.shape[1] != grid.n:
        raise ValueError(f"profile has {profiles.shape[1]} values for a grid of {grid.n} samples")
    keep, betas, w = _subcritical_window(grid)
    dev = profiles[:, keep] - math.pi
    x = betas * betas * dev * dev if beta_squared else dev * dev
    return (np.ascontiguousarray(x)[:, None, :] @ w[:, None])[:, 0, 0]


def l2_energy(state: FlowState, grid: VelocityGrid, c: float = 1.0) -> float:
    """Squared L2 departure from rest over the symmetric speed band.

    E = 2 c * integral_0^{beta_c} (C - pi)^2 dbeta; evenness doubles the
    half-band integral.  The grid must reach the critical ratio.
    """
    _require_positive(c, "c")
    return 2.0 * c * float(_band_integrals(state.profile[None], grid, False)[0])


def l2_energy_rate(state: FlowState, grid: VelocityGrid, alpha: float, c: float = 1.0) -> float:
    """Dissipation identity for the subcritical linear flow.

    dE/dtau = -2 alpha * 2 c * integral_0^{beta_c} beta^2 (C - pi)^2 dbeta,
    which is never positive.
    """
    _require_positive(alpha, "alpha")
    _require_positive(c, "c")
    return -2.0 * alpha * 2.0 * c * float(_band_integrals(state.profile[None], grid, True)[0])


@dataclass(frozen=True, eq=False)  # arrays have no single truth value, so == is identity
class EnergyTrace:
    """Per-snapshot tau, E and dE/dtau as read-only float64 arrays of one length.

    The rate is the dissipation integral, not a difference of energies.
    """

    taus: np.ndarray
    energies: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        for name in ("taus", "energies", "rates"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if self.taus.ndim != 1 or self.taus.size == 0:
            raise ValueError("energy trace must not be empty")
        if not self.energies.shape == self.rates.shape == self.taus.shape:
            raise ValueError(f"energies and rates must have the shape of taus, {self.taus.shape}")
        _require(self.energies, self.energies >= 0.0, "energy must be >= 0")
        if not (np.diff(self.taus) > 0.0).all():
            raise ValueError("trace times must be strictly increasing")


def energy_trace(traj: Trajectory, alpha: float | None = None, c: float | None = None) -> EnergyTrace:
    """L2 energy and dissipation rate at every snapshot of a trajectory.

    Every snapshot goes through the kernel of l2_energy and l2_energy_rate,
    as one stacked product for E and one for the rate.
    """
    a = traj.config.alpha if alpha is None else alpha
    cc = traj.config.c if c is None else c
    _require_positive(a, "alpha")
    _require_positive(cc, "c")
    energies = 2.0 * cc * _band_integrals(traj.profiles, traj.grid, False)
    rates = -2.0 * a * 2.0 * cc * _band_integrals(traj.profiles, traj.grid, True)
    return EnergyTrace(traj.taus, energies, rates)


def dirichlet_energy(values, c: float = 1.0) -> float:
    """(1/2) integral over [-c, c] of (dC/dv)^2 for a uniformly sampled profile.

    The derivative is second-order central differences (one-sided at the
    two boundary nodes).  A slope discontinuity at an interior node leaves
    an O(h) quadrature error there, so kinked profiles need dense grids.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 3:
        raise ValueError("profile must be a 1-d array with at least 3 samples")
    _require_positive(c, "c")
    _require(vals, np.isfinite(vals), "profile values must be finite")
    h = 2.0 * c / (vals.size - 1)
    g = np.gradient(vals, h, edge_order=2)
    w = _uniform_simpson_weights(vals.size, h)
    return 0.5 * float(w @ (g * g))


@dataclass(frozen=True)
class PotentialParams:
    """Quadratic potential stiffness lambda >= 0 around the rest value."""

    lam: float = 0.0

    def __post_init__(self) -> None:
        _require(self.lam, np.isfinite(self.lam) & (self.lam >= 0.0), "lambda must be finite and >= 0")


def energy_density(C, dC_dtau, grad_C, params: PotentialParams):
    """Pointwise density (1/2) Cdot^2 + (1/2) |grad C|^2 + (lambda/2) (C - pi)^2, for floats or arrays."""
    for name, v in (("C", C), ("dC_dtau", dC_dtau), ("grad_C", grad_C)):
        _require(v, np.isfinite(v), f"{name} must be finite")
    dev = C - math.pi
    return _scalar(0.5 * dC_dtau * dC_dtau + 0.5 * grad_C * grad_C + 0.5 * params.lam * dev * dev)


def unique_quadratic_profile(c: float = 1.0) -> tuple[float, float]:
    """Coefficients (a, b) of the quadratic a v^2 + b pinned by the boundary.

    The pins C(0) = pi and C(+-c) = 0 form a nonsingular 2x2 linear
    system, so the quadratic family has exactly one admissible member:
    a = -pi / c^2, b = pi, which is the closed-form factor itself.  That
    member minimises the Dirichlet energy among profiles with these pins.
    """
    _require_positive(c, "c")
    constraints = np.array([[0.0, 1.0], [c * c, 1.0]])
    pins = np.array([math.pi, 0.0])
    if abs(np.linalg.det(constraints)) == 0.0:
        raise ValueError("constraint system is singular")
    a, b = np.linalg.solve(constraints, pins)
    return float(a), float(b)
