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
array, which builds the weights once per grid, not per call or snapshot;
the subcritical band is a prefix of the grid, so the kernel works on a
view of it.  The Dirichlet energy streams its interior nodes in blocks of
_BLOCK: each block's central differences are squared in one reused
buffer and summed against the Simpson pattern, so its memory is
O(_BLOCK) whatever the profile's length.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .deform import _require, _require_positive, _scalar, critical_beta
from .flow import FlowState, Trajectory, VelocityGrid, _Fresh, _read_only

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
# Interior nodes per block of the Dirichlet sum: a 256 KiB float64 buffer, which stays in cache.
_BLOCK = 1 << 15


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


def _uniform_gaps(gaps: np.ndarray) -> bool:
    """np.allclose(gaps, gaps[0], rtol=_UNIFORM_RTOL, atol=0.0) for finite gaps, with no temporary arrays.

    Rounding is monotone, so every |g - g0| is within the bound when the
    largest and the smallest gap are.  A NaN gap makes both extremes NaN.
    """
    g0 = gaps[0]
    return bool(max(gaps.max() - g0, g0 - gaps.min()) <= _UNIFORM_RTOL * abs(g0))


def _quadrature_weights(x: np.ndarray) -> np.ndarray:
    n = x.size
    if n < 2:
        raise ValueError("quadrature needs at least 2 samples")
    gaps = np.diff(x)
    if n >= 3 and _uniform_gaps(gaps):
        return _uniform_simpson_weights(n, float(gaps[0]))
    w = np.zeros(n)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


# Each grid's subcritical window, built on first use.  A grid is immutable and hashes by identity,
# and its window dies with it.
_WINDOWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _subcritical_window(grid: VelocityGrid) -> tuple[int, np.ndarray]:
    """How many leading samples lie at or below the critical ratio, and their read-only quadrature weights.

    The grid is strictly increasing, so those samples are a prefix of it.
    """
    if grid in _WINDOWS:
        return _WINDOWS[grid]
    bc = critical_beta()
    k = int(np.searchsorted(grid.samples, bc * (1.0 + _UNIFORM_RTOL), side="right"))
    if k < 2:
        raise ValueError("grid must contain at least 2 samples at or below the critical ratio")
    if grid.samples[k - 1] < bc * (1.0 - _UNIFORM_RTOL):
        raise ValueError(
            f"grid must reach the critical ratio {bc!r} to cover the energy domain; "
            f"last subcritical sample is {float(grid.samples[k - 1])!r}"
        )
    w = _quadrature_weights(grid.samples[:k])
    w.flags.writeable = False
    _WINDOWS[grid] = k, w
    return k, w


def _band_integrals(profiles: np.ndarray, grid: VelocityGrid, beta_squared: bool) -> np.ndarray:
    """Integral over [0, beta_c] of (C - pi)^2, times beta^2 if asked, for each row of profiles (m, n).

    The integrand is one new contiguous (m, k) array, multiplied in
    place in the order beta * beta * dev * dev.  With beta^2 it starts as
    beta * beta, and dev is formed tile by tile in one reused buffer of
    _BLOCK values.  Each row is then one (1, k) @ (k, 1) product, so a row
    gets the same digits alone or in a stack; the gemv behind x @ w sums
    in another order.
    """
    if profiles.shape[1] != grid.n:
        raise ValueError(f"profile has {profiles.shape[1]} values for a grid of {grid.n} samples")
    k, w = _subcritical_window(grid)
    band = profiles[:, :k]
    if beta_squared:
        betas = grid.samples[:k]
        x = np.multiply(betas, betas, out=np.empty(band.shape))
        rows, cols = max(1, _BLOCK // k), min(k, _BLOCK)
        buf = np.empty(min(rows, band.shape[0]) * cols)
        for r in range(0, band.shape[0], rows):
            for c in range(0, k, cols):
                tile = x[r : r + rows, c : c + cols]
                dev = buf[: tile.size].reshape(tile.shape)
                np.subtract(band[r : r + rows, c : c + cols], math.pi, out=dev)
                tile *= dev
                tile *= dev
    else:
        x = band - math.pi
        x *= x
    return (x[:, None, :] @ w[:, None])[:, 0, 0]


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
    return EnergyTrace(traj.taus, energies.view(_Fresh), rates.view(_Fresh))


def dirichlet_energy(values, c: float = 1.0) -> float:
    """(1/2) integral over [-c, c] of (dC/dv)^2 for a uniformly sampled profile.

    The derivative at each node is np.gradient(values, h, edge_order=2)'s,
    bit for bit: second-order central differences, one-sided at the two
    boundary nodes.  Composite Simpson sums the squares, with one
    trapezoid interval when the sample count is even.  The interior nodes
    go through in blocks of _BLOCK, each squared in one reused buffer and
    dotted with the 4, 2, 4, ... pattern, so the extra memory is O(_BLOCK)
    and no array of the profile's length is built.  A slope discontinuity
    at an interior node leaves an O(h) quadrature error there, so kinked
    profiles need dense grids.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 3:
        raise ValueError("profile must be a 1-d array with at least 3 samples")
    _require_positive(c, "c")
    n = vals.size
    h = 2.0 * c / (n - 1)
    f0, f1, f2 = vals[:3].tolist()
    fa, fb, fc = vals[-3:].tolist()
    first = (-1.5 / h) * f0 + (2.0 / h) * f1 + (-0.5 / h) * f2
    last = (0.5 / h) * fa + (-2.0 / h) * fb + (1.5 / h) * fc
    # Simpson's weights in units of h/3 on the shortest grid of n's parity with a whole 4, 2 period:
    # the first node's, the interior pattern's, and the trailing nodes' (the end node, and with an
    # even n the trapezoid interval's two nodes).  The ends are scalars; the interior is streamed.
    w = _uniform_simpson_weights(6 - n % 2, 3.0).tolist()
    ends = (first, last) if n % 2 else (first, (fc - fa) / (2.0 * h), last)
    total = sum(wi * (g * g) for wi, g in zip((w[0], *w[4:]), ends))
    stop = n - len(ends) + 1  # the streamed interior is nodes 1 .. stop - 1
    buf = np.empty(min(_BLOCK, stop - 1))
    # _BLOCK is even, so every block starts on the pattern's first weight.
    pattern = np.tile(w[1:3], (buf.size + 1) // 2)
    with np.errstate(invalid="ignore"):  # a non-finite value is reported below
        for i in range(1, stop, _BLOCK):
            d = buf[: min(_BLOCK, stop - i)]
            np.subtract(vals[i + 1 : i + 1 + d.size], vals[i - 1 : i - 1 + d.size], out=d)
            d /= 2.0 * h
            d *= d
            total += float(pattern[: d.size] @ d)
    # Every value enters a derivative with a positive weight, so a finite total needs finite values.
    if not math.isfinite(total):
        _require(vals, np.isfinite(vals), "profile values must be finite")
    return 0.5 * (h / 3.0 * total)


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
