"""Energy functionals of deformation profiles.

Two distinct energies appear:

* the L2 distance from the rest value, E = integral of (C - pi)^2 over the
  subcritical speed band, which the linear flow dissipates monotonically;
* the Dirichlet energy (1/2) integral of (dC/dv)^2 over the full band,
  whose minimiser under the boundary pins C(0) = pi, C(+-c) = 0 is the
  quadratic factor itself.

Quadrature is composite Simpson on uniform grids (with a single trapezoid
interval when the sample count is even) and trapezoid otherwise.  Every
integral is one streamed sum of w g^2, where g is C - pi, that times
beta, or a central difference of the profile, formed in blocks of
_BLOCK values in one reused buffer and summed along its rows.  The block
sums are kept as partials and folded once, in block order, after the
last block.  No sum goes through BLAS, so the digits do not depend on
its thread count, and a snapshot gets the same digits alone as in a
trajectory's stack.  The subcritical band is a prefix of the grid, so
the band integrals work on a view of it; its uniformity, or its
trapezoid weights, are worked out per call.  Simpson's 4, 2 pattern and
its end nodes are scalars, so a uniform window builds no weight or
integrand array of the profile's length and its memory is O(_BLOCK)
whatever the profile's length; a non-uniform window builds one
trapezoid weight per window sample.
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
# Values per block of the streamed sums: a 256 KiB float64 buffer, which stays in cache.  It is even,
# so every block of a row starts on the same weight of Simpson's 4, 2 pattern.
_BLOCK = 1 << 15


def _uniform_gaps(gaps: np.ndarray) -> bool:
    """np.allclose(gaps, gaps[0], rtol=_UNIFORM_RTOL, atol=0.0) for finite gaps, with no temporary arrays.

    Rounding is monotone, so every |g - g0| is within the bound when the
    largest and the smallest gap are.  A NaN gap makes both extremes NaN.
    """
    g0 = gaps[0]
    return bool(max(gaps.max() - g0, g0 - gaps.min()) <= _UNIFORM_RTOL * abs(g0))


def _uniform_spacing(x: np.ndarray) -> float | None:
    """The first gap of the increasing samples x when _uniform_gaps(np.diff(x)) holds, else None.

    The gaps go through in blocks of _BLOCK, each after a copy of the
    first gap in one reused buffer: every block passes exactly when the
    whole diff does, and no array of x's length is built.
    """
    n = x.size - 1
    buf = np.empty(min(_BLOCK, n) + 1)
    buf[0] = x[1] - x[0]
    for i in range(0, n, _BLOCK):
        gaps = buf[: min(_BLOCK, n - i) + 1]
        np.subtract(x[i + 1 : i + gaps.size], x[i : i + gaps.size - 1], out=gaps[1:])
        if not _uniform_gaps(gaps):
            return None
    return float(buf[0])


def _subcritical_window(grid: VelocityGrid) -> tuple[int, float | None, np.ndarray | None]:
    """How many leading samples lie at or below the critical ratio, and how to weight them.

    The grid is strictly increasing, so those samples are a prefix of it.
    At least 3 uniformly spaced samples get composite Simpson, returned as
    their spacing h with no weights; any others get trapezoid weights and
    h None.
    """
    bc = critical_beta()
    k = int(np.searchsorted(grid.samples, bc * (1.0 + _UNIFORM_RTOL), side="right"))
    if k < 2:
        raise ValueError("grid must contain at least 2 samples at or below the critical ratio")
    if grid.samples[k - 1] < bc * (1.0 - _UNIFORM_RTOL):
        raise ValueError(
            f"grid must reach the critical ratio {bc!r} to cover the energy domain; "
            f"last subcritical sample is {float(grid.samples[k - 1])!r}"
        )
    x = grid.samples[:k]
    h = _uniform_spacing(x) if k >= 3 else None
    w = None
    if h is None:
        gaps = np.diff(x)
        w = np.zeros(k)
        w[:-1] += 0.5 * gaps
        w[1:] += 0.5 * gaps
    return k, h, w


def _simpson_split(n: int) -> tuple[list[int], tuple[float, ...], range]:
    """Composite Simpson on n uniform nodes: the end nodes, their weights in units of h/3, and the rest.

    An even n closes with one trapezoid interval, so its second-to-last
    node is an end node too.  The rest take the 4, 2, 4, ... pattern.
    """
    if n % 2:
        return [0, n - 1], (1.0, 1.0), range(1, n - 1)
    return [0, n - 2, n - 1], (1.0, 2.5, 1.5), range(1, n - 2)


def _square_sums(fill, m: int, nodes: range, weights: np.ndarray | None) -> np.ndarray:
    """For each of m rows, the sum over nodes of w g^2, streamed through one reused buffer of _BLOCK values.

    fill(out, rows, cols) writes g at those row and node slices into out.
    With no weights, w is Simpson's 4, 2, 4, ... pattern from nodes.start,
    in units of h/3.  Rows are tiled when a row is shorter than _BLOCK and
    nodes otherwise, and every sum runs along a row of one tile, so a row
    gets the same digits alone or in a stack.  Each tile's row sums (with
    no weights, its sums over the 4 and the 2 nodes) go into one small
    array of partials, a column per column tile.  After the loop the 4, 2
    weighting is applied once, and one np.add.accumulate folds the columns
    in block order: the partials are >= 0, so these are the additions of a
    zero sum that takes each block in turn.  No sum goes through BLAS,
    whose threads would split it in an order that depends on their count.
    """
    k = len(nodes)
    rows, cols = max(1, _BLOCK // k), min(k, _BLOCK)
    buf = np.empty(min(rows, m) * cols)
    starts = range(nodes.start, nodes.stop, cols)
    parts = np.empty((1 if weights is not None else 2, m, len(starts)))
    for r in range(0, m, rows):
        rs = slice(r, min(r + rows, m))
        for j, c in enumerate(starts):
            cs = slice(c, min(c + cols, nodes.stop))
            g = buf[: (rs.stop - r) * (cs.stop - c)].reshape(rs.stop - r, cs.stop - c)
            fill(g, rs, cs)
            g *= g
            if weights is None:
                np.add.reduce(g[:, ::2], axis=1, out=parts[0, rs, j])
                np.add.reduce(g[:, 1::2], axis=1, out=parts[1, rs, j])
            else:
                g *= weights[cs]
                np.add.reduce(g, axis=1, out=parts[0, rs, j])
    blocks = parts[0] if weights is not None else 4.0 * parts[0] + 2.0 * parts[1]
    return np.add.accumulate(blocks, axis=1)[:, -1]


def _band_integrals(profiles: np.ndarray, grid: VelocityGrid, beta_squared: bool) -> np.ndarray:
    """Integral over [0, beta_c] of (C - pi)^2, times beta^2 if asked, for each row of profiles (m, n).

    The integrand is g^2 with g = C - pi, times beta if asked, formed tile
    by tile in _square_sums' buffer; Simpson's end nodes are one small
    (m, 2 or 3) array.
    """
    if profiles.shape[1] != grid.n:
        raise ValueError(f"profile has {profiles.shape[1]} values for a grid of {grid.n} samples")
    k, h, w = _subcritical_window(grid)

    def fill(out, rows, cols):
        np.subtract(profiles[rows, cols], math.pi, out=out)
        if beta_squared:
            out *= grid.samples[cols]

    m = profiles.shape[0]
    if w is not None:
        return _square_sums(fill, m, range(k), w)
    nodes, weights, interior = _simpson_split(k)
    ends = np.empty((m, len(nodes)))
    fill(ends, slice(None), nodes)
    ends *= ends
    ends *= weights
    return h / 3.0 * (np.add.reduce(ends, axis=1) + _square_sums(fill, m, interior, None))


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


def energy_trace(traj: Trajectory) -> EnergyTrace:
    """L2 energy and dissipation rate at every snapshot of a trajectory, with its config's alpha and c.

    Every snapshot goes through the kernel of l2_energy and l2_energy_rate,
    in one streamed pass over the stack for E and one for the rate.
    """
    cfg = traj.config
    energies = 2.0 * cfg.c * _band_integrals(traj.profiles, traj.grid, False)
    rates = -2.0 * cfg.alpha * 2.0 * cfg.c * _band_integrals(traj.profiles, traj.grid, True)
    return EnergyTrace(traj.taus, energies, rates)


def dirichlet_energy(values, c: float = 1.0) -> float:
    """(1/2) integral over [-c, c] of (dC/dv)^2 for a uniformly sampled profile.

    The derivative at each node is np.gradient(values, h, edge_order=2)'s:
    second-order central differences, one-sided at the two boundary nodes.
    Composite Simpson sums the squares, with one trapezoid interval when
    the sample count is even.  The end nodes are scalars; the interior
    differences are squared unscaled through _square_sums in blocks of
    _BLOCK, and their sum is divided by (2h)^2 once, so the extra memory is
    O(_BLOCK), no array of the profile's length is built, and the result
    agrees with np.gradient's derivatives to rounding, not bit for bit.  A
    slope discontinuity at an interior node leaves an O(h) quadrature error
    there, so kinked profiles need dense grids.
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
    _, weights, interior = _simpson_split(n)
    ends = (first, last) if n % 2 else (first, (fc - fa) / (2.0 * h), last)
    total = sum(w * (d * d) for w, d in zip(weights, ends))

    def fill(out, rows, cols):
        np.subtract(vals[cols.start + 1 : cols.stop + 1], vals[cols.start - 1 : cols.stop - 1], out=out)

    with np.errstate(invalid="ignore"):  # a non-finite value is reported below
        total += float(_square_sums(fill, 1, interior, None)[0]) / (2.0 * h) ** 2
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
