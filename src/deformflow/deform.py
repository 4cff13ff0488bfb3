"""Closed-form deformation factor and derived kinematic quantities.

The rest-frame circumference ratio pi is replaced by a speed-dependent
factor

    C(beta) = pi (1 - beta^2),        beta = |v| / c,

which interpolates between pi at rest and 0 at beta = 1 and crosses 1 at
the critical ratio beta_c = sqrt(1 - 1/pi).  Everything here is exact
closed-form evaluation; the elliptic-integral comparison lives in
:mod:`deformflow.elliptic`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "velocity_ratio",
    "c_model",
    "c_model_derivatives",
    "critical_beta",
    "lorentz_gamma",
    "c_supercritical_limit",
    "GeometricMeasures",
    "geometric_measures",
    "quartic_inflection",
]


def _first(failed, *values) -> list[float]:
    """values, broadcast together with failed, as plain floats at the first sample that failed."""
    failed, *values = np.broadcast_arrays(failed, *values)
    i = int(np.argmax(failed))
    return [float(v.flat[i]) for v in values]


def _require(x, inside, what: str) -> None:
    # inside is the elementwise test of x, a float or an array, and may broadcast x; NaN fails it.
    if not np.all(inside):
        (got,) = _first(np.logical_not(inside), x)
        raise ValueError(f"{what}, got {got!r}")


def _require_positive(x, name: str) -> None:
    _require(x, np.isfinite(x) & (x > 0.0), f"{name} must be finite and > 0")


def _check_beta(beta, name: str = "beta") -> None:
    _require(beta, (beta >= 0.0) & (beta <= 1.0), f"{name} must lie in [0, 1]")


def _scalar(x):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if np.ndim(x) == 0 else x


def _libm(fn, x) -> np.ndarray:
    """math's fn per element of x: the C library's exp or log, which numpy's SIMD loops may miss in the last bit."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.flat), float, x.size).reshape(x.shape)


def velocity_ratio(v: float, c: float = 1.0) -> float:
    """Normalized speed beta = |v| / c.

    The absolute value realizes the evenness of every quantity built on
    beta: C(-v) = C(v) holds by construction.
    """
    _require_positive(c, "c")
    beta = abs(v) / c
    _check_beta(beta)
    return beta


def c_model(beta):
    """Quadratic deformation factor C(beta) = pi (1 - beta^2), for a float or an array."""
    _check_beta(beta)
    return math.pi * (1.0 - beta * beta)


def c_model_derivatives(beta: float) -> tuple[float, float]:
    """First and second derivative of the factor with respect to beta.

    Returns (-2 pi beta, -2 pi).  For a dimensionful speed v = beta c the
    corresponding derivatives carry extra powers of 1/c.
    """
    _check_beta(beta)
    return (-2.0 * math.pi * beta, -2.0 * math.pi)


def critical_beta() -> float:
    """Speed ratio where the factor crosses 1: sqrt(1 - 1/pi) ~= 0.8256453."""
    return math.sqrt(1.0 - 1.0 / math.pi)


def lorentz_gamma(beta):
    r"""Relativistic factor $\gamma = 1 / \sqrt{1 - \beta^2}$, for a float or an array.

    The quadratic model satisfies C = pi / gamma^2 identically, so gamma
    carries the same information as the factor itself.
    """
    _require(beta, (beta >= 0.0) & (beta < 1.0), "gamma requires 0 <= beta < 1")
    return _scalar(1.0 / np.sqrt(1.0 - beta * beta))


def c_supercritical_limit(beta, K, c=1.0):
    """Supercritical relaxation target C0 = pi + K / (beta c)^2, for floats or arrays.

    K >= 0 keeps the target at or above pi; K = 0 collapses it onto pi so
    both relaxation branches agree everywhere.  A beta so small that
    (beta c)^2 underflows and the target is not finite raises ValueError.
    """
    _require_positive(beta, "beta")
    _require(K, np.isfinite(K) & (K >= 0.0), "K must be finite and >= 0")
    _require_positive(c, "c")
    bc = beta * c
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        target = math.pi + K / np.asarray(bc * bc)
    _require(beta, np.isfinite(target), "beta is too small: K / (beta c)^2 is not finite")
    return _scalar(target)


@dataclass(frozen=True)
class GeometricMeasures:
    """Perimeter, area, and relative volume of a deformed disk of diameter D."""

    length: float
    area: float
    volume_ratio: float


def geometric_measures(beta: float, diameter: float) -> GeometricMeasures:
    """Deformed measures at speed ratio beta for a disk of the given diameter.

    length = C D, area = C^2 D^2 / 4, volume_ratio = (C / pi)^3.  Note the
    quadratic-in-C area does not reduce to the classical disk value
    pi D^2 / 4 at rest; the audit table reports that gap.
    """
    _require_positive(diameter, "diameter")
    cv = c_model(beta)
    return GeometricMeasures(
        length=cv * diameter,
        area=0.25 * cv * cv * diameter * diameter,
        volume_ratio=(cv / math.pi) ** 3,
    )


def quartic_inflection(a: float, c: float = 1.0) -> float | None:
    """Concavity sign-change speed of the quartic-corrected profile.

    For C(v) = pi (1 - v^2/c^2) + a (v^2/c^2)^2 the second derivative
    -2 pi / c^2 + 12 a v^2 / c^4 changes sign at v* = c sqrt(pi / (6 a)).
    Returns v* when a > 0 and pi / (6 a) <= 1, otherwise None (no
    inflection inside the band |v| <= c).
    """
    _require_positive(c, "c")
    _require(a, np.isfinite(a), "a must be finite")
    if a <= 0.0:
        return None
    ratio = math.pi / (6.0 * a)
    if ratio > 1.0:
        return None
    return c * math.sqrt(ratio)
