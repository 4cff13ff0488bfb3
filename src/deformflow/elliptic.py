r"""Complete elliptic integral of the second kind and exact perimeter ratios.

The exact circumference of a circle whose transverse extent is contracted
by the factor $\sqrt{1 - \beta^2 \sin^2\theta}$ is a complete elliptic
integral,

    E(k) = \int_0^{\pi/2} \sqrt{1 - k^2 \sin^2 t}\, dt ,

computed here by the arithmetic-geometric-mean iteration (Abramowitz &
Stegun 17.6, DLMF 19.8).  The modulus is beta itself, matching the
defining integral; the complementary-modulus variant 2 E(sqrt(1 - beta^2))
agrees with it only at beta = 1/sqrt(2) and is flagged in the audit table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deform import _check_beta, _scalar, c_model

__all__ = [
    "MAX_AGM_ITERATIONS",
    "complete_elliptic_e",
    "c_exact",
    "c_first_order",
    "PerimeterComparison",
    "compare",
]

MAX_AGM_ITERATIONS = 64
_AGM_RTOL = 1e-15


def complete_elliptic_e(k):
    """E(k) for modulus k in [0, 1] via the AGM; k is a float or an array.

    Iterates a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n) from
    (1, sqrt(1 - k^2)) and accumulates sum_n 2^{n-1} c_n^2 with
    c_0 = k, c_n = (a_{n-1} - b_{n-1})/2, giving

        E = (pi / (2 a_inf)) (1 - sum_n 2^{n-1} c_n^2).

    Terminates when |a_n - b_n| <= 1e-15 a_n or after 64 iterations.  Each
    element of an array is frozen once it has converged, so it gets
    exactly the arithmetic of a scalar call.
    """
    _check_beta(k, "modulus")
    k = np.asarray(k, dtype=float)
    a = np.ones_like(k)
    b = np.sqrt(1.0 - k * k)
    csum = 0.5 * k * k
    pow2 = 0.5
    live = k != 1.0  # the AGM scale collapses at k = 1; E(1) = 1 exactly
    for _ in range(MAX_AGM_ITERATIONS):
        live &= np.abs(a - b) > _AGM_RTOL * a
        if not live.any():
            break
        c = 0.5 * (a - b)
        a, b = np.where(live, 0.5 * (a + b), a), np.where(live, np.sqrt(a * b), b)
        pow2 *= 2.0
        csum = np.where(live, csum + pow2 * c * c, csum)
    return _scalar(np.where(k == 1.0, 1.0, 0.5 * math.pi * (1.0 - csum) / a))


def c_exact(beta):
    """Exact perimeter ratio 2 E(beta).

    The full-angle contraction integral equals four quarter-period
    integrals, L = 4 R E(beta), so the ratio replacing pi is
    L / (2 R) = 2 E(beta).  Decreases from pi at rest to 2 at beta = 1.
    """
    return 2.0 * complete_elliptic_e(beta)


def c_first_order(beta):
    """First-order expansion pi (1 - beta^2 / 4) of the exact ratio.

    The defect relative to c_exact is O(beta^4) with leading term
    3 pi beta^4 / 64; the quadratic model overshoots the exact contraction
    by a factor of four in the beta^2 coefficient.
    """
    _check_beta(beta)
    return math.pi * (1.0 - 0.25 * beta * beta)


@dataclass(frozen=True)
class PerimeterComparison:
    """The three perimeter ratios and their deviations at one speed ratio.

    Every field is an array of the same shape when beta is one.
    """

    beta: float | np.ndarray
    c_exact: float | np.ndarray
    c_first_order: float | np.ndarray
    c_model: float | np.ndarray
    dev_model: float | np.ndarray
    dev_first_order: float | np.ndarray


def compare(beta) -> PerimeterComparison:
    """Evaluate exact, first-order, and quadratic-model ratios at beta, a float or an array.

    Deviations are measured from the exact value: dev_model
    = c_exact - c_model and dev_first_order = c_exact - c_first_order.
    """
    exact = c_exact(beta)
    first = c_first_order(beta)
    model = c_model(beta)
    return PerimeterComparison(
        beta=beta,
        c_exact=exact,
        c_first_order=first,
        c_model=model,
        dev_model=exact - model,
        dev_first_order=exact - first,
    )
