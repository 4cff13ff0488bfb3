"""Velocity-dependent circle deformation and its relaxation dynamics.

The package evaluates the quadratic deformation factor C(beta)
= pi (1 - beta^2) alongside the exact elliptic-integral perimeter ratio,
relaxes deformation profiles under linear, conformal, and second-order
flows, measures their energies, scales curvature-volume invariants, and
audits a bundled table of quoted reference values.
"""

from . import deform, elliptic, energy, flow, invariants
from .deform import *  # noqa: F401,F403  (each module's __all__ is its public API)
from .elliptic import *  # noqa: F401,F403
from .energy import *  # noqa: F401,F403
from .flow import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    *deform.__all__,
    *elliptic.__all__,
    *energy.__all__,
    *flow.__all__,
    *invariants.__all__,
    "__version__",
]
