"""Curvature-volume invariants of constant-curvature spaces.

A space of constant scalar curvature R and volume V carries the triple

    I1 = R V,    I2 = R^2 V,    I3 = (R^2 / 3) V,

none of which is conformally invariant: rescaling lengths by s maps the
triple to (I1 s, I2 / s, I3 / s).  The flow substitution R -> R0 / C,
V -> V0 C^{3/2} scales every component by sqrt(C).

``claim_audit`` cross-checks a bundled table of quoted reference values
for these quantities against direct evaluation and marks each row PASS or
DEVIATION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .deform import (
    _require, _require_positive, c_model, c_supercritical_limit, critical_beta, geometric_measures,
)
from .elliptic import c_exact, complete_elliptic_e

__all__ = [
    "ManifoldSpec",
    "InvariantTriple",
    "invariant_triple",
    "sphere_unit",
    "conformal_rescale",
    "flow_invariant_scaling",
    "sphere_signature_check",
    "ClaimRow",
    "AuditReport",
    "claim_audit",
    "AUDIT_PASS_RTOL",
]

# A quoted value within this relative distance of the computed one passes.
AUDIT_PASS_RTOL = 1e-9


@dataclass(frozen=True)
class ManifoldSpec:
    """Constant scalar curvature and total volume of one space."""

    scalar_curvature: float
    volume: float

    def __post_init__(self) -> None:
        r = self.scalar_curvature
        _require(r, math.isfinite(r), "scalar curvature must be finite")
        _require_positive(self.volume, "volume")


@dataclass(frozen=True)
class InvariantTriple:
    i1: float
    i2: float
    i3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.i1, self.i2, self.i3)


def invariant_triple(spec: ManifoldSpec) -> InvariantTriple:
    """(R V, R^2 V, R^2 V / 3); i3 = i2 / 3 holds exactly by construction.

    R^2 V is R (R V) where R R overflows.  A component past the float range raises FloatingPointError naming R and V.
    """
    r, v = spec.scalar_curvature, spec.volume
    i1 = r * v
    i2 = r * r * v
    if not math.isfinite(i2):
        i2 = r * i1
    if not (math.isfinite(i1) and math.isfinite(i2)):
        raise FloatingPointError(f"the invariant triple of R = {r!r}, V = {v!r} leaves the float range")
    return InvariantTriple(i1=i1, i2=i2, i3=i2 / 3.0)


def sphere_unit() -> ManifoldSpec:
    """The unit round 3-sphere: R = 6, V = 2 pi^2."""
    return ManifoldSpec(scalar_curvature=6.0, volume=2.0 * math.pi**2)


def conformal_rescale(spec: ManifoldSpec, s: float) -> ManifoldSpec:
    """Rescale all lengths by s > 0: curvature gains 1/s^2, volume s^3.

    A rescaled R or V past the float range, or one that underflows to 0,
    raises FloatingPointError naming s and the space.
    """
    _require_positive(s, "scale factor")
    r, v = spec.scalar_curvature, spec.volume
    try:  # s * s may underflow to 0, and float ** raises where s**3 overflows
        curvature, volume = r / (s * s), v * s**3
    except (ZeroDivisionError, OverflowError):
        curvature = volume = math.inf
    if math.isfinite(curvature) and (curvature != 0.0 or r == 0.0) and 0.0 < volume < math.inf:
        return ManifoldSpec(scalar_curvature=curvature, volume=volume)
    raise FloatingPointError(f"rescaling by s = {s!r} takes R = {r!r}, V = {v!r} out of the float range")


def flow_invariant_scaling(C: float, R0: float, Vol0: float) -> InvariantTriple:
    """Triple after the substitution R = R0 / C, V = Vol0 C^{3/2}.

    Every component equals its C = 1 value times sqrt(C); equivalent to
    ``invariant_triple(conformal_rescale(spec, sqrt(C)))``.  A scaled R
    or V past the float range, or one that underflows to 0, and a
    component past it raise FloatingPointError naming C, R0 and Vol0.
    """
    _require_positive(C, "conformal factor")
    ManifoldSpec(R0, Vol0)  # R0 and Vol0 are checked as given, so what leaves the range below is the arithmetic
    try:  # float ** raises where C**1.5 overflows, and invariant_triple where a component does
        curvature, volume = R0 / C, Vol0 * C**1.5
        if math.isfinite(curvature) and (curvature != 0.0 or R0 == 0.0) and 0.0 < volume < math.inf:
            return invariant_triple(ManifoldSpec(scalar_curvature=curvature, volume=volume))
    except (OverflowError, FloatingPointError):
        pass
    raise FloatingPointError(
        f"the invariant triple leaves the float range at C = {C!r} (R0 = {R0!r}, Vol0 = {Vol0!r})"
    )


def sphere_signature_check(
    triple: InvariantTriple, reference: InvariantTriple, tol: float = AUDIT_PASS_RTOL
) -> bool:
    """True when each component passes the audit's rule, a rel_dev from the reference <= tol, which NaN fails."""
    _require_positive(tol, "tol")
    pairs = zip(triple.as_tuple(), reference.as_tuple())
    return all(ClaimRow("sphere", want, have).rel_dev <= tol for have, want in pairs)


@dataclass(frozen=True)
class ClaimRow:
    """One audited value: a quoted claim against its direct evaluation."""

    label: str
    claimed: float
    computed: float

    @property
    def abs_dev(self) -> float:
        return abs(self.claimed - self.computed)

    @property
    def rel_dev(self) -> float:
        if self.claimed == 0.0:
            return self.abs_dev
        return self.abs_dev / abs(self.claimed)

    @property
    def status(self) -> str:
        return "PASS" if self.rel_dev <= AUDIT_PASS_RTOL else "DEVIATION"


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[ClaimRow, ...]
    notes: tuple[str, ...]

    def row(self, label: str) -> ClaimRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def claim_audit() -> AuditReport:
    """Audit the bundled reference values against direct evaluation.

    Rows are deterministic: the same table, in the same order, on every
    call.  PASS means the quoted value agrees with the computed one to
    AUDIT_PASS_RTOL; DEVIATION rows quantify quoted values that do not
    follow from the definitions they accompany.
    """
    pi = math.pi
    bc = critical_beta()
    unit = invariant_triple(sphere_unit())

    half_pi_spec = conformal_rescale(sphere_unit(), pi / 2.0)
    normalized = invariant_triple(ManifoldSpec(half_pi_spec.scalar_curvature, pi**3 / 4.0))
    physical = invariant_triple(half_pi_spec)
    pi_metric = invariant_triple(conformal_rescale(sphere_unit(), math.sqrt(pi)))
    claimed_limit = (6.0 * pi**2, 36.0 * pi**2, 24.0 * pi**2)

    rows = (
        ClaimRow("critical_speed_ratio", 0.8257, bc),
        ClaimRow("deformation_at_critical_speed", 1.0, c_model(bc)),
        ClaimRow("perimeter_rest_defining_modulus", pi, c_exact(0.0)),
        ClaimRow(
            "perimeter_rest_complementary_modulus",
            2.0 * complete_elliptic_e(1.0),
            c_exact(0.0),
        ),
        ClaimRow("area_formula_vs_disk_at_rest", geometric_measures(0.0, 1.0).area, pi / 4.0),
        ClaimRow("unit_sphere_i1", 12.0 * pi**2, unit.i1),
        ClaimRow("unit_sphere_i2", 72.0 * pi**2, unit.i2),
        ClaimRow("unit_sphere_i3", 48.0 * pi**2, unit.i3),
        ClaimRow("halfpi_rescaled_curvature", 24.0 / pi**2, half_pi_spec.scalar_curvature),
        ClaimRow("halfpi_rescaled_volume", pi**3 / 4.0, half_pi_spec.volume),
        ClaimRow("rescaled_i1_normalized_volume", claimed_limit[0], normalized.i1),
        ClaimRow("rescaled_i2_normalized_volume", claimed_limit[1], normalized.i2),
        ClaimRow("rescaled_i3_normalized_volume", claimed_limit[2], normalized.i3),
        ClaimRow("rescaled_i1_physical_volume", claimed_limit[0], physical.i1),
        ClaimRow("rescaled_i2_physical_volume", claimed_limit[1], physical.i2),
        ClaimRow("rescaled_i3_physical_volume", claimed_limit[2], physical.i3),
        ClaimRow("pi_limit_metric_i1", claimed_limit[0], pi_metric.i1),
        ClaimRow("pi_limit_metric_i2", claimed_limit[1], pi_metric.i2),
        ClaimRow("pi_limit_metric_i3", claimed_limit[2], pi_metric.i3),
        ClaimRow(
            "supercritical_target_at_critical_ratio",
            pi,
            c_supercritical_limit(bc, 1.0, 1.0),
        ),
    )
    notes = (
        "linear flows pick the relaxation branch per sample; a sample exactly at "
        "the critical ratio uses the subcritical target pi, which matches the "
        "supercritical target only when K = 0 "
        "(see supercritical_target_at_critical_ratio, quoted at K = 1)",
        "the static action integral of the factor over the speed band has only "
        "trivial stationary points, so no operation is derived from it",
        "two rescaling conventions appear for the relaxed metric, length factors "
        "pi/2 and sqrt(pi); both are audited and neither reproduces the quoted "
        "triple (6 pi^2, 36 pi^2, 24 pi^2)",
    )
    return AuditReport(rows=rows, notes=notes)
