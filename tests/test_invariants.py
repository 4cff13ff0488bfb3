"""Tests for curvature-volume invariants and the numeric claim audit."""

import math

import numpy as np
import pytest

from deformflow import (
    AUDIT_PASS_RTOL,
    AuditReport,
    ClaimRow,
    InvariantTriple,
    ManifoldSpec,
    claim_audit,
    conformal_rescale,
    critical_beta,
    flow_invariant_scaling,
    invariant_triple,
    sphere_signature_check,
    sphere_unit,
)

PI = math.pi


def test_triple_definition():
    t = invariant_triple(ManifoldSpec(2.0, 5.0))
    np.testing.assert_allclose(t.as_tuple(), (10.0, 20.0, 20.0 / 3.0), rtol=1e-15)


def test_triple_small_cases():
    np.testing.assert_allclose(
        invariant_triple(ManifoldSpec(1.0, 3.0)).as_tuple(), (3.0, 3.0, 1.0), rtol=1e-15
    )
    assert invariant_triple(ManifoldSpec(0.0, 5.0)).as_tuple() == (0.0, 0.0, 0.0)


def test_third_component_is_exact_third():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = float(rng.uniform(-10.0, 10.0))
        v = float(rng.uniform(0.1, 10.0))
        t = invariant_triple(ManifoldSpec(r, v))
        assert t.i3 == t.i2 / 3.0


def test_unit_sphere_triple():
    t = invariant_triple(sphere_unit())
    want = (12.0 * PI**2, 72.0 * PI**2, 24.0 * PI**2)
    np.testing.assert_allclose(t.as_tuple(), want, rtol=1e-12)


def test_manifold_spec_requires_positive_volume():
    with pytest.raises(ValueError):
        ManifoldSpec(6.0, 0.0)


def test_conformal_rescale_law():
    spec = conformal_rescale(sphere_unit(), 2.0)
    np.testing.assert_allclose(spec.scalar_curvature, 1.5, rtol=1e-15)
    np.testing.assert_allclose(spec.volume, 16.0 * PI**2, rtol=1e-15)
    with pytest.raises(ValueError):
        conformal_rescale(sphere_unit(), 0.0)


def test_conformal_covariance_of_triple():
    # R -> R/s^2 and V -> V s^3 send (i1, i2, i3) to (i1 s, i2 / s, i3 / s)
    rng = np.random.default_rng(23)
    for _ in range(100):
        spec = ManifoldSpec(float(rng.uniform(0.1, 20.0)), float(rng.uniform(0.1, 20.0)))
        s = float(rng.uniform(0.2, 5.0))
        base = invariant_triple(spec)
        scaled = invariant_triple(conformal_rescale(spec, s))
        np.testing.assert_allclose(scaled.i1, base.i1 * s, rtol=1e-12)
        np.testing.assert_allclose(scaled.i2, base.i2 / s, rtol=1e-12)
        np.testing.assert_allclose(scaled.i3, base.i3 / s, rtol=1e-12)


def test_flow_invariant_scaling_sqrt_law():
    # metric factor C means length factor sqrt(C): i1 up, i2 and i3 down
    base = flow_invariant_scaling(1.0, 6.0, 2.0 * PI**2)
    np.testing.assert_allclose(base.as_tuple(), (12.0 * PI**2, 72.0 * PI**2, 24.0 * PI**2), rtol=1e-12)
    for cval in (0.25, 0.5, 2.0, PI):
        t = flow_invariant_scaling(cval, 6.0, 2.0 * PI**2)
        root = math.sqrt(cval)
        np.testing.assert_allclose(t.i1, base.i1 * root, rtol=1e-12)
        np.testing.assert_allclose(t.i2, base.i2 / root, rtol=1e-12)
        np.testing.assert_allclose(t.i3, base.i3 / root, rtol=1e-12)
    with pytest.raises(ValueError):
        flow_invariant_scaling(0.0, 6.0, 1.0)


def test_flow_scaling_agrees_with_conformal_rescale():
    # same change of metric, two parametrizations
    for cval in (0.3, 1.0, 2.5, PI):
        via_flow = flow_invariant_scaling(cval, 6.0, 2.0 * PI**2)
        via_conf = invariant_triple(conformal_rescale(sphere_unit(), math.sqrt(cval)))
        np.testing.assert_allclose(via_flow.as_tuple(), via_conf.as_tuple(), rtol=1e-12)


def test_flow_scaling_at_relaxed_value():
    # sqrt(pi) length factor: i1 = 12 pi^2 sqrt(pi)
    t = flow_invariant_scaling(PI, 6.0, 2.0 * PI**2)
    np.testing.assert_allclose(t.i1, 209.92101993149834, rtol=1e-13)
    np.testing.assert_allclose(t.i1, 12.0 * PI**2 * math.sqrt(PI), rtol=1e-14)
    assert sphere_signature_check(t, flow_invariant_scaling(PI, 6.0, 2.0 * PI**2), tol=1e-12)


def test_sphere_signature_check():
    t = invariant_triple(sphere_unit())
    ref = InvariantTriple(12.0 * PI**2, 72.0 * PI**2, 24.0 * PI**2)
    assert sphere_signature_check(t, ref, tol=1e-12)
    off = InvariantTriple(ref.i1 * (1.0 + 1e-6), ref.i2, ref.i3)
    assert not sphere_signature_check(off, ref, tol=1e-9)


def test_claim_row_statuses():
    good = ClaimRow("x", 2.0, 2.0 + 1e-12)
    assert good.status == "PASS"
    bad = ClaimRow("y", 2.0, 2.1)
    assert bad.status == "DEVIATION"
    np.testing.assert_allclose(bad.abs_dev, 0.1, rtol=1e-12)
    np.testing.assert_allclose(bad.rel_dev, 0.05, rtol=1e-12)


def test_claim_row_of_a_zero_claim_measures_the_absolute_deviation():
    near, far = ClaimRow("z", 0.0, -AUDIT_PASS_RTOL / 2.0), ClaimRow("z", 0.0, 2.0 * AUDIT_PASS_RTOL)
    assert near.rel_dev == near.abs_dev == AUDIT_PASS_RTOL / 2.0 and near.status == "PASS"
    assert far.rel_dev == far.abs_dev == 2.0 * AUDIT_PASS_RTOL and far.status == "DEVIATION"


def test_audit_report_row_lookup():
    report = claim_audit()
    assert isinstance(report, AuditReport)
    with pytest.raises(KeyError):
        report.row("no-such-label")


def test_audit_has_notes():
    report = claim_audit()
    assert len(report.notes) >= 1


def test_audit_critical_ratio_row():
    row = claim_audit().row("critical_speed_ratio")
    assert row.claimed == 0.8257
    np.testing.assert_allclose(row.computed, critical_beta(), rtol=0)
    np.testing.assert_allclose(row.abs_dev, 5.4728823e-05, rtol=1e-3)
    assert row.status == "DEVIATION"  # printed value is a 4-digit rounding


def test_audit_exact_rows_pass():
    report = claim_audit()
    for label in (
        "deformation_at_critical_speed",
        "perimeter_rest_defining_modulus",
        "unit_sphere_i1",
        "unit_sphere_i2",
        "halfpi_rescaled_curvature",
    ):
        assert report.row(label).status == "PASS", label


def test_audit_flags_rest_perimeter_modulus_swap():
    # complementary-modulus convention quotes 2 at rest; the integral gives pi
    row = claim_audit().row("perimeter_rest_complementary_modulus")
    assert row.status == "DEVIATION"
    np.testing.assert_allclose(row.claimed, 2.0, rtol=0)
    np.testing.assert_allclose(row.computed, PI, rtol=0)


def test_audit_flags_sphere_third_invariant():
    row = claim_audit().row("unit_sphere_i3")
    assert row.status == "DEVIATION"
    np.testing.assert_allclose(row.claimed, 48.0 * PI**2, rtol=1e-12)
    np.testing.assert_allclose(row.computed, 24.0 * PI**2, rtol=1e-12)


def test_audit_flags_rescaled_triple_normalized_volume():
    report = claim_audit()
    computed = {
        "rescaled_i1_normalized_volume": 6.0 * PI,
        "rescaled_i2_normalized_volume": 144.0 / PI,
        "rescaled_i3_normalized_volume": 48.0 / PI,
    }
    for label, want in computed.items():
        row = report.row(label)
        assert row.status == "DEVIATION", label
        np.testing.assert_allclose(row.computed, want, rtol=1e-12)


def test_audit_pass_threshold_is_tight():
    assert AUDIT_PASS_RTOL == 1e-9
    for row in claim_audit().rows:
        if row.status == "PASS":
            assert row.rel_dev <= AUDIT_PASS_RTOL
        else:
            assert row.rel_dev > AUDIT_PASS_RTOL


def test_audit_row_count_is_stable():
    assert len(claim_audit().rows) == 20
