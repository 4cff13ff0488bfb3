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
    assert invariant_triple(ManifoldSpec(1e-10, 5e-324)).as_tuple() == (0.0, 0.0, 0.0)  # underflow is in range


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


@pytest.mark.parametrize("R, V", [(1e200, 1.0), (-1e200, 1.0), (1e160, 1e160)], ids=["i2", "negative-R", "i1-and-i2"])
def test_invariant_triple_refuses_a_component_past_the_float_range(R, V):
    with pytest.raises(FloatingPointError) as out_of_range:
        invariant_triple(ManifoldSpec(R, V))
    assert str(out_of_range.value) == f"the invariant triple of R = {R!r}, V = {V!r} leaves the float range"


@pytest.mark.parametrize("R", [1e160, -1e160])
def test_invariant_triple_takes_r_r_past_the_float_range_where_r_squared_v_is_inside_it(R):
    # R R = 1e320 is inf, but R^2 V = R (R V) = 1e120
    want = (math.copysign(1e-40, R), 1e120, 3.333333333333333e119)
    assert invariant_triple(ManifoldSpec(R, 1e-200)).as_tuple() == want


@pytest.mark.parametrize(
    "C, R0, Vol0",
    [
        (1.0, 1e200, 2.0 * PI**2),  # i2 = R0^2 Vol0 overflows
        (1e308, 6.0, 2.0 * PI**2),  # C**1.5 overflows
        (1e-300, 6.0, 2.0 * PI**2),  # C**1.5 underflows to 0
        (1e10, 6.0, 1e300),  # V = Vol0 C^1.5 overflows
        (1e-10, 1e300, 1.0),  # R = R0 / C overflows
        (1e5, 1e-320, 1.0),  # R = R0 / C underflows to 0
    ],
)
def test_flow_scaling_out_of_float_range_names_its_inputs(C, R0, Vol0):
    with pytest.raises(FloatingPointError) as out_of_range:
        flow_invariant_scaling(C, R0, Vol0)
    assert str(out_of_range.value) == (
        f"the invariant triple leaves the float range at C = {C!r} (R0 = {R0!r}, Vol0 = {Vol0!r})"
    )


@pytest.mark.parametrize(
    "C, R0, Vol0, message",
    [
        (0.0, 6.0, 1.0, "conformal factor must be finite and > 0, got 0.0"),
        (math.nan, 6.0, 1.0, "conformal factor must be finite and > 0, got nan"),
        (2.5, math.nan, 1.0, "scalar curvature must be finite, got nan"),
        (2.5, 6.0, -1.0, "volume must be finite and > 0, got -1.0"),
        (1e308, 6.0, 0.0, "volume must be finite and > 0, got 0.0"),
    ],
)
def test_flow_scaling_input_checks_stay_value_errors(C, R0, Vol0, message):
    with pytest.raises(ValueError) as bad:
        flow_invariant_scaling(C, R0, Vol0)
    assert str(bad.value) == message


@pytest.mark.parametrize("s", [1e-200, 1e-155, 5.5e102, 1e200])
def test_conformal_rescale_out_of_float_range_names_s(s):
    # 1e-200: s * s underflows to 0; 1e-155: R / s^2 overflows; 5.5e102: V s^3 overflows; 1e200: s**3 overflows
    with pytest.raises(FloatingPointError) as out_of_range:
        conformal_rescale(sphere_unit(), s)
    assert str(out_of_range.value) == (
        f"rescaling by s = {s!r} takes R = 6.0, V = {2.0 * PI**2!r} out of the float range"
    )
    flat = ManifoldSpec(0.0, 1.0)  # R = 0 stays 0 at any scale, which is no underflow
    assert conformal_rescale(flat, 1e-100).scalar_curvature == 0.0


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
    # a NaN component fails, in the triple or the reference, as a NaN rel_dev fails the audit
    assert not sphere_signature_check(InvariantTriple(math.nan, math.nan, math.nan), t)
    for i in range(3):
        nan = InvariantTriple(*(math.nan if j == i else x for j, x in enumerate(t.as_tuple())))
        assert not sphere_signature_check(nan, t)
        assert not sphere_signature_check(t, nan)


def _sphere_check_by_deviation(triple, reference, tol):
    # the rule as a loop of its own: a component fails only where its relative deviation is > tol
    for have, want in zip(triple.as_tuple(), reference.as_tuple()):
        dev = abs(have - want)
        if (dev / abs(want) if want != 0.0 else dev) > tol:
            return False
    return True


def test_sphere_signature_check_is_the_audit_rule_wherever_the_deviation_is_a_number():
    # zero references take the absolute deviation, a deviation equal to tol passes, and a NaN one,
    # inf - inf or inf / inf, fails
    rng = np.random.default_rng(7)
    values = [0.0, -0.0, 1.0, 1.5, -2.0, 1e-300, 1e300, math.inf, -math.inf, *rng.normal(0.0, 1.0, 6).tolist()]
    cases = [(x, y, tol) for x in values for y in values for tol in (1e-12, 0.5, 1.0, 1e300)]
    cases += [(1.0 + k * 1e-10, 1.0, 1e-9) for k in range(-12, 13)]
    numbers = 0
    for have, want, tol in cases:
        triple, ref = InvariantTriple(have, 1.0, 1.0), InvariantTriple(want, 1.0, 1.0)
        if math.isnan(ClaimRow("x", want, have).rel_dev):
            assert not sphere_signature_check(triple, ref, tol)
            continue
        numbers += 1
        assert sphere_signature_check(triple, ref, tol) == _sphere_check_by_deviation(triple, ref, tol)
    assert numbers > 800


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
