"""Tests for the deformation function and its direct consequences."""

import math
import tracemalloc

import numpy as np
import pytest

from deformflow import (
    c_model,
    c_model_derivatives,
    c_supercritical_limit,
    critical_beta,
    geometric_measures,
    lorentz_gamma,
    quartic_inflection,
    velocity_ratio,
)
from deformflow.deform import _require

PI = math.pi


def test_rest_value_is_pi():
    assert c_model(0.0) == PI


def test_limit_value_is_zero():
    assert c_model(1.0) == 0.0


@pytest.mark.parametrize("beta", [0.0, 0.1, 0.25, 0.5, 0.8256452711765563, 0.99, 1.0])
def test_quadratic_law(beta):
    np.testing.assert_allclose(c_model(beta), PI * (1.0 - beta * beta), rtol=1e-15)


def test_velocity_ratio_scales_by_c():
    assert velocity_ratio(1.5, c=3.0) == 0.5
    assert velocity_ratio(0.25) == 0.25


def test_velocity_ratio_is_even():
    assert velocity_ratio(-0.5) == velocity_ratio(0.5)


def test_velocity_ratio_rejects_superluminal():
    with pytest.raises(ValueError):
        velocity_ratio(1.0 + 1e-12)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
def test_c_model_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        c_model(bad)


def test_critical_beta_value():
    # exact: sqrt(1 - 1/pi)
    bc = critical_beta()
    np.testing.assert_allclose(bc, math.sqrt(1.0 - 1.0 / PI), rtol=0, atol=0)
    np.testing.assert_allclose(bc, 0.8256452711765563, rtol=1e-15)
    np.testing.assert_allclose(bc * bc, 1.0 - 1.0 / PI, rtol=1e-15)


def test_unit_deformation_at_critical_ratio():
    assert abs(c_model(critical_beta()) - 1.0) <= 1e-12


def test_derivatives_against_finite_differences():
    h = 1e-6
    for beta in (0.1, 0.4, 0.7):
        d1, d2 = c_model_derivatives(beta)
        fd1 = (c_model(beta + h) - c_model(beta - h)) / (2.0 * h)
        fd2 = (c_model(beta + h) - 2.0 * c_model(beta) + c_model(beta - h)) / (h * h)
        np.testing.assert_allclose(d1, fd1, rtol=1e-8)
        np.testing.assert_allclose(d2, fd2, rtol=1e-3)
        np.testing.assert_allclose(d1, -2.0 * PI * beta, rtol=1e-15)
        assert d2 == -2.0 * PI


def test_gamma_values():
    assert lorentz_gamma(0.0) == 1.0
    np.testing.assert_allclose(lorentz_gamma(0.6), 1.25, rtol=1e-15)  # 3-4-5


def test_gamma_identity():
    # C(beta) * gamma^2 == pi on the open interval
    for beta in (0.0, 0.3, 0.6, 0.9, 0.999):
        g = lorentz_gamma(beta)
        np.testing.assert_allclose(c_model(beta) * g * g, PI, rtol=1e-12)


def test_gamma_diverges_at_limit():
    with pytest.raises(ValueError):
        lorentz_gamma(1.0)


def test_supercritical_limit_values():
    np.testing.assert_allclose(c_supercritical_limit(1.0, K=1.0), PI + 1.0, rtol=1e-15)
    np.testing.assert_allclose(c_supercritical_limit(0.9, K=2.0), PI + 2.0 / 0.81, rtol=1e-15)
    # K = 0 collapses onto the flat target
    assert c_supercritical_limit(0.5, K=0.0) == PI


def test_supercritical_limit_approaches_pi():
    vals = [c_supercritical_limit(b, K=1.0) for b in (1.0, 2.0, 4.0, 8.0)]
    gaps = [v - PI for v in vals]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-1 * gaps[0]
    assert abs(c_supercritical_limit(1000.0, K=1.0) - (PI + 1e-6)) <= 1e-12


def test_supercritical_limit_rejects_bad_args():
    with pytest.raises(ValueError):
        c_supercritical_limit(0.0, K=1.0)
    with pytest.raises(ValueError):
        c_supercritical_limit(0.5, K=-1.0)


def test_geometric_measures_at_rest():
    m = geometric_measures(0.0, 2.0)
    np.testing.assert_allclose(m.length, 2.0 * PI, rtol=1e-15)
    np.testing.assert_allclose(m.area, PI * PI, rtol=1e-15)  # C^2 D^2 / 4 convention
    np.testing.assert_allclose(m.volume_ratio, 1.0, rtol=1e-15)


def test_geometric_measures_scale_with_deformation():
    beta = 0.6
    m = geometric_measures(beta, 1.0)
    cv = c_model(beta)
    np.testing.assert_allclose(m.length, cv, rtol=1e-15)
    np.testing.assert_allclose(m.area, cv * cv / 4.0, rtol=1e-15)
    np.testing.assert_allclose(m.volume_ratio, (cv / PI) ** 3, rtol=1e-15)


def test_geometric_measures_vanish_at_limit():
    m = geometric_measures(1.0, 2.0)
    assert (m.length, m.area, m.volume_ratio) == (0.0, 0.0, 0.0)


def test_geometric_measures_rejects_bad_diameter():
    with pytest.raises(ValueError):
        geometric_measures(0.5, 0.0)


def test_quartic_inflection_location():
    # model coefficient a = pi gives v* = c / sqrt(6)
    v = quartic_inflection(PI)
    assert v is not None
    np.testing.assert_allclose(v, 1.0 / math.sqrt(6.0), rtol=1e-15)
    v3 = quartic_inflection(PI, c=3.0)
    np.testing.assert_allclose(v3, 3.0 / math.sqrt(6.0), rtol=1e-15)
    # a = pi/6 puts the sign change exactly on the band edge
    np.testing.assert_allclose(quartic_inflection(PI / 6.0), 1.0, rtol=1e-15)
    np.testing.assert_allclose(quartic_inflection(PI / 3.0), math.sqrt(0.5), rtol=1e-15)


def test_quartic_inflection_outside_range_is_none():
    # small quartic coefficient pushes the inflection past v = c
    assert quartic_inflection(PI / 12.0) is None


def test_quartic_inflection_none_when_concave_everywhere():
    assert quartic_inflection(0.0) is None
    assert quartic_inflection(-2.0) is None
    with pytest.raises(ValueError):
        quartic_inflection(float("nan"))


def test_require_names_the_first_failure_without_a_copy():
    # gathering the failing values before taking the first peaked at 1.25x the array
    x = np.full(2**22, math.nan)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
            _require(x, np.isfinite(x), "x must be finite")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * x.nbytes
