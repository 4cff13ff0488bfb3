"""Tests for the AGM elliptic integral and the perimeter comparisons."""

import math

import numpy as np
import pytest

from deformflow import (
    c_exact,
    c_first_order,
    c_model,
    compare,
    complete_elliptic_e,
)
from oracles import elliptic_e_quadrature

PI = math.pi

# frozen quadrature values for E(k), defining-integral adaptive Simpson at 1e-13
E_QUAD_FROZEN = {
    0.3: 1.5348334649232491,
    0.5: 1.4674622093394272,
    0.9: 1.1716970527816142,
}


def test_endpoint_values_exact():
    assert complete_elliptic_e(0.0) == PI / 2.0
    assert complete_elliptic_e(1.0) == 1.0


@pytest.mark.parametrize("k,expected", sorted(E_QUAD_FROZEN.items()))
def test_agm_matches_frozen_quadrature(k, expected):
    np.testing.assert_allclose(complete_elliptic_e(k), expected, rtol=0, atol=1e-13)


def test_agm_matches_live_quadrature_sweep():
    for k in np.linspace(0.0, 0.999, 41):
        ref = elliptic_e_quadrature(float(k))
        np.testing.assert_allclose(complete_elliptic_e(float(k)), ref, rtol=0, atol=1e-12)


def test_monotone_decreasing_in_modulus():
    ks = np.linspace(0.0, 1.0, 101)
    vals = [complete_elliptic_e(float(k)) for k in ks]
    diffs = np.diff(vals)
    assert np.all(diffs < 0.0)


def test_rejects_out_of_range_modulus():
    for bad in (-0.1, 1.0 + 1e-9, float("nan")):
        with pytest.raises(ValueError):
            complete_elliptic_e(bad)


def test_exact_perimeter_rest_and_limit():
    # 2 E(0) = pi, 2 E(1) = 2
    np.testing.assert_allclose(c_exact(0.0), PI, rtol=0, atol=0)
    np.testing.assert_allclose(c_exact(1.0), 2.0, rtol=0, atol=0)


def test_exact_perimeter_frozen_value():
    np.testing.assert_allclose(c_exact(0.5), 2.9349244186788543, rtol=0, atol=1e-13)


def test_first_order_expansion():
    np.testing.assert_allclose(c_first_order(0.5), PI * (1.0 - 0.0625), rtol=1e-15)
    assert c_first_order(0.0) == PI


def test_small_beta_deviation_scales_quartically():
    # c_exact - c_first_order ~ -3 pi beta^4 / 64; betas stay above the
    # cancellation floor (dev ~ 1e-9 against ~1e-16 roundoff at 1e-2)
    betas = np.logspace(-2, -1, 9)
    devs = np.array([c_exact(float(b)) - c_first_order(float(b)) for b in betas])
    assert np.all(devs < 0.0)  # exact perimeter sits below the first-order line
    slope = np.polyfit(np.log(betas), np.log(-devs), 1)[0]
    assert abs(slope - 4.0) < 0.05
    lead = -devs[0] / betas[0] ** 4
    np.testing.assert_allclose(lead, 3.0 * PI / 64.0, rtol=1e-3)


def test_model_deviation_frozen_value():
    # c_exact(0.5) - c_model(0.5), quadrature-frozen
    row = compare(0.5)
    np.testing.assert_allclose(row.dev_model, 0.5787299284865094, rtol=0, atol=1e-12)


def test_first_order_deviation_frozen_value():
    # c_exact(0.1) - c_first_order(0.1) ~ -3 pi (0.1)^4 / 64
    row = compare(0.1)
    np.testing.assert_allclose(row.dev_first_order, -1.4787912482172925e-05, rtol=1e-9)


def test_compare_row_is_consistent():
    row = compare(0.3)
    np.testing.assert_allclose(row.c_exact, 2.0 * complete_elliptic_e(0.3), rtol=0)
    np.testing.assert_allclose(row.c_model, c_model(0.3), rtol=0)
    np.testing.assert_allclose(row.dev_model, row.c_exact - row.c_model, rtol=0, atol=0)
    np.testing.assert_allclose(
        row.dev_first_order, row.c_exact - row.c_first_order, rtol=0, atol=0
    )
    assert row.beta == 0.3


def test_model_sits_below_exact_perimeter():
    # quadratic model decays faster than the true perimeter everywhere inside
    for b in np.linspace(0.05, 1.0, 20):
        assert c_exact(float(b)) > c_model(float(b))


def test_deviation_grows_toward_limit():
    devs = [compare(float(b)).dev_model for b in np.linspace(0.1, 1.0, 10)]
    assert devs == sorted(devs)
    np.testing.assert_allclose(devs[-1], 2.0, rtol=1e-14)  # 2 E(1) - 0


def scalar_agm_e(k):
    """The scalar AGM loop the array kernel replaced, kept as its reference."""
    if k == 1.0:
        return 1.0
    a, b = 1.0, math.sqrt(1.0 - k * k)
    csum, pow2 = 0.5 * k * k, 0.5
    for _ in range(64):
        if abs(a - b) <= 1e-15 * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        pow2 *= 2.0
        csum += pow2 * c * c
    return 0.5 * math.pi * (1.0 - csum) / a


class TestArrayAgm:
    KS = np.concatenate(
        [np.linspace(0.0, 1.0, 4097), [1.0 - 2.0**-53, 1.0 - 2.0**-40, 5e-324, 1e-300, 1e-8, 0.999999]]
    )

    def test_array_is_bitwise_the_scalar_loop(self):
        got = complete_elliptic_e(self.KS)
        want = np.array([scalar_agm_e(float(k)) for k in self.KS])
        assert got.shape == self.KS.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_scalar_input_returns_float(self):
        for k in (0.0, 0.3, 1.0 - 2.0**-53, 1.0):
            got = complete_elliptic_e(k)
            assert type(got) is float
            assert got == scalar_agm_e(k)

    def test_array_rejects_the_first_bad_modulus(self):
        with pytest.raises(ValueError, match=r"modulus must lie in \[0, 1\], got 1.5"):
            complete_elliptic_e(np.array([0.2, 1.5, -1.0]))
        with pytest.raises(ValueError, match="got nan"):
            c_exact(np.array([0.2, float("nan")]))
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\], got -0.5"):
            c_first_order(np.array([-0.5]))

    def test_compare_on_an_array_is_compare_per_element(self):
        betas = self.KS[::64]
        rows = compare(betas)
        for i, b in enumerate(betas.tolist()):
            one = compare(b)
            for field in ("beta", "c_exact", "c_first_order", "c_model", "dev_model", "dev_first_order"):
                assert getattr(rows, field)[i] == getattr(one, field)
