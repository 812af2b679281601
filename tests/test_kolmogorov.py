"""Limit laws of the scaled sup statistics: CDFs, quantiles, widths."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from lossq.kolmogorov import (
    LimitLaw,
    conv_cdf,
    kolmogorov_cdf,
    one_sided_cdf,
    quantile,
    width_for,
)

from support import crossing_point

# Quantiles frozen from the bisection itself after verifying the CDF values
# round-trip (the published 4-5 digit values 1.3581 / 1.224 / 2.08 agree).
Z_TWO_SIDED = 1.3580986393228045
Z_ONE_SIDED = 1.2238734153405062
Z_ONE_SIDED_SUM = 2.073026244748064

# each limit law's CDF
CDF = {
    LimitLaw.TWO_SIDED: kolmogorov_cdf,
    LimitLaw.ONE_SIDED: one_sided_cdf,
    LimitLaw.ONE_SIDED_SUM: conv_cdf,
}


# ------------------------------------------------------------------ CDFs


def test_two_sided_law_anchors():
    assert kolmogorov_cdf(1.3581) == pytest.approx(0.95, abs=1e-3)
    assert kolmogorov_cdf(10.0) == pytest.approx(1.0, abs=1e-12)
    # K(0.1) = 6.609305242245e-53 by the 200-digit alternating series; K
    # underflows to 0 below about z = 0.0407
    assert kolmogorov_cdf(0.1) == pytest.approx(6.6093052422454707514e-53, rel=1e-12)
    assert kolmogorov_cdf(0.04) == 0.0
    assert kolmogorov_cdf(0.0) == 0.0
    assert kolmogorov_cdf(-1.0) == 0.0


def test_one_sided_law_anchors():
    assert one_sided_cdf(1.224) == pytest.approx(0.95, abs=1e-3)
    # 1 - exp(-2 z^2) = 0.5 exactly at z = sqrt(ln 2 / 2)
    assert one_sided_cdf(math.sqrt(math.log(2.0) / 2.0)) == pytest.approx(0.5, abs=1e-12)
    assert one_sided_cdf(0.0) == 0.0


def test_sum_law_anchors():
    assert conv_cdf(2.08) == pytest.approx(0.95, abs=2e-3)
    assert conv_cdf(0.0) == 0.0


def _conv_by_quadrature(z: float) -> float:
    # Direct convolution of the one-sided law with itself: integrate the
    # survival-weighted density 4x e^{-2x^2} over [0, z].
    val, _ = scipy.integrate.quad(
        lambda x: (1.0 - math.exp(-2.0 * (z - x) ** 2)) * 4.0 * x * math.exp(-2.0 * x**2),
        0.0,
        z,
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
    )
    return val


def test_sum_law_closed_form_matches_quadrature_at_unit_point():
    assert conv_cdf(1.0) == pytest.approx(_conv_by_quadrature(1.0), abs=1e-8)


@pytest.mark.parametrize("z", np.arange(0.25, 5.0 + 1e-9, 0.25))
def test_sum_law_closed_form_matches_quadrature_on_grid(z):
    assert conv_cdf(float(z)) == pytest.approx(_conv_by_quadrature(float(z)), abs=1e-8)


def test_laws_are_monotone_and_bounded():
    grid = np.linspace(0.0, 5.0, 10_000)
    for law in LimitLaw:
        vals = np.array([CDF[law](float(z)) for z in grid])
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_one_sided_law_dominates_two_sided_law():
    # One deviation below a threshold is more likely than both.
    for z in np.linspace(0.0, 5.0, 500):
        assert one_sided_cdf(float(z)) >= kolmogorov_cdf(float(z))


def test_sum_law_is_dominated_by_one_sided_law():
    # A sum of two nonnegative deviations exceeds each part.
    for z in np.linspace(0.0, 5.0, 500):
        assert conv_cdf(float(z)) <= one_sided_cdf(float(z)) + 1e-15


# ------------------------------------------------------------- quantiles


def test_quantile_anchors():
    assert quantile(LimitLaw.TWO_SIDED, 0.95) == pytest.approx(Z_TWO_SIDED, abs=1e-9)
    assert quantile(LimitLaw.ONE_SIDED, 0.95) == pytest.approx(Z_ONE_SIDED, abs=1e-9)
    assert quantile(LimitLaw.ONE_SIDED_SUM, 0.95) == pytest.approx(Z_ONE_SIDED_SUM, abs=1e-9)


@pytest.mark.parametrize("law", list(LimitLaw))
def test_quantile_inverts_the_law(law):
    for p in (0.2, 0.5, 0.9, 0.99):
        z = quantile(law, p)
        assert CDF[law](z) == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("law", list(LimitLaw))
def test_quantile_round_trip(law):
    for z in np.linspace(0.5, 3.0, 11):
        p = CDF[law](float(z))
        if p <= 0.0 or p >= 1.0:
            continue
        assert quantile(law, p) == pytest.approx(float(z), abs=1e-8)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
def test_quantile_rejects_degenerate_levels(p):
    with pytest.raises(ValueError):
        quantile(LimitLaw.TWO_SIDED, p)


def test_quantile_ordering_above_the_crossing_level():
    # Where the sum law's quantile is below twice the one-sided quantile,
    # a pair of one-sided bounds beats a two-sided bound of equal confidence.
    for p in (0.6166, 0.65, 0.7, 0.8, 0.9, 0.95, 0.99):
        q_sum = quantile(LimitLaw.ONE_SIDED_SUM, p)
        q_one = quantile(LimitLaw.ONE_SIDED, p)
        q_two = quantile(LimitLaw.TWO_SIDED, p)
        assert q_sum <= 2.0 * q_one <= 2.0 * q_two + 1e-12


def _two_sided_reference(z):
    # the defining alternating series, whose terms are about 1 while K(z) is
    # about exp(-pi^2 / (8 z^2)): the working precision adds the digits that
    # cancel, so that 50 digits are left
    with mpmath.workdps(60 + int(0.54 / z**2)):
        cut = mpmath.mpf(10) ** -mpmath.mp.dps
        total, j = mpmath.mpf(0), 1
        while (term := mpmath.exp(-2 * j * j * z * z)) > cut:
            total += (-1) ** j * term
            j += 1
        return 1 + 2 * total


def _cancelling_digits(z):
    # the closed forms below cancel to about z^2 (one-sided) and z^4 (sum)
    return 60 + max(0, int(-4 * mpmath.log10(z)))


def _one_sided_reference(z):
    with mpmath.workdps(_cancelling_digits(z)):
        return 1 - mpmath.exp(-2 * z * z)


def _sum_reference(z):
    with mpmath.workdps(_cancelling_digits(z)):
        return (1 - mpmath.exp(-2 * z * z)
                - mpmath.sqrt(mpmath.pi) * z * mpmath.exp(-z * z) * mpmath.erf(z))


_REFERENCES = {
    LimitLaw.TWO_SIDED: _two_sided_reference,
    LimitLaw.ONE_SIDED: _one_sided_reference,
    LimitLaw.ONE_SIDED_SUM: _sum_reference,
}

_LEVELS = (1e-30, 1e-20, 1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.5000001, 0.7, 0.95,
           0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12)


@pytest.mark.parametrize("law", list(LimitLaw))
@pytest.mark.parametrize("p", _LEVELS)
def test_quantile_matches_the_50_digit_law(law, p):
    # the true quantile lies within 1e-9 (relative) of the computed one
    # exactly when the increasing law crosses p inside that bracket
    z = mpmath.mpf(quantile(law, p))
    reference = _REFERENCES[law]
    with mpmath.workdps(50):
        assert reference(z * (1 - mpmath.mpf("1e-9"))) < p < reference(z * (1 + mpmath.mpf("1e-9")))


@pytest.mark.parametrize("law, z", [
    (LimitLaw.TWO_SIDED, 0.05), (LimitLaw.TWO_SIDED, 0.1), (LimitLaw.TWO_SIDED, 0.15),
    (LimitLaw.TWO_SIDED, 0.1777), (LimitLaw.TWO_SIDED, 0.5),
    (LimitLaw.ONE_SIDED, 1e-150), (LimitLaw.ONE_SIDED, 1e-10), (LimitLaw.ONE_SIDED, 0.01),
    (LimitLaw.ONE_SIDED_SUM, 1e-70), (LimitLaw.ONE_SIDED_SUM, 1e-4),
    (LimitLaw.ONE_SIDED_SUM, 0.01), (LimitLaw.ONE_SIDED_SUM, 0.3),
    (LimitLaw.ONE_SIDED_SUM, 0.4999), (LimitLaw.ONE_SIDED_SUM, 0.5),
])
def test_small_arguments_keep_relative_accuracy(law, z):
    # no silent zero and no cancellation where the laws are tiny
    reference = float(_REFERENCES[law](mpmath.mpf(z)))
    assert reference > 0.0
    assert CDF[law](z) == pytest.approx(reference, rel=1e-12)


# ---------------------------------------------------------------- widths


def test_widths_at_ten_thousand_observations():
    n = 10_000
    assert width_for(LimitLaw.TWO_SIDED, 0.95, n) == pytest.approx(0.013581, abs=1e-4)
    assert width_for(LimitLaw.ONE_SIDED, 0.95, n) == pytest.approx(0.012239, abs=1e-4)
    assert width_for(LimitLaw.ONE_SIDED_SUM, 0.95, n) == pytest.approx(0.020730, abs=1e-4)


@pytest.mark.parametrize("law", list(LimitLaw))
@pytest.mark.parametrize("n", [100, 2_000, 10_000])
def test_width_scales_with_root_sample_size(law, n):
    width = width_for(law, 0.95, n)
    assert width == pytest.approx(quantile(law, 0.95) / math.sqrt(n), abs=1e-15)
    assert CDF[law](width * math.sqrt(n)) == pytest.approx(0.95, abs=1e-9)


def test_quantiles_are_memoised_and_an_invalid_level_raises_every_time():
    quantile.cache_clear()
    first = width_for(LimitLaw.ONE_SIDED_SUM, 0.9, 400)
    again = width_for(LimitLaw.ONE_SIDED_SUM, 0.9, 400)
    assert first == again
    assert quantile.cache_info().hits == 1
    # the remembered quantile is the one a fresh bisection gives
    assert quantile(LimitLaw.ONE_SIDED_SUM, 0.9) == quantile.__wrapped__(
        LimitLaw.ONE_SIDED_SUM, 0.9)
    for _ in range(3):
        with pytest.raises(ValueError, match="quantile level"):
            width_for(LimitLaw.TWO_SIDED, 1.5, 100)


def test_width_rejects_a_sample_size_past_the_largest_float():
    with pytest.raises(ValueError, match="too large"):
        width_for(LimitLaw.TWO_SIDED, 0.95, 10**400)
    assert width_for(LimitLaw.TWO_SIDED, 0.95, 10**300) == pytest.approx(
        Z_TWO_SIDED * 1e-150, rel=1e-12)


def test_width_rejects_a_sample_size_below_one():
    for n in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            width_for(LimitLaw.ONE_SIDED, 0.95, n)


# -------------------------------------------------------- crossing point


def test_crossing_point_is_a_true_crossing():
    x0, level = crossing_point()
    # Frozen from the bisection; verified against high-precision evaluation
    # of both CDFs (the difference changes sign exactly once on [0.5, 3]).
    assert x0 == pytest.approx(1.3062427049671328, abs=1e-9)
    assert level == pytest.approx(0.5739229166027885, abs=1e-9)
    f1 = -math.expm1(-(x0**2) / 2.0)
    f2 = conv_cdf(x0)
    assert abs(f1 - f2) <= 1e-9
    assert level == pytest.approx(f1, abs=1e-9)


def test_crossing_point_separates_the_sign():
    x0, _ = crossing_point()
    diff = lambda x: -math.expm1(-(x**2) / 2.0) - conv_cdf(x)
    assert diff(x0 - 0.05) > 0.0
    assert diff(x0 + 0.05) < 0.0
