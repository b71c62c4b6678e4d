"""Density constructors, hypothesis validation, inversion, growth class."""

import dataclasses
import json
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from lingrowth import density
from lingrowth.density import (
    Growth,
    TailEstimate,
    classify_growth,
    flux,
    invert_gprime,
    make_area_density,
    make_custom_density,
    make_mu_density,
    normalize,
    tangent,
    validate,
)

SAMPLES = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 200)])


# -- constructors -----------------------------------------------------------


def test_area_values_at_origin(area):
    g, gp, gpp = area.eval(0.0)
    assert g == 1.0
    assert gp == 0.0
    assert gpp == 1.0


def test_area_values_at_one(area):
    g, gp, gpp = area.eval(1.0)
    assert g == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert gp == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
    assert gpp == pytest.approx(2.0 ** -1.5, abs=1e-15)


def test_area_analytic_inverse_round_trip(area):
    assert area.analytic_inverse(1.0 / math.sqrt(2.0)) == pytest.approx(1.0, abs=1e-15)


def test_mu3_inverse_at_half():
    d = make_mu_density(3.0)
    assert d.analytic_inverse(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-14)


def test_mu2_values_at_one(mu2):
    g, gp, gpp = mu2.eval(1.0)
    assert g == pytest.approx(1.0 - math.log(2.0), abs=1e-15)
    assert gp == pytest.approx(0.5, abs=1e-15)
    assert gpp == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("mu", [1.5, 2.0, 2.5, 3.0, 4.0])
def test_mu_family_origin(mu):
    g, gp, gpp = make_mu_density(mu).eval(0.0)
    assert g == 0.0
    assert gp == 0.0
    assert gpp == pytest.approx(mu - 1.0, abs=1e-15)


@pytest.mark.parametrize("mu", [1.0, 0.5, 0.0, -3.0, np.inf, np.nan, 1e20,
                                1e308, pytest.param("3", id="string"),
                                pytest.param(True, id="bool"),
                                pytest.param(10 ** 400, id="huge-int")])
def test_mu_must_exceed_one(mu):
    # from about 1e19 on, a coefficient of g's series overflows a float;
    # "3" ended in a bare TypeError from comparing it with 1.0
    with pytest.raises(ValueError, match="^mu: "):
        make_mu_density(mu)


@pytest.mark.parametrize("mu", [np.float32(3.0), np.float16(3.0),
                                np.int64(3), 3],
                         ids=["float32", "float16", "int64", "int"])
def test_mu_of_any_real_type_builds_the_float_mu(mu):
    d, ref = make_mu_density(mu), make_mu_density(3.0)
    assert d.label == ref.label == "mu(3)"
    t = np.array([0.0, 0.3, 7.0])
    for a, b in zip(d.eval(t), ref.eval(t)):
        np.testing.assert_array_equal(a, b)


def test_large_finite_mu_builds():
    d = make_mu_density(1e18)
    assert d.g(0.5) == 0.5 and d.gprime(0.5) == 1.0


def test_mu_closed_form_consistency(rng):
    # g must actually antidifferentiate g' (and g' antidifferentiate g''):
    # central differences at random points, both branches of the mu switch
    for mu in (1.7, 2.0, 2.6, 3.5):
        d = make_mu_density(mu)
        t = rng.uniform(0.05, 20.0, 40)
        h = 1e-6
        dg = (d.g(t + h) - d.g(t - h)) / (2 * h)
        dgp = (d.gprime(t + h) - d.gprime(t - h)) / (2 * h)
        assert np.allclose(dg, d.gprime(t), rtol=1e-7, atol=1e-9)
        assert np.allclose(dgp, d.gsecond(t), rtol=1e-6, atol=1e-9)


# -- validation -------------------------------------------------------------


def test_validate_area_hypotheses(area):
    rep = validate(area, SAMPLES)
    assert rep["convexity_ok"] is True
    assert rep["origin_ok"] is True
    assert rep["hypotheses_ok"] is True


def test_validate_flags_nonzero_origin_slope():
    bad = make_custom_density(
        g=lambda t: np.sqrt(1.0 + t * t) + 0.1 * t,
        gprime=lambda t: t / np.sqrt(1.0 + t * t) + 0.1,
        gsecond=lambda t: (1.0 + t * t) ** (-1.5),
        gprime_inf=1.1,
    )
    rep = validate(bad, SAMPLES)
    assert rep["origin_ok"] is False
    assert rep["hypotheses_ok"] is False


def test_validate_mu3_linear_growth_witnesses():
    bounds = validate(make_mu_density(3.0), SAMPLES)["linear_growth_bounds"]
    a_est, b_est = bounds["a_est"], bounds["b_est"]
    A_est, B_est = bounds["A_est"], bounds["B_est"]
    assert 0.0 < a_est <= 1.0
    assert 0.0 < A_est <= 1.0
    assert b_est >= 0.0 and B_est >= 0.0
    d = make_mu_density(3.0)
    g = d.g(SAMPLES)
    assert np.all(a_est * SAMPLES - b_est <= g + 1e-12)
    assert np.all(g <= A_est * SAMPLES + B_est + 1e-12)


def test_validate_derivative_consistency_small(area):
    rep = validate(area, SAMPLES)["derivative_consistency"]
    assert rep["gprime_vs_g"] < 1e-7
    assert rep["gsecond_vs_gprime"] < 1e-6


def test_validate_needs_origin_sample(area):
    with pytest.raises(ValueError, match="^samples: "):
        validate(area, np.geomspace(0.1, 10.0, 5))


@pytest.mark.parametrize("samples", [
    [0.0, 1.0, math.nan], [0.0, 1.0, math.inf], np.array([0.0, math.nan]),
    np.array([0.0, 1.0, math.inf]), [0.0], [0.0, 1e-6], [], [-1.0, 0.0, 1.0],
    ["0", "1"], [0.0, True], np.array([[0.0, 1.0], [2.0, 3.0]]), "0 1",
    None, 0.0,
], ids=["nan", "inf", "nan-array", "inf-array", "origin-only",
        "below-step", "empty", "negative", "strings", "bool", "grid",
        "string", "none", "scalar"])
def test_validate_refuses_samples_that_break_the_rule(area, samples):
    # a NaN sample once gave a_est nan, an inf one a numpy warning, [0.0]
    # a numpy reduction error, and strings and a 2-D grid were accepted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^samples: "):
            validate(area, samples)


def test_validate_takes_lists_tuples_and_arrays_alike(area):
    want = validate(area, SAMPLES)
    for samples in (SAMPLES.tolist(), tuple(SAMPLES), SAMPLES[::-1],
                    [int(0), *SAMPLES[1:]]):
        assert validate(area, samples) == want


def test_validation_report_serializes(area):
    rep = validate(area, SAMPLES)
    assert set(rep) == {"linear_growth_bounds", "derivative_consistency",
                        "convexity_ok", "origin_ok", "hypotheses_ok"}
    assert set(rep["linear_growth_bounds"]) == {"a_est", "b_est", "A_est",
                                                "B_est"}
    assert set(rep["derivative_consistency"]) == {"gprime_vs_g",
                                                  "gsecond_vs_gprime"}
    assert isinstance(rep["convexity_ok"], bool)
    assert json.loads(json.dumps(rep)) == rep


# -- normalization ----------------------------------------------------------


def test_normalize_fixed_point(area):
    assert normalize(area) is area


def test_normalize_rescales_doubled_area():
    doubled = make_custom_density(
        g=lambda t: 2.0 * np.sqrt(1.0 + t * t),
        gprime=lambda t: 2.0 * t / np.sqrt(1.0 + t * t),
        gsecond=lambda t: 2.0 * (1.0 + t * t) ** (-1.5),
        gprime_inf=2.0,
        tail=TailEstimate(exponent=3.0, coeff=4.0 * math.sqrt(2.0)),
    )
    n = normalize(doubled)
    assert n.gprime_inf == 1.0
    assert n.growth is Growth.FINITE_INTEGRAL
    ref = make_area_density()
    assert n.tail == ref.tail
    for t in (0.0, 0.7, 3.0, 50.0):
        assert n.g(t) == pytest.approx(ref.g(t), rel=1e-9)
        assert n.gprime(t) == pytest.approx(ref.gprime(t), rel=1e-9)


def test_normalize_mu_family_already_unit():
    d = make_mu_density(2.5)
    assert normalize(d) is d


def test_normalize_declared_limit_keeps_slope_below_one():
    """mu=3 written out by hand with its declared slope limit 1: the
    normalized slope stays below 1 far out, and its neck profiles, found
    by the numerical slope inverse, match the built-in's.  The certified
    tail bound of mu=3 is declared: it proves the growth class finite, and
    profile quadrature near the neck truncates with a proven remainder."""
    from lingrowth.catenoid import Anchor, CatenoidSpec, Sign, profile_value

    custom = normalize(make_custom_density(
        g=lambda t: t + 1.0 / (1.0 + t) - 1.0,
        gprime=lambda t: 1.0 - (1.0 + t) ** -2.0,
        gsecond=lambda t: 2.0 * (1.0 + t) ** -3.0,
        gprime_inf=1.0, tail=TailEstimate(exponent=3.0, coeff=2.0)))
    assert np.all(custom.gprime(np.geomspace(1e5, 1e9, 41)) <= 1.0)

    builtin = make_mu_density(3.0)
    for sign in (Sign.MINUS, Sign.PLUS):
        spec = CatenoidSpec(sign, 1.0, 0.0, 2, Anchor.NECK)
        for r in (1.0 + 1e-6, 1.001, 1.1, 2.0, 5.0):
            assert profile_value(custom, spec, r) == pytest.approx(
                profile_value(builtin, spec, r), rel=0, abs=1e-8)


def _area_times(c, **kwargs):
    return make_custom_density(
        g=lambda t: c * np.sqrt(1.0 + t * t),
        gprime=lambda t: c * t / np.sqrt(1.0 + t * t),
        gsecond=lambda t: c * (1.0 + t * t) ** (-1.5), **kwargs)


def test_slope_limit_must_be_declared():
    with pytest.raises(TypeError, match="gprime_inf"):
        _area_times(2.0)


@pytest.mark.parametrize("limit", [True, np.True_, "2", 0, 0.0, -1, math.nan,
                                   math.inf, -math.inf, None],
                         ids=["bool", "numpy-bool", "string", "zero",
                              "zero-float", "negative", "nan", "inf",
                              "minus-inf", "none"])
def test_slope_limit_that_is_no_finite_positive_real_is_refused(limit):
    # True passed normalize unscaled as 1, so the doubled area went on as
    # if normalized; "2" was taken as declared; None was estimated
    with pytest.raises(ValueError, match="^gprime_inf: "):
        _area_times(2.0, gprime_inf=limit)
    # every way a Density is built passes the same check
    with pytest.raises(ValueError, match="^gprime_inf: "):
        dataclasses.replace(make_area_density(), gprime_inf=limit)


def test_slope_limit_is_stored_as_a_float_and_divides():
    for limit in (2, np.int64(2), np.float64(2.0)):
        doubled = _area_times(2.0, gprime_inf=limit)
        assert type(doubled.gprime_inf) is float and doubled.gprime_inf == 2.0
        n = normalize(doubled)
        assert n.gprime_inf == 1.0
        assert float(n.gprime(1e6)) == pytest.approx(1.0, abs=1e-12)


def _hand_written_mu(mu, **kwargs):
    """The mu family of :func:`make_mu_density` written out by hand, for
    mu != 2, with no closed-form inverse and no declared growth class."""
    return make_custom_density(
        g=lambda t: t + ((1.0 + t) ** (2.0 - mu) - 1.0) / (mu - 2.0),
        gprime=lambda t: 1.0 - (1.0 + t) ** (1.0 - mu),
        gsecond=lambda t: (mu - 1.0) * (1.0 + t) ** -mu,
        gprime_inf=1.0, **kwargs)


def test_normalize_keeps_the_class_the_tail_proves():
    """mu=3 written out by hand with a declared slope limit and tail bound
    and no declared growth class: the tail proves it finite when it is
    built, and normalize keeps it."""
    from lingrowth.catenoid import Anchor, CatenoidSpec, Sign, profile_value

    raw = _hand_written_mu(3.0, tail=TailEstimate(exponent=3.0, coeff=2.0))
    assert raw.growth is Growth.FINITE_INTEGRAL
    assert normalize(raw) is raw
    assert classify_growth(raw) is Growth.FINITE_INTEGRAL
    spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
    for r in np.linspace(1.1, 3.0, 20):
        assert math.isfinite(profile_value(raw, spec, float(r)))


def test_declared_growth_is_the_answer():
    base = make_area_density()
    declared = make_custom_density(base.g, base.gprime, base.gsecond,
                                   gprime_inf=1.0,
                                   growth=Growth.INFINITE_INTEGRAL)
    assert classify_growth(declared) is Growth.INFINITE_INTEGRAL
    assert normalize(declared) is declared


def test_mu_2_2_with_its_tail_has_a_neck_limit():
    """mu=2.2 written out by hand read "undetermined" by a numerical probe
    of the neck integral, and neck_limit refused it, though its neck
    profiles match the built-in's.  Its tail bound proves it finite."""
    from lingrowth.catenoid import (Anchor, CatenoidSpec, Sign, neck_limit,
                                    profile_value)

    custom = _hand_written_mu(2.2, tail=TailEstimate(exponent=2.2, coeff=1.2))
    assert custom.growth is Growth.FINITE_INTEGRAL
    builtin = make_mu_density(2.2)
    spec = CatenoidSpec(Sign.PLUS, 1.0, 0.7, 2, Anchor.NECK)
    assert neck_limit(custom, spec) == neck_limit(builtin, spec) == 0.7
    for r in (1.0 + 1e-6, 1.001, 2.0):
        assert profile_value(custom, spec, r) == pytest.approx(
            profile_value(builtin, spec, r), rel=0, abs=1e-8)


def test_undeclared_density_without_tail_is_undetermined():
    from lingrowth.catenoid import Anchor, CatenoidSpec, Sign, neck_limit

    for d in (_hand_written_mu(2.2), _hand_written_mu(3.0),
              _hand_written_mu(3.0, tail=TailEstimate(exponent=2.0,
                                                      coeff=2.0))):
        assert d.growth is Growth.UNDETERMINED
        with pytest.raises(ValueError, match="undetermined"):
            neck_limit(d, CatenoidSpec(Sign.PLUS, 1.0, 0.7, 2, Anchor.NECK))


@pytest.mark.parametrize("growth", ["infinite", "finite", None, 0])
def test_growth_that_is_no_growth_class_is_refused(growth):
    # the string "infinite" was stored as it was: the profiles of a
    # divergent mu=2 then raised a quadrature error where the built-in
    # refuses its infinite profile, and its neck limit read 0.0
    base = make_mu_density(2.0)
    with pytest.raises(ValueError, match="^growth: "):
        make_custom_density(base.g, base.gprime, base.gsecond,
                            gprime_inf=1.0, growth=growth)
    with pytest.raises(ValueError, match="^growth: "):
        dataclasses.replace(base, growth=growth)


def test_divergent_class_with_a_convergent_tail_is_refused():
    base = make_area_density()
    with pytest.raises(ValueError, match="^growth: .*exponent 3.0"):
        make_custom_density(base.g, base.gprime, base.gsecond,
                            gprime_inf=1.0, growth=Growth.INFINITE_INTEGRAL,
                            tail=base.tail)
    with pytest.raises(ValueError, match="^growth: "):
        dataclasses.replace(make_mu_density(3.0),
                            growth=Growth.INFINITE_INTEGRAL)
    # a bound of exponent 2 proves nothing, so the declaration stands
    mu2 = make_mu_density(2.0)
    assert mu2.tail.exponent == 2.0
    assert mu2.growth is Growth.INFINITE_INTEGRAL


@pytest.mark.parametrize("exponent, coeff, name", [
    ("3", 2.0, "exponent"), (True, 2.0, "exponent"),
    (math.nan, 2.0, "exponent"), (math.inf, 2.0, "exponent"),
    (3.0, "2", "coeff"), (3.0, None, "coeff"), (3.0, math.nan, "coeff"),
    (3.0, 0.0, "coeff"), (3.0, -2.0, "coeff")],
    ids=["exponent-string", "exponent-bool", "exponent-nan", "exponent-inf",
         "coeff-string", "coeff-none", "coeff-nan", "coeff-zero",
         "coeff-negative"])
def test_tail_estimate_field_that_is_no_bound_is_named(exponent, coeff, name):
    # "3" ended in a bare TypeError; a negative coeff proved the class
    # finite, a NaN exponent was ignored and a string coeff was taken
    with pytest.raises(ValueError, match=f"^{name}: "):
        TailEstimate(exponent, coeff)


def test_tail_estimate_stores_numpy_and_int_fields_as_floats():
    for tail in (TailEstimate(np.float32(3.0), np.float64(2.0)),
                 TailEstimate(3, 2)):
        assert (tail.exponent, tail.coeff) == (3.0, 2.0)
        assert type(tail.exponent) is float and type(tail.coeff) is float


# -- slope inversion --------------------------------------------------------


def test_invert_gprime_at_zero(area, mu2, mu3):
    for d in (area, mu2, mu3):
        assert invert_gprime(d, 0.0) == 0.0


def test_invert_gprime_area_closed_form(area):
    assert invert_gprime(area, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0, abs=1e-12)


def test_invert_gprime_mu2_at_half(mu2):
    assert invert_gprime(mu2, 0.5) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("y", [1.0, 1.5, -0.01])
def test_invert_gprime_domain(area, y):
    with pytest.raises(ValueError):
        invert_gprime(area, y)


def _stripped(d):
    """``d`` without its closed-form inverse: inversion takes the
    safeguarded Newton path."""
    return make_custom_density(d.g, d.gprime, d.gsecond, gprime_inf=1.0)


# y from 0 through 1 - 1e-12: tiny slopes, the bulk, and near-vertical ones
_Y_SWEEP = np.concatenate(([0.0], np.geomspace(1e-300, 1e-3, 60),
                           np.linspace(1e-3, 0.999, 300),
                           1.0 - np.geomspace(1e-12, 1e-3, 200)))


@pytest.mark.parametrize("which", ["area", "mu2", "mu3", "newton"])
def test_invert_gprime_arrays_match_scalar_calls(request, which):
    d = (_stripped(make_area_density()) if which == "newton"
         else request.getfixturevalue(which))
    got = invert_gprime(d, _Y_SWEEP)
    assert got.shape == _Y_SWEEP.shape
    want = [invert_gprime(d, float(y)) for y in _Y_SWEEP]
    assert all(isinstance(t, float) for t in want)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        invert_gprime(d, _Y_SWEEP[:300].reshape(20, 15)), got[:300].reshape(20, 15))


def test_invert_gprime_newton_is_within_4_ulp_of_closed_form():
    """The area slope without its closed form, on y in (0, 1 - 1e-12].

    Near y = 1 the slope saturates, and one ulp of y moves the root by
    ulp(y) / g''(t), about 40 at y = 1 - 1e-12, where t is 7e5.  No
    double carries t more precisely than that, the closed form included.
    So the gap is counted in units of ulp(t) + ulp(y) / g''(t): an ulp of
    t plus an ulp of y carried through the inverse.  Where the root is
    well conditioned that is about one ulp of t."""
    area = make_area_density()
    y = _Y_SWEEP[1:]
    closed = invert_gprime(area, y)
    newton = invert_gprime(_stripped(area), y)
    unit = np.spacing(closed) + np.spacing(y) / area.gsecond(closed)
    assert np.all(np.abs(newton - closed) <= 4.0 * unit)
    well = y <= 0.5
    assert np.all(np.abs(newton - closed)[well] <= 4.0 * np.spacing(closed[well]))


@pytest.mark.parametrize("y", [[0.2, 1.0], [0.5, -1e-300], [[0.1], [np.nan]],
                               [0.3, np.inf]])
def test_invert_gprime_rejects_arrays_with_any_y_outside(area, y):
    for d in (area, _stripped(area)):
        with pytest.raises(ValueError, match="0 <= y < 1"):
            invert_gprime(d, np.array(y))


def test_invert_gprime_numeric_matches_analytic(rng):
    # strip the closed form and let the safeguarded Newton steps do the work
    base = make_area_density()
    numeric = make_custom_density(base.g, base.gprime, base.gsecond,
                                  gprime_inf=1.0)
    for y in rng.uniform(0.0, 0.999, 25):
        t_num = invert_gprime(numeric, y)
        assert base.gprime(t_num) == pytest.approx(y, abs=1e-12)
        assert t_num == pytest.approx(base.analytic_inverse(y), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("mu", [2.0, 3.0])
def test_mu_inverse_round_trip_is_exact_to_ulps_at_small_y(mu):
    """g'(t) = 1 - (1 + t)**(1 - mu) of the inverse's t, read back through
    the density's own g' and through -expm1((1 - mu) log1p(t)).  Formed
    as a difference from 1, g' would round to multiples of about 1e-16
    near t = 0 and read 0 at y = 1e-16."""
    d = make_mu_density(mu)
    for y in (1e-16, 1e-10, 1e-4):
        t = invert_gprime(d, y)
        back = -math.expm1((1.0 - mu) * math.log1p(t))
        assert abs(back - y) <= 4.0 * math.ulp(y)
        assert abs(float(d.gprime(t)) - y) <= 4.0 * math.ulp(y)


def _mu_g_decimal(mu: float, t: float) -> Decimal:
    """g of the mu family at t, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        t, mu, one = Decimal(t), Decimal(mu), Decimal(1)
        if mu == 2:
            return t - (one + t).ln()
        return t + (((one + t).ln() * (2 - mu)).exp() - one) / (mu - 2)


@pytest.mark.parametrize("mu", [1.2, 1.5, 2.0, 3.0, 4.0])
def test_mu_g_is_accurate_to_ulps_at_small_t(mu):
    """The closed forms of g cancel at small t, where g ~ (mu - 1) t^2 / 2:
    mu = 3 read 72% off at t = 1e-8 and 5.6e-7 off at 1e-5.  Against a
    60-digit evaluation the relative error is within 4 eps, scalar or
    array, and also at and just below the series crossover."""
    d = make_mu_density(mu)
    ts = [1e-8, 1e-5, 1e-2, math.expm1(0.25), math.expm1(0.25) * 0.999,
          math.expm1(2.0), 0.5, 3.0, 1e3]
    got = d.g(np.array(ts))
    for t, g in zip(ts, got):
        want = _mu_g_decimal(mu, t)
        for value in (g, d.g(t)):
            assert abs(float((Decimal(float(value)) - want) / want)) <= \
                4.0 * np.finfo(float).eps, (mu, t)


def test_mu_g_keeps_infinity_and_nan():
    d = make_mu_density(3.0)
    got = d.g(np.array([0.0, np.inf, np.nan, 1.0]))
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])
    assert got[3] == pytest.approx(0.5, rel=4e-16)


# -- growth classification --------------------------------------------------


@pytest.mark.parametrize("mu,expected", [
    (1.5, Growth.INFINITE_INTEGRAL),
    (2.0, Growth.INFINITE_INTEGRAL),
    (2.5, Growth.FINITE_INTEGRAL),
    (3.0, Growth.FINITE_INTEGRAL),
    (4.0, Growth.FINITE_INTEGRAL),
])
def test_classify_mu_family(mu, expected):
    assert classify_growth(make_mu_density(mu)) is expected


def test_classify_area(area):
    assert classify_growth(area) is Growth.FINITE_INTEGRAL


def _no_gsecond(t):
    raise AssertionError("g'' evaluated to classify growth")


def test_classify_numeric_custom_finite():
    base = make_area_density()
    anon = make_custom_density(base.g, base.gprime, _no_gsecond,
                               gprime_inf=1.0, tail=base.tail)
    assert classify_growth(anon) is Growth.FINITE_INTEGRAL
    assert classify_growth(normalize(dataclasses.replace(
        anon, gprime_inf=2.0))) is Growth.FINITE_INTEGRAL


def test_classify_numeric_custom_infinite():
    base = make_mu_density(2.0)
    anon = make_custom_density(base.g, base.gprime, _no_gsecond,
                               gprime_inf=1.0)
    assert classify_growth(anon) is Growth.UNDETERMINED
    declared = dataclasses.replace(anon, growth=Growth.INFINITE_INTEGRAL)
    assert classify_growth(declared) is Growth.INFINITE_INTEGRAL


# -- energy integrand derivatives -------------------------------------------


def test_flux_vanishes_at_zero(area):
    assert np.array_equal(flux(area, (0.0, 0.0)), np.zeros(2))


def test_flux_unit_direction(area):
    np.testing.assert_allclose(flux(area, (1.0, 0.0)),
                               [1.0 / math.sqrt(2.0), 0.0], atol=1e-15)


def test_hessian_at_zero_is_gsecond_identity(area):
    np.testing.assert_allclose(tangent(area, (0.0, 0.0)), np.eye(2),
                               atol=1e-15)


def test_hessian_unit_direction_eigenstructure(area):
    H = tangent(area, (1.0, 0.0))
    np.testing.assert_allclose(H, np.diag([2.0 ** -1.5, 1.0 / math.sqrt(2.0)]),
                               atol=1e-15)


def test_hessian_positive_definite_random(area, mu2, rng):
    for d in (area, mu2):
        for _ in range(30):
            p = rng.normal(size=2) * rng.choice([1e-8, 0.1, 1.0, 30.0])
            H = tangent(d, p)
            eigs = np.linalg.eigvalsh(H)
            assert np.all(eigs > 0.0)
            np.testing.assert_allclose(H, H.T, atol=1e-15)


def test_flux_tangent_stack_matches_rows(area, mu3, rng):
    p = rng.normal(size=(40, 2)) * rng.choice([1e-8, 0.1, 1.0, 30.0],
                                               size=(40, 1))
    p[::7] = 0.0
    for d in (area, mu3):
        F, T = flux(d, p), tangent(d, p)
        assert np.array_equal(F, np.array([flux(d, row) for row in p]))
        assert np.array_equal(T, np.array([tangent(d, row) for row in p]))
        assert np.array_equal(T, T.swapaxes(-1, -2))
        assert np.array_equal(T[::7], np.broadcast_to(
            d.gsecond(0.0) * np.eye(2), (6, 2, 2)))


def broadcast_flux_tangent(d, p):
    """Oracle: flux and tangent by broadcasting over (..., k, k) arrays,
    upper entries mirrored below the diagonal by fancy indexing."""
    p = np.asarray(p, dtype=float)
    k = p.shape[-1]
    t = np.hypot.reduce(p, axis=-1, initial=0.0)
    gp = np.asarray(d.gprime(t), dtype=float)
    c2 = np.asarray(d.gsecond(t), dtype=float)
    pos = t > 0.0
    safe = np.where(pos, t, 1.0)
    c1 = np.where(pos, gp / safe, c2)
    flux = c1[..., None] * p
    ph = p / safe[..., None]
    coef = np.where(pos, c2 - c1, 0.0)
    tangent = (coef[..., None, None] * ph[..., :, None]) * ph[..., None, :]
    upper, lower = np.triu_indices(k, 1)
    tangent[..., lower, upper] = tangent[..., upper, lower]
    diag = np.arange(k)
    tangent[..., diag, diag] += c1[..., None]
    return flux, tangent


@pytest.mark.parametrize("k", [2])
def test_flux_tangent_matches_broadcast_bitwise(area, mu3, rng, k):
    p = rng.normal(size=(60, k)) * rng.choice([1e-8, 0.1, 1.0, 30.0],
                                               size=(60, 1))
    p[::5] = 0.0
    for d in (area, mu3):
        for stack in (p, p.reshape(3, 4, 5, k), p.T.copy().T, p[7]):
            F, T = flux(d, stack), tangent(d, stack)
            want_flux, want_tangent = broadcast_flux_tangent(d, stack)
            assert F.shape == want_flux.shape
            assert T.shape == want_tangent.shape
            assert np.array_equal(F, want_flux)
            assert np.array_equal(T, want_tangent)


@pytest.mark.parametrize("k", [2])
def test_flux_only_is_the_flux_of_flux_tangent_bitwise(area, mu3, rng, k):
    # the flux, evaluated without the tangent, has the bytes of the joint
    # oracle's, signed zeros included, with t passed or computed
    p = rng.normal(size=(60, k)) * rng.choice([1e-8, 0.1, 1.0, 30.0],
                                               size=(60, 1))
    p[::5] = 0.0
    p[1::10] = -0.0
    for d in (area, mu3):
        for stack in (p, p.reshape(3, 4, 5, k), p.T.copy().T, p[7], p[1]):
            want = broadcast_flux_tangent(d, stack)
            t = np.hypot(stack[..., 0], stack[..., 1])
            for F, T in ((flux(d, stack), tangent(d, stack)),
                         (flux(d, stack, t), tangent(d, stack, t))):
                assert F.shape == want[0].shape
                assert F.tobytes() == want[0].tobytes()
                assert T.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("shape", [(), (1,), (3,), (60, 1), (60, 3), (2, 1)])
def test_flux_tangent_takes_2_vectors_only(area, shape):
    p = np.ones(shape)
    for f in (flux, tangent):
        with pytest.raises(ValueError, match="2-vector"):
            f(area, p)


def test_only_the_tangent_evaluates_gsecond(mu3, rng, monkeypatch):
    calls = []
    gsecond = density.Density.gsecond

    def spy(self, t):
        calls.append(np.shape(t))
        return gsecond(self, t)

    monkeypatch.setattr(density.Density, "gsecond", spy)
    p = rng.normal(size=(40, 2))
    flux(mu3, p)
    assert calls == []
    tangent(mu3, p)
    assert calls == [(40,)]


def _hypot_fold_from_zero(p):
    """|p| folded by hypot from 0, one component at a time."""
    t = np.zeros(p.shape[:-1])
    for i in range(p.shape[-1]):
        t = np.hypot(t, p[..., i])
    return t


@pytest.mark.parametrize("k", [2])
def test_flux_and_tangent_read_the_hypot_fold_from_zero_bitwise(
        area, mu3, rng, k, monkeypatch):
    p = rng.normal(size=(60, k)) * rng.choice([1e-300, 1e-8, 1.0, 1e300],
                                               size=(60, 1))
    p[::5] = 0.0
    p[1::10] = -0.0
    # quiet nans of both signs (inf - inf gives the negative one on x86),
    # infinities of both signs, alone in a row and next to finite entries
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 2.5])
    p[2::5] = rng.choice(specials, size=p[2::5].shape)
    p[3::15] = specials[:4, None]
    read = []                   # the t that each g' evaluation reads
    gprime = density.Density.gprime
    monkeypatch.setattr(density.Density, "gprime",
                        lambda self, t: read.append(t) or gprime(self, t))
    for d in (area, mu3):
        for stack in (p, p.reshape(3, 4, 5, k), p.T.copy().T, p[2], p[3]):
            t = _hypot_fold_from_zero(stack)
            del read[:]
            with np.errstate(invalid="ignore", over="ignore"):
                got = flux(d, stack), tangent(d, stack)
                want = flux(d, stack, t), tangent(d, stack, t)
            assert len(read) == 4
            for seen in read:
                assert np.shape(seen) == t.shape
                assert np.asarray(seen).tobytes() == t.tobytes()
            for a, b in zip(got, want):
                assert np.shape(a) == np.shape(b)
                assert a.tobytes() == b.tobytes()


def test_hessian_continuous_at_origin(area):
    # radial and tangential eigenvalues both converge to g''(0)
    for norm in (1e-3, 1e-5, 1e-7):
        H = tangent(area, (norm, 0.0))
        np.testing.assert_allclose(H, np.eye(2), atol=1e-5)


def test_monotone_slope_bounded_by_limit(area, mu2, mu3):
    t = np.geomspace(1e-4, 1e4, 300)
    for d in (area, mu2, mu3):
        gp = d.gprime(t)
        assert np.all(np.diff(gp) > 0.0)
        assert np.all(gp < 1.0)
