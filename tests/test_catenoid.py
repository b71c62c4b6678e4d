"""Radial barrier profiles: quadrature routes, flux identity, bounds."""

import dataclasses
import math

import numpy as np
import pytest

from lingrowth.catenoid import (
    Anchor,
    QUAD_ABS_TOL,
    CatenoidSpec,
    QuadratureAccuracyError,
    RadialProfile,
    Sign,
    envelope_bound,
    envelope_bounds,
    neck_limit,
    ode_residual,
    profile_value,
    profile_value_substituted,
    profile_values,
    sample_profile,
    uniform_interior_bound,
)
from lingrowth import catenoid, cli
from lingrowth.density import (invert_gprime, make_custom_density,
                               make_mu_density, normalize)


def spec2(sign=Sign.PLUS, alpha=1.0, a=0.0, n=2, anchor=Anchor.NECK):
    return CatenoidSpec(sign=sign, alpha=alpha, offset_a=a, dim_n=n,
                        anchor=anchor)


# -- spec construction ------------------------------------------------------


def test_neck_radius_powers():
    assert spec2(alpha=4.0, n=3).neck_radius == 2.0
    assert spec2(alpha=1.0, n=2).neck_radius == 1.0
    assert spec2(alpha=0.25, n=2).neck_radius == 0.25


@pytest.mark.parametrize("kw", [
    dict(alpha=0.0),
    dict(alpha=-1.0),
    dict(alpha=float("nan")),
    dict(n=1),
    dict(a=float("inf")),
    dict(alpha=1.5, anchor=Anchor.UNIT),
])
def test_spec_rejects_bad_parameters(kw):
    base = dict(sign=Sign.PLUS, alpha=1.0, a=0.0, n=2, anchor=Anchor.NECK)
    base.update(kw)
    with pytest.raises(ValueError):
        spec2(**base)


def test_spec_config_round_trip():
    s = spec2(sign=Sign.MINUS, alpha=0.25, a=1.5, n=3, anchor=Anchor.UNIT)
    assert CatenoidSpec.from_config(s.to_config()) == s


def test_spec_config_rejects_garbage():
    with pytest.raises(ValueError):
        CatenoidSpec.from_config({"sign": "plus", "alpha": 1.0})


def test_spec_stores_its_fields_cast():
    # np.int64(2) was rejected as "dim_n must be an integer >= 2, got 2"
    s = CatenoidSpec(Sign.PLUS, 1, 0, np.int64(2))
    assert (s.alpha, s.offset_a, s.dim_n) == (1.0, 0.0, 2)
    assert [type(v) for v in (s.alpha, s.offset_a, s.dim_n)] == [
        float, float, int]
    assert s == spec2()


@pytest.mark.parametrize("field, value", [
    ("alpha", True), ("alpha", "1"), ("offset_a", False), ("offset_a", "0"),
    ("dim_n", True), ("dim_n", "2"), ("dim_n", 2.5),
])
def test_spec_field_that_its_cast_rejects_is_named(field, value):
    # "1" as alpha was a TypeError; True as offset_a or dim_n was accepted
    fields = dict(sign=Sign.PLUS, alpha=1.0, offset_a=0.0, dim_n=2)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field}: "):
        CatenoidSpec(**fields)


# -- golden profile values --------------------------------------------------


def test_area_profile_is_arcosh(area):
    # for g(t)=sqrt(1+t^2), alpha=1, n=2 the profile integral is
    # int dr / sqrt(r^2 - 1) = arcosh(rho)
    s = spec2()
    for rho in (1.1, 2.0, 5.0):
        assert profile_value(area, s, rho) == pytest.approx(
            math.acosh(rho), abs=1e-10)


def test_area_profile_vanishes_at_neck(area):
    s = spec2()
    assert profile_value(area, s, 1.0 + 1e-9) == pytest.approx(0.0, abs=1e-4)
    assert neck_limit(area, s) == 0.0


def test_profile_requires_radius_beyond_neck(area):
    with pytest.raises(ValueError):
        profile_value(area, spec2(), 0.5)
    with pytest.raises(ValueError):
        profile_value(area, spec2(), 1.0)


def test_mu2_unit_anchor_closed_form(mu2):
    # with (g')^{-1}(y) = y/(1-y) the integral from 0.25 is
    # a + r*ln((1-r)/(rho-r)) -> 0.25*ln(3) at rho=0.5 for the MINUS branch
    s = CatenoidSpec(sign=Sign.MINUS, alpha=0.25, offset_a=0.0, dim_n=2,
                     anchor=Anchor.UNIT)
    assert profile_value(mu2, s, 0.5) == pytest.approx(0.25 * math.log(3.0),
                                                       abs=1e-10)


def test_mu2_unit_anchor_blows_up_toward_neck(mu2):
    s = CatenoidSpec(sign=Sign.MINUS, alpha=0.25, offset_a=0.0, dim_n=2,
                     anchor=Anchor.UNIT)
    vals = [profile_value(mu2, s, 0.25 + step)
            for step in (0.1, 0.01, 0.001)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1.0
    assert neck_limit(mu2, s) == math.inf  # MINUS branch climbs without bound


def test_neck_limit_sentinels(area, mu2, mu3):
    assert neck_limit(mu2, spec2(sign=Sign.PLUS, a=2.0)) == math.inf
    assert neck_limit(mu2, spec2(sign=Sign.MINUS, a=2.0)) == -math.inf
    assert neck_limit(area, spec2(a=0.7)) == 0.7
    assert neck_limit(mu3, spec2(a=-1.0)) == -1.0


def test_neck_limit_unit_anchor_finite_growth(mu3):
    # anchored at radius 1, the neck value is the full tail integral
    s = CatenoidSpec(sign=Sign.PLUS, alpha=0.5, offset_a=0.0, dim_n=2,
                     anchor=Anchor.UNIT)
    span = profile_value(mu3, s, 1.0) - neck_limit(mu3, s)
    # value at the anchor radius is the offset itself
    assert profile_value(mu3, s, 1.0) == pytest.approx(0.0, abs=1e-10)
    assert span > 0.0
    assert math.isfinite(neck_limit(mu3, s))


# -- parametrization equivalence --------------------------------------------


@pytest.mark.parametrize("mu", [2.5, 3.0, 4.0])
def test_substituted_route_agrees_mu(mu):
    d = normalize(make_mu_density(mu))
    s = spec2(alpha=0.8)
    for rho in np.geomspace(s.neck_radius * 1.001, 10.0, 12):
        direct = profile_value(d, s, float(rho))
        sub = profile_value_substituted(d, s, float(rho))
        assert sub == pytest.approx(direct, abs=1e-8)


def test_substituted_route_agrees_area(area):
    s = spec2()
    for rho in (1.1, 2.0, 5.0):
        assert profile_value_substituted(area, s, rho) == pytest.approx(
            math.acosh(rho), abs=2e-9)


def test_substituted_route_near_neck_mu3(mu3):
    # the substitution absorbs the endpoint singularity, so values just
    # above the neck stay accurate; there the slope behaves like s^(-1/2)
    # in the offset s, giving a 2*sqrt(s) rise
    s = spec2(alpha=1.0)
    v = profile_value_substituted(mu3, s, 1.0 + 1e-6)
    assert v == pytest.approx(2e-3, rel=1e-2)


def test_substituted_route_without_tail_bound_raises(mu3):
    """mu=3 written out by hand with no TailEstimate: the neck integral
    cannot be truncated with a certified remainder, so near the neck the
    call raises instead of dropping about 2e-4; farther out the radial
    route needs no truncation and stays exact."""
    custom = normalize(make_custom_density(
        g=lambda t: t + 1.0 / (1.0 + t) - 1.0,
        gprime=lambda t: 1.0 - (1.0 + t) ** -2.0,
        gsecond=lambda t: 2.0 * (1.0 + t) ** -3.0,
        gprime_inf=1.0))
    assert custom.tail is None
    for sign in (Sign.MINUS, Sign.PLUS):
        s = spec2(sign=sign)
        for r in (1.0 + 1e-6, 1.001):
            with pytest.raises(QuadratureAccuracyError, match="tail bound"):
                profile_value(custom, s, r)
        for r in (1.1, 2.0, 5.0):
            assert profile_value(custom, s, r) == pytest.approx(
                profile_value(mu3, s, r), rel=0, abs=1e-9)


def test_plus_minus_mirror(area, mu3, rng):
    for d in (area, mu3):
        a = 0.83
        up = CatenoidSpec(Sign.PLUS, 0.6, a, 2, Anchor.NECK)
        dn = CatenoidSpec(Sign.MINUS, 0.6, a, 2, Anchor.NECK)
        for rho in rng.uniform(0.9, 6.0, 8):
            lo = profile_value(d, up, float(rho))
            hi = profile_value(d, dn, float(rho))
            assert (lo - a) == pytest.approx(-(hi - a), abs=1e-12)


def test_higher_dimension_profiles(area):
    # n=3: alpha=1 means neck radius 1, slope (g')^{-1}(1/r^2)
    s = spec2(n=3)
    val = profile_value(area, s, 2.0)
    # oracle: int_1^2 (1/r^2)/sqrt(1-1/r^4) dr via the substitution u=1/r
    # = int_{1/2}^1 du/sqrt(1-u^4); freeze a quadrature-independent value
    from scipy.integrate import quad
    oracle = quad(lambda u: 1.0 / math.sqrt(1.0 - u ** 4), 0.5, 1.0,
                  full_output=1)[0]
    assert val == pytest.approx(oracle, abs=1e-8)


# -- sampled profiles and the flux identity ----------------------------------


def test_sample_profile_flux_residual(area, mu3):
    for d, alpha in ((area, 1.0), (mu3, 0.5)):
        s = spec2(alpha=alpha)
        prof = sample_profile(d, s, s.neck_radius * 1.01, 8.0, 60)
        assert len(prof.rho) == 60
        assert ode_residual(d, prof) <= 1e-9


def test_sample_profile_dimension_sweep(area):
    for n in (2, 3, 5):
        s = spec2(n=n, alpha=0.7)
        prof = sample_profile(area, s, s.neck_radius * 1.05, 4.0, 40)
        assert ode_residual(area, prof) <= 1e-9


@pytest.mark.parametrize("num", [2.5, True, 1, "8"])
def test_sample_profile_num_must_be_an_integer_of_at_least_2(area, num):
    # 2.5 ended in "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match="^num: "):
        sample_profile(area, spec2(), 1.1, 2.0, num)


def test_sample_profile_takes_a_numpy_integer_num(area):
    prof = sample_profile(area, spec2(), 1.1, 2.0, np.int64(5))
    want = sample_profile(area, spec2(), 1.1, 2.0, 5)
    assert prof.rho.tobytes() == want.rho.tobytes()
    assert prof.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_sample_profile_matches_per_radius_values(area, mu3, n):
    """The accumulated panels stay within the 1e-9 contract of profile_value
    at every radius, including the near-neck ones it hands to the
    substituted route."""
    for d in (area, mu3):
        s = spec2(sign=Sign.MINUS, n=n, a=0.5)
        prof = sample_profile(d, s, 1.0 + 1e-4, 4.0, 25)
        want = [profile_value(d, s, r) for r in prof.rho]
        np.testing.assert_allclose(prof.values, want, rtol=0, atol=1e-9)


# neck at 0.5; the first set starts within 10% of the neck, where
# profile_value takes the substituted route, and both sets straddle the
# unit anchor
_NEAR_NECK_RADII = [0.52, 0.6, 0.75, 1.0, 1.3, 2.0, 4.0]
_FAR_RADII = [0.6, 0.9, 1.1, 1.7, 3.0]


@pytest.mark.parametrize("radii", [_NEAR_NECK_RADII, _FAR_RADII])
@pytest.mark.parametrize("which,anchor", [
    ("area", Anchor.NECK), ("area", Anchor.UNIT), ("mu3", Anchor.NECK),
    ("mu3", Anchor.UNIT), ("mu2", Anchor.UNIT)])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_profile_values_match_per_radius_values(request, which, anchor,
                                                sign, radii):
    d = request.getfixturevalue(which)
    s = spec2(sign=sign, alpha=0.5, a=0.25, anchor=anchor)
    got = profile_values(d, s, radii)
    want = [profile_value(d, s, r) for r in radii]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_divergent_neck_anchored_profile_is_refused_by_every_route():
    # each route once returned the +-inf sentinel, which every caller then
    # had to turn into an error; the unit-anchored profiles stay finite
    routes = (lambda d, spec: profile_value(d, spec, 0.9),
              lambda d, spec: profile_value_substituted(d, spec, 0.9),
              lambda d, spec: profile_values(d, spec, _FAR_RADII),
              lambda d, spec: sample_profile(d, spec, 0.6, 3.0, 20).values)
    for mu in (1.5, 2.0):
        d = make_mu_density(mu)
        for sign in Sign:
            for route in routes:
                with pytest.raises(ValueError, match=(
                        rf"^the neck-anchored profile of mu\({mu:g}\) is "
                        "infinite at every radius")):
                    route(d, spec2(sign=sign, alpha=0.5))
                unit = spec2(sign=sign, alpha=0.5, anchor=Anchor.UNIT)
                assert np.all(np.isfinite(route(d, unit)))


def test_envelope_bounds_match_scalar_and_closed_form(area, mu3):
    eps, R = 0.1, 1.0
    radii = np.linspace(0.15, 0.95, 9)
    got = envelope_bounds(area, eps, radii, R, 0.0, 2)
    closed = [eps * math.log((R + math.sqrt(R * R - eps * eps))
                             / (rho + math.sqrt(rho * rho - eps * eps)))
              for rho in radii]
    np.testing.assert_allclose(got, closed, rtol=1e-9, atol=0)
    for d in (area, mu3):
        got = envelope_bounds(d, eps, radii, R, 2.5, 2)
        want = [envelope_bound(d, eps, rho, R, 2.5, 2) for rho in radii]
        # one radius is one route; several split the integral into gaps
        assert want == [envelope_bounds(d, eps, [rho], R, 2.5, 2)[0]
                        for rho in radii]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_envelope_bounds_gap_budgets_sum_to_the_contract(area, monkeypatch):
    """One panel per gap, the last one ending at R, each certified to an
    equal share of QUAD_ABS_TOL."""
    budgets = []
    checked = catenoid.integrate

    def recording(f, lo, hi, abs_tol, what="integral"):
        budgets.extend((end, abs_tol) for end in np.atleast_1d(hi))
        return checked(f, lo, hi, abs_tol, what)
    monkeypatch.setattr(catenoid, "integrate", recording)
    envelope_bounds(area, 0.1, np.linspace(0.15, 0.95, 9), 1.0, 0.0, 2)
    assert len(budgets) == 9 and budgets[-1][0] == 1.0
    assert sum(tol for _, tol in budgets) <= QUAD_ABS_TOL * (1 + 1e-12)


@pytest.mark.parametrize("radii", [
    [1.2, 1.1, 1.5],      # unsorted
    [1.1, 1.1, 1.5],      # duplicate
    [1.0, 1.5],           # at the neck
    [0.9, 1.2, 1.5],      # below the neck
])
def test_vector_forms_reject_bad_radii(area, radii):
    with pytest.raises(ValueError):
        profile_values(area, spec2(), radii)
    with pytest.raises(ValueError):
        envelope_bounds(area, 1.0, radii, 2.0, 0.0, 2)


def test_vector_form_radii_bounds(area):
    with pytest.raises(ValueError):
        profile_values(area, spec2(), [])
    with pytest.raises(ValueError):
        envelope_bounds(area, 0.1, [0.5, 1.0], 1.0, 0.0, 2)  # not below R
    assert envelope_bounds(area, 0.1, [], 1.0, 0.0, 2).shape == (0,)


_RADIUS_RULE = "^every radius must be a finite real number above the neck"


@pytest.mark.parametrize("radius", ["2.0", True, np.True_, math.inf,
                                    math.nan],
                         ids=["string", "bool", "numpy-bool", "inf", "nan"])
def test_radius_that_is_no_finite_real_number_states_the_rule(area, radius):
    # "2.0" gave the value at 2 and True the one at 1
    s = spec2(alpha=0.5)
    calls = [
        lambda: profile_value(area, s, radius),
        lambda: profile_value_substituted(area, s, radius),
        lambda: profile_values(area, s, [radius]),
        lambda: profile_values(area, s, [0.75, radius]),
        lambda: profile_values(area, s, np.array([radius])),
        lambda: sample_profile(area, s, radius, 5.0, 8),
        lambda: sample_profile(area, s, 0.75, radius, 8),
        lambda: envelope_bound(area, 0.1, radius, 3.0, 0.0, 2),
        lambda: envelope_bound(area, 0.1, 0.5, radius, 0.0, 2),
        lambda: envelope_bounds(area, 0.1, np.array([radius]), 3.0, 0.0, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=_RADIUS_RULE):
            call()


def test_radii_of_numpy_integers_are_real(area):
    want = profile_values(area, spec2(), [2.0, 3.0, 4.0])
    got = profile_values(area, spec2(), np.arange(2, 5))
    assert got.tobytes() == want.tobytes()
    assert profile_value(area, spec2(), np.int64(2)) == want[0]


def test_radial_profile_has_five_fields(area):
    prof = sample_profile(area, spec2(), 1.1, 2.0, 5)
    assert [f.name for f in dataclasses.fields(prof)] == [
        "alpha", "dim_n", "rho", "values", "slopes"]


def test_perturbed_slopes_break_flux_identity(area):
    s = spec2()
    prof = sample_profile(area, s, 1.1, 5.0, 30)
    bad = RadialProfile(alpha=prof.alpha, dim_n=prof.dim_n, rho=prof.rho,
                        values=prof.values, slopes=prof.slopes + 0.01)
    assert ode_residual(area, bad) > 1e-4


def test_zero_slope_profile_residual_equals_flux(area):
    flat = RadialProfile(alpha=0.3, dim_n=2, rho=np.linspace(1.0, 2.0, 10),
                         values=np.zeros(10), slopes=np.zeros(10))
    assert ode_residual(area, flat) == pytest.approx(0.3, abs=1e-15)


def test_profile_csv_layout(tmp_path):
    out = tmp_path / "run"
    code = cli.main(["--quiet", "--out", str(out), "catenoid", "--kind",
                     "area", "--alpha", "1", "--n", "2", "--rho-min", "1.1",
                     "--rho-max", "3", "--samples", "12"])
    assert code == cli.EXIT_OK
    lines = (out / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,value,slope"
    assert len(lines) == 13


def test_sample_profile_monotone_radii_and_values(mu2):
    s = CatenoidSpec(Sign.MINUS, 0.5, 3.0, 2, Anchor.UNIT)
    prof = sample_profile(mu2, s, 0.51, 4.0, 50)
    assert np.all(np.diff(prof.rho) > 0)
    # MINUS branch decreases in rho
    assert np.all(np.diff(prof.values) < 0)


# -- envelope and uniform bounds --------------------------------------------


def test_envelope_closed_form(area):
    # alpha = r = 0.1: 0.1 * [ln(t + sqrt(t^2 - 0.01))] from 0.5 to 1
    want = 0.1 * (math.log(1 + math.sqrt(0.99))
                  - math.log(0.5 + math.sqrt(0.24)))
    got = envelope_bound(area, 0.1, 0.5, 1.0, 0.0, 2)
    assert got == pytest.approx(want, abs=1e-10)
    assert got == pytest.approx(0.0701, abs=5e-5)


def test_envelope_offsets_by_outer_max(area):
    base = envelope_bound(area, 0.1, 0.5, 1.0, 0.0, 2)
    assert envelope_bound(area, 0.1, 0.5, 1.0, 2.5, 2) == pytest.approx(
        base + 2.5, abs=1e-12)


def test_envelope_vanishes_with_puncture_radius(area):
    vals = [envelope_bound(area, r, 0.5, 1.0, 0.0, 2)
            for r in (0.2, 0.1, 0.05, 0.025, 1e-4)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_envelope_monotone_in_puncture_radius(mu2):
    vals = [envelope_bound(mu2, r, 0.5, 1.0, 0.0, 2)
            for r in np.linspace(0.01, 0.4, 10)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_envelope_argument_ordering(area):
    with pytest.raises(ValueError):
        envelope_bound(area, 0.6, 0.5, 1.0, 0.0, 2)
    with pytest.raises(ValueError):
        envelope_bound(area, 0.1, 1.5, 1.0, 0.0, 2)


@pytest.mark.parametrize("n", [1, True, 2.5, "2"])
def test_envelope_dimension_must_be_an_integer_of_at_least_2(area, n):
    # n = 1 or True ended in QuadratureAccuracyError, a hypothesis violation
    with pytest.raises(ValueError, match="^n: "):
        envelope_bound(area, 0.1, 0.5, 1.0, 0.0, n)
    with pytest.raises(ValueError, match="^n: "):
        envelope_bounds(area, 0.1, [0.5], 1.0, 0.0, n)


@pytest.mark.parametrize("value", ["0.1", True, math.nan, math.inf],
                         ids=["string", "bool", "nan", "inf"])
def test_envelope_real_arguments_are_cast_by_name(area, value):
    # r = "0.1" ended in a TypeError, outer_value = True ran as 1
    for name, call in (
            ("r", lambda: envelope_bound(area, value, 0.5, 1.0, 0.0, 2)),
            ("r", lambda: envelope_bounds(area, value, [0.5], 1.0, 0.0, 2)),
            ("outer_value",
             lambda: envelope_bound(area, 0.1, 0.5, 1.0, value, 2)),
            ("outer_value",
             lambda: envelope_bounds(area, 0.1, [0.5], 1.0, value, 2))):
        with pytest.raises(ValueError, match=f"^{name}: "):
            call()
    with pytest.raises(ValueError, match="^r: must be positive"):
        envelope_bound(area, 0.0, 0.5, 1.0, 0.0, 2)


def test_envelope_matches_profile_construction(area, mu3):
    # the bound is the MINUS profile with alpha = r^{n-1}, offset chosen so
    # the curve passes through the outer value at radius R
    for d in (area, mu3):
        for r in (0.05, 0.2):
            for rho in (0.4, 0.7):
                s = CatenoidSpec(Sign.MINUS, r, 0.0, 2, Anchor.NECK)
                drop = profile_value(d, s, rho) - profile_value(d, s, 1.0)
                want = 3.0 + drop
                got = envelope_bound(d, r, rho, 1.0, 3.0, 2)
                assert got == pytest.approx(want, abs=1e-8)


def test_uniform_bound_mu2_closed_form(mu2):
    # (g')^{-1}(1/2) = 1 for this family
    assert uniform_interior_bound(mu2, 2.0, 0.25) == pytest.approx(2.75, abs=1e-12)
    assert uniform_interior_bound(mu2, 0.0, 0.999) == pytest.approx(
        0.001, abs=1e-12)


def test_uniform_bound_outer_radius_and_radius_array(mu2):
    # the removability study's caps a + (R - r) * (g')^{-1}(1/2), bit for bit
    r = np.array([0.3, 1.1, 1.9999])
    half = invert_gprime(mu2, 0.5)
    got = uniform_interior_bound(mu2, 0.25, r, 2.0)
    assert np.array_equal(got, 0.25 + (2.0 - r) * half)
    assert uniform_interior_bound(mu2, 0.25, 1.1, 2.0) == got[1]
    for bad in (np.array([0.5, 2.0]), np.array([0.0, 1.0]), 2.5):
        with pytest.raises(ValueError):
            uniform_interior_bound(mu2, 0.0, bad, 2.0)


@pytest.mark.parametrize("value", ["0.5", True, math.nan],
                         ids=["string", "bool", "nan"])
def test_uniform_bound_real_arguments_are_cast_by_name(mu2, value):
    # x_norm = "0.5" returned 0.5, a and R were taken as given
    for name, call in (
            ("a", lambda: uniform_interior_bound(mu2, value, 0.5)),
            ("x_norm", lambda: uniform_interior_bound(mu2, 0.0, value)),
            ("x_norm", lambda: uniform_interior_bound(mu2, 0.0, [0.2, value])),
            ("R", lambda: uniform_interior_bound(mu2, 0.0, 0.5, value))):
        with pytest.raises(ValueError, match=f"^{name}: "):
            call()


def test_uniform_bound_takes_a_numeric_array_whole(mu2, monkeypatch):
    r = np.linspace(0.1, 0.9, 1536)
    want = uniform_interior_bound(mu2, 0.25, r)
    assert np.array_equal(uniform_interior_bound(mu2, 0.25, list(r)), want)

    def no_entry_casts(*args, **kwargs):
        raise AssertionError("an array was cast entry by entry")

    monkeypatch.setattr(catenoid.ioutil, "reals", no_entry_casts)
    assert np.array_equal(uniform_interior_bound(mu2, 0.25, r), want)


def test_uniform_bound_needs_divergent_tail(area):
    with pytest.raises(ValueError):
        uniform_interior_bound(area, 0.0, 0.5)


def test_uniform_bound_dominates_barrier(mu2):
    # the interior estimate sits above the MINUS profile with
    # alpha = x^{n-1}/2, anchored to vanish at radius 1
    for x_norm in (0.2, 0.5, 0.8):
        s = CatenoidSpec(Sign.MINUS, x_norm / 2.0, 0.0, 2, Anchor.UNIT)
        climb = profile_value(mu2, s, x_norm)
        assert climb > 0.0
        assert uniform_interior_bound(mu2, 0.0, x_norm) >= climb - 1e-10


def test_uniform_bound_domain(mu2):
    for bad in (0.0, 1.0, -0.3, 1.4):
        with pytest.raises(ValueError):
            uniform_interior_bound(mu2, 0.0, bad)
