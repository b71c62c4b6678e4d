"""Radial catenoid-type barriers for linear-growth densities.

For a normalized density g and flux constant alpha > 0, the rotationally
symmetric functions

    k(x) = a +/- integral( (g')^{-1}(alpha / r^(n-1)), r = anchor..|x| )

solve the Euler-Lagrange equation of the energy  integral g(|grad u|)  away
from the origin.  Their graphs are generalized catenoids: the integrand
blows up as r decreases to the *neck radius*  alpha^(1/(n-1)),  where the
slope becomes vertical.

Two anchoring conventions are supported:

* ``Anchor.NECK``  -- integrate from the neck itself.  The profile tends to
  the offset ``a`` at the neck when integral(t * g'') converges; otherwise
  the defining integral is +inf at every radius, and the profile routes
  refuse it with a ValueError (only :func:`neck_limit` returns the inf).
* ``Anchor.UNIT``  -- integrate from radius 1, which requires the flux to
  satisfy 0 < alpha < 1 so the neck sits strictly inside radius 1.  The
  profile is finite at every radius above the neck even for densities whose
  neck integral diverges; it blows up only in the neck limit.

Every profile obeys the first-order flux identity

    r^(n-1) * g'(|k'(r)|) = alpha,

which :func:`ode_residual` measures on the slopes of a sampled profile
(not on its values), and the same integrals give sharp interior envelopes
for solutions with an excised inner disk (:func:`envelope_bound`,
:func:`uniform_interior_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import ioutil
from .density import Density, Growth, _require_normalized, invert_gprime
from .quadrature import QuadratureAccuracyError, integrate

# Certified absolute accuracy demanded from every profile quadrature.
# The direct route's integrand loses digits to cancellation in
# 1 - alpha/r^(n-1) as r approaches the neck, which puts the achievable
# error bound of the QUADPACK QAGS port (:mod:`lingrowth.quadrature`)
# near 1e-10 there; 1e-9 keeps the contract honest while staying an order
# of magnitude below the 1e-8 agreement tolerances downstream.
QUAD_ABS_TOL = 1e-9
_NEAR_NECK_FRACTION = 0.1
# largest slope argument below 1, for nodes that round onto the neck
_Y_MAX = 1.0 - 1e-16


class Sign(Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is Sign.PLUS else -1.0


class Anchor(Enum):
    """Lower limit of the defining integral: the neck circle or radius 1."""

    NECK = "neck"
    UNIT = "unit"


@dataclass(frozen=True)
class CatenoidSpec:
    """Parameters of one radial barrier profile.

    Attributes
    ----------
    sign : Sign
        Whether the profile increases (PLUS) or decreases (MINUS) with
        radius.
    alpha : float
        Flux constant, > 0.  With Anchor.UNIT it must lie in (0, 1).
    offset_a : float
        Additive offset: the value at the anchor radius.
    dim_n : int
        Ambient dimension, >= 2.
    anchor : Anchor

    ``alpha`` and ``offset_a`` are stored as floats cast by
    :func:`ioutil.real` (an int, a float or a numpy number, finite), and
    ``dim_n`` as an int cast by :func:`ioutil.integer` (an int or a numpy
    integer, >= 2); a bool, a string or a value the cast rejects is a
    ValueError that starts with the field's name.
    """

    sign: Sign
    alpha: float
    offset_a: float
    dim_n: int
    anchor: Anchor = Anchor.NECK

    def __post_init__(self):
        for field, cast, *args in (("alpha", ioutil.real),
                                   ("offset_a", ioutil.real),
                                   ("dim_n", ioutil.integer, 2)):
            object.__setattr__(self, field, ioutil.checked(
                cast, getattr(self, field), field, *args))
        if not self.alpha > 0.0:
            raise ValueError(f"alpha: must be positive, got {self.alpha!r}")
        if self.anchor is Anchor.UNIT and not self.alpha < 1.0:
            raise ValueError(
                f"unit anchoring requires 0 < alpha < 1, got {self.alpha}")

    @property
    def neck_radius(self) -> float:
        return self.alpha ** (1.0 / (self.dim_n - 1))

    def to_config(self) -> dict:
        return {
            "sign": self.sign.value,
            "alpha": self.alpha,
            "a": self.offset_a,
            "n": self.dim_n,
            "convention": self.anchor.value,
        }

    @staticmethod
    def from_config(cfg: dict) -> "CatenoidSpec":
        ioutil.check_keys(cfg, {"sign", "alpha", "a", "n", "convention"},
                          "catenoid spec key(s)")

        try:
            return CatenoidSpec(
                sign=ioutil.checked(Sign, cfg["sign"], "key 'sign'"),
                alpha=ioutil.checked(ioutil.real, cfg["alpha"], "key 'alpha'"),
                offset_a=ioutil.checked(ioutil.real, cfg["a"], "key 'a'"),
                dim_n=ioutil.checked(ioutil.integer, cfg["n"], "key 'n'", 2),
                anchor=ioutil.checked(Anchor, cfg["convention"],
                                      "key 'convention'"),
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed catenoid config {cfg!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# quadrature plumbing


def _decade_points(lo: float, hi: float) -> list:
    """Split [lo, hi] at powers of ten: wide smooth tails integrate best
    one decade at a time."""
    pts = [lo]
    p = 10.0 ** math.ceil(math.log10(lo) + 1e-12)
    while p < hi:
        if p > pts[-1] * 1.0001:
            pts.append(p)
        p *= 10.0
    pts.append(hi)
    return pts


def _radial_integrand(d: Density, alpha: float, n: int):
    def f(r):
        # y reaches 1 only by roundoff at the neck
        return invert_gprime(d, np.minimum(alpha / r ** (n - 1), _Y_MAX))
    return f


def _radial_integrals(d: Density, alpha: float, n: int,
                      radii) -> np.ndarray:
    """integral( (g')^{-1}(alpha / r^{n-1}), r = radii[0]..radii[i] ) for
    every i, accumulated over the gaps between consecutive radii.

    Each gap is one QAGS interval (:func:`lingrowth.quadrature.integrate`)
    certified to QUAD_ABS_TOL / (len(radii) - 1), so every cumulative value
    stays within QUAD_ABS_TOL.  The first Gauss-Kronrod pass covers every
    gap in one array evaluation, and only the gaps it leaves open are
    bisected further.  The radii must not descend.  The integrand may be
    (integrably) singular at radii[0] when it equals the neck radius;
    Gauss-Kronrod panels never evaluate the endpoints, and the QUADPACK
    epsilon extrapolation handles the algebraic blow-up.
    """
    radii = np.asarray(radii, dtype=float)
    gaps = integrate(_radial_integrand(d, alpha, n), radii[:-1], radii[1:],
                     QUAD_ABS_TOL / max(len(radii) - 1, 1),  # one radius: none
                     what="radial profile integral")
    return np.cumsum(np.concatenate(([0.0], gaps)))


def _check_radii(radii, neck: float, *outer) -> np.ndarray:
    """The one radius rule: ``radii`` (a list, a tuple or a 1-D array; one
    radius is ``[rho]``) followed by the ``outer`` radii, as one float
    array.  Every radius must be a finite real number: an int, a float or
    a numpy number, and a bool, a string, NaN or +-inf is none (cast by
    :func:`ioutil.real_array`).  Together the radii must be nonempty and
    strictly ascending from above the neck radius; anything else is a
    ValueError stating this rule."""
    rule = (f"every radius must be a finite real number above the neck "
            f"radius {neck:.12g} and the radius before it")
    radii = np.append(ioutil.checked(ioutil.real_array, radii, rule),
                      ioutil.checked(ioutil.real_array, outer, rule))
    if not (radii.size and radii[0] > neck and np.all(np.diff(radii) > 0.0)
            and radii[-1] < math.inf):  # false for nan as well
        shown = np.array2string(radii, threshold=6, separator=", ")
        raise ValueError(f"{rule}, got {shown}; the profile is undefined "
                         "elsewhere")
    return radii


def _refuse_infinite(d: Density, spec: CatenoidSpec) -> None:
    """Refuse a profile that is infinite at every radius: a neck-anchored
    one of a density whose neck integral diverges, a ValueError."""
    if spec.anchor is Anchor.NECK and d.growth is Growth.INFINITE_INTEGRAL:
        raise ValueError(
            f"the neck-anchored profile of {d.label} is infinite at every "
            'radius, as its neck integral diverges; "convention": "unit" '
            "gives finite values")


def _slope_parameter(d: Density, alpha: float, n: int, rho):
    """s*(rho): the slope the profile attains at radius rho, one radius or
    an array of them."""
    return invert_gprime(d, alpha / rho ** (n - 1))


def _substituted_integrand(d: Density, n: int):
    expo = -n / (n - 1.0)

    def phi(s):
        return s * d.gsecond(s) * d.gprime(s) ** expo / (n - 1.0)
    return phi


def _tail_cutoff(d: Density, n: int, s_lo: float, abs_tol: float) -> float:
    """Upper integration limit S making the neglected substituted tail
    provably below abs_tol.

    With a certified bound g''(s) <= c (1+s)^(-m), m > 2, and using
    g'(s) >= 1/2 beyond the half-slope point:

        tail(S) <= 2^(n/(n-1)) * c / ((m-2)(n-1)) * (1+S)^(2-m).

    Without such a bound no cutoff is provably accurate, so this raises
    :class:`QuadratureAccuracyError` instead of truncating: cutting where
    the slope has all but saturated (g' = 1 - 1e-8) drops about 2e-4 for
    mu=3.
    """
    if d.tail is None or not d.tail.exponent > 2.0:
        raise QuadratureAccuracyError(
            f"substituted profile integral of {d.label!r} cannot be "
            "truncated without a certified tail bound (TailEstimate with "
            "exponent > 2)", math.inf)
    m, c = d.tail.exponent, d.tail.coeff
    factor = 2.0 ** (n / (n - 1.0)) * c / ((m - 2.0) * (n - 1.0))
    S = (factor / abs_tol) ** (1.0 / (m - 2.0)) - 1.0
    return max(10.0 * max(s_lo, 1.0), invert_gprime(d, 0.5), S)


def _substituted_integral(d: Density, n: int, s_lo: float,
                          s_hi: float) -> float:
    """integral( s g''(s) g'(s)^{-n/(n-1)} / (n-1), s = s_lo..s_hi ).

    This is the neck-regular reparametrization of the radial profile
    integral by slope: substituting r^{n-1} = alpha/g'(s) turns the
    vertical-slope endpoint into a decaying tail in s.  ``s_hi`` may be
    inf, in which case the integral is truncated with a certified
    remainder (see :func:`_tail_cutoff`).
    """
    phi = _substituted_integrand(d, n)
    budget = QUAD_ABS_TOL
    if math.isinf(s_hi):
        s_hi = _tail_cutoff(d, n, s_lo, budget * 0.1)
        budget *= 0.9
    if s_hi <= s_lo:
        return 0.0
    points = np.array(_decade_points(s_lo, s_hi))
    panels = integrate(phi, points[:-1], points[1:], budget / len(points),
                       what="substituted profile integral")
    return float(np.cumsum(panels)[-1])


# ---------------------------------------------------------------------------
# profile evaluation: two independent routes


def profile_value(d: Density, spec: CatenoidSpec, rho: float) -> float:
    """Profile value at radius rho by direct radial quadrature.

    Evaluates  a + sign * integral((g')^{-1}(alpha/r^{n-1}), anchor..rho)
    with adaptive Gauss-Kronrod panels at absolute tolerance
    :data:`QUAD_ABS_TOL` (1e-9).  When
    rho sits within 10% of the neck the integrand is too steep for the
    radial variable and the evaluation is delegated to the slope
    parametrization (:func:`profile_value_substituted`).

    For neck-anchored profiles of a density with divergent neck integral
    the defining integral is infinite at every radius, and that is a
    ValueError saying so, as it is for every profile route here.
    """
    _require_normalized(d)
    neck = spec.neck_radius
    (rho,) = _check_radii([rho], neck)
    _refuse_infinite(d, spec)

    if rho - neck < _NEAR_NECK_FRACTION * neck:
        return profile_value_substituted(d, spec, rho)

    # integral from the anchor radius to rho, signed by orientation
    anchor_r = neck if spec.anchor is Anchor.NECK else 1.0
    ends = sorted((anchor_r, rho))
    span = math.copysign(
        _radial_integrals(d, spec.alpha, spec.dim_n, ends)[1], rho - anchor_r)
    return spec.offset_a + spec.sign.factor * span


def profile_values(d: Density, spec: CatenoidSpec, radii) -> np.ndarray:
    """Profile values at every radius of a strictly ascending array.

    The first value is :func:`profile_value` at ``radii[0]``; each later
    one adds the signed radial integral over the gap to its predecessor
    (:func:`_radial_integrals`), so the gaps add at most QUAD_ABS_TOL of
    certified error to the first value's.  The radius rule, the one of
    every function here: the radii are a list, a tuple or a 1-D array of
    finite real numbers (ints, floats or numpy numbers; a bool, a string,
    NaN or +-inf is none), nonempty and strictly ascending from above the neck radius,
    else a ValueError stating the rule.  A profile that is infinite at
    every radius is a ValueError as in :func:`profile_value`.
    """
    radii = _check_radii(radii, spec.neck_radius)
    return profile_value(d, spec, radii[0]) + spec.sign.factor * (
        _radial_integrals(d, spec.alpha, spec.dim_n, radii))


def profile_value_substituted(d: Density, spec: CatenoidSpec,
                              rho: float) -> float:
    """Profile value at radius rho via the slope reparametrization.

    Independent evaluation route: substituting r^{n-1} = alpha/g'(s) maps
    the radial integral to

        alpha^{1/(n-1)} * integral( s g''(s) g'(s)^{-n/(n-1)} / (n-1) )

    between the slopes attained at the endpoints; the neck corresponds to
    s = inf.  Needs only forward evaluations of g', g'' away from the
    anchor, so it cross-checks the inverse-based radial route.  A profile
    that is infinite at every radius is a ValueError as in
    :func:`profile_value`.
    """
    _require_normalized(d)
    (rho,) = _check_radii([rho], spec.neck_radius)
    _refuse_infinite(d, spec)

    n = spec.dim_n
    prefactor = spec.alpha ** (1.0 / (n - 1))
    s_rho = _slope_parameter(d, spec.alpha, n, rho)
    if spec.anchor is Anchor.NECK:
        span = prefactor * _substituted_integral(d, n, s_rho, math.inf)
    else:
        s_one = _slope_parameter(d, spec.alpha, n, 1.0)
        if s_rho <= s_one:  # rho >= 1: integrate up in radius = down in slope
            span = prefactor * _substituted_integral(d, n, s_rho, s_one)
        else:
            span = -prefactor * _substituted_integral(d, n, s_one, s_rho)
    return spec.offset_a + spec.sign.factor * span


def neck_limit(d: Density, spec: CatenoidSpec) -> float:
    """Limiting profile value as the radius decreases to the neck.

    Finite exactly when integral(t * g'') converges: neck-anchored
    profiles then tend to their offset, unit-anchored ones to the offset
    minus the signed full span between neck and radius 1.  In the
    divergent case the limit is a signed inf, the one place a profile's
    infinity is returned rather than refused.  The case is
    ``d.growth``, declared or proved by the tail bound (:class:`Density`);
    an undetermined class is a ValueError.
    """
    _require_normalized(d)
    if d.growth is Growth.UNDETERMINED:
        raise ValueError(
            "cannot form the neck limit: growth class is undetermined")
    if d.growth is Growth.INFINITE_INTEGRAL:  # the neck integral diverges
        toward = 1.0 if spec.anchor is Anchor.NECK else -1.0
        return spec.offset_a + toward * spec.sign.factor * math.inf
    if spec.anchor is Anchor.NECK:
        return spec.offset_a
    n = spec.dim_n
    s_one = _slope_parameter(d, spec.alpha, n, 1.0)
    span = spec.alpha ** (1.0 / (n - 1)) * _substituted_integral(
        d, n, s_one, math.inf)
    return spec.offset_a - spec.sign.factor * span


# ---------------------------------------------------------------------------
# sampled profiles


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """A sampled radial profile, in five fields: the flux constant
    ``alpha`` and dimension ``dim_n`` of its spec, and the equally long
    arrays ``rho`` (the radii), ``values`` and ``slopes``.

    ``slopes[i]`` is the signed derivative of the profile at ``rho[i]``;
    for a profile generated from a spec it equals
    sign * (g')^{-1}(alpha / rho^{n-1}).
    """

    alpha: float
    dim_n: int
    rho: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def __post_init__(self):
        if not (len(self.rho) == len(self.values) == len(self.slopes)):
            raise ValueError("rho, values, slopes must have equal length")


def sample_profile(d: Density, spec: CatenoidSpec, rho_min: float,
                   rho_max: float, num: int = 200) -> RadialProfile:
    """Sample a profile on a geometric grid accumulating at the neck.

    The offsets rho - neck are geometrically spaced between the requested
    endpoints, which resolves the steep region without wasting points on
    the flat wings.  The values come from :func:`profile_values`: one
    :func:`profile_value` at ``rho_min`` plus one radial panel per gap,
    certified to QUAD_ABS_TOL / (num - 1).  The slopes are
    sign * (g')^{-1}(alpha / rho^{n-1}) at every radius.

    ``d`` must be normalized and ``num`` an integer >= 2 (an int or a numpy
    integer; a bool, a fraction or a string is a ValueError naming
    ``num``), and ``[rho_min, rho_max]`` must obey the radius rule of
    :func:`profile_values`: finite real numbers (a bool or a string is
    none), neck < rho_min < rho_max, else a ValueError stating the rule.
    A profile that is infinite at every radius is a ValueError as in
    :func:`profile_value`.
    """
    num = ioutil.checked(ioutil.integer, num, "num", 2)
    neck = spec.neck_radius
    rho_min, rho_max = _check_radii([rho_min, rho_max], neck)
    offsets = np.geomspace(rho_min - neck, rho_max - neck, num)
    rho = neck + offsets
    return RadialProfile(
        alpha=spec.alpha, dim_n=spec.dim_n, rho=rho,
        values=profile_values(d, spec, rho),
        slopes=spec.sign.factor * _slope_parameter(d, spec.alpha,
                                                   spec.dim_n, rho))


def ode_residual(d: Density, profile: RadialProfile) -> float:
    """Max violation of the flux identity r^{n-1} g'(|k'|) = alpha.

    It reads ``rho`` and ``slopes`` only, never ``values``: for a profile
    from :func:`sample_profile`, whose slopes are (g')^{-1} of the flux
    itself, it measures the round trip of :func:`invert_gprime` and says
    nothing of the quadrature behind the values.  Such a profile keeps
    this below 1e-9; a constant profile (zero slope) scores exactly alpha
    because g'(0) = 0.
    """
    _require_normalized(d)
    r = np.asarray(profile.rho, dtype=float)
    s = np.abs(np.asarray(profile.slopes, dtype=float))
    flux = r ** (profile.dim_n - 1) * np.asarray(d.gprime(s), dtype=float)
    return float(np.max(np.abs(flux - profile.alpha)))


# ---------------------------------------------------------------------------
# interior envelopes


def envelope_bound(d: Density, r: float, rho: float, R: float,
                   outer_value: float, n: int) -> float:
    """Sharp interior upper envelope from a barrier of neck radius r.

    Returns  outer_value + integral( (g')^{-1}(r^{n-1}/t^{n-1}),
    t = rho..R ), the value at radius rho of the decreasing barrier that
    equals outer_value on the sphere of radius R.  Requires
    0 < r < rho < R, with r, rho, R and ``outer_value`` finite real
    numbers, and ``n`` an integer >= 2 (see :func:`envelope_bounds`).  As
    r -> 0 the integral vanishes and the envelope collapses to the outer
    bound.  This is :func:`envelope_bounds` at the one radius rho.
    """
    return float(envelope_bounds(d, r, [rho], R, outer_value, n)[0])


def envelope_bounds(d: Density, r: float, radii, R: float,
                    outer_value: float, n: int) -> np.ndarray:
    """:func:`envelope_bound` at every radius of a strictly ascending
    array, with r < radii[0] and radii[-1] < R.

    The integrals are accumulated over the gaps between consecutive radii
    with R as the last one, so each value is
    outer_value + (I(R) - I(radii[i])) for the cumulative integral I of
    :func:`_radial_integrals`, certified to QUAD_ABS_TOL like a single
    :func:`envelope_bound`.

    ``d`` must be normalized.  The dimension ``n`` must be an integer >= 2
    (an int or a numpy integer; a bool, a fraction or a string is a
    ValueError that starts ``n: ``), and ``r`` (positive) and
    ``outer_value`` finite real numbers by :func:`ioutil.real`, else a
    ValueError that starts with the argument's name.  ``radii`` followed
    by R must obey the radius rule of :func:`profile_values` with r as the
    neck radius: finite real numbers ascending strictly from above r, else
    a ValueError stating the rule.
    """
    _require_normalized(d)
    n = ioutil.checked(ioutil.integer, n, "n", 2)
    r = ioutil.checked(ioutil.real, r, "r")
    outer_value = ioutil.checked(ioutil.real, outer_value, "outer_value")
    if not r > 0.0:
        raise ValueError(f"r: must be positive, got {r!r}")
    ends = _check_radii(radii, r, R)
    cumulative = _radial_integrals(d, r ** (n - 1), n, ends)
    return outer_value + (cumulative[-1] - cumulative[:-1])


def uniform_interior_bound(d: Density, a: float, x_norm, R: float = 1.0):
    """Interior bound a + (R - |x|) * (g')^{-1}(1/2) on the ball of radius R.

    Applies to densities with divergent neck integral, whose barriers
    blow up at their necks: choosing the flux so the neck passes through
    radius |x|/2^{1/(n-1)} caps the barrier slope at (g')^{-1}(1/2) on
    the whole segment from |x| to R, independent of the dimension.  ``a``
    is the largest boundary value; ``x_norm`` is one radius or a list, a
    tuple or a 1-D array of them (cast by :func:`ioutil.real_array`),
    each in (0, R), and the bound has its shape.
    ``a``, ``R`` and a single ``x_norm`` are finite real numbers by
    :func:`ioutil.real`; a value a cast rejects is a ValueError that
    starts with the argument's name.
    """
    _require_normalized(d)
    a = ioutil.checked(ioutil.real, a, "a")
    R = ioutil.checked(ioutil.real, R, "R")
    if isinstance(x_norm, (list, tuple, np.ndarray)):
        x = ioutil.checked(ioutil.real_array, x_norm, "x_norm")
    else:
        x = ioutil.checked(ioutil.real, x_norm, "x_norm")
    if not np.all((0.0 < x) & (x < R)):
        raise ValueError(f"x_norm: must lie in (0, {R}), got {x_norm}")
    if d.growth is not Growth.INFINITE_INTEGRAL:
        raise ValueError(
            "the uniform interior bound applies to densities with "
            "divergent neck integral (infinite growth class)")
    return a + (R - x) * invert_gprime(d, 0.5)
