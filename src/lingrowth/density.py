"""Convex energy densities of linear growth.

A density is a scalar function g : [0, inf) -> R that is C^2, strictly
convex (g'' > 0), has g'(0) = 0, and grows linearly:

    a*t - b <= g(t) <= A*t + B        for all t >= 0.

All derived machinery (barrier profiles, the finite-element solver) assumes
the normalization  lim_{t->inf} g'(t) = 1,  which can always be arranged by
rescaling; :func:`normalize` does exactly that.

Two built-in families are provided:

* the area integrand  g(t) = sqrt(1 + t^2), and
* a one-parameter family defined through  g''(t) = (mu - 1) * (1 + t)^(-mu)
  for mu > 1, which sweeps from slowly-saturating slopes (mu near 1) to
  rapidly-saturating ones (large mu).

The long-run behaviour of a density is summarized by whether the integral
of t * g''(t) over [0, inf) converges; that dichotomy decides whether the
associated radial barriers stay bounded at their neck or blow up, and is
exposed here as :class:`Growth`.  The class is a fact of construction,
never estimated: a density declares it, or a certified tail bound
g'' <= c (1 + t)^(-m) with m > 2 proves it finite (:class:`Density`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import ioutil


class Growth(Enum):
    """Convergence class of integral(t * g''(t), t=0..inf): declared by a
    density, proved finite by its tail bound, or else undetermined."""

    FINITE_INTEGRAL = "finite"
    INFINITE_INTEGRAL = "infinite"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class TailEstimate:
    """Certified power bound g''(t) <= coeff * (1 + t)**(-exponent).

    Used to truncate improper integrals of g''-weighted quantities with a
    computable remainder.  ``exponent`` must exceed 2 for the bound to give
    a convergent tail.  Both fields are finite real numbers by
    :func:`ioutil.real`, stored as floats, and ``coeff`` is positive, as
    a bound on g'' > 0 must be; anything else is a ValueError that starts
    ``exponent: `` or ``coeff: ``.
    """

    exponent: float
    coeff: float

    def __post_init__(self):
        for name in ("exponent", "coeff"):
            object.__setattr__(self, name, ioutil.checked(
                ioutil.real, getattr(self, name), name))
        if not self.coeff > 0.0:
            raise ValueError(f"coeff: must be positive, got {self.coeff!r}")


@dataclass(frozen=True, eq=False)
class Density:
    """One convex linear-growth density with its derivatives.

    Instances are immutable value objects; all fields are set at
    construction and the evaluation callables must be pure.  ``eval`` and
    the convenience accessors accept scalars or numpy arrays.

    Attributes
    ----------
    gprime_inf : float
        The slope limit lim g'(t) as t -> inf, declared by the builder: a
        finite positive real (an int, a float or a numpy number), stored
        as a float; a bool, a string, zero, a negative value, NaN or +-inf
        is a ValueError that starts ``gprime_inf: ``.  :func:`normalize`
        divides by it.
    analytic_inverse : callable or None
        Closed-form inverse of g' on [0, gprime_inf), when available.
    growth : Growth
        Convergence class of integral(t * g''), by one rule: a declared
        ``FINITE_INTEGRAL`` or ``INFINITE_INTEGRAL`` is the class; an
        ``UNDETERMINED`` one with a ``tail`` of exponent > 2 is
        ``FINITE_INTEGRAL``, since g'' <= c (1 + t)^(-m) with m > 2 makes
        the integral finite; anything else stays ``UNDETERMINED``.  A
        value that is no :class:`Growth`, or ``INFINITE_INTEGRAL`` with
        such a tail, is a ValueError that starts ``growth: ``.
    tail : TailEstimate or None
        Optional certified power bound on g'', which proves the class
        finite and truncates the barrier profiles' tail integrals.
    label : str
        Name in reports, such as "area" or "mu(3)".
    """

    _g: Callable
    _gprime: Callable
    _gsecond: Callable
    gprime_inf: float
    analytic_inverse: Optional[Callable]
    growth: Growth
    tail: Optional[TailEstimate] = None
    label: str = "density"

    def __post_init__(self):
        c = ioutil.checked(ioutil.real, self.gprime_inf, "gprime_inf")
        if not c > 0.0:
            raise ValueError(f"gprime_inf: must be positive, got {c!r}")
        object.__setattr__(self, "gprime_inf", c)
        if not isinstance(self.growth, Growth):
            raise ValueError(f"growth: must be a Growth, got {self.growth!r}")
        bounded = self.tail is not None and self.tail.exponent > 2.0
        if bounded and self.growth is Growth.INFINITE_INTEGRAL:
            raise ValueError("growth: INFINITE_INTEGRAL contradicts a tail "
                             f"bound of exponent {self.tail.exponent} > 2")
        if bounded:
            object.__setattr__(self, "growth", Growth.FINITE_INTEGRAL)

    def eval(self, t):
        """Return the triple (g(t), g'(t), g''(t))."""
        t = np.asarray(t, dtype=float)
        return self._g(t), self._gprime(t), self._gsecond(t)

    def g(self, t):
        return self._g(np.asarray(t, dtype=float))

    def gprime(self, t):
        return self._gprime(np.asarray(t, dtype=float))

    def gsecond(self, t):
        return self._gsecond(np.asarray(t, dtype=float))

    def __repr__(self):  # keep reports readable
        return f"Density({self.label})"


# ---------------------------------------------------------------------------
# constructors


def make_area_density() -> Density:
    """The area integrand g(t) = sqrt(1 + t^2).

    Already normalized (g' -> 1), with closed-form slope inverse
    y -> y / sqrt(1 - y^2).  Its second derivative satisfies
    g''(t) <= 2*sqrt(2) * (1+t)^(-3), so tail integrals of t*g''
    converge.
    """
    return Density(
        _g=lambda t: np.sqrt(1.0 + t * t),
        _gprime=lambda t: t / np.sqrt(1.0 + t * t),
        _gsecond=lambda t: (1.0 + t * t) ** (-1.5),
        gprime_inf=1.0,
        analytic_inverse=lambda y: y / np.sqrt(1.0 - y * y),
        growth=Growth.FINITE_INTEGRAL,
        tail=TailEstimate(exponent=3.0, coeff=2.0 * math.sqrt(2.0)),
        label="area",
    )


def make_mu_density(mu) -> Density:
    """Density with g''(t) = (mu - 1) * (1 + t)**(-mu), g(0) = g'(0) = 0.

    Integrating twice:

        g'(t) = 1 - (1 + t)**(1 - mu)
        g(t)  = t + ((1 + t)**(2 - mu) - 1) / (mu - 2)   for mu != 2
        g(t)  = t - log(1 + t)                           for mu == 2

    The slope limit is 1 for every mu > 1, so the family is already
    normalized.  t * g'' is integrable exactly when mu > 2.  Those forms
    of g cancel at small t, where g ~ (mu - 1) t^2 / 2; g is evaluated
    without the cancellation (:func:`_mu_g`).

    Raises
    ------
    ValueError
        Starting ``mu: ``, if mu is no real number by :func:`ioutil.real`
        (a bool, a string, NaN or +-inf), if mu <= 1 (the profile would
        not be strictly convex with bounded slope), or if mu is so large
        (about 1e19 or more) that a coefficient of :func:`_mu_g`'s series
        overflows a float.
    """
    return ioutil.checked(_mu_density, mu, "mu")


def _mu_density(mu) -> Density:
    """:func:`make_mu_density` with its errors unnamed, so that a config
    names them by its key."""
    mu = ioutil.real(mu)
    if not mu > 1.0:
        raise ValueError(f"must be a finite real number above 1, got {mu!r}")
    try:
        _g = _mu_g(mu)
    except OverflowError as exc:
        raise ValueError(f"{mu:g} is too large: a coefficient of g's series "
                         "overflows a float") from exc

    def _gprime(t, _mu=mu):
        # 1 - (1 + t)**(1 - mu) without the cancellation at small t
        return -np.expm1((1.0 - _mu) * np.log1p(t))

    def _gsecond(t, _mu=mu):
        return (_mu - 1.0) * (1.0 + t) ** (-_mu)

    def _inverse(y, _mu=mu):
        # (1 - y)**(-1/(mu - 1)) - 1 without the cancellation at small y
        return np.expm1(-np.log1p(-y) / (_mu - 1.0))

    growth = Growth.FINITE_INTEGRAL if mu > 2.0 else Growth.INFINITE_INTEGRAL
    return Density(
        _g=_g,
        _gprime=_gprime,
        _gsecond=_gsecond,
        gprime_inf=1.0,
        analytic_inverse=_inverse,
        growth=growth,
        tail=TailEstimate(exponent=mu, coeff=mu - 1.0),
        label=f"mu({mu:g})",
    )


# Entries below the crossover whose series :func:`_mu_g` sums at once: the
# powers of one block take (terms - 1) * _SERIES_BLOCK doubles, 0.4 MB at
# mu = 3 and 0.8 MB at mu = 1.05, whatever the size of the argument.
# Summing the series with two running arrays instead has the same bits, but
# was measured to raise the benchmark's removability pass from 0 to 3,185
# minor page faults and its median time by 10 ms or more, spent in the
# solver's kernels after this function returns, not in it.
_SERIES_BLOCK = 4096


def _mu_g(mu: float) -> Callable:
    """g of :func:`make_mu_density`, without cancellation at small t.

    With L = log1p(t) and s = 2 - mu, t = e^L - 1 and g(t) = t - (e^(sL)
    - 1) / s, so

        g = (t - L) - (e^(sL) - 1 - sL) / s
          = L^2 P(L),   P(L) = sum over k >= 0 of (1 - s^(k+1)) L^k / (k+2)!

    (at s = 0, mu = 2, the second part of the first form is 0).  The first
    form serves from a crossover on: L >= min(1/4, 1/|s|) for mu >= 2,
    where its two parts are positive, and L >= 2 for 1 < mu < 2, where
    they are not.  Below it, where both parts cancel toward
    (mu - 1) L^2 / 2, g is L^2 times P summed to below 1e-18 of its first
    coefficient (mu - 1) / 2, each coefficient rounded once from its exact
    rational value; for 1 < mu <= 3 they are all positive.  Against a
    60-digit evaluation at 500 points of t in [1e-12, 1e6] the relative
    error was at most 2.2 eps (eps = 2.2e-16) for mu in [1.5, 50]; it
    grows toward mu = 1, where the first form cancels above the crossover
    too, to 3.3 eps at mu = 1.2 and 25 eps at mu = 1.05.  Non-finite t
    give inf (g grows like t) or nan."""
    s = 2.0 - mu
    cut = 2.0 if s > 0.0 else min(0.25, 1.0 / abs(s)) if s else 0.25
    exact_s = Fraction(s)
    coef = []
    for k in range(100):
        coef.append(float((1 - exact_s ** (k + 1)) / math.factorial(k + 2)))
        # a bound of the next term below the crossover
        bound = (1 + abs(exact_s) ** (k + 2)) * Fraction(cut) ** (k + 1)
        if bound / math.factorial(k + 3) < Fraction(1, 10 ** 18) * coef[0]:
            break
    coef = np.array(coef)

    def _g(t, _s=s, _cut=cut, _coef=coef):
        t = np.asarray(t, dtype=float)
        shape, t = t.shape, t.ravel()
        if not np.max(t, initial=0.0) < np.inf:     # inf or nan
            finite = np.isfinite(t)
            out = t.copy()
            out[finite] = _g(t[finite])
            return out.reshape(shape)[()]
        L = np.log1p(t)
        below = np.flatnonzero(L < _cut)
        x = L[below]
        if _s != 0.0:
            # (e^(sL) - 1 - sL) / s as expm1(sL) / s - L
            part = np.multiply(L, _s)
            np.expm1(part, out=part)
            part /= _s
            part -= L
        out = np.subtract(t, L, out=L)
        if _s != 0.0:
            out -= part
            del part
        # P(x) from the powers x, x^2, ..., one product each, its terms
        # summed from the largest, the constant one, for a block of x at a
        # time.  einsum sums the terms of a block of one entry in another
        # order than those of a longer block, so a block of one is summed
        # as two copies of its entry, and every entry has the bits of one
        # block of all of x, a scalar t included.
        for lo in range(0, len(x), _SERIES_BLOCK):
            block, xb = below[lo:lo + _SERIES_BLOCK], x[lo:lo + _SERIES_BLOCK]
            if len(xb) == 1:
                xb = np.repeat(xb, 2)
            powers = np.empty((len(_coef) - 1, len(xb)))
            powers[0] = xb
            for k in range(1, len(powers)):
                np.multiply(powers[k - 1], xb, out=powers[k])
            series = _coef[0] + np.einsum("k,km->m", _coef[1:], powers)
            out[block] = (xb * xb * series)[:len(block)]
        return out.reshape(shape)[()]

    return _g


def make_custom_density(g, gprime, gsecond, *, gprime_inf,
                        analytic_inverse=None,
                        growth: Growth = Growth.UNDETERMINED,
                        tail: Optional[TailEstimate] = None,
                        label: str = "custom") -> Density:
    """Wrap user-supplied callables as a density.

    The callables must be vectorized (accept numpy arrays).  The slope
    limit ``gprime_inf`` = lim g'(t) is required: a finite positive real
    (see :class:`Density`), which :func:`normalize` divides by.  The
    growth class is ``growth`` when declared, ``FINITE_INTEGRAL`` when
    ``tail`` has an exponent > 2, and ``UNDETERMINED`` otherwise; the
    barrier profiles refuse an undetermined density's neck limit.
    """
    return Density(
        _g=g, _gprime=gprime, _gsecond=gsecond,
        gprime_inf=gprime_inf, analytic_inverse=analytic_inverse,
        growth=growth, tail=tail, label=label,
    )


# accepted config keys of each built-in density kind
_CONFIG_KEYS = {"area": {"kind"}, "mu": {"kind", "mu"}}


def density_from_config(cfg: dict) -> Density:
    """Built-in density from its JSON config, ``{"kind": "area"}`` or
    ``{"kind": "mu", "mu": 3.0}``; any other key is an error.  Custom
    densities are code-only and have no config form."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError(f"density config needs a 'kind' field, got {cfg!r}")
    kind = cfg["kind"]
    if kind not in _CONFIG_KEYS:
        raise ValueError(f"unknown density kind {kind!r}")
    ioutil.check_keys(cfg, _CONFIG_KEYS[kind],
                      f"density config key(s) for kind {kind!r}")
    if kind == "area":
        return make_area_density()
    if "mu" not in cfg:
        raise ValueError("mu density config needs a 'mu' field")
    return ioutil.checked(_mu_density, cfg["mu"], "density config key 'mu'")


# ---------------------------------------------------------------------------
# hypothesis checking


_FD_STEP = 1e-5
_ORIGIN_TOL = 1e-8


def validate(d: Density, samples) -> dict:
    """Check the structural hypotheses of a density on a sample grid.

    Returns the report that ``lingrowth density`` writes, without its
    growth class: ``linear_growth_bounds`` holds witnesses ``a_est``,
    ``b_est``, ``A_est`` and ``B_est`` such that
    a_est*t - b_est <= g(t) <= A_est*t + B_est at every sample (the two
    slopes are the largest sampled g', as g is convex);
    ``derivative_consistency`` holds the largest relative mismatches
    ``gprime_vs_g`` (g' against a central difference of g) and
    ``gsecond_vs_gprime`` (g'' against one of g'); ``convexity_ok`` says
    g'' > 0 at every sample, ``origin_ok`` that g'(0) vanishes, and
    ``hypotheses_ok`` that both hold and the sampled slope is positive.

    Violations are flagged in the report, never raised.  ``samples`` must
    be a list, a tuple or a 1-D array of finite real numbers (cast by
    :func:`ioutil.real_array`), nonnegative, with 0 among them and one at
    least the difference step 1e-5; anything else is a ValueError that
    starts ``samples: ``.
    """
    t = ioutil.checked(ioutil.real_array, samples, "samples")
    if not (t.size and np.all(np.isfinite(t)) and np.min(t) == 0.0
            and np.max(t) >= _FD_STEP):  # false for nan as well
        shown = np.array2string(t, threshold=6, separator=", ")
        raise ValueError(f"samples: must be finite reals >= 0, 0 among them "
                         f"and one >= {_FD_STEP:g}, got {shown}")

    g, gp, gpp = d.eval(t)
    convexity_ok = bool(np.all(gpp > 0.0))
    origin_ok = bool(abs(float(d.gprime(0.0))) <= _ORIGIN_TOL)

    # Linear-growth witnesses.  g is convex, so its largest sampled slope
    # bounds every chord; the intercepts are then read off the samples.
    slope = float(np.max(gp))
    B_est = float(max(0.0, np.max(g - slope * t)))
    b_est = float(max(0.0, np.max(slope * t - g)))

    # Derivative consistency by central differences (skip points whose
    # stencil would leave the domain).
    h = _FD_STEP
    inner = t[t >= h]
    cd_g = (d.g(inner + h) - d.g(inner - h)) / (2.0 * h)
    cd_gp = (d.gprime(inner + h) - d.gprime(inner - h)) / (2.0 * h)
    gp_i = d.gprime(inner)
    gpp_i = d.gsecond(inner)
    rel1 = float(np.max(np.abs(cd_g - gp_i) / np.maximum(1.0, np.abs(gp_i))))
    rel2 = float(np.max(np.abs(cd_gp - gpp_i) / np.maximum(1.0, np.abs(gpp_i))))

    return {
        "linear_growth_bounds": {"a_est": slope, "b_est": b_est,
                                 "A_est": slope, "B_est": B_est},
        "derivative_consistency": {"gprime_vs_g": rel1,
                                   "gsecond_vs_gprime": rel2},
        "convexity_ok": convexity_ok,
        "origin_ok": origin_ok,
        "hypotheses_ok": convexity_ok and origin_ok and slope > 0.0,
    }


# ---------------------------------------------------------------------------
# normalization


def normalize(d: Density) -> Density:
    """Rescale a density so that its slope limit equals 1.

    ``d``, its tail coefficient and its inverse's argument are divided by
    its declared ``gprime_inf``; its growth class is unchanged, and a
    density that declares 1 is returned as it is.
    """
    c, inv, tail = d.gprime_inf, d.analytic_inverse, d.tail
    return d if c == 1.0 else replace(
        d,
        _g=lambda t, _f=d._g: _f(t) / c,
        _gprime=lambda t, _f=d._gprime: _f(t) / c,
        _gsecond=lambda t, _f=d._gsecond: _f(t) / c,
        gprime_inf=1.0,
        analytic_inverse=None if inv is None else lambda y: inv(y * c),
        tail=None if tail is None else replace(tail, coeff=tail.coeff / c),
        label=d.label + "/normalized")


def _require_normalized(d: Density):
    """The one test that ``d`` is normalized, as the solver and the barrier
    profiles assume: a ValueError unless its slope limit is 1."""
    if d.gprime_inf != 1.0:
        raise ValueError(f"density {d.label!r} must be normalized "
                         "(gprime_inf == 1); call normalize() first")


# ---------------------------------------------------------------------------
# slope inversion


_INVERT_RTOL = 8.9e-16  # Newton step below this share of t, about 4 ulp
_INVERT_RESIDUAL = 1e-12  # |g'(t) - y| <= this * max(1, y)
_INVERT_MAX_ITER = 200
_BRACKET_CAP = 1e300


def invert_gprime(d: Density, y):
    """Solve g'(t) = y for t, with y in [0, 1) on a normalized density.

    ``y`` is one value or an array of them; the result is a float or an
    array of y's shape.  A closed-form inverse, when the density carries
    one, is applied as it is.  Otherwise each root is bracketed by
    doubling from t = 1 and found by Newton steps on g', safeguarded by
    bisection (:func:`_newton_inverse`).

    Raises ``ValueError`` if any y lies outside [0, 1), or if g' never
    reaches y below t = 1e300.
    """
    y_arr = np.asarray(y, dtype=float)
    # one y and many take the same (1-d) array loops, so give the same bits
    flat = y_arr.reshape(-1)
    inside = (flat >= 0.0) & (flat < 1.0)
    if not inside.all():
        raise ValueError("invert_gprime requires 0 <= y < 1, got "
                         f"{flat[~inside][0]}")
    if d.analytic_inverse is not None:
        t = np.asarray(d.analytic_inverse(flat), dtype=float)
    else:
        t = _newton_inverse(d, flat)
    return float(t[0]) if y_arr.ndim == 0 else t.reshape(y_arr.shape)


def _newton_inverse(d: Density, y: np.ndarray) -> np.ndarray:
    """g'(t) = y solved for each entry of a 1-d ``y`` on a density without
    closed-form inverse.

    Each positive y is bracketed by doubling from [0, 1] until g'(hi) >= y.
    Newton steps on g', using g'' > 0, start at the bracket's lower end;
    a step that would leave the bracket, or fails to halve the step
    before it, bisects instead (Numerical Recipes' ``rtsafe``).  A root is
    done when its residual is zero, or when its last step is at most
    _INVERT_RTOL * t and its residual at most 1e-12 * max(1, y).
    """
    t_out = np.zeros_like(y)
    pending = np.flatnonzero(y > 0.0)
    yv = y[pending]
    lo = np.zeros_like(yv)
    hi = np.ones_like(yv)
    low = d.gprime(hi) < yv
    while np.any(low):
        lo = np.where(low, hi, lo)
        hi = np.where(low, 2.0 * hi, hi)
        if np.any(hi > _BRACKET_CAP):
            raise ValueError(f"slope never reaches {yv[hi > _BRACKET_CAP][0]}"
                             "; density may not be normalized")
        low = d.gprime(hi) < yv

    tol = _INVERT_RESIDUAL * np.maximum(1.0, yv)
    t = lo
    h = d.gprime(t) - yv
    step_old = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_INVERT_MAX_ITER):
            if pending.size == 0:
                return t_out
            gpp = d.gsecond(t)
            newton = t - h / gpp
            take = ((gpp > 0.0) & (lo < newton) & (newton < hi)
                    & (np.abs(2.0 * h) <= np.abs(step_old * gpp)))
            t_new = np.where(take, newton, 0.5 * (lo + hi))
            step_old = t_new - t
            t = t_new
            h = d.gprime(t) - yv
            lo = np.where(h < 0.0, t, lo)
            hi = np.where(h > 0.0, t, hi)
            done = (h == 0.0) | ((np.abs(step_old) <= _INVERT_RTOL * t)
                                 & (np.abs(h) <= tol))
            t_out[pending[done]] = t[done]
            keep = ~done
            pending, yv, tol, t, h, lo, hi, step_old = (
                a[keep] for a in (pending, yv, tol, t, h, lo, hi, step_old))
    raise RuntimeError(f"slope inverse did not converge in "
                       f"{_INVERT_MAX_ITER} iterations for y = {yv[0]}")


# ---------------------------------------------------------------------------
# growth classification


def classify_growth(d: Density) -> Growth:
    """Whether integral(t * g''(t), t=0..inf) converges: ``d.growth``, the
    class that :class:`Density` fixes at construction from the declared
    class and the tail bound.  No g'' is evaluated."""
    return d.growth


# ---------------------------------------------------------------------------
# vector calculus helpers for the field energy G(p) = g(|p|)


def _norms(p, t):
    """The stack p of 2-vectors as a float array and t = |p|, the hypot of
    p's two components unless given."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (2,):
        raise ValueError(f"p must be a 2-vector or a stack of them, "
                         f"got shape {p.shape}")
    return p, np.hypot(p[..., 0], p[..., 1]) if t is None else t


def flux(d: Density, p, t=None):
    """Flux (g'(t)/t) p of G(p) = g(|p|) for a stack p of shape (..., 2),
    0 with the signs of p's zeros at p = 0.

    t = |p| is computed here unless given; a caller that has it, as
    ``np.hypot`` of p's two components, passes it (the solver's energy
    reads the same t).  One vector p gives one flux vector, and a last
    axis other than 2 raises ValueError.
    """
    p, t = _norms(p, t)
    gp = np.asarray(d.gprime(t), dtype=float)
    pos = t > 0.0
    # g'(t)/t; at t = 0 it is g''(0) > 0, which multiplies zeros, and any
    # positive coefficient gives the same signed zeros
    slope = np.where(pos, gp / np.where(pos, t, 1.0), 1.0)
    return slope[..., None] * p


def tangent(d: Density, p, t=None):
    """Tangent of G(p) = g(|p|) for a stack p of shape (..., 2), of shape
    (..., 2, 2), t = |p| taken as in :func:`flux`.

    With P = p p^T / t^2 it is

        tangent  = g''(t) P + (g'(t)/t) (I - P),

    extended by g''(0) I at p = 0.  Strict convexity plus a monotone slope
    make it positive definite, and each off-diagonal entry is rounded once
    and mirrored, so it is exactly symmetric.  This function and
    :func:`flux` are the only home of the formulas: the finite-element
    gradient and Hessian in :mod:`lingrowth.solver` read them here.
    """
    p, t = _norms(p, t)
    gp = np.asarray(d.gprime(t), dtype=float)
    c2 = np.asarray(d.gsecond(t), dtype=float)
    pos = t > 0.0
    safe = np.where(pos, t, 1.0)
    c1 = np.where(pos, gp / safe, c2)           # g'(t)/t, and g''(0) at t = 0

    # entry by entry on whole arrays: (coef x_i) x_j for i <= j, c1 added
    # on the diagonal, the off-diagonal entry rounded once and mirrored
    x, y = p[..., 0] / safe, p[..., 1] / safe
    coef = np.where(pos, c2 - c1, 0.0)
    cx = coef * x
    out = np.empty(np.shape(t) + (2, 2))
    out[..., 0, 0] = cx * x + c1
    out[..., 0, 1] = out[..., 1, 0] = cx * y
    out[..., 1, 1] = coef * y * y + c1
    return out
