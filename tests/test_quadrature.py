"""The QUADPACK QAGS port against scipy.integrate.quad, its oracle.

scipy is imported here only: the package itself no longer loads
scipy.integrate.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from lingrowth import quadrature
from lingrowth.catenoid import QUAD_ABS_TOL, _radial_integrand
from lingrowth.density import make_area_density, make_mu_density
from lingrowth.experiments import _graded_radii
from lingrowth.quadrature import QuadratureAccuracyError, integrate, qagse


def _scipy(f, a, b, epsabs, epsrel):
    """quad on the same epsabs/epsrel and panel limit: (value, error,
    number of evaluations)."""
    val, err, info = quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
                          limit=quadrature.LIMIT, full_output=1)[:3]
    return val, err, info["neval"]


class _Counted:
    """An integrand that counts the points it is evaluated at."""

    def __init__(self, f):
        self.f, self.points = f, 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.f(x)


# -- the rule ----------------------------------------------------------------


def _rule_error(nodes, weights, k):
    """Rule applied to x^k on [-1, 1] minus the exact integral."""
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    return math.fsum((weights * nodes ** k).tolist()) - exact


def test_gauss_kronrod_constants_are_exact_to_their_degree():
    """21-point Kronrod integrates polynomials through degree 31 exactly,
    its embedded 10-point Gauss rule through 19 and not 20; one wrong
    digit in a node or weight breaks this."""
    x, wk, wg = quadrature._XGK, quadrature._WGK, quadrature._WG
    kronrod = (np.concatenate((-x[:10], x)), np.concatenate((wk[:10], wk)))
    gauss = (np.concatenate((-x[1:10:2], x[1:10:2])), np.concatenate((wg, wg)))
    for k in range(32):
        assert abs(_rule_error(*kronrod, k)) <= 1e-15, k
    for k in range(20):
        assert abs(_rule_error(*gauss, k)) <= 1e-15, k
    assert abs(_rule_error(*gauss, 20)) > 1e-7
    assert abs(_rule_error(*kronrod, 32)) > 1e-13


def test_qk21_node_layout_matches_the_rule():
    """Through qk21's node order and weights: exact Kronrod values through
    degree 31 on a shifted panel, and on [-1, 1] an error estimate at its
    rounding floor (50 eps * resabs) exactly while the Gauss rule is exact
    too."""
    for k in range(32):
        (result, _, _, _), = quadrature._qk21(lambda t: t ** k, [0.5], [2.0])
        exact = (2.0 ** (k + 1) - 0.5 ** (k + 1)) / (k + 1)
        assert result == pytest.approx(exact, rel=1e-14), k
    for k in range(0, 22, 2):
        (_, abserr, resabs, _), = quadrature._qk21(lambda t: t ** k, [-1.0],
                                                   [1.0])
        floor = 50.0 * np.finfo(float).eps * resabs
        assert (abserr == floor) == (k < 20), k


# -- the adaptive loop against QUADPACK ----------------------------------------


@pytest.mark.parametrize("f,a,b", [
    (lambda t: t ** 3 - 2.0 * t, 0.0, 2.0),              # one panel
    (lambda t: 1.0 / np.sqrt(t), 0.0, 1.0),              # extrapolated
    (lambda t: 1.0 / np.sqrt(t * t - 1.0), 1.0, 1.5),    # area at the neck
    (lambda t: 1.0 / ((t - 0.3) ** 2 + 1e-4), 0.0, 1.0),  # peak
    (lambda t: np.abs(t - 1.0 / 3.0), 0.0, 1.0),         # kink
])
@pytest.mark.parametrize("epsabs,epsrel", [(1e-11, 1e-12), (0.0, 1e-13)])
def test_port_reproduces_quadpack_bit_for_bit(f, a, b, epsabs, epsrel):
    """On integrands of correctly rounded operations the scalar and array
    evaluations agree, so value and error estimate must equal QUADPACK's
    exactly, roundoff exits (epsrel 1e-13) included."""
    got, err = qagse(f, a, b, epsabs, epsrel)
    want, want_err, _ = _scipy(f, a, b, epsabs, epsrel)
    assert (got[0], err[0]) == (want, want_err)


def test_envelope_gaps_match_quad():
    """The gaps of the removability barrier seed at eps = 0.025 (between
    the annulus rings, then to R = 1), in one batched call, against one
    quad per gap."""
    f = _radial_integrand(make_area_density(), 0.025, 2)
    rings = _graded_radii(0.025, 1.0, 48, 6)
    ends = np.append(rings[1:-1], 1.0)
    tol = QUAD_ABS_TOL / (len(ends) - 1)
    got, err = qagse(f, ends[:-1], ends[1:], tol * 1e-2, 1e-12)
    for lo, hi, val, e in zip(ends[:-1], ends[1:], got, err):
        want, want_err, _ = _scipy(f, lo, hi, tol * 1e-2, 1e-12)
        assert abs(val - want) <= max(e, want_err)
        assert e <= tol
    np.testing.assert_array_equal(got, integrate(f, ends[:-1], ends[1:], tol))


def test_batched_equals_one_interval_at_a_time():
    """One batched first pass gives every interval the bits of its own
    dqagse call, at the tolerance each gap gets in a cumulative pass, on
    all the gaps and on a few of them: 10 gaps of a mu=3 profile from its
    neck, the 53 gaps of the default removability barrier seed at the
    smallest eps (annulus rings, then R = 1), and the 128 gaps between the
    finest rings of the refinement study."""
    cases = [
        (make_mu_density(3.0), 1.0, 10,
         np.array([1.0, 1.01, 1.1, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0])),
        (make_area_density(), 0.025, 53,
         np.append(_graded_radii(0.025, 1.0, 48, 6)[1:-1], 1.0)),
        (make_mu_density(3.0), 1.0, 128, np.linspace(1.5, 3.0, 129)),
    ]
    for d, neck, count, ends in cases:
        assert len(ends) - 1 == count
        f = _radial_integrand(d, neck, 2)
        epsabs = QUAD_ABS_TOL * 1e-2 / count
        for lo, hi in ((ends[:-1], ends[1:]), (ends[:4], ends[1:5])):
            batched = qagse(f, lo, hi, epsabs, 1e-12)
            single = np.array([qagse(f, a, b, epsabs, 1e-12)
                               for a, b in zip(lo, hi)])[:, :, 0].T
            np.testing.assert_array_equal(batched, single)


@pytest.mark.parametrize("d", [make_area_density(), make_mu_density(2.5),
                               make_mu_density(3.0), make_mu_density(4.0)],
                         ids=repr)
def test_neck_singular_panels_match_quad(d):
    """integral_1^1.5 of the neck-anchored slope at alpha = 1: singular at
    the neck, where QUADPACK needs 8-14 panels and its extrapolation."""
    f = _radial_integrand(d, 1.0, 2)
    counted = _Counted(f)
    (got,), (err,) = qagse(counted, 1.0, 1.5, QUAD_ABS_TOL * 1e-2, 1e-12)
    want, want_err, neval = _scipy(f, 1.0, 1.5, QUAD_ABS_TOL * 1e-2, 1e-12)
    assert abs(got - want) <= max(err, want_err) <= QUAD_ABS_TOL
    assert 315 <= counted.points == neval <= 567
    assert integrate(f, 1.0, 1.5, QUAD_ABS_TOL) == got


def test_non_integrable_panel_raises():
    def pole(r):
        with np.errstate(divide="ignore"):
            return 1.0 / (r - 1.0)
    with pytest.raises(QuadratureAccuracyError) as info:
        integrate(pole, 1.0, 1.5, QUAD_ABS_TOL, what="pole")
    assert "pole did not converge" in str(info.value)
    assert not info.value.achieved <= QUAD_ABS_TOL
