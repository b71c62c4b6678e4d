"""Acceptance gate: end-to-end checks with pinned tolerances and budgets.

Each test freezes an independent oracle (closed forms where available)
and a wall-clock budget.  These are the headline guarantees; the unit
suites cover the component-level contracts.
"""

import math
import time

import numpy as np
import pytest

from lingrowth.catenoid import (Anchor, CatenoidSpec, Sign, neck_limit,
                                ode_residual, profile_value,
                                profile_value_substituted, sample_profile)
from lingrowth.density import (Growth, classify_growth, invert_gprime,
                               make_mu_density, normalize)
from lingrowth.experiments import (RemovabilityConfig,
                                   run_catenoid_reproduction,
                                   run_comparison_suite, run_removability)
from lingrowth.mesh import build_polar_mesh
from lingrowth.solver import solve_dirichlet


def mu_density(mu):
    return normalize(make_mu_density(mu))


class Budget:
    """Context manager asserting a wall-clock ceiling on exit."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"budget {self.seconds}s exceeded: {elapsed:.1f}s")


def test_catenoid_matches_arcosh(area):
    with Budget(1.0):
        spec = CatenoidSpec(Sign.PLUS, 1.0, 0.0, 2, Anchor.NECK)
        for rho in np.geomspace(1.001, 10.0, 50):
            got = profile_value(area, spec, float(rho))
            assert got == pytest.approx(math.acosh(rho), abs=1e-8)


def test_parametrization_routes_agree(area):
    with Budget(5.0):
        densities = [area] + [mu_density(mu) for mu in (2.5, 3.0, 4.0)]
        spec = CatenoidSpec(Sign.PLUS, 1.0, 0.0, 2, Anchor.NECK)
        for d in densities:
            for rho in np.geomspace(1.05, 8.0, 20):
                direct = profile_value(d, spec, float(rho))
                substituted = profile_value_substituted(d, spec, float(rho))
                assert abs(direct - substituted) <= 1e-8


def test_growth_dichotomy_and_neck_limits(area):
    with Budget(5.0):
        finite = [area] + [mu_density(mu) for mu in (2.5, 3.0, 4.0)]
        infinite = [mu_density(mu) for mu in (1.5, 2.0)]
        for d in finite:
            assert classify_growth(d) is Growth.FINITE_INTEGRAL
        for d in infinite:
            assert classify_growth(d) is Growth.INFINITE_INTEGRAL

        spec = CatenoidSpec(Sign.PLUS, 1.0, 0.7, 2, Anchor.NECK)
        for d in finite:
            assert neck_limit(d, spec) == pytest.approx(0.7, abs=1e-12)
        for d in infinite:
            limit = neck_limit(d, spec)
            assert math.isinf(limit) and limit > 0.0


def test_flux_constancy_across_dimensions(area, mu3):
    with Budget(1.0):
        for d in (area, mu3):
            for n in (2, 3, 5):
                spec = CatenoidSpec(Sign.PLUS, 1.0, 0.0, n, Anchor.NECK)
                profile = sample_profile(d, spec, 1.05, 4.0, num=120)
                assert ode_residual(d, profile) <= 1e-9


def test_solver_exactness_and_convergence_order(area):
    with Budget(60.0):
        # exact reproduction of affine data
        mesh = build_polar_mesh(np.linspace(0.5, 1.0, 17), 32)
        q, c = (0.5, 0.3), 0.1
        want = mesh.nodes @ np.array(q) + c
        sol = solve_dirichlet(area, mesh, want)
        assert np.max(np.abs(sol.values - want)) <= 1e-9

        # second-order convergence toward a barrier profile
        spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
        report = run_catenoid_reproduction(area, spec, 3,
                                           r_in=1.5, r_out=3.0,
                                           n_r0=16, n_theta0=32)
        assert report.checks["all_converged"]
        assert min(report.orders) >= 1.8
        assert report.records[-1]["max_error"] <= 5e-4


def test_five_level_catenoid_study_from_column_solves(mu3):
    # 16x32 ... 256x512 (131,584 nodes): each level starts from its
    # one-column ring solve, which the 2D gradient test certifies as is
    with Budget(10.0):
        spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
        report = run_catenoid_reproduction(mu3, spec, 5,
                                           r_in=1.5, r_out=3.0,
                                           n_r0=16, n_theta0=32)
        assert report.all_checks_pass()
        assert all(r["converged"] for r in report.records)
        assert [r["iterations"] for r in report.records] == [0] * 5
        assert min(report.orders) >= 1.99
        assert report.records[-1]["max_error"] <= 5e-7


def test_comparison_principle_random_trials(area, mu3):
    with Budget(120.0):
        tol = 1e-8 + 10.0 * (0.5 / 16) ** 2
        for d in (area, mu3):
            report = run_comparison_suite(d, 20, 7, r_in=0.5, r_out=1.0,
                                          n_r=16, n_theta=48)
            assert len(report.records) == 20
            assert report.checks["complete"]
            assert report.checks["all_trials_hold"]
            assert report.checks["barrier_scenario_holds"]
            worst = max(r["max_violation"] for r in report.records)
            assert worst <= tol
            assert report.reference["holds"] is True


def envelope_closed_form(eps):
    # integral of (g')^{-1}(eps/t) = eps/sqrt(t^2 - eps^2) over [1/2, 1]
    return eps * math.log((1.0 + math.sqrt(1.0 - eps * eps))
                          / (0.5 + math.sqrt(0.25 - eps * eps)))


def test_removability_deviations_under_envelope():
    with Budget(120.0):
        report = run_removability(RemovabilityConfig(density={"kind": "area"}))
        assert report.checks["complete"]
        assert report.checks["deviations_monotone"]
        assert report.checks["envelope_all"]
        for record in report.records:
            oracle = envelope_closed_form(record["epsilon"])
            assert record["envelope_integral"] == pytest.approx(oracle, rel=1e-9)
            allowance = record["envelope_integral"] + 10.0 * record["h"] ** 2
            assert record["deviation_at_probe"] <= allowance
        assert report.records[-1]["epsilon"] == 0.025
        assert report.records[-1]["envelope_integral"] < 0.02


def test_removability_with_uniform_interior_bound(mu2):
    with Budget(120.0):
        assert invert_gprime(mu2, 0.5) == pytest.approx(1.0, abs=1e-12)
        report = run_removability(
            RemovabilityConfig(density={"kind": "mu", "mu": 2.0}))
        assert report.checks["complete"]
        assert report.checks["deviations_monotone"]
        assert report.checks["envelope_all"]
        assert report.checks["uniform_bound_all"]
        for record in report.records:
            assert record["uniform_bound_satisfied"]
