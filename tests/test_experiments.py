"""Experiment harness: sweeps, reports, determinism."""

import json
import math
import os
import threading
from collections import Counter

import numpy as np
import pytest

from lingrowth import density, experiments, solver
from lingrowth.catenoid import (Anchor, CatenoidSpec, Sign, envelope_bound,
                                profile_value)
from lingrowth.density import (TailEstimate, flux, make_area_density,
                               make_custom_density, make_mu_density,
                               normalize, tangent)
from lingrowth.experiments import (
    ExperimentReport,
    RemovabilityConfig,
    _barrier_seed,
    _dirichlet,
    _graded_radii,
    boundary_data,
    circle_data_values,
    fourier_values,
    read_report,
    run_catenoid_reproduction,
    run_comparison_suite,
    run_removability,
    write_report,
)
from lingrowth.mesh import NodeTag, build_polar_mesh, one_column, radial_values
from lingrowth.quadrature import QuadratureAccuracyError
from lingrowth.solver import solve_dirichlet

FAST = dict(epsilons=(0.3, 0.15), n_r=16, n_theta=24, inner_layers=4)


# -- config validation --------------------------------------------------------


def test_config_requires_decreasing_epsilons():
    with pytest.raises(ValueError):
        RemovabilityConfig(density={"kind": "area"}, epsilons=(0.1, 0.2))


def test_config_requires_epsilon_below_probe():
    with pytest.raises(ValueError):
        RemovabilityConfig(density={"kind": "area"}, epsilons=(0.6, 0.3),
                           probe_radius=0.5)


def test_config_requires_probe_inside_domain():
    with pytest.raises(ValueError):
        RemovabilityConfig(density={"kind": "area"}, probe_radius=1.5)


@pytest.mark.parametrize("key, value", [
    ("inner_layers", 4.5), ("inner_layers", True), ("n_r", 48.0),
    ("n_theta", True), ("n_theta", "64"), ("inner_layers", -1)])
def test_config_integer_fields_are_integers(key, value):
    # each must be a valid integer: 4.5 inner layers ran five graded
    # layers, true one, and -1 none
    with pytest.raises(ValueError, match=key):
        RemovabilityConfig(density={"kind": "area"}, **{key: value})


def test_config_keeps_numpy_integer_fields_as_ints():
    cfg = RemovabilityConfig(density={"kind": "area"}, n_r=np.int64(48),
                             inner_layers=np.int32(6))
    assert type(cfg.n_r) is int and type(cfg.inner_layers) is int
    default = RemovabilityConfig(density={"kind": "area"})
    assert json.dumps(cfg.to_dict()) == json.dumps(default.to_dict())


def test_config_round_trip():
    # the CLI echoes to_dict() as JSON and builds the config back from it
    cfg = RemovabilityConfig(density={"kind": "mu", "mu": 2.0}, **FAST)
    again = RemovabilityConfig(**json.loads(json.dumps(cfg.to_dict())))
    assert again.epsilons == cfg.epsilons
    assert json.dumps(again.to_dict()) == json.dumps(cfg.to_dict())


# -- outer data helpers ---------------------------------------------------------


def test_outer_data_affine(area):
    mesh = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    vals = circle_data_values(mesh, NodeTag.OUTER,
                              {"kind": "affine", "q": (1.0, 0.0), "c": 0.5},
                              area)
    want = 0.5 + mesh.nodes[mesh.outer_nodes(), 0]
    np.testing.assert_allclose(vals, want, atol=1e-15)


def test_outer_data_unknown_kind(area):
    mesh = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    with pytest.raises(ValueError):
        circle_data_values(mesh, NodeTag.OUTER, {"kind": "mystery"}, area)


_CIRCLE_DATA = {
    "affine": {"kind": "affine", "q": [0.5, -0.3], "c": 0.1},
    "constant": {"kind": "constant", "value": -3.5},
    "radial": {"kind": "radial", "spec": {"sign": "minus", "alpha": 0.25,
                                          "a": 0.0, "n": 2,
                                          "convention": "neck"}},
    "samples": {"kind": "samples", "values": [0.1 * k - 0.3 for k in range(8)]},
}


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("kind", sorted(_CIRCLE_DATA))
@pytest.mark.parametrize("circle", ["inner", "outer"])
def test_boundary_data_puts_each_circles_values_on_its_nodes(area, kind,
                                                             circle):
    annulus = build_polar_mesh(np.linspace(0.5, 1.0, 5), 8)
    section = {"inner": {"kind": "constant", "value": 0.2},
               "outer": {"kind": "constant", "value": 0.7},
               circle: _CIRCLE_DATA[kind]}
    want = _dirichlet(annulus, **{
        key: circle_data_values(annulus, NodeTag[key.upper()], cfg, area)
        for key, cfg in section.items()})
    # bit for bit, the NaN of every interior node included
    assert _bits(boundary_data(annulus, section, area)) == _bits(want)


@pytest.mark.parametrize("kind", sorted(_CIRCLE_DATA))
def test_boundary_data_of_a_disk_is_its_outer_values(area, kind):
    disk = build_polar_mesh(np.linspace(0.0, 1.0, 5), 8)
    cfg = _CIRCLE_DATA[kind]
    want = _dirichlet(disk, outer=circle_data_values(disk, NodeTag.OUTER,
                                                     cfg, area))
    assert _bits(boundary_data(disk, {"outer": cfg}, area)) == _bits(want)


@pytest.mark.parametrize("r_in, inner", [
    (0.0, {"kind": "banana"}), (0.0, {"kind": "constant", "value": 99}),
    (0.0, None), (0.5, "missing")],
    ids=["disk-banana", "disk-constant", "disk-null", "annulus-missing"])
def test_inner_data_on_a_disk_or_none_on_an_annulus_is_named(area, r_in,
                                                             inner):
    mesh = build_polar_mesh(np.linspace(r_in, 1.0, 5), 8)
    section = {"outer": _CIRCLE_DATA["affine"]}
    if inner != "missing":
        section["inner"] = inner
    with pytest.raises(ValueError, match=r"^boundary\.inner: "):
        boundary_data(mesh, section, area)


@pytest.mark.parametrize("value", [0.0, 0.2, -3.5])
def test_constant_data_are_the_value_bit_for_bit(area, value):
    # constant data take the affine formula with q = 0
    for r_in in (0.0, 0.5):
        mesh = build_polar_mesh(np.linspace(r_in, 1.0, 5), 8)
        for circle in (NodeTag.OUTER, NodeTag.INNER)[:2 - mesh.is_disk]:
            got = circle_data_values(mesh, circle,
                                     {"kind": "constant", "value": value}, area)
            assert _bits(got) == _bits(np.full(8, value))


def test_fourier_values_shape():
    angles = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
    coeffs = {"c0": 1.0, "a": [0.5, 0.0], "b": [0.0, -0.25]}
    got = fourier_values(angles, coeffs)
    want = 1.0 + 0.5 * np.cos(angles) - 0.25 * np.sin(2 * angles)
    np.testing.assert_allclose(got, want, atol=1e-15)


# -- removability -------------------------------------------------------------


def test_zero_spike_matches_reference(area):
    cfg = RemovabilityConfig(density={"kind": "area"}, spike=0.0, **FAST)
    rep = run_removability(cfg)
    for rec in rep.records:
        h = rec["h"]
        assert rec["deviation_at_probe"] <= 10.0 * h * h


def test_removability_area_defaults_fast():
    cfg = RemovabilityConfig(density={"kind": "area"}, **FAST)
    rep = run_removability(cfg)
    assert rep.kind == "removability"
    assert rep.checks["complete"]
    assert rep.checks["deviations_monotone"]
    assert rep.checks["envelope_all"]
    assert rep.checks["two_sided_all"]
    assert "uniform_bound_all" not in rep.checks  # finite-growth density
    assert rep.all_checks_pass()


def test_removability_mu2_has_uniform_bound():
    cfg = RemovabilityConfig(density={"kind": "mu", "mu": 2.0}, **FAST)
    rep = run_removability(cfg)
    assert rep.checks["uniform_bound_all"]
    assert rep.all_checks_pass()


def test_spike_size_does_not_matter_once_saturated():
    """Past saturation the barrier, not the spike, sets the deviation."""
    devs = {}
    for spike in (1.0, 5.0):
        cfg = RemovabilityConfig(density={"kind": "area"}, spike=spike, **FAST)
        rep = run_removability(cfg)
        devs[spike] = [r["deviation_at_probe"] for r in rep.records]
    d = make_area_density()
    for i, eps in enumerate(FAST["epsilons"]):
        env = envelope_bound(d, eps, 0.5, 1.0, 0.0, 2)
        h = 0.5 / FAST["n_r"] * (1.0 - eps) * 2  # bulk spacing, generous
        assert abs(devs[1.0][i] - devs[5.0][i]) <= 2 * env + 20 * h * h


def test_envelope_record_fields():
    cfg = RemovabilityConfig(density={"kind": "area"}, **FAST)
    rep = run_removability(cfg)
    rec = rep.records[0]
    for key in ("epsilon", "h", "envelope_integral", "envelope_value", "converged",
                "deviation_at_probe", "envelope_satisfied",
                "two_sided_bound_satisfied"):
        assert key in rec
    assert rec["envelope_value"] == pytest.approx(
        rep.metadata["max_outer"] + rec["envelope_integral"], abs=1e-12)


def test_removability_reports_observed_order():
    cfg = RemovabilityConfig(density={"kind": "area"}, **FAST)
    rep = run_removability(cfg)
    assert len(rep.orders) == 1
    assert 0.5 < rep.orders[0] < 1.5  # decay roughly linear in epsilon


# -- catenoid reproduction ------------------------------------------------------


def test_catenoid_reproduction_orders(area):
    spec = CatenoidSpec(Sign.PLUS, 1.0, 0.0, 2, Anchor.NECK)
    rep = run_catenoid_reproduction(area, spec, refinements=3,
                                    n_r0=8, n_theta0=16)
    assert rep.kind == "catenoid_reproduction"
    assert len(rep.records) == 3
    assert rep.checks["all_converged"]
    assert all(o >= 1.8 for o in rep.orders)


def test_catenoid_reproduction_mu3(mu3):
    spec = CatenoidSpec(Sign.MINUS, 1.0, 0.5, 2, Anchor.NECK)
    rep = run_catenoid_reproduction(mu3, spec, refinements=3,
                                    n_r0=8, n_theta0=16)
    assert all(o >= 1.8 for o in rep.orders)


def test_catenoid_reproduction_single_level(area):
    spec = CatenoidSpec(Sign.PLUS, 1.0, 0.0, 2, Anchor.NECK)
    rep = run_catenoid_reproduction(area, spec, refinements=1,
                                    n_r0=8, n_theta0=16)
    assert len(rep.records) == 1
    assert rep.orders == []


def test_catenoid_reproduction_neck_must_be_outside(area):
    spec = CatenoidSpec(Sign.PLUS, 4.0, 0.0, 2, Anchor.NECK)  # neck at 4
    with pytest.raises(ValueError):
        run_catenoid_reproduction(area, spec, refinements=1)


def test_refinement_catches_wrong_boundary_profile(monkeypatch, mu3):
    """The circles' data come from per-radius profile_value calls and the
    exact ring values from the cumulative pass, so a fault in the former
    shows up as error against the latter."""
    monkeypatch.setattr(experiments, "profile_value",
                        lambda *a: 1.001 * profile_value(*a))
    spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
    rep = run_catenoid_reproduction(mu3, spec, refinements=2, n_r0=8,
                                    n_theta0=16)
    assert (not rep.all_checks_pass()
            or rep.records[-1]["max_error"] > 5e-4)


# -- warm starts ----------------------------------------------------------------


def _record_solves(monkeypatch):
    """Capture every solve a study makes, itself or through
    ``solver._ring_started_solve``: its arguments and its solution."""
    calls = []

    def recording(d, mesh, data, *, x0=None):
        sol = solve_dirichlet(d, mesh, data, x0=x0)
        calls.append((d, mesh, data, x0, sol))
        return sol
    for module in (experiments, solver):
        monkeypatch.setattr(module, "solve_dirichlet", recording)
    return calls


def _assert_warm_matches_cold(calls, n_warm):
    assert sum(x0 is not None for *_, x0, _ in calls) == n_warm
    warm_iters = cold_iters = 0
    for d, mesh, data, x0, warm in calls:
        cold = solve_dirichlet(d, mesh, data)
        np.testing.assert_allclose(warm.values, cold.values, rtol=0,
                                   atol=1e-8)
        warm_iters += warm.iterations
        cold_iters += cold.iterations
    assert warm_iters <= cold_iters


@pytest.mark.parametrize("dcfg", [{"kind": "area"}, {"kind": "mu", "mu": 2.0}])
def test_removability_warm_starts_match_cold(monkeypatch, dcfg):
    calls = _record_solves(monkeypatch)
    cfg = RemovabilityConfig(density=dcfg, epsilons=(0.2, 0.1), n_r=12,
                             n_theta=16, inner_layers=2)
    assert run_removability(cfg).all_checks_pass()
    # reference disk started from the affine field, then per epsilon the
    # ring problem on one column and the annulus started from its solution
    assert len(calls) == 5
    assert [mesh.n_theta for _, mesh, *_ in calls] == [16, 1, 16, 1, 16]
    _assert_warm_matches_cold(calls, n_warm=5)


def _record_factors(monkeypatch):
    """The shape of every band the solver factors."""
    factored = []
    factor = solver._factor

    def recording(ab):
        factored.append(ab.shape)
        return factor(ab)
    monkeypatch.setattr(solver, "_factor", recording)
    return factored


def _annulus_solves(calls):
    return [(d, mesh, sol) for d, mesh, *_, sol in calls
            if mesh.n_theta > 1 and not mesh.is_disk]


@pytest.mark.parametrize("dcfg", [{"kind": "area"}, {"kind": "mu", "mu": 2.0},
                                  {"kind": "mu", "mu": 3.0}])
def test_removability_annuli_take_no_newton_step(monkeypatch, dcfg):
    # the default sweep: each annulus starts from the exact solution of its
    # ring-constant problem, corrected mode by mode in theta down to the
    # rounding of the field, which passes the gradient test as it is
    calls = _record_solves(monkeypatch)
    factored = _record_factors(monkeypatch)
    rep = run_removability(RemovabilityConfig(density=dcfg))
    assert rep.all_checks_pass()
    annuli = [sol for *_, sol in _annulus_solves(calls)]
    assert [sol.iterations for sol in annuli] == [0, 0, 0, 0]
    for sol in annuli:
        assert sol.grad_norm <= 1e-12 * (1.0 + abs(sol.energy))
    assert [r["iterations"] for r in rep.records] == [0, 0, 0, 0]
    assert all(r["corrections"] > 2 for r in rep.records)
    assert ([r["column_iterations"] for r in rep.records]
            == [sol.iterations for _, mesh, *_, sol in calls
                if mesh.n_theta == 1])
    # the reference disk starts from the affine field, which its gradient
    # test certifies: no 2D band (column and mode bands have depth 2)
    assert rep.reference["iterations"] == 0
    assert factored and all(depth == 2 for depth, _ in factored)


def _tangent_work_in_seeded_solves(monkeypatch):
    """Solutions of a study's seeded 2D solves, and the calls that build or
    read a tangent made inside them, by name."""
    counts, seeded, inside = Counter(), [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "tangent", counted("tangent", solver.tangent))
    monkeypatch.setattr(density.Density, "gsecond",
                        counted("gsecond", density.Density.gsecond))
    monkeypatch.setattr(solver, "_blocks", counted("_blocks", solver._blocks))

    def solve(d, mesh, data, *, x0=None):
        if mesh.n_theta == 1 or x0 is None:
            return solve_dirichlet(d, mesh, data, x0=x0)
        inside.append(mesh)
        try:
            sol = solve_dirichlet(d, mesh, data, x0=x0)
        finally:
            inside.pop()
        seeded.append(sol)
        return sol
    for module in (experiments, solver):
        monkeypatch.setattr(module, "solve_dirichlet", solve)
    return seeded, counts


@pytest.mark.parametrize("study", ["removability area", "removability mu2",
                                   "catenoid mu3"])
def test_certified_starts_build_no_tangent(monkeypatch, mu3, study):
    # every seeded 2D solve of these studies passes its gradient test at
    # the start, which reads the flux alone: no g'', no tangent, no blocks
    seeded, counts = _tangent_work_in_seeded_solves(monkeypatch)
    if study == "catenoid mu3":
        spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
        run_catenoid_reproduction(mu3, spec, refinements=2, n_r0=8,
                                  n_theta0=16)
        assert len(seeded) == 2
    else:
        dcfg = ({"kind": "area"} if study.endswith("area")
                else {"kind": "mu", "mu": 2.0})
        run_removability(RemovabilityConfig(density=dcfg))
        # the reference disk and the four annuli
        assert len(seeded) == 5
        assert [sol.mesh.is_disk for sol in seeded] == [True] + [False] * 4
    assert [sol.iterations for sol in seeded] == [0] * len(seeded)
    assert all(sol.converged for sol in seeded)
    assert counts == Counter()


@pytest.mark.parametrize("dcfg", [{"kind": "area"}, {"kind": "mu", "mu": 2.0}])
def test_removability_annuli_are_solved_to_rounding(monkeypatch, dcfg):
    # one more 2D Newton step, taken whatever the gradient, moves no node
    # of a default annulus solution by more than 1e-13
    calls = _record_solves(monkeypatch)
    run_removability(RemovabilityConfig(density=dcfg))
    for d, mesh, sol in _annulus_solves(calls):
        ii = mesh.interior_nodes()
        p = solver._triangle_gradients(mesh, sol.values)
        factor = solver._factor(solver._band(mesh, ii).matrix(
            solver._blocks(mesh, tangent(d, p))))
        step = solver._solve_factored(
            factor, solver._nodal_gradient(mesh, flux(d, p))[ii])
        assert np.max(np.abs(step)) <= 1e-13


@pytest.mark.parametrize("outer, corrected", [
    ({"kind": "affine", "q": (0.012, 0.009), "c": 0.0}, True),
    # a steep background: the second correction is about five times the
    # first, so the annulus starts from the uncorrected field
    ({"kind": "affine", "q": (1.0, 0.0), "c": 0.0}, False),
])
def test_removability_keeps_only_contracting_corrections(monkeypatch, outer,
                                                         corrected):
    calls = _record_solves(monkeypatch)
    cfg = RemovabilityConfig(density={"kind": "mu", "mu": 2.0},
                             epsilons=(0.2,), outer_data=outer)
    # the steep background's dipole exceeds the envelope; only convergence
    # is asked for here
    rep = run_removability(cfg)
    assert rep.checks["complete"]
    (_, disk, *_, reference), (_, column, *_, ring), \
        (_, annulus, _, x0, _) = calls
    ref_on_annulus = annulus.from_rings(
        radial_values(disk, reference.values, annulus.ring_radii))
    seed = ref_on_annulus + annulus.from_rings(column.rings(ring.values))
    assert np.array_equal(x0, seed) != corrected
    assert (rep.records[0]["corrections"] > 0) == corrected


@pytest.mark.parametrize("spike", [1.0, 0.0])
@pytest.mark.parametrize("dcfg", [{"kind": "area"}, {"kind": "mu", "mu": 2.0}])
def test_removability_without_background_takes_no_newton_step(dcfg, spike):
    # with q = 0 the start is the ring solution itself, up to the rounding
    # of the ring solve; without a spike every correction is exactly zero
    cfg = RemovabilityConfig(density=dcfg, spike=spike, outer_data={
        "kind": "affine", "q": (0.0, 0.0), "c": 0.0})
    rep = run_removability(cfg)
    assert rep.checks["complete"]
    assert [r["iterations"] for r in rep.records] == [0, 0, 0, 0]


@pytest.mark.parametrize("outer", [
    {"kind": "affine", "q": (0.012, 0.009), "c": 0.3},
    {"kind": "constant", "value": -0.2}])
def test_affine_reference_is_its_own_start(monkeypatch, outer):
    # the reference disk starts from q . x + c, computed node by node, and
    # its gradient test certifies it as it is
    calls = _record_solves(monkeypatch)
    rep = run_removability(RemovabilityConfig(density={"kind": "area"},
                                              outer_data=outer, **FAST))
    assert rep.all_checks_pass()
    (_, disk, _, x0, reference), *_ = calls
    q = outer.get("q", (0.0, 0.0))
    c = outer.get("c", outer.get("value"))
    nodes = disk.nodes
    assert np.array_equal(x0, nodes[:, 0] * q[0] + nodes[:, 1] * q[1] + c)
    ii = disk.interior_nodes()
    assert np.array_equal(reference.values[ii], x0[ii])
    assert rep.reference["iterations"] == 0 and rep.reference["converged"]


def test_affine_data_and_reference_share_one_formula(monkeypatch):
    # on the default 48 x 64 disk the boundary data and the reference start
    # are both x * q0 + y * q1 + c, so the certified reference is that
    # field at every node, its boundary included
    calls = _record_solves(monkeypatch)
    cfg = RemovabilityConfig(density={"kind": "area"})
    rep = run_removability(cfg)
    (_, disk, _, _, reference), *_ = calls
    q, c = cfg.outer_data["q"], cfg.outer_data["c"]
    nodes = disk.nodes
    want = nodes[:, 0] * q[0] + nodes[:, 1] * q[1] + c
    outer = disk.outer_nodes()
    got = circle_data_values(disk, NodeTag.OUTER, cfg.outer_data,
                             normalize(make_area_density()))
    assert (cfg.n_r, cfg.n_theta) == (48, 64) and len(outer) == 64
    assert np.array_equal(got, want[outer])
    assert np.array_equal(reference.values, want)
    assert rep.reference["iterations"] == 0


def test_sampled_reference_starts_from_the_harmonic_extension(monkeypatch):
    # samples data are not affine: the reference disk starts cold, as before
    calls = _record_solves(monkeypatch)
    n_theta = FAST["n_theta"]
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    outer = {"kind": "samples", "values": list(0.01 * np.cos(2.0 * angles))}
    rep = run_removability(RemovabilityConfig(density={"kind": "area"},
                                              outer_data=outer, **FAST))
    assert rep.checks["complete"]
    (_, disk, _, x0, reference), *_ = calls
    assert disk.is_disk and x0 is None
    assert reference.converged and reference.iterations > 0


@pytest.mark.parametrize("q", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("dcfg", [{"kind": "area"}, {"kind": "mu", "mu": 2.0}])
def test_corrected_starts_take_no_more_steps_than_uncorrected(monkeypatch,
                                                              dcfg, q):
    # steep backgrounds, where the Hessian at the ring solution models the
    # start less well: no annulus may take more 2D Newton steps from its
    # corrected start than from the uncorrected one
    calls = _record_solves(monkeypatch)
    cfg = RemovabilityConfig(density=dcfg, n_r=24, n_theta=32, outer_data={
        "kind": "affine", "q": (q, 0.0), "c": 0.0})
    assert run_removability(cfg).checks["complete"]
    (_, disk, *_, reference), *solves = calls
    for (_, column, *_, ring), (d, annulus, data, _, sol) in zip(
            solves[::2], solves[1::2]):
        ref_on_annulus = annulus.from_rings(
            radial_values(disk, reference.values, annulus.ring_radii))
        seed = ref_on_annulus + annulus.from_rings(column.rings(ring.values))
        uncorrected = solve_dirichlet(d, annulus, data, x0=seed)
        assert sol.iterations <= uncorrected.iterations


def test_catenoid_reproduction_warm_starts_match_cold(monkeypatch, mu3):
    # per level the ring problem on one column, cold, then the 2D solve
    # started from its solution, which already passes the gradient test
    calls = _record_solves(monkeypatch)
    spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
    rep = run_catenoid_reproduction(mu3, spec, refinements=2, n_r0=8,
                                    n_theta0=16)
    assert rep.all_checks_pass()
    assert [mesh.n_theta for _, mesh, *_ in calls] == [1, 16, 1, 32]
    _assert_warm_matches_cold(calls, n_warm=2)
    assert [r["iterations"] for r in rep.records] == [0, 0]
    assert ([r["column_iterations"] for r in rep.records]
            == [sol.iterations for _, mesh, *_, sol in calls
                if mesh.n_theta == 1])


def test_catenoid_reproduction_factors_column_bands_only(monkeypatch, mu3):
    factored = _record_factors(monkeypatch)
    spec = CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)
    rep = run_catenoid_reproduction(mu3, spec, refinements=3, n_r0=8,
                                    n_theta0=16)
    assert rep.all_checks_pass()
    # a column band couples ring k to ring k + 1 only, and has one unknown
    # per interior ring: 7, 15 and 31 on the three levels
    assert factored and all(depth == 2 for depth, _ in factored)
    assert sorted({n for _, n in factored}) == [7, 15, 31]


def test_barrier_seed_matches_per_ring_envelopes(mu2):
    annulus = build_polar_mesh(_graded_radii(0.1, 1.0, 12, 3), 8)
    seed = _barrier_seed(mu2, annulus.ring_radii, 0.1, 1.0, -0.2)
    want = [-0.2] + [-min(0.2, envelope_bound(mu2, 0.1, r, 1.0, 0.0, 2))
                     for r in annulus.ring_radii[1:-1]] + [0.0]
    np.testing.assert_allclose(seed, want, rtol=0, atol=1e-9)
    # the spike caps the rings next to the inner circle, not the far ones
    assert seed[1] == -0.2 and -0.2 < seed[-2] < 0.0


def test_uncertified_barrier_seed_starts_the_ring_solve_cold(monkeypatch):
    # mu = 1.2: the envelope quadrature raises at every default epsilon, so
    # each ring solve starts from the harmonic extension of the same data
    cfg = RemovabilityConfig(density={"kind": "mu", "mu": 1.2})
    d = normalize(make_mu_density(1.2))
    calls = _record_solves(monkeypatch)
    rep = run_removability(cfg)
    assert rep.all_checks_pass()
    rings = [(mesh, data, x0) for _, mesh, data, x0, _ in calls
             if mesh.n_theta == 1]
    assert len(rings) == len(cfg.epsilons)
    for eps, (column, data, x0) in zip(cfg.epsilons, rings):
        with pytest.raises(QuadratureAccuracyError):
            _barrier_seed(d, column.ring_radii, eps, cfg.outer_radius,
                          cfg.spike)
        assert x0 is None
        assert list(column.rings(data)[[0, -1], 0]) == [cfg.spike, 0.0]
    assert [r["iterations"] for r in rep.records] == [0, 0, 0, 0]
    assert rep.reference["iterations"] == 0


@pytest.mark.parametrize("spike", [10.0, 100.0, -1000.0])
@pytest.mark.parametrize("density", ["area", "mu2"])
def test_barrier_seed_keeps_large_spike_ring_solves_short(density, spike,
                                                          request):
    """From the capped envelope the ring problem of a large spike takes at
    most 4 Newton steps at every default epsilon; from the harmonic
    extension it took 14 to 119, so cold column solves are no substitute
    for the seed."""
    d = request.getfixturevalue(density)
    cfg = RemovabilityConfig(density={"kind": "area"})  # default sweep
    for eps in cfg.epsilons:
        column = one_column(build_polar_mesh(
            _graded_radii(eps, cfg.outer_radius, cfg.n_r, cfg.inner_layers),
            cfg.n_theta))
        start = _barrier_seed(d, column.ring_radii, eps, cfg.outer_radius,
                              spike)
        ring = solve_dirichlet(d, column, start, x0=start)
        assert ring.converged and ring.iterations <= 4, (eps, ring.iterations)


# -- comparison suite -----------------------------------------------------------


@pytest.mark.parametrize("keys, key", [
    ({"trials": 0}, "'trials'"), ({"trials": 2.0}, "'trials'"),
    ({"fourier_degree": -1}, "'fourier_degree'"),
    ({"n_r": 2}, "'n_r'"), ({"n_theta": 0}, "'n_theta'"),
    ({"r_in": 1.0}, "'r_out'"),
    # a disk has no inner circle: numpy failed on an empty maximum
    ({"r_in": 0}, "'r_in'"), ({"r_in": 0.0}, "'r_in'")])
def test_comparison_rejects_a_bad_key_before_any_trial(area, keys, key):
    # trials <= 0 ran no trial and passed every check
    keys = {"trials": 1, **keys}
    with pytest.raises(ValueError, match=f"^comparison config key {key}: "):
        run_comparison_suite(area, seed=0, **keys)


def test_comparison_degree_zero_draws_constant_data(area):
    rep = run_comparison_suite(area, trials=1, seed=0, fourier_degree=0,
                               n_r=4, n_theta=8)
    assert rep.checks["complete"] and rep.checks["all_trials_hold"]


def test_comparison_single_identical_trial(area):
    rep = run_comparison_suite(area, trials=1, seed=0)
    assert rep.checks["complete"]
    assert rep.checks["all_trials_hold"]


def test_comparison_suite_seeded(area):
    rep = run_comparison_suite(area, trials=5, seed=11)
    assert rep.checks["all_trials_hold"]
    assert rep.checks["barrier_scenario_holds"]
    assert len(rep.records) == 5


def test_comparison_suite_is_deterministic(mu3):
    a = run_comparison_suite(mu3, trials=3, seed=4)
    b = run_comparison_suite(mu3, trials=3, seed=4)
    assert a.to_dict() == b.to_dict()


def test_comparison_suite_seed_changes_data(area):
    a = run_comparison_suite(area, trials=3, seed=1)
    b = run_comparison_suite(area, trials=3, seed=2)
    assert a.to_dict() != b.to_dict()


def test_barrier_scenario_fields(area):
    rep = run_comparison_suite(area, trials=1, seed=0)
    sc = rep.reference
    assert sc["holds"] and sc["converged"]
    assert sc["max_violation"] <= 1e-8 + 10.0 * (0.5 / 16) ** 2
    # inner data sits strictly below the barrier's neck value
    assert sc["inner_value"] < sc["offset"]
    assert sc["margin"] > 0.0
    # the barrier's climb and its ring values share one cumulative pass, so
    # it meets the outer data exactly, and the area solve stays below it
    assert sc["max_violation"] == 0.0


def test_barrier_scenario_runs_for_classified_custom_density(mu3):
    """mu=3 written out by hand declares no growth class; its tail bound of
    exponent 3 proves the class finite, so it gets the barrier scenario
    just like the built-in."""
    custom = make_custom_density(
        lambda t: t + 1.0 / (1.0 + t) - 1.0,
        lambda t: 1.0 - (1.0 + t) ** -2.0,
        lambda t: 2.0 * (1.0 + t) ** -3.0,
        gprime_inf=1.0, tail=TailEstimate(exponent=3.0, coeff=2.0))
    rep = run_comparison_suite(custom, 1, 0, n_r=8, n_theta=16)
    assert rep.checks["barrier_scenario_holds"] is True
    builtin = run_comparison_suite(mu3, 1, 0, n_r=8, n_theta=16)
    assert rep.reference["offset"] == pytest.approx(
        builtin.reference["offset"], rel=1e-9)


def test_no_barrier_scenario_for_divergent_neck(mu2):
    rep = run_comparison_suite(mu2, trials=1, seed=0)
    assert rep.reference is None
    assert "barrier_scenario_holds" not in rep.checks


# -- report serialization --------------------------------------------------------


def test_report_round_trip(tmp_path):
    cfg = RemovabilityConfig(density={"kind": "area"}, **FAST)
    rep = run_removability(cfg)
    path = write_report(rep, tmp_path / "report.json")
    again = read_report(path)
    assert again == rep


def test_report_csv_companion(tmp_path):
    cfg = RemovabilityConfig(density={"kind": "area"}, **FAST)
    rep = run_removability(cfg)
    write_report(rep, tmp_path / "report.json")
    csv = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert len(csv) == 1 + len(rep.records)
    assert csv[0].startswith("epsilon,")


def test_empty_records_valid(tmp_path):
    rep = ExperimentReport(kind="removability", records=[], reference={},
                           orders=[], checks={"complete": False}, metadata={})
    path = write_report(rep, tmp_path / "empty.json")
    again = read_report(path)
    assert again.records == []
    assert (tmp_path / "empty.csv").read_text() == ""


def test_reports_byte_identical_across_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = RemovabilityConfig(density={"kind": "area"}, **FAST)
    blobs = []
    for tag in ("one", "two"):
        rep = run_removability(cfg)
        p = write_report(rep, tmp_path / f"{tag}.json")
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]


def test_removability_solves_on_the_calling_thread(monkeypatch):
    # LINGROWTH_THREADS once sized a solve pool; the sweep now ignores it
    monkeypatch.setenv("LINGROWTH_THREADS", "4")
    threads = []

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return solve_dirichlet(*args, **kwargs)

    for module in (experiments, solver):
        monkeypatch.setattr(module, "solve_dirichlet", spy)
    cfg = RemovabilityConfig(density={"kind": "area"},
                             **{**FAST, "epsilons": (0.3, 0.2, 0.15, 0.1)})
    assert run_removability(cfg).all_checks_pass()
    # the reference disk, then a ring solve and an annulus solve per epsilon
    assert threads == [threading.get_ident()] * 9
