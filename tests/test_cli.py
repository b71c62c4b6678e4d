"""End-to-end checks of the command-line interface.

Each test drives ``main(argv)`` in-process and inspects exit codes plus
the artifacts written to --out.
"""

import json
import math

import numpy as np
import pytest

from lingrowth import catenoid, cli, ioutil
from lingrowth.catenoid import CatenoidSpec
from lingrowth.cli import (EXIT_CONFIG, EXIT_HYPOTHESIS,
                           EXIT_NONCONVERGENCE, EXIT_OK, main)
from lingrowth.experiments import ExperimentReport


def run(tmp_path, *argv, config=None, name="run"):
    out = tmp_path / name
    args = ["--out", str(out)]
    if config is not None:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    code = main(args + list(argv))
    return code, out


# -- density ------------------------------------------------------------------


def test_density_mu3_has_finite_integral_growth(tmp_path):
    code, out = run(tmp_path, "density", "--kind", "mu", "--mu", "3")
    assert code == EXIT_OK
    report = json.loads((out / "density_report.json").read_text())
    assert report["growth"] == "finite"
    assert report["hypotheses_ok"] is True


def test_density_mu2_has_infinite_growth(tmp_path):
    code, out = run(tmp_path, "density", "--kind", "mu", "--mu", "2")
    assert code == EXIT_OK
    report = json.loads((out / "density_report.json").read_text())
    assert report["growth"] == "infinite"


def test_density_rejects_mu_at_most_one(tmp_path):
    code, _ = run(tmp_path, "density", "--kind", "mu", "--mu", "0.5")
    assert code == EXIT_CONFIG


def test_density_requires_a_spec(tmp_path, capsys):
    # --mu alone overrides no section
    for name, argv in [("bare", []), ("mu", ["--mu", "3"])]:
        code, out = run(tmp_path, "density", *argv, name=name)
        assert code == EXIT_CONFIG
        assert "no density specified" in capsys.readouterr().err
        assert not out.exists()


def test_quiet_suppresses_chatter(tmp_path, capsys):
    code, _ = run(tmp_path, "--quiet", "density", "--kind", "area")
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


# -- catenoid -----------------------------------------------------------------


def test_catenoid_profile_csv_and_route_disagreement(tmp_path):
    code, out = run(tmp_path, "catenoid", "--kind", "area", "--alpha", "1",
                    "--n", "2", "--rho-min", "1.01", "--rho-max", "5",
                    "--samples", "100")
    assert code == EXIT_OK
    lines = (out / "profile.csv").read_text().strip().splitlines()
    assert lines[0] == "rho,value,slope"
    assert len(lines) == 101
    meta = json.loads((out / "profile_meta.json").read_text())
    assert meta["rows"] == 100
    # three certified quadratures of QUAD_ABS_TOL each: the first value,
    # the cumulative gaps and the slope route
    assert meta["route_disagreement"] <= 3e-9
    assert "ode_residual" not in meta
    assert meta["neck_radius"] == pytest.approx(1.0)
    # spot-check the first row against arcosh
    rho, value, _ = (float(x) for x in lines[1].split(","))
    assert value == pytest.approx(math.acosh(rho), abs=1e-10)


def test_catenoid_route_disagreement_sees_wrong_values(tmp_path, capsys,
                                                      monkeypatch):
    # values 0.1% off along the radial route; the flux identity of the
    # slopes, which the command reported before, still read 2.2e-16
    radial = catenoid._radial_integrals
    monkeypatch.setattr(catenoid, "_radial_integrals",
                        lambda *args: 1.001 * radial(*args))
    code, out = run(tmp_path, "catenoid", "--kind", "area", "--alpha", "1",
                    "--n", "2", "--rho-min", "1.01", "--rho-max", "5",
                    "--samples", "100")
    assert code == EXIT_OK
    meta = json.loads((out / "profile_meta.json").read_text())
    assert meta["route_disagreement"] > 1e-4
    assert "slope route" in capsys.readouterr().out


def test_catenoid_range_below_neck_is_hypothesis_violation(tmp_path, capsys):
    code, out = run(tmp_path, "catenoid", "--kind", "area", "--alpha", "1",
                    "--rho-min", "0.5", "--rho-max", "5")
    assert code == EXIT_HYPOTHESIS
    assert "neck" in capsys.readouterr().out
    # nothing was sampled, so no config is echoed either
    assert not out.exists()


def test_catenoid_reports_unbounded_neck_limit(tmp_path, capsys):
    code, _ = run(tmp_path, "catenoid", "--kind", "mu", "--mu", "2",
                  "--sign", "minus", "--convention", "unit",
                  "--alpha", "0.25", "--rho-min", "0.3", "--rho-max", "1.0",
                  "--samples", "40")
    assert code == EXIT_OK
    assert "without bound" in capsys.readouterr().out


# -- solve --------------------------------------------------------------------


def solve_config(**overrides):
    cfg = {
        "density": {"kind": "area"},
        "mesh": {"r_in": 0.5, "r_out": 1.0, "n_r": 8, "n_theta": 24},
        "boundary": {
            "outer": {"kind": "affine", "q": [0.5, 0.3], "c": 0.1},
            "inner": {"kind": "affine", "q": [0.5, 0.3], "c": 0.1},
        },
    }
    cfg.update(overrides)
    return cfg


def test_solve_reproduces_affine_data(tmp_path):
    code, out = run(tmp_path, "solve", config=solve_config())
    assert code == EXIT_OK
    rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    want = 0.5 * rows[:, 1] + 0.3 * rows[:, 2] + 0.1
    assert np.max(np.abs(rows[:, 3] - want)) <= 1e-9
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True


def test_solve_on_annulus_requires_inner_data(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", "--kind", "area")
    assert code == EXIT_CONFIG
    cfg = solve_config()
    del cfg["boundary"]["inner"]
    code, out = run(tmp_path, "solve", config=cfg, name="outer-only")
    assert code == EXIT_CONFIG
    assert "boundary.inner" in capsys.readouterr().err
    assert not (out / "solution.csv").exists()


def test_solve_nonconvergence_exit_code(tmp_path):
    angles = 2.0 * np.pi * np.arange(24) / 24
    cfg = solve_config(solver={"max_iter": 1})
    cfg["boundary"] = {
        "outer": {"kind": "samples", "values": np.cos(4.0 * angles).tolist()},
        "inner": {"kind": "constant", "value": 0.0},
    }
    code, out = run(tmp_path, "solve", config=cfg)
    assert code == EXIT_NONCONVERGENCE
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is False
    assert diag["iterations"] == 1


def test_solve_with_no_step_allowed_tests_the_start(tmp_path):
    # affine data on a disk is solved by the harmonic extension itself
    cfg = {"density": {"kind": "mu", "mu": 3}, "mesh": {"r_in": 0.0},
           "boundary": {"outer": {"kind": "affine", "q": [0.5, 0.3],
                                  "c": 0.1}},
           "solver": {"max_iter": 0}}
    code, out = run(tmp_path, "solve", config=cfg)
    assert code == EXIT_OK
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["converged"] is True
    assert diag["iterations"] == 0


# -- experiment ---------------------------------------------------------------

FAST_SWEEP = {"kind": "removability", "epsilons": [0.3, 0.15],
              "n_r": 16, "n_theta": 24, "inner_layers": 4}


def test_experiment_removability_passes(tmp_path, capsys):
    cfg = {"density": {"kind": "area"}, "experiment": FAST_SWEEP}
    code, out = run(tmp_path, "experiment", config=cfg)
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "removability"
    assert all(report["checks"].values())
    assert "[PASS]" in capsys.readouterr().out


def test_experiment_removability_mu_1_2_passes(tmp_path):
    # the barrier seed's envelope cannot be certified on the first graded
    # rings of this valid density; the study must not end on that
    code, out = run(tmp_path, "experiment", "--kind", "mu", "--mu", "1.2",
                    "--experiment-kind", "removability")
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] and all(report["checks"].values())


def test_experiment_epsilon_probe_conflict_is_config_error(tmp_path):
    cfg = {"density": {"kind": "area"},
           "experiment": {**FAST_SWEEP, "epsilons": [0.6, 0.3]}}
    code, _ = run(tmp_path, "experiment", config=cfg)
    assert code == EXIT_CONFIG


def test_experiment_unknown_kind_is_config_error(tmp_path):
    cfg = {"density": {"kind": "area"}, "experiment": {"kind": "banana"}}
    code, _ = run(tmp_path, "experiment", config=cfg)
    assert code == EXIT_CONFIG


def test_experiment_comparison_runs(tmp_path):
    cfg = {"density": {"kind": "area"},
           "experiment": {"kind": "comparison", "trials": 2,
                          "n_r": 8, "n_theta": 24}}
    code, out = run(tmp_path, "--seed", "3", "experiment", config=cfg)
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["all_trials_hold"] is True
    assert len(report["records"]) == 2


def test_experiment_kind_flag_wins_over_config(tmp_path):
    cfg = {"density": {"kind": "area"},
           "experiment": {**FAST_SWEEP, "kind": "banana"}}
    code, out = run(tmp_path, "experiment",
                    "--experiment-kind", "removability", config=cfg)
    assert code == EXIT_OK
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["experiment"]["kind"] == "removability"


_NECK_SPEC = {"sign": "minus", "alpha": 0.25, "a": 0.0, "n": 2,
              "convention": "neck"}


@pytest.mark.parametrize("argv, config, key", [
    *[(("experiment", "--kind", "mu", "--mu", mu, "--experiment-kind",
        "catenoid"), None, "catenoid config key 'spec': ")
      for mu in ("2", "1.5", "1.2")],
    (("solve",), solve_config(density={"kind": "mu", "mu": 2.0}, boundary={
        "outer": {"kind": "affine", "q": [0.5, 0.3], "c": 0.0},
        "inner": {"kind": "radial", "spec": _NECK_SPEC}}),
     "inner data key 'spec': "),
    # wrote 100 rows of inf and exited 0
    (("catenoid", "--kind", "mu", "--mu", "2"), None,
     "catenoid config key 'convention': "),
], ids=["catenoid-mu2", "catenoid-mu1.5", "catenoid-mu1.2", "solve-mu2",
        "catenoid-command-mu2"])
def test_neck_anchored_data_of_a_divergent_density_is_config_error(
        tmp_path, capsys, argv, config, key):
    # the profile is +-inf at every radius; it once reached the solver and
    # failed as "boundary data contains non-finite values", naming no key
    code, out = run(tmp_path, *argv, config=config)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert key in err and '"convention": "unit"' in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_solve_echoes_the_boundary_data_it_solved_on(tmp_path, monkeypatch):
    # the default outer data was solved on while "boundary": {} was echoed
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    config = {"density": {"kind": "area"},
              "mesh": {"r_in": 0.0, "n_r": 4, "n_theta": 8}}
    code, first = run(tmp_path, "solve", config=config, name="first")
    assert code == EXIT_OK
    echoed = json.loads((first / "config.json").read_text())
    assert echoed["boundary"] == {
        "outer": {"kind": "affine", "q": [0.5, 0.3], "c": 0.0}}
    second = tmp_path / "second"
    assert main(["--config", str(first / "config.json"), "--out", str(second),
                 "solve"]) == EXIT_OK
    for name in ("solution.csv", "diagnostics.json", "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_unit_anchored_data_of_a_divergent_density_solves(tmp_path):
    spec = {**_NECK_SPEC, "convention": "unit"}
    config = solve_config(density={"kind": "mu", "mu": 2.0}, boundary={
        "outer": {"kind": "radial", "spec": spec},
        "inner": {"kind": "radial", "spec": spec}})
    code, out = run(tmp_path, "solve", config=config)
    assert code == EXIT_OK
    assert (out / "solution.csv").exists()


# -- config plumbing ----------------------------------------------------------


def test_density_flags_win_over_config_file(tmp_path):
    cfg = {"density": {"kind": "mu", "mu": 3.0}}
    code, out = run(tmp_path, "density", "--kind", "area", config=cfg)
    assert code == EXIT_OK
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["density"] == {"kind": "area"}
    assert echoed["command"] == "density"
    assert echoed["seed"] == 0


def test_mu_flag_overrides_the_config_mu(tmp_path, capsys):
    # ran mu=2 and echoed "mu": 2.0 without --kind
    cfg = {"density": {"kind": "mu", "mu": 2.0}}
    code, out = run(tmp_path, "density", "--mu", "3", config=cfg)
    assert code == EXIT_OK
    assert "mu(3)" in capsys.readouterr().out
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["density"] == {"kind": "mu", "mu": 3.0}
    report = json.loads((out / "density_report.json").read_text())
    assert report["growth"] == "finite"


def test_unreadable_config_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 "density", "--kind", "area"])
    assert code == EXIT_CONFIG


def test_config_must_be_an_object(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                 "density", "--kind", "area"])
    assert code == EXIT_CONFIG


def test_missing_subcommand_is_config_error(capsys):
    assert main([]) == EXIT_CONFIG
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "density" in capsys.readouterr().out


# -- config tables ------------------------------------------------------------

CATENOID_FLAGS = {"sign": "plus", "alpha": 0.25, "a": 0.5, "n": 2,
                  "convention": "neck", "rho_min": 0.5, "rho_max": 1.5,
                  "samples": 9}
MESH_FLAGS = {"r_in": 0.3, "r_out": 1.1, "n_r": 4, "n_theta": 8}


def as_flags(values):
    return [item for key, value in values.items()
            for item in (f"--{key.replace('_', '-')}", str(value))]


@pytest.mark.parametrize("command, section, defaults, given, flags", [
    ("catenoid", "catenoid",
     {"sign": "plus", "alpha": 1.0, "a": 0.0, "n": 2, "convention": "neck",
      "rho_min": 1.01, "rho_max": 5.0, "samples": 100},
     {"sign": "minus", "alpha": 0.5, "a": 1.0, "n": 3, "convention": "unit",
      "rho_min": 1.0, "rho_max": 2.0, "samples": 20},
     CATENOID_FLAGS),
    ("solve", "mesh",
     {"r_in": 0.5, "r_out": 1.0, "n_r": 16, "n_theta": 32},
     {"r_in": 0.4, "r_out": 1.2, "n_r": 6, "n_theta": 12},
     MESH_FLAGS),
], ids=["catenoid", "mesh"])
def test_flag_wins_over_config_over_default(tmp_path, command, section,
                                            defaults, given, flags):
    base = solve_config() if command == "solve" else {
        "density": {"kind": "area"}}
    base.pop(section, None)
    for name, config, argv, want in [
            ("default", base, [], defaults),
            ("config", {**base, section: given}, [], given),
            ("flag", {**base, section: given}, as_flags(flags), flags)]:
        code, out = run(tmp_path, command, *argv, config=config, name=name)
        assert code == EXIT_OK
        echoed = json.loads((out / "config.json").read_text())[section]
        assert echoed == want, name


class FakeStudy:
    """Stands in for a study function; records the arguments it gets."""

    def __init__(self):
        self.args = self.kwargs = None

    def __call__(self, *args, **kwargs):
        self.args, self.kwargs = args, kwargs
        return ExperimentReport(kind="fake", records=[], reference=None,
                                orders=[], checks={}, metadata={})


SPEC = {"sign": "minus", "alpha": 1.0, "a": 0.5, "n": 2,
        "convention": "neck"}


@pytest.mark.parametrize("kind, study, defaults, given", [
    ("catenoid", "run_catenoid_reproduction",
     {"spec": {"sign": "minus", "alpha": 0.25, "a": 0.0, "n": 2,
               "convention": "neck"}, "refinements": 3},
     {"spec": SPEC, "refinements": 2, "r_in": 2.0, "r_out": 3.5,
      "n_r0": 8, "n_theta0": 16}),
    ("comparison", "run_comparison_suite",
     {"trials": 20},
     {"trials": 3, "r_in": 0.4, "r_out": 1.5, "n_r": 8, "n_theta": 24,
      "fourier_degree": 3}),
], ids=["catenoid", "comparison"])
def test_experiment_config_wins_over_default(tmp_path, monkeypatch, kind,
                                             study, defaults, given):
    for name, section, want in [("default", {}, defaults),
                                ("config", given, given)]:
        fake = FakeStudy()
        monkeypatch.setattr(cli, study, fake)
        code, out = run(tmp_path, "experiment", name=name, config={
            "density": {"kind": "area"},
            "experiment": {"kind": kind, **section}})
        assert code == EXIT_OK
        echoed = json.loads((out / "config.json").read_text())["experiment"]
        assert echoed == {"kind": kind, **want}, name
        # keys the config leaves out fall to the study's own defaults;
        # every merged key is passed by keyword
        passed = dict(want)
        if kind == "catenoid":
            passed["spec"] = CatenoidSpec.from_config(want["spec"])
        else:
            passed["seed"] = 0
        assert fake.kwargs == passed
        assert fake.args[1:] == ()


@pytest.mark.parametrize("command, config, key", [
    ("catenoid", {"density": {"kind": "area"}, "catenoid": {"alpah": 0.5}},
     "alpah"),
    ("solve", solve_config(mesh={"n_r": 8, "n_theat": 24}), "n_theat"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trails": 2}}, "trails"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinement": 1}}, "refinement"),
    ("solve", {**solve_config(), "meshh": {"n_r": 4}}, "meshh"),
    ("density", {"density": {"kind": "mu", "mu": 3, "muu": 9}}, "muu"),
    ("density", {"density": {"kind": "area"}, "samples_max": 5},
     "samples_max"),
    ("solve", solve_config(boundary={
        "outter": {"kind": "affine", "q": [1, 0], "c": 5},
        "inner": {"kind": "constant", "value": 0.0}}), "outter"),
    ("solve", solve_config(boundary={
        "outer": {"kind": "constant", "valeu": 1.0},
        "inner": {"kind": "constant", "value": 0.0}}), "valeu"),
    ("solve", solve_config(solver={"armijo_c": 0.1}), "armijo_c"),
    ("solve", solve_config(solver={"energy_stall_rtol": 1e-14}),
     "energy_stall_rtol"),
    ("solve", solve_config(solver={"grad_tol": 1e-12}), "grad_tol"),
    ("solve", solve_config(solver={"typo": 1}), "typo"),
    ("solve", solve_config(solver={"armijo_factor": 0.5}), "armijo_factor"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "spec": {**SPEC, "alhpa": 2.0}}}, "alhpa"),
    # every removability config.json echoed before the study lost its
    # solver option carries this key
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        **FAST_SWEEP, "solver": {}}}, "solver"),
], ids=["catenoid", "mesh", "comparison", "catenoid-study", "section",
        "density", "samples_max", "boundary", "circle", "solver",
        "solver-stall", "solver-grad-tol", "solver-typo",
        "solver-armijo-factor", "catenoid-spec", "removability-solver"])
def test_misspelled_config_key_is_config_error(tmp_path, capsys, command,
                                               config, key):
    code, _ = run(tmp_path, command, config=config)
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command, config, section", [
    ("experiment", {"density": {"kind": "area"}, "experiment": FAST_SWEEP,
                    "solver": {"max_iter": 1}}, "solver"),
    ("density", {"density": {"kind": "area"}, "mesh": {"n_r": 4}}, "mesh"),
    ("catenoid", {"density": {"kind": "area"}, "experiment": {}},
     "experiment"),
    ("solve", {**solve_config(), "catenoid": {"alpha": 1.0}}, "catenoid"),
], ids=["experiment", "density", "catenoid", "solve"])
def test_section_the_command_does_not_read_is_config_error(
        tmp_path, capsys, command, config, section):
    code, out = run(tmp_path, command, config=config)
    assert code == EXIT_CONFIG
    assert section in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, word", [
    ("experiment", {"density": {"kind": "area"}, "experiment": [1]},
     "experiment"),
    ("solve", solve_config(solver=5), "solver"),
    ("catenoid", {"density": {"kind": "area"}, "catenoid": []}, "catenoid"),
    ("density", {"density": {"kind": "area"}, "seed": "1"}, "seed"),
    ("density", {"density": {"kind": "area"}, "seed": 1.5}, "seed"),
    ("catenoid", {"density": {"kind": "area"}, "catenoid": {"n": 2.7}},
     "'n': 2.7"),
    ("catenoid", {"density": {"kind": "area"}, "catenoid": {"samples": 2.7}},
     "samples"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": True, "n_r": 8, "n_theta": 24}},
     "trials"),
    ("solve", solve_config(solver={"max_iter": True}), "max_iter"),
    ("solve", solve_config(solver={"max_iter": -1}), "max_iter"),
    ("solve", solve_config(mesh={"r_in": 0.0, "r_out": True, "n_r": 8,
                                 "n_theta": 24}), "r_out"),
    ("solve", solve_config(mesh={"r_in": "0.5", "r_out": 1.0, "n_r": 8,
                                 "n_theta": 24}), "r_in"),
    ("catenoid", {"density": {"kind": "area"},
                  "catenoid": {"rho_min": True}}, "rho_min"),
    ("catenoid", {"density": {"kind": "area"},
                  "catenoid": {"rho_max": "5"}}, "rho_max"),
    ("catenoid", {"density": {"kind": "area"}, "catenoid": {"alpha": True}},
     "'alpha'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinements": 1,
        "spec": {"sign": "minus", "alpha": 0.25, "a": "0", "n": 2,
                 "convention": "neck"}}}, "'a'"),
    ("experiment", {"density": {"kind": "area"},
                    "experiment": {**FAST_SWEEP, "inner_layers": 4.5}},
     "inner_layers"),
    ("experiment", {"density": {"kind": "area"},
                    "experiment": {**FAST_SWEEP, "n_theta": True}},
     "n_theta"),
    ("experiment", {"density": {"kind": "area"},
                    "experiment": {**FAST_SWEEP, "inner_layers": -1}},
     "inner_layers"),
    # the study keywords of the catenoid and comparison studies: a bool ran
    # as a number, a fraction failed with a message naming no key
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 2, "r_in": True, "r_out": 2,
        "n_r": 8, "n_theta": 24}}, "'r_in'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 2, "r_out": "2"}}, "'r_out'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 2, "n_r": 8.0}}, "'n_r'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 2, "n_theta": True}}, "'n_theta'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 2, "fourier_degree": 2.5}},
     "'fourier_degree'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinements": 1, "r_in": "1.5"}}, "'r_in'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinements": 1, "r_out": True}}, "'r_out'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinements": 1, "n_r0": 4.0}}, "'n_r0'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinements": 1, "n_theta0": 8.5}},
     "'n_theta0'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "n_r0": 2}}, "'n_r0'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "n_theta0": 2}}, "'n_theta0'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinements": 0}}, "'refinements'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "r_in": 0.1}}, "'r_in'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "r_out": 1.0}}, "'r_out'"),
    # a disk has no inner circle: each of these solved and echoed the
    # inner data unread
    *[("solve", solve_config(mesh={"r_in": 0.0, "n_r": 4, "n_theta": 8},
                             boundary={"inner": inner}), "boundary.inner")
      for inner in ({"kind": "banana"}, {"kind": "constant", "value": 99},
                    None)],
], ids=["experiment", "solver", "catenoid", "seed-string", "seed-float",
        "n-fraction", "samples-fraction", "trials-bool", "max_iter-bool",
        "max_iter-negative", "r_out-bool", "r_in-string", "rho_min-bool",
        "rho_max-string", "alpha-bool", "a-string", "inner_layers-fraction",
        "n_theta-bool", "inner_layers-negative", "comparison-r_in-bool",
        "comparison-r_out-string", "comparison-n_r-fraction",
        "comparison-n_theta-bool", "comparison-fourier_degree-fraction",
        "catenoid-r_in-string", "catenoid-r_out-bool",
        "catenoid-n_r0-fraction", "catenoid-n_theta0-fraction",
        "catenoid-n_r0-small", "catenoid-n_theta0-small",
        "catenoid-refinements-zero", "catenoid-r_in-inside-neck",
        "catenoid-r_out-below-r_in", "disk-inner-banana",
        "disk-inner-constant", "disk-inner-null"])
def test_malformed_config_value_is_config_error(tmp_path, capsys, command,
                                                config, word):
    code, out = run(tmp_path, command, config=config)
    assert code == EXIT_CONFIG
    assert word in capsys.readouterr().err
    assert not out.exists()


def _affine(q=(0.5, 0.3), c=0.1):
    return {"kind": "affine", "q": list(q), "c": c}


def _sweep(**keys):
    return {"density": {"kind": "area"}, "experiment": {**FAST_SWEEP, **keys}}


_SPEC = {"sign": "minus", "alpha": 0.25, "a": 0.0, "n": 2,
         "convention": "neck"}


def _non_finite_cases():
    """(command, config, key) of NaN, then Infinity, in a real key of each
    section and boundary data kind."""
    for x in (float("nan"), float("inf")):
        yield from [
            ("solve", solve_config(mesh={"r_in": 0.5, "r_out": x, "n_r": 8,
                                         "n_theta": 24}), "'r_out'"),
            ("catenoid", {"density": {"kind": "area"},
                          "catenoid": {"rho_max": x}}, "'rho_max'"),
            ("catenoid", {"density": {"kind": "area"},
                          "catenoid": {"alpha": x}}, "'alpha'"),
            ("solve", solve_config(boundary={
                "outer": _affine(),
                "inner": {"kind": "radial", "spec": {**_SPEC, "alpha": x}}}),
             "'alpha'"),
            ("experiment", {"density": {"kind": "area"}, "experiment": {
                "kind": "comparison", "trials": 1, "n_r": 8, "n_theta": 24,
                "r_in": x}}, "'r_in'"),
            ("experiment", _sweep(spike=x), "'spike'"),
            ("experiment", _sweep(epsilons=[0.3, x]), "'epsilons'"),
            ("solve", solve_config(boundary={"outer": _affine(q=(0.5, x)),
                                             "inner": _affine()}), "'q'"),
            ("solve", solve_config(boundary={"outer": _affine(c=x),
                                             "inner": _affine()}), "'c'"),
            ("solve", solve_config(boundary={
                "outer": {"kind": "samples", "values": [0.0] * 23 + [x]},
                "inner": _affine()}), "'values'"),
            ("density", {"density": {"kind": "mu", "mu": x}}, "'mu'"),
        ]


_NON_FINITE_IDS = [f"{key}-{x}" for x in ("nan", "inf") for key in (
    "r_out", "rho_max", "alpha", "radial-alpha", "comparison-r_in", "spike",
    "epsilon", "q", "c", "values", "mu")]


@pytest.mark.parametrize("command, config, key", [
    # each of these solved, or swept, with a bool read as 1
    ("solve", solve_config(boundary={"outer": _affine(q=(True, 0.1)),
                                     "inner": _affine()}), "'q'"),
    ("solve", solve_config(boundary={"outer": _affine(c=True),
                                     "inner": _affine()}), "'c'"),
    ("solve", solve_config(boundary={
        "outer": _affine(), "inner": {"kind": "constant", "value": True}}),
     "'value'"),
    ("solve", solve_config(boundary={"outer": _affine(q=(0.5, 0.3, 0.1)),
                                     "inner": _affine()}), "'q'"),
    ("solve", solve_config(boundary={
        "outer": {"kind": "samples", "values": [0.0] * 23 + ["0.5"]},
        "inner": _affine()}), "'values'"),
    ("experiment", _sweep(spike=True), "'spike'"),
    ("experiment", _sweep(spike="2"), "'spike'"),
    ("experiment", _sweep(outer_radius=True), "'outer_radius'"),
    ("experiment", _sweep(probe_radius="0.5"), "'probe_radius'"),
    ("experiment", _sweep(epsilons=[0.3, True]), "'epsilons'"),
    ("experiment", _sweep(epsilons=0.3), "'epsilons'"),
    ("experiment", _sweep(outer_data=_affine(q=(True, 0.1))), "'q'"),
    ("experiment", _sweep(outer_data={"kind": "constant", "value": True}),
     "'value'"),
    # mu was cast by float(): "3" ran as 3, true as 1
    ("density", {"density": {"kind": "mu", "mu": "3"}}, "'mu'"),
    ("density", {"density": {"kind": "mu", "mu": True}}, "'mu'"),
    ("density --kind mu --mu inf", None, "'mu'"),
    *_non_finite_cases(),
], ids=["solve-q-bool", "solve-c-bool", "solve-value-bool", "solve-q-three",
        "solve-values-string", "spike-bool", "spike-string",
        "outer_radius-bool", "probe_radius-string", "epsilon-bool",
        "epsilons-scalar", "outer_data-q-bool", "outer_data-value-bool",
        "mu-string", "mu-bool", "mu-flag-inf", *_NON_FINITE_IDS])
def test_real_config_value_rejects_bool_and_string(tmp_path, capsys, command,
                                                   config, key):
    code, out = run(tmp_path, *command.split(), config=config)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert key in err and "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _comparison(**keys):
    return {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 1, "n_r": 8, "n_theta": 16, **keys}}


@pytest.mark.parametrize("command, config, key", [
    # ran no trial, passed all three checks and exited 0
    ("experiment", _comparison(trials=-1), "comparison config key 'trials'"),
    ("experiment", _comparison(trials=0), "comparison config key 'trials'"),
    # each failed as "experiment config key", in another wording than the
    # study's own check of the same key
    ("experiment", _comparison(trials=True),
     "comparison config key 'trials'"),
    ("experiment", _comparison(n_r=2.5), "comparison config key 'n_r'"),
    ("experiment", {"density": {"kind": "area"}, "experiment": {
        "kind": "catenoid", "refinements": 1, "r_in": "1.5"}},
     "catenoid config key 'r_in'"),
    # failed in numpy: "negative dimensions are not allowed"
    ("experiment", _comparison(fourier_degree=-1),
     "comparison config key 'fourier_degree'"),
    # each failed in the mesh builder, which names no key
    ("solve --n-r 0", solve_config(), "mesh config key 'n_r'"),
    ("solve --n-r 2", solve_config(), "mesh config key 'n_r'"),
    ("solve --n-theta 2", solve_config(), "mesh config key 'n_theta'"),
    ("solve --r-in 1 --r-out 0.5", solve_config(), "mesh config key 'r_out'"),
    ("solve --r-in 0.5 --r-out 0.5", solve_config(),
     "mesh config key 'r_out'"),
    ("solve --r-in -0.5", solve_config(), "mesh config key 'r_in'"),
    ("experiment", _comparison(n_r=0), "comparison config key 'n_r'"),
    ("experiment", _comparison(n_theta=2), "comparison config key 'n_theta'"),
    ("experiment", _comparison(r_in=1.0, r_out=0.5),
     "comparison config key 'r_out'"),
    ("experiment", _sweep(n_r=2), "removability config key 'n_r'"),
    ("experiment", _sweep(n_theta=0), "removability config key 'n_theta'"),
    # failed in numpy: "zero-size array to reduction operation maximum"
    ("experiment", _comparison(r_in=0), "comparison config key 'r_in'"),
    # each failed in sample_profile, which names no key
    ("catenoid --kind area --samples 1", None,
     "catenoid config key 'samples'"),
    ("catenoid --kind area --rho-max 0.5", None,
     "catenoid config key 'rho_max'"),
    ("catenoid --kind area --rho-min 2 --rho-max 2", None,
     "catenoid config key 'rho_max'"),
    # failed in catenoid.profile_value, which names no key
    ("solve", solve_config(boundary={
        "outer": {"kind": "constant", "value": 0},
        "inner": {"kind": "radial", "spec": {**_NECK_SPEC, "alpha": 0.6}}}),
     "inner data key 'spec'"),
    # a mu at most 1 or too large for g's series failed without the key
    ("density --kind mu --mu 0.5", None, "density config key 'mu'"),
    ("density --kind mu --mu 1", None, "density config key 'mu'"),
    ("density --kind mu --mu 1e308", None, "density config key 'mu'"),
    ("density", {"density": {"kind": "mu", "mu": 1}},
     "density config key 'mu'"),
], ids=["trials-negative", "trials-zero", "trials-bool", "n_r-fraction",
        "catenoid-r_in-string", "fourier_degree-negative",
        "solve-n_r-zero", "solve-n_r-two", "solve-n_theta-two",
        "solve-r_out-below", "solve-r_out-equal", "solve-r_in-negative",
        "comparison-n_r-zero", "comparison-n_theta-two",
        "comparison-r_out-below", "removability-n_r-two",
        "removability-n_theta-zero", "comparison-r_in-zero",
        "catenoid-samples-one", "catenoid-rho_max-below",
        "catenoid-rho_max-equal", "solve-radial-neck-above-r_in",
        "mu-flag-half", "mu-flag-one", "mu-flag-huge", "mu-one"])
def test_count_or_radius_out_of_range_names_its_key(tmp_path, capsys,
                                                    command, config, key):
    code, out = run(tmp_path, *command.split(), config=config)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {key}: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [np.float32(2.5), np.float16(2.5),
                                   np.int8(2), np.float64(2.5), 2, 2.5],
                         ids=["float32", "float16", "int8", "float64", "int",
                              "float"])
def test_real_cast_takes_every_numpy_width(value):
    # float32 and float16 warned "overflow encountered in cast", an error
    # under the test configuration, when compared with the largest float
    got = ioutil.real(value)
    assert type(got) is float and got == float(value)


@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), np.float32("inf"),
                                   np.float16("nan")],
                         ids=["huge-int", "huge-negative-int", "float32-inf",
                              "float16-nan"])
def test_real_cast_refuses_what_is_no_finite_float(value):
    # float() of an int beyond the floats raises OverflowError, which the
    # cast reports as a ValueError like any other value it refuses
    with pytest.raises(ValueError, match="must be a finite real number"):
        ioutil.real(value)


def test_catenoid_dimension_below_2_names_key_n(tmp_path, capsys):
    # named the field: "dim_n must be an integer >= 2, got 1"
    code, out = run(tmp_path, "catenoid", "--kind", "area", "--n", "1")
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "key 'n': must be an integer >= 2, got 1" in err
    assert len(err.splitlines()) == 1 and not out.exists()


def test_constant_data_on_either_circle(tmp_path):
    cfg = solve_config(boundary={"outer": {"kind": "constant", "value": 0.3},
                                 "inner": {"kind": "constant", "value": 0.3}})
    code, out = run(tmp_path, "solve", config=cfg)
    assert code == EXIT_OK
    rows = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 3] - 0.3)) <= 1e-12


# -- determinism --------------------------------------------------------------


def test_same_config_and_seed_reproduce_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg = {"density": {"kind": "area"}, "experiment": FAST_SWEEP}
    _, first = run(tmp_path, "--quiet", "experiment", config=cfg, name="a")
    _, second = run(tmp_path, "--quiet", "experiment", config=cfg, name="b")
    for artifact in ("report.json", "report.csv", "config.json"):
        assert (first / artifact).read_bytes() == (second / artifact).read_bytes()


def test_csv_outputs_share_one_line_ending(tmp_path):
    """solution.csv, profile.csv and report.csv come from one writer."""
    tables = []
    for argv, config, table in [
            (["solve"], solve_config(), "solution.csv"),
            (["catenoid", "--kind", "area", "--alpha", "1", "--rho-max", "3",
              "--samples", "20"], None, "profile.csv"),
            (["experiment"], {"density": {"kind": "area"}, "experiment": {
                "kind": "comparison", "trials": 2, "n_r": 8,
                "n_theta": 24}}, "report.csv")]:
        code, out = run(tmp_path, "--quiet", *argv, config=config,
                        name=argv[0])
        assert code == EXIT_OK
        tables.append((out / table).read_bytes())
    for data in tables:
        assert data.endswith(b"\r\n")
        assert data.count(b"\n") == data.count(b"\r\n") > 2


def test_echoed_seed_reproduces_without_the_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    cfg = {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 2, "n_r": 8, "n_theta": 24}}
    code, first = run(tmp_path, "--seed", "1", "experiment", config=cfg,
                      name="first")
    assert code == EXIT_OK
    echoed = str(first / "config.json")
    second, third = tmp_path / "second", tmp_path / "third"
    assert main(["--config", echoed, "--out", str(second),
                 "experiment"]) == EXIT_OK
    for name in ("report.json", "report.csv", "config.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    # the flag still wins over the config's seed
    assert main(["--seed", "2", "--config", echoed, "--out", str(third),
                 "experiment"]) == EXIT_OK
    assert json.loads((third / "config.json").read_text())["seed"] == 2
    report = json.loads((third / "report.json").read_text())
    assert report["metadata"]["seed"] == 2


@pytest.mark.parametrize("argv, config", [
    (["density", "--kind", "mu", "--mu", "3"], None),
    (["catenoid", "--kind", "area", "--alpha", "1", "--rho-max", "3",
      "--samples", "20"], None),
    (["solve"], solve_config()),
    (["experiment"], {"density": {"kind": "area"}, "experiment": FAST_SWEEP}),
    (["experiment"], {"density": {"kind": "mu", "mu": 3}, "experiment": {
        "kind": "catenoid", "refinements": 2, "n_r0": 4, "n_theta0": 8}}),
    (["experiment"], {"density": {"kind": "area"}, "experiment": {
        "kind": "comparison", "trials": 2, "n_r": 8, "n_theta": 24}}),
], ids=["density", "catenoid", "solve", "removability", "catenoid-study",
        "comparison"])
def test_echoed_config_reproduces_every_output(tmp_path, monkeypatch, argv,
                                               config):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    code, first = run(tmp_path, "--seed", "3", *argv, config=config,
                      name="first")
    assert code == EXIT_OK
    # the command, the density, every section the command reads, the seed
    echoed = json.loads((first / "config.json").read_text())
    assert set(echoed) == cli._SECTIONS[argv[0]] | {"command", "seed"}
    assert echoed["command"] == argv[0] and echoed["seed"] == 3
    second = tmp_path / "second"
    assert main(["--seed", "3", "--config", str(first / "config.json"),
                 "--out", str(second), argv[0]]) == EXIT_OK
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
