"""Command-line interface.

Subcommands
-----------
density      validate a density's hypotheses and print its growth class
catenoid     sample a barrier profile to CSV and check its values against
             the independent slope route
solve        one Dirichlet solve; writes solution CSV + diagnostics JSON
experiment   run a removability / catenoid / comparison study

Exit codes: 0 success, 1 configuration error, 2 hypothesis violation
(domain errors such as a profile range crossing the neck), 3 solver
non-convergence.

A JSON config file supplies defaults; explicit flags win.  Its top-level
keys are checked against the sections the command reads, and each section
against a table of accepted keys, so a misspelled or misplaced key is a
configuration error, not a silent default.

Every command runs one path through :func:`main`: it loads the config,
builds the density section (``--kind`` replaces the file's, ``--mu``
overrides its ``mu``) and the normalized density, and hands the three to
the command, which does its work and returns its exit code with the
effective sections it ran under.  ``main`` then echoes the effective
configuration, seed included, to ``<out>/config.json`` so a run can be
reproduced from its artifacts alone; a command that wrote nothing returns
``None`` for its sections and leaves no output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import ioutil
from .catenoid import (Anchor, CatenoidSpec, QuadratureAccuracyError, Sign,
                       neck_limit, profile_value_substituted, sample_profile)
from .density import density_from_config, normalize, validate
from .experiments import (RemovabilityConfig, boundary_data,
                          run_catenoid_reproduction, run_comparison_suite,
                          run_removability, write_report)
from .mesh import build_polar_mesh, uniform_shape
from .solver import NonConvergenceError, solve_dirichlet

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGENCE = 3


def _say(args, *parts):
    if not args.quiet:
        print(*parts)


# The config sections each command reads.  Besides them a config may hold
# "command" (unused) and "seed", which every echoed config.json carries.
_SECTIONS = {
    "density": {"density"},
    "catenoid": {"density", "catenoid"},
    "solve": {"density", "mesh", "boundary", "solver"},
    "experiment": {"density", "experiment"},
}


def _load_config(args) -> dict:
    """The config file's sections, checked against the command's, and the
    effective ``seed``: the flag, else the config's seed, else 0."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(
                f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    sections = _SECTIONS[args.command]
    ioutil.check_keys(cfg, sections | {"command", "seed"},
                      f"config section(s) for {args.command}")
    for name in sorted(sections & set(cfg)):
        if not isinstance(cfg[name], dict):
            raise ValueError(f"config section {name!r} must be a JSON object")
    seed = cfg.get("seed", 0) if args.seed is None else args.seed
    cfg["seed"] = ioutil.checked(ioutil.integer, seed, "seed")
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _density_config(args, cfg: dict) -> dict:
    """Density spec: ``--kind`` replaces the config's section, and ``--mu``
    overrides the ``mu`` of whichever section applies."""
    if args.kind is not None:
        dcfg = {"kind": args.kind}
    elif "density" in cfg:
        dcfg = dict(cfg["density"])
    else:
        raise ValueError("no density specified (use --kind or a config file)")
    if args.mu is not None:
        dcfg["mu"] = args.mu
    return dcfg


# Accepted keys of each config section: key -> (default, cast).  A key
# whose default is None is left out unless given, so its consumer's own
# default applies.  A key without a cast is checked by its consumer (the
# catenoid spec keys by CatenoidSpec.from_config, the mesh keys by
# uniform_shape, the boundary keys by boundary_data, max_iter by
# solve_dirichlet, the experiment keys by their study), and the echoed
# config repeats it as given.
_AS_GIVEN = (None, None)
_CATENOID_KEYS = {
    "sign": ("plus", None), "alpha": (1.0, None), "a": (0.0, None),
    "n": (2, None), "convention": ("neck", None),
    "rho_min": (None, ioutil.real),     # default 1.01 * neck radius
    "rho_max": (5.0, ioutil.real),
    "samples": (100, lambda value: ioutil.integer(value, 2)),
}
_MESH_KEYS = {"r_in": (0.5, None), "r_out": (1.0, None), "n_r": (16, None),
              "n_theta": (32, None)}
_SOLVER_KEYS = {"max_iter": _AS_GIVEN}
_BOUNDARY_KEYS = {
    "outer": ({"kind": "affine", "q": [0.5, 0.3], "c": 0.0}, None),
    "inner": _AS_GIVEN,
}
_EXPERIMENT_KEYS = {
    "removability": {f.name: _AS_GIVEN for f in fields(RemovabilityConfig)
                     if f.name != "density"},
    "catenoid": {
        "spec": ({"sign": "minus", "alpha": 0.25, "a": 0.0, "n": 2,
                  "convention": "neck"}, CatenoidSpec.from_config),
        "refinements": (3, None), "r_in": _AS_GIVEN, "r_out": _AS_GIVEN,
        "n_r0": _AS_GIVEN, "n_theta0": _AS_GIVEN,
    },
    "comparison": {
        "trials": (20, None), "r_in": _AS_GIVEN, "r_out": _AS_GIVEN,
        "n_r": _AS_GIVEN, "n_theta": _AS_GIVEN, "fourier_degree": _AS_GIVEN,
    },
}


def _merge(name: str, section: dict, table: dict, flags=None) -> dict:
    """Effective values of one config section: the flag of a key's name
    (when given) wins over the section, the section over the default.  A
    value that its key's cast rejects is an error naming the key."""
    ioutil.check_keys(section, table, f"{name} config key(s)")
    merged = {}
    for key, (default, cast) in table.items():
        flag = getattr(flags, key, None)
        value = flag if flag is not None else section.get(key, default)
        if value is None and key not in section:
            continue
        merged[key] = value if cast is None else ioutil.checked(
            cast, value, f"{name} config key {key!r}")
    return merged


# ---------------------------------------------------------------------------
# density


def cmd_density(args, cfg, dcfg, d):
    samples = np.concatenate([[0.0], np.geomspace(1e-3, 100.0, 200)])
    report = {**validate(d, samples), "growth": d.growth.value}
    ioutil.write_json(_out_dir(args) / "density_report.json", report)

    _say(args, f"density {d.label}: growth={d.growth.value}")
    for key, val in report.items():
        _say(args, f"  {key}: {val}")
    if not report["hypotheses_ok"]:
        _say(args, "hypothesis violation detected")
        return EXIT_HYPOTHESIS, {}
    return EXIT_OK, {}


# ---------------------------------------------------------------------------
# catenoid


def cmd_catenoid(args, cfg, dcfg, d):
    ccfg = _merge("catenoid", cfg.get("catenoid", {}), _CATENOID_KEYS, args)
    rho_min = ccfg.pop("rho_min", None)
    rho_max, num = ccfg.pop("rho_max"), ccfg.pop("samples")
    spec = CatenoidSpec.from_config(ccfg)
    if rho_min is None:
        rho_min = 1.01 * spec.neck_radius

    if rho_min <= spec.neck_radius:
        _say(args, f"requested range starts at {rho_min}, at or below the "
                   f"neck radius {spec.neck_radius:.12g}: profile undefined")
        return EXIT_HYPOTHESIS, None
    if not rho_max > rho_min:
        raise ValueError(f"catenoid config key 'rho_max': must exceed "
                         f"rho_min = {rho_min!r}, got {rho_max!r}")
    # the range and count are checked: what the sampling can still refuse
    # is a neck-anchored profile that is infinite at every radius
    profile = ioutil.checked(sample_profile, d,
                             "catenoid config key 'convention'", spec,
                             rho_min, rho_max, num)
    # the cumulative radial route against the slope route, radius by radius
    disagreement = max(abs(v - profile_value_substituted(d, spec, r))
                       for r, v in zip(profile.rho, profile.values))

    out = _out_dir(args)
    ioutil.write_csv_records(out / "profile.csv", [
        {"rho": r, "value": v, "slope": s}
        for r, v, s in zip(profile.rho, profile.values, profile.slopes)])
    ioutil.write_json(out / "profile_meta.json", {
        "spec": spec.to_config(),
        "density": dcfg,
        "neck_radius": spec.neck_radius,
        "route_disagreement": disagreement,
        "rows": num,
    })

    _say(args, f"profile written to {out / 'profile.csv'} ({num} rows)")
    _say(args, "largest disagreement of the values with the slope route: "
               f"{ioutil.fmt12(disagreement)}")
    limit = neck_limit(d, spec)
    if np.isinf(limit):
        _say(args, f"neck limit at rho={spec.neck_radius:.12g} is {limit}: "
                   "values grow without bound approaching the neck")
    else:
        _say(args, f"neck limit: {ioutil.fmt12(limit)}")
    return EXIT_OK, {"catenoid": {**spec.to_config(), "rho_min": rho_min,
                                  "rho_max": rho_max, "samples": num}}


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args, cfg, dcfg, d):
    mcfg = _merge("mesh", cfg.get("mesh", {}), _MESH_KEYS, args)
    mesh = build_polar_mesh(*uniform_shape(
        mcfg["r_in"], mcfg["r_out"], mcfg["n_r"], mcfg["n_theta"],
        "mesh config"))

    bcfg = _merge("boundary", cfg.get("boundary", {}), _BOUNDARY_KEYS)
    data = boundary_data(mesh, bcfg, d)
    scfg = _merge("solver", cfg.get("solver", {}), _SOLVER_KEYS)

    # solve_dirichlet checks max_iter, so a bad one leaves no output
    try:
        sol = solve_dirichlet(d, mesh, data, **scfg)
    except NonConvergenceError as exc:
        _say(args, f"solver did not converge: {exc}")
        sol = exc.solution

    out = _out_dir(args)
    ioutil.write_csv_records(out / "solution.csv", [
        {"node": i, "x": x, "y": y, "value": v}
        for i, ((x, y), v) in enumerate(zip(mesh.nodes, sol.values))])
    ioutil.write_json(out / "diagnostics.json", sol.diagnostics())
    sections = {"mesh": mcfg, "boundary": bcfg, "solver": scfg}
    if not sol.converged:
        return EXIT_NONCONVERGENCE, sections
    _say(args, f"solved: energy={ioutil.fmt12(sol.energy)} "
               f"grad_norm={sol.grad_norm:.3e} iterations={sol.iterations}")
    return EXIT_OK, sections


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args, cfg, dcfg, d):
    ecfg = dict(cfg.get("experiment", {}))
    kind = args.experiment_kind or ecfg.get("kind")
    if kind not in ("removability", "catenoid", "comparison"):
        raise ValueError(f"unknown experiment kind {kind!r}")
    ecfg.pop("kind", None)
    kwargs = _merge("experiment", ecfg, _EXPERIMENT_KEYS[kind])

    if kind == "removability":
        rcfg = RemovabilityConfig(density=dcfg, **kwargs)
        report = run_removability(rcfg)
        kwargs = rcfg.to_dict()
        del kwargs["density"]
    elif kind == "catenoid":
        report = run_catenoid_reproduction(d, **kwargs)
        kwargs["spec"] = kwargs["spec"].to_config()
    else:
        report = run_comparison_suite(d, seed=cfg["seed"], **kwargs)

    # the study checks its own config, so a bad value leaves no output
    out = _out_dir(args)
    write_report(report, out / "report.json")
    for name, passed in report.checks.items():
        _say(args, f"[{'PASS' if passed else 'FAIL'}] {name}")
    _say(args, f"report written to {out / 'report.json'}")
    code = EXIT_OK if report.all_checks_pass() else EXIT_HYPOTHESIS
    return code, {"experiment": {"kind": kind, **kwargs}}


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lingrowth",
        description="linear-growth energies: densities, barriers, solves, "
                    "and removability experiments")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: the config's seed, else 0)")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    # every subcommand reads a density
    dens = argparse.ArgumentParser(add_help=False)
    dens.add_argument("--kind", choices=["area", "mu"])
    dens.add_argument("--mu", type=float)

    p = sub.add_parser("density", parents=[dens], help="validate a density")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("catenoid", parents=[dens],
                       help="sample a barrier profile")
    p.add_argument("--sign", choices=[s.value for s in Sign])
    p.add_argument("--alpha", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--convention", choices=[a.value for a in Anchor])
    p.add_argument("--rho-min", type=float, dest="rho_min")
    p.add_argument("--rho-max", type=float, dest="rho_max")
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_catenoid)

    p = sub.add_parser("solve", parents=[dens], help="one Dirichlet solve")
    p.add_argument("--r-in", type=float, dest="r_in")
    p.add_argument("--r-out", type=float, dest="r_out")
    p.add_argument("--n-r", type=int, dest="n_r")
    p.add_argument("--n-theta", type=int, dest="n_theta")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", parents=[dens],
                       help="run an experiment study")
    p.add_argument("--experiment-kind", dest="experiment_kind",
                   choices=["removability", "catenoid", "comparison"])
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args)
        dcfg = _density_config(args, cfg)
        code, sections = args.func(args, cfg, dcfg,
                                   normalize(density_from_config(dcfg)))
        if sections is not None:    # the command wrote its outputs
            path = _out_dir(args) / "config.json"
            ioutil.write_json(path, {"command": args.command, "density": dcfg,
                                     **sections, "seed": cfg["seed"]})
            _say(args, f"effective config written to {path}")
        return code
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except QuadratureAccuracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
