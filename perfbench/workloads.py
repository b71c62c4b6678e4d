"""The benchmark's four workloads and the oracles that check every pass.

Each workload has a set-up step (build, normalize and classify its
densities) and a pass: one full run of its study, with every output
compared against an independent oracle.  A pass returns an ``Outcome``
that counts operations -- one Dirichlet solve or one oracle comparison --
and the ones that failed.  A study that raises counts as failed; the pass
goes on.

Calls into lingrowth go through module attributes (``catenoid.profile_value``)
so that a traced pass sees the wrapped names.

Scale ``full`` is the benchmark; scale ``small`` is a reduced size for the
warm-up pass and the self-test.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from lingrowth import catenoid, density, experiments
from lingrowth.catenoid import Anchor, CatenoidSpec, Sign

class Outcome:
    """Operations of one pass, the names of the failed ones, and a digest of
    each output that must repeat byte for byte between passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def solves(self, name, converged_flags):
        for converged in converged_flags:
            self.check(name + " solve converged", bool(converged))

    def raised(self, name):
        """A study raised: one failed operation, traceback on stderr."""
        traceback.print_exc(file=sys.stderr)
        self.check(name + " raised", False)


def _ready(d):
    """Normalize a density and pin its growth class, as the CLI does once."""
    d = density.normalize(d)
    return replace(d, growth=density.classify_growth(d))


def _write(report, outdir: Path, stem: str, out: Outcome) -> None:
    path = experiments.write_report(report, outdir / (stem + ".json"))
    blob = path.read_bytes() + path.with_suffix(".csv").read_bytes()
    out.digests[stem] = hashlib.sha256(blob).hexdigest()


def _stratified(rng, lo, hi, k, log=True):
    """k seeded points, one uniform draw in each of k equal strata of
    [lo, hi] (log scale by default), so the work per pass barely depends on
    the seed."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    edges = np.linspace(a, b, k + 1)
    pts = edges[:-1] + rng.uniform(0.0, 1.0, k) * np.diff(edges)
    return np.exp(pts) if log else pts


def _close(a, b, tol):
    return bool(abs(a - b) <= tol)


# ---------------------------------------------------------------------------
# removability: run_removability at its default configuration, area and mu=2


def envelope_closed_form(eps, rho=0.5, R=1.0):
    """Area density: integral of eps / sqrt(t^2 - eps^2) over [rho, R]."""
    return eps * math.log((R + math.sqrt(R * R - eps * eps))
                          / (rho + math.sqrt(rho * rho - eps * eps)))


def _removability_setup(seed):
    return {"area": _ready(density.make_area_density()),
            "mu2": _ready(density.make_mu_density(2.0))}


def _removability_pass(state, outdir, scale, out):
    small = scale == "small"
    size = dict(epsilons=(0.2, 0.1), n_r=12, n_theta=16,
                inner_layers=2) if small else {}
    cases = (("area", {"kind": "area"}), ("mu2", {"kind": "mu", "mu": 2.0}))
    for label, dcfg in cases:
        cfg = experiments.RemovabilityConfig(density=dcfg, **size)
        name = "removability " + label
        try:
            report = experiments.run_removability(cfg)
            _write(report, outdir, "removability-" + label, out)
        except Exception:
            out.raised(name)
            continue
        out.solves(name, [report.reference["converged"]]
                   + [r["converged"] for r in report.records])
        out.check(name + " all checks pass", report.all_checks_pass())
        out.check(name + " record per epsilon",
                  len(report.records) == len(cfg.epsilons))
        for rec in report.records:
            dev = rec["deviation_at_probe"]
            allowance = rec["envelope_integral"] + 10.0 * rec["h"] ** 2
            out.check(name + " deviation under envelope",
                      dev is not None and dev <= allowance)
            if label == "area":
                oracle = envelope_closed_form(rec["epsilon"])
                out.check(name + " envelope closed form",
                          _close(rec["envelope_integral"], oracle,
                                 1e-9 * oracle))
            else:
                out.check(name + " uniform bound",
                          rec.get("uniform_bound_satisfied") is True)
        if label == "area" and not small:
            last = report.records[-1]
            out.check(name + " smallest envelope",
                      last["epsilon"] == 0.025
                      and last["envelope_integral"] < 0.02)
        if label == "mu2":
            out.check(name + " half-slope inverse",
                      _close(density.invert_gprime(state["mu2"], 0.5), 1.0,
                             1e-12))


# ---------------------------------------------------------------------------
# comparison: run_comparison_suite on a 16x48 annulus, area and mu=3


def _comparison_setup(seed):
    return {"area": _ready(density.make_area_density()),
            "mu3": _ready(density.make_mu_density(3.0)),
            "seed": seed}


def _comparison_pass(state, outdir, scale, out):
    trials, n_r, n_theta = (2, 8, 16) if scale == "small" else (20, 16, 48)
    tol = 1e-8 + 10.0 * (0.5 / n_r) ** 2
    for label in ("area", "mu3"):
        name = "comparison " + label
        try:
            report = experiments.run_comparison_suite(
                state[label], trials, state["seed"], r_in=0.5, r_out=1.0,
                n_r=n_r, n_theta=n_theta)
            _write(report, outdir, "comparison-" + label, out)
        except Exception:
            out.raised(name)
            continue
        for rec in report.records:
            # a trial stops at its first solve that fails to converge
            out.solves(name, [True, True] if rec["converged"] else [False])
            out.check(name + " trial ordered",
                      rec["max_violation"] is not None
                      and rec["max_violation"] <= tol)
        scenario = report.reference
        out.solves(name, [scenario is not None and scenario["converged"]])
        out.check(name + " barrier scenario holds",
                  scenario is not None and scenario["holds"] is True
                  and scenario["max_violation"] <= tol)
        out.check(name + " record per trial", len(report.records) == trials)
        out.check(name + " all checks pass", report.all_checks_pass())


# ---------------------------------------------------------------------------
# refinement: run_catenoid_reproduction, mu=3, MINUS barrier, 4 levels


def _refinement_setup(seed):
    return {"mu3": _ready(density.make_mu_density(3.0)),
            "spec": CatenoidSpec(Sign.MINUS, 1.0, 0.0, 2, Anchor.NECK)}


def _refinement_pass(state, outdir, scale, out):
    levels, n_r0, n_theta0 = (2, 8, 16) if scale == "small" else (4, 16, 32)
    name = "refinement mu3"
    try:
        report = experiments.run_catenoid_reproduction(
            state["mu3"], state["spec"], levels, r_in=1.5, r_out=3.0,
            n_r0=n_r0, n_theta0=n_theta0)
        _write(report, outdir, "refinement-mu3", out)
    except Exception:
        out.raised(name)
        return
    out.solves(name, [r["converged"] for r in report.records])
    out.check(name + " record per level", len(report.records) == levels)
    out.check(name + " all checks pass", report.all_checks_pass())
    out.check(name + " order at least 1.8",
              len(report.orders) == levels - 1 and min(report.orders) >= 1.8)
    out.check(name + " final error", report.records[-1]["max_error"] <= 5e-4)


# ---------------------------------------------------------------------------
# quadrature: barrier profiles by both routes, no solver


def _custom_mu3():
    """mu=3 written out by hand, without a closed-form inverse:
    classify_growth integrates numerically and invert_gprime takes the
    brentq path.  The slope limit is declared; an estimated one (from g' at
    1e3..1e5) comes out 1e-10 low, and the normalized slope then exceeds 1
    beyond t = 1e5, which no longer is mu=3."""
    return density.make_custom_density(
        lambda t: t + 1.0 / (1.0 + t) - 1.0,
        lambda t: 1.0 - (1.0 + t) ** -2.0,
        lambda t: 2.0 * (1.0 + t) ** -3.0,
        gprime_inf=1.0,
        tail=density.TailEstimate(exponent=3.0, coeff=2.0),
        label="custom-mu3")


def _quadrature_setup(seed):
    state = {"area": _ready(density.make_area_density())}
    for mu in (2.5, 3.0, 4.0):
        state[f"mu{mu:g}"] = _ready(density.make_mu_density(mu))
    state["custom-mu3"] = _ready(_custom_mu3())
    state["seed"] = seed
    return state


def _quadrature_pass(state, outdir, scale, out):
    small = scale == "small"
    rng = np.random.default_rng(state["seed"])
    k_routes, k_custom, k_arcosh, k_env, num = (
        (2, 1, 3, 2, 12) if small else (12, 4, 40, 12, 100))
    values = []
    spec = CatenoidSpec(Sign.PLUS, 1.0, 0.0, 2, Anchor.NECK)
    mu3 = state["mu3"]

    def guarded(name, fn):
        try:
            return fn()
        except Exception:
            out.raised(name)
            return None

    for label in ("area", "mu2.5", "mu3", "mu4", "custom-mu3"):
        d = state[label]
        k = k_custom if label == "custom-mu3" else k_routes
        for rho in _stratified(rng, 1.05, 8.0, k):
            name = "quadrature routes " + label
            pair = guarded(name, lambda: (
                catenoid.profile_value(d, spec, float(rho)),
                catenoid.profile_value_substituted(d, spec, float(rho))))
            if pair is None:
                continue
            values.extend(pair)
            out.check(name + " agree", _close(pair[0], pair[1], 1e-8))
            if label == "custom-mu3":
                ref = guarded(name, lambda: catenoid.profile_value(
                    mu3, spec, float(rho)))
                if ref is not None:
                    out.check(name + " matches mu3", _close(pair[0], ref, 1e-8))

    area = state["area"]
    for rho in _stratified(rng, 1.001, 10.0, k_arcosh):
        got = guarded("quadrature arcosh",
                      lambda: catenoid.profile_value(area, spec, float(rho)))
        if got is not None:
            values.append(got)
            out.check("quadrature arcosh", _close(got, math.acosh(rho), 1e-8))

    for eps in _stratified(rng, 0.01, 0.25, k_env, log=False):
        got = guarded("quadrature envelope", lambda: catenoid.envelope_bound(
            area, float(eps), 0.5, 1.0, 0.0, 2))
        if got is not None:
            values.append(got)
            oracle = envelope_closed_form(float(eps))
            out.check("quadrature envelope closed form",
                      _close(got, oracle, 1e-9 * oracle))

    lifted = CatenoidSpec(Sign.PLUS, 1.0, 0.7, 2, Anchor.NECK)
    for label in ("area", "mu2.5", "mu3", "mu4", "custom-mu3"):
        got = guarded("quadrature neck limit",
                      lambda: catenoid.neck_limit(state[label], lifted))
        if got is not None:
            out.check("quadrature neck limit " + label,
                      _close(got, 0.7, 1e-12))

    for label in ("area", "mu3"):
        for n in (2, 3, 5):
            name = f"quadrature flux {label} n={n}"
            prof_spec = CatenoidSpec(Sign.PLUS, 1.0, 0.0, n, Anchor.NECK)
            profile = guarded(name, lambda: catenoid.sample_profile(
                state[label], prof_spec, 1.05, 4.0, num=num))
            if profile is None:
                continue
            values.extend(profile.values.tolist())
            residual = catenoid.ode_residual(state[label], profile)
            out.check(name, residual <= 1e-9)

    out.digests["quadrature"] = hashlib.sha256(
        struct.pack(f"{len(values)}d", *values)).hexdigest()


SETUP = {"removability": _removability_setup,
         "comparison": _comparison_setup,
         "refinement": _refinement_setup,
         "quadrature": _quadrature_setup}
PASS = {"removability": _removability_pass,
        "comparison": _comparison_pass,
        "refinement": _refinement_pass,
        "quadrature": _quadrature_pass}


def setup(workload: str, seed: int):
    """Build, normalize and classify the workload's densities."""
    return SETUP[workload](seed)


def run_pass(workload: str, state, outdir: Path, scale: str = "full") -> Outcome:
    """One full study of the workload, every output checked."""
    out = Outcome()
    PASS[workload](state, Path(outdir), scale, out)
    return out
