"""Desk-scale numerical experiments tying barriers to discrete solutions.

Three studies are provided:

* **Removability** (:func:`run_removability`): solve a reference problem on
  the full disk, then re-solve on annuli with a small inner circle excised
  and its data corrupted by a spike.  For affine outer data the
  reference is the affine field itself, the exact discrete minimizer on
  any P1 mesh, which the disk solve certifies without a Newton step.
  The deviation at a probe radius is compared against the barrier
  envelope E(eps), demonstrating that the influence of the corrupted
  circle dies out with its radius -- the discrete shadow of
  removable-singularity behaviour.

* **Catenoid reproduction** (:func:`run_catenoid_reproduction`): impose
  exact radial barrier values on both circles of an annulus and measure
  the nodal error of the solve under mesh refinement, estimating the
  empirical convergence order.  Both radial studies start each annulus
  solve from the exact solution of its ring-constant problem
  (:func:`lingrowth.solver._ring_started_solve`).

* **Comparison suite** (:func:`run_comparison_suite`): random ordered
  boundary-data pairs must produce ordered solutions (discrete comparison
  principle), plus one structured scenario where the solution is pinned
  under a catenoid barrier anchored at the inner circle.

Reports serialize deterministically (sorted keys, 12 significant digits)
with CSV companions.  Every study solves its problems one after another
on the calling thread.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import ioutil
from .catenoid import (Anchor, CatenoidSpec, Sign, envelope_bound,
                       envelope_bounds, profile_value, profile_values,
                       uniform_interior_bound)
from .density import Density, Growth, density_from_config, normalize
from .mesh import (NodeTag, PolarMesh, build_polar_mesh, radial_values,
                   uniform_shape)
from .quadrature import QuadratureAccuracyError
from .solver import NonConvergenceError, _ring_started_solve, solve_dirichlet


@dataclass(eq=False)
class ExperimentReport:
    """Uniform container for experiment outcomes.

    ``records`` is the per-sweep-point table (one dict per epsilon, level,
    or trial), ``reference`` holds diagnostics of a baseline solve when
    one exists, ``orders`` are empirical convergence-order estimates,
    ``checks`` names each verified invariant with its boolean outcome, and
    ``metadata`` echoes the configuration.
    """

    kind: str
    records: list
    reference: Optional[dict]
    orders: list
    checks: dict
    metadata: dict

    def to_dict(self) -> dict:
        return ioutil.quantize(vars(self))  # asdict would copy every leaf

    def all_checks_pass(self) -> bool:
        return all(bool(v) for v in self.checks.values())

    def __eq__(self, other):
        if not isinstance(other, ExperimentReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def write_report(report: ExperimentReport, path) -> Path:
    """Write the JSON report plus a CSV companion of the records table."""
    path = Path(path)
    ioutil.write_json(path, report.to_dict())
    ioutil.write_csv_records(path.with_suffix(".csv"), report.records)
    return path


def read_report(path) -> ExperimentReport:
    return ExperimentReport(**ioutil.read_json(path))


# ---------------------------------------------------------------------------
# boundary data helpers


def fourier_values(angles: np.ndarray, coeffs: dict) -> np.ndarray:
    """Truncated Fourier series c0 + sum(a_k cos + b_k sin)."""
    out = np.full_like(angles, float(coeffs["c0"]))
    for k, (a, b) in enumerate(zip(coeffs["a"], coeffs["b"]), start=1):
        out += a * np.cos(k * angles) + b * np.sin(k * angles)
    return out


def _draw_fourier(rng, degree: int) -> dict:
    return {
        "c0": float(rng.uniform(-1.0, 1.0)),
        "a": [float(x) for x in rng.uniform(-1.0, 1.0, degree)],
        "b": [float(x) for x in rng.uniform(-1.0, 1.0, degree)],
    }


# accepted keys of each boundary data kind, besides "kind"
_CIRCLE_KEYS = {"affine": {"q", "c"}, "constant": {"value"},
                "radial": {"spec"}, "samples": {"values"}}


def _affine_coefficients(cfg: dict, name: str) -> Optional[tuple]:
    """(q0, q1, c) of a circle's ``affine`` data, (0, 0, value) of its
    ``constant`` data, None for the other kinds.  ``q`` must hold exactly
    two real numbers and ``c`` and ``value`` must be real (a bool, a
    string, NaN or +-inf raises ValueError naming the key)."""
    if cfg["kind"] == "constant":
        return 0.0, 0.0, ioutil.checked(ioutil.real, cfg["value"],
                                        f"{name} data key 'value'")
    if cfg["kind"] != "affine":
        return None
    return (*ioutil.checked(ioutil.reals, cfg["q"], f"{name} data key 'q'", 2),
            ioutil.checked(ioutil.real, cfg["c"], f"{name} data key 'c'"))


def _affine_values(nodes: np.ndarray, affine: tuple) -> np.ndarray:
    """q . x + c at (N, 2) ``nodes`` for ``affine`` = (q0, q1, c), taken
    elementwise, not as a BLAS product, so boundary data and the reference
    start share their bits at every BLAS thread count."""
    return nodes[:, 0] * affine[0] + nodes[:, 1] * affine[1] + affine[2]


def circle_data_values(mesh: PolarMesh, circle: NodeTag, cfg: dict,
                       d: Density) -> np.ndarray:
    """Values on one boundary circle (``NodeTag.INNER`` or
    ``NodeTag.OUTER``) for the configured data choice: ``affine`` (q . x
    + c), ``constant`` (value, the affine formula with q = 0), ``radial``
    (the barrier profile of a :class:`CatenoidSpec` config at the circle's
    radius) or ``samples`` (one value per angle).  A key the kind does not
    take is an error, and so is a value that is not a finite real number
    (a bool or a string included).  A ``radial`` profile that
    :func:`profile_value` refuses at the radius (the neck lies outside the
    circle, or the profile is infinite at every radius) is a ValueError
    naming the data key ``spec``."""
    radius = float(mesh.ring_radii[0 if circle == NodeTag.INNER else -1])
    idx = mesh.nodes_with_tag(circle)
    name = circle.name.lower()
    if not isinstance(cfg, dict):
        raise ValueError(f"{name} data must be a JSON object, got {cfg!r}")
    kind = cfg.get("kind")
    if kind not in _CIRCLE_KEYS:
        raise ValueError(f"unknown {name} data kind {kind!r}")
    ioutil.check_keys(cfg, _CIRCLE_KEYS[kind] | {"kind"},
                      f"{name} data key(s) for kind {kind!r}")
    affine = _affine_coefficients(cfg, name)
    if affine is not None:
        return _affine_values(mesh.nodes[idx], affine)
    if kind == "radial":
        spec = CatenoidSpec.from_config(cfg["spec"])
        return np.full(len(idx), ioutil.checked(
            profile_value, d, f"{name} data key 'spec'", spec, radius))
    return np.array(ioutil.checked(ioutil.reals, cfg["values"],
                                   f"{name} data key 'values'", mesh.n_theta))


def _dirichlet(mesh: PolarMesh, inner=None, outer=None) -> np.ndarray:
    """Nodal boundary vector: ``inner`` and ``outer`` (arrays or scalars)
    on their circles, NaN on every other node."""
    u = np.full(mesh.num_nodes, np.nan)
    if inner is not None:
        u[mesh.inner_nodes()] = inner
    if outer is not None:
        u[mesh.outer_nodes()] = outer
    return u


def boundary_data(mesh: PolarMesh, section: dict, d: Density) -> np.ndarray:
    """Nodal boundary vector of a ``boundary`` config section: each
    circle's values from :func:`circle_data_values`, NaN on every other
    node.  ``outer`` is required; ``inner`` is required on an annulus and
    refused on a disk, which has no inner circle, whatever its value
    (``None`` included).  Either breach is a ValueError that starts with
    ``boundary.inner``."""
    if ("inner" in section) == mesh.is_disk:
        raise ValueError("boundary.inner: " + (
            "a disk has no inner circle to take data" if mesh.is_disk
            else "an annulus needs data on its inner circle"))
    outer = circle_data_values(mesh, NodeTag.OUTER, section["outer"], d)
    inner = None if mesh.is_disk else circle_data_values(
        mesh, NodeTag.INNER, section["inner"], d)
    return _dirichlet(mesh, inner=inner, outer=outer)


# ---------------------------------------------------------------------------
# removability sweep


@dataclass(frozen=True)
class RemovabilityConfig:
    """Configuration of a removability sweep.  Every field but ``density``
    is a key of the CLI's ``experiment`` section, and every solve runs with
    :func:`solve_dirichlet`'s default step cap.

    ``n_r``, ``n_theta`` and ``inner_layers`` must be integers, kept as
    ints, ``n_r`` and ``n_theta`` >= 3 and ``inner_layers`` >= 0 (a bool,
    a fraction or a smaller count raises ValueError naming the key);
    ``outer_radius``, ``probe_radius``, ``spike`` and each epsilon must be
    finite real numbers (a bool, a string, NaN or +-inf raises ValueError
    naming the key), and are kept as floats.
    ``epsilons`` must be positive, decrease strictly and stay below
    ``probe_radius``, which in turn lies inside the outer radius.
    ``outer_data`` is the ``outer`` entry of a ``boundary`` section (see
    :func:`boundary_data`), in the schema of :func:`circle_data_values`.
    One radial/angular resolution is shared by the reference disk and
    every annulus so their angular columns align.

    ``inner_layers`` grades the annulus meshes toward the spiked inner
    circle (see :func:`_graded_radii`).  Without grading, the first
    radial cell caps the discrete flux a ring can emit at
    (epsilon + h/2) instead of epsilon, which inflates the measured
    deviation by O(h) -- first order, so no O(h^2) allowance ever covers
    it.  Six halvings push that cap error below 1e-4 here while the bulk
    spacing, and with it the reported h, stays (R - epsilon)/n_r.

    The default outer slope is kept small because the envelope bound
    controls only the spike's own influence: a background gradient q adds
    a continuum contribution of its own to the deviation at the probe.
    Measured on log-polar annuli with 16 to 64 rings per unit of log r,
    that contribution over epsilon * |q| is not constant at large
    epsilon, but below epsilon of about 3e-3 both growth classes level
    off at B * epsilon * |q|, with B about 0.013 for area and about 1.24
    for mu = 2.  The default |q| = 0.015 is small only relative to
    1/g''(0): for a normalized density the background acts as
    |q| g''(0), and g''(0) is 1 for area and mu - 1 for mu, but a
    normalized scaled area with g''(0) of about 11 fails ``envelope_all``
    with the default data and passes with flat data.
    """

    density: dict
    epsilons: tuple = (0.2, 0.1, 0.05, 0.025)
    outer_radius: float = 1.0
    probe_radius: float = 0.5
    spike: float = 1.0
    outer_data: dict = field(default_factory=lambda: {
        "kind": "affine", "q": (0.012, 0.009), "c": 0.0})
    n_r: int = 48
    n_theta: int = 64
    inner_layers: int = 6

    def __post_init__(self):
        what = "removability config key {!r}".format
        for key, low in (("n_r", 3), ("n_theta", 3), ("inner_layers", 0)):
            object.__setattr__(self, key, ioutil.checked(
                ioutil.integer, getattr(self, key), what(key), low))
        for key in ("outer_radius", "probe_radius", "spike"):
            object.__setattr__(self, key, ioutil.checked(
                ioutil.real, getattr(self, key), what(key)))
        eps = ioutil.checked(ioutil.reals, self.epsilons, what("epsilons"))
        if not eps:
            raise ValueError("epsilons must be nonempty")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"epsilons must decrease strictly: {eps}")
        if eps[-1] <= 0.0:
            raise ValueError(f"epsilons must be positive: {eps}")
        if not (0.0 < self.probe_radius < self.outer_radius):
            raise ValueError("need 0 < probe_radius < outer_radius")
        if eps[0] >= self.probe_radius:
            raise ValueError(
                f"largest epsilon {eps[0]} must stay below the probe "
                f"radius {self.probe_radius}")
        object.__setattr__(self, "epsilons", eps)

    def to_dict(self) -> dict:
        return asdict(self)


def _graded_radii(eps: float, R: float, n_r: int, layers: int) -> np.ndarray:
    """Ring radii of a removability annulus: n_r equal cells of width
    h = (R - eps)/n_r, the first of them halved ``layers`` times toward
    the inner circle, so the innermost cell has width h / 2**layers while
    the largest spacing stays h (see :class:`RemovabilityConfig`)."""
    radii = np.linspace(eps, R, n_r + 1)
    splits = eps + (radii[1] - radii[0]) * 0.5 ** np.arange(layers, 0, -1)
    return np.concatenate([[eps], splits, radii[1:]])


def _barrier_seed(d: Density, ring_radii: np.ndarray, eps: float, R: float,
                  spike: float) -> np.ndarray:
    """Start of the ring-constant problem of the spike: the excess over the
    reference, one value per ring of an annulus with ``ring_radii``.

    The barrier of neck eps that vanishes on the outer circle bounds the
    spike's influence at every radius.  Capped by the spike it is the
    closed-form shape of the answer, so the start is the spike on the
    inner circle, min(|spike|, envelope) with the spike's sign on each ring
    between, and 0 on the outer circle.  The envelopes of all rings
    between come from one cumulative pass (:func:`envelope_bounds`).  From
    it the ring solves of the default sweeps take 3 to 10 Newton steps;
    from the harmonic extension they took 7 to 25, and for spikes of 10 to
    1000 at the default epsilons 14 to 119 against at most 4."""
    env = envelope_bounds(d, eps, ring_radii[1:-1], R, 0.0, 2)
    return np.concatenate(
        ([spike], np.copysign(np.minimum(abs(spike), env), spike), [0.0]))


def run_removability(cfg: RemovabilityConfig) -> ExperimentReport:
    """Excised-disk sweep: corrupted inner data versus barrier envelope.

    For each epsilon the annulus problem inherits the reference's outer
    data while its inner circle carries the reference trace plus the
    spike.  Recorded per epsilon: the max deviation from the reference at
    radii >= probe, the envelope value from the barrier module, and the
    bound checks with discretization allowance 10 h^2.

    For ``affine`` outer data, and ``constant`` data (q = 0), the reference
    disk solve starts from the affine field q . x + c itself, computed
    node by node from the validated (q, c).  An affine field has one
    gradient on every triangle of any P1 mesh, so its flux is constant
    and its nodal gradient vanishes at every interior node up to
    rounding: it is the discrete minimizer for every isotropic density,
    and the solve's gradient test certifies it with one residual, no
    Newton step and no band.  ``samples`` and ``radial`` outer data start
    the reference from the harmonic extension of their data.

    Each annulus is solved by :func:`lingrowth.solver._ring_started_solve`
    with the reference as its base and the spike's ring problem (spike
    inside, 0 outside) started from the capped barrier envelope of
    :func:`_barrier_seed`, or from the harmonic extension where that
    envelope cannot be certified (mu = 1.2, on the first graded rings).
    In the default sweeps six to eight corrections are kept and no
    annulus takes a Newton step or factors a 2D band.  Each record
    carries the annulus's Newton steps as ``iterations``, the ring
    solve's as ``column_iterations`` and the corrections kept as
    ``corrections``, 0 both where they were dropped and where the start
    was already at rounding (see the helper).
    """
    d = normalize(density_from_config(cfg.density))
    growth = d.growth
    R = cfg.outer_radius

    disk = build_polar_mesh(np.linspace(0.0, R, cfg.n_r + 1), cfg.n_theta)
    data = boundary_data(disk, {"outer": cfg.outer_data}, d)
    affine = _affine_coefficients(cfg.outer_data, "outer")
    start = None if affine is None else _affine_values(disk.nodes, affine)
    reference = solve_dirichlet(d, disk, data, x0=start)
    outer = data[disk.outer_nodes()]
    max_outer, min_outer = float(np.max(outer)), float(np.min(outer))

    records = []
    for eps in cfg.epsilons:
        annulus = build_polar_mesh(
            _graded_radii(eps, R, cfg.n_r, cfg.inner_layers), cfg.n_theta)
        # both meshes share n_theta, so every annulus circle is a disk
        # radius where the P1 reference interpolates exactly
        ref_on_annulus = annulus.from_rings(
            radial_values(disk, reference.values, annulus.ring_radii))
        try:
            seed = _barrier_seed(d, annulus.ring_radii, eps, R, cfg.spike)
        except QuadratureAccuracyError:
            seed = None
        sol, ring, corrections = _ring_started_solve(
            d, annulus, cfg.spike, 0.0, base=ref_on_annulus, ring_start=seed)
        h = annulus.h_radial
        allow = 10.0 * h * h
        env = envelope_bound(d, eps, cfg.probe_radius, R, 0.0, 2)
        radii = annulus.node_radii()
        probe = radii >= cfg.probe_radius - 1e-12
        u_probe = sol.values[probe]
        deviation = float(np.max(np.abs(u_probe - ref_on_annulus[probe])))
        two_sided = bool(
            np.all(u_probe <= max_outer + env + allow)
            and np.all(u_probe >= min_outer - env - allow))
        rec = {
            "epsilon": eps,
            "h": h,
            "envelope_integral": env,
            "envelope_value": max_outer + env,
            "converged": sol.converged,
            "iterations": sol.iterations,
            "column_iterations": ring.iterations,
            "corrections": corrections,
            "deviation_at_probe": deviation,
            "envelope_satisfied": bool(deviation <= env + allow),
            "two_sided_bound_satisfied": two_sided,
        }
        if growth is Growth.INFINITE_INTEGRAL:
            # inside the outer circle, whose data obey the bound trivially;
            # the lower cap is the bound for -u, which has data -outer
            inside = probe & (annulus.node_tags == NodeTag.INTERIOR)
            r_in, u_in = radii[inside], sol.values[inside]
            cap_hi = uniform_interior_bound(d, max_outer, r_in, R) + allow
            cap_lo = -uniform_interior_bound(d, -min_outer, r_in, R) - allow
            rec["uniform_bound_satisfied"] = bool(
                np.all(u_in <= cap_hi) and np.all(u_in >= cap_lo))
        records.append(rec)

    deviations = [r["deviation_at_probe"] for r in records]
    orders = []
    if len(deviations) >= 2:
        dev = np.array(deviations)
        eps_arr = np.array(cfg.epsilons)
        if np.all(dev > 0):
            slope = np.polyfit(np.log(eps_arr), np.log(dev), 1)[0]
            orders.append(float(slope))

    checks = {
        "complete": all(r["converged"] for r in records),
        "deviations_monotone": all(
            b <= a + 1e-6 for a, b in zip(deviations, deviations[1:])),
        "envelope_all": all(r["envelope_satisfied"] for r in records),
        "two_sided_all": all(r["two_sided_bound_satisfied"] for r in records),
    }
    if growth is Growth.INFINITE_INTEGRAL:
        checks["uniform_bound_all"] = all(
            r["uniform_bound_satisfied"] for r in records)

    return ExperimentReport(
        kind="removability",
        records=records,
        reference=reference.diagnostics(),
        orders=orders,
        checks=checks,
        metadata={
            "config": cfg.to_dict(),
            "density_label": d.label,
            "growth": growth.value,
            "max_outer": max_outer,
            "min_outer": min_outer,
            "timestamp": ioutil.deterministic_timestamp(),
        },
    )


# ---------------------------------------------------------------------------
# catenoid reproduction


def run_catenoid_reproduction(d: Density, spec: CatenoidSpec,
                              refinements: int, *,
                              r_in: float = 1.5, r_out: float = 3.0,
                              n_r0: int = 16, n_theta0: int = 32
                              ) -> ExperimentReport:
    """Solve with exact barrier boundary data under mesh refinement.

    Each level doubles both mesh resolutions starting from
    (n_r0, n_theta0); the annulus must enclose the barrier neck strictly.
    Per level the max nodal error against the quadrature profile is
    recorded, and consecutive levels yield empirical convergence orders
    log2(e_k / e_{k+1}).  A single level produces one record and no order
    estimate.

    The exact ring values come from one cumulative pass over the finest
    level's ring radii (:func:`profile_values`).  Each coarser level is
    built on every 2**(top - level)-th of them, so the levels nest.  The
    data on the two circles come from two separate :func:`profile_value`
    calls, made once for all levels; nothing compares them with the
    cumulative values, and their difference (about 1e-9 at most) enters
    ``max_error`` only at the outer circle.

    The data are constant on each circle, so each level is solved by
    :func:`lingrowth.solver._ring_started_solve` without a base, from the
    level's ring solution.  Each record carries the column's Newton steps
    as ``column_iterations`` next to the 2D ``iterations``.

    ``refinements`` must be an int >= 1, ``n_r0`` and ``n_theta0`` ints
    >= 3, and r_in and r_out finite reals with neck < r_in < r_out, and
    the profile must be finite (not neck-anchored on a density whose neck
    integral diverges); a bad value raises ValueError naming its key.
    """
    key = "catenoid config key {!r}".format
    refinements = ioutil.checked(ioutil.integer, refinements,
                                 key("refinements"), 1)
    n_r0 = ioutil.checked(ioutil.integer, n_r0, key("n_r0"), 3)
    n_theta0 = ioutil.checked(ioutil.integer, n_theta0, key("n_theta0"), 3)
    r_in = ioutil.checked(ioutil.real, r_in, key("r_in"))
    r_out = ioutil.checked(ioutil.real, r_out, key("r_out"))
    if not r_in > spec.neck_radius:
        raise ValueError(f"{key('r_in')}: must exceed the neck radius "
                         f"{spec.neck_radius:.12g}, got {r_in!r}")
    if not r_out > r_in:
        raise ValueError(f"{key('r_out')}: must exceed r_in = {r_in!r}, "
                         f"got {r_out!r}")
    d = normalize(d)

    # every level shares the two circles
    inner, outer = (ioutil.checked(profile_value, d, key("spec"), spec, r)
                    for r in (r_in, r_out))
    top = refinements - 1
    finest = build_polar_mesh(np.linspace(r_in, r_out, n_r0 * 2 ** top + 1),
                              n_theta0 * 2 ** top)
    finest_exact = profile_values(d, spec, finest.ring_radii)
    records = []
    errors = []
    for level in range(refinements):
        n_r = n_r0 * 2 ** level
        n_theta = n_theta0 * 2 ** level
        stride = 2 ** (top - level)
        mesh = (finest if level == top
                else build_polar_mesh(finest.ring_radii[::stride], n_theta))
        sol, ring, _ = _ring_started_solve(d, mesh, inner, outer)
        exact = mesh.from_rings(finest_exact[::stride, None])
        err = float(np.max(np.abs(sol.values - exact)))
        errors.append(err)
        records.append({
            "level": level, "n_r": n_r, "n_theta": n_theta,
            "h": mesh.h_radial, "max_error": err,
            "iterations": sol.iterations,
            "column_iterations": ring.iterations,
            "converged": sol.converged,
        })

    orders = [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])
              if b > 0.0]
    checks = {"all_converged": all(r["converged"] for r in records)}
    if orders:
        checks["order_at_least_1.8"] = bool(min(orders) >= 1.8)

    return ExperimentReport(
        kind="catenoid_reproduction",
        records=records,
        reference=None,
        orders=orders,
        checks=checks,
        metadata={
            "density_label": d.label,
            "spec": spec.to_config(),
            "r_in": r_in, "r_out": r_out,
            "n_r0": n_r0, "n_theta0": n_theta0,
            "timestamp": ioutil.deterministic_timestamp(),
        },
    )


# ---------------------------------------------------------------------------
# comparison suite


def run_comparison_suite(d: Density, trials: int, seed: int, *,
                         r_in: float = 0.5, r_out: float = 1.0,
                         n_r: int = 16, n_theta: int = 48,
                         fourier_degree: int = 4) -> ExperimentReport:
    """Randomized discrete comparison-principle checks on an annulus.

    Each trial draws truncated Fourier data (degree <= fourier_degree,
    coefficients uniform in [-1, 1]) for both circles of both fields u
    and v, both solved on one mesh.  The shift is the largest boundary
    gap u - v, so u <= v + shift holds exactly at every boundary node;
    the record's ``max_violation`` is the largest interior u - v - shift,
    and the trial holds when it is at most 1e-8 + 10 h^2.

    For densities with convergent neck integral one structured scenario
    follows: a catenoid barrier is anchored at the inner circle with its
    offset chosen so the barrier matches the constant outer data, the
    solved field's inner data is pinned strictly below the barrier's neck
    value, and the solution must stay under the barrier nodewise.

    ``trials`` must be an int >= 1, ``fourier_degree`` an int >= 0 and
    ``r_in`` > 0; the mesh keys are checked by
    :func:`lingrowth.mesh.uniform_shape`.
    A bad value raises ValueError naming its key.
    """
    what = "comparison config key {!r}".format
    trials = ioutil.checked(ioutil.integer, trials, what("trials"), 1)
    fourier_degree = ioutil.checked(ioutil.integer, fourier_degree,
                                    what("fourier_degree"), 0)
    mesh = build_polar_mesh(*uniform_shape(r_in, r_out, n_r, n_theta,
                                           "comparison config"))
    if mesh.is_disk:  # the suite needs an inner circle
        raise ValueError(f"{what('r_in')}: must be > 0, got {r_in!r}")
    d = normalize(d)
    h = mesh.h_radial
    tol = 1e-8 + 10.0 * h * h
    rng = np.random.default_rng(seed)

    inner_angles = mesh.node_angles()[mesh.inner_nodes()]
    outer_angles = mesh.node_angles()[mesh.outer_nodes()]
    interior = mesh.interior_nodes()

    records = []
    complete = True
    for trial in range(trials):
        coeffs = [_draw_fourier(rng, fourier_degree) for _ in range(4)]
        u_inner = fourier_values(inner_angles, coeffs[0])
        u_outer = fourier_values(outer_angles, coeffs[1])
        v_inner = fourier_values(inner_angles, coeffs[2])
        v_outer = fourier_values(outer_angles, coeffs[3])
        shift = float(max(np.max(u_inner - v_inner),
                          np.max(u_outer - v_outer)))
        try:
            u = solve_dirichlet(d, mesh, _dirichlet(mesh, u_inner, u_outer))
            v = solve_dirichlet(d, mesh, _dirichlet(mesh, v_inner, v_outer))
        except NonConvergenceError:
            complete = False
            records.append({"trial": trial, "shift": shift, "holds": False,
                            "max_violation": None, "converged": False})
            continue
        worst = float(np.max(u.values[interior] - v.values[interior] - shift))
        records.append({
            "trial": trial, "shift": shift, "holds": worst <= tol,
            "max_violation": worst, "converged": True,
        })

    scenario = None
    if d.growth is Growth.FINITE_INTEGRAL:
        scenario = _barrier_scenario(d, mesh, tol)

    checks = {
        "complete": complete,
        "all_trials_hold": all(r["holds"] for r in records),
    }
    if scenario is not None:
        checks["barrier_scenario_holds"] = scenario["holds"]

    return ExperimentReport(
        kind="comparison",
        records=records,
        reference=scenario,
        orders=[],
        checks=checks,
        metadata={
            "density_label": d.label,
            "trials": trials, "seed": seed,
            # the radii as floats, whether given as ints or floats
            "r_in": float(r_in), "r_out": float(r_out),
            "n_r": len(mesh.ring_radii) - 1, "n_theta": mesh.n_theta,
            "tolerance": tol,
            "timestamp": ioutil.deterministic_timestamp(),
        },
    )


# constant outer data of the barrier scenario, and its inner margin as a
# fraction of the barrier's climb from the inner to the outer circle
_SCENARIO_OUTER = 0.0
_SCENARIO_MARGIN_FRACTION = 0.1


def _barrier_scenario(d: Density, mesh: PolarMesh, tol: float) -> dict:
    """Pin a solve under a catenoid barrier anchored at the inner circle.

    The barrier's neck coincides with the inner circle (alpha = r_in^{n-1})
    and its offset makes it match ``_SCENARIO_OUTER`` on the outer circle.
    The solved field shares the outer data and takes inner data one margin
    below the barrier's neck value -- the strongest inner data for which
    the ordering can survive discretization.  Checked nodewise on every
    circle against quadrature barrier values: the offset minus the rise of
    the PLUS profile, taken for every ring in one :func:`profile_values`
    pass.  The climb is the rise at the outer circle, so the barrier meets
    the outer data exactly.
    """
    outer_value = _SCENARIO_OUTER
    n = 2
    alpha = float(mesh.ring_radii[0]) ** (n - 1)
    rise = profile_values(
        d, CatenoidSpec(Sign.PLUS, alpha, 0.0, n, Anchor.NECK),
        mesh.ring_radii[1:])
    climb = float(rise[-1])
    offset = outer_value + climb
    margin = _SCENARIO_MARGIN_FRACTION * climb

    inner_value = offset - margin
    sol = solve_dirichlet(d, mesh, _dirichlet(mesh, inner_value, outer_value))

    # the inner circle sits at the neck, where the rise is 0
    per_ring = offset - np.concatenate(([0.0], rise))
    gap = mesh.rings(sol.values) - per_ring[:, None]
    max_violation = float(np.max(gap))
    return {
        "alpha": alpha,
        "offset": offset,
        "inner_value": inner_value,
        "outer_value": outer_value,
        "margin": margin,
        "max_violation": max_violation,
        "holds": bool(max_violation <= tol),
        "converged": sol.converged,
    }
