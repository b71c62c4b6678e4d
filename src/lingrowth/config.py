"""JSON config schema of densities.

A density is configured as {"kind": "area"} or {"kind": "mu", "mu": 3.0};
any other key is a configuration error.  Custom densities are code-only
and have no config form.  Barrier specs and solver options have their own
(:meth:`CatenoidSpec.from_config`, :meth:`SolverOptions.from_config`);
the CLI checks its other sections against tables of accepted keys.
"""

from __future__ import annotations

from .density import Density, make_area_density, make_mu_density


# accepted keys of each density kind
_KEYS = {"area": {"kind"}, "mu": {"kind", "mu"}}


def density_from_config(cfg: dict) -> Density:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError(f"density config needs a 'kind' field, got {cfg!r}")
    kind = cfg["kind"]
    if kind not in _KEYS:
        raise ValueError(f"unknown density kind {kind!r}")
    unknown = sorted(set(cfg) - _KEYS[kind])
    if unknown:
        raise ValueError(f"unknown density config key(s) for kind {kind!r}: "
                         f"{unknown}")
    if kind == "area":
        return make_area_density()
    if "mu" not in cfg:
        raise ValueError("mu density config needs a 'mu' field")
    return make_mu_density(float(cfg["mu"]))
