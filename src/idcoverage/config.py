"""JSON run configurations -> domain objects.

A family maps each ``kind`` to its public constructor, whose signature
declares the kind's fields: a parameter without a default is required, one
named after a family is built from a nested object, and other fields are
refused.  Errors name the field by its dotted path in the file.
"""

import inspect

import numpy as np

from . import corr, levy, onoff, stats


class ConfigError(ValueError):
    """A configuration field is missing or invalid."""


def _wrap(path, builder, *args, **kwargs):
    try:
        return builder(*args, **kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_KINDS = {
    "law": {"gaussian": levy.gaussian, "poisson": levy.poisson,
            "compound_poisson": levy.compound_poisson, "gamma": levy.gamma_law,
            "spectrally_positive": levy.spectrally_positive},
    "mark": {"point_mass": levy.MarkDistribution.point_mass,
             "discrete": levy.MarkDistribution.discrete,
             "normal": levy.MarkDistribution.normal},
    "measure": {"atomic": levy.LevyMeasure.atomic, "reciprocal": levy.reciprocal_measure},
    "service": {"exponential": corr.ServiceDistribution.exponential,
                "deterministic": corr.ServiceDistribution.deterministic,
                "pareto_truncated": corr.ServiceDistribution.pareto_truncated,
                "discrete": corr.ServiceDistribution.discrete},
    "structure": {"exponential": corr.exponential_structure, "power": corr.power_structure,
                  "integrated_tail": corr.integrated_tail_structure,
                  "mixture": corr.mixture_structure},
    "array": {"power_example": lambda mu, alpha, b: onoff.OnOffArraySpec(
                  "power_example", mu, alpha_exp=alpha, b=b),
              "explicit": lambda mu, rows: onoff.OnOffArraySpec("explicit", mu, rows=rows)},
}

# defaults the config grants where the constructor has none
_DEFAULTS = {levy.gaussian: {"beta": 0.0}, levy.MarkDistribution.normal: {"mean": 0.0}}


def _components(comps, path):
    if not isinstance(comps, list) or not comps:
        raise ConfigError(f"{path}: expected a nonempty list")
    for i, comp in enumerate(comps):
        if not isinstance(comp, dict):
            raise ConfigError(f"{path}[{i}]: expected an object")
        for field in ("weight", "structure"):
            if field not in comp:
                raise ConfigError(f"{path}[{i}].{field}: required field is missing")
    return [(c["weight"], _build("structure", c["structure"], f"{path}[{i}].structure"))
            for i, c in enumerate(comps)]


def _rows(rows, path):
    if not isinstance(rows, dict):
        raise ConfigError(f"{path}: expected an object keyed by row size")
    try:
        return {int(k): [tuple(p) for p in v] for k, v in rows.items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_ADAPTERS = {"components": _components, "rows": _rows}


def _build(family, d, path):
    """The object that ``d`` describes, built by its kind's constructor."""
    kinds = _KINDS[family]
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object, got {type(d).__name__}")
    kind = d.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind: expected one of {sorted(kinds)}, got {kind!r}")
    make = kinds[kind]
    params = inspect.signature(make).parameters
    for field in d:
        if field != "kind" and field not in params:
            raise ConfigError(f"{path}.{field}: unknown field")
    kwargs = dict(_DEFAULTS.get(make, {}))
    for name, param in params.items():
        at = f"{path}.{name}"
        if name in d:
            value = d[name]
            if name in _KINDS:
                value = _build(name, value, at)
            elif name in _ADAPTERS:
                value = _ADAPTERS[name](value, at)
            kwargs[name] = value
        elif name not in kwargs and param.default is param.empty:
            raise ConfigError(f"{at}: required field is missing")
    return _wrap(path, make, **kwargs)


def mark_from_config(d, path="marks"):
    return _build("mark", d, path)


def measure_from_config(d, path="measure"):
    return _build("measure", d, path)


def law_from_config(d, path="law"):
    return _build("law", d, path)


def service_from_config(d, path="service"):
    return _build("service", d, path)


def structure_from_config(d, path="structure"):
    return _build("structure", d, path)


def array_from_config(d, path="array"):
    return _build("array", d, path)


def grid_from_config(seq, path="grid"):
    if not isinstance(seq, (list, tuple)) or not seq:
        raise ConfigError(f"{path}: expected a nonempty list of epochs")
    return _wrap(path, corr.TimeGrid, tuple(seq))


def thetas_from_config(d, n, path=""):
    """Explicit theta vectors under "thetas", or a per-coordinate product
    grid under "theta_grid" (a single list is broadcast to all coordinates)."""
    loc = f"{path}thetas" if "thetas" in d else f"{path}theta_grid"
    if "thetas" in d:
        rows = d["thetas"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError(f"{loc}: expected a nonempty list")
        if not isinstance(rows[0], list):
            rows = [[v] for v in rows] if n == 1 else [rows]
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != n:
            raise ConfigError(f"{loc}: each theta vector must have length {n}")
        return arr
    if "theta_grid" in d:
        per = d["theta_grid"]
        if not isinstance(per, list) or not per:
            raise ConfigError(f"{loc}: expected a nonempty list")
        if isinstance(per[0], (int, float)):
            per = [per] * n
        if len(per) != n:
            raise ConfigError(f"{loc}: need one coordinate grid per epoch ({n})")
        return stats.theta_product_grid(per)
    raise ConfigError(f"{path}thetas/theta_grid: one of the two is required")
