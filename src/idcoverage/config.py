"""JSON run configurations -> domain objects.

A family maps each ``kind`` to its public constructor, whose signature
declares the kind's fields: a parameter without a default is required, one
named after a family is built from a nested object, and other fields are
refused.  Errors name the field by its dotted path in the file.
"""

import inspect
import math

import numpy as np

from . import corr, levy, onoff, stats
from .errors import PreconditionError, finite

_MAX_PRODUCT_THETAS = 6**6  # the default theta grid's six values on six epochs


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
    # the config field alpha is the spec's alpha_exp: check it under the field's name
    "array": {"power_example": lambda mu, alpha, b: onoff.OnOffArraySpec(
                  "power_example", mu, alpha_exp=finite(alpha, "alpha", "(0, 1)"), b=b),
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


def _finite_values(values, loc, name):
    """``values``, named ``name`` within field ``loc``, as a 1-d float array
    of finite numbers, else a ConfigError "<loc>: expected finite numbers"
    that says which value failed."""
    try:
        return finite(values, name, vector=True)
    except PreconditionError as exc:
        raise ConfigError(f"{loc}: expected finite numbers; {exc}") from exc


def thetas_from_config(d, n, path=""):
    """Explicit theta vectors under "thetas", or a per-coordinate product
    grid under "theta_grid" (a single list is broadcast to all coordinates).
    Every value must be a finite number; a bool or a numeric string is not.
    A product of over _MAX_PRODUCT_THETAS vectors is refused unbuilt."""
    if "thetas" not in d and "theta_grid" not in d:
        raise ConfigError(f"{path}thetas/theta_grid: one of the two is required")
    field = "thetas" if "thetas" in d else "theta_grid"
    loc, seq = f"{path}{field}", d[field]
    if not isinstance(seq, list) or not seq:
        raise ConfigError(f"{loc}: expected a nonempty list")
    if isinstance(seq[0], list):
        lists = [_finite_values(v, loc, f"{loc}[{i}]") for i, v in enumerate(seq)]
    elif field == "theta_grid":
        lists = [_finite_values(seq, loc, loc)] * n
    else:
        # one theta vector, or on one epoch one value per vector
        flat = _finite_values(seq, loc, loc)
        lists = list(flat[:, None]) if n == 1 else [flat]
    if field == "theta_grid":
        if len(lists) != n:
            raise ConfigError(f"{loc}: need one coordinate grid per epoch ({n})")
        total = math.prod(v.size for v in lists)
        if total > _MAX_PRODUCT_THETAS:
            raise ConfigError(f"{loc}: the product grid would hold {total:,} theta vectors, "
                              f"more than {_MAX_PRODUCT_THETAS:,}; set thetas or a smaller grid")
        return stats.theta_product_grid(lists)
    if any(v.size != n for v in lists):
        raise ConfigError(f"{loc}: each theta vector must have length {n}")
    return np.array(lists)
