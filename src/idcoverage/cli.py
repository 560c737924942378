"""Command-line entry point.

Every run is driven by a JSON config file; each command takes only the flags
it reads (_COMMANDS), and --seed/--reps override the config's fields.  CSV
sample matrices and JSON reports are never overwritten without --force.
A fixed --seed yields byte-identical artifacts whatever --threads is.
"""

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import config as cfg
from . import corr, fidi, mginf, onoff, rng as rngmod, stats, verify
from .errors import BoundViolationError, PreconditionError, QuadratureError

_DEFAULT_THETA = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
_DEFAULT_THETA_MAX_EPOCHS = 6   # 6^6 = 46,656 default theta vectors
_ASSUMPTION_DEFAULTS = {"n_list": [100, 1000, 10000], "x_probe": [0.25, 0.5, 0.75],
                        "eps_list": [0.1, 0.05], "rtol_tail": 0.02}
# every top-level config field some command reads; any other is refused
_FIELDS = frozenset("""law structure grid thetas theta_grid reps seed arrival_rate
    service marks array measure n n_list x_probe eps_list rtol_tail""".split())


class CliError(Exception):
    """A usage error; exit status 2."""


def _load_config(args):
    if not args.config:
        raise CliError("--config is required for this command")
    try:
        with open(args.config) as fh:
            conf = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}")
    if not isinstance(conf, dict):
        raise cfg.ConfigError(f"{args.config}: expected an object, got {type(conf).__name__}")
    for field in conf:
        if field not in _FIELDS:
            raise cfg.ConfigError(f"{field}: unknown field")
    return conf


def _count(conf, field, least=0, default=None):
    """Config field ``field`` (else ``default``) as an int of at least
    ``least``; any other JSON value (a string, a bool, 2.5) is a
    ConfigError naming the field."""
    value = conf.get(field, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise cfg.ConfigError(f"{field}: expected an integer >= {least}, got {value!r}")
    return value


def _reps_seed(args, conf):
    """(reps, seed): each flag, else its config field; seed defaults to 0."""
    if args.reps is None and conf.get("reps") is None:
        raise CliError("reps must be given as a flag or config field")
    reps = _count(conf, "reps") if args.reps is None else args.reps
    seed = _count(conf, "seed", default=0) if args.seed is None else args.seed
    return reps, seed


def _draw(args, conf, fn, batch=rngmod.DEFAULT_BATCH):
    """``fn(rng, count)`` run over the resolved reps and seed."""
    return rngmod.run_batched(fn, *_reps_seed(args, conf), stream=0, batch=batch,
                              threads=args.threads)


def _guard_out(path, force):
    if path is None:
        raise CliError("--out is required for this command")
    if os.path.exists(path) and not force:
        raise CliError(f"refusing to overwrite {path} (use --force)")
    return path


def _replace_into(path, write):
    """Run ``write(fh)`` on a temp file beside ``path``, then move it into
    place, so a failed write never leaves a partial artifact at ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _dump(obj, fh):
    json.dump(obj, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _write_json(path, obj, force):
    _guard_out(path, force)
    _replace_into(path, lambda fh: _dump(obj, fh))


def _emit_json(args, obj):
    """Write ``obj`` to --out, or to stdout when --out is not given."""
    if args.out:
        _write_json(args.out, obj, args.force)
    else:
        _dump(obj, sys.stdout)


def _write_csv(path, arr, force, header=None, integer=False):
    """Write ``arr`` as CSV under ``header``, by default x1..xn."""
    _guard_out(path, force)
    arr = np.atleast_2d(arr)
    if header is None:
        header = ",".join(f"x{k + 1}" for k in range(arr.shape[1]))
    _replace_into(path, lambda fh: np.savetxt(
        fh, arr, delimiter=",", header=header, comments="",
        fmt="%d" if integer else "%.17g"))


def _thetas(conf, n):
    """Theta vectors from the config, else the default product grid on
    up to _DEFAULT_THETA_MAX_EPOCHS epochs.  Call before sampling."""
    if "thetas" in conf or "theta_grid" in conf:
        return cfg.thetas_from_config(conf, n)
    if n > _DEFAULT_THETA_MAX_EPOCHS:
        raise CliError(
            f"the default theta grid would hold {len(_DEFAULT_THETA)}^{n} vectors "
            f"on {n} epochs; set theta_grid or thetas in the config")
    return stats.theta_product_grid([_DEFAULT_THETA] * n)


def _assumptions(conf):
    """check_assumptions' settings: the config's fields, else the defaults."""
    return {field: conf.get(field, value) for field, value in _ASSUMPTION_DEFAULTS.items()}


def cmd_cf_eval(args):
    conf = _load_config(args)
    law = cfg.law_from_config(conf.get("law", {}), "law")
    structure = cfg.structure_from_config(conf.get("structure", {}), "structure")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    thetas = cfg.thetas_from_config(conf, len(grid))
    proc = fidi.CoverageProcess(law, structure)
    vals = proc.log_cf(grid, thetas)
    vals = np.atleast_1d(vals)
    _emit_json(args, [{"theta": thetas[i].tolist(), "re": float(vals[i].real),
                       "im": float(vals[i].imag)} for i in range(thetas.shape[0])])
    return 0


def cmd_sample(args):
    conf = _load_config(args)
    law = cfg.law_from_config(conf.get("law", {}), "law")
    structure = cfg.structure_from_config(conf.get("structure", {}), "structure")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    _guard_out(args.out, args.force)  # refuse before sampling, not after
    proc = fidi.CoverageProcess(law, structure)
    samples = _draw(args, conf, lambda rng, count: proc.sample(grid, rng, size=count))
    _write_csv(args.out, samples, args.force)
    return 0


def cmd_simulate_coverage(args):
    conf = _load_config(args)
    service = cfg.service_from_config(conf.get("service", {}), "service")
    marks = conf.get("marks")
    marks = cfg.mark_from_config(marks, "marks") if marks is not None else None
    if "arrival_rate" not in conf:
        raise CliError("arrival_rate must be set in the config")
    model = mginf.MGInfinityModel(conf["arrival_rate"], service, marks)
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    # refuse before sampling, not after a long run
    thetas = _thetas(conf, len(grid))
    _guard_out(args.out, args.force)
    report_path = _guard_out(os.path.splitext(args.out)[0] + ".json", args.force)
    samples = _draw(args, conf, lambda rng, count: model.simulate(grid, rng, size=count))
    _write_csv(args.out, samples, args.force, integer=marks is None)
    values = np.asarray(samples, dtype=float)
    emp = stats.empirical_cf(values, thetas)
    analytic = np.exp(np.atleast_1d(model.log_cf(grid, thetas)))
    report = stats.cf_report(emp, stats.cf_distance(emp, analytic))
    report["rho"] = model.rho
    report["epoch_means"] = values.mean(axis=0).tolist()
    report["epoch_variances"] = values.var(axis=0, ddof=1).tolist()
    _write_json(report_path, report, args.force)
    return 0


def cmd_simulate_onoff(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    if "n" not in conf:
        raise CliError("n (row size) must be set in the config")
    n = _count(conf, "n", least=1)
    _guard_out(args.out, args.force)  # refuse before sampling, not after
    samples = _draw(args, conf, lambda rng, count: onoff.superpose(
        spec, n, grid, rng, reps=count), batch=onoff.row_batch(n))
    _write_csv(args.out, samples, args.force)
    return 0


def cmd_check_array(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    nu = cfg.measure_from_config(conf.get("measure", {}), "measure")
    _emit_json(args, onoff.check_assumptions(spec, nu=nu, **_assumptions(conf)))
    return 0


def cmd_convergence(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    nu = cfg.measure_from_config(conf.get("measure", {}), "measure")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    settings = _assumptions(conf)
    reps, seed = _reps_seed(args, conf)
    thetas = _thetas(conf, len(grid))
    # refuse before the study, not after it
    _guard_out(args.out, args.force)
    table_path = _guard_out(os.path.splitext(args.out)[0] + ".csv", args.force)
    report = onoff.convergence_study(spec, nu, spec.mu, grid, thetas,
                                     settings["n_list"], reps, seed, threads=args.threads)
    report["assumptions"] = onoff.check_assumptions(spec, nu=nu, **settings)
    _write_json(args.out, report, args.force)
    rows = report["rows"]
    table = np.array([[r["n"], r["sup"], r["l2"], r["analytic_bias"]] for r in rows])
    _write_csv(table_path, table, args.force, header="n,sup,l2,analytic_bias")
    return 0


def cmd_verify(args):
    results = verify.run_all() if args.seed is None else verify.run_all(int(args.seed))
    failed = 0
    for res in results:
        tag = "PASS" if res.ok else "FAIL"
        print(f"{tag} {res.name} ({res.detail})")
        if not res.ok:
            failed += 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _nonnegative(text):
    """argparse type of --seed and --reps: a usage error below 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--seed": dict(type=_nonnegative, help="RNG seed (overrides config)"),
    "--reps": dict(type=_nonnegative, help="replication count (overrides config)"),
    "--out": dict(help="output path"),
    "--force": dict(action="store_true", help="allow overwriting existing outputs"),
    "--threads": dict(type=int, default=1, help="worker threads (never changes results)"),
}
_FILE_FLAGS = ("--config", "--out", "--force")
_COMMANDS = (
    ("cf-eval", cmd_cf_eval, _FILE_FLAGS),
    ("sample", cmd_sample, tuple(_FLAGS)),
    ("simulate-coverage", cmd_simulate_coverage, tuple(_FLAGS)),
    ("simulate-onoff", cmd_simulate_onoff, tuple(_FLAGS)),
    ("check-array", cmd_check_array, _FILE_FLAGS),
    ("convergence", cmd_convergence, tuple(_FLAGS)),
    # verify runs on one thread; it takes --threads only because
    # test_criterion_11_thread_reproducibility passes it
    ("verify", cmd_verify, ("--seed", "--threads")),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idcoverage",
        description="Stationary ID coverage processes: CF evaluation, exact "
                    "sampling, infinite-server and on/off simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags in _COMMANDS:
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, QuadratureError, BoundViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
