"""Command-line entry point.

Every run is driven by a JSON config file; the common flags override the
matching config fields (flag wins).  Simulation commands write CSV sample
matrices and JSON reports; nothing is overwritten unless --force is given.
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


class CliError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _load_config(args):
    if not args.config:
        raise CliError("--config is required for this command")
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}")


def _resolve(args, conf, field, default=None, required=False):
    """Flag > config file > default."""
    flag = getattr(args, field, None)
    if flag is not None:
        return flag
    if field in conf:
        return conf[field]
    if required:
        raise CliError(f"{field} must be given as a flag or config field")
    return default


def _guard_out(path, force):
    if path is None:
        raise CliError("--out is required for this command")
    if os.path.exists(path) and not force:
        raise CliError(f"refusing to overwrite {path} (use --force)")
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return path


def _replace_into(path, write):
    """Run ``write(fh)`` on a temp file beside ``path``, then move it into
    place, so a failed write never leaves a partial artifact at ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_json(path, obj, force):
    _guard_out(path, force)

    def write(fh):
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _replace_into(path, write)


def _write_csv(path, arr, header, force, integer=False):
    _guard_out(path, force)
    arr = np.atleast_2d(arr)
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


def _sibling(path, suffix):
    base, _ = os.path.splitext(path)
    return base + suffix


def cmd_cf_eval(args):
    conf = _load_config(args)
    law = cfg.law_from_config(conf.get("law", {}), "law")
    structure = cfg.structure_from_config(conf.get("structure", {}), "structure")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    thetas = cfg.thetas_from_config(conf, len(grid))
    proc = fidi.CoverageProcess(law, structure)
    vals = proc.log_cf(grid, thetas)
    vals = np.atleast_1d(vals)
    out = [{"theta": thetas[i].tolist(), "re": float(vals[i].real),
            "im": float(vals[i].imag)} for i in range(thetas.shape[0])]
    if args.out:
        _write_json(args.out, out, args.force)
    else:
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_sample(args):
    conf = _load_config(args)
    law = cfg.law_from_config(conf.get("law", {}), "law")
    structure = cfg.structure_from_config(conf.get("structure", {}), "structure")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    reps = int(_resolve(args, conf, "reps", required=True))
    seed = int(_resolve(args, conf, "seed", 0))
    _guard_out(args.out, args.force)  # refuse before sampling, not after
    proc = fidi.CoverageProcess(law, structure)
    samples = rngmod.run_batched(
        lambda rng, count: proc.sample(grid, rng, size=count),
        reps, seed, stream=0, threads=args.threads)
    header = ",".join(f"x{k + 1}" for k in range(len(grid)))
    _write_csv(args.out, samples, header, args.force)
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
    reps = int(_resolve(args, conf, "reps", required=True))
    seed = int(_resolve(args, conf, "seed", 0))
    # refuse before sampling, not after a long run
    thetas = _thetas(conf, len(grid))
    _guard_out(args.out, args.force)
    report_path = _guard_out(_sibling(args.out, ".json"), args.force)
    samples = rngmod.run_batched(
        lambda rng, count: model.simulate(grid, rng, size=count),
        reps, seed, stream=0, threads=args.threads)
    header = ",".join(f"x{k + 1}" for k in range(len(grid)))
    _write_csv(args.out, samples, header, args.force, integer=marks is None)
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
    n = int(conf["n"])
    reps = int(_resolve(args, conf, "reps", required=True))
    seed = int(_resolve(args, conf, "seed", 0))
    _guard_out(args.out, args.force)  # refuse before sampling, not after
    samples = rngmod.run_batched(
        lambda rng, count: onoff.superpose(spec, n, grid, rng, reps=count),
        reps, seed, stream=0, batch=onoff.row_batch(n), threads=args.threads)
    header = ",".join(f"x{k + 1}" for k in range(len(grid)))
    _write_csv(args.out, samples, header, args.force)
    return 0


def cmd_check_array(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    nu = cfg.measure_from_config(conf.get("measure", {}), "measure")
    n_list = conf.get("n_list", [100, 1000, 10000])
    x_probe = conf.get("x_probe", [0.25, 0.5, 0.75])
    eps_list = conf.get("eps_list", [0.1, 0.05])
    rtol = conf.get("rtol_tail", 0.02)
    report = onoff.check_assumptions(spec, n_list, x_probe, eps_list, nu,
                                     rtol_tail=rtol)
    if args.out:
        _write_json(args.out, report, args.force)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


def cmd_convergence(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    nu = cfg.measure_from_config(conf.get("measure", {}), "measure")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    mu = conf.get("mu", spec.mu)
    n_list = conf.get("n_list", [100, 1000, 10000])
    reps = int(_resolve(args, conf, "reps", required=True))
    seed = int(_resolve(args, conf, "seed", 0))
    thetas = _thetas(conf, len(grid))
    # refuse before the study, not after it
    _guard_out(args.out, args.force)
    table_path = _guard_out(_sibling(args.out, ".csv"), args.force)
    report = onoff.convergence_study(spec, nu, mu, grid, thetas, n_list, reps,
                                     seed, threads=args.threads)
    report["assumptions"] = onoff.check_assumptions(
        spec, n_list, conf.get("x_probe", [0.25, 0.5, 0.75]),
        conf.get("eps_list", [0.1, 0.05]), nu)
    _write_json(args.out, report, args.force)
    rows = report["rows"]
    table = np.array([[r["n"], r["sup"], r["l2"], r["analytic_bias"]] for r in rows])
    _write_csv(table_path, table, "n,sup,l2,analytic_bias", args.force)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idcoverage",
        description="Stationary ID coverage processes: CF evaluation, exact "
                    "sampling, infinite-server and on/off simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_out=True):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (overrides config)")
        p.add_argument("--reps", type=int, default=None,
                       help="replication count (overrides config)")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--force", action="store_true",
                       help="allow overwriting existing outputs")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (never changes results)")
        p.set_defaults(fn=fn)
        return p

    add("cf-eval", cmd_cf_eval)
    add("sample", cmd_sample)
    add("simulate-coverage", cmd_simulate_coverage)
    add("simulate-onoff", cmd_simulate_onoff)
    add("check-array", cmd_check_array)
    add("convergence", cmd_convergence)
    add("verify", cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, QuadratureError, BoundViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
