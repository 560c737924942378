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
from .errors import BoundViolationError, PreconditionError, count, finite

_DEFAULT_THETA = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
# values per block of whole rows that _write_csv formats at once: the float
# kernel's temporaries take about 250 bytes a value, so about 2 MB
_CSV_BLOCK_VALUES = 2**13
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


@contextlib.contextmanager
def _top_level_fields():
    """Report a failed check of a top-level config field as a ConfigError;
    the check's message names the field."""
    try:
        yield
    except PreconditionError as exc:
        raise cfg.ConfigError(str(exc)) from exc


def _reps_seed(args, conf, least=0):
    """(reps, seed): each flag, else its config field; seed defaults to 0.
    reps below ``least`` is a usage error."""
    if args.reps is None and conf.get("reps") is None:
        raise CliError("reps must be given as a flag or config field")
    with _top_level_fields():
        reps = count(conf.get("reps"), "reps") if args.reps is None else args.reps
        seed = count(conf.get("seed", 0), "seed") if args.seed is None else args.seed
    if reps < least:
        raise CliError(f"{args.command} needs reps >= {least}, got {reps}")
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


def _replace_into(path, write, mode="w"):
    """Run ``write(fh)`` on a temp file beside ``path``, opened in ``mode``,
    then move it into place, so a failed write never leaves a partial
    artifact at ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    try:
        with open(tmp, mode) as fh:
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


def _split(a):
    """Dekker's split: hi + lo == a, each with at most 26 significant bits."""
    t = 134217729.0 * a   # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _python_text(values):
    """'%.17g' of each of ``values``, one Python call each: the float
    kernel's fallback."""
    return ["%.17g" % v for v in values]


def _float_csv():
    """The float kernel: a function that gives the CSV text of a 2-D block
    of floats as one uint8 array of bytes, each value in '%.17g' and then
    ',', or a newline at the end of a row.  Its tables are built here, once
    per write, not once per block.

    For 1e-4 <= |x| < 1e17, '%.17g' is fixed notation: with k the decimal
    exponent of |x|, the 17 digits are m = round(|x| * 10**(16 - k)), and
    trailing zeros and a bare point are dropped.  10**(16 - k) is an exact
    double for k in [-4, 16], so Dekker's two-product gives |x| * 10**(16 - k)
    exactly as p + e, and m is p plus e rounded (p is an integer above
    2**53).  The digits come from a table of 4-digit groups and are laid
    out by k with uint64 shifts.  Python's own '%.17g' formats the rest:
    zero, NaN, infinities, |x| outside that range, exact ties (e one half
    off an integer), a carry of m to 10**17, and any value whose k is still
    off after one correction.  So the text is '%.17g''s, byte for byte.
    """
    u64 = np.uint64
    group = np.arange(10_000)
    ascii4 = (48 + np.stack([group // 1000, group // 100 % 10, group // 10 % 10,
                             group % 10], axis=1)).astype(np.uint8)
    ascii4 = ascii4.view("<u4").ravel().astype(u64)   # first digit lowest
    ascii4_hi = ascii4 << u64(32)
    zeros4 = sum((group % d == 0) for d in (10, 100, 1000)).astype(np.int8)
    zeros4[0] = 4                                       # trailing zeros
    scale = np.array([float(10**j) for j in range(21)])
    scale_hi, scale_lo = _split(scale)
    # A value is a 32-byte record, four little-endian words: the sign at
    # byte 0, its digits and point from byte 1, the separator at byte 31.
    # The digit words w0..w2 hold "000" d0 at bytes 4..7 and d1..d16 at
    # bytes 8..23.  Per k (row k + 4): the fixed bytes, the mask of the
    # digits before the point (w >> 6 bytes) and of the digits after it
    # (w >> tail bytes), and the tail shift in bits.
    layout = np.zeros((21, 3, 24), np.uint8)
    tail = (8 * (5 + np.minimum(np.arange(-4, 17), 0))).astype(u64)
    for k in range(-4, 17):
        fixed, head, rest = layout[k + 4]
        fixed[0] = ord("-")
        if k < 0:   # "-0." and -k - 1 zeros before d0
            fixed[1:3] = (ord("0"), ord("."))
            rest[3:23] = 255
        else:       # d0..dk, the point, d(k+1)..d16
            fixed[k + 2] = ord(".")
            head[1:k + 2] = 255
            rest[k + 3:23] = 255
    layout = layout.view("<u8").reshape(21, 9)
    # bytes kept of a record, by 32 * (starts at the sign) + end of its text
    byte = np.arange(32)
    keep = (byte >= 1 - np.arange(2)[:, None, None]) & (byte < byte[:, None]) | (byte == 31)
    keep = keep.reshape(64, 32).view("V32").ravel()

    def scaled(v, j):
        p = v * scale[j]
        vh, vl = _split(v)
        sh, sl = scale_hi[j], scale_lo[j]
        e = vh * sh - p
        e += vh * sl
        e += vl * sh
        e += vl * sl
        return p, e   # p + e == v * 10**j exactly

    def in_range(p, e):   # 1e16 <= p + e < 1e17, exactly
        return ((p - 1e16) + e >= 0) & ((p - 1e17) + e < 0)

    def digits(x):
        """(m, k, python): the 17 digits m and the exponent k of each |x|,
        and where Python must format x instead (m and k are then
        meaningless)."""
        v = np.abs(x)
        python = (v < 1e-4) | ~(v < 1e17)
        v[python] = 1.0
        k = np.floor(np.log10(v))
        j = (16 - np.clip(k, -4, 16, out=k)).astype(np.intp)
        p, e = scaled(v, j)
        off = np.flatnonzero(~in_range(p, e))   # log10 one off near 10**k
        if off.size:
            j[off] += np.where((p[off] - 1e16) + e[off] < 0, 1, -1)
            p[off], e[off] = scaled(v[off], j[off])
            python[off[~in_range(p[off], e[off])]] = True
        r = np.rint(e)
        python |= np.abs(e - r) == 0.5
        m = p.astype(np.int64) + r.astype(np.int64)
        python |= m == 10**17   # a carry; no double in range rounds up to it
        return m, 16 - j, python

    def divmod_(a, d):   # np.divmod takes twice as long
        q = a // d
        return q, a - q * d

    def words(m):
        """(w0, w1, w2, last): the digit words of m, and its last nonzero
        digit."""
        hi, lo = divmod_(m, 10**8)   # m's digits: lead g1 g2 g3 g4
        hi, g2 = divmod_(hi, 10**4)
        lead, g1 = divmod_(hi, 10**4)
        g3, g4 = divmod_(lo, 10**4)
        zeros = zeros4[g1]
        for g in (g2, g3, g4):
            zeros[g != 0] = 0
            zeros += zeros4[g]
        return (ascii4_hi[lead], ascii4[g1] | ascii4_hi[g2], ascii4[g3] | ascii4_hi[g4],
                16 - zeros)

    def block_text(block):
        x = np.asarray(block, dtype=np.float64).reshape(-1)
        m, k, python = digits(x)
        w0, w1, w2, last = words(m)
        end = np.where(last > k, last + 3 - np.minimum(k, 0), k + 2) + 32 * (x < 0)
        lay = np.take(layout, k + 4, axis=0)
        s = tail[k + 4]
        out = np.empty((m.size, 4), "<u8")
        out[:, 0] = lay[:, 0] | ((w0 >> u64(48)) | (w1 << u64(16))) & lay[:, 3] \
            | ((w0 >> s) | (w1 << (u64(64) - s))) & lay[:, 6]
        out[:, 1] = lay[:, 1] | ((w1 >> u64(48)) | (w2 << u64(16))) & lay[:, 4] \
            | ((w1 >> s) | (w2 << (u64(64) - s))) & lay[:, 7]
        out[:, 2] = lay[:, 2] | (w2 >> u64(48)) & lay[:, 5] | (w2 >> s) & lay[:, 8]
        out[:, 3] = u64(ord(",") << 56)
        out[block.shape[1] - 1::block.shape[1], 3] = u64(ord("\n") << 56)
        rows = np.flatnonzero(python)
        if rows.size:
            text = _python_text(x[rows].tolist())
            out[rows, :3] = np.array(text, dtype="S24").view("<u8").reshape(-1, 3)
            end[rows] = [32 + len(t) for t in text]
        return out.view(np.uint8).reshape(-1)[keep.take(end).view(bool)]

    return block_text


def _write_csv(path, arr, force, header=None):
    """Write ``arr`` as CSV under ``header``, by default x1..xn: integers
    as %d, floats as %.17g, in the bytes np.savetxt writes (it applies the
    same ``%`` format one row at a time).  This is the one block loop: each
    block of whole rows is formatted at once, integers and rows of no values
    by one ``%`` call, floats by the _float_csv kernel.  So besides ``arr``
    the write holds the temporaries of one block: _CSV_BLOCK_VALUES values,
    or one row when a row is wider."""
    _guard_out(path, force)
    arr = np.atleast_2d(arr)
    ncols = arr.shape[1]
    if header is None:
        header = ",".join(f"x{k + 1}" for k in range(ncols))
    if ncols and not np.issubdtype(arr.dtype, np.integer):
        block_text = _float_csv()
    else:
        line = ",".join(["%d"] * ncols) + "\n"

        def block_text(block):
            return ((line * len(block)) % tuple(block.ravel().tolist())).encode()
    rows = max(1, _CSV_BLOCK_VALUES // max(ncols, 1))

    def write(fh):
        if header:
            fh.write(header.encode() + b"\n")
        for start in range(0, arr.shape[0], rows):
            fh.write(block_text(arr[start:start + rows]))

    _replace_into(path, write, "wb")


def _thetas(conf, n):
    """Theta vectors from the config, else the product grid of _DEFAULT_THETA,
    under the same cap as a configured theta_grid.  Call before sampling."""
    if "thetas" not in conf and "theta_grid" not in conf:
        conf = {"theta_grid": _DEFAULT_THETA}
    return cfg.thetas_from_config(conf, n)


def _check_rows(spec, field, ns):
    """Refuse a row in ``ns`` that an explicit ``spec`` lacks, naming config ``field``."""
    for n in ns:
        if spec.kind == "explicit" and n not in spec.rows:
            raise cfg.ConfigError(f"{field}: row {n} is not defined in the explicit array")


def _assumptions(conf, spec):
    """check_assumptions' settings: the config's fields, else the defaults.
    n_list holds whole numbers >= 1, rows of ``spec``, x_probe and eps_list
    finite numbers > 0, each in a nonempty list, and rtol_tail is a finite
    number >= 0, else a ConfigError names the field.  Call before sampling."""
    settings = {field: conf.get(field, value) for field, value in _ASSUMPTION_DEFAULTS.items()}
    for field in ("n_list", "x_probe", "eps_list"):
        if not isinstance(settings[field], list) or not settings[field]:
            raise cfg.ConfigError(f"{field}: expected a nonempty list, got {settings[field]!r}")
    with _top_level_fields():
        settings["n_list"] = [count(n, "n_list", least=1) for n in settings["n_list"]]
        for field in ("x_probe", "eps_list"):
            settings[field] = finite(settings[field], field, "(0, inf)", vector=True).tolist()
        settings["rtol_tail"] = finite(settings["rtol_tail"], "rtol_tail", "[0, inf)")
    _check_rows(spec, "n_list", settings["n_list"])
    return settings


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
    with _top_level_fields():
        model = mginf.MGInfinityModel(conf["arrival_rate"], service, marks)
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    # refuse before sampling, not after a long run
    thetas = _thetas(conf, len(grid))
    _reps_seed(args, conf, least=2)   # the report holds sample variances
    _guard_out(args.out, args.force)
    report_path = _guard_out(os.path.splitext(args.out)[0] + ".json", args.force)
    samples = _draw(args, conf, lambda rng, count: model.simulate(grid, rng, size=count))
    _write_csv(args.out, samples, args.force)
    # integer counts go to the estimator as they are, never copied to float
    emp = stats.empirical_cf(samples, thetas)
    analytic = np.exp(np.atleast_1d(model.log_cf(grid, thetas)))
    report = stats.cf_report(emp, stats.cf_distance(emp, analytic))
    report["rho"] = model.rho
    report["epoch_means"] = samples.mean(axis=0).tolist()
    report["epoch_variances"] = samples.var(axis=0, ddof=1).tolist()
    _write_json(report_path, report, args.force)
    return 0


def cmd_simulate_onoff(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    if "n" not in conf:
        raise CliError("n (row size) must be set in the config")
    with _top_level_fields():
        n = count(conf["n"], "n", least=1)
    _check_rows(spec, "n", [n])
    _guard_out(args.out, args.force)  # refuse before sampling, not after
    samples = _draw(args, conf, lambda rng, count: onoff.superpose(
        spec, n, grid, rng, reps=count), batch=onoff.row_batch(n))
    _write_csv(args.out, samples, args.force)
    return 0


def cmd_check_array(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    nu = cfg.measure_from_config(conf.get("measure", {}), "measure")
    _emit_json(args, onoff.check_assumptions(spec, nu=nu, **_assumptions(conf, spec)))
    return 0


def cmd_convergence(args):
    conf = _load_config(args)
    spec = cfg.array_from_config(conf.get("array", {}), "array")
    nu = cfg.measure_from_config(conf.get("measure", {}), "measure")
    grid = cfg.grid_from_config(conf.get("grid"), "grid")
    settings = _assumptions(conf, spec)
    reps, seed = _reps_seed(args, conf, least=1)
    thetas = _thetas(conf, len(grid))
    # refuse before the study, not after it
    _guard_out(args.out, args.force)
    table_path = _guard_out(os.path.splitext(args.out)[0] + ".csv", args.force)
    report = onoff.convergence_study(spec, nu, spec.mu, grid, thetas,
                                     settings["n_list"], reps, seed, threads=args.threads)
    report["assumptions"] = onoff.check_assumptions(spec, nu=nu, **settings)
    _write_json(args.out, report, args.force)
    table = np.array([[r["n"], r["sup"], r["l2"], r["analytic_bias"]] for r in report["rows"]])
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


def _at_least(least):
    """argparse type of an integer flag: a usage error below ``least``."""
    def integer(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text}")
        return int(text)
    return integer


_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--seed": dict(type=_at_least(0), help="RNG seed (overrides config)"),
    "--reps": dict(type=_at_least(0), help="replication count (overrides config)"),
    "--out": dict(help="output path"),
    "--force": dict(action="store_true", help="allow overwriting existing outputs"),
    "--threads": dict(type=_at_least(1), default=1,
                      help="worker threads (never changes results)"),
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
    except (PreconditionError, BoundViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
