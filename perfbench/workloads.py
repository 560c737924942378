"""The four workloads: config generation, correctness gates, computed counts.

Each workload is one CLI command on a config made from the seed alone; the
seed reaches the program only as the config's ``seed`` field.  The gates
compare the artifacts with oracles the package already has and return a
list of problems (empty when the artifacts pass).  The computed counts are
derived from the config, not measured, and are labelled so in the output.
"""

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

GRID4 = [0.0, 0.5, 1.0, 2.0]
FIDI_EPOCHS = 50
FIDI_PAIRS = ((0, 1), (0, FIDI_EPOCHS - 1), (20, 21), (10, 40))
FIDI_THETAS = (-1.0, -0.5, 0.5, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], dict]
    rows: Callable[[dict], int]           # sample rows one invocation produces
    out: str                              # the CLI's --out file name
    artifacts: tuple                      # every file the invocation writes
    check: Callable[[dict, dict], list]   # (config, artifact paths) -> problems
    computed: Callable[[dict], dict]      # config -> computed counts


def _read_csv(path, ncols, nrows, dtype=float):
    problems = []
    with open(path) as fh:
        header = fh.readline().strip()
    want = ",".join(f"x{k + 1}" for k in range(ncols))
    if header != want:
        problems.append(f"{path.name}: header {header[:40]!r}, expected {want[:40]!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=dtype, ndmin=2)
    if data.shape != (nrows, ncols):
        problems.append(f"{path.name}: shape {data.shape}, expected {(nrows, ncols)}")
    return data, problems


# ---- M/G/inf occupancy (simulate-coverage) ------------------------------

def _mginf_config(service, rate, reps, theta_grid=None):
    def make(seed):
        conf = {"arrival_rate": rate, "service": service, "grid": GRID4,
                "reps": reps, "seed": seed}
        if theta_grid is not None:
            conf["theta_grid"] = theta_grid
        return conf
    return make


def _mginf_check(conf, paths):
    reps = conf["reps"]
    _, problems = _read_csv(paths["out.csv"], len(conf["grid"]), reps, dtype=np.int64)
    with open(paths["out.json"]) as fh:
        report = json.load(fh)
    thetas = len(conf["theta_grid"]) ** len(conf["grid"]) if "theta_grid" in conf \
        else 6 ** len(conf["grid"])
    if report.get("n_samples") != reps:
        problems.append(f"report n_samples {report.get('n_samples')}, expected {reps}")
    if len(report.get("estimates", [])) != thetas:
        problems.append(f"report has {len(report.get('estimates', []))} estimates, "
                        f"expected {thetas}")
    sup = report.get("distances", {}).get("sup")
    if sup is None or not sup <= 4.0 / np.sqrt(reps):
        problems.append(f"distances.sup {sup} above 4/sqrt(N) = {4.0 / np.sqrt(reps):.5f}")
    return problems


def _mginf_computed(conf):
    from idcoverage import config as cfg, mginf
    model = mginf.MGInfinityModel(conf["arrival_rate"],
                                  cfg.service_from_config(conf["service"]))
    grid = cfg.grid_from_config(conf["grid"])
    per_rep = model.arrival_rate * (grid.t[-1] - grid.t[0] + model.window())
    return {"mginf.arrivals_drawn": per_rep * conf["reps"],
            "mginf.useful_arrival_ratio": float(model.mu_rect(grid).sum()) / per_rep}


# ---- exact fidi sampling (sample) ----------------------------------------

def _fidi_config(seed):
    return {"law": {"kind": "gamma"},
            "structure": {"kind": "power", "alpha": 0.5},
            "grid": [round(0.1 * k, 10) for k in range(FIDI_EPOCHS)],
            "reps": 15_000, "seed": seed}


def _fidi_check(conf, paths):
    from idcoverage import config as cfg, fidi
    reps, n = conf["reps"], len(conf["grid"])
    data, problems = _read_csv(paths["out.csv"], n, reps)
    if problems:
        return problems
    proc = fidi.CoverageProcess(cfg.law_from_config(conf["law"]),
                                cfg.structure_from_config(conf["structure"]))
    grid = cfg.grid_from_config(conf["grid"])
    pair_thetas = np.array([(a, b) for a in FIDI_THETAS for b in FIDI_THETAS])
    bound = 4.0 / np.sqrt(reps)
    for i, j in FIDI_PAIRS:
        emp = np.exp(1j * data[:, [i, j]] @ pair_thetas.T).mean(axis=0)
        full = np.zeros((len(pair_thetas), n))
        full[:, [i, j]] = pair_thetas
        exact = np.exp(proc.log_cf(grid, full))
        worst = float(np.abs(emp - exact).max())
        if not worst <= bound:
            problems.append(f"epochs ({i},{j}): empirical CF off by {worst:.5f} "
                            f"> 4/sqrt(N) = {bound:.5f}")
    return problems


def _fidi_computed(conf):
    return {}


# ---- ON/OFF row sums against the limit law (convergence) ------------------

def _onoff_config(seed):
    return {"array": {"kind": "power_example", "mu": 1.0, "alpha": 0.5, "b": 0.5},
            "measure": {"kind": "reciprocal", "b": 0.5},
            "grid": [0.0, 1.0], "n_list": [100, 1000, 10000],
            "reps": 20_000, "seed": seed}


def _onoff_check(conf, paths):
    with open(paths["out.json"]) as fh:
        report = json.load(fh)
    problems = []
    rows = report.get("rows", [])
    if [r.get("n") for r in rows] != conf["n_list"]:
        problems.append(f"report rows {[r.get('n') for r in rows]}, expected {conf['n_list']}")
        return problems
    if report.get("n_reps") != conf["reps"]:
        problems.append(f"report n_reps {report.get('n_reps')}, expected {conf['reps']}")
    allowance = report.get("mc_allowance", 0.0)
    for r in rows:
        if not abs(r["sup"] - r["analytic_bias"]) <= allowance:
            problems.append(f"n={r['n']}: |sup - analytic_bias| = "
                            f"{abs(r['sup'] - r['analytic_bias']):.5f} > {allowance:.5f}")
    sups = [r["sup"] for r in rows]
    if any(b > a for a, b in zip(sups, sups[1:])):
        problems.append(f"sup increases with n: {sups}")
    table = np.loadtxt(paths["out.csv"], delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (len(rows), 4):
        problems.append(f"out.csv: shape {table.shape}, expected {(len(rows), 4)}")
    return problems


def _onoff_computed(conf):
    from idcoverage import config as cfg
    spec = cfg.array_from_config(conf["array"])
    m = len(conf["grid"])
    lam, _ = spec.row(max(conf["n_list"]))
    return {"onoff.states_drawn": float(sum(conf["reps"] * n * m for n in conf["n_list"])),
            "onoff.on_ratio": float(np.mean(lam / (lam + spec.mu)))}


WORKLOADS = {w.name: w for w in (
    Workload("mginf-light-ecf", "simulate-coverage",
             _mginf_config({"kind": "exponential", "rate": 1.0}, 2.0, 30_000),
             lambda c: c["reps"], "out.csv", ("out.csv", "out.json"),
             _mginf_check, _mginf_computed),
    Workload("mginf-heavy-sim", "simulate-coverage",
             _mginf_config({"kind": "pareto_truncated", "shape": 4.0, "scale": 1.0},
                           1.0, 150_000, theta_grid=[-1.0, 1.0]),
             lambda c: c["reps"], "out.csv", ("out.csv", "out.json"),
             _mginf_check, _mginf_computed),
    Workload("fidi-longgrid", "sample", _fidi_config,
             lambda c: c["reps"], "out.csv", ("out.csv",),
             _fidi_check, _fidi_computed),
    Workload("onoff-convergence", "convergence", _onoff_config,
             lambda c: c["reps"] * len(c["n_list"]), "out.json", ("out.json", "out.csv"),
             _onoff_check, _onoff_computed),
)}
