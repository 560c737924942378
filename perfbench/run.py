"""Benchmark of the idcoverage CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; it reads and writes only inside the checkout that holds
it, under ``.perfbench_out/``.  Each measured unit is one child Python
process (``perfbench/child.py``) that runs ``idcoverage.cli.main`` once,
single-threaded, on a config generated from (workload, seed).  Children run
one after another until ``--seconds`` is used, and at least three times.

Every invocation passes a gate outside its timed window: exit code 0, the
expected artifacts, their statistical check against an oracle of the
package, and a sha256 equal to that of every other invocation of the same
workload, seed and source.  A failed gate counts in ``failed`` and is never
retried.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, as
medians over the invocations.  ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics: self times of the spans in
``spans.py``, counts, and the set-up/layer/remainder split of the traced
wall time.  The last line of standard output is the JSON result; the lines
before it print every metric by name and unit, and the run's facts.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import layer_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_INVOCATIONS = 3       # median, and a determinism check within the run
MIN_TRACE_PAIRS = 1
MAX_MEASURE_S = 100       # never start a unit after this, whatever --seconds says
CHILD_TIMEOUT_S = 60
# The workloads are single-threaded: --threads 1, and BLAS on one thread.
CHILD_ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# per-layer metric -> span name whose self time it reports
SELF_TIMES = {
    "config.build_s": "config.build",
    "corr.weights_s": "corr.weights",
    "levy.sample_increment_s": "levy.sample_increment",
    "levy.eval_s": "levy.eval",
    "fidi.sample_self_s": "fidi.sample",
    "fidi.log_cf_s": "fidi.log_cf",
    "mginf.simulate_s": "mginf.simulate",
    "mginf.log_cf_s": "mginf.log_cf",
    "onoff.superpose_s": "onoff.superpose",
    "onoff.row_joint_log_cf_s": "onoff.row_joint_log_cf",
    "onoff.convergence_study_self_s": "onoff.convergence_study",
    "onoff.check_assumptions_s": "onoff.check_assumptions",
    "stats.empirical_cf_s": "stats.empirical_cf",
    "rng.run_batched_self_s": "rng.run_batched",
    "cli.write_s": "cli.write",
    "trace.bookkeeping_s": "trace.bookkeeping",
}
CALLS = {
    "corr.weights_calls": "corr.weights",
    "levy.sample_increment_calls": "levy.sample_increment",
}
# per-layer metrics derived from the config rather than measured
COMPUTED = ("mginf.arrivals_drawn", "mginf.useful_arrival_ratio",
            "onoff.states_drawn", "onoff.on_ratio")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "idcoverage").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit or "unknown (not a git checkout)",
    }


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed, src_digest):
        self.w = workload
        self.conf = workload.config(seed)
        self.work = OUT / workload.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.conf_path = self.work / "config.json"
        self.conf_path.write_text(json.dumps(self.conf, indent=1, sort_keys=True))
        conf_digest = hashlib.sha256(json.dumps(self.conf, sort_keys=True).encode()).hexdigest()
        self.hash_key = f"{workload.name}|seed={seed}|config={conf_digest}|src={src_digest}"
        self.hash_store = OUT / "hashes.json"
        stored = json.loads(self.hash_store.read_text()) if self.hash_store.exists() else {}
        self.reference = stored.get(self.hash_key)
        self.checked = {}          # artifact digest -> problems from the statistical gate
        self.records = []

    def invoke(self, traced):
        """One child process: time it, then gate its artifacts."""
        paths = {name: self.work / name for name in self.w.artifacts}
        result = self.work / "child.json"
        for p in (*paths.values(), result):
            p.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result)]
        cmd += ["--trace"] if traced else []
        cmd += ["--", self.w.command, "--config", str(self.conf_path),
                "--out", str(self.work / self.w.out), "--threads", "1"]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=CHILD_ENV, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rec = {"traced": traced, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
            self.records.append(rec)
            return rec
        wall = time.monotonic() - start

        rec = {"traced": traced, "wall_s": wall, "problems": []}
        self.records.append(rec)
        if proc.returncode != 0:
            rec["problems"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        if not result.exists():
            rec["problems"].append("child wrote no result")
            return rec
        child = json.loads(result.read_text())
        rec["child"] = child
        rec["peak_rss_mb"] = child["maxrss_kb"] / 1024.0
        if child["missing"]:
            rec["missing"] = child["missing"]
        if child["setup_end"] is None:
            rec["problems"].append("set-up marker never reached (missing entry points: "
                                   f"{', '.join(child['missing']) or 'none'})")
        else:
            rec["setup_s"] = child["setup_end"] - start
        if rec["problems"]:
            return rec

        absent = [n for n, p in paths.items() if not p.is_file()]
        if absent:
            rec["problems"].append(f"missing artifacts: {absent}")
            return rec
        rec["sha256"] = {n: sha256_file(p) for n, p in paths.items()}
        digest = hashlib.sha256(json.dumps(rec["sha256"], sort_keys=True).encode()).hexdigest()
        rec["digest"] = digest
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            rec["problems"].append(f"artifact digest {digest[:16]} differs from "
                                   f"{self.reference[:16]} of an earlier run at this seed")
        if digest not in self.checked:
            self.checked[digest] = self.w.check(self.conf, paths)
        rec["problems"] += self.checked[digest]
        return rec

    def save_reference(self):
        stored = json.loads(self.hash_store.read_text()) if self.hash_store.exists() else {}
        if self.reference is not None and self.hash_key not in stored:
            stored[self.hash_key] = self.reference
            self.hash_store.write_text(json.dumps(stored, indent=1, sort_keys=True))

    def measure(self, seconds, unit, min_units):
        start = time.monotonic()
        longest = 0.0
        units = 0
        while True:
            t = time.monotonic()
            unit()
            units += 1
            longest = max(longest, time.monotonic() - t)
            elapsed = time.monotonic() - start
            if elapsed + longest > MAX_MEASURE_S:
                break
            if units >= min_units and elapsed + longest > seconds:
                break

    @property
    def failed(self):
        return sum(1 for r in self.records if r["problems"])


def tail_note(values):
    """Highest order statistic with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    v = sorted(values)
    return f"n={n}, p{100.0 * (n - 10) / n:.0f}={v[n - 11]:.6g}"


def timed(records):
    """Invocations that passed their gate; if none did, those that were timed,
    so that a failing program still reports figures next to ``correct: false``."""
    return ([r for r in records if not r["problems"]]
            or [r for r in records if "setup_s" in r])


def end_to_end(run):
    """Per-invocation series of each end-to-end metric."""
    good = timed(run.records)
    if not good:
        return None
    rows = run.w.rows(run.conf)
    return {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "reps_per_s": [rows / r["wall_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


def per_layer(run, computed, missing):
    """Medians over the traced invocations of each per-layer metric."""
    traced = timed([r for r in run.records if r["traced"]])
    untraced = timed([r for r in run.records if not r["traced"]])
    if not traced or not untraced:
        return None
    per_inv = []
    for r in traced:
        child = r["child"]
        self_s, calls, attributed, batches = layer_times(child["spans"], child["setup_end"])
        v = {m: self_s.get(s, 0.0) for m, s in SELF_TIMES.items()}
        v.update({m: calls.get(s, 0) for m, s in CALLS.items()})
        unattributed = r["wall_s"] - r["setup_s"] - attributed
        v.update({
            "rng.batches": batches,
            "stats.ecf_terms": child["ecf_terms"],
            "stats.distinct_row_ratio":
                child["distinct_rows"] / child["ecf_rows"] if child["ecf_rows"] else 0.0,
            "cli.bytes_written": child["bytes_written"],
            "trace.wall_s": r["wall_s"],
            "trace.setup_s": r["setup_s"],
            "trace.layers_s": attributed,
            "trace.unattributed_s": unattributed,
            "trace.attributed_frac": (r["setup_s"] + attributed) / r["wall_s"],
        })
        per_inv.append(v)
    values = {k: statistics.median(d[k] for d in per_inv) for k in per_inv[0]}
    values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.missing_entry_points"] = len(missing)
    values.update({name: computed.get(name, 0.0) for name in COMPUTED})
    return values


def run_workload(w, args, spec, facts, src_digest):
    run = Run(w, args.seed, src_digest)
    subprocess.run([sys.executable, str(HERE / "child.py"), "--warmup"], env=CHILD_ENV,
                   check=True, timeout=CHILD_TIMEOUT_S)
    if args.trace:
        run.measure(args.seconds, lambda: (run.invoke(False), run.invoke(True)),
                    MIN_TRACE_PAIRS)
    else:
        run.measure(args.seconds, lambda: run.invoke(False), MIN_INVOCATIONS)
    run.save_reference()

    missing = sorted({m for r in run.records for m in r.get("missing", [])})
    computed = {}
    if args.trace:
        try:
            computed = w.computed(run.conf)
        except AttributeError as exc:
            missing.append(f"{w.name} computed counts: {exc}")
    for m in missing:
        print(f"missing entry point: {m}")
        print(f"missing entry point: {m}", file=sys.stderr)
    for i, r in enumerate(run.records):
        for p in r["problems"]:
            print(f"FAILED invocation {i} of {w.name}: {p}")

    if args.trace:
        values, series = per_layer(run, computed, missing), {}
    else:
        series = end_to_end(run)
        values = series and {k: statistics.median(v) for k, v in series.items()}
    if not values:
        return run, None

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        label = " (computed)" if name in computed else ""
        extra = f"  [{tail_note(series[name])}]" if name in series else ""
        print(f"{w.name}  {name} = {values[name]:.6g} {unit}{label}{extra}")
    if args.trace:
        print(f"{w.name}  set-up + layer self times = "
              f"{100 * values['trace.attributed_frac']:.1f}% of traced wall, "
              f"unattributed {values['trace.unattributed_s']:.4f} s (medians over "
              f"traced invocations)")

    record = {"facts": facts, "workload": w.name, "trace": args.trace,
              "config": run.conf, "computed": computed, "missing": missing,
              "invocations": [{k: v for k, v in r.items() if k != "child"}
                              for r in run.records],
              "metrics": metrics}
    (run.work / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return run, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "idcoverage" / "cli.py").is_file():
        print(f"error: no idcoverage sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if sorted(x["name"] for x in spec["workloads"]) != sorted(WORKLOADS):
        print("error: BENCHMARK.json workloads do not match perfbench/workloads.py",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    src_digest = source_digest()
    facts = {**machine_facts(), "seed": args.seed, "source_sha256": src_digest}
    print(json.dumps({"facts": facts}, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run, metrics = run_workload(WORKLOADS[name], args, spec, facts, src_digest)
        if metrics is None:
            print(f"error: no invocation of {name} ran to completion", file=sys.stderr)
            return 1
        results[name] = {"correct": run.failed == 0, "attempted": len(run.records),
                         "failed": run.failed, "metrics": metrics}
    if args.workload == "all":
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}))
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{n}.{m}": v for n, r in results.items()
                           for m, v in r["metrics"].items()}}
    else:
        res = results[args.workload]
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
