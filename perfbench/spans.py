"""Spans around the package's entry points, and the layer times they give.

The child process installs the wrappers (``Tracer.install``) by replacing
module or class attributes of ``idcoverage`` after import, so nothing inside
``src/`` changes.  Every span records its name, start, end and parent span.
The parent process turns the span list into self times (``layer_times``):
a span's duration minus the time its child spans cover.

An untraced child installs only the set-up marker: a first-call timestamp
on the entry points where the CLI hands over from building objects to
sampling.
"""

import functools
import importlib
import os
import time

import numpy as np

# (module, attribute path, span name).  Several attributes may share a name.
SPANS = (
    ("idcoverage.config", "law_from_config", "config.build"),
    ("idcoverage.config", "structure_from_config", "config.build"),
    ("idcoverage.config", "service_from_config", "config.build"),
    ("idcoverage.config", "mark_from_config", "config.build"),
    ("idcoverage.config", "measure_from_config", "config.build"),
    ("idcoverage.config", "array_from_config", "config.build"),
    ("idcoverage.config", "grid_from_config", "config.build"),
    ("idcoverage.config", "thetas_from_config", "config.build"),
    ("idcoverage.corr", "weights", "corr.weights"),
    ("idcoverage.levy", "LevyExponent.sample_increment", "levy.sample_increment"),
    ("idcoverage.levy", "LevyExponent.eval", "levy.eval"),
    ("idcoverage.fidi", "CoverageProcess.sample", "fidi.sample"),
    ("idcoverage.fidi", "CoverageProcess.log_cf", "fidi.log_cf"),
    ("idcoverage.mginf", "MGInfinityModel.simulate", "mginf.simulate"),
    ("idcoverage.mginf", "MGInfinityModel.log_cf", "mginf.log_cf"),
    ("idcoverage.onoff", "superpose", "onoff.superpose"),
    ("idcoverage.onoff", "row_joint_log_cf", "onoff.row_joint_log_cf"),
    ("idcoverage.onoff", "convergence_study", "onoff.convergence_study"),
    ("idcoverage.onoff", "check_assumptions", "onoff.check_assumptions"),
    ("idcoverage.stats", "empirical_cf", "stats.empirical_cf"),
    ("idcoverage.rng", "run_batched", "rng.run_batched"),
    ("idcoverage.cli", "_write_csv", "cli.write"),
    ("idcoverage.cli", "_write_json", "cli.write"),
)

# Set-up ends at the first call of any of these: the CLI has parsed its
# arguments, loaded the config and built its objects, and starts sampling.
SETUP_END = (
    ("idcoverage.rng", "run_batched"),
    ("idcoverage.onoff", "convergence_study"),
)


def _resolve(module, path):
    """(owner, attribute name, current value) of ``module.path``."""
    owner = importlib.import_module(module)
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


class Tracer:
    """Span recorder for one child process; spans stay in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.setup_end = None
        self.ecf_terms = 0
        self.bytes_written = 0
        self._ecf_samples = []
        self.missing = []

    def install(self, traced):
        """Wrap the entry points; return the names of those not found."""
        if traced:
            for module, path, name in SPANS:
                self._patch(module, path, lambda fn, name=name: self.span(name, fn))
        for module, path in SETUP_END:
            self._patch(module, path, self._marker)
        return self.missing

    def _patch(self, module, path, make):
        try:
            owner, attr, fn = _resolve(module, path)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        setattr(owner, attr, make(fn))

    def _marker(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.setup_end is None:
                self.setup_end = time.monotonic()
            return fn(*args, **kwargs)
        return wrapper

    def span(self, name, fn):
        """``fn`` wrapped to record a span named ``name`` on each call."""
        note = {"stats.empirical_cf": self._note_ecf,
                "cli.write": self._note_write}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.monotonic(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.monotonic()
                self._stack.pop()
            if note is not None:
                note(args)
            return result
        return wrapper

    def _note_ecf(self, args):
        samples, thetas = args[0], args[1]
        self.ecf_terms += int(np.shape(samples)[0]) * int(np.shape(thetas)[0])
        self._ecf_samples.append(samples)

    def _note_write(self, args):
        self.bytes_written += os.path.getsize(args[0])

    def distinct_rows(self):
        """(distinct rows, rows) over every matrix the estimator saw.

        Runs after the CLI returns, outside the program's spans; the child
        records it as the ``trace.bookkeeping`` span.
        """
        distinct = rows = 0
        for samples in self._ecf_samples:
            arr = np.asarray(samples)
            arr = arr.reshape(arr.shape[0], -1)
            distinct += np.unique(arr, axis=0).shape[0]
            rows += arr.shape[0]
        return distinct, rows


def layer_times(spans, setup_end):
    """Self time and call count per span name, plus the time attributed
    after set-up (the sum of self times of spans that start after it).

    Batches are the spans directly under an ``rng.run_batched`` span: each
    batch makes one sampler call.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s, calls = {}, {}
    attributed = 0.0
    batches = 0
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - covered[i]
        self_s[name] = self_s.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        if start >= setup_end:
            attributed += own
        if parent >= 0 and spans[parent][0] == "rng.run_batched":
            batches += 1
    return self_s, calls, attributed, batches
