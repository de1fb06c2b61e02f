"""In-memory span tracer for the traced benchmark mode.

The tracer replaces public gpexpect names with wrappers at the place
where callers look them up (``gpexpect.design`` for the loop's calls,
``gpexpect.gp`` for the hyperparameter objective, ``gpexpect.benchmarks``
for the reference oracle, and the kernel functions imported into ``gp``
and ``acquisition``).  Nothing under ``src/`` changes.  Each wrapper
records a span (name, start, end, parent span, run id) in plain lists;
the spans are written to disk only when the benchmark ends.

Diagnostics the package reports silently are counted from outside:
``maximize``'s RuntimeWarning about abandoned starts, exceptions out of
any wrapped call (``<span>.failed``), and fits that needed jitter.
"""

from __future__ import annotations

import contextlib
import importlib
import re
import time
import warnings
from collections import Counter

import numpy as np

# module -> {attribute: span name}.  Both multi-theta forms share the
# single-theta span names: they are the value/gradient the optimizer sees.
WRAPPED = {
    "gpexpect.design": {
        "step": "design.step",
        "select_hyperparameters": "gp.select_hyperparameters",
        "fit": "gp.fit",
        "build_context": "acquisition.build_context",
        "acquisition_value": "acquisition.value",
        "multi_theta_acquisition": "acquisition.value",
        "acquisition_gradient": "acquisition.gradient",
        "multi_theta_gradient": "acquisition.gradient",
        "maximize": "optimize.maximize",
        "mixture_starts": "optimize.mixture_starts",
    },
    "gpexpect.gp": {"log_marginal_likelihood": "gp.log_marginal_likelihood"},
    "gpexpect.benchmarks": {
        "benchmark_problem": "benchmarks.benchmark_problem",
        "mc_expectation": "oracles.mc_expectation",
    },
}

# kernel function -> point pairs it evaluated, read off its result
KERNEL_PAIRS = {
    "eval_kernel": lambda r: 1,
    "eval_kernel_scaled": lambda r: 1,
    "kernel_vector": lambda r: r.shape[0],
    "kernel_vector_jacobian": lambda r: r.shape[0],
    "kernel_cross": lambda r: r.size,
    "kernel_matrix": lambda r: r.size,
}
KERNEL_NAMESPACES = ("gpexpect.gp", "gpexpect.acquisition")

BLACK_BOX_SPAN = "design.black_box"

_ABANDONED = re.compile(r"(\d+) of \d+ optimizer starts abandoned")


def _layer(span_name: str) -> str:
    # the black box is the caller's function, not package time
    return "black_box" if span_name == BLACK_BOX_SPAN else span_name.split(".")[0]


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.runs: list = []
        self.counts: Counter = Counter()
        self.run_id = -1
        self._open = [-1]
        self._saved: list = []

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        finally:
            self.ends[idx] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- installation ---------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every listed name that the package currently exports."""
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr, span in names.items():
                if hasattr(module, attr):
                    observed = self._observer(attr, getattr(module, attr))
                    self._patch(module, attr, self.wrap(span, observed))
        for module_name in KERNEL_NAMESPACES:
            module = importlib.import_module(module_name)
            for attr, pairs in KERNEL_PAIRS.items():
                if hasattr(module, attr):
                    observed = self._kernel(getattr(module, attr), pairs)
                    self._patch(module, attr, self.wrap("kernels." + attr, observed))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _observer(self, attr: str, fn):
        if attr == "fit":
            return self._jitter(fn)
        if attr == "maximize":
            return self._abandoned(fn)
        return fn

    def _jitter(self, fit):
        def observed(*args, **kwargs):
            gp = fit(*args, **kwargs)
            if gp.jitter > 0:
                self.counts["gp.fit.jittered"] += 1
            return gp

        return observed

    def _abandoned(self, maximize):
        def observed(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = maximize(*args, **kwargs)
            for w in caught:
                match = _ABANDONED.match(str(w.message))
                if match:
                    self.counts["optimize.abandoned_starts"] += int(match.group(1))
                else:
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            return result

        return observed

    def _kernel(self, fn, pairs):
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["kernels.rows_evaluated"] += pairs(np.asarray(result))
            return result

        return observed

    # -- reporting ------------------------------------------------------

    def _arrays(self):
        table = sorted(set(self.names))
        code = {name: i for i, name in enumerate(table)}
        names = np.array([code[n] for n in self.names], dtype=np.int32)
        starts = np.array(self.starts)
        ends = np.array(self.ends)
        parents = np.array(self.parents, dtype=np.int64)
        runs = np.array(self.runs, dtype=np.int32)
        return table, names, starts, ends, parents, runs

    def save(self, path) -> None:
        """Write every span as columns of a compressed ``.npz`` file."""
        table, names, starts, ends, parents, runs = self._arrays()
        np.savez_compressed(
            path, name_table=np.array(table), name=names, start=starts, end=ends,
            parent=parents, run=runs,
        )

    def summary(self) -> dict:
        """Calls, busy (inclusive) and self seconds per span name and per layer.

        Self time is a span's duration minus the durations of its direct
        children.  Layer self times cover spans inside seeded runs only.
        """
        table, names, starts, ends, parents, runs = self._arrays()
        dur = ends - starts
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_s = dur - child
        per_name = {}
        for i, name in enumerate(table):
            mask = names == i
            per_name[name] = {
                "calls": int(mask.sum()),
                "busy_s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
            }
        per_layer: Counter = Counter()
        in_loop = runs >= 0
        for i, name in enumerate(table):
            per_layer[_layer(name)] += float(self_s[(names == i) & in_loop].sum())
        return {"names": per_name, "layers": dict(per_layer), "spans": len(self.names)}
