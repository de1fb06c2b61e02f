"""Closed-loop benchmark of gpexpect's sequential design.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  One process
runs one seeded loop at a time with BLAS pinned to one thread.

``--trace 0`` measures the end-to-end metrics.  It runs passes over the
workload's fixed panel of loops until ``--seconds`` is used up (at least
one pass) and times every decision: the gap between the return of one
black-box call and the start of the next.  Its times are process CPU
seconds at the nominal host speed (``hostspeed.py``).  Its inputs do not
depend on ``--seed``.  ``--trace 1`` runs ``TRACE_LOOPS`` loops with config seeds
derived from ``--seed``, each once untraced and once under the span
tracer, and reports per-layer counts and times.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat every metric with
its unit, the sample counts and the environment.  The exit code is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

N0 = 5
# kernel and noise for the pinned workload; with these a decision costs
# about a second, nearly all of it in maximize and acquisition calls
BRANIN_THETA = {"amplitude_sq": 2500.0, "lengthscales": (4.0, 4.0), "noise": 1e-4}
# relative tolerance of sigma1_k^2 = sigma1_{k-1}^2 - acquisition_at_chosen
TELESCOPE_RTOL = 1e-8
# p90 is reported only from at least this many decisions
P90_MIN_DECISIONS = 100
# set-ups per run, each in a fresh interpreter; setup_s is their median
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    """One loop configuration.

    ``panel`` holds the config seeds of the untraced run.  They are fixed
    because the work per loop depends strongly on the seed (on
    ``pinned_branin_2d`` from 12k to 26k acquisition calls), which would
    swamp the timing spread, and because final errors are heavy-tailed
    across seeds.  On fixed seeds both are compared seed for seed across
    commits, and a change that keeps histories identical reads exactly
    equal on the quality metrics.
    """

    problem: str
    budget: int
    panel: tuple
    pinned: bool = False
    theta_samples: int = 1


WORKLOADS = {
    # acquisition + optimize do ~all the work; hyperparameter search never runs
    "pinned_branin_2d": Workload(
        "branin_gmm", budget=10, panel=tuple(range(900, 906)), pinned=True),
    # the criterion-09 config: refits every 5 steps dominate, acquisition is light
    "refit_xsq_1d": Workload("x_squared", budget=30, panel=tuple(range(900, 910))),
    # log-gain averaged over 4 contexts, extra fits per step, default refits
    "multitheta_sin3x_1d": Workload(
        "sin3x_plus_xsq", budget=10, panel=tuple(range(900, 903)), theta_samples=4),
}
# seed-derived loops in a traced run
TRACE_LOOPS = 2


def config_seed(seed: int, index: int) -> int:
    """Config seed of the index-th seed-derived loop; never a panel seed."""
    return 1000 * (seed + 1) + index


def pin_blas_threads() -> None:
    # must run before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def set_up(workload: Workload, tracer=None, clock=time.process_time):
    """Import the package, build the problem (with its MC reference).

    Returns ``(seconds, problem, run_seeded)``, seconds by ``clock``, where
    ``run_seeded(black_box, seed)`` is one ``design.run`` of the workload.
    """
    t0 = clock()
    sys.path.insert(0, str(SRC))
    from gpexpect import benchmarks, design, gp

    if not Path(design.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"gpexpect imported from {design.__file__}, not from {SRC}")
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        problem = benchmarks.benchmark_problem(workload.problem)
    pinned = None
    if workload.pinned:
        pinned = gp.HyperparameterSample(
            kernel=gp.RbfKernel(
                amplitude_sq=BRANIN_THETA["amplitude_sq"],
                lengthscales=BRANIN_THETA["lengthscales"],
            ),
            noise=gp.NoiseModel(variance=BRANIN_THETA["noise"]),
        )

    def run_seeded(black_box, seed: int) -> list:
        cfg = design.DesignConfig(
            n0=N0, budget=workload.budget, seed=seed, pinned_theta=pinned,
            theta_samples=workload.theta_samples,
        )
        return design.run(problem.mix, black_box, cfg)

    return clock() - t0, problem, run_seeded


def scaled_set_up(workload: Workload):
    """``set_up`` timed in CPU seconds at the nominal host speed."""
    from hostspeed import SpeedSampler

    sampler = SpeedSampler()
    with sampler.running():
        return set_up(workload, clock=sampler.clock)


class RecordingBlackBox:
    """Passes calls through and records each point, value and call interval.

    Intervals are stamped twice: in wall seconds and by ``clock``.
    """

    def __init__(self, fn, clock):
        self.fn = fn
        self.clock = clock
        self.xs: list = []
        self.ys: list = []
        self.starts: list = []
        self.ends: list = []
        self.cpu_starts: list = []
        self.cpu_ends: list = []

    def __call__(self, x):
        self.starts.append(time.perf_counter())
        self.cpu_starts.append(self.clock())
        y = self.fn(x)
        self.cpu_ends.append(self.clock())
        self.ends.append(time.perf_counter())
        self.xs.append(x.copy())
        self.ys.append(y)
        return y

    def decision_gaps(self) -> list:
        """Wall seconds between each call after the initial design and the call before it."""
        return [self.starts[k] - self.ends[k - 1] for k in range(N0, len(self.starts))]

    def decision_cpu(self) -> list:
        """``clock`` seconds spent on each decision after the initial design."""
        return [self.cpu_starts[k] - self.cpu_ends[k - 1] for k in range(N0, len(self.starts))]


@dataclass
class LoopResult:
    seed: int
    wall_s: float
    cpu_s: float
    history: list
    box: RecordingBlackBox
    problems: list


def check_history(history, box: RecordingBlackBox, workload: Workload) -> list:
    """Output checks; returns a description of each violation."""
    problems = []
    if len(history) != workload.budget:
        problems.append(f"history has {len(history)} records, budget is {workload.budget}")
    if len(box.ys) != len(history):
        problems.append(f"black box called {len(box.ys)} times for {len(history)} records")
    for k, (rec, x, y) in enumerate(zip(history, box.xs, box.ys)):
        if not (math.isfinite(rec.mu1) and math.isfinite(rec.sigma1)):
            problems.append(f"record {k}: mu1={rec.mu1} sigma1={rec.sigma1} not finite")
        if rec.observed_y != y or rec.chosen_x.tolist() != x.tolist():
            problems.append(f"record {k} does not match black-box call {k}")
    if workload.pinned:
        for k in range(N0, len(history)):
            prev, rec = history[k - 1], history[k]
            predicted = prev.sigma1**2 - rec.acquisition_at_chosen
            if abs(rec.sigma1**2 - predicted) > TELESCOPE_RTOL * prev.sigma1**2:
                problems.append(
                    f"record {k}: sigma1^2={rec.sigma1**2!r} but sigma1_prev^2 - acquisition"
                    f"={predicted!r}"
                )
            if rec.sigma1 > prev.sigma1:
                problems.append(f"record {k}: sigma1 rose from {prev.sigma1!r} to {rec.sigma1!r}")
    return problems


def _estimates(loop: LoopResult) -> list:
    return [(r.observed_y, r.mu1, r.sigma1) for r in loop.history]


def run_loop(problem, workload: Workload, run_seeded, seed: int, tracer=None,
             clock=time.process_time) -> LoopResult:
    """One seeded loop; a raise is reported as a failed check."""
    fn = problem.black_box if tracer is None else tracer.wrap("design.black_box", problem.black_box)
    box = RecordingBlackBox(fn, clock)
    t0, c0 = time.perf_counter(), clock()
    try:
        if tracer is None:
            history = run_seeded(box, seed)
        else:
            history = tracer.call("design.run", run_seeded, box, seed)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return LoopResult(seed, time.perf_counter() - t0, clock() - c0, [], box,
                          [f"seed {seed}: run raised"])
    wall, cpu = time.perf_counter() - t0, clock() - c0
    problems = [f"seed {seed}: {p}" for p in check_history(history, box, workload)]
    return LoopResult(seed, wall, cpu, history, box, problems)


def probe_setup(workload_name: str) -> float:
    """Set-up seconds (``scaled_set_up``) measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded into this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            models = [line.split(":", 1)[1].strip() for line in info
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _median(values: list):
    return statistics.median(values) if values else None


def measure(workload_name: str, seconds: float) -> dict:
    from hostspeed import SpeedSampler

    workload = WORKLOADS[workload_name]
    setup_main, problem, run_seeded = scaled_set_up(workload)
    setups = [setup_main] + [probe_setup(workload_name) for _ in range(SETUP_SAMPLES - 1)]

    loops = []
    sampler = SpeedSampler()
    t_start = time.perf_counter()
    with sampler.running():
        while True:
            t_pass = time.perf_counter()
            loops += [run_loop(problem, workload, run_seeded, s, clock=sampler.clock)
                      for s in workload.panel]
            now = time.perf_counter()
            if now - t_start + (now - t_pass) > seconds:
                break

    good = [r for r in loops if not r.problems]
    finals = [r.history[-1] for r in loops[: len(workload.panel)] if not r.problems]
    gaps_ms = [1000.0 * g for r in good for g in r.box.decision_cpu()]
    wall_gaps_ms = [1000.0 * g for r in good for g in r.box.decision_gaps()]
    evals = sum(len(r.history) - N0 for r in good)
    cpu_s, wall_s = sum(r.cpu_s for r in good), sum(r.wall_s for r in good)
    metrics = {
        "evals_per_s": (evals / cpu_s if good else None, "1/s"),
        "decide_ms_p50": (_median(gaps_ms), "ms"),
        "final_abs_err_p50": (_median([abs(r.mu1 - problem.reference_q) for r in finals]), "q_units"),
        "final_sigma1_p50": (_median([r.sigma1 for r in finals]), "q_units"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    p90 = None
    if len(gaps_ms) >= P90_MIN_DECISIONS:
        p90 = statistics.quantiles(gaps_ms, n=10, method="inclusive")[8]
    return {
        "loops": loops,
        "metrics": metrics,
        "info": {
            "seeded_runs": len(loops),
            "passes": len(loops) // len(workload.panel),
            "decisions": len(gaps_ms),
            "decide_ms_p90": p90,
            "host_speed": sampler.speed(),
            "speed_samples": len(sampler.samples),
            "speed_overhead": sampler.overhead(),
            "wall_evals_per_s": evals / wall_s if good else None,
            "wall_decide_ms_p50": _median(wall_gaps_ms),
            "setup_samples_s": setups,
            "reference_q": problem.reference_q,
            "env": environment(),
        },
    }


def measure_traced(workload_name: str, seed: int) -> dict:
    """Paired untraced/traced loops on ``TRACE_LOOPS`` seed-derived seeds."""
    from tracing import Tracer

    workload = WORKLOADS[workload_name]
    tracer = Tracer()
    _, problem, run_seeded = set_up(workload, tracer)
    loops, plain_cpu, traced_cpu, evals = [], 0.0, 0.0, 0
    for index in range(TRACE_LOOPS):
        s = config_seed(seed, index)
        plain = run_loop(problem, workload, run_seeded, s)
        tracer.run_id = index
        with tracer.installed():
            traced = run_loop(problem, workload, run_seeded, s, tracer)
        if not plain.problems and _estimates(traced) != _estimates(plain):
            traced.problems.append(f"seed {s}: traced history differs from untraced history")
        loops += [plain, traced]
        plain_cpu += plain.cpu_s
        traced_cpu += traced.cpu_s
        evals += workload.budget - N0

    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{workload_name}-seed{seed}.npz"
    tracer.save(trace_path)
    summary = tracer.summary()
    names, layers, counts = summary["names"], summary["layers"], tracer.counts

    def span(name, key):
        return names.get(name, {}).get(key, 0)

    loop_s = span("design.run", "busy_s")
    value_calls = span("acquisition.value", "calls")
    maximize_calls = span("optimize.maximize", "calls")
    acq_opt_s = sum(span(n, "busy_s") for n in (
        "optimize.maximize", "optimize.mixture_starts", "acquisition.build_context"))
    kernel_calls = sum(v["calls"] for n, v in names.items() if n.startswith("kernels."))
    traced_eps, plain_eps = evals / traced_cpu, evals / plain_cpu
    # One rule for layers a workload may never call: counts and shares may
    # read 0 (on the pinned workload, 0 hyperparameter calls is the
    # prediction confirmed), but no metric in seconds belongs to such a
    # layer, because a time that reads 0 on every run is not a measurement.
    # select_hyperparameters (never called on pinned_branin_2d) and
    # mc_expectation (never called on refit_xsq_1d) are therefore carried
    # by their calls and by share.select_hyperparameters and
    # benchmarks.benchmark_problem.busy_s.
    metrics = {
        "gp.select_hyperparameters.calls": (span("gp.select_hyperparameters", "calls"), "count"),
        "gp.log_marginal_likelihood.calls": (span("gp.log_marginal_likelihood", "calls"), "count"),
        "gp.log_marginal_likelihood.failed": (counts["gp.log_marginal_likelihood.failed"], "count"),
        "gp.fit.calls": (span("gp.fit", "calls"), "count"),
        "gp.fit.busy_s": (span("gp.fit", "busy_s"), "s"),
        "gp.fit.jittered": (counts["gp.fit.jittered"], "count"),
        "acquisition.build_context.calls": (span("acquisition.build_context", "calls"), "count"),
        "acquisition.build_context.busy_s": (span("acquisition.build_context", "busy_s"), "s"),
        "acquisition.value.calls": (value_calls, "count"),
        "acquisition.value.busy_s": (span("acquisition.value", "busy_s"), "s"),
        "acquisition.gradient.calls": (span("acquisition.gradient", "calls"), "count"),
        "acquisition.gradient.busy_s": (span("acquisition.gradient", "busy_s"), "s"),
        "optimize.maximize.calls": (maximize_calls, "count"),
        "optimize.maximize.self_s": (span("optimize.maximize", "self_s"), "s"),
        "optimize.value_calls_per_maximize": (
            value_calls / maximize_calls if maximize_calls else 0.0, "count"),
        "optimize.abandoned_starts": (counts["optimize.abandoned_starts"], "count"),
        "optimize.mixture_starts.busy_s": (span("optimize.mixture_starts", "busy_s"), "s"),
        "kernels.calls": (kernel_calls, "count"),
        "kernels.rows_evaluated": (counts["kernels.rows_evaluated"], "count"),
        "design.step.self_s": (span("design.step", "self_s"), "s"),
        "design.black_box.calls": (span("design.black_box", "calls"), "count"),
        "design.black_box.busy_s": (span("design.black_box", "busy_s"), "s"),
        "oracles.mc_expectation.calls": (span("oracles.mc_expectation", "calls"), "count"),
        "benchmarks.benchmark_problem.busy_s": (
            span("benchmarks.benchmark_problem", "busy_s"), "s"),
        "design.self_s": (layers.get("design", 0.0), "s"),
        "gp.self_s": (layers.get("gp", 0.0), "s"),
        "acquisition.self_s": (layers.get("acquisition", 0.0), "s"),
        "optimize.self_s": (layers.get("optimize", 0.0), "s"),
        "kernels.self_s": (layers.get("kernels", 0.0), "s"),
        "loop_s": (loop_s, "s"),
        "share.select_hyperparameters": (
            span("gp.select_hyperparameters", "busy_s") / loop_s, "share"),
        "share.acquisition_optimize": (acq_opt_s / loop_s, "share"),
        "trace.evals_per_s": (traced_eps, "1/s"),
        "trace.untraced_evals_per_s": (plain_eps, "1/s"),
        "trace.overhead_evals_per_s": (plain_eps - traced_eps, "1/s"),
        "trace.spans": (summary["spans"], "count"),
    }
    return {
        "loops": loops,
        "metrics": metrics,
        "info": {
            "seeded_runs": len(loops),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "env": environment(),
        },
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gpexpect" / "__init__.py").is_file():
        print(f"error: no gpexpect sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.setup_probe:
        print(scaled_set_up(WORKLOADS[args.workload])[0])
        return 0

    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seconds)
    loops = result["loops"]
    problems = [p for r in loops for p in r.problems]
    failed = sum(1 for r in loops if r.problems)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key, value in result["info"].items():
        print(f"{key} {json.dumps(value)}")
    print(f"failed_frac {failed / len(loops)!r} ({failed} of {len(loops)} seeded runs)")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(loops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
