"""Command-line front end: run, benchmark, validate.

Every output file is a pure function of the config file, so reruns are
byte-identical.  Config documents are checked strictly: unknown keys are
rejected by key path rather than silently ignored, numbers must be
finite, exactly one mixture source must be present, and the seed is
mandatory (no implicit entropy).

Exit codes: 0 success, 1 validation failure, 2 config error, 3 numerical
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from gpexpect.benchmarks import available_benchmarks, benchmark_problem
from gpexpect.design import DesignConfig, run, run_random_baseline
from gpexpect.errors import GpExpectError, InsufficientDataError
from gpexpect.gp import HyperparameterSample, NoiseModel, RbfKernel
from gpexpect.inputs import fit_em, gmm_from_box, mixture_from_dict
from gpexpect.mixtures import GaussianMixture
from gpexpect.optimize import BoxBounds

_EXIT_OK = 0
_EXIT_VALIDATION = 1
_EXIT_CONFIG = 2
_EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Raised for any schema or consistency problem in a config document."""


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _require(doc: dict, key: str, path: str = "config"):
    if key not in doc:
        raise ConfigError(f"{path}: missing required key '{key}'")
    return doc[key]


def _check_keys(doc: dict, allowed, path: str = "config") -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _as_int(value, key: str, minimum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"config: '{key}' must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config: '{key}' must be >= {minimum}")
    return value


def _as_number(value, key: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"config: '{key}' must be a number")
    # NaN is left to the range check of the class that takes the value
    if abs(value) > sys.float_info.max:
        raise ConfigError(f"config: '{key}' must be finite")
    return float(value)


def _as_numbers(value, key: str):
    """``value`` with each leaf of its nested objects and arrays checked by :func:`_as_number`."""
    if isinstance(value, dict):
        return {k: _as_numbers(v, f"{key}.{k}") for k, v in value.items()}
    if isinstance(value, list):
        return [_as_numbers(v, f"{key}[{i}]") for i, v in enumerate(value)]
    return _as_number(value, key)


def _require_numbers(doc: dict, key: str, name: str):
    """The required ``key`` of the ``name`` object, its leaves checked by :func:`_as_number`."""
    return _as_numbers(_require(doc, key, f"config: {name}"), f"{name}.{key}")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _build_mixture(doc: dict, dimension: int) -> GaussianMixture:
    sources = [k for k in ("mixture", "samples_file", "uniform_box") if k in doc]
    if "n_gmm" in doc and "samples_file" not in doc:
        raise ConfigError("config: 'n_gmm' only applies together with 'samples_file'")
    if len(sources) != 1:
        raise ConfigError(
            "config: exactly one mixture source required: "
            "'mixture', 'samples_file' (+ 'n_gmm'), or 'uniform_box'; "
            f"found {sources or 'none'}"
        )
    source = sources[0]
    if source == "mixture":
        spec = doc["mixture"]
        comps = spec.get("components") if isinstance(spec, dict) else None
        if not (isinstance(comps, list) and all(isinstance(c, dict) for c in comps)):
            raise ConfigError(
                "config: 'mixture' must be an object whose 'components' is a list of objects"
            )
        try:
            mix = mixture_from_dict(_as_numbers(spec, "mixture"))
        except ValueError as exc:
            raise ConfigError(f"config: mixture: {exc}") from exc
    elif source == "samples_file":
        k = _as_int(_require(doc, "n_gmm"), "n_gmm", minimum=1)
        path = doc["samples_file"]
        if not isinstance(path, str):
            raise ConfigError("config: 'samples_file' must be a path string")
        try:
            samples = np.loadtxt(path, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config: samples_file {path}: {exc}") from exc
        if samples.shape[1] != dimension:
            raise ConfigError(
                f"config: samples_file has {samples.shape[1]} columns, expected {dimension}"
            )
        try:
            mix = fit_em(samples, k=k)
        except InsufficientDataError:
            raise  # too few samples stays a numerical error (exit 3)
        except ValueError as exc:
            raise ConfigError(f"config: samples_file {path}: {exc}") from exc
    else:
        box = doc["uniform_box"]
        if not isinstance(box, dict):
            raise ConfigError("config: 'uniform_box' must be an object")
        _check_keys(box, ("lower", "upper", "per_dim"), "config: uniform_box")
        try:
            mix = gmm_from_box(
                _require_numbers(box, "lower", "uniform_box"),
                _require_numbers(box, "upper", "uniform_box"),
                _as_int(_require(box, "per_dim", "config: uniform_box"), "per_dim", minimum=1),
            )
        except ValueError as exc:
            raise ConfigError(f"config: uniform_box: {exc}") from exc
    if mix.dim != dimension:
        raise ConfigError(f"config: mixture dimension {mix.dim} != 'dimension' {dimension}")
    return mix


def _build_pinned_theta(doc: dict, dimension: int):
    if "kernel" in doc:
        if "noise_variance" not in doc:
            raise ConfigError("config: fixed 'kernel' also requires 'noise_variance'")
        spec = doc["kernel"]
        if not isinstance(spec, dict):
            raise ConfigError("config: 'kernel' must be an object")
        _check_keys(spec, ("amplitude_sq", "lengthscales"), "config: kernel")
        try:
            ker = RbfKernel(
                amplitude_sq=_as_number(_require(spec, "amplitude_sq", "config: kernel"),
                                        "kernel.amplitude_sq"),
                lengthscales=_require_numbers(spec, "lengthscales", "kernel"),
            )
            noise = NoiseModel(variance=_as_number(doc["noise_variance"], "noise_variance"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config: kernel: {exc}") from exc
        if ker.dim != dimension:
            raise ConfigError(f"config: kernel has {ker.dim} lengthscales, expected {dimension}")
        return HyperparameterSample(kernel=ker, noise=noise)
    if "noise_variance" in doc:
        raise ConfigError("config: 'noise_variance' only applies together with 'kernel'")
    return None


_RUN_KEYS = (
    "function",
    "dimension",
    "mixture",
    "samples_file",
    "n_gmm",
    "uniform_box",
    "n0",
    "budget",
    "sigma_stop",
    "kernel",
    "noise_variance",
    "theta_samples",
    "bounds",
    "seed",
    "output",
)


def _parse_common(doc: dict):
    """Shared run/benchmark parsing: problem, mixture, design config, output dir."""
    name = _require(doc, "function")
    if name not in available_benchmarks():
        raise ConfigError(
            f"config: unknown function {name!r}; available: {list(available_benchmarks())}"
        )
    dimension = _as_int(_require(doc, "dimension"), "dimension", minimum=1)
    output = _require(doc, "output")
    if not isinstance(output, str):
        raise ConfigError("config: 'output' must be a path string")
    seed = _as_int(_require(doc, "seed"), "seed", minimum=0)
    n0 = _as_int(_require(doc, "n0"), "n0", minimum=2)
    budget = _as_int(_require(doc, "budget"), "budget", minimum=n0)

    mix = _build_mixture(doc, dimension)
    problem = benchmark_problem(name)
    if problem.mix.dim != dimension:
        raise ConfigError(
            f"config: function {name!r} takes {problem.mix.dim}-d inputs, "
            f"'dimension' says {dimension}"
        )

    pinned = _build_pinned_theta(doc, dimension)

    bounds = None
    if "bounds" in doc:
        spec = doc["bounds"]
        if not isinstance(spec, dict):
            raise ConfigError("config: 'bounds' must be an object")
        _check_keys(spec, ("lower", "upper"), "config: bounds")
        try:
            bounds = BoxBounds(lower=_require_numbers(spec, "lower", "bounds"),
                               upper=_require_numbers(spec, "upper", "bounds"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config: bounds: {exc}") from exc
        if bounds.dim != dimension:
            raise ConfigError(f"config: bounds are {bounds.dim}-d, expected {dimension}")

    try:
        design = DesignConfig(
            n0=n0,
            budget=budget,
            seed=seed,
            sigma_stop=_as_number(doc.get("sigma_stop", 0.0), "sigma_stop"),
            theta_samples=_as_int(doc.get("theta_samples", 1), "theta_samples", minimum=1),
            bounds=bounds,
            pinned_theta=pinned,
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return problem, mix, design, Path(output)


def _prepare_output(out_dir: Path, names) -> None:
    """Make ``out_dir`` and check its files ``names`` before the first black-box call.

    A bad path would waste every evaluation: the directory must be
    makeable, and each file that exists already must be a regular file,
    which the write replaces.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"config: cannot make output directory {out_dir}: {exc}") from exc
    for name in names:
        path = out_dir / name
        if path.exists() and not path.is_file():
            raise ConfigError(f"config: output {path} exists and is not a regular file")


def _write_lines(path: Path, lines) -> None:
    """Write ``lines`` to ``path``, one per line; an ``OSError`` becomes a ``ConfigError``."""
    try:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"config: cannot write output file {path}: {exc}") from exc


def _write_run_csv(path: Path, records, dimension: int, q_ref: float) -> None:
    cols = ["iter"] + [f"x{j + 1}" for j in range(dimension)] + [
        "y", "mu1", "sigma1", "acq", "abs_err"
    ]
    lines = [",".join(cols)]
    for rec in records:
        row = [str(rec.iteration)]
        row += [_fmt(v) for v in np.atleast_1d(rec.chosen_x)]
        row += [
            _fmt(rec.observed_y),
            _fmt(rec.mu1),
            _fmt(rec.sigma1),
            _fmt(rec.acquisition_at_chosen),
            _fmt(abs(rec.mu1 - q_ref)),
        ]
        lines.append(",".join(row))
    _write_lines(path, lines)


def _cmd_run(config_path: str) -> int:
    doc = _load_config(config_path)
    _check_keys(doc, _RUN_KEYS)
    problem, mix, design, out_dir = _parse_common(doc)
    q_ref = problem.expectation(mix)
    _prepare_output(out_dir, ("run.csv", "summary.json"))
    records = run(mix, problem.black_box, design)

    _write_run_csv(out_dir / "run.csv", records, mix.dim, q_ref)

    final = records[-1]
    summary = {
        "function": problem.name,
        "dimension": mix.dim,
        "n0": design.n0,
        "budget": design.budget,
        "seed": design.seed,
        "evaluations": len(records),
        "stopped_early": len(records) < design.budget,
        "q_reference": q_ref,
        "q_reference_provenance": problem.provenance,
        "final_mu1": final.mu1,
        "final_sigma1": final.sigma1,
        "final_abs_err": abs(final.mu1 - q_ref),
    }
    _write_lines(out_dir / "summary.json", [json.dumps(summary, indent=2, sort_keys=True)])
    print(f"wrote {out_dir / 'run.csv'} and {out_dir / 'summary.json'}")
    print(
        f"final mu1 {_fmt(final.mu1)}, sigma1 {_fmt(final.sigma1)}, "
        f"abs err {_fmt(abs(final.mu1 - q_ref))} vs q {_fmt(q_ref)}"
    )
    return _EXIT_OK


_BENCHMARK_KEYS = _RUN_KEYS + ("seeds",)


def _cmd_benchmark(config_path: str) -> int:
    doc = _load_config(config_path)
    _check_keys(doc, _BENCHMARK_KEYS)
    problem, mix, design, out_dir = _parse_common(doc)
    n_seeds = _as_int(_require(doc, "seeds"), "seeds", minimum=1)
    q_ref = problem.expectation(mix)
    _prepare_output(out_dir, ("benchmark.csv", "benchmark_summary.csv"))

    rows = []
    finals = {"acquisition": [], "random": []}
    for i in range(n_seeds):
        cfg_i = replace(design, seed=design.seed + i)
        for strategy, runner in (("acquisition", run), ("random", run_random_baseline)):
            records = runner(mix, problem.black_box, cfg_i)
            for rec in records:
                rows.append((strategy, rec.iteration, cfg_i.seed, abs(rec.mu1 - q_ref)))
            finals[strategy].append(abs(records[-1].mu1 - q_ref))

    rows.sort(key=lambda r: (r[0], r[2], r[1]))
    lines = ["strategy,iter,seed,abs_err"]
    lines += [f"{s},{it},{sd},{_fmt(err)}" for s, it, sd, err in rows]
    _write_lines(out_dir / "benchmark.csv", lines)

    # per-iteration medians and interquartile range, one row per strategy/iter
    summary_lines = ["strategy,iter,median_abs_err,iqr_low,iqr_high"]
    for strategy in ("acquisition", "random"):
        by_iter: dict = {}
        for s, it, _, err in rows:
            if s == strategy:
                by_iter.setdefault(it, []).append(err)
        for it in sorted(by_iter):
            errs = np.array(by_iter[it])
            summary_lines.append(
                f"{strategy},{it},{_fmt(np.median(errs))},"
                f"{_fmt(np.percentile(errs, 25))},{_fmt(np.percentile(errs, 75))}"
            )
    _write_lines(out_dir / "benchmark_summary.csv", summary_lines)

    med_acq = float(np.median(finals["acquisition"]))
    med_rand = float(np.median(finals["random"]))
    print(f"wrote {out_dir / 'benchmark.csv'} and {out_dir / 'benchmark_summary.csv'}")
    print(f"reference q {_fmt(q_ref)} ({problem.provenance})")
    print(
        f"median final abs err over {n_seeds} seeds: "
        f"acquisition {_fmt(med_acq)}, random {_fmt(med_rand)}"
    )
    return _EXIT_OK


def _cmd_validate() -> int:
    from gpexpect.validation import run_validation

    results = run_validation()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(
            f"{status} {res.name}: max deviation {res.max_deviation:.3e} "
            f"(tolerance {res.tolerance:.3e}) [{res.detail}]"
        )
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return _EXIT_VALIDATION
    print(f"all {len(results)} checks passed")
    return _EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpexpect",
        description="Active sampling for expectations of expensive black-box functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one sequential run from a JSON config")
    p_run.add_argument("config", help="path to the run config (JSON)")

    p_bench = sub.add_parser(
        "benchmark", help="compare acquisition-driven vs random sampling over seeds"
    )
    p_bench.add_argument("config", help="path to the benchmark config (JSON)")

    sub.add_parser("validate", help="run the oracle cross-check matrix")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "benchmark":
            return _cmd_benchmark(args.config)
        return _cmd_validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except GpExpectError as exc:
        print(f"numerical error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
