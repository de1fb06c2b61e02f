"""CLI config parsing, output files, exit codes."""

import errno
import json
from pathlib import Path

import numpy as np
import pytest

import gpexpect.acquisition
from gpexpect.benchmarks import BenchmarkProblem, benchmark_problem
from gpexpect.cli import _write_run_csv, main
from gpexpect.design import DesignConfig, run
from gpexpect.errors import EvaluationError
from gpexpect.inputs import mixture_from_dict


def write_config(path, **overrides):
    doc = {
        "function": "x_squared",
        "dimension": 1,
        "mixture": {"components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
        "n0": 3,
        "budget": 8,
        "seed": 7,
        "kernel": {"amplitude_sq": 1.0, "lengthscales": [1.0]},
        "noise_variance": 0.01,
        "output": str(path.parent / "out"),
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_learned_config(path, **overrides):
    """A config with no fixed kernel, so the hyperparameters are searched."""
    cfg = write_config(path, **overrides)
    doc = json.loads(cfg.read_text())
    del doc["kernel"], doc["noise_variance"]
    cfg.write_text(json.dumps(doc))
    return cfg


@pytest.fixture
def black_box_calls(monkeypatch):
    """The points every built-in problem's black box is called at, in order."""
    calls = []
    black_box = BenchmarkProblem.black_box

    def counting(self, x):
        calls.append(x)
        return black_box(self, x)

    monkeypatch.setattr(BenchmarkProblem, "black_box", counting)
    return calls


class TestRunCommand:
    def test_writes_csv_with_exact_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", str(cfg)]) == 0
        lines = (tmp_path / "out" / "run.csv").read_text().splitlines()
        assert lines[0] == "iter,x1,y,mu1,sigma1,acq,abs_err"
        assert len(lines) == 1 + 8

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", str(cfg)]) == 0
        first = (tmp_path / "out" / "run.csv").read_bytes()
        first_summary = (tmp_path / "out" / "summary.json").read_bytes()
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "run.csv").read_bytes() == first
        assert (tmp_path / "out" / "summary.json").read_bytes() == first_summary

    def test_abs_err_consistent_with_analytic_q(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", budget=30, seed=7)
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "out" / "run.csv").read_text().splitlines()[1:]
        assert len(rows) == 30
        for row in rows:
            parts = row.split(",")
            mu1, abs_err = float(parts[3]), float(parts[6])
            assert abs_err == pytest.approx(abs(mu1 - 1.0), rel=1e-9, abs=1e-12)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["q_reference"] == 1.0
        assert summary["q_reference_provenance"].startswith("analytic")
        assert summary["final_abs_err"] == pytest.approx(
            abs(summary["final_mu1"] - 1.0), rel=1e-9, abs=1e-12
        )

    def test_2d_header_has_two_coordinates(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            function="branin_gmm",
            dimension=2,
            mixture={
                "components": [
                    {"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
                ]
            },
            kernel={"amplitude_sq": 1.0, "lengthscales": [1.0, 1.0]},
            n0=3,
            budget=4,
        )
        assert main(["run", str(cfg)]) == 0
        header = (tmp_path / "out" / "run.csv").read_text().splitlines()[0]
        assert header == "iter,x1,x2,y,mu1,sigma1,acq,abs_err"

    def test_uniform_box_source(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            mixture=None,
            uniform_box={"lower": [-2.0], "upper": [2.0], "per_dim": 4},
        )
        doc = json.loads(cfg.read_text())
        del doc["mixture"]
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 0

    def test_samples_file_source(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(200, 1))
        samples_path = tmp_path / "samples.csv"
        np.savetxt(samples_path, samples, delimiter=",")
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        del doc["mixture"]
        doc["samples_file"] = str(samples_path)
        doc["n_gmm"] = 2
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 0

    def test_non_finite_sample_is_a_config_error(self, tmp_path, capsys):
        samples = np.random.default_rng(0).normal(size=(30, 1))
        samples[12, 0] = np.nan
        samples_path = tmp_path / "samples.csv"
        np.savetxt(samples_path, samples, delimiter=",")
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        del doc["mixture"]
        doc["samples_file"] = str(samples_path)
        doc["n_gmm"] = 1
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "sample row 12 " in err


class TestConfigErrors:
    @pytest.mark.parametrize("key, value", [("bogus_knob", 1), ("center_y", True)])
    def test_unknown_key_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg.json", **{key: value})
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config: unknown key(s) ['{key}']")

    def test_missing_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        doc = json.loads(cfg.read_text())
        del doc["seed"]
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_invalid_json_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"function": "x_squared",\n  broken\n}')
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_two_mixture_sources_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            uniform_box={"lower": [-1.0], "upper": [1.0], "per_dim": 2},
        )
        assert main(["run", str(cfg)]) == 2
        assert "mixture source" in capsys.readouterr().err

    def test_budget_below_n0_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", n0=5, budget=4)
        assert main(["run", str(cfg)]) == 2

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            kernel={"amplitude_sq": 1.0, "lengthscales": [1.0, 1.0]},
        )
        assert main(["run", str(cfg)]) == 2

    def test_unknown_function_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", function="mystery")
        assert main(["run", str(cfg)]) == 2
        assert "mystery" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["run", "benchmark"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        # before the fix, UnicodeDecodeError escaped main with a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: not UTF-8 text")

    @pytest.mark.parametrize("command, extra", [("run", {}), ("benchmark", {"seeds": 2})])
    def test_output_that_cannot_be_a_directory_fails_before_the_black_box(
        self, tmp_path, capsys, black_box_calls, command, extra
    ):
        # before the fix, mkdir raised FileExistsError after the whole run
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        cfg = write_config(tmp_path / "cfg.json", output=str(taken), **extra)
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: cannot make output directory {taken}:")
        assert black_box_calls == []
        assert taken.read_text() == "a file, not a directory"

    @pytest.mark.parametrize(
        "command, extra, blocked",
        [("run", {}, "run.csv"), ("run", {}, "summary.json"),
         ("benchmark", {"seeds": 2}, "benchmark.csv"),
         ("benchmark", {"seeds": 2}, "benchmark_summary.csv")],
        ids=["run.csv", "summary.json", "benchmark.csv", "benchmark_summary.csv"],
    )
    def test_output_file_that_is_a_directory_fails_before_the_black_box(
        self, tmp_path, capsys, black_box_calls, command, extra, blocked
    ):
        # before the fix, run spent every evaluation and then raised
        # IsADirectoryError; benchmark first wrote benchmark.csv
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        cfg = write_config(tmp_path / "cfg.json", output=str(out), **extra)
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config: output {out / blocked} exists and is not a regular file\n"
        )
        assert black_box_calls == []
        assert [path.name for path in out.iterdir()] == [blocked]

    @pytest.mark.parametrize(
        "command, extra, failing",
        [("run", {}, "run.csv"), ("run", {}, "summary.json"),
         ("benchmark", {"seeds": 2}, "benchmark.csv"),
         ("benchmark", {"seeds": 2}, "benchmark_summary.csv")],
        ids=["run.csv", "summary.json", "benchmark.csv", "benchmark_summary.csv"],
    )
    def test_failed_write_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, command, extra, failing
    ):
        cfg = write_config(tmp_path / "cfg.json", **extra)
        write_text = Path.write_text

        def disk_full(self, *args, **kwargs):
            if self.name == failing:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", disk_full)
        assert main([command, str(cfg)]) == 2
        path = tmp_path / "out" / failing
        assert capsys.readouterr().err.startswith(
            f"config error: config: cannot write output file {path}:"
        )
        assert not path.exists()

    @pytest.mark.parametrize("command, extra", [("run", {}), ("benchmark", {"seeds": 2})])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, extra):
        # before the fix, a negative seed ended in numpy's ValueError traceback
        cfg = write_config(tmp_path / "cfg.json", seed=-1, **extra)
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'seed' must be >= 0" in err

    @pytest.mark.parametrize(
        "key, literal",
        [
            ("sigma_stop", "NaN"),
            ("sigma_stop", "Infinity"),
            ("sigma_stop", "1e400"),
            ("sigma_stop", "1" + "0" * 400),
            ("mixture", '{"components": [5]}'),
            ("noise_variance", "NaN"),
            ("noise_variance", "-1.0"),
        ],
        ids=[
            "nan", "infinity", "1e400", "huge_int", "component", "noise_nan", "noise_negative",
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, key, literal):
        cfg = write_config(tmp_path / "cfg.json", **{key: "VALUE"})
        cfg.write_text(cfg.read_text().replace('"VALUE"', literal))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    NON_NUMBER_LEAVES = [
        ("mixture.components[0].weight",
         {"mixture": {"components": [{"weight": True, "mean": [0.0], "cov": [[1.0]]}]}}),
        ("mixture.components[0].mean[0]",
         {"mixture": {"components": [{"weight": 1.0, "mean": ["0.0"], "cov": [[1.0]]}]}}),
        ("mixture.components[0].cov[0][0]",
         {"mixture": {"components": [{"weight": 1.0, "mean": [0.0], "cov": [["1"]]}]}}),
        ("kernel.lengthscales[0]", {"kernel": {"amplitude_sq": 1.0, "lengthscales": ["1.0"]}}),
        ("bounds.lower[0]", {"bounds": {"lower": [True], "upper": [3.0]}}),
        ("bounds.upper[0]", {"bounds": {"lower": [-3.0], "upper": ["3"]}}),
        ("uniform_box.lower[0]",
         {"mixture": None, "uniform_box": {"lower": ["-1"], "upper": [1.0], "per_dim": 2}}),
        ("uniform_box.upper[0]",
         {"mixture": None, "uniform_box": {"lower": [-1.0], "upper": [True], "per_dim": 2}}),
    ]

    @pytest.mark.parametrize(
        "path, overrides", NON_NUMBER_LEAVES, ids=[path for path, _ in NON_NUMBER_LEAVES]
    )
    def test_non_number_array_leaf_is_a_config_error(self, tmp_path, capsys, path, overrides):
        # before the fix, strings and booleans here were converted and the run exited 0
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        doc = {k: v for k, v in json.loads(cfg.read_text()).items() if v is not None}
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{path}' must be a number" in err

    @pytest.mark.parametrize(
        "overrides",
        [{"optimizer": {"starts": 2}}, {"optimizer": {"max_iterations": 100}},
         {"optimizer": {"step_shrink": 0.5}}, {"optimizer": {"gradient_tolerance": 1e-8}},
         {"fixed_noise": 0.01}, {"refit_every": 2}],
        ids=["starts-2", "max_iterations-100", "step_shrink-0.5", "gradient_tolerance-1e-08",
             "fixed_noise-0.01", "refit_every-2"],
    )
    def test_removed_optimizer_keys_are_unknown(self, tmp_path, capsys, overrides):
        # the ascent's 8 starts, 100-step cap, halving ladder and 1e-8 gradient
        # stop are fixed, the noise is always searched and re-selection comes
        # every 5 steps
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["run", str(cfg)]) == 2
        (key,) = overrides
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: unknown key(s) ['{key}']")

    @pytest.mark.parametrize(
        "mixture",
        ["m.json", {"components": None}, {"weights": [1.0]}, {"components": [[1.0, 0.0]]}],
        ids=["path_string", "null_components", "no_components", "array_component"],
    )
    def test_malformed_mixture_is_a_schema_error(self, tmp_path, capsys, mixture):
        # before the fix, the number walk ran first: "'mixture' must be a number"
        cfg = write_config(tmp_path / "cfg.json", mixture=mixture)
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: config: 'mixture' must be an object whose 'components' "
            "is a list of objects\n"
        )


class TestNumericalErrorExit:
    def test_evaluation_error_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        def exploding_run(mix, black_box, cfg):
            raise EvaluationError("black box returned non-finite value at [0.0]")

        monkeypatch.setattr("gpexpect.cli.run", exploding_run)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["run", str(cfg)]) == 3
        assert "EvaluationError" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_row_count_and_shared_initial_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", n0=3, budget=6, seeds=3)
        assert main(["benchmark", str(cfg)]) == 0
        lines = (tmp_path / "out" / "benchmark.csv").read_text().splitlines()
        assert lines[0] == "strategy,iter,seed,abs_err"
        assert len(lines) == 1 + 2 * 3 * 6

        rows = [line.split(",") for line in lines[1:]]
        keys = [(r[0], int(r[2]), int(r[1])) for r in rows]
        assert keys == sorted(keys)

        # shared seed implies identical initial-design estimates
        by_key = {(r[0], int(r[2]), int(r[1])): r[3] for r in rows}
        for seed in (7, 8, 9):
            for it in range(3):
                assert by_key[("acquisition", seed, it)] == by_key[("random", seed, it)]

    def test_summary_has_median_and_iqr(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", n0=3, budget=5, seeds=2)
        assert main(["benchmark", str(cfg)]) == 0
        lines = (tmp_path / "out" / "benchmark_summary.csv").read_text().splitlines()
        assert lines[0] == "strategy,iter,median_abs_err,iqr_low,iqr_high"
        assert len(lines) == 1 + 2 * 5
        for line in lines[1:]:
            parts = line.split(",")
            low, med, high = float(parts[3]), float(parts[2]), float(parts[4])
            assert low <= med <= high

    def test_seeds_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["benchmark", str(cfg)]) == 2
        assert "seeds" in capsys.readouterr().err


class TestValidateCommand:
    def test_perturbed_determinant_exponent_fails(self, capsys, monkeypatch):
        component_factors = gpexpect.acquisition._component_factors

        def perturbed(ker, covs):
            chols, factors = component_factors(ker, covs)
            return chols, factors**1.2  # |I + inv(Lambda) cov|^-0.6

        monkeypatch.setattr(gpexpect.acquisition, "_component_factors", perturbed)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL kernel_integral_oracles" in out


class TestFrontEndsAgree:
    """``gpexpect run``, each loop of ``gpexpect benchmark`` and ``design.run`` are one run.

    The seed is not 0 and the kernel is learned: before the fix the CLI
    seeded the hyperparameter search with the run seed, the benchmark kept
    the base seed for every loop, and the library searched with seed 0.
    """

    def test_run_csv_is_the_library_run(self, tmp_path, capsys):
        cfg = write_learned_config(tmp_path / "cfg.json", n0=3, budget=9, seed=8)
        assert main(["run", str(cfg)]) == 0
        doc = json.loads(cfg.read_text())
        mix = mixture_from_dict(doc["mixture"])
        problem = benchmark_problem("x_squared")
        records = run(mix, problem.black_box, DesignConfig(n0=3, budget=9, seed=8))
        _write_run_csv(tmp_path / "library.csv", records, 1, problem.expectation(mix))
        got = (tmp_path / "out" / "run.csv").read_text().splitlines()
        assert got == (tmp_path / "library.csv").read_text().splitlines()

    def test_each_benchmark_loop_is_a_run_with_the_next_seed(self, tmp_path, capsys):
        cfg = write_learned_config(tmp_path / "cfg.json", n0=3, budget=9, seed=7, seeds=2)
        assert main(["benchmark", str(cfg)]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "out" / "benchmark.csv").read_text().splitlines()[1:]]
        for i in range(2):
            single = write_learned_config(
                tmp_path / f"run{i}.json", n0=3, budget=9, seed=7 + i,
                output=str(tmp_path / f"run{i}"),
            )
            assert main(["run", str(single)]) == 0
            run_rows = [line.split(",") for line in
                        (tmp_path / f"run{i}" / "run.csv").read_text().splitlines()[1:]]
            loop = [(r[1], r[3]) for r in rows if r[0] == "acquisition" and r[2] == str(7 + i)]
            # (iter, abs_err) of every record
            assert loop == [(r[0], r[-1]) for r in run_rows]
