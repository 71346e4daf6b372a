import os
import subprocess
import sys

import numpy as np
import pytest

from abo.algorithms import AlgorithmConfig, RunTrace
from abo.cli import (
    ExperimentConfig,
    emit_trace,
    main,
    make_objective,
    parse_config,
    read_summary,
    read_trace,
    run_experiment,
    serialize_config,
    trace_header,
)
from abo.errors import ConfigError


class TestParseConfig:
    def test_empty_gives_defaults(self):
        config = parse_config("")
        assert config.problem == "example_rkhs"
        assert config.seeds == list(range(10))
        assert config.iterations == 100
        assert len(config.algorithms) == 1
        assert config.algorithms[0].variant == "agp_ucb"

    def test_bare_keys_without_section_header(self):
        config = parse_config("iterations = 7\nseeds = 0, 1\n")
        assert config.iterations == 7 and config.seeds == [0, 1]

    def test_algorithm_sections(self):
        text = """
[experiment]
problem = gp_sample
seeds = 0 1 2

[algorithm.adaptive]
variant = agp_ucb
estimator = one_step
lambda = 0.2

[algorithm.baseline]
variant = fixed_gp_ucb
theta0 = 0.1
"""
        config = parse_config(text)
        assert [a.name for a in config.algorithms] == ["adaptive", "baseline"]
        assert config.algorithms[0].lam == 0.2
        assert config.algorithms[1].theta0 == 0.1

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="wibble"):
            parse_config("wibble = 3\n")
        with pytest.raises(ConfigError, match="wobble"):
            parse_config("[algorithm.a]\nwobble = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="widgets"):
            parse_config("[widgets]\nx = 1\n")

    def test_range_errors_name_the_constraint(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config("[algorithm.a]\ndelta = 1.5\n")
        with pytest.raises(ConfigError, match="noise_sigma"):
            parse_config("[algorithm.a]\nnoise_sigma = -1\n")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seeds =\n")

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            parse_config("problem = mnist\n")

    def test_round_trip(self):
        config = ExperimentConfig(
            problem="synthetic_4d",
            seeds=[0, 3, 7],
            iterations=25,
            init_points=3,
            algorithms=[
                AlgorithmConfig(
                    name="a", lam=0.1, theta0=(0.5, 2.0, 0.25, 1.0), prior_rate=4.5
                ),
                AlgorithmConfig(name="b", variant="wang_shrink", kappa=0.05),
            ],
        )
        back = parse_config(serialize_config(config))
        assert back.problem == config.problem
        assert back.seeds == config.seeds
        assert back.iterations == config.iterations
        assert back.init_points == config.init_points
        assert back.algorithms == config.algorithms
        assert serialize_config(back) == serialize_config(config)


class TestObjectiveFactory:
    def test_problems(self):
        assert make_objective("example_rkhs", 0).dim == 1
        assert make_objective("gp_sample", 0).dim == 1
        assert make_objective("synthetic_4d", 0).dim == 4

    def test_example_rkhs_ignores_seed(self):
        a, b = make_objective("example_rkhs", 0), make_objective("example_rkhs", 5)
        assert np.array_equal(a.weights, b.weights)

    def test_gp_sample_seeded(self):
        a, b = make_objective("gp_sample", 0), make_objective("gp_sample", 1)
        assert not np.array_equal(a.weights, b.weights)


def tiny_trace(dim=1):
    trace = RunTrace(dim=dim, name="t")
    trace.append(-1, np.full(dim, 0.25), 0.1, 0.0, 1.0, 1.0, 1.0, np.ones(dim), 0.9, 0.9)
    trace.append(1, np.full(dim, 0.5), 0.3, 2.4, 1.1, 1.01, 1.111, np.full(dim, 0.9), 0.7, 1.6)
    trace.append(2, np.full(dim, 0.75), 1.0 / 3.0, 2.5, 1.2, 1.02, 1.224, np.full(dim, 0.8), 0.2, 1.8)
    return trace


class TestTraceIO:
    def test_header(self):
        assert trace_header(2) == [
            "iter", "x_0", "x_1", "y", "beta_sqrt", "g", "b", "h",
            "theta_0", "theta_1", "simple_regret", "cumulative_regret",
        ]

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_trace(RunTrace(dim=1), path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines == [",".join(trace_header(1))]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "t.csv")
        trace = tiny_trace()
        emit_trace(trace, path)
        cols = read_trace(path)
        assert len(cols["iter"]) == 3
        np.testing.assert_array_equal(cols["iter"], [-1, 1, 2])
        np.testing.assert_array_equal(cols["y"], trace.y)  # 17 sig digits
        np.testing.assert_array_equal(cols["x_0"], [0.25, 0.5, 0.75])

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_trace(tiny_trace(), "/proc/definitely/not/writable.csv")


def write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


SMALL_CONFIG = """
problem = example_rkhs
seeds = 0, 1
iterations = 5

[algorithm.fixed]
variant = fixed_gp_ucb
"""


class TestRunExperiment:
    def test_row_count_and_summary(self, tmp_path):
        config = parse_config(SMALL_CONFIG)
        config.output_dir = str(tmp_path / "out")
        results = run_experiment(config)
        assert not results["failures"]
        paths = results["traces"]["fixed"]
        assert len(paths) == 2
        cols = read_trace(paths[0])
        assert len(cols["iter"]) == 5 + 2  # d=1 -> 2 init rows
        summary = read_summary(results["summaries"]["fixed"])
        np.testing.assert_array_equal(summary["iter"], cols["iter"])
        # cross-check the aggregation against the traces
        simple = np.vstack([read_trace(p)["simple_regret"] for p in sorted(paths)])
        np.testing.assert_allclose(summary["simple_mean"], simple.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(summary["simple_std"], simple.std(axis=0), atol=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        config = parse_config(SMALL_CONFIG)
        blobs = []
        for sub in ("a", "b"):
            config.output_dir = str(tmp_path / sub)
            results = run_experiment(config)
            blobs.append(
                b"".join(
                    open(p, "rb").read() for p in sorted(results["traces"]["fixed"])
                )
            )
        assert blobs[0] == blobs[1]

    def test_parallel_matches_serial(self, tmp_path):
        config = parse_config(SMALL_CONFIG)
        config.output_dir = str(tmp_path / "serial")
        run_experiment(config, parallel=1)
        config.output_dir = str(tmp_path / "par")
        run_experiment(config, parallel=2)
        for seed in (0, 1):
            a = open(tmp_path / "serial" / f"fixed_seed{seed}.csv", "rb").read()
            b = open(tmp_path / "par" / f"fixed_seed{seed}.csv", "rb").read()
            assert a == b

    def test_seed_offset_env(self, tmp_path, monkeypatch):
        config = parse_config("seeds = 0\niterations = 3\n[algorithm.a]\nvariant = fixed_gp_ucb\n")
        config.output_dir = str(tmp_path / "base")
        run_experiment(config)
        monkeypatch.setenv("ABO_SEED_OFFSET", "1")
        config.output_dir = str(tmp_path / "offset")
        run_experiment(config)
        monkeypatch.delenv("ABO_SEED_OFFSET")
        a = open(tmp_path / "base" / "a_seed0.csv", "rb").read()
        b = open(tmp_path / "offset" / "a_seed0.csv", "rb").read()
        assert a != b

    def test_malformed_seed_offset_fails_before_any_run(self, tmp_path, monkeypatch):
        config = parse_config(SMALL_CONFIG)
        config.output_dir = str(tmp_path / "out")
        monkeypatch.setenv("ABO_SEED_OFFSET", "abc")
        with pytest.raises(ConfigError, match="ABO_SEED_OFFSET must be an integer, got 'abc'"):
            run_experiment(config)
        assert not os.path.exists(config.output_dir)


class TestCommandLine:
    def test_run_exit_codes(self, tmp_path):
        good = write_config(tmp_path, SMALL_CONFIG)
        out = str(tmp_path / "out")
        assert main(["run", "--config", good, "--out", out]) == 0
        bad = write_config(tmp_path, "delta = oops\n")
        assert main(["run", "--config", bad, "--out", out]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2

    @pytest.mark.parametrize(
        "key, lines",
        [
            ("beta_constant", "[algorithm.a]\nbeta_constant = -1"),
            ("b0", "[algorithm.a]\nb0 = nan"),
            ("noise_sigma", "[algorithm.a]\nnoise_sigma = inf"),
            ("theta0", "[algorithm.a]\ntheta0 = 0.5, 0.5"),
            ("init_points", "init_points = -1"),
        ],
    )
    def test_run_rejects_bad_value_before_any_run(self, tmp_path, capsys, key, lines):
        text = f"[experiment]\nproblem = example_rkhs\nseeds = 0, 1\niterations = 2\n{lines}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and key in err[0]
        assert not list(tmp_path.rglob("*.csv"))

    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for token in ("example_rkhs", "gp_sample", "agp_ucb", "wang_shrink"):
            assert token in out
        assert "estimators: regret_bound, one_step" in out
        assert "map modes: off, combine_max, combine_scale" in out

    def test_summarize(self, tmp_path, capsys):
        good = write_config(tmp_path, SMALL_CONFIG)
        out = str(tmp_path / "out")
        main(["run", "--config", good, "--out", out])
        assert main(["summarize", out]) == 0
        assert "fixed" in capsys.readouterr().out

    def test_summarize_empty_dir(self, tmp_path):
        os.makedirs(tmp_path / "empty", exist_ok=True)
        assert main(["summarize", str(tmp_path / "empty")]) == 1

    def test_summarize_missing_dir(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "missing")]) == 2
        assert "no such directory" in capsys.readouterr().err

    def test_summarize_rewrites_equal_length_summary_identically(self, tmp_path):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", out])
        summary = os.path.join(out, "fixed_summary.csv")
        before = open(summary, "rb").read()
        assert main(["summarize", out]) == 0
        assert open(summary, "rb").read() == before

    def test_summarize_skips_short_trace(self, tmp_path, capsys):
        text = SMALL_CONFIG.replace("seeds = 0, 1", "seeds = 0, 1, 2")
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, text), "--out", out])
        short = os.path.join(out, "fixed_seed1.csv")
        lines = open(short).read().splitlines(keepends=True)
        open(short, "w").write("".join(lines[:-2]))  # a run stopped early
        capsys.readouterr()
        assert main(["summarize", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"skipped {short}: 5 rows, expected 7"]
        assert "fixed: 2 seeds" in captured.out
        summary = read_summary(os.path.join(out, "fixed_summary.csv"))
        full = [read_trace(os.path.join(out, f"fixed_seed{s}.csv")) for s in (0, 2)]
        np.testing.assert_allclose(
            summary["simple_mean"],
            np.mean([c["simple_regret"] for c in full], axis=0),
        )

    def test_summarize_skips_trace_cut_mid_row(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", out])
        cut = os.path.join(out, "fixed_seed1.csv")
        lines = open(cut).read().splitlines(keepends=True)
        # an interrupted copy: three whole rows, then half of the fourth
        open(cut, "w").write("".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
        capsys.readouterr()
        assert main(["summarize", out]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"skipped {cut}: ")
        assert "Traceback" not in captured.err
        assert "fixed: 1 seeds" in captured.out

    def test_summarize_reports_unwritable_summary(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", out])
        summary = os.path.join(out, "fixed_summary.csv")
        os.remove(summary)
        os.mkdir(summary)  # os.replace cannot put a file in its place
        capsys.readouterr()
        assert main(["summarize", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {summary}: ")
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]

    def test_run_reports_malformed_seed_offset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ABO_SEED_OFFSET", "abc")
        good = write_config(tmp_path, SMALL_CONFIG)
        assert main(["run", "--config", good, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: ABO_SEED_OFFSET must be an integer, got 'abc'"
        ]

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "abo.cli", "list-presets"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "agp_ucb" in proc.stdout
