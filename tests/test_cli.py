import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abo import algorithms, cli
from abo.adaptation import Step
from abo.algorithms import AlgorithmConfig, RunTrace
from abo.cli import (
    _BLAS_THREADS,
    ExperimentConfig,
    _write_summary,
    emit_trace,
    main,
    make_objective,
    parse_config,
    read_table,
    run_experiment,
    serialize_config,
    trace_header,
)
from abo.errors import ConfigError
from abo.rng import GENERATOR_NAME


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

    @pytest.mark.parametrize("comment", ["# experiment.ini\n", "; notes\n\n"])
    def test_leading_comment(self, comment):
        config = parse_config(comment + "[experiment]\niterations = 7\n")
        assert config.iterations == 7
        config = parse_config(comment + "iterations = 7\n")
        assert config.iterations == 7

    def test_readme_ini_blocks_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = readme.split("```ini\n")[1:]
        assert blocks
        for block in blocks:
            config = parse_config(block.split("```")[0])
            assert config.algorithms

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
    trace = RunTrace(dim=dim)
    # the norm bound is no trace column
    step = Step(2.0, 1.0, 1.0, 1.0, np.ones(dim))
    trace.append(-1, np.full(dim, 0.25), 0.1, 0.0, step, 0.9, 0.9)
    step = Step(2.0, 1.1, 1.01, 1.111, np.full(dim, 0.9))
    trace.append(1, np.full(dim, 0.5), 0.3, 2.4, step, 0.7, 1.6)
    step = Step(2.0, 1.2, 1.02, 1.224, np.full(dim, 0.8))
    trace.append(2, np.full(dim, 0.75), 1.0 / 3.0, 2.5, step, 0.2, 1.8)
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
        cols = read_table(path)
        assert len(cols["iter"]) == 3
        np.testing.assert_array_equal(cols["iter"], [-1, 1, 2])
        np.testing.assert_array_equal(cols["y"], trace.y)  # 17 sig digits
        np.testing.assert_array_equal(cols["x_0"], [0.25, 0.5, 0.75])

    @pytest.mark.parametrize("problem", ["example_rkhs", "synthetic_4d"])
    @pytest.mark.parametrize(
        "settings",
        [dict(variant="agp_ucb"),
         dict(variant="agp_ucb", estimator="one_step", map_mode="combine_max"),
         dict(variant="fixed_gp_ucb"), dict(variant="wang_shrink")],
        ids=["agp_ucb", "agp_ucb_one_step_combine_max", "fixed_gp_ucb", "wang_shrink"],
    )
    def test_every_column_round_trips(self, tmp_path, monkeypatch, problem, settings):
        steps = []
        policy = algorithms.POLICIES[settings["variant"]]

        def spy(state):
            step = policy(state)

            def record(t):
                steps.append(step(t))
                return steps[-1]

            return record

        monkeypatch.setitem(algorithms.POLICIES, settings["variant"], spy)
        config = AlgorithmConfig(iterations=3, seed=0, **settings)
        trace = algorithms.run(make_objective(problem, 0), config)
        path = str(tmp_path / "t.csv")
        emit_trace(trace, path)
        cols = read_table(path)
        header = trace_header(trace.dim)
        assert list(cols) == header
        # the header's columns, in order, are RunTrace's columns, with X and
        # theta one column per dimension; each read back bit for bit
        read = iter(header)
        for column in RunTrace.columns():
            values = np.asarray(getattr(trace, column), dtype=float)
            for written in values.reshape(len(trace), -1).T:
                assert cols[next(read)].tobytes() == written.tobytes(), column
        assert next(read, None) is None
        # each step the policy returned lands in its row unchanged
        rows = np.flatnonzero(cols["iter"] >= 1)
        assert len(steps) == len(rows) == 3
        for row, step in zip(rows, steps):
            for column in ("g", "b", "h"):
                assert cols[column][row] == getattr(step, column)
            theta = [cols[f"theta_{i}"][row] for i in range(trace.dim)]
            assert np.asarray(theta).tobytes() == step.theta.tobytes()

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_trace(tiny_trace(), "/proc/definitely/not/writable.csv")

    def test_summary_bits_match_per_iteration_reductions(self, tmp_path):
        # 11 seeds: numpy sums 8 or more values pairwise, so a reduction
        # across the seed axis of a (seeds, iterations) array differs
        rng = np.random.default_rng(0)
        regrets = {}
        for seed in range(11):
            trace = RunTrace(dim=2)
            s, c = rng.uniform(size=6), np.cumsum(rng.uniform(size=6))
            step = Step(1, 1, 1, 1, np.ones(2))
            for i in range(6):
                trace.append(i, rng.uniform(size=2), 0.5, 1, step, s[i], c[i])
            path = str(tmp_path / f"a_seed{seed}.csv")
            emit_trace(trace, path)
            regrets[path] = np.column_stack([s, c])
        tables = [read_table(p) for p in sorted(regrets)]
        path, _ = _write_summary("a", tables, str(tmp_path))
        by_seed = np.stack([regrets[p] for p in sorted(regrets)], axis=2)
        rows = [
            ",".join([str(i)] + ["%.17g" % v for v in (
                np.mean(s), np.std(s), np.mean(c), np.std(c))])
            for i, (s, c) in enumerate(by_seed)
        ]
        header = "iter,simple_mean,simple_std,cumulative_mean,cumulative_std"
        expected = [f"# generator: {GENERATOR_NAME}", "# seeds: 11", header] + rows
        assert Path(path).read_text() == "\n".join(expected) + "\n"


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
        cols = read_table(paths[0])
        assert len(cols["iter"]) == 5 + 2  # d=1 -> 2 init rows
        summary = read_table(results["summaries"]["fixed"])
        np.testing.assert_array_equal(summary["iter"], cols["iter"])
        # cross-check the aggregation against the traces
        simple = np.vstack([read_table(p)["simple_regret"] for p in sorted(paths)])
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
                    Path(p).read_bytes() for p in sorted(results["traces"]["fixed"])
                )
            )
        assert blobs[0] == blobs[1]

    def test_parallel_matches_serial(self, tmp_path):
        config = parse_config(SMALL_CONFIG)
        config.output_dir = str(tmp_path / "serial")
        run_experiment(config, parallel=1)
        # 2**31 is past a C int; the pool is sized by the 2 cells
        for parallel in (2, 2**31):
            config.output_dir = str(tmp_path / f"par{parallel}")
            assert not run_experiment(config, parallel=parallel)["failures"]
            for seed in (0, 1):
                name = f"fixed_seed{seed}.csv"
                a = (tmp_path / "serial" / name).read_bytes()
                assert (tmp_path / f"par{parallel}" / name).read_bytes() == a

    def test_parallel_restores_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        for key in set(_BLAS_THREADS) - {"OMP_NUM_THREADS"}:
            monkeypatch.delenv(key, raising=False)
        before = dict(os.environ)
        config = parse_config(SMALL_CONFIG)
        config.output_dir = str(tmp_path / "par")
        assert not run_experiment(config, parallel=2)["failures"]
        assert dict(os.environ) == before

    def test_outputs_depend_on_config_alone(self, tmp_path, monkeypatch):
        # earlier releases shifted every seed by this variable
        monkeypatch.delenv("ABO_SEED_OFFSET", raising=False)
        config = parse_config(SMALL_CONFIG)
        blobs = []
        for value in ("unset", "3", "abc"):
            if value != "unset":
                monkeypatch.setenv("ABO_SEED_OFFSET", value)
            out = config.output_dir = str(tmp_path / value)
            assert not run_experiment(config)["failures"]
            blobs.append({n: Path(out, n).read_bytes() for n in os.listdir(out)})
        assert blobs[0] == blobs[1] == blobs[2]

    def test_algorithm_names_must_not_repeat(self):
        algos = [AlgorithmConfig(name="a"), AlgorithmConfig(name="a", kappa=0.2)]
        with pytest.raises(ConfigError, match="algorithm names must not repeat"):
            ExperimentConfig(algorithms=algos)


class TestCommandLine:
    def test_run_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, SMALL_CONFIG)
        out = str(tmp_path / "out")
        assert main(["run", "--config", good, "--out", out]) == 0
        bad = write_config(tmp_path, "delta = oops\n")
        assert main(["run", "--config", bad, "--out", out]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
        undecodable = tmp_path / "utf16.ini"
        undecodable.write_bytes(b"\xff\xfe" + "seeds = 0\n".encode("utf-16-le"))
        capsys.readouterr()
        assert main(["run", "--config", str(undecodable), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot decode {undecodable}: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_run_reports_failed_runs(self, tmp_path, monkeypatch, capsys):
        real_run = algorithms.run

        def run(objective, config):
            if config.seed == 0:
                raise RuntimeError("objective exploded")
            trace = real_run(objective, config)
            trace.aborted = config.seed == 1
            return trace

        monkeypatch.setattr(algorithms, "run", run)
        config = write_config(tmp_path, SMALL_CONFIG.replace("seeds = 0, 1", "seeds = 0, 1, 2"))
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "FAILED fixed seed=0: objective exploded",
            "FAILED fixed seed=1: run fixed seed 1 aborted",
        ]
        assert captured.out.splitlines() == [f"completed 1/3 runs into {out}"]
        summary = (out / "fixed_summary.csv").read_text().splitlines()
        assert summary[1] == "# seeds: 1"

    @pytest.mark.parametrize("parallel", ["0", "-2"])
    def test_run_rejects_parallel_below_one(self, tmp_path, capsys, parallel):
        good = write_config(tmp_path, SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", good, "--out", str(out), "--parallel", parallel]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: parallel must be >= 1, got {parallel}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, lines",
        [
            ("beta_constant", "[algorithm.a]\nbeta_constant = -1"),
            ("b0", "[algorithm.a]\nb0 = nan"),
            ("noise_sigma", "[algorithm.a]\nnoise_sigma = inf"),
            ("theta0", "[algorithm.a]\ntheta0 = 0.5, 0.5"),
            ("init_points", "init_points = -1"),
            ("kappa", "[algorithm.a]\nvariant = wang_shrink\nkappa = 1.5"),
            ("seeds", "seeds = 0, 0"),
            ("name", "[algorithm.../escaped]\nvariant = fixed_gp_ucb"),
            ("name", "[algorithm.]\nvariant = fixed_gp_ucb"),
        ],
    )
    def test_run_rejects_bad_value_before_any_run(self, tmp_path, capsys, key, lines):
        seeds = "" if key == "seeds" else "seeds = 0, 1\n"
        text = f"[experiment]\nproblem = example_rkhs\n{seeds}iterations = 2\n{lines}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and key in err[0]
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "section,lines",
        [
            ("algorithm.../escaped", "variant = fixed_gp_ucb"),
            ("algorithm.", "variant = fixed_gp_ucb"),
            ("algorithm.wide", "theta0 = 0.5, 0.5"),
        ],
    )
    def test_run_names_section_of_bad_algorithm(self, tmp_path, capsys, section, lines):
        # checked in ExperimentConfig, which alone knows the problem's dimension
        text = f"[experiment]\nproblem = example_rkhs\nseeds = 0\niterations = 2\n[{section}]\n{lines}\n"
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: [{section}]: ")
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

    def test_run_and_summarize_parse_each_trace_once(self, tmp_path, monkeypatch):
        calls = []

        def spy(path):
            calls.append(path)
            return read_table(path)

        monkeypatch.setattr(cli, "read_table", spy)
        out = str(tmp_path / "out")
        assert main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", out]) == 0
        traces = [os.path.join(out, f"fixed_seed{s}.csv") for s in (0, 1)]
        assert calls == traces
        calls.clear()
        assert main(["summarize", out]) == 0
        assert calls == traces

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
        before = Path(summary).read_bytes()
        assert main(["summarize", out]) == 0
        assert Path(summary).read_bytes() == before

    @pytest.mark.parametrize(
        "name, seeds", [("fixed_seeded", "0, 1"), ("fixed", "-1, 0")],
        ids=["name_with_seed", "negative_seed"],
    )
    def test_summarize_reads_only_trace_file_names(self, tmp_path, capsys, name, seeds):
        # traces are NAME_seedINT.csv; NAME_summary.csv is no trace even
        # when NAME contains "_seed"
        text = SMALL_CONFIG.replace("[algorithm.fixed]", f"[algorithm.{name}]")
        text = text.replace("seeds = 0, 1", f"seeds = {seeds}")
        out = str(tmp_path / "out")
        assert main(["run", "--config", write_config(tmp_path, text), "--out", out]) == 0
        summary = os.path.join(out, f"{name}_summary.csv")
        before = Path(summary).read_bytes()
        capsys.readouterr()
        assert main(["summarize", out]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"{name}: 2 seeds, ")
        assert Path(summary).read_bytes() == before

    def test_summarize_skips_short_trace(self, tmp_path, capsys):
        text = SMALL_CONFIG.replace("seeds = 0, 1", "seeds = 0, 1, 2")
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, text), "--out", out])
        short = os.path.join(out, "fixed_seed1.csv")
        lines = Path(short).read_text().splitlines(keepends=True)
        Path(short).write_text("".join(lines[:-2]))  # a run stopped early
        capsys.readouterr()
        assert main(["summarize", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"skipped {short}: 5 rows, expected 7"]
        assert "fixed: 2 seeds" in captured.out
        summary = read_table(os.path.join(out, "fixed_summary.csv"))
        full = [read_table(os.path.join(out, f"fixed_seed{s}.csv")) for s in (0, 2)]
        np.testing.assert_allclose(
            summary["simple_mean"],
            np.mean([c["simple_regret"] for c in full], axis=0),
        )

    def test_summarize_skips_trace_cut_mid_row(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", out])
        cut = os.path.join(out, "fixed_seed1.csv")
        lines = Path(cut).read_text().splitlines(keepends=True)
        # an interrupted copy: three whole rows, then half of the fourth
        Path(cut).write_text("".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
        capsys.readouterr()
        assert main(["summarize", out]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"skipped {cut}: ")
        assert "Traceback" not in captured.err
        assert "fixed: 1 seeds" in captured.out

    @pytest.mark.parametrize(
        "text", ["", "\n", "# generator: copied\n"], ids=["empty", "blank", "comments"]
    )
    def test_summarize_skips_trace_without_header(self, tmp_path, capsys, text):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", out])
        cut = os.path.join(out, "fixed_seed1.csv")
        Path(cut).write_text(text)  # an interrupted copy, before the header
        capsys.readouterr()
        assert main(["summarize", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"skipped {cut}: no header line"]
        assert "fixed: 1 seeds" in captured.out

    @pytest.mark.parametrize(
        "header, missing",
        [("a,b", "iter"), ("iter,a", "simple_regret"),
         ("iter,simple_regret", "cumulative_regret")],
    )
    def test_summarize_skips_file_that_is_not_a_trace(
        self, tmp_path, capsys, header, missing
    ):
        out = str(tmp_path / "out")
        main(["run", "--config", write_config(tmp_path, SMALL_CONFIG), "--out", out])
        other = os.path.join(out, "foo_seed0.csv")
        Path(other).write_text(f"{header}\n1,2\n")
        capsys.readouterr()
        assert main(["summarize", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"skipped {other}: no {missing!r} column"]
        assert "fixed: 2 seeds" in captured.out
        assert not os.path.exists(os.path.join(out, "foo_summary.csv"))

    def test_summarize_skips_algorithm_without_rows(self, tmp_path, capsys):
        for seed in (0, 1):
            emit_trace(RunTrace(dim=1), str(tmp_path / f"a_seed{seed}.csv"))
        assert main(["summarize", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["skipped a: every trace has 0 rows"]
        assert captured.out == ""
        assert not os.path.exists(tmp_path / "a_summary.csv")

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

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "abo.cli", "list-presets"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "agp_ucb" in proc.stdout
