"""Configuration handling, the classic-GA baseline, experiment driver,
report/trace output, fetching, and the command-line entry point."""

import importlib.resources

import numpy as np
import pytest

from nbga.cli import (
    ExperimentConfig,
    config_from_sources,
    emit_trace,
    fetch_instances,
    load_config_file,
    main,
    render_report,
    run_experiment,
)
from nbga.core import (
    EngineConfig,
    Individual,
    MutationSchedule,
    RunResult,
    classic_ga_baseline,
)
from nbga.tsp import TspProblem, error_percent
from tests.conftest import hexagon_instance, hexagon_tsplib_text
from tests.test_core import ConstantProblem

SAMPLE_SITE = str(importlib.resources.files("nbga") / "data" / "sample_site.txt")


def tsp_config(hexagon_file, **overrides):
    values = dict(
        problem="tsp", runs=2, pop=16, generations=30, seed=0,
        instance=str(hexagon_file),
    )
    values.update(overrides)
    return ExperimentConfig(**values)


def ligand_config(**overrides):
    values = dict(
        problem="ligand-variable", runs=1, pop=10, generations=5, seed=0,
        site=SAMPLE_SITE,
    )
    values.update(overrides)
    return ExperimentConfig(**values)


# ---------------------------------------------------------------------------
# Configuration


def test_load_config_file_parses_flat_keys(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment\nproblem = tsp\nruns = 3   # three seeds\n\npop=50\n"
    )
    assert load_config_file(path) == {"problem": "tsp", "runs": "3", "pop": "50"}


def test_load_config_file_rejects_lines_without_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("problem tsp\n")
    with pytest.raises(ValueError, match="run.cfg:1"):
        load_config_file(path)


def test_config_from_sources_converts_types_and_lets_flags_win():
    cfg = config_from_sources(
        {"problem": "tsp", "runs": "3", "pop": "50", "optimum": "426",
         "instance": "a.tsp"},
        {"pop": 80, "seed": None},
    )
    assert cfg.runs == 3
    assert cfg.pop == 80  # flag beats file
    assert cfg.seed == 0  # None flags fall back to defaults
    assert cfg.optimum == 426.0


def test_config_from_sources_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_sources({"popsize": "50"}, {})


def test_config_from_sources_requires_a_problem():
    with pytest.raises(ValueError, match="no problem given"):
        config_from_sources({"runs": "3"}, {})


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="unknown problem"):
        ExperimentConfig(problem="sat")
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig(problem="tsp", algorithm="hillclimb", instance="a.tsp")
    with pytest.raises(ValueError, match="runs"):
        ExperimentConfig(problem="tsp", runs=0, instance="a.tsp")
    with pytest.raises(ValueError, match="instance"):
        ExperimentConfig(problem="tsp")
    with pytest.raises(ValueError, match="site"):
        ExperimentConfig(problem="ligand-fixed")
    with pytest.raises(ValueError, match="pop must be at least 3, got 2"):
        ExperimentConfig(problem="tsp", pop=2, instance="a.tsp")
    with pytest.raises(ValueError, match="generations must be at least 1, got 0"):
        ExperimentConfig(problem="tsp", generations=0, instance="a.tsp")
    for optimum in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="optimum must be finite and positive"):
            ExperimentConfig(problem="tsp", optimum=optimum, instance="a.tsp")


def test_experiment_config_accepts_classic_ga_alias():
    cfg = ExperimentConfig(problem="tsp", algorithm="classic-ga", instance="a.tsp")
    assert cfg.algorithm == "classic"


# ---------------------------------------------------------------------------
# Classic baseline


def _engine_config(pop=24, generations=80, seed=0):
    return EngineConfig(
        max_pop=pop, generations=generations, seed=seed,
        schedule=MutationSchedule.for_dimension(6, generations),
    )


def test_classic_ga_solves_the_hexagon():
    problem = TspProblem(hexagon_instance())
    result = classic_ga_baseline(problem, _engine_config())
    assert result.best_individual.objective == 6.0
    assert sorted(result.best_individual.genome.tolist()) == list(range(6))


def test_classic_ga_is_deterministic():
    problem = TspProblem(hexagon_instance())
    a = classic_ga_baseline(problem, _engine_config(seed=3))
    b = classic_ga_baseline(problem, _engine_config(seed=3))
    assert a.best_trace == b.best_trace
    assert np.array_equal(a.best_individual.genome, b.best_individual.genome)


def test_classic_ga_trace_never_worsens():
    problem = TspProblem(hexagon_instance())
    for seed in range(3):
        values = [
            v for _, v in classic_ga_baseline(problem, _engine_config(seed=seed)).best_trace
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_classic_ga_flat_trace_on_constant_objective():
    result = classic_ga_baseline(ConstantProblem(), _engine_config(pop=8, generations=10))
    assert {v for _, v in result.best_trace} == {7.5}


def test_classic_ga_validates_config():
    problem = TspProblem(hexagon_instance())
    with pytest.raises(ValueError):
        classic_ga_baseline(problem, _engine_config(pop=2))
    with pytest.raises(ValueError):
        classic_ga_baseline(problem, _engine_config(generations=0))


# ---------------------------------------------------------------------------
# Experiments


def test_run_experiment_seeds_are_base_plus_index(hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, runs=3, seed=5))
    assert [s.seed for s in report.summaries] == [5, 6, 7]
    assert [r.seed for r in report.results] == [5, 6, 7]


def test_run_experiment_stats_are_consistent(hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, runs=4))
    bests = [s.best_objective for s in report.summaries]
    assert report.stats.best == min(bests)
    assert report.stats.best <= report.stats.average
    assert report.stats.runs == 4
    assert report.stats.average == pytest.approx(float(np.mean(bests)))


def test_run_experiment_reports_error_against_known_optimum(hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, optimum=60.0))
    assert report.stats.error_percent == pytest.approx(
        error_percent(report.stats.average, 60.0)
    )


def test_run_experiment_without_optimum_has_no_error_metric(hexagon_file):
    report = run_experiment(tsp_config(hexagon_file))
    assert report.stats.error_percent is None


def test_run_experiment_is_deterministic(hexagon_file):
    cfg = tsp_config(hexagon_file)
    assert render_report(run_experiment(cfg)) == render_report(run_experiment(cfg))


def test_run_experiment_parallel_runs_match_sequential(hexagon_file):
    sequential = run_experiment(tsp_config(hexagon_file, runs=2, jobs=1))
    parallel = run_experiment(tsp_config(hexagon_file, runs=2, jobs=2))
    assert render_report(sequential) == render_report(parallel)


def test_run_experiment_parallel_ligand_runs_match_sequential():
    # the problem, with its energy table, is pickled to the workers
    sequential = run_experiment(ligand_config(runs=2, jobs=1))
    parallel = run_experiment(ligand_config(runs=2, jobs=2))
    assert render_report(sequential, detail=True) == render_report(parallel, detail=True)


def test_run_experiment_ligand_reports_fitness():
    report = run_experiment(ligand_config())
    summary = report.summaries[0]
    assert summary.best_fitness == pytest.approx(100.0 / summary.best_objective)


def test_run_experiment_classic_algorithm(hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, algorithm="classic", runs=1))
    assert report.config.algorithm == "classic"
    assert report.summaries[0].best_objective >= 60.0


def test_wall_clock_is_recorded_per_run_but_never_rendered(hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, runs=2))
    assert len(report.wall_clock) == 2
    assert all(t >= 0 for t in report.wall_clock)
    text = render_report(report)
    for clock in report.wall_clock:
        assert f"{clock:.2f}" not in text.replace("60.00", "")


# ---------------------------------------------------------------------------
# Rendering and traces


def test_render_report_layout(hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, runs=2, optimum=60.0))
    lines = render_report(report).splitlines()
    assert lines[0] == "problem: tsp"
    assert lines[1] == "algorithm: nbga"
    assert lines[2] == "instance: hexagon.tsp"
    assert "runs: 2" in lines
    assert "optimum: 60" in lines
    header = lines.index("run seed best")
    assert len(lines) - header - 1 == 2  # one row per run
    row = lines[header + 1].split()
    assert row[0] == "1" and row[1] == "0"
    float(row[2])  # parses as a number


def test_emit_trace_tsp_leaves_fitness_blank(tmp_path, hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, runs=1, generations=12))
    path = tmp_path / "trace.csv"
    emit_trace(report.results[0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "generation,best_objective,fitness"
    assert len(lines) == 13
    assert all(line.endswith(",") for line in lines[1:])
    assert lines[1].startswith("1,")


def test_emit_trace_ligand_fitness_column():
    result = RunResult(
        best_individual=Individual(None, 50.0),
        best_trace=((1, 100.0), (2, 50.0)),
        seed=0,
        generations_run=2,
    )
    import io, os, tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        emit_trace(result, path, fitness_k=100.0)
        lines = open(path).read().splitlines()
    assert lines[1] == "1,100.000000,1.000000"
    assert lines[2] == "2,50.000000,2.000000"


def test_emit_trace_objective_column_is_nonincreasing(tmp_path, hexagon_file):
    report = run_experiment(tsp_config(hexagon_file, runs=1, generations=40))
    path = tmp_path / "trace.csv"
    emit_trace(report.results[0], path)
    values = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Fetch (exercised through file:// URLs, no network required)


@pytest.fixture
def instance_server(tmp_path):
    src = tmp_path / "server"
    src.mkdir()
    (src / "hexagon.tsp").write_text(hexagon_tsplib_text())
    (src / "broken.tsp").write_text("NAME: broken\nnot a real file\n")
    return f"file://{src}", src


def test_fetch_downloads_and_validates(instance_server, tmp_path):
    base_url, _ = instance_server
    dest = tmp_path / "cache"
    paths = fetch_instances(["hexagon"], base_url, dest)
    assert paths == [str(dest / "hexagon.tsp")]
    assert (dest / "hexagon.tsp").read_text() == hexagon_tsplib_text()


def test_fetch_is_idempotent(instance_server, tmp_path, capsys):
    base_url, _ = instance_server
    dest = tmp_path / "cache"
    fetch_instances(["hexagon"], base_url, dest)
    fetch_instances(["hexagon"], base_url, dest)
    assert "already present" in capsys.readouterr().err


def test_fetch_replaces_invalid_cached_file(instance_server, tmp_path):
    base_url, _ = instance_server
    dest = tmp_path / "cache"
    dest.mkdir()
    (dest / "hexagon.tsp").write_text("garbage\n")
    fetch_instances(["hexagon"], base_url, dest)
    assert (dest / "hexagon.tsp").read_text() == hexagon_tsplib_text()


def test_fetch_missing_instance_leaves_no_file(instance_server, tmp_path):
    base_url, _ = instance_server
    dest = tmp_path / "cache"
    with pytest.raises(RuntimeError, match="could not fetch"):
        fetch_instances(["absent"], base_url, dest)
    assert not (dest / "absent.tsp").exists()


def test_fetch_rejects_unparseable_download(instance_server, tmp_path):
    base_url, _ = instance_server
    dest = tmp_path / "cache"
    with pytest.raises(RuntimeError, match="does not parse"):
        fetch_instances(["broken"], base_url, dest)
    assert not (dest / "broken.tsp").exists()


# ---------------------------------------------------------------------------
# Entry point


def test_main_solve_tsp_writes_report_and_trace(tmp_path, hexagon_file, capsys):
    out = tmp_path / "report.txt"
    trace = tmp_path / "trace.csv"
    code = main([
        "solve-tsp", "--instance", str(hexagon_file), "--pop", "16",
        "--generations", "30", "--seed", "1",
        "--out", str(out), "--trace", str(trace),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == out.read_text()
    assert captured.out.startswith("problem: tsp\n")
    assert "total:" in captured.err  # timing goes to the error stream only
    assert "total:" not in captured.out
    assert trace.read_text().startswith("generation,best_objective,fitness\n")


def test_main_reruns_are_byte_identical(tmp_path, hexagon_file):
    args = [
        "solve-tsp", "--instance", str(hexagon_file), "--pop", "12",
        "--generations", "20", "--seed", "4",
    ]
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_main_design_ligand_includes_detail(tmp_path, capsys):
    code = main([
        "design-ligand", "--site", SAMPLE_SITE, "--pop", "8",
        "--generations", "4", "--seed", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("problem: ligand-variable\n")
    assert "placements:" in out
    assert "total_energy:" in out


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_main_design_ligand_rejects_non_finite_axis(tmp_path, capsys, value):
    site = tmp_path / "site.txt"
    with open(SAMPLE_SITE) as fh:
        site.write_text(fh.read().replace("right_axis 18.9", f"right_axis {value}"))
    code = main(["design-ligand", "--site", str(site), "--pop", "8", "--generations", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: right_major_axis must be finite")
    assert "Traceback" not in err


def test_main_design_ligand_fixed_mode(capsys):
    code = main([
        "design-ligand", "--site", SAMPLE_SITE, "--mode", "fixed",
        "--pop", "8", "--generations", "3",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("problem: ligand-fixed\n")


def test_main_bench_infers_problem_from_paths(tmp_path, hexagon_file, capsys):
    code = main([
        "bench", "--instance", str(hexagon_file), "--runs", "2",
        "--pop", "12", "--generations", "15",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("problem: tsp\n")

    code = main([
        "bench", "--site", SAMPLE_SITE, "--runs", "2",
        "--pop", "8", "--generations", "3",
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("problem: ligand-variable\n")


def test_main_config_file_with_flag_override(tmp_path, hexagon_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"problem = tsp\ninstance = {hexagon_file}\npop = 9\n"
        "generations = 10\nruns = 1\n"
    )
    code = main(["solve-tsp", "--config", str(cfg), "--pop", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pop: 11" in out
    assert "generations: 10" in out


def test_main_rejects_cross_problem_configs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = ligand-variable\nsite = {SAMPLE_SITE}\n")
    code = main(["solve-tsp", "--config", str(cfg)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["inf", "nan", "1.5"])
def test_main_solve_tsp_rejects_non_integer_node_index(tmp_path, capsys, index):
    path = tmp_path / "bad.tsp"
    path.write_text(hexagon_tsplib_text().replace("\n1 ", f"\n{index} ", 1))
    code = main(["solve-tsp", "--instance", str(path), "--pop", "8", "--generations", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line 6: node index '{index}' is not an integer")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_rejects_non_finite_optimum(tmp_path, hexagon_file, capsys, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = tsp\ninstance = {hexagon_file}\noptimum = {value}\n")
    code = main(["solve-tsp", "--config", str(cfg), "--pop", "8", "--generations", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: optimum must be finite and positive")
    assert "error_percent" not in captured.out


@pytest.mark.parametrize(
    "line, message",
    [
        ("optimum = 0", "optimum must be finite and positive, got 0.0"),
        ("optimum = -1", "optimum must be finite and positive, got -1.0"),
        ("pop = 2", "pop must be at least 3, got 2"),
        ("generations = 0", "generations must be at least 1, got 0"),
    ],
)
def test_main_rejects_bad_budgets_before_any_run(
    tmp_path, hexagon_file, capsys, monkeypatch, line, message
):
    def evolve(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr("nbga.cli.evolve", evolve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = tsp\ninstance = {hexagon_file}\nruns = 30\n{line}\n")
    assert main(["bench", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ("runs = 1.5", "runs: expected an integer, got '1.5'"),
        ("pop = ten", "pop: expected an integer, got 'ten'"),
        ("optimum = abc", "optimum: expected a number, got 'abc'"),
    ],
)
def test_main_names_the_key_of_a_bad_config_value(tmp_path, hexagon_file, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = tsp\ninstance = {hexagon_file}\n{line}\n")
    assert main(["solve-tsp", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _eil51_named_file(path, n):
    """An ``n``-city EUC_2D file whose NAME claims to be eil51."""
    coords = np.random.default_rng(7).uniform(0.0, 100.0, size=(n, 2))
    lines = ["NAME : eil51", "TYPE : TSP", f"DIMENSION : {n}",
             "EDGE_WEIGHT_TYPE : EUC_2D", "NODE_COORD_SECTION"]
    lines += [f"{i} {x:.3f} {y:.3f}" for i, (x, y) in enumerate(coords, start=1)]
    path.write_text("\n".join(lines) + "\nEOF\n")
    return path


def test_main_known_optimum_follows_name_and_dimension(tmp_path, capsys):
    renamed = _eil51_named_file(tmp_path / "renamed.tsp", 51)
    args = ["solve-tsp", "--pop", "8", "--generations", "3"]
    assert main(args + ["--instance", str(renamed)]) == 0
    out = capsys.readouterr().out
    assert "optimum: 426\n" in out
    assert "error_percent:" in out

    small = _eil51_named_file(tmp_path / "eil51.tsp", 8)
    assert main(args + ["--instance", str(small)]) == 0
    out = capsys.readouterr().out
    assert "optimum:" not in out
    assert "error_percent:" not in out


def test_main_missing_instance_file_fails_cleanly(capsys):
    code = main(["solve-tsp", "--instance", "no_such_file.tsp"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_fetch_requires_base_url(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NBGA_TSPLIB_BASE_URL", raising=False)
    code = main(["fetch", "--out", str(tmp_path / "cache")])
    assert code == 1
    assert "no base URL" in capsys.readouterr().err


def test_main_fetch_uses_env_base_url(instance_server, tmp_path, monkeypatch):
    base_url, _ = instance_server
    monkeypatch.setenv("NBGA_TSPLIB_BASE_URL", base_url)
    dest = tmp_path / "cache"
    code = main(["fetch", "hexagon", "--out", str(dest)])
    assert code == 0
    assert (dest / "hexagon.tsp").exists()
