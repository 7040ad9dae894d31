"""Command-line driver: seeded multi-run experiments over the TSP and
ligand problem bundles, trace/report emission, and a benchmark-instance
fetcher.

Subcommands: ``solve-tsp``, ``design-ligand``, ``bench``, ``fetch``.
Reports and traces are written deterministically — rerunning the same
configuration and seed reproduces them byte for byte; timing and other
diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .core import EngineConfig, MutationSchedule, RunResult, classic_ga_baseline, evolve
from .ligand import FITNESS_K, LigandProblem, fitness, load_site
from .tsp import TspProblem, error_percent, load_tsplib

__all__ = [
    "ExperimentConfig",
    "BenchmarkStats",
    "ExperimentReport",
    "RunSummary",
    "run_experiment",
    "render_report",
    "emit_trace",
    "fetch_instances",
    "main",
]

FETCH_BASE_URL_ENV = "NBGA_TSPLIB_BASE_URL"
DEFAULT_FETCH_NAMES = ("gr24", "bayg29", "gr48", "eil51", "st70")

# published optimal tour lengths for the benchmark instances the
# harness reports on, keyed by TSPLIB (NAME, DIMENSION)
KNOWN_OPTIMA = {("gr24", 24): 1272, ("bayg29", 29): 1610, ("gr48", 48): 5046,
                ("eil51", 51): 426, ("st70", 70): 675}

DEFAULT_GENERATIONS = {"tsp": 2000, "ligand": 100}


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: problem, algorithm, budgets, seeds and paths."""

    problem: str  # "tsp" | "ligand-fixed" | "ligand-variable"
    algorithm: str = "nbga"  # | "classic"
    runs: int = 1
    pop: int = 100
    generations: int | None = None  # problem-specific default when None
    seed: int = 0
    instance: str | None = None
    site: str | None = None
    trace: str | None = None
    out: str | None = None
    optimum: float | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.problem not in ("tsp", "ligand-fixed", "ligand-variable"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.algorithm == "classic-ga":  # accepted alias
            object.__setattr__(self, "algorithm", "classic")
        if self.algorithm not in ("nbga", "classic"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name, least in {"runs": 1, "jobs": 1, "pop": 3, "generations": 1}.items():
            value = getattr(self, name)
            if value is not None and value < least:  # generations is None for the default
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.optimum is not None and not (np.isfinite(self.optimum) and self.optimum > 0):
            raise ValueError(f"optimum must be finite and positive, got {self.optimum}")
        if self.problem == "tsp" and not self.instance:
            raise ValueError("tsp experiments need an instance file")
        if self.problem.startswith("ligand") and not self.site:
            raise ValueError("ligand experiments need a site file")


@dataclass(frozen=True)
class RunSummary:
    """Per-run result row of a report."""

    seed: int
    best_objective: float
    best_fitness: float | None


@dataclass(frozen=True)
class BenchmarkStats:
    """Best / average / error summary over a batch of runs; ``optimum``
    and ``error_percent`` are ``None`` when no optimum is known."""

    best: float
    average: float
    optimum: float | None
    error_percent: float | None
    runs: int


@dataclass(frozen=True)
class ExperimentReport:
    """All runs of one experiment plus aggregate statistics.

    ``problem`` is the bundle the runs optimized; the ligand report
    detail scores with it.  ``fitness_of`` maps an objective to the
    reported fitness (``None`` when the problem reports none).
    ``wall_clock`` (seconds per run) is diagnostic only and is never
    written into report files, which must be reproducible byte for
    byte.
    """

    config: ExperimentConfig
    summaries: tuple[RunSummary, ...]
    stats: BenchmarkStats
    results: tuple[RunResult, ...] = field(repr=False)
    problem: Any = field(repr=False)
    fitness_of: Callable[[float], float] | None = field(repr=False)
    wall_clock: tuple[float, ...] = field(repr=False, default=())


def load_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` config text; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


_CONFIG_KEYS = {  # key -> (conversion of its text, what the text must be)
    **dict.fromkeys(("runs", "pop", "generations", "seed", "jobs"), (int, "an integer")),
    "optimum": (float, "a number"),
    **dict.fromkeys(("problem", "algorithm", "instance", "site", "trace", "out"), (str, "text")),
}


def config_from_sources(file_values: dict[str, str], flag_values: dict) -> ExperimentConfig:
    """Merge config-file values with CLI flags; flags win."""
    merged: dict = {}
    for key, text in file_values.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        convert, kind = _CONFIG_KEYS[key]
        try:
            merged[key] = convert(text)
        except ValueError:
            raise ValueError(f"{key}: expected {kind}, got {text!r}") from None
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    if "problem" not in merged:
        raise ValueError("no problem given: set the 'problem' config key")
    return ExperimentConfig(**merged)


# ---------------------------------------------------------------------------
# Experiments


def _build_problem(cfg: ExperimentConfig):
    """The problem and its fitness function (``None`` for TSP, which
    reports no fitness)."""
    if cfg.problem == "tsp":
        return TspProblem(load_tsplib(cfg.instance)), None
    site = load_site(cfg.site)
    mode = "fixed" if cfg.problem == "ligand-fixed" else "variable"
    return LigandProblem(site, mode=mode), fitness


def _effective_generations(cfg: ExperimentConfig) -> int:
    if cfg.generations is not None:
        return cfg.generations
    return DEFAULT_GENERATIONS["tsp" if cfg.problem == "tsp" else "ligand"]


def _run_one(problem, engine_cfg: EngineConfig, algorithm: str) -> tuple[RunResult, float]:
    start = time.perf_counter()
    if algorithm == "classic":
        result = classic_ga_baseline(problem, engine_cfg)
    else:
        result = evolve(problem, engine_cfg)
    return result, time.perf_counter() - start


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute ``cfg.runs`` independent seeded runs and aggregate them.

    Run ``i`` uses seed ``cfg.seed + i``.  With ``jobs > 1`` runs
    execute in parallel processes; the report is always ordered by
    seed, so the output does not depend on scheduling.
    """
    problem, fitness_of = _build_problem(cfg)
    generations = _effective_generations(cfg)
    schedule = MutationSchedule.for_dimension(problem.n, generations)
    engine_cfgs = [
        EngineConfig(
            max_pop=cfg.pop, generations=generations, seed=cfg.seed + i, schedule=schedule
        )
        for i in range(cfg.runs)
    ]

    if cfg.jobs > 1 and cfg.runs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(
                pool.map(_run_one, [problem] * cfg.runs, engine_cfgs, [cfg.algorithm] * cfg.runs)
            )
    else:
        outcomes = [_run_one(problem, ec, cfg.algorithm) for ec in engine_cfgs]

    results = tuple(r for r, _ in outcomes)
    clocks = tuple(t for _, t in outcomes)

    summaries = tuple(
        RunSummary(
            seed=r.seed,
            best_objective=r.best_individual.objective,
            best_fitness=fitness_of(r.best_individual.objective) if fitness_of else None,
        )
        for r in results
    )
    bests = [s.best_objective for s in summaries]
    average = float(np.mean(bests))
    optimum = cfg.optimum
    if optimum is None and cfg.problem == "tsp":
        optimum = KNOWN_OPTIMA.get((problem.instance.name, problem.instance.n))
    stats = BenchmarkStats(
        best=float(min(bests)),
        average=average,
        optimum=optimum,
        error_percent=error_percent(average, optimum) if optimum is not None else None,
        runs=cfg.runs,
    )
    return ExperimentReport(
        config=cfg,
        summaries=summaries,
        stats=stats,
        results=results,
        problem=problem,
        fitness_of=fitness_of,
        wall_clock=clocks,
    )


# ---------------------------------------------------------------------------
# Output


def render_report(report: ExperimentReport, detail: bool = False) -> str:
    """Deterministic text report (best/average/error layout).

    With ``detail`` the best run's chromosome, placements and energy
    terms are included (ligand problems only).
    """
    cfg = report.config
    lines = [
        f"problem: {cfg.problem}",
        f"algorithm: {cfg.algorithm}",
    ]
    if cfg.instance:
        lines.append(f"instance: {os.path.basename(cfg.instance)}")
    if cfg.site:
        lines.append(f"site: {os.path.basename(cfg.site)}")
    lines += [
        f"runs: {cfg.runs}",
        f"pop: {cfg.pop}",
        f"generations: {_effective_generations(cfg)}",
        f"base_seed: {cfg.seed}",
    ]
    stats = report.stats
    if stats.optimum is not None:
        lines.append(f"optimum: {stats.optimum:g}")
    lines += [
        f"best: {stats.best:.6f}",
        f"average: {stats.average:.6f}",
    ]
    if stats.error_percent is not None:
        lines.append(f"error_percent: {stats.error_percent:.4f}")
    header = "run seed best" + (" fitness" if report.summaries[0].best_fitness is not None else "")
    lines.append(header)
    for idx, s in enumerate(report.summaries, start=1):
        row = f"{idx} {s.seed} {s.best_objective:.6f}"
        if s.best_fitness is not None:
            row += f" {s.best_fitness:.6f}"
        lines.append(row)

    if detail and report.config.problem.startswith("ligand"):
        lines += _ligand_detail(report)
    return "\n".join(lines) + "\n"


def _ligand_detail(report: ExperimentReport) -> list[str]:
    from .ligand import CATALOGUE, interaction_energy, layout

    problem = report.problem
    best = min(report.results, key=lambda r: r.best_individual.objective)
    chromo = best.best_individual.genome
    energy = interaction_energy(chromo, problem.site)
    lines = [
        "best_run_seed: %d" % best.seed,
        "right: " + " ".join(str(v) for v in chromo.right),
        "left: " + " ".join(str(v) for v in chromo.left),
        "placements:",
        "side pos code name x y",
    ]
    for p in layout(chromo, problem.site):
        lines.append(
            f"{p.side} {p.position} {p.code} {CATALOGUE[p.code].name} {p.x:.6f} {p.y:.6f}"
        )
    lines += ["energy_terms:", "side pos code residue distance term"]
    for t in energy.terms:
        lines.append(
            f"{t.side} {t.position} {t.code} {t.residue} {t.distance:.6f} {t.term:.6f}"
        )
    lines.append(f"total_energy: {energy.total:.6f}")
    lines.append(f"fitness: {report.fitness_of(energy.total):.6f}")
    return lines


def emit_trace(result: RunResult, path, fitness_k: float | None = None) -> None:
    """Write one run's per-generation trace as CSV.

    Columns ``generation,best_objective,fitness`` — the fitness column
    is ``fitness_k / best_objective`` when ``fitness_k`` is given
    (ligand) and empty otherwise (TSP).
    """
    with open(path, "w") as fh:
        fh.write("generation,best_objective,fitness\n")
        for gen, best in result.best_trace:
            column = "" if fitness_k is None else f"{fitness_k / best:.6f}"
            fh.write(f"{gen},{best:.6f},{column}\n")


def _write_outputs(report: ExperimentReport, detail: bool) -> str:
    cfg = report.config
    text = render_report(report, detail=detail)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    if cfg.trace:
        best = min(report.results, key=lambda r: r.best_individual.objective)
        emit_trace(best, cfg.trace, FITNESS_K if cfg.problem.startswith("ligand") else None)
    return text


# ---------------------------------------------------------------------------
# Fetch


def fetch_instances(names, base_url: str, dest_dir) -> list[str]:
    """Download TSPLIB instances into ``dest_dir``.

    Each name ``x`` is fetched from ``base_url/x.tsp``, parsed to check
    its DIMENSION, and removed again if it does not parse.  Files that
    already exist and parse are skipped, so the command is idempotent.
    Returns the paths now present.
    """
    import urllib.error
    import urllib.request

    from .tsp import parse_tsplib

    os.makedirs(dest_dir, exist_ok=True)
    done: list[str] = []
    for name in names:
        path = os.path.join(dest_dir, f"{name}.tsp")
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    parse_tsplib(fh.read())
                print(f"{name}: already present, skipping", file=sys.stderr)
                done.append(path)
                continue
            except ValueError:
                print(f"{name}: existing file invalid, refetching", file=sys.stderr)
        url = f"{base_url.rstrip('/')}/{name}.tsp"
        try:
            with urllib.request.urlopen(url) as response:
                body = response.read().decode("utf-8", errors="replace")
        except (urllib.error.URLError, OSError) as exc:
            raise RuntimeError(f"could not fetch {url}: {exc}") from exc
        try:
            parse_tsplib(body)
        except ValueError as exc:
            raise RuntimeError(f"{name}: downloaded file does not parse: {exc}") from exc
        with open(path, "w") as fh:
            fh.write(body)
        print(f"{name}: fetched {len(body)} bytes", file=sys.stderr)
        done.append(path)
    return done


# ---------------------------------------------------------------------------
# Entry point


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file; flags override it")
    sub.add_argument("--instance", help="TSPLIB instance path")
    sub.add_argument("--site", help="active-site file path")
    sub.add_argument("--algorithm", choices=("nbga", "classic"))
    sub.add_argument("--mode", choices=("fixed", "variable"))
    sub.add_argument("--runs", type=int)
    sub.add_argument("--pop", type=int)
    sub.add_argument("--generations", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--trace", help="write the best run's per-generation CSV trace here")
    sub.add_argument("--out", help="write the report here (also printed to stdout)")


def _experiment_config(args, problem_default: str, runs_default: int) -> ExperimentConfig:
    file_values = load_config_file(args.config) if args.config else {}
    flags = {
        "instance": args.instance,
        "site": args.site,
        "algorithm": args.algorithm,
        "runs": args.runs,
        "pop": args.pop,
        "generations": args.generations,
        "seed": args.seed,
        "trace": args.trace,
        "out": args.out,
    }
    problem = file_values.get("problem", problem_default)
    if problem.startswith("ligand"):
        mode = args.mode or ("fixed" if problem == "ligand-fixed" else "variable")
        problem = f"ligand-{mode}"
    flags["problem"] = problem
    if "runs" not in file_values and args.runs is None:
        flags["runs"] = runs_default
    return config_from_sources(file_values, flags)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nbga",
        description="Neighbourhood-based GA toolkit: TSP benchmarks and 2D ligand design.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_tsp = subs.add_parser("solve-tsp", help="optimize one TSPLIB instance")
    _add_common_flags(p_tsp)
    p_lig = subs.add_parser("design-ligand", help="optimize a ligand against an active site")
    _add_common_flags(p_lig)
    p_bench = subs.add_parser("bench", help="multi-run benchmark with best/average/error stats")
    _add_common_flags(p_bench)
    p_fetch = subs.add_parser("fetch", help="download TSPLIB benchmark instances")
    p_fetch.add_argument("names", nargs="*", default=None)
    p_fetch.add_argument("--out", required=True, help="destination directory")
    p_fetch.add_argument(
        "--base-url",
        default=os.environ.get(FETCH_BASE_URL_ENV),
        help=f"instance repository URL (default: ${FETCH_BASE_URL_ENV})",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "fetch":
            if not args.base_url:
                raise ValueError(
                    f"no base URL: pass --base-url or set ${FETCH_BASE_URL_ENV}"
                )
            names = args.names or list(DEFAULT_FETCH_NAMES)
            fetch_instances(names, args.base_url, args.out)
            return 0

        if args.command == "solve-tsp":
            cfg = _experiment_config(args, "tsp", runs_default=1)
            if not cfg.problem == "tsp":
                raise ValueError("solve-tsp runs TSP configs only")
        elif args.command == "design-ligand":
            cfg = _experiment_config(args, "ligand-variable", runs_default=1)
            if not cfg.problem.startswith("ligand"):
                raise ValueError("design-ligand runs ligand configs only")
        else:  # bench
            default_problem = "ligand-variable" if (args.site and not args.instance) else "tsp"
            cfg = _experiment_config(args, default_problem, runs_default=30)

        started = time.perf_counter()
        report = run_experiment(cfg)
        text = _write_outputs(report, detail=args.command == "design-ligand")
        sys.stdout.write(text)
        for seed, clock in zip(
            (s.seed for s in report.summaries), report.wall_clock
        ):
            print(f"seed {seed}: {clock:.2f}s", file=sys.stderr)
        print(f"total: {time.perf_counter() - started:.2f}s", file=sys.stderr)
        return 0
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
