"""Workload process of the benchmark; started by ``run.py``.

Runs one workload's GA seeds through ``nbga.cli.run_experiment`` one
after another, times each call from outside, checks every result and
hashes it, and prints one JSON object as its last line.  With
``--trace 1`` each seed runs once untraced and once traced (the order
alternating), the two digests must agree, and the per-layer numbers
come from the traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import nbga
from nbga.cli import ExperimentConfig, emit_trace, render_report, run_experiment
from nbga.ligand import LigandProblem, interaction_energy, load_site, validate_chromosome
from nbga.tsp import load_tsplib, tour_cost

import tracing
from workloads import WORKDIR, WORKLOADS, Workload, run_seed, tiny, write_input

WARMUP_K = 999  # run index of the untimed warm-up run


def digest(result) -> str:
    """Hash of the best trace and the best genome of one run."""
    h = hashlib.sha256()
    for gen, value in result.best_trace:
        h.update(f"{gen} {value!r}\n".encode())
    genome = result.best_individual.genome
    codes = genome.right + genome.left if hasattr(genome, "right") else genome.tolist()
    h.update(repr(codes).encode())
    return h.hexdigest()[:16]


class Checker:
    """Correctness checks of one run's result, from an independent load
    of the workload's input."""

    def __init__(self, w: Workload, input_path: Path):
        self.w = w
        if w.problem == "tsp":
            self.instance = load_tsplib(input_path)
        else:
            mode = "fixed" if w.problem == "ligand-fixed" else "variable"
            self.ligand = LigandProblem(load_site(input_path), mode=mode)

    def errors(self, result) -> list[str]:
        out = []
        best = result.best_individual
        values = [v for _, v in result.best_trace]
        if not all(math.isfinite(v) for v in values + [best.objective]):
            out.append("non-finite objective")
        if [g for g, _ in result.best_trace] != list(range(1, self.w.generations + 1)):
            out.append("best_trace does not hold one entry per generation")
        if any(b > a for a, b in zip(values, values[1:])):
            out.append("best_trace increases")
        if values and values[-1] != best.objective:
            out.append("best_trace does not end at the best objective")
        if self.w.problem == "tsp":
            tour = np.asarray(best.genome)
            if sorted(tour.tolist()) != list(range(self.instance.n)):
                out.append("best tour is not a permutation")
            elif tour_cost(tour, self.instance) != best.objective:
                out.append("tour_cost differs from the reported objective")
        else:
            p = self.ligand
            violations = validate_chromosome(best.genome, p.mode, p.right_bounds, p.left_bounds)
            if violations:
                out.append(f"invalid best chromosome: {violations}")
            elif interaction_energy(best.genome, p.site).total != best.objective:
                out.append("interaction energy differs from the reported objective")
        return out


def experiment(w: Workload, input_path: Path, seed: int, generations: int) -> ExperimentConfig:
    source = {"instance" if w.problem == "tsp" else "site": str(input_path)}
    return ExperimentConfig(
        problem=w.problem,
        algorithm=w.algorithm,
        runs=1,
        jobs=1,
        pop=w.pop,
        generations=generations,
        seed=seed,
        **source,
    )


def run_once(w: Workload, seed: int, tracer=None) -> tuple[dict, object]:
    """One timed ``run_experiment`` call and its checked outcome."""
    rec = {"seed": seed, "traced": tracer is not None}
    input_path = write_input(w, seed)
    cfg = experiment(w, input_path, seed, w.generations)
    try:
        with nullcontext() if tracer is None else tracing.installed(tracer, seed):
            start = time.perf_counter()
            report = run_experiment(cfg)
            elapsed = time.perf_counter() - start
        result = report.results[0]
        rec.update(
            gen_ms=1e3 * elapsed / w.generations,
            best=result.best_individual.objective,
            digest=digest(result),
            errors=Checker(w, input_path).errors(result),
        )
        return rec, report
    except Exception as exc:  # a failed run is counted, not fatal
        rec["errors"] = [f"{type(exc).__name__}: {exc}"]
        return rec, None


def report_ms(report) -> float:
    """Wall ms of the report step a CLI invocation ends with."""
    path = WORKDIR / "best_trace.csv"
    # a fresh file: truncating one just written makes ext4 flush it first
    path.unlink(missing_ok=True)
    fitness_k = None if report.config.problem == "tsp" else 100.0
    start = time.perf_counter()
    render_report(report)
    emit_trace(report.results[0], path, fitness_k=fitness_k)
    return 1e3 * (time.perf_counter() - start)


def layer_metrics(tracer, runs: list[dict], report_times: list[float], generations: int):
    """Per-layer numbers of a traced invocation's runs."""
    totals = tracer.totals()
    counts = tracer.counts
    traced = [r for r in runs if r["traced"] and "gen_ms" in r]
    plain = [r for r in runs if not r["traced"] and "gen_ms" in r]

    def calls(name):
        return totals.get(name, [0, 0, 0])[0]

    def us_per_call(name):
        n, total, _ = totals.get(name, [0, 0, 0])
        return total / n / 1e3 if n else 0.0

    def ratio(count, name):
        return counts[count] / calls(name) if calls(name) else 0.0

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def self_ms_per_gen(names):
        return median(tracer.self_ns(r["seed"], names) / generations / 1e6 for r in traced)

    runs = max(len(traced), 1)
    out = {}
    for layer in ("tsp", "ligand"):
        for op in ("objective", "mutate", "crossover"):
            out[f"{layer}.{op}.us_per_call"] = us_per_call(f"{layer}.{op}")
        out[f"{layer}.objective.repeat_share"] = ratio(f"{layer}.objective.repeats", f"{layer}.objective")
    out["tsp.objective.calls"] = calls("tsp.objective") / runs
    out["ligand.objective.groups_per_call"] = ratio("ligand.objective.groups", "ligand.objective")
    out["ligand.correct.us_per_call"] = us_per_call("ligand.correct")
    out["ligand.correct.calls"] = calls("ligand.correct") / runs
    out["ligand.correct.changed_ratio"] = ratio("ligand.correct.changed", "ligand.correct")
    out["core.self_ms_per_gen"] = self_ms_per_gen(tracing.CORE_SPANS)
    out["cli.classic.self_ms_per_gen"] = self_ms_per_gen((tracing.CLASSIC_SPAN,))
    out["core.mutation.accept_ratio"] = ratio("core.mutation.accepted", "core.greedy_mutation_step")
    for winner in ("parent", "son1", "son2"):
        out[f"core.trio.{winner}_ratio"] = ratio(f"core.trio.{winner}", "core.trio_select")
    out["cli.report_ms"] = median(report_times)
    plain_ms = median(r["gen_ms"] for r in plain)
    out["trace.overhead_ratio"] = median(r["gen_ms"] for r in traced) / plain_ms if plain_ms else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    src = Path(nbga.__file__).resolve().parent

    # warm-up: first-call costs are paid once per process, not per run
    warmup = run_seed(args.seed, WARMUP_K)
    run_experiment(experiment(w, write_input(w, warmup), warmup, min(w.generations, 10)))

    runs: list[dict] = []
    out = {"nbga": str(src), "python": platform.python_version(), "numpy": np.__version__}
    started = time.perf_counter()

    def time_left(k: int, floor: int) -> bool:
        if k < floor:
            return True
        per_seed = (time.perf_counter() - started) / k
        return time.perf_counter() - started + per_seed <= args.seconds

    if not args.trace:
        k = 0
        while time_left(k, w.min_runs):
            runs.append(run_once(w, run_seed(args.seed, k))[0])
            k += 1
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = tracing.Tracer()
        report_times = []
        k = 0
        while time_left(k, w.min_pairs):
            seed = run_seed(args.seed, k)
            pair = {}
            for t in (None, tracer) if k % 2 == 0 else (tracer, None):
                pair[t is not None] = run_once(w, seed, t)
            (plain, _), (traced, report) = pair[False], pair[True]
            if "digest" in traced and traced["digest"] != plain.get("digest"):
                traced["errors"].append("traced digest differs from the untraced run")
            if report is not None:
                report_times.append(report_ms(report))
            runs += [plain, traced]
            k += 1
        tracer.write(WORKDIR / f"spans-{w.name}-s{args.seed}.jsonl")
        out["layers"] = layer_metrics(tracer, runs, report_times, w.generations)
    out["runs"] = runs
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
