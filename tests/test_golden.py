"""Golden oracle: reports, traces and best genomes of six fixed runs.

Each case runs a small seeded experiment and renders its report (with
the placement and energy detail for ligand problems), the best run's
CSV trace, and every run's best genome and exact per-generation trace.
The SHA-256 of that text must equal the digest recorded in ``GOLDEN``.
A refactor that keeps the RNG draw order and the float arithmetic
keeps every digest; a change that alters results on purpose records
the new digests and says why.
"""

import hashlib
import importlib.resources

import numpy as np
import pytest

from nbga.cli import ExperimentConfig, emit_trace, render_report, run_experiment
from nbga.ligand import FITNESS_K

SAMPLE_SITE = str(importlib.resources.files("nbga") / "data" / "sample_site.txt")

# name -> (problem, algorithm, generations, optimum)
CASES = {
    "tsp-nbga": ("tsp", "nbga", 40, 500.0),
    "tsp-classic": ("tsp", "classic", 40, None),
    "ligand-variable-nbga": ("ligand-variable", "nbga", 40, None),
    "ligand-variable-classic": ("ligand-variable", "classic", 40, None),
    "ligand-fixed-nbga": ("ligand-fixed", "nbga", 40, None),
    "ligand-fixed-classic": ("ligand-fixed", "classic", 40, None),
}

GOLDEN = {
    "tsp-nbga": "9e19f3d6ec06105b3345e99a1b63691105d57ee3c77f730ae7d371c5db4f1353",
    "tsp-classic": "6ae292134fce7eda5a729f0f08ee5395828f1c85f17a19f0124139a5964036d5",
    "ligand-variable-nbga": "5a48bbebb0049fda6d797b5537a6749e248b467376918a4fe7b83128622c3ca6",
    "ligand-variable-classic": "f45ee8fa811a1d9a9a40c4edb61f5206e0dd222186fa065bee674ba5b88a6b69",
    "ligand-fixed-nbga": "917c7ad770d1022c93b2e8496a1bbc34aad634c282d40c6af05e57d7dcef3561",
    "ligand-fixed-classic": "bc4ab415fbd4f07eba29fc3ac2e0178776fa7901bbb728021597c388117e05d1",
}


def write_syn51(path) -> None:
    """A 51-city EUC_2D instance drawn from a fixed seed."""
    coords = np.random.default_rng(7).uniform(0.0, 100.0, size=(51, 2))
    lines = [
        "NAME: syn51",
        "TYPE: TSP",
        "DIMENSION: 51",
        "EDGE_WEIGHT_TYPE: EUC_2D",
        "NODE_COORD_SECTION",
    ]
    lines += [f"{i} {x:.6f} {y:.6f}" for i, (x, y) in enumerate(coords, start=1)]
    path.write_text("\n".join(lines) + "\nEOF\n")


def rendered(name: str, tmp_path) -> str:
    problem, algorithm, generations, optimum = CASES[name]
    ligand = problem.startswith("ligand")
    if ligand:
        source = {"site": SAMPLE_SITE}
    else:
        source = {"instance": str(tmp_path / "syn51.tsp")}
        write_syn51(tmp_path / "syn51.tsp")
    cfg = ExperimentConfig(
        problem=problem, algorithm=algorithm, runs=2, pop=30,
        generations=generations, seed=11, optimum=optimum, **source,
    )
    report = run_experiment(cfg)
    best = min(report.results, key=lambda r: r.best_individual.objective)
    trace_path = tmp_path / "trace.csv"
    emit_trace(best, trace_path, fitness_k=FITNESS_K if ligand else None)
    parts = [render_report(report, detail=ligand), trace_path.read_text()]
    for r in report.results:
        genome = r.best_individual.genome
        codes = (genome.right, genome.left) if ligand else genome.tolist()
        parts.append(f"{r.seed} {r.best_individual.objective!r} {codes}\n{r.best_trace!r}\n")
    return "".join(parts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    digest = hashlib.sha256(rendered(name, tmp_path).encode()).hexdigest()
    assert digest == GOLDEN[name]
