"""The benchmark's workloads and the inputs they are built from.

Every workload goes through the user path, ``nbga.cli.run_experiment``
with ``runs=1`` and ``jobs=1``, once per run.  Run ``k`` of an
invocation uses the run seed ``1000 * seed + k``, where ``seed`` is the
workload seed given on the command line: it is the GA seed and, for
TSP, also the seed of the run's own instance, so ``best_objective``
averages over instances as well as over GA seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]  # the checkout
WORKDIR = ROOT / ".perfbench"  # inputs, results and spans
SITE = ROOT / "src" / "nbga" / "data" / "sample_site.txt"
CITIES = 51
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Every untraced invocation makes at least ``min_runs`` runs, so
    ``best_objective`` (their mean) depends on the workload seed alone;
    more runs follow while ``--seconds`` lasts.  ``min_pairs`` is the
    same floor for the traced invocation, which makes each run once
    untraced and once traced.
    """

    name: str
    problem: str  # ExperimentConfig.problem
    algorithm: str  # ExperimentConfig.algorithm
    pop: int
    generations: int
    min_runs: int
    min_pairs: int


WORKLOADS = {
    w.name: w
    for w in (
        # cheap objective: OX crossover and engine overhead dominate
        Workload("tsp-syn51", "tsp", "nbga", pop=100, generations=1000, min_runs=8, min_pairs=3),
        # energy kernel and repair dominate; OX is never called
        Workload(
            "ligand-var", "ligand-variable", "nbga", pop=100, generations=100, min_runs=14, min_pairs=4
        ),
        # 17 groups per objective, no occupancy fill, the classic loop in cli
        Workload(
            "ligand-fixed-classic",
            "ligand-fixed",
            "classic",
            pop=100,
            generations=100,
            min_runs=30,
            min_pairs=8,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload on a budget small enough for a smoke test."""
    return replace(w, pop=10, generations=10, min_runs=2, min_pairs=1)


def run_seed(seed: int, k: int) -> int:
    return SEED_STRIDE * seed + k


def tsp_instance_text(seed: int, n: int = CITIES) -> str:
    """A uniform random EUC_2D instance in TSPLIB form, drawn from ``seed``.

    Its name is ``syn<n>-s<seed>``, which matches no published instance,
    so no known optimum is looked up for it.
    """
    import numpy as np

    coords = np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, 2))
    lines = [
        f"NAME : syn{n}-s{seed}",
        "TYPE : TSP",
        f"DIMENSION : {n}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        "NODE_COORD_SECTION",
    ]
    lines += [f"{i + 1} {x:.4f} {y:.4f}" for i, (x, y) in enumerate(coords)]
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def write_input(w: Workload, seed: int) -> Path:
    """Path of the input file of the run with run seed ``seed``,
    writing it first for TSP."""
    if w.problem != "tsp":
        return SITE
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / f"syn{CITIES}-s{seed}.tsp"
    path.write_text(tsp_instance_text(seed), encoding="ascii")
    return path
