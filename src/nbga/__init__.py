"""Neighbourhood-based genetic algorithm toolkit.

A genome-generic GA engine built around a ring parent topology, trio
selection and a scheduled mutation mix, with problem bundles for
travelling-salesman tours and tree-structured ligand design.
"""

from .core import (
    EngineConfig,
    Individual,
    MutationSchedule,
    RunResult,
    classic_ga_baseline,
    evolve,
)
from .ligand import (
    CATALOGUE,
    ActiveSite,
    LigandChromosome,
    LigandProblem,
    correct,
    fitness,
    interaction_energy,
    layout,
    load_site,
    parse_site,
    validate_chromosome,
)
from .tsp import (
    TspInstance,
    TspProblem,
    brute_force_optimum,
    error_percent,
    load_tsplib,
    parse_tsplib,
    tour_cost,
)

__all__ = [
    "EngineConfig",
    "Individual",
    "MutationSchedule",
    "RunResult",
    "evolve",
    "classic_ga_baseline",
    "TspInstance",
    "TspProblem",
    "brute_force_optimum",
    "error_percent",
    "load_tsplib",
    "parse_tsplib",
    "tour_cost",
    "CATALOGUE",
    "ActiveSite",
    "LigandChromosome",
    "LigandProblem",
    "correct",
    "fitness",
    "interaction_energy",
    "layout",
    "load_site",
    "parse_site",
    "validate_chromosome",
]

__version__ = "0.1.0"
