"""Genome-generic neighbourhood-based GA engine.

The engine is agnostic to what a genome is.  A *problem bundle* is any
object exposing:

``random_genome(rng)``
    Draw a fresh random genome.
``objective(genome)``
    Evaluate a genome; lower is better (the engine minimizes).  A
    non-finite value raises ``ValueError``.
``mutate(genome, gen, schedule, rng)``
    Produce a mutated copy; may adapt its breadth to the generation
    number through the :class:`MutationSchedule`.
``crossover(a, b, rng)``
    Produce two offspring genomes from two parents.

Operators must emit valid genomes; the engine never normalizes them.

One generation of :func:`evolve` performs, in order: a greedy mutation
sweep over every member (mutant replaces the original only when
strictly better), a uniform shuffle of the population, ring
construction over the shuffled order, a crossover of every consecutive
pair, and a trio selection that fills slot ``i`` with the best of the
left parent and its two sons.  All randomness is drawn from a single
seeded generator in that fixed order, so a run is fully reproducible
from ``(config, seed)``.  :func:`classic_ga_baseline` runs a plain
generational GA over the same problem surface, for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = [
    "Individual",
    "MutationSchedule",
    "EngineConfig",
    "RunResult",
    "hi_at",
    "ring_pairs",
    "trio_select",
    "greedy_mutation_step",
    "evolve",
    "classic_ga_baseline",
]

# chance that a classic-GA child is mutated after crossover
CLASSIC_MUTATION_RATE = 0.25


@dataclass(frozen=True)
class Individual:
    """A genome together with its cached objective value."""

    genome: Any
    objective: float


@dataclass(frozen=True)
class MutationSchedule:
    """Generation-dependent mutation parameters.

    Parameters
    ----------
    hi_start : int
        Exchange breadth at generation 1.  For a problem of dimension
        ``n`` the conventional value is ``max(2, n // 6)``; use
        :meth:`for_dimension` to get it.
    hi_floor : int
        Terminal breadth, 2 by convention (a plain exchange).
    decay_generations : int
        Window over which the breadth decays linearly from ``hi_start``
        to ``hi_floor``; from that generation on the breadth stays at
        the floor.
    multilevel_probability : float
        Chance that a mutation call composes two operators instead of
        applying a single one, once past ``multilevel_start_generation``.
    multilevel_start_generation : int
        First generation at which multilevel mutation may trigger.
    """

    hi_start: int = 2
    hi_floor: int = 2
    decay_generations: int = 1
    multilevel_probability: float = 0.05
    multilevel_start_generation: int = 0

    def __post_init__(self) -> None:
        if self.hi_start < self.hi_floor:
            raise ValueError(
                f"hi_start ({self.hi_start}) must be >= hi_floor ({self.hi_floor})"
            )
        if self.hi_floor < 2:
            raise ValueError("hi_floor must be at least 2")
        if self.decay_generations < 1:
            raise ValueError("decay_generations must be positive")
        if not 0.0 <= self.multilevel_probability <= 1.0:
            raise ValueError("multilevel_probability must lie in [0, 1]")

    @classmethod
    def for_dimension(cls, n: int, generations: int) -> "MutationSchedule":
        """Conventional schedule for an ``n``-dimensional genome.

        Starts the exchange breadth at one sixth of the dimension
        (floored, at least 2), decays it over the first half of the
        run, and enables multilevel mutation with a small probability
        over the second half.  The decay is inert for the 17-slot ligand:
        ``hi_start = max(2, 17 // 6) = 2`` already equals ``hi_floor``.
        """
        hi_start = max(2, n // 6)
        half = max(1, generations // 2)
        return cls(
            hi_start=hi_start,
            hi_floor=2,
            decay_generations=half,
            multilevel_probability=0.05,
            multilevel_start_generation=half,
        )


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters for :func:`evolve`."""

    max_pop: int
    generations: int
    seed: int
    schedule: MutationSchedule = field(default_factory=MutationSchedule)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: final best plus the per-generation trace.

    ``best_trace`` holds one ``(generation, best_objective)`` pair per
    generation, 1-based, where ``best_objective`` is the population
    minimum after that generation completed.  Elitism makes the column
    non-increasing.
    """

    best_individual: Individual
    best_trace: tuple[tuple[int, float], ...]
    seed: int
    generations_run: int


def hi_at(gen: int, n: int, schedule: MutationSchedule) -> int:
    """Exchange breadth at generation ``gen`` for dimension ``n``.

    Linear decay from ``hi_start`` (at generation 1) down to
    ``hi_floor`` over ``decay_generations``, constant at the floor
    afterwards.  The result is clamped to ``[hi_floor, n]``.
    """
    if gen < 1:
        raise ValueError("generation numbers start at 1")
    if gen >= schedule.decay_generations:
        hi = schedule.hi_floor
    else:
        span = schedule.decay_generations - 1
        frac = (gen - 1) / span if span > 0 else 1.0
        hi = int(round(schedule.hi_start + (schedule.hi_floor - schedule.hi_start) * frac))
    return max(schedule.hi_floor, min(hi, n))


def ring_pairs(order: list[int] | np.ndarray) -> list[tuple[int, int]]:
    """Consecutive cyclic pairs over a parent ordering.

    Pair ``j`` is ``(order[j], order[(j+1) % m])``; every element
    appears exactly once on the left and once on the right.
    """
    m = len(order)
    if m < 3:
        raise ValueError(f"ring needs at least 3 members, got {m}")
    return [(order[j], order[(j + 1) % m]) for j in range(m)]


def trio_select(parent: Individual, son1: Individual, son2: Individual) -> Individual:
    """Best of a parent and its two sons; ties favour parent, then son1."""
    best = parent
    if son1.objective < best.objective:
        best = son1
    if son2.objective < best.objective:
        best = son2
    return best


def _scored(objective: Callable[[Any], float], genome: Any) -> float:
    """``objective(genome)`` as a float; rejects NaN and infinities."""
    value = float(objective(genome))
    if not math.isfinite(value):
        raise ValueError(f"objective returned {value}; objectives must be finite")
    return value


def greedy_mutation_step(
    member: Individual,
    problem: Any,
    gen: int,
    schedule: MutationSchedule,
    rng: np.random.Generator,
) -> Individual:
    """Mutate one member, keeping the mutant only when strictly better."""
    genome = problem.mutate(member.genome, gen, schedule, rng)
    objective = _scored(problem.objective, genome)
    if objective < member.objective:
        return Individual(genome, objective)
    return member


def _initial_population(
    problem: Any, config: EngineConfig
) -> tuple[np.random.Generator, list[Individual]]:
    """Check ``config``, then seed the generator and spawn ``max_pop``
    evaluated random members."""
    if config.max_pop < 3:
        raise ValueError(f"max_pop must be at least 3, got {config.max_pop}")
    if config.generations < 1:
        raise ValueError(f"generations must be at least 1, got {config.generations}")
    rng = np.random.default_rng(config.seed)
    objective = problem.objective
    members = []
    for _ in range(config.max_pop):
        genome = problem.random_genome(rng)
        members.append(Individual(genome, _scored(objective, genome)))
    return rng, members


def _population_best(members: list[Individual]) -> Individual:
    best = members[0]
    for ind in members[1:]:
        if ind.objective < best.objective:
            best = ind
    return best


def _run_result(members: list[Individual], trace: list, config: EngineConfig) -> RunResult:
    return RunResult(_population_best(members), tuple(trace), config.seed, config.generations)


def evolve(
    problem: Any,
    config: EngineConfig,
    on_generation: Callable[[int, list[Individual]], None] | None = None,
) -> RunResult:
    """Run the neighbourhood-based GA and return trace plus best found.

    Parameters
    ----------
    problem : object
        Problem bundle (see module docstring for the expected surface).
    config : EngineConfig
        Population size, generation count, seed and mutation schedule.
        ``max_pop`` must be at least 3 so the ring and the trio have
        distinct slots.
    on_generation : callable, optional
        Called as ``on_generation(gen, members)`` after each generation
        with the post-selection population; intended for inspection and
        progress reporting, must not mutate the members.

    Returns
    -------
    RunResult
        Deterministic for a fixed ``(problem, config)``.
    """
    rng, members = _initial_population(problem, config)
    m = config.max_pop
    pairs = ring_pairs(list(range(m)))
    objective = problem.objective
    crossover = problem.crossover
    trace: list[tuple[int, float]] = []

    for gen in range(1, config.generations + 1):
        # greedy mutation sweep, slot order
        members = [
            greedy_mutation_step(ind, problem, gen, config.schedule, rng)
            for ind in members
        ]
        # random parent selection = uniform shuffle, then ring over the
        # shuffled order; slot i is refilled from (p_i, s_i1, s_i2) only
        order = rng.permutation(m)
        parents = [members[i] for i in order]
        nxt: list[Individual] = []
        for i, j in pairs:
            g1, g2 = crossover(parents[i].genome, parents[j].genome, rng)
            son1 = Individual(g1, _scored(objective, g1))
            son2 = Individual(g2, _scored(objective, g2))
            nxt.append(trio_select(parents[i], son1, son2))
        members = nxt
        trace.append((gen, _population_best(members).objective))
        if on_generation is not None:
            on_generation(gen, members)

    return _run_result(members, trace, config)


def classic_ga_baseline(problem: Any, config: EngineConfig) -> RunResult:
    """Plain generational GA over the same problem bundle as `evolve`.

    Fitness-proportionate parent selection (weights 1/objective), the
    problem's own crossover and mutation operators (mutation on a
    ``CLASSIC_MUTATION_RATE`` share of children), an elite of one
    carried over unchanged, and no ring or trio structure.  Determined
    entirely by ``config.seed``.
    """
    rng, members = _initial_population(problem, config)
    objective = problem.objective
    trace: list[tuple[int, float]] = []

    for gen in range(1, config.generations + 1):
        objectives = np.array([m.objective for m in members])
        weights = 1.0 / np.maximum(objectives, 1e-12)
        probs = weights / weights.sum()
        # the inverse-CDF search rng.choice(m, size=2, p=probs) makes,
        # with the CDF built once per generation: the same draws
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        nxt = [_population_best(members)]
        while len(nxt) < config.max_pop:
            i, j = cdf.searchsorted(rng.random(2), side="right")
            g1, g2 = problem.crossover(members[i].genome, members[j].genome, rng)
            for g in (g1, g2):
                if len(nxt) >= config.max_pop:
                    break
                if rng.random() < CLASSIC_MUTATION_RATE:
                    g = problem.mutate(g, gen, config.schedule, rng)
                nxt.append(Individual(g, _scored(objective, g)))
        members = nxt
        trace.append((gen, _population_best(members).objective))

    return _run_result(members, trace, config)
