"""Engine unit tests: schedule arithmetic, ring topology, trio selection,
greedy mutation acceptance, the generation loop's invariants, and the
rejection of non-finite objectives by both engine loops."""

import math

import numpy as np
import pytest

from nbga.core import (
    EngineConfig,
    Individual,
    MutationSchedule,
    classic_ga_baseline,
    evolve,
    greedy_mutation_step,
    hi_at,
    ring_pairs,
    trio_select,
)
from nbga.tsp import TspProblem, tour_cost


class ToyProblem:
    """Minimize the sum of a small non-negative integer vector."""

    def __init__(self, n=6):
        self.n = n

    def random_genome(self, rng):
        return rng.integers(0, 10, size=self.n)

    def objective(self, genome):
        return float(genome.sum())

    def mutate(self, genome, gen, schedule, rng):
        out = genome.copy()
        out[int(rng.integers(self.n))] = int(rng.integers(10))
        return out

    def crossover(self, a, b, rng):
        cut = int(rng.integers(1, self.n))
        return (
            np.concatenate([a[:cut], b[cut:]]),
            np.concatenate([b[:cut], a[cut:]]),
        )


class ConstantProblem(ToyProblem):
    """Every genome scores the same; the trace must stay flat."""

    def objective(self, genome):
        return 7.5


# ---------------------------------------------------------------------------
# MutationSchedule


def test_schedule_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        MutationSchedule(hi_start=2, hi_floor=5, decay_generations=10)


def test_schedule_rejects_floor_below_two():
    with pytest.raises(ValueError):
        MutationSchedule(hi_start=5, hi_floor=1, decay_generations=10)


def test_schedule_rejects_nonpositive_decay():
    with pytest.raises(ValueError):
        MutationSchedule(hi_start=5, hi_floor=2, decay_generations=0)


def test_schedule_rejects_bad_probability():
    with pytest.raises(ValueError):
        MutationSchedule(multilevel_probability=1.5)


def test_schedule_for_dimension():
    sched = MutationSchedule.for_dimension(60, 100)
    assert sched.hi_start == 10
    assert sched.hi_floor == 2
    assert sched.decay_generations == 50
    assert sched.multilevel_start_generation == 50
    assert sched.multilevel_probability == pytest.approx(0.05)


def test_schedule_for_dimension_small_genome_floors_at_two():
    sched = MutationSchedule.for_dimension(6, 100)
    assert sched.hi_start == 2


def test_schedule_for_dimension_single_generation():
    sched = MutationSchedule.for_dimension(60, 1)
    assert sched.decay_generations == 1


# ---------------------------------------------------------------------------
# hi_at


def test_hi_starts_at_hi_start():
    sched = MutationSchedule(hi_start=10, hi_floor=2, decay_generations=100)
    assert hi_at(1, 60, sched) == 10


def test_hi_reaches_floor_at_decay_end():
    sched = MutationSchedule(hi_start=10, hi_floor=2, decay_generations=100)
    assert hi_at(100, 60, sched) == 2
    assert hi_at(5000, 60, sched) == 2


def test_hi_midpoint_value():
    sched = MutationSchedule(hi_start=10, hi_floor=2, decay_generations=100)
    assert hi_at(50, 60, sched) == 6


def test_hi_clamped_to_dimension():
    sched = MutationSchedule(hi_start=10, hi_floor=2, decay_generations=100)
    assert hi_at(1, 4, sched) == 4


def test_hi_is_nonincreasing_in_gen():
    sched = MutationSchedule(hi_start=17, hi_floor=2, decay_generations=37)
    values = [hi_at(g, 100, sched) for g in range(1, 60)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == 17
    assert values[-1] == 2


def test_hi_rejects_generation_zero():
    with pytest.raises(ValueError):
        hi_at(0, 10, MutationSchedule())


# ---------------------------------------------------------------------------
# ring_pairs


def test_ring_pairs_of_three():
    assert ring_pairs([0, 1, 2]) == [(0, 1), (1, 2), (2, 0)]


def test_ring_pairs_cover_every_slot_once_per_side():
    order = np.random.default_rng(5).permutation(9)
    pairs = ring_pairs(order)
    assert sorted(i for i, _ in pairs) == list(range(9))
    assert sorted(j for _, j in pairs) == list(range(9))
    assert len(pairs) == 9


def test_ring_pairs_rejects_tiny_rings():
    with pytest.raises(ValueError):
        ring_pairs([0, 1])


# ---------------------------------------------------------------------------
# trio_select


def _ind(obj):
    return Individual(genome=None, objective=obj)


def test_trio_keeps_parent_on_all_ties():
    parent, son1, son2 = _ind(5.0), _ind(5.0), _ind(5.0)
    assert trio_select(parent, son1, son2) is parent


def test_trio_requires_strict_improvement():
    parent = _ind(5.0)
    assert trio_select(parent, _ind(5.0), _ind(6.0)) is parent


def test_trio_picks_strictly_better_son():
    son1 = _ind(4.0)
    assert trio_select(_ind(5.0), son1, _ind(4.5)) is son1


def test_trio_picks_best_of_both_sons():
    son2 = _ind(3.0)
    assert trio_select(_ind(5.0), _ind(4.0), son2) is son2


def test_trio_breaks_son_tie_toward_first():
    son1 = _ind(4.0)
    assert trio_select(_ind(5.0), son1, _ind(4.0)) is son1


# ---------------------------------------------------------------------------
# greedy_mutation_step


class _FixedMutationProblem:
    """Mutation always proposes `proposal`; objective is the scalar genome."""

    def __init__(self, proposal):
        self.proposal = proposal

    def objective(self, genome):
        return float(genome)

    def mutate(self, genome, gen, schedule, rng):
        return self.proposal


def test_greedy_step_accepts_strict_improvement():
    problem = _FixedMutationProblem(proposal=3.0)
    member = Individual(genome=5.0, objective=5.0)
    rng = np.random.default_rng(0)
    out = greedy_mutation_step(member, problem, 1, MutationSchedule(), rng)
    assert out.genome == 3.0
    assert out.objective == 3.0


def test_greedy_step_rejects_equal_proposal():
    problem = _FixedMutationProblem(proposal=5.0)
    member = Individual(genome=5.0, objective=5.0)
    rng = np.random.default_rng(0)
    assert greedy_mutation_step(member, problem, 1, MutationSchedule(), rng) is member


def test_greedy_step_rejects_worse_proposal():
    problem = _FixedMutationProblem(proposal=9.0)
    member = Individual(genome=5.0, objective=5.0)
    rng = np.random.default_rng(0)
    assert greedy_mutation_step(member, problem, 1, MutationSchedule(), rng) is member


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_greedy_step_rejects_non_finite_proposal(bad):
    problem = _FixedMutationProblem(proposal=bad)
    member = Individual(genome=5.0, objective=5.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="finite"):
        greedy_mutation_step(member, problem, 1, MutationSchedule(), rng)


# ---------------------------------------------------------------------------
# evolve


def _config(pop=12, generations=40, seed=0, n=6):
    return EngineConfig(
        max_pop=pop,
        generations=generations,
        seed=seed,
        schedule=MutationSchedule.for_dimension(n, generations),
    )


def test_evolve_rejects_population_below_ring_size():
    with pytest.raises(ValueError):
        evolve(ToyProblem(), _config(pop=2))


def test_evolve_rejects_nonpositive_generations():
    with pytest.raises(ValueError):
        evolve(ToyProblem(), _config(generations=0))


def test_evolve_trace_is_per_generation_and_one_based():
    result = evolve(ToyProblem(), _config(generations=25))
    assert len(result.best_trace) == 25
    assert [g for g, _ in result.best_trace] == list(range(1, 26))
    assert result.generations_run == 25
    assert result.seed == 0


def test_evolve_improves_toy_problem():
    problem = ToyProblem()
    result = evolve(problem, _config(generations=60))
    first = result.best_trace[0][1]
    last = result.best_trace[-1][1]
    assert last <= first
    assert result.best_individual.objective == last


def test_evolve_objective_cache_is_coherent():
    problem = ToyProblem()
    result = evolve(problem, _config())
    best = result.best_individual
    assert best.objective == problem.objective(best.genome)


def test_evolve_trace_never_worsens():
    problem = ToyProblem()
    for seed in range(5):
        values = [v for _, v in evolve(problem, _config(seed=seed)).best_trace]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_evolve_is_deterministic_per_seed():
    problem = ToyProblem()
    a = evolve(problem, _config(seed=7))
    b = evolve(problem, _config(seed=7))
    assert a.best_trace == b.best_trace
    assert np.array_equal(a.best_individual.genome, b.best_individual.genome)


def test_evolve_population_size_is_constant():
    seen = []
    evolve(ToyProblem(), _config(pop=9, generations=12), on_generation=lambda g, m: seen.append((g, len(m))))
    assert seen == [(g, 9) for g in range(1, 13)]


def test_evolve_callback_population_minimum_matches_trace():
    mins = []
    result = evolve(
        ToyProblem(),
        _config(),
        on_generation=lambda g, members: mins.append(min(m.objective for m in members)),
    )
    assert mins == [v for _, v in result.best_trace]


def test_evolve_constant_objective_gives_flat_trace():
    result = evolve(ConstantProblem(), _config(generations=15))
    assert {v for _, v in result.best_trace} == {7.5}


class _PoisonedProblem(ToyProblem):
    """Spawns finite members; any genome holding a 0, which only a
    mutation can write, scores ``bad``."""

    def __init__(self, bad, n=6):
        super().__init__(n)
        self.bad = bad

    def random_genome(self, rng):
        return rng.integers(1, 10, size=self.n)

    def objective(self, genome):
        return self.bad if 0 in genome else float(genome.sum())


class _BadProblem(ToyProblem):
    """Every genome scores ``bad``, so the initial population fails."""

    def __init__(self, bad, n=6):
        super().__init__(n)
        self.bad = bad

    def objective(self, genome):
        return self.bad


@pytest.mark.parametrize("engine", [evolve, classic_ga_baseline])
@pytest.mark.parametrize("problem_cls", [_BadProblem, _PoisonedProblem])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_engines_reject_non_finite_objectives(engine, problem_cls, bad):
    with pytest.raises(ValueError, match="finite"):
        engine(problem_cls(bad), _config())


def test_evolve_solves_rounded_hexagon(hexagon):
    problem = TspProblem(hexagon)
    result = evolve(problem, _config(pop=20, generations=60, n=6))
    assert result.best_individual.objective == 6.0
    tour = result.best_individual.genome
    assert sorted(tour.tolist()) == list(range(6))
    assert tour_cost(tour, hexagon) == 6.0
