"""Outside-in tracing of nbga's layers for the traced benchmark run.

:func:`installed` swaps wrappers in for the public callables at the
level of their modules and classes and puts the originals back on exit;
nothing inside the package changes.  A wrapper times its call, charges
that time to the enclosing span (so every span also gets a self time)
and folds the call into one record per (GA seed, generation, span name),
which keeps the 300k objective calls of a TSP run to a few thousand
records.  The generation comes from the calls that carry it (the
mutation step and ``mutate``), so in the classic loop the crossovers
before a generation's first mutation are filed under the one before.
Counters are taken at the same boundaries.  Wrappers draw nothing from
the run's generator, so a traced run computes exactly what an untraced
one does.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import nbga.cli
import nbga.core
import nbga.ligand
from nbga.ligand import NUL, LigandProblem
from nbga.tsp import TspProblem

CORE_SPANS = ("core.evolve", "core.greedy_mutation_step", "core.trio_select")
CLASSIC_SPAN = "cli.classic_ga_baseline"


class Tracer:
    """In-memory span aggregates and counters for a series of runs."""

    def __init__(self) -> None:
        # (GA seed, generation, span name) -> [calls, total ns, self ns]
        self.spans: dict[tuple[int, int, str], list[int]] = {}
        self.counts: Counter[str] = Counter()
        self.seed = 0
        self.gen = 0
        self._stack: list[list[int]] = []
        self._seen: set[int] = set()

    def start_run(self, seed: int) -> None:
        self.seed = seed
        self.gen = 0
        self._seen = set()  # repeats count within one run

    def wrap(self, name, fn, gen_arg=None, note=None):
        """``fn`` recording a span ``name``; ``args[gen_arg]`` sets the
        current generation and ``note(args, result)`` updates counters."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if gen_arg is not None:
                self.gen = args[gen_arg]
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                key = (self.seed, self.gen, name)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
            if note is not None:
                note(args, out)
            return out

        return traced

    # counters -----------------------------------------------------------

    def _repeat(self, prefix: str, key: int) -> None:
        if key in self._seen:
            self.counts[prefix + ".repeats"] += 1
        else:
            self._seen.add(key)

    def note_tsp_objective(self, args, out) -> None:
        self._repeat("tsp.objective", hash(args[1].tobytes()))

    def note_ligand_objective(self, args, out) -> None:
        c = args[1]
        self._repeat("ligand.objective", hash((c.right, c.left)))
        self.counts["ligand.objective.groups"] += sum(v != NUL for v in c.right + c.left)

    def note_correct(self, args, out) -> None:
        c = args[0]
        if (out.right, out.left) != (c.right, c.left):
            self.counts["ligand.correct.changed"] += 1

    def note_mutation(self, args, out) -> None:
        if out is not args[0]:
            self.counts["core.mutation.accepted"] += 1

    def note_trio(self, args, out) -> None:
        winner = "parent" if out is args[0] else "son1" if out is args[1] else "son2"
        self.counts["core.trio." + winner] += 1

    # read-out -------------------------------------------------------------

    def totals(self) -> dict[str, list[int]]:
        """Span name -> [calls, total ns, self ns] over every run."""
        out: dict[str, list[int]] = {}
        for (_, _, name), rec in self.spans.items():
            acc = out.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += rec[i]
        return out

    def self_ns(self, seed: int, names) -> int:
        """Self time of the spans ``names`` in the run of ``seed``."""
        return sum(rec[2] for (s, _, name), rec in self.spans.items() if s == seed and name in names)

    def write(self, path) -> None:
        """One JSON line per (GA seed, generation, span name) record."""
        with open(path, "w") as fh:
            for (seed, gen, name), (calls, total, own) in sorted(self.spans.items()):
                fh.write(
                    json.dumps(
                        {"seed": seed, "gen": gen, "span": name, "calls": calls,
                         "total_ns": total, "self_ns": own}
                    )
                    + "\n"
                )


def _targets(tracer: Tracer):
    """(owner, attribute, span name, generation argument, counter hook)."""
    # positional indices count ``self`` for methods:
    # mutate(self, genome, gen, ...), greedy_mutation_step(member, problem, gen, ...)
    return (
        (TspProblem, "objective", "tsp.objective", None, tracer.note_tsp_objective),
        (TspProblem, "mutate", "tsp.mutate", 2, None),
        (TspProblem, "crossover", "tsp.crossover", None, None),
        (LigandProblem, "objective", "ligand.objective", None, tracer.note_ligand_objective),
        (LigandProblem, "mutate", "ligand.mutate", 2, None),
        (LigandProblem, "crossover", "ligand.crossover", None, None),
        (nbga.ligand, "correct", "ligand.correct", None, tracer.note_correct),
        (nbga.core, "greedy_mutation_step", "core.greedy_mutation_step", 2, tracer.note_mutation),
        (nbga.core, "trio_select", "core.trio_select", None, tracer.note_trio),
        # the entry points as run_experiment looks them up
        (nbga.cli, "evolve", "core.evolve", None, None),
        (nbga.cli, "classic_ga_baseline", CLASSIC_SPAN, None, None),
    )


@contextmanager
def installed(tracer: Tracer, seed: int):
    """Route the traced callables through ``tracer`` for the block, the
    run of GA seed ``seed``."""
    tracer.start_run(seed)
    saved = []
    try:
        for owner, attr, name, gen_arg, note in _targets(tracer):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, gen_arg, note))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
