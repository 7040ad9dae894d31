"""TSP problem bundle: instances, a TSPLIB-subset parser, permutation
operators, the error metric and a brute-force oracle.

The mutation and crossover operators work on any 1-D integer array, so
the variable-length ligand encoding reuses them on group-code arrays.
Deterministic cores take explicit positions/cuts; the ``random_*``
wrappers draw parameters from a generator.

Inputs are checked once, in the public free functions: ``tour_cost``
rejects a tour that is not a permutation of ``0..n-1`` and
``order_crossover`` checks its parents and cuts, each with a
``ValueError``.  :class:`TspProblem`'s ``objective`` and ``crossover``
run the unchecked private cores behind them on the tours the engine's
own operators built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import MutationSchedule, hi_at

__all__ = [
    "TspInstance",
    "TspProblem",
    "tour_cost",
    "parse_tsplib",
    "load_tsplib",
    "permute_at",
    "multiple_exchange_mutation",
    "simple_inversion_mutation",
    "displacement_mutation",
    "random_inversion",
    "random_displacement",
    "multilevel_mutation",
    "order_crossover",
    "random_order_crossover",
    "error_percent",
    "brute_force_optimum",
    "MULTILEVEL_VARIANTS",
]


@dataclass(frozen=True)
class TspInstance:
    """A symmetric TSP instance held as a full cost matrix.

    ``cost`` is an ``n x n`` symmetric matrix with zero diagonal.
    """

    name: str
    n: int
    cost: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.cost, dtype=float)
        if c.shape != (self.n, self.n):
            raise ValueError(f"cost matrix shape {c.shape} does not match n={self.n}")
        if not np.isfinite(c).all():
            raise ValueError("cost matrix must be finite, found NaN or infinity")
        if self.n < 3:
            raise ValueError(f"need at least 3 cities, got {self.n}")
        if np.any(c < 0):
            raise ValueError("negative edge costs are not allowed")
        if np.any(np.diag(c) != 0):
            raise ValueError("cost matrix diagonal must be zero")
        if not np.array_equal(c, c.T):
            raise ValueError("cost matrix is not symmetric")
        object.__setattr__(self, "cost", c)

    @classmethod
    def from_coords(cls, name: str, coords, round_distances: bool = True) -> "TspInstance":
        """Build an instance from city coordinates.

        With ``round_distances`` each distance is rounded to the nearest
        integer (the TSPLIB EUC_2D convention, which makes the published
        integer optima attainable); without it raw Euclidean distances
        are kept.
        """
        pts = np.asarray(coords, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("coords must be an (n, 2) array")
        # a huge coordinate overflows to an infinite distance, which the
        # instance's finite-cost check then rejects
        with np.errstate(over="ignore", invalid="ignore"):
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=-1))
        if round_distances:
            dist = np.floor(dist + 0.5)  # TSPLIB nint()
        np.fill_diagonal(dist, 0.0)
        return cls(name=name, n=len(pts), cost=dist)


def tour_cost(tour: np.ndarray, instance: TspInstance) -> float:
    """Length of the closed tour, including the edge back to the start.

    Raises ``ValueError`` unless ``tour`` is a permutation of ``0..n-1``.
    """
    t = np.asarray(tour)
    n = instance.n
    if t.shape != (n,):
        raise ValueError(f"tour has {t.shape} cities, instance has {n}")
    if t.dtype.kind not in "iu" or not np.array_equal(np.sort(t), np.arange(n)):
        raise ValueError(f"tour is not a permutation of 0..{n - 1}")
    return _tour_length(instance.cost, t)


def _tour_length(cost: np.ndarray, t: np.ndarray) -> float:
    """Unchecked :func:`tour_cost`: ``t`` is a permutation array."""
    return float(cost[t[:-1], t[1:]].sum() + cost[t[-1], t[0]])


# ---------------------------------------------------------------------------
# TSPLIB subset parser


class TsplibFormatError(ValueError):
    """Raised for files outside the supported TSPLIB subset."""


_KNOWN_KEYS = {
    "NAME",
    "TYPE",
    "COMMENT",
    "DIMENSION",
    "EDGE_WEIGHT_TYPE",
    "EDGE_WEIGHT_FORMAT",
    "DISPLAY_DATA_TYPE",
    "NODE_COORD_TYPE",
}


def _section_tokens(lines: list[str], start: int, stop_words: set[str]):
    """Numeric tokens of a section with their line numbers (1-based)."""
    toks: list[tuple[str, int]] = []
    i = start
    while i < len(lines):
        stripped = lines[i].strip()
        word = stripped.split(":")[0].strip().upper() if stripped else ""
        if word in stop_words:
            break
        for tok in stripped.split():
            toks.append((tok, i + 1))
        i += 1
    return toks, i


def _to_float(tok: str, line: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise TsplibFormatError(f"line {line}: non-numeric token {tok!r}") from None


def parse_tsplib(text: str, round_euclidean: bool = True) -> TspInstance:
    """Parse a TSPLIB-subset instance from file contents.

    Supported: ``EDGE_WEIGHT_TYPE`` of ``EUC_2D`` (with a
    ``NODE_COORD_SECTION``) or ``EXPLICIT`` with ``EDGE_WEIGHT_FORMAT``
    ``FULL_MATRIX``, ``UPPER_ROW`` or ``LOWER_DIAG_ROW``.  Display data
    sections are skipped.  Errors carry the offending line number.
    """
    lines = text.splitlines()
    header: dict[str, str] = {}
    coord_toks = None
    weight_toks = None

    section_stops = {"NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION", "DISPLAY_DATA_SECTION", "EOF"}
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if not stripped:
            i += 1
            continue
        upper = stripped.upper()
        if upper == "EOF":
            break
        if upper.startswith("NODE_COORD_SECTION"):
            coord_toks, i = _section_tokens(lines, i + 1, section_stops | _KNOWN_KEYS)
            continue
        if upper.startswith("EDGE_WEIGHT_SECTION"):
            weight_toks, i = _section_tokens(lines, i + 1, section_stops | _KNOWN_KEYS)
            continue
        if upper.startswith("DISPLAY_DATA_SECTION"):
            _, i = _section_tokens(lines, i + 1, section_stops | _KNOWN_KEYS)
            continue
        if ":" in stripped:
            key, _, value = stripped.partition(":")
            key = key.strip().upper()
            if key not in _KNOWN_KEYS:
                raise TsplibFormatError(f"line {i + 1}: unsupported keyword {key!r}")
            header[key] = value.strip()
            i += 1
            continue
        raise TsplibFormatError(f"line {i + 1}: unrecognized line {stripped!r}")

    if "DIMENSION" not in header:
        raise TsplibFormatError("missing DIMENSION")
    try:
        n = int(header["DIMENSION"])
    except ValueError:
        raise TsplibFormatError(f"bad DIMENSION value {header['DIMENSION']!r}") from None
    if n < 3:
        raise TsplibFormatError(f"DIMENSION must be at least 3, got {n}")
    declared_type = header.get("TYPE", "TSP").upper()
    if declared_type not in ("TSP",):
        raise TsplibFormatError(f"unsupported TYPE {declared_type!r}")
    name = header.get("NAME", "unnamed")
    ewt = header.get("EDGE_WEIGHT_TYPE", "").upper()

    if ewt == "EUC_2D":
        if coord_toks is None:
            raise TsplibFormatError("EUC_2D instance without NODE_COORD_SECTION")
        if len(coord_toks) != 3 * n:
            raise TsplibFormatError(
                f"NODE_COORD_SECTION holds {len(coord_toks)} tokens, expected {3 * n}"
            )
        coords = np.zeros((n, 2))
        seen = np.zeros(n, dtype=bool)
        for k in range(n):
            idx_tok, idx_line = coord_toks[3 * k]
            try:
                idx = int(idx_tok)
            except ValueError:
                raise TsplibFormatError(
                    f"line {idx_line}: node index {idx_tok!r} is not an integer"
                ) from None
            if not 1 <= idx <= n or seen[idx - 1]:
                raise TsplibFormatError(f"line {idx_line}: bad or repeated node index {idx}")
            seen[idx - 1] = True
            coords[idx - 1, 0] = _to_float(*coord_toks[3 * k + 1])
            coords[idx - 1, 1] = _to_float(*coord_toks[3 * k + 2])
        return TspInstance.from_coords(name, coords, round_distances=round_euclidean)

    if ewt == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "").upper()
        if weight_toks is None:
            raise TsplibFormatError("EXPLICIT instance without EDGE_WEIGHT_SECTION")
        values = [_to_float(tok, line) for tok, line in weight_toks]
        expect = {"FULL_MATRIX": n * n, "UPPER_ROW": n * (n - 1) // 2,
                  "LOWER_DIAG_ROW": n * (n + 1) // 2}.get(fmt)
        if expect is None:
            raise TsplibFormatError(f"unsupported EDGE_WEIGHT_FORMAT {fmt!r}")
        # count before allocating: a huge DIMENSION must not size a matrix
        if len(values) != expect:
            raise TsplibFormatError(f"{fmt} holds {len(values)} entries, expected {expect}")
        if fmt == "FULL_MATRIX":
            cost = np.reshape(values, (n, n))
        else:
            # the triangle's entries in file order, row by row
            rows, cols = np.triu_indices(n, 1) if fmt == "UPPER_ROW" else np.tril_indices(n)
            cost = np.zeros((n, n))
            cost[rows, cols] = cost[cols, rows] = values
        try:
            return TspInstance(name=name, n=n, cost=cost)
        except ValueError as exc:
            raise TsplibFormatError(f"{fmt}: {exc}") from None

    raise TsplibFormatError(f"unsupported EDGE_WEIGHT_TYPE {ewt!r}")


def load_tsplib(path, round_euclidean: bool = True) -> TspInstance:
    """Parse a TSPLIB file from disk."""
    with open(path) as fh:
        return parse_tsplib(fh.read(), round_euclidean=round_euclidean)


# ---------------------------------------------------------------------------
# Array operators (shared by tours and ligand code arrays)


def permute_at(arr: np.ndarray, positions, order) -> np.ndarray:
    """Copy of ``arr`` with the values at ``positions`` rearranged.

    ``order`` indexes into the selected values: position ``positions[k]``
    receives the value previously at ``positions[order[k]]``.
    """
    positions = np.asarray(positions)
    out = np.array(arr)
    out[positions] = out[positions[np.asarray(order)]]
    return out


def multiple_exchange_mutation(arr: np.ndarray, ri: int, rng: np.random.Generator) -> np.ndarray:
    """Exchange the contents of ``ri`` randomly chosen positions.

    Draws ``ri`` distinct positions uniformly and applies a uniformly
    random non-identity rearrangement to the values held there (single
    positions may stay put, the whole selection cannot).  ``ri = 2`` is
    the classic exchange mutation.
    """
    n = len(arr)
    if not 2 <= ri <= n:
        raise ValueError(f"ri must lie in [2, {n}], got {ri}")
    positions = rng.choice(n, size=ri, replace=False)
    order = rng.permutation(ri)
    identity = list(range(ri))
    while order.tolist() == identity:
        order = rng.permutation(ri)
    out = np.array(arr)
    out[positions] = out[positions[order]]
    return out


def simple_inversion_mutation(arr: np.ndarray, i: int, j: int) -> np.ndarray:
    """Reverse the closed segment ``[i..j]`` (0-based, ``i < j``)."""
    if not 0 <= i < j < len(arr):
        raise ValueError(f"need 0 <= i < j < {len(arr)}, got i={i} j={j}")
    out = np.array(arr)
    out[i : j + 1] = out[i : j + 1][::-1]
    return out


def displacement_mutation(arr: np.ndarray, i: int, j: int, p: int) -> np.ndarray:
    """Move the closed segment ``[i..j]`` so it starts after ``p``
    elements of the remainder (0-based; ``p = i`` is the identity)."""
    n = len(arr)
    if not 0 <= i <= j < n:
        raise ValueError(f"need 0 <= i <= j < {n}, got i={i} j={j}")
    seg_len = j - i + 1
    if not 0 <= p <= n - seg_len:
        raise ValueError(f"insertion index p={p} out of range [0, {n - seg_len}]")
    seg = np.array(arr[i : j + 1])
    rest = np.concatenate([arr[:i], arr[j + 1 :]])
    return np.concatenate([rest[:p], seg, rest[p:]])


def _cut_pair(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct positions in ``0..n-1``, smaller first."""
    i, j = rng.choice(n, size=2, replace=False).tolist()
    return (i, j) if i < j else (j, i)


def random_inversion(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return simple_inversion_mutation(arr, *_cut_pair(len(arr), rng))


def random_displacement(arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(arr)
    i = int(rng.integers(n))
    j = int(rng.integers(i, n))
    p = int(rng.integers(0, n - (j - i + 1) + 1))
    return displacement_mutation(arr, i, j, p)


MULTILEVEL_VARIANTS = ("exchange+displacement", "inversion+displacement")


def multilevel_mutation(arr: np.ndarray, variant: str, rng: np.random.Generator) -> np.ndarray:
    """Compose two mutations with independently drawn parameters."""
    if variant == "exchange+displacement":
        step = multiple_exchange_mutation(arr, 2, rng)
    elif variant == "inversion+displacement":
        step = random_inversion(arr, rng)
    else:
        raise ValueError(f"unknown multilevel variant {variant!r}")
    return random_displacement(step, rng)


def order_crossover(p1: np.ndarray, p2: np.ndarray, cut1: int, cut2: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard order crossover (OX) with cuts at ``[cut1..cut2]``.

    Each child keeps one parent's segment and receives the remaining
    cities in the other parent's order, filling slots cyclically from
    just past the segment.  City labels are non-negative integers.
    """
    n = len(p1)
    if len(p2) != n:
        raise ValueError("parents must have equal length")
    if not 0 <= cut1 < cut2 < n:
        raise ValueError(f"need 0 <= cut1 < cut2 < {n}, got {cut1}, {cut2}")
    if np.minimum(p1, p2).min() < 0:
        raise ValueError("city labels must be non-negative")
    labels = int(np.maximum(p1, p2).max()) + 1
    return _order_crossover(p1, p2, cut1, cut2, labels, np.tile(np.arange(n), 2))


def _order_crossover(p1, p2, cut1: int, cut2: int, labels: int, ring2: np.ndarray):
    """Unchecked :func:`order_crossover`: equal-length parents with labels
    in ``0..labels-1``, ``0 <= cut1 < cut2 < n``, and ``ring2`` is
    ``arange(n)`` twice over."""
    n = len(p1)
    # slot order of the fill: cyclically from just past the segment;
    # its first n - len(segment) slots are the ones outside it
    ring = ring2[cut2 + 1 : cut2 + 1 + n]
    free = ring[: n - (cut2 + 1 - cut1)]

    def make(keep: np.ndarray, donor: np.ndarray) -> np.ndarray:
        kept = np.zeros(labels, dtype=bool)
        kept[keep[cut1 : cut2 + 1]] = True
        fill = donor[ring]
        child = keep.copy()
        child[free] = fill[~kept[fill]]
        return child

    return make(p1, p2), make(p2, p1)


def random_order_crossover(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator):
    return order_crossover(p1, p2, *_cut_pair(len(p1), rng))


# ---------------------------------------------------------------------------
# Statistics and oracles


def error_percent(average: float, optimum: float) -> float:
    """Relative excess of the average over the known optimum, in percent."""
    if not (math.isfinite(optimum) and optimum > 0):
        raise ValueError(f"optimum must be finite and positive, got {optimum}")
    return 100.0 * (average - optimum) / optimum


def brute_force_optimum(instance: TspInstance) -> tuple[float, np.ndarray]:
    """Exhaustive-enumeration optimum; only sensible for small n.

    Fixes city 0 and enumerates the remaining ``(n-1)!`` orderings,
    skipping reversed duplicates.
    """
    if instance.n > 10:
        raise ValueError("brute force is limited to n <= 10")
    best_cost = math.inf
    best_tour = None
    rest = range(1, instance.n)
    for perm in itertools.permutations(rest):
        if perm[0] > perm[-1]:  # each cycle once, not its mirror
            continue
        tour = np.array((0,) + perm)
        cost = _tour_length(instance.cost, tour)
        if cost < best_cost:
            best_cost = cost
            best_tour = tour
    return best_cost, best_tour


# ---------------------------------------------------------------------------
# Problem bundle


# base mutations, in the order of the index that a mutation call draws
# when it is not promoted to a multilevel one
MUTATION_OPERATORS = ("multiple_exchange", "inversion", "displacement")


class TspProblem:
    """Adapts a :class:`TspInstance` to the engine's problem surface.

    ``objective`` and ``crossover`` trust their tours to be permutations
    of ``0..n-1``, as every genome the engine builds is.
    """

    def __init__(self, instance: TspInstance):
        self.instance = instance
        self.n = instance.n
        self._cost = instance.cost
        self._ring2 = np.tile(np.arange(self.n), 2)

    def random_genome(self, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(self.n)

    def objective(self, tour: np.ndarray) -> float:
        return _tour_length(self._cost, tour)

    def mutate(
        self,
        tour: np.ndarray,
        gen: int,
        schedule: MutationSchedule,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if (
            gen >= schedule.multilevel_start_generation
            and rng.random() < schedule.multilevel_probability
        ):
            variant = MULTILEVEL_VARIANTS[int(rng.integers(len(MULTILEVEL_VARIANTS)))]
            return multilevel_mutation(tour, variant, rng)
        op = int(rng.integers(len(MUTATION_OPERATORS)))
        if op == 0:
            ri = int(rng.integers(2, hi_at(gen, self.n, schedule) + 1))
            return multiple_exchange_mutation(tour, ri, rng)
        if op == 1:
            return random_inversion(tour, rng)
        return random_displacement(tour, rng)

    def crossover(self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator):
        cut1, cut2 = _cut_pair(self.n, rng)
        return _order_crossover(a, b, cut1, cut2, self.n, self._ring2)
