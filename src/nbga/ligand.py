"""Ligand-design problem bundle: functional-group catalogue, two-tree
chromosome with repair, deterministic 2D geometry, and a Van der Waals
interaction-energy objective with distance window and polarity
penalties.

A candidate ligand is a fixed central scaffold with a *right* tree of
10 group slots and a *left* tree of 7, each slot holding one of eight
group codes (code 8 = NUL marks an empty slot in variable-length mode).
All positions in this module are 0-based; the catalogue codes keep
their conventional 1-based numbering.

Chromosome validity means three things:

C1 (polarity)
    An internal (backbone) slot holds no polar code unless every slot
    below it is NUL.
C2 (connectivity)
    No internal slot is NUL while any slot below it is occupied.
Length bound
    In variable mode each side carries at least ``l_min`` occupied
    slots, the fewest groups of the longest bond that span the active
    site's major axis on that side (:func:`length_bounds`).  Nothing
    caps the count from above: a side may fill all its slots.

``correct`` is the one place validity is established.  It repairs
arbitrary codes into a valid chromosome by construction: per side, C2
root-to-leaf, then (variable mode) the occupancy fill, then one C1
sweep.  :class:`LigandProblem` runs every spawn, mutant and crossover
child through it, so the engine only ever evaluates valid candidates.

Energy has two paths over one arithmetic.  :func:`interaction_energy`
lays out the whole ligand and reports every group's term.
:meth:`LigandProblem.objective`, the engine's hot path, adds per-slot
terms from a table each problem fills lazily: a slot's term depends
only on the codes on its root path, so it is computed once per path,
by the same layout and nearest-residue code, and then looked up.  The
two totals are equal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import MutationSchedule, hi_at
from .tsp import (
    MULTILEVEL_VARIANTS,
    multilevel_mutation,
    multiple_exchange_mutation,
)

__all__ = [
    "FunctionalGroup",
    "CATALOGUE",
    "NUL",
    "POLAR_CODES",
    "NONPOLAR_CODES",
    "TreeTopology",
    "RIGHT_TOPOLOGY",
    "LEFT_TOPOLOGY",
    "LigandChromosome",
    "Residue",
    "ActiveSite",
    "CN",
    "CM",
    "R_MIN",
    "R_MAX",
    "CLASH_PENALTY",
    "MISMATCH_PENALTY",
    "FITNESS_K",
    "E_FLOOR",
    "DY",
    "Placement",
    "GroupTerm",
    "EnergyReport",
    "LigandProblem",
    "length_bounds",
    "validate_chromosome",
    "correct",
    "segment_crossover",
    "layout",
    "vdw",
    "interaction_energy",
    "fitness",
    "parse_site",
    "load_site",
]


# ---------------------------------------------------------------------------
# Functional-group catalogue


@dataclass(frozen=True)
class FunctionalGroup:
    """One fragment type: code, display name, x-projected bond length
    in Angstrom, and polarity.  Code 8 (NUL) has neither length nor
    polarity — it marks an empty slot."""

    code: int
    name: str
    bond_length_x: float | None
    polar: bool | None


CATALOGUE: dict[int, FunctionalGroup] = {
    1: FunctionalGroup(1, "Alkyl-1C", 0.65, False),
    2: FunctionalGroup(2, "Alkyl-3C", 1.75, False),
    3: FunctionalGroup(3, "Alkyl-1C-Polar", 1.1, True),
    4: FunctionalGroup(4, "Alkyl-3C-Polar", 2.2, True),
    5: FunctionalGroup(5, "Polar", 0.01, True),
    6: FunctionalGroup(6, "Aromatic", 1.9, False),
    7: FunctionalGroup(7, "Aromatic-Polar", 2.7, True),
    8: FunctionalGroup(8, "NUL", None, None),
}

NUL = 8
POLAR_CODES = tuple(code for code, g in CATALOGUE.items() if g.polar)
NONPOLAR_CODES = tuple(code for code, g in CATALOGUE.items() if g.polar is False)
_POLAR_SET = frozenset(POLAR_CODES)

# deterministic polar -> non-polar substitution used by C1 repair
_POLAR_REMAP = {3: 1, 4: 2, 7: 6, 5: 1}


# ---------------------------------------------------------------------------
# Tree topology


@dataclass(frozen=True)
class TreeTopology:
    """Parent/child structure of one ligand side.

    ``parents[i]`` is the slot index feeding slot ``i`` (-1 for the
    root, which hangs off the side's anchor).  Derived tables are
    computed once at construction: the slot count, the ``backbone`` (the
    internal slots, exactly those with children; every other slot is a
    leaf), transitive descendants, depths, per-slot y offsets, and the
    deepest-first leaf fill order.
    """

    name: str
    parents: tuple[int, ...]
    slots: int = field(init=False)
    backbone: tuple[int, ...] = field(init=False)
    descendants: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    depths: tuple[int, ...] = field(init=False, repr=False)
    y_steps: tuple[int, ...] = field(init=False, repr=False)
    leaf_fill_order: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.parents)
        if n < 1 or self.parents[0] != -1:
            raise ValueError("slot 0 must be the root (parent -1)")
        for i, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < i:
                raise ValueError(f"slot {i} must attach to an earlier slot, got {p}")

        kids: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            kids[self.parents[i]].append(i)
        backbone = tuple(i for i in range(n) if kids[i])

        desc: list[list[int]] = [[] for _ in range(n)]
        for i in range(n - 1, 0, -1):
            desc[self.parents[i]].extend([i] + desc[i])
        depths = [1] * n
        for i in range(1, n):
            depths[i] = depths[self.parents[i]] + 1

        # fan-out pattern for the j-th non-backbone child of a slot:
        # j = 1, 2, 3, 4, ... -> y steps -1, +1, -2, +2, ...
        steps = [0] * n
        for i in range(n):
            j = 0
            for child in kids[i]:
                if kids[child]:
                    continue
                j += 1
                steps[child] = (-1) ** j * math.ceil(j / 2)

        leaves = [i for i in range(n) if not kids[i]]
        leaves.sort(key=lambda i: (-depths[i], i))

        object.__setattr__(self, "slots", n)
        object.__setattr__(self, "backbone", backbone)
        object.__setattr__(self, "descendants", tuple(tuple(sorted(d)) for d in desc))
        object.__setattr__(self, "depths", tuple(depths))
        object.__setattr__(self, "y_steps", tuple(steps))
        object.__setattr__(self, "leaf_fill_order", tuple(leaves))


RIGHT_TOPOLOGY = TreeTopology(name="right", parents=(-1, 0, 0, 2, 2, 2, 5, 5, 5, 5))
LEFT_TOPOLOGY = TreeTopology(name="left", parents=(-1, 0, 0, 2, 2, 2, 2))


# ---------------------------------------------------------------------------
# Chromosome


@dataclass(frozen=True)
class LigandChromosome:
    """Group codes for both sides: 10 right slots and 7 left slots, each
    a tuple of Python ``int`` codes in 1..8.  The constructor converts
    and checks outside codes (NumPy input included); :meth:`_of` trusts
    legal ones.  C1, C2 and the length bound are :func:`correct`'s job."""

    right: tuple[int, ...]
    left: tuple[int, ...]

    def __post_init__(self) -> None:
        right = tuple(map(int, self.right))
        left = tuple(map(int, self.left))
        if len(right) != RIGHT_TOPOLOGY.slots:
            raise ValueError(f"right side needs {RIGHT_TOPOLOGY.slots} codes")
        if len(left) != LEFT_TOPOLOGY.slots:
            raise ValueError(f"left side needs {LEFT_TOPOLOGY.slots} codes")
        for v in right + left:
            if not 1 <= v <= NUL:
                raise ValueError(f"illegal group code {v}")
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left", left)

    @classmethod
    def _of(cls, right: tuple[int, ...], left: tuple[int, ...]) -> "LigandChromosome":
        """Unchecked: both sides are tuples of legal Python ``int`` codes."""
        c = object.__new__(cls)
        vars(c).update(right=right, left=left)
        return c

    def as_array(self) -> np.ndarray:
        """Both sides concatenated (right then left) as an int array."""
        return np.array(self.right + self.left, dtype=int)

    @classmethod
    def from_array(cls, codes: np.ndarray) -> "LigandChromosome":
        r = RIGHT_TOPOLOGY.slots
        return cls(codes[:r], codes[r:])


def length_bounds(major_axis: float, slots: int) -> int:
    """The minimum occupied-slot count ``l_min`` of a side whose pocket
    axis is ``major_axis`` long.

    The count assumes every group contributes the longest bond.  A tiny
    epsilon guards the exact-division cases against float noise.  An
    axis shorter than the shortest bond, or one that needs more groups
    than ``slots``, raises ``ValueError``.
    """
    bonds = [g.bond_length_x for g in CATALOGUE.values() if g.bond_length_x]
    if major_axis < min(bonds):
        raise ValueError(f"axis {major_axis} is shorter than the shortest bond {min(bonds)}")
    l_min = max(1, math.ceil(major_axis / max(bonds) - 1e-9))
    if l_min > slots:
        raise ValueError(
            f"axis {major_axis} needs at least {l_min} groups but only {slots} slots exist"
        )
    return l_min


# l_min of each side of the bundled sample site
DEFAULT_RIGHT_BOUNDS = 7
DEFAULT_LEFT_BOUNDS = 2


def _top_code(mode: str) -> int:
    """The highest legal group code in ``mode``: 7 when fixed, NUL when variable."""
    if mode not in ("fixed", "variable"):
        raise ValueError(f"mode must be 'fixed' or 'variable', got {mode!r}")
    return 7 if mode == "fixed" else NUL


# ---------------------------------------------------------------------------
# Validation and repair


def _side_violations(codes, topo: TreeTopology, l_min: int, mode: str) -> list[str]:
    out = []
    for i in topo.backbone:
        live_below = any(codes[d] != NUL for d in topo.descendants[i])
        if codes[i] == NUL and live_below:
            out.append(f"{topo.name}[{i}]: NUL internal slot with occupied descendants")
        if codes[i] in _POLAR_SET and live_below:
            out.append(f"{topo.name}[{i}]: polar code {codes[i]} on a non-terminal internal slot")
    live = sum(1 for v in codes if v != NUL)
    if mode == "fixed":
        if any(v == NUL for v in codes):
            out.append(f"{topo.name}: NUL code present in fixed-length mode")
    elif live < l_min:
        out.append(f"{topo.name}: {live} occupied slots, need at least {l_min}")
    return out


def validate_chromosome(
    c: LigandChromosome,
    mode: str = "variable",
    right_bounds: int = DEFAULT_RIGHT_BOUNDS,
    left_bounds: int = DEFAULT_LEFT_BOUNDS,
) -> list[str]:
    """All invariant violations of a chromosome (empty list = valid).

    ``right_bounds`` and ``left_bounds`` are the sides' ``l_min``.
    """
    _top_code(mode)
    return _side_violations(c.right, RIGHT_TOPOLOGY, right_bounds, mode) + _side_violations(
        c.left, LEFT_TOPOLOGY, left_bounds, mode
    )


def _correct_side(codes: list[int], topo: TreeTopology, l_min: int, top: int, rng) -> list[int]:
    """Repair one side's codes in place: C2, the variable-mode fill, C1.

    The codes are already in 1..8 (checked where they come in, by the
    public constructor), so the one code rule left is no NUL in fixed mode.
    """
    if not 1 <= l_min <= topo.slots:
        raise ValueError(f"{topo.name}: l_min {l_min} is outside [1, {topo.slots}]")
    if top != NUL and NUL in codes:
        raise ValueError(f"illegal group code {NUL} in fixed mode")

    # C2: backbone in position order is root-to-leaf along the chain
    for i in topo.backbone:
        if codes[i] == NUL:
            for d in topo.descendants[i]:
                if codes[d] != NUL:
                    codes[i] = NONPOLAR_CODES[int(rng.integers(len(NONPOLAR_CODES)))]
                    break
    # occupancy floor: fill empty leaves deepest-first, reviving any dead
    # slots on the path up (non-polar) so connectivity holds
    live = len(codes) - codes.count(NUL)
    if top == NUL and live < l_min:
        for slot in topo.leaf_fill_order:
            if codes[slot] != NUL:
                continue
            codes[slot] = int(rng.integers(1, 8))
            live += 1
            a = topo.parents[slot]
            while a >= 0:
                if codes[a] == NUL:
                    codes[a] = NONPOLAR_CODES[int(rng.integers(len(NONPOLAR_CODES)))]
                    live += 1
                a = topo.parents[a]
            if live >= l_min:
                break
    # C1, once: neither C2 nor the fill reads polarity, and the fill only
    # adds occupied slots, so sweeping last sees every slot that needs it
    for i in topo.backbone:
        if codes[i] in _POLAR_SET:
            for d in topo.descendants[i]:
                if codes[d] != NUL:
                    codes[i] = _POLAR_REMAP[codes[i]]
                    break
    return codes


def correct(
    c: LigandChromosome,
    mode: str = "variable",
    rng: np.random.Generator | None = None,
    right_bounds: int = DEFAULT_RIGHT_BOUNDS,
    left_bounds: int = DEFAULT_LEFT_BOUNDS,
) -> LigandChromosome:
    """Repair a chromosome into a valid one.

    ``right_bounds`` and ``left_bounds`` are the sides' ``l_min``, each
    in 1..slots; fixed mode rejects a NUL code.  Sweep order per side
    (right first, then left): connectivity (C2) root-to-leaf — an empty
    internal slot with occupied descendants gets a random non-polar
    code; then, in variable mode, empty leaves are filled deepest-first
    with random codes until ``l_min`` is met (all leaves filled means
    all slots filled), reviving dead slots on the path to the root
    non-polar; last, one polarity (C1) sweep — a polar internal slot
    with occupied descendants is substituted non-polar (3→1, 4→2, 7→6,
    5→1).  No step undoes an earlier one, so the result is valid by
    construction and is not re-checked.  Already-valid input comes back
    unchanged with no generator draws, so the repair is idempotent.
    """
    top = _top_code(mode)
    if rng is None:
        raise ValueError("correct() needs the run's generator for repair draws")
    right = _correct_side(list(c.right), RIGHT_TOPOLOGY, right_bounds, top, rng)
    left = _correct_side(list(c.left), LEFT_TOPOLOGY, left_bounds, top, rng)
    return LigandChromosome._of(tuple(right), tuple(left))


# ---------------------------------------------------------------------------
# Variation operators


def segment_crossover(p1, p2, seg_len: int, pos1: int, pos2: int):
    """Swap a length-``seg_len`` segment between two same-side arrays.

    Child 1 is parent 1 with its segment at ``pos1`` replaced by parent
    2's segment at ``pos2``; child 2 is the mirror image.  Children are
    raw — run them through :func:`correct` before evaluating.
    """
    a, b = tuple(p1), tuple(p2)
    n = len(a)
    if len(b) != n:
        raise ValueError("parents must be the same side (equal length)")
    if not 1 <= seg_len <= n:
        raise ValueError(f"segment length {seg_len} out of range [1, {n}]")
    for pos in (pos1, pos2):
        if not 0 <= pos <= n - seg_len:
            raise ValueError(f"segment at {pos} overruns the array (len {seg_len})")
    return _swap_segments(a, b, seg_len, pos1, pos2)


def _swap_segments(a: tuple, b: tuple, seg_len: int, pos1: int, pos2: int):
    """Unchecked :func:`segment_crossover` of two equal-length tuples."""
    child1 = a[:pos1] + b[pos2 : pos2 + seg_len] + a[pos1 + seg_len :]
    child2 = b[:pos2] + a[pos1 : pos1 + seg_len] + b[pos2 + seg_len :]
    return child1, child2


# ---------------------------------------------------------------------------
# Active site and geometry


@dataclass(frozen=True)
class Residue:
    """One amino-acid site point the ligand interacts with."""

    name: str
    x: float
    y: float
    polar: bool


@dataclass(frozen=True)
class ActiveSite:
    """2D pocket model: residues plus anchors and axis lengths for the
    two tree sides."""

    residues: tuple[Residue, ...]
    right_anchor: tuple[float, float]
    left_anchor: tuple[float, float]
    right_major_axis: float
    left_major_axis: float

    def __post_init__(self) -> None:
        if not self.residues:
            raise ValueError("active site needs at least one residue")
        numbers = [
            ("right_anchor", self.right_anchor),
            ("left_anchor", self.left_anchor),
            ("right_major_axis", self.right_major_axis),
            ("left_major_axis", self.left_major_axis),
        ] + [(f"residue {r.name}", (r.x, r.y)) for r in self.residues]
        for name, value in numbers:
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite, got {value}")
        if tuple(self.right_anchor) == tuple(self.left_anchor):
            raise ValueError("anchors must be distinct points")
        if self.right_major_axis <= 0 or self.left_major_axis <= 0:
            raise ValueError("major axes must be positive")
        object.__setattr__(self, "residues", tuple(self.residues))
        object.__setattr__(self, "right_anchor", tuple(map(float, self.right_anchor)))
        object.__setattr__(self, "left_anchor", tuple(map(float, self.left_anchor)))


class SiteFormatError(ValueError):
    """Raised for malformed active-site files."""


def parse_site(text: str) -> ActiveSite:
    """Parse an active-site description.

    Line-oriented: ``#`` starts a comment; directives ``right_anchor x
    y``, ``left_anchor x y``, ``right_axis L``, ``left_axis L``; every
    other non-blank line is a residue ``NAME x y P|H`` (P polar, H
    hydrophobic).  Distances are Angstrom.  Errors carry line numbers.
    """
    anchors: dict[str, tuple[float, float]] = {}
    axes: dict[str, float] = {}
    residues: list[Residue] = []

    def want_floats(parts, count, lineno):
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise SiteFormatError(f"line {lineno}: expected {count} numbers, got {parts}") from None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        if key in ("right_anchor", "left_anchor"):
            if len(parts) != 3:
                raise SiteFormatError(f"line {lineno}: {key} needs x and y")
            x, y = want_floats(parts[1:], 2, lineno)
            anchors[key] = (x, y)
        elif key in ("right_axis", "left_axis"):
            if len(parts) != 2:
                raise SiteFormatError(f"line {lineno}: {key} needs one length")
            (length,) = want_floats(parts[1:], 1, lineno)
            axes[key] = length
        else:
            if len(parts) != 4:
                raise SiteFormatError(
                    f"line {lineno}: residue lines are 'NAME x y P|H', got {raw.strip()!r}"
                )
            x, y = want_floats(parts[1:3], 2, lineno)
            flag = parts[3].upper()
            if flag not in ("P", "H"):
                raise SiteFormatError(f"line {lineno}: polarity must be P or H, got {parts[3]!r}")
            residues.append(Residue(parts[0], x, y, flag == "P"))

    for need in ("right_anchor", "left_anchor", "right_axis", "left_axis"):
        if need not in anchors and need not in axes:
            raise SiteFormatError(f"missing {need} directive")
    if not residues:
        raise SiteFormatError("no residue lines found")
    return ActiveSite(
        residues=tuple(residues),
        right_anchor=anchors["right_anchor"],
        left_anchor=anchors["left_anchor"],
        right_major_axis=axes["right_axis"],
        left_major_axis=axes["left_axis"],
    )


def load_site(path) -> ActiveSite:
    """Parse an active-site file from disk."""
    with open(path) as fh:
        return parse_site(fh.read())


@dataclass(frozen=True)
class Placement:
    """One occupied slot with its resolved 2D coordinates."""

    side: str
    position: int
    code: int
    x: float
    y: float


_BOND = tuple(
    CATALOGUE[code].bond_length_x if code != NUL else 0.0 for code in range(1, 9)
)
_IS_POLAR = tuple(bool(CATALOGUE[code].polar) for code in range(1, 8)) + (False,)

# y spacing, in Angstrom, between a slot's row and its fanned-out branch rows
DY = 1.0


def _layout_side(codes, topo: TreeTopology, anchor, direction: int):
    """(position, code, x, y) rows for one side's occupied slots."""
    placed: list[tuple[int, int, float, float]] = []
    xs: dict[int, float] = {}
    ys: dict[int, float] = {}
    for i in range(topo.slots):
        code = codes[i]
        if code == NUL:
            continue
        parent = topo.parents[i]
        if parent < 0:
            px, py = anchor
        elif parent in xs:
            px, py = xs[parent], ys[parent]
        else:
            raise ValueError(f"{topo.name}[{i}] is occupied under an empty slot {parent}")
        x = px + direction * _BOND[code - 1]
        y = py + topo.y_steps[i] * DY
        xs[i], ys[i] = x, y
        placed.append((i, code, x, y))
    return placed


def _placed_rows(c: LigandChromosome, site: ActiveSite):
    right = _layout_side(c.right, RIGHT_TOPOLOGY, site.right_anchor, +1)
    left = _layout_side(c.left, LEFT_TOPOLOGY, site.left_anchor, -1)
    return [("right", *row) for row in right] + [("left", *row) for row in left]


def layout(c: LigandChromosome, site: ActiveSite) -> tuple[Placement, ...]:
    """Deterministic 2D coordinates for every occupied slot.

    Each side grows from its anchor away from the scaffold along x
    (right +, left −); a slot's x is its parent's x displaced by the
    slot's own bond length.  Backbone slots keep their parent's y; the
    j-th non-backbone child of a slot fans out to parent_y + DY·(−1)^j
    ·ceil(j/2), counting child slots in position order.  NUL slots are
    omitted.
    """
    return tuple(Placement(*row) for row in _placed_rows(c, site))


# ---------------------------------------------------------------------------
# Energy model


# The model's constants.  ``vdw`` is CN·r⁻⁶ − CM·r⁻¹², attractive minus
# repulsive (the reverse of the usual Lennard-Jones sign).  A group closer
# than R_MIN to its nearest residue costs CLASH_PENALTY; inside the
# [R_MIN, R_MAX] window it contributes vdw plus MISMATCH_PENALTY when group
# and residue polarity differ; past R_MAX it contributes nothing.  The
# total is clamped below at E_FLOOR so the fitness FITNESS_K/E stays finite.
CN = 1.0
CM = 1.0
R_MIN = 0.7
R_MAX = 2.7
CLASH_PENALTY = 10.0
MISMATCH_PENALTY = 5.0
FITNESS_K = 100.0
E_FLOOR = 1e-6


def vdw(r: float) -> float:
    """Pairwise Van der Waals potential at distance ``r``."""
    if r <= 0:
        raise ValueError(f"distance must be positive, got {r}")
    return CN / r**6 - CM / r**12


@dataclass(frozen=True)
class GroupTerm:
    """Energy contribution of one placed group against its nearest
    residue."""

    side: str
    position: int
    code: int
    residue: str
    distance: float
    term: float


@dataclass(frozen=True)
class EnergyReport:
    """Total interaction energy plus the per-group breakdown."""

    total: float
    terms: tuple[GroupTerm, ...]


def _group_terms(rows, site: ActiveSite):
    """Yield (row, nearest index, distance, term) per occupied slot."""
    res_x = np.array([r.x for r in site.residues])
    res_y = np.array([r.y for r in site.residues])
    for row in rows:
        _, _, code, x, y = row
        d2 = (res_x - x) ** 2 + (res_y - y) ** 2
        idx = int(np.argmin(d2))
        d = float(math.sqrt(d2[idx]))
        if d < R_MIN:
            term = CLASH_PENALTY
        elif d <= R_MAX:
            term = vdw(d)
            if _IS_POLAR[code - 1] != site.residues[idx].polar:
                term += MISMATCH_PENALTY
        else:
            term = 0.0
        yield row, idx, d, term


def interaction_energy(c: LigandChromosome, site: ActiveSite) -> EnergyReport:
    """Sum each placed group's term against its nearest residue.

    Nearest is by Euclidean distance (first residue wins ties).  The
    per-group rule is the window rule of the module constants above; the
    clamped total is never below ``E_FLOOR``.
    """
    rows = _placed_rows(c, site)
    if not rows:
        raise ValueError("chromosome places no groups")
    terms: list[GroupTerm] = []
    total = 0.0
    for (side, pos, code, _, _), idx, d, term in _group_terms(rows, site):
        total += term
        terms.append(GroupTerm(side, pos, code, site.residues[idx].name, d, term))
    return EnergyReport(total=max(total, E_FLOOR), terms=tuple(terms))


class _SlotTerms:
    """Energy terms of one side's slots, filled on first use.

    A slot's position, and so its term, depends only on the codes on
    its root path.  ``rows[i]`` holds slot ``i``'s term for every such
    path, keyed by the path's codes as radix-8 digits (``code - 1``,
    root first): 8**depth entries, ``None`` until first looked up.  An
    entry is computed by :func:`_layout_side` and :func:`_group_terms`
    on the path's codes alone, the arithmetic of
    :func:`interaction_energy`.  Keys of an occupied slot under a NUL
    are never stored: their fill raises ``ValueError`` on every lookup.
    """

    def __init__(self, side, topo, anchor, direction, site):
        self.side = side
        self.topo = topo
        self.anchor = anchor
        self.direction = direction
        self.site = site
        self.rows = [[None] * 8**depth for depth in topo.depths]

    def add(self, codes, total: float) -> float:
        """``total`` plus the terms of the occupied slots, in slot order."""
        parents = self.topo.parents
        rows = self.rows
        keys = [0] * (len(codes) + 1)  # keys[-1] stays 0: the anchor's key
        for i, code in enumerate(codes):
            key = keys[i] = keys[parents[i]] * 8 + code - 1
            if code != NUL:
                term = rows[i][key]
                if term is None:
                    term = self._fill(i, key, codes)
                total += term
        return total

    def _fill(self, i: int, key: int, codes) -> float:
        topo = self.topo
        path = {i}
        a = topo.parents[i]
        while a >= 0:
            path.add(a)
            a = topo.parents[a]
        masked = [codes[s] if s in path else NUL for s in range(topo.slots)]
        row = _layout_side(masked, topo, self.anchor, self.direction)[-1]
        ((_, _, _, term),) = _group_terms([(self.side, *row)], self.site)
        self.rows[i][key] = term
        return term


def fitness(E: float) -> float:
    """Reported fitness F = FITNESS_K/E (selection minimizes E directly)."""
    if E < E_FLOOR:
        raise ValueError(f"energy {E} below the clamp {E_FLOOR}")
    return FITNESS_K / E


# ---------------------------------------------------------------------------
# Problem bundle


class LigandProblem:
    """Adapts ligand design to the engine's problem surface.

    ``mode`` is ``"variable"`` (NUL codes allowed, each side's
    ``l_min`` derived from the site's axes) or ``"fixed"`` (all ``n`` =
    17 slots occupied).  Genomes are :class:`LigandChromosome` values;
    every spawn, mutant and crossover child is repaired by
    :func:`correct`, so the engine only sees valid chromosomes.
    """

    n = RIGHT_TOPOLOGY.slots + LEFT_TOPOLOGY.slots

    def __init__(self, site: ActiveSite, mode: str = "variable"):
        self._top = _top_code(mode)
        self.site = site
        self.mode = mode
        self.right_bounds = length_bounds(site.right_major_axis, RIGHT_TOPOLOGY.slots)
        self.left_bounds = length_bounds(site.left_major_axis, LEFT_TOPOLOGY.slots)
        self._right_terms = _SlotTerms("right", RIGHT_TOPOLOGY, site.right_anchor, +1, site)
        self._left_terms = _SlotTerms("left", LEFT_TOPOLOGY, site.left_anchor, -1, site)

    def _repair(self, codes, rng: np.random.Generator) -> LigandChromosome:
        """:func:`correct` of ``n`` legal Python ``int`` codes, right side first."""
        r = RIGHT_TOPOLOGY.slots
        raw = LigandChromosome._of(tuple(codes[:r]), tuple(codes[r:]))
        return correct(raw, self.mode, rng, self.right_bounds, self.left_bounds)

    def random_genome(self, rng: np.random.Generator) -> LigandChromosome:
        codes = rng.integers(1, self._top + 1, size=self.n)
        return self._repair(codes.tolist(), rng)

    def objective(self, c: LigandChromosome) -> float:
        """``interaction_energy(c, site).total``, bit for bit.

        Adds the table's terms right side then left, in slot order, and
        clamps at ``E_FLOOR``: the same floats summed in the same order
        as the report path.
        """
        total = self._left_terms.add(c.left, self._right_terms.add(c.right, 0.0))
        if c.right[0] == NUL and c.left[0] == NUL:
            raise ValueError("chromosome places no groups")
        return max(total, E_FLOOR)

    def mutate(
        self,
        c: LigandChromosome,
        gen: int,
        schedule: MutationSchedule,
        rng: np.random.Generator,
    ) -> LigandChromosome:
        """Mutate the concatenated 17-code array, then repair.

        Exchanges may move codes across sides.  Draw order: first the
        multilevel gate (when the schedule allows it), then a fair coin
        between a scheduled multiple-exchange and a single-slot resample
        (slot, then code) from the mode's legal codes.
        """
        codes = c.as_array()
        if (
            gen >= schedule.multilevel_start_generation
            and rng.random() < schedule.multilevel_probability
        ):
            variant = MULTILEVEL_VARIANTS[int(rng.integers(len(MULTILEVEL_VARIANTS)))]
            codes = multilevel_mutation(codes, variant, rng)
        elif rng.random() < 0.5:
            hi = hi_at(gen, self.n, schedule)
            ri = int(rng.integers(2, hi + 1))
            codes = multiple_exchange_mutation(codes, ri, rng)
        else:
            slot = int(rng.integers(self.n))
            codes[slot] = int(rng.integers(1, self._top + 1))
        return self._repair(codes.tolist(), rng)

    def crossover(self, a: LigandChromosome, b: LigandChromosome, rng: np.random.Generator):
        """Per-side segment swap, then repair of both children.

        Draw order: right (seg_len, pos1, pos2), left (seg_len, pos1,
        pos2), repair of child 1, repair of child 2.
        """
        sides = []
        for s1, s2 in ((a.right, b.right), (a.left, b.left)):
            n = len(s1)
            seg_len = int(rng.integers(1, n // 2 + 1))
            pos1 = int(rng.integers(0, n - seg_len + 1))
            pos2 = int(rng.integers(0, n - seg_len + 1))
            sides.append(_swap_segments(s1, s2, seg_len, pos1, pos2))
        (r1, r2), (l1, l2) = sides
        return (
            self._repair(r1 + l1, rng),
            self._repair(r2 + l2, rng),
        )
