"""Ligand encoding, repair, geometry, and interaction-energy tests."""

import dataclasses
import importlib.resources

import numpy as np
import pytest

from nbga.core import MutationSchedule
from nbga.ligand import (
    CATALOGUE,
    DEFAULT_LEFT_BOUNDS,
    DEFAULT_RIGHT_BOUNDS,
    LEFT_TOPOLOGY,
    NONPOLAR_CODES,
    NUL,
    POLAR_CODES,
    RIGHT_TOPOLOGY,
    ActiveSite,
    EnergyReport,
    LigandChromosome,
    LigandProblem,
    Residue,
    SiteFormatError,
    TreeTopology,
    _POLAR_REMAP,
    _POLAR_SET,
    correct,
    fitness,
    interaction_energy,
    layout,
    length_bounds,
    load_site,
    parse_site,
    segment_crossover,
    validate_chromosome,
)
from tests.conftest import NoDrawRng, PinRng, ScriptedRng

ALL_NUL_LEFT = (8, 8, 8, 8, 8, 8, 8)
FULL_RIGHT = (1,) * 10
FULL_LEFT = (1,) * 7


@pytest.fixture(scope="module")
def sample_site() -> ActiveSite:
    return load_site(importlib.resources.files("nbga") / "data" / "sample_site.txt")


def chrom(right, left=FULL_LEFT) -> LigandChromosome:
    return LigandChromosome(tuple(right), tuple(left))


def one_group_site(*residues) -> ActiveSite:
    return ActiveSite(
        residues=tuple(residues),
        right_anchor=(0.0, 0.0),
        left_anchor=(-1.0, 0.0),
        right_major_axis=2.7,
        left_major_axis=2.7,
    )


def one_group_chrom(code=1) -> LigandChromosome:
    return LigandChromosome((code,) + (8,) * 9, ALL_NUL_LEFT)


# ---------------------------------------------------------------------------
# Catalogue and topology


def test_catalogue_contents():
    expected = {
        1: ("Alkyl-1C", 0.65, False),
        2: ("Alkyl-3C", 1.75, False),
        3: ("Alkyl-1C-Polar", 1.1, True),
        4: ("Alkyl-3C-Polar", 2.2, True),
        5: ("Polar", 0.01, True),
        6: ("Aromatic", 1.9, False),
        7: ("Aromatic-Polar", 2.7, True),
        8: ("NUL", None, None),
    }
    assert set(CATALOGUE) == set(range(1, 9))
    for code, (name, bond, polar) in expected.items():
        group = CATALOGUE[code]
        assert group.code == code
        assert group.name == name
        assert group.bond_length_x == bond
        assert group.polar is polar


def test_polarity_partition():
    assert POLAR_CODES == (3, 4, 5, 7)
    assert NONPOLAR_CODES == (1, 2, 6)
    assert NUL == 8
    assert set(POLAR_CODES) | set(NONPOLAR_CODES) | {NUL} == set(range(1, 9))


def test_right_topology_tables():
    assert RIGHT_TOPOLOGY.parents == (-1, 0, 0, 2, 2, 2, 5, 5, 5, 5)
    assert RIGHT_TOPOLOGY.backbone == (0, 2, 5)
    assert RIGHT_TOPOLOGY.slots == 10
    assert RIGHT_TOPOLOGY.descendants[0] == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert RIGHT_TOPOLOGY.descendants[2] == (3, 4, 5, 6, 7, 8, 9)
    assert RIGHT_TOPOLOGY.descendants[5] == (6, 7, 8, 9)
    assert all(RIGHT_TOPOLOGY.descendants[i] == () for i in (1, 3, 4, 6, 7, 8, 9))
    assert RIGHT_TOPOLOGY.depths == (1, 2, 2, 3, 3, 3, 4, 4, 4, 4)
    assert RIGHT_TOPOLOGY.y_steps == (0, -1, 0, -1, 1, 0, -1, 1, -2, 2)


def test_left_topology_tables():
    assert LEFT_TOPOLOGY.parents == (-1, 0, 0, 2, 2, 2, 2)
    assert LEFT_TOPOLOGY.backbone == (0, 2)
    assert LEFT_TOPOLOGY.slots == 7
    assert LEFT_TOPOLOGY.descendants[0] == (1, 2, 3, 4, 5, 6)
    assert LEFT_TOPOLOGY.descendants[2] == (3, 4, 5, 6)
    assert all(LEFT_TOPOLOGY.descendants[i] == () for i in (1, 3, 4, 5, 6))
    assert LEFT_TOPOLOGY.depths == (1, 2, 2, 3, 3, 3, 3)
    assert LEFT_TOPOLOGY.y_steps == (0, -1, 0, -1, 1, -2, 2)


def test_topology_rejects_forward_parent_reference():
    with pytest.raises(ValueError):
        TreeTopology(name="bad", parents=(-1, 2, 0))


def test_leaf_fill_order_is_deepest_first():
    assert RIGHT_TOPOLOGY.leaf_fill_order == (6, 7, 8, 9, 3, 4, 1)
    assert LEFT_TOPOLOGY.leaf_fill_order == (3, 4, 5, 6, 1)


# ---------------------------------------------------------------------------
# Chromosome and length bounds


def test_chromosome_requires_exact_side_lengths():
    with pytest.raises(ValueError):
        LigandChromosome((1,) * 9, FULL_LEFT)
    with pytest.raises(ValueError):
        LigandChromosome(FULL_RIGHT, (1,) * 8)


def test_chromosome_rejects_out_of_range_codes():
    with pytest.raises(ValueError):
        LigandChromosome((0,) + (1,) * 9, FULL_LEFT)
    with pytest.raises(ValueError):
        LigandChromosome((9,) + (1,) * 9, FULL_LEFT)


def test_chromosome_constructor_converts_numpy_codes_to_python_ints():
    right = np.array([1, 5, 2, 8, 8, 1, 5, 1, 4, 6], dtype=np.int64)
    left = np.array([2, 7, 1, 8, 3, 2, 5], dtype=np.int32)
    c = LigandChromosome(right, left)
    assert all(type(v) is int for v in c.right + c.left)
    # reports, the golden digests and the benchmark hash repr() of the sides
    assert repr(c.right) == "(1, 5, 2, 8, 8, 1, 5, 1, 4, 6)"
    assert c == LigandChromosome(tuple(right.tolist()), tuple(left.tolist()))
    assert hash(c) == hash(LigandChromosome(tuple(right.tolist()), tuple(left.tolist())))
    with pytest.raises(ValueError, match="right side needs 10"):
        LigandChromosome(right[:9], left)
    with pytest.raises(ValueError, match="left side needs 7"):
        LigandChromosome(right, np.append(left, 1))
    for bad in (0, 9):
        codes = left.copy()
        codes[3] = bad
        with pytest.raises(ValueError, match=f"illegal group code {bad}"):
            LigandChromosome(right, codes)


def test_chromosome_array_roundtrip():
    c = LigandChromosome((1, 5, 2, 8, 8, 1, 5, 1, 4, 6), (2, 7, 1, 8, 3, 2, 5))
    arr = c.as_array()
    assert arr.tolist() == [1, 5, 2, 8, 8, 1, 5, 1, 4, 6, 2, 7, 1, 8, 3, 2, 5]
    assert LigandChromosome.from_array(arr) == c


def test_length_bounds_from_axes():
    assert length_bounds(18.9, 10) == 7
    assert length_bounds(5.4, 7) == 2
    assert type(length_bounds(18.9, 10)) is int


def test_length_bounds_needs_at_least_the_shortest_bond():
    assert length_bounds(0.05, 7) == 1
    assert length_bounds(0.01, 7) == 1
    with pytest.raises(ValueError, match="shorter than the shortest bond"):
        length_bounds(0.0099, 7)


def test_length_bounds_rejects_axis_longer_than_slots_can_span():
    with pytest.raises(ValueError, match="at least 11 groups"):
        length_bounds(27.1, 10)


def test_length_bounds_rejects_nonpositive_axis():
    with pytest.raises(ValueError):
        length_bounds(0.0, 10)


# ---------------------------------------------------------------------------
# Validation


def test_valid_chromosome_has_no_violations():
    assert validate_chromosome(chrom(FULL_RIGHT)) == []


def test_nul_internal_slot_with_live_descendants_is_flagged():
    bad = chrom((1, 1, 8, 1, 1, 1, 1, 1, 1, 1))
    messages = validate_chromosome(bad)
    assert any("right[2]" in m and "NUL internal" in m for m in messages)


def test_polar_internal_slot_with_live_descendants_is_flagged():
    bad = chrom((5, 1, 1, 1, 1, 1, 1, 1, 1, 1))
    messages = validate_chromosome(bad)
    assert any("right[0]" in m and "polar" in m for m in messages)


def test_terminal_polar_backbone_slot_is_legal():
    # slot 5's whole subtree is empty, so a polar code there is fine
    ok = chrom((1, 1, 1, 1, 1, 5, 8, 8, 8, 8))
    assert validate_chromosome(ok, "variable", 1, DEFAULT_LEFT_BOUNDS) == []


def test_occupancy_floor_enforced_in_variable_mode():
    sparse = LigandChromosome((1,) + (8,) * 9, (1, 1, 8, 8, 8, 8, 8))
    messages = validate_chromosome(sparse)
    assert any("right: 1 occupied" in m for m in messages)


def test_fixed_mode_rejects_any_nul():
    c = chrom((1, 1, 1, 1, 1, 1, 1, 1, 1, 8))
    messages = validate_chromosome(c, mode="fixed")
    assert any("fixed-length" in m for m in messages)


def test_validate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        validate_chromosome(chrom(FULL_RIGHT), mode="flexible")


# ---------------------------------------------------------------------------
# Repair


def test_correct_requires_a_generator():
    with pytest.raises(ValueError, match="generator"):
        correct(chrom(FULL_RIGHT), "variable", None)


def test_correct_leaves_valid_input_untouched_without_draws():
    c = chrom(FULL_RIGHT)
    assert correct(c, "variable", NoDrawRng()) == c


def test_correct_fills_nul_backbone_above_live_slots():
    broken = chrom((1, 1, 8, 1, 1, 1, 1, 1, 1, 1))
    fixed = correct(broken, "variable", PinRng())
    assert fixed.right[2] == NONPOLAR_CODES[1]  # pinned draw picks 2
    assert validate_chromosome(fixed) == []


def test_correct_substitutes_polar_internal_slots():
    broken = chrom((3, 1, 4, 1, 1, 7, 1, 1, 1, 1))
    fixed = correct(broken, "variable", NoDrawRng())  # remap needs no draws
    assert fixed.right == (1, 1, 2, 1, 1, 6, 1, 1, 1, 1)


def test_correct_fills_occupancy_deepest_first_and_resweeps_polarity():
    sparse_left = (3, 8, 8, 8, 8, 8, 8)
    start = LigandChromosome((1, 1, 1, 1, 1, 1, 1, 8, 8, 8), sparse_left)
    fixed = correct(start, "variable", PinRng())
    # deepest leaf 3 gets the pinned code 1, its dead parent 2 revives
    # non-polar, and the now-internal polar root is substituted
    assert fixed.left == (1, 8, 2, 1, 8, 8, 8)
    assert validate_chromosome(fixed) == []


def test_correct_is_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(100):
        raw = LigandChromosome.from_array(rng.integers(1, 9, size=17))
        fixed = correct(raw, "variable", rng)
        assert correct(fixed, "variable", NoDrawRng()) == fixed


def test_correct_fixed_mode_rejects_nul_codes():
    with pytest.raises(ValueError, match="illegal group code 8"):
        correct(chrom((1, 1, 1, 1, 1, 1, 1, 1, 1, 8)), "fixed", PinRng())


def test_correct_repairs_random_arrays_in_both_modes():
    rng = np.random.default_rng(11)
    # the sample site's minimums, the smallest legal ones and full sides
    for bounds in ((DEFAULT_RIGHT_BOUNDS, DEFAULT_LEFT_BOUNDS), (1, 1), (10, 7)):
        for i in range(300):
            codes = rng.integers(1, 9, size=17)
            if i % 2:  # mostly empty input, so the fill and its C1 re-sweep run
                codes[rng.random(17) < 0.7] = NUL
            fixed = correct(LigandChromosome.from_array(codes), "variable", rng, *bounds)
            assert validate_chromosome(fixed, "variable", *bounds) == []
        for _ in range(300):
            raw = LigandChromosome.from_array(rng.integers(1, 8, size=17))
            fixed = correct(raw, "fixed", rng, *bounds)
            assert validate_chromosome(fixed, "fixed", *bounds) == []
            assert NUL not in fixed.right + fixed.left


def _two_sweep_correct_side(codes, topo, l_min, top, rng):
    """The side repair with C1 swept before and after the fill, as it
    stood before the single sweep: the oracle for :func:`correct`."""
    if not 1 <= l_min <= topo.slots:
        raise ValueError(f"{topo.name}: l_min {l_min} is outside [1, {topo.slots}]")
    for v in codes:
        if not 1 <= v <= top:
            raise ValueError(f"illegal group code {v} (highest legal code is {top})")

    def live_below(i):
        return any(codes[d] != NUL for d in topo.descendants[i])

    for i in topo.backbone:
        if codes[i] == NUL and live_below(i):
            codes[i] = NONPOLAR_CODES[int(rng.integers(len(NONPOLAR_CODES)))]
    for i in topo.backbone:
        if codes[i] in _POLAR_SET and live_below(i):
            codes[i] = _POLAR_REMAP[codes[i]]
    if top == NUL:
        live = len(codes) - codes.count(NUL)
        for slot in topo.leaf_fill_order:
            if live >= l_min:
                break
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
        for i in topo.backbone:
            if codes[i] in _POLAR_SET and live_below(i):
                codes[i] = _POLAR_REMAP[codes[i]]
    return codes


def test_correct_matches_the_two_sweep_repair():
    inputs = np.random.default_rng(23)
    for mode, top in (("variable", NUL), ("fixed", 7)):
        for right_min, left_min in ((7, 2), (1, 1), (10, 7)):
            rng, oracle_rng = np.random.default_rng(29), np.random.default_rng(29)
            for i in range(250):
                codes = inputs.integers(1, top + 1, size=17)
                if top == NUL and i % 2:  # mostly empty, so the fill runs
                    codes[inputs.random(17) < 0.7] = NUL
                raw = LigandChromosome.from_array(codes)
                expected = LigandChromosome(
                    _two_sweep_correct_side(list(raw.right), RIGHT_TOPOLOGY, right_min, top,
                                            oracle_rng),
                    _two_sweep_correct_side(list(raw.left), LEFT_TOPOLOGY, left_min, top,
                                            oracle_rng),
                )
                assert correct(raw, mode, rng, right_min, left_min) == expected
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_correct_rejects_a_minimum_outside_the_side():
    for right_min, left_min in ((11, 2), (7, 8), (0, 2), (7, 0)):
        for mode in ("variable", "fixed"):
            with pytest.raises(ValueError, match="l_min"):
                correct(chrom(FULL_RIGHT), mode, NoDrawRng(), right_min, left_min)


# ---------------------------------------------------------------------------
# Variation operators


GOLDEN_P1 = (1, 5, 2, 8, 8, 1, 5, 1, 4, 6)
GOLDEN_P2 = (2, 7, 1, 8, 3, 2, 5, 8, 6, 2)


def test_segment_crossover_swaps_segments():
    c1, c2 = segment_crossover(GOLDEN_P1, GOLDEN_P2, 3, 4, 6)
    assert c1 == (1, 5, 2, 8, 5, 8, 6, 1, 4, 6)
    assert c2 == (2, 7, 1, 8, 3, 2, 8, 1, 5, 2)


def test_segment_crossover_repair_of_first_son():
    c1, _ = segment_crossover(GOLDEN_P1, GOLDEN_P2, 3, 4, 6)
    fixed = correct(LigandChromosome(c1, FULL_LEFT), "variable", PinRng())
    assert fixed.right == (1, 5, 2, 8, 5, 2, 6, 1, 4, 6)


def test_segment_crossover_validates_arguments():
    with pytest.raises(ValueError, match="equal length"):
        segment_crossover(GOLDEN_P1, GOLDEN_P2[:7], 2, 0, 0)
    with pytest.raises(ValueError, match="out of range"):
        segment_crossover(GOLDEN_P1, GOLDEN_P2, 0, 0, 0)
    with pytest.raises(ValueError, match="overruns"):
        segment_crossover(GOLDEN_P1, GOLDEN_P2, 3, 8, 0)


def test_group_mutation_single_slot_resample_path(sample_site):
    rng = ScriptedRng(integers=[16, 2], random=[0.9, 0.7])
    out = LigandProblem(sample_site).mutate(chrom(FULL_RIGHT), 1, MutationSchedule(), rng)
    assert out.right == FULL_RIGHT
    assert out.left == (1, 1, 1, 1, 1, 1, 2)
    rng.assert_exhausted()


def test_group_mutation_exchange_path_crosses_sides(sample_site):
    rng = ScriptedRng(
        integers=[2], random=[0.9, 0.3], choice=[[0, 16]], permutation=[[1, 0]]
    )
    out = LigandProblem(sample_site).mutate(chrom((2,) * 10), 1, MutationSchedule(), rng)
    assert out.right == (1,) + (2,) * 9
    assert out.left == (1, 1, 1, 1, 1, 1, 2)
    rng.assert_exhausted()


def test_group_mutation_output_is_always_valid(sample_site):
    rng = np.random.default_rng(17)
    schedule = MutationSchedule.for_dimension(17, 100)
    problem = LigandProblem(sample_site)
    c = chrom(FULL_RIGHT)
    for gen in (1, 30, 60, 100):
        for _ in range(150):
            c = problem.mutate(c, gen, schedule, rng)
            assert validate_chromosome(c) == []


# ---------------------------------------------------------------------------
# Active site parsing


SITE_TEXT = """# tiny pocket
right_anchor 0.0 0.0
left_anchor -1.0 0.0
right_axis 2.7
left_axis 2.7

SER1 1.0 1.0 P
LEU2 -2.0 -1.0 h   # lower-case flag is fine
"""


def test_parse_site_roundtrip():
    site = parse_site(SITE_TEXT)
    assert site.right_anchor == (0.0, 0.0)
    assert site.left_anchor == (-1.0, 0.0)
    assert site.right_major_axis == 2.7
    assert [r.name for r in site.residues] == ["SER1", "LEU2"]
    assert site.residues[0].polar is True
    assert site.residues[1].polar is False


def test_parse_site_rejects_bad_polarity_flag():
    with pytest.raises(SiteFormatError, match="line 7: polarity must be P or H"):
        parse_site(SITE_TEXT.replace("1.0 1.0 P", "1.0 1.0 Q"))


def test_parse_site_rejects_malformed_residue_line():
    with pytest.raises(SiteFormatError, match="line 7: residue lines"):
        parse_site(SITE_TEXT.replace("SER1 1.0 1.0 P", "SER1 1.0"))


def test_parse_site_rejects_missing_anchor():
    with pytest.raises(SiteFormatError, match="missing left_anchor"):
        parse_site(SITE_TEXT.replace("left_anchor -1.0 0.0\n", ""))


def test_parse_site_rejects_missing_axis():
    with pytest.raises(SiteFormatError, match="missing right_axis"):
        parse_site(SITE_TEXT.replace("right_axis 2.7\n", ""))


def test_parse_site_rejects_non_numeric_coordinates():
    with pytest.raises(SiteFormatError, match="line 2: expected 2 numbers"):
        parse_site(SITE_TEXT.replace("right_anchor 0.0 0.0", "right_anchor x y"))


def test_parse_site_requires_residues():
    anchors_only = "\n".join(SITE_TEXT.splitlines()[:5])
    with pytest.raises(SiteFormatError, match="no residue lines"):
        parse_site(anchors_only)


def test_active_site_rejects_coincident_anchors():
    with pytest.raises(ValueError, match="distinct"):
        ActiveSite(
            residues=(Residue("A", 0.0, 1.0, True),),
            right_anchor=(0.0, 0.0),
            left_anchor=(0.0, 0.0),
            right_major_axis=1.0,
            left_major_axis=1.0,
        )


@pytest.mark.parametrize(
    "line, replacement, field",
    [
        ("right_axis 2.7", "right_axis inf", "right_major_axis"),
        ("left_axis 2.7", "left_axis nan", "left_major_axis"),
        ("right_anchor 0.0 0.0", "right_anchor 0.0 -inf", "right_anchor"),
        ("left_anchor -1.0 0.0", "left_anchor nan 0.0", "left_anchor"),
        ("LEU2 -2.0 -1.0", "LEU2 -2.0 inf", "residue LEU2"),
    ],
)
def test_active_site_rejects_non_finite_numbers(line, replacement, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        parse_site(SITE_TEXT.replace(line, replacement))


def test_load_site_reads_files(tmp_path):
    path = tmp_path / "pocket.txt"
    path.write_text(SITE_TEXT)
    assert load_site(path).right_major_axis == 2.7


def test_packaged_sample_site():
    path = importlib.resources.files("nbga") / "data" / "sample_site.txt"
    site = parse_site(path.read_text())
    assert len(site.residues) == 14
    assert site.right_major_axis == 18.9
    assert site.left_major_axis == 5.4
    assert {abs(r.y) for r in site.residues} == {3.0}
    problem = LigandProblem(site)
    # the defaults restate the sample site's minimums
    assert (problem.right_bounds, problem.left_bounds) == (7, 2)
    assert (DEFAULT_RIGHT_BOUNDS, DEFAULT_LEFT_BOUNDS) == (7, 2)


# ---------------------------------------------------------------------------
# Geometry


def test_layout_accumulates_bond_lengths_along_backbone(small_site):
    c = LigandChromosome((2, 1, 2, 8, 8, 2, 8, 8, 8, 8), (1, 8, 8, 8, 8, 8, 8))
    rows = {(p.side, p.position): p for p in layout(c, small_site)}
    assert rows[("right", 0)].x == pytest.approx(1.75)
    assert rows[("right", 2)].x == pytest.approx(3.5)
    assert rows[("right", 5)].x == pytest.approx(5.25)
    assert all(rows[("right", i)].y == 0.0 for i in (0, 2, 5))
    # branch slot 1 hangs one row below its parent, one bond further out
    assert rows[("right", 1)].x == pytest.approx(2.4)
    assert rows[("right", 1)].y == pytest.approx(-1.0)
    # the left side grows toward negative x from its own anchor
    assert rows[("left", 0)].x == pytest.approx(-1.65)
    assert rows[("left", 0)].y == 0.0


def test_layout_fans_out_children_in_alternating_rows(small_site):
    c = LigandChromosome((1, 8, 1, 8, 8, 1, 1, 1, 1, 1), ALL_NUL_LEFT)
    rows = {p.position: p for p in layout(c, small_site)}
    base = rows[5]
    assert [rows[i].y - base.y for i in (6, 7, 8, 9)] == [-1.0, 1.0, -2.0, 2.0]


def test_layout_omits_empty_slots(small_site):
    c = one_group_chrom()
    rows = layout(c, small_site)
    assert [(p.side, p.position) for p in rows] == [("right", 0)]


def test_layout_rejects_live_slot_under_dead_parent(small_site):
    c = LigandChromosome((1, 8, 8, 1, 8, 8, 8, 8, 8, 8), ALL_NUL_LEFT)
    with pytest.raises(ValueError, match="occupied under an empty slot"):
        layout(c, small_site)


# ---------------------------------------------------------------------------
# Energy model


def test_vdw_balances_exactly_at_unit_distance():
    from nbga.ligand import vdw

    assert vdw(1.0) == 0.0
    assert vdw(1.5) == pytest.approx(0.08008414856964366, rel=1e-12)


def test_vdw_rejects_nonpositive_distance():
    from nbga.ligand import vdw

    with pytest.raises(ValueError):
        vdw(0.0)


def test_energy_window_term_with_polarity_mismatch():
    site = one_group_site(Residue("A", 0.65, 1.0, True))
    report = interaction_energy(one_group_chrom(), site)
    assert isinstance(report, EnergyReport)
    (term,) = report.terms
    assert term.residue == "A"
    assert term.distance == pytest.approx(1.0)
    assert term.term == pytest.approx(5.0)  # vdw(1) = 0 plus the mismatch
    assert report.total == pytest.approx(5.0)


def test_energy_window_term_with_matching_polarity_clamps_to_floor():
    site = one_group_site(Residue("A", 0.65, 1.0, False))
    report = interaction_energy(one_group_chrom(), site)
    assert report.terms[0].term == 0.0
    assert report.total == pytest.approx(1e-6)


def test_energy_window_pure_vdw_value():
    site = one_group_site(Residue("A", 0.65, 1.5, False))
    report = interaction_energy(one_group_chrom(), site)
    assert report.total == pytest.approx(0.08008414856964366, rel=1e-12)


def test_energy_clash_penalty_overrides_everything():
    for polar in (True, False):
        site = one_group_site(Residue("A", 0.65, 0.3, polar))
        assert interaction_energy(one_group_chrom(), site).total == pytest.approx(10.0)


def test_energy_beyond_cutoff_contributes_nothing():
    site = one_group_site(Residue("A", 0.65, 3.0, True))
    report = interaction_energy(one_group_chrom(), site)
    assert report.terms[0].term == 0.0
    assert report.total == pytest.approx(1e-6)


def test_energy_window_boundaries_are_inclusive():
    from nbga.ligand import vdw

    inner = one_group_site(Residue("A", 0.65, 0.7, False))
    report = interaction_energy(one_group_chrom(), inner)
    assert report.terms[0].term == pytest.approx(vdw(0.7), rel=1e-12)

    outer = one_group_site(Residue("A", 0.65, 2.7, False))
    report = interaction_energy(one_group_chrom(), outer)
    assert report.total == pytest.approx(vdw(2.7), rel=1e-12)

    past = one_group_site(Residue("A", 0.65, 2.7000001, False))
    assert interaction_energy(one_group_chrom(), past).terms[0].term == 0.0


def test_energy_nearest_residue_tie_breaks_to_first():
    polar_first = one_group_site(
        Residue("P", 0.65, 1.0, True), Residue("H", 0.65, -1.0, False)
    )
    report = interaction_energy(one_group_chrom(), polar_first)
    assert report.terms[0].residue == "P"
    assert report.total == pytest.approx(5.0)

    hydro_first = one_group_site(
        Residue("H", 0.65, -1.0, False), Residue("P", 0.65, 1.0, True)
    )
    report = interaction_energy(one_group_chrom(), hydro_first)
    assert report.terms[0].residue == "H"
    assert report.total == pytest.approx(1e-6)


def test_energy_group_polarity_comes_from_the_catalogue():
    # code 5 is polar with a 0.01 bond; against a polar residue at
    # distance 1 the term is pure vdw = 0
    site = one_group_site(Residue("A", 0.01, 1.0, True))
    assert interaction_energy(one_group_chrom(code=5), site).total == pytest.approx(1e-6)
    site = one_group_site(Residue("A", 0.01, 1.0, False))
    assert interaction_energy(one_group_chrom(code=5), site).total == pytest.approx(5.0)


def test_energy_is_translation_invariant(small_site):
    dx, dy_shift = 3.7, -2.2
    shifted = ActiveSite(
        residues=tuple(
            Residue(r.name, r.x + dx, r.y + dy_shift, r.polar)
            for r in small_site.residues
        ),
        right_anchor=(small_site.right_anchor[0] + dx, small_site.right_anchor[1] + dy_shift),
        left_anchor=(small_site.left_anchor[0] + dx, small_site.left_anchor[1] + dy_shift),
        right_major_axis=small_site.right_major_axis,
        left_major_axis=small_site.left_major_axis,
    )
    rng = np.random.default_rng(5)
    problem = LigandProblem(small_site)
    moved = LigandProblem(shifted)
    for _ in range(25):
        c = problem.random_genome(rng)
        assert moved.objective(c) == pytest.approx(problem.objective(c), rel=1e-12)


def test_energy_total_matches_report_total(small_site):
    rng = np.random.default_rng(29)
    problem = LigandProblem(small_site)
    for _ in range(200):
        c = problem.random_genome(rng)
        assert problem.objective(c) == interaction_energy(c, small_site).total


def test_energy_requires_at_least_one_group(small_site):
    empty = LigandChromosome((8,) * 10, ALL_NUL_LEFT)
    with pytest.raises(ValueError, match="places no groups"):
        interaction_energy(empty, small_site)


def test_energy_report_rows_align_with_layout(small_site):
    c = correct(
        LigandChromosome.from_array(np.random.default_rng(1).integers(1, 9, 17)),
        "variable",
        np.random.default_rng(2),
    )
    placements = layout(c, small_site)
    report = interaction_energy(c, small_site)
    assert [(t.side, t.position, t.code) for t in report.terms] == [
        (p.side, p.position, p.code) for p in placements
    ]


# ---------------------------------------------------------------------------
# Fitness


def test_fitness_is_inverse_energy():
    assert fitness(11.57486) == pytest.approx(8.639413, abs=1e-6)
    assert fitness(8.10467) == pytest.approx(12.338565, abs=1e-6)
    assert fitness(100.0) == pytest.approx(1.0)


def test_fitness_rejects_energy_below_clamp():
    with pytest.raises(ValueError):
        fitness(1e-9)


# ---------------------------------------------------------------------------
# Problem bundle


def test_problem_rejects_unknown_mode(small_site):
    with pytest.raises(ValueError):
        LigandProblem(small_site, mode="rigid")


def test_problem_derives_bounds_from_site_axes(small_site):
    problem = LigandProblem(small_site)
    assert (problem.right_bounds, problem.left_bounds) == (7, 2)


def test_problem_random_genomes_are_valid(small_site):
    rng = np.random.default_rng(6)
    problem = LigandProblem(small_site)
    for _ in range(100):
        c = problem.random_genome(rng)
        assert validate_chromosome(c, "variable", problem.right_bounds, problem.left_bounds) == []


def test_problem_fixed_mode_fills_every_slot(small_site):
    rng = np.random.default_rng(6)
    problem = LigandProblem(small_site, mode="fixed")
    for _ in range(100):
        c = problem.random_genome(rng)
        assert NUL not in c.right + c.left


def test_problem_objective_is_the_interaction_energy(small_site):
    problem = LigandProblem(small_site)
    rng = np.random.default_rng(8)
    c = problem.random_genome(rng)
    assert problem.objective(c) == interaction_energy(c, small_site).total
    assert fitness(4.0) == pytest.approx(25.0)


def _bred_genomes(problem, rng, count):
    """``count`` genomes: random ones, then mutate/crossover chains from them."""
    schedule = MutationSchedule.for_dimension(17, 100)
    genomes = [problem.random_genome(rng) for _ in range(count // 3)]
    k = 0
    while len(genomes) < count:
        a, b = genomes[k], genomes[(7 * k + 1) % len(genomes)]
        genomes.append(problem.mutate(a, 1 + k % 100, schedule, rng))
        genomes.extend(problem.crossover(a, b, rng))
        k += 1
    return genomes[:count]


@pytest.mark.parametrize("mode", ["variable", "fixed"])
def test_problem_objective_equals_report_total_bit_for_bit(mode, small_site, sample_site):
    # residues on the backbone rows make some groups clash, so with the
    # other two sites every window rule is reached: clash, window with
    # and without mismatch, and beyond R_MAX
    crowded = dataclasses.replace(small_site, residues=small_site.residues + (
        Residue("R_C", 3.0, 0.0, False), Residue("L_C", -2.5, 0.0, True)))
    rng = np.random.default_rng(41)
    for site in (sample_site, small_site, crowded):
        problem = LigandProblem(site, mode)
        for c in _bred_genomes(problem, rng, 700):
            assert problem.objective(c) == interaction_energy(c, site).total


def test_problem_objective_rejects_invalid_chromosomes(small_site):
    problem = LigandProblem(small_site)
    dead_parent = LigandChromosome((1, 8, 8, 1, 8, 8, 8, 8, 8, 8), ALL_NUL_LEFT)
    dead_root = LigandChromosome((8, 1) + (8,) * 8, ALL_NUL_LEFT)
    for _ in range(2):  # an invalid key is never stored, so it raises every time
        for c in (dead_parent, dead_root):
            with pytest.raises(ValueError, match="occupied under an empty slot"):
                problem.objective(c)
        with pytest.raises(ValueError, match="places no groups"):
            problem.objective(LigandChromosome((8,) * 10, ALL_NUL_LEFT))


def test_problem_crossover_children_are_valid(small_site):
    rng = np.random.default_rng(9)
    problem = LigandProblem(small_site)
    for _ in range(100):
        a, b = problem.random_genome(rng), problem.random_genome(rng)
        for child in problem.crossover(a, b, rng):
            assert (
                validate_chromosome(child, "variable", problem.right_bounds, problem.left_bounds)
                == []
            )


def test_problem_mutation_respects_mode(small_site):
    rng = np.random.default_rng(10)
    schedule = MutationSchedule.for_dimension(17, 100)
    problem = LigandProblem(small_site, mode="fixed")
    c = problem.random_genome(rng)
    for gen in (1, 50, 100):
        for _ in range(50):
            c = problem.mutate(c, gen, schedule, rng)
            assert NUL not in c.right + c.left


def test_problem_fixed_mode_chains_stay_valid(small_site):
    rng = np.random.default_rng(12)
    schedule = MutationSchedule.for_dimension(17, 100)
    problem = LigandProblem(small_site, mode="fixed")
    c, mate = problem.random_genome(rng), problem.random_genome(rng)
    for i in range(400):
        c = problem.mutate(c, 1 + i % 100, schedule, rng)
        c, mate = problem.crossover(c, mate, rng)
        for g in (c, mate):
            assert validate_chromosome(g, "fixed", problem.right_bounds, problem.left_bounds) == []


@pytest.mark.parametrize("mode", ["variable", "fixed"])
def test_unchecked_outputs_equal_checked_chromosomes(mode, sample_site):
    # the operators and correct build chromosomes without the public
    # constructor's checks; each must be what that constructor would build
    rng = np.random.default_rng(23)
    problem = LigandProblem(sample_site, mode)
    bounds = (problem.right_bounds, problem.left_bounds)
    gate_on = MutationSchedule(multilevel_probability=1.0)
    outputs = []
    for _ in range(100):
        a, b = problem.random_genome(rng), problem.random_genome(rng)
        outputs += [a, b, problem.mutate(a, 1, gate_on, rng)]
        outputs.append(problem.mutate(b, 1, MutationSchedule(), rng))
        outputs += problem.crossover(a, b, rng)
        raw = LigandChromosome.from_array(rng.integers(1, 9 if mode == "variable" else 8, 17))
        outputs.append(correct(raw, mode, rng, *bounds))
    for c in outputs:
        for side, slots in ((c.right, 10), (c.left, 7)):
            assert type(side) is tuple and len(side) == slots
            assert all(type(v) is int for v in side)
        assert c == LigandChromosome(c.right, c.left)
        assert validate_chromosome(c, mode, *bounds) == []
