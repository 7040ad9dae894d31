"""Tour model, TSPLIB-subset parser, and permutation operators."""

import warnings

import numpy as np
import pytest

from nbga.core import MutationSchedule, hi_at
from nbga.tsp import (
    MULTILEVEL_VARIANTS,
    TspInstance,
    TspProblem,
    TsplibFormatError,
    brute_force_optimum,
    displacement_mutation,
    error_percent,
    load_tsplib,
    multilevel_mutation,
    multiple_exchange_mutation,
    order_crossover,
    parse_tsplib,
    permute_at,
    random_displacement,
    random_inversion,
    random_order_crossover,
    simple_inversion_mutation,
    tour_cost,
)
from tests.conftest import ScriptedRng, hexagon_instance

TRIANGLE_COORDS = [(0.0, 0.0), (3.0, 4.0), (0.0, 8.0)]


def triangle() -> TspInstance:
    return TspInstance.from_coords("triangle", TRIANGLE_COORDS)


def triangle_text(**overrides) -> str:
    fields = {
        "NAME": "triangle",
        "TYPE": "TSP",
        "DIMENSION": "3",
        "EDGE_WEIGHT_TYPE": "EUC_2D",
    }
    fields.update(overrides)
    lines = [f"{key}: {value}" for key, value in fields.items()]
    lines.append("NODE_COORD_SECTION")
    for i, (x, y) in enumerate(TRIANGLE_COORDS, start=1):
        lines.append(f"{i} {x} {y}")
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def matrix_text(weight_format: str, rows: str, dimension: int = 3, extra: str = "") -> str:
    return (
        f"NAME: m{dimension}\n"
        "TYPE: TSP\n"
        f"DIMENSION: {dimension}\n"
        "EDGE_WEIGHT_TYPE: EXPLICIT\n"
        f"EDGE_WEIGHT_FORMAT: {weight_format}\n"
        f"{extra}"
        "EDGE_WEIGHT_SECTION\n"
        f"{rows}\n"
        "EOF\n"
    )


# ---------------------------------------------------------------------------
# Distances and instances


def test_from_coords_rounds_to_nearest_integer():
    inst = triangle()
    assert inst.cost.tolist() == [[0, 5, 8], [5, 0, 5], [8, 5, 0]]


def test_from_coords_keeps_exact_distances_when_asked():
    inst = TspInstance.from_coords(
        "t", [(0.0, 0.0), (0.0, 1.2), (1.0, 0.0)], round_distances=False
    )
    assert inst.cost[0, 1] == pytest.approx(1.2)


def test_rounding_is_to_nearest():
    inst = TspInstance.from_coords("t", [(0.0, 0.0), (0.0, 2.5), (0.0, 6.0)])
    # 2.5 rounds up, 3.5 rounds up: floor(d + 0.5)
    assert inst.cost[0, 1] == 3.0
    assert inst.cost[1, 2] == 4.0


def test_instance_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        TspInstance("bad", 3, np.array([[0, 1, 2], [9, 0, 3], [2, 3, 0]], dtype=float))


def test_instance_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        TspInstance("bad", 3, np.array([[1, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float))


def test_instance_rejects_negative_cost():
    with pytest.raises(ValueError):
        TspInstance("bad", 3, np.array([[0, -1, 2], [-1, 0, 3], [2, 3, 0]], dtype=float))


def test_instance_rejects_fewer_than_three_cities():
    with pytest.raises(ValueError):
        TspInstance("bad", 2, np.array([[0, 1], [1, 0]], dtype=float))


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_instance_rejects_non_finite_costs(weight):
    cost = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
    cost[0, 1] = cost[1, 0] = weight
    with pytest.raises(ValueError, match="must be finite"):
        TspInstance("bad", 3, cost)


@pytest.mark.parametrize("far", [float("nan"), float("inf"), 1e308])
def test_from_coords_rejects_non_finite_distances_without_warnings(far):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy overflow warning would fail here
        with pytest.raises(ValueError, match="must be finite"):
            TspInstance.from_coords("bad", [(0.0, 0.0), (far, 1.0), (-far, 0.0)])


def test_tour_cost_closes_the_cycle():
    inst = triangle()
    assert tour_cost(np.array([0, 1, 2]), inst) == 18.0


@pytest.mark.parametrize("tour", [[-1, 0, 1], [0, 0, 0], [0, 1, 3], [0.0, 1.0, 2.0], [0, 1]])
def test_tour_cost_rejects_non_permutations(tour):
    with pytest.raises(ValueError):
        tour_cost(np.array(tour), triangle())


def test_tour_cost_invariant_to_rotation_and_reversal():
    inst = hexagon_instance(radius=10.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        tour = rng.permutation(6)
        base = tour_cost(tour, inst)
        assert tour_cost(np.roll(tour, 2), inst) == base
        assert tour_cost(tour[::-1], inst) == base


# ---------------------------------------------------------------------------
# Parser


def test_parse_euclidean_instance():
    inst = parse_tsplib(triangle_text())
    assert inst.name == "triangle"
    assert inst.n == 3
    assert inst.cost.tolist() == [[0, 5, 8], [5, 0, 5], [8, 5, 0]]


def test_parse_unrounded_euclidean():
    inst = parse_tsplib(triangle_text(), round_euclidean=False)
    assert inst.cost[0, 1] == pytest.approx(5.0)


def test_parse_full_matrix():
    text = matrix_text("FULL_MATRIX", "0 2 3\n2 0 4\n3 4 0")
    assert parse_tsplib(text).cost.tolist() == [[0, 2, 3], [2, 0, 4], [3, 4, 0]]


def test_parse_upper_row():
    text = matrix_text("UPPER_ROW", "2 3 4")
    assert parse_tsplib(text).cost.tolist() == [[0, 2, 3], [2, 0, 4], [3, 4, 0]]


def test_parse_lower_diag_row():
    text = matrix_text("LOWER_DIAG_ROW", "0 2 0 3 4 0")
    assert parse_tsplib(text).cost.tolist() == [[0, 2, 3], [2, 0, 4], [3, 4, 0]]


def test_parse_tolerates_display_data():
    text = matrix_text(
        "FULL_MATRIX",
        "0 2 3\n2 0 4\n3 4 0\nDISPLAY_DATA_SECTION\n1 0.0 0.0\n2 1.0 0.0\n3 0.0 1.0",
        extra="DISPLAY_DATA_TYPE: TWOD_DISPLAY\n",
    )
    assert parse_tsplib(text).cost.tolist() == [[0, 2, 3], [2, 0, 4], [3, 4, 0]]


def test_parse_rejects_unknown_keyword_with_line_number():
    with pytest.raises(TsplibFormatError, match="line 3.*DIMENSI0N"):
        parse_tsplib(triangle_text().replace("DIMENSION", "DIMENSI0N"))


def test_parse_rejects_missing_dimension():
    with pytest.raises(TsplibFormatError, match="missing DIMENSION"):
        parse_tsplib(triangle_text().replace("DIMENSION: 3\n", ""))


@pytest.mark.parametrize("dimension", [-2, 2])
def test_parse_rejects_dimension_below_three(dimension):
    with pytest.raises(TsplibFormatError, match=f"DIMENSION must be at least 3, got {dimension}"):
        parse_tsplib(matrix_text("UPPER_ROW", "1 2 3", dimension=dimension))


def test_parse_rejects_short_coordinate_section():
    with pytest.raises(TsplibFormatError, match="6 tokens, expected 9"):
        parse_tsplib(triangle_text().replace("1 0.0 0.0\n", ""))


def test_parse_rejects_bad_node_index():
    with pytest.raises(TsplibFormatError, match="bad or repeated node index"):
        parse_tsplib(triangle_text().replace("2 3.0 4.0", "7 3.0 4.0"))


@pytest.mark.parametrize("index", ["inf", "nan", "1.5"])
def test_parse_rejects_non_integer_node_index(index):
    with pytest.raises(TsplibFormatError, match=f"line 6: node index '{index}' is not an integer"):
        parse_tsplib(triangle_text().replace("1 0.0 0.0", f"{index} 0.0 0.0"))


@pytest.mark.parametrize(
    "text",
    [
        matrix_text("UPPER_ROW", "inf 3 4"),
        matrix_text("FULL_MATRIX", "0 nan 2\nnan 0 3\n2 3 0"),
        triangle_text().replace("2 3.0 4.0", "2 nan 4.0"),
        triangle_text().replace("2 3.0 4.0", "2 1e308 -1e308"),
    ],
    ids=["inf-weight", "nan-weight", "nan-coordinate", "overflow"],
)
def test_parse_rejects_non_finite_costs(text):
    with pytest.raises(ValueError, match="must be finite"):
        parse_tsplib(text)


def test_parse_rejects_missing_coordinate_section():
    with pytest.raises(TsplibFormatError, match="without NODE_COORD_SECTION"):
        parse_tsplib("NAME: x\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n")


def test_parse_rejects_short_weight_section():
    with pytest.raises(TsplibFormatError, match="2 entries, expected 3"):
        parse_tsplib(matrix_text("UPPER_ROW", "2 3"))


def test_parse_counts_weights_before_sizing_the_matrix():
    # a million-city matrix would take 8 TB; the short section is rejected first
    with pytest.raises(TsplibFormatError, match="3 entries, expected 499999500000"):
        parse_tsplib(matrix_text("UPPER_ROW", "2 3 4", dimension=10**6))


def test_parse_rejects_asymmetric_full_matrix():
    with pytest.raises(TsplibFormatError, match="not symmetric"):
        parse_tsplib(matrix_text("FULL_MATRIX", "0 1 2\n9 0 3\n2 3 0"))


def test_load_tsplib_reads_file(tmp_path):
    path = tmp_path / "triangle.tsp"
    path.write_text(triangle_text())
    inst = load_tsplib(path)
    assert inst.n == 3


# ---------------------------------------------------------------------------
# Mutation operators


ARR = np.array([1, 2, 3, 4, 5, 6])


def test_permute_at_moves_selected_values():
    out = permute_at(ARR, (0, 2, 4), (1, 2, 0))
    assert out.tolist() == [3, 2, 5, 4, 1, 6]
    assert ARR.tolist() == [1, 2, 3, 4, 5, 6]  # input untouched


def test_multiple_exchange_pinned_swap():
    rng = ScriptedRng(choice=[[1, 3]], permutation=[[1, 0]])
    out = multiple_exchange_mutation(ARR, 2, rng)
    assert out.tolist() == [1, 4, 3, 2, 5, 6]
    rng.assert_exhausted()


def test_multiple_exchange_redraws_identity_order():
    rng = ScriptedRng(choice=[[1, 3]], permutation=[[0, 1], [1, 0]])
    out = multiple_exchange_mutation(ARR, 2, rng)
    assert out.tolist() == [1, 4, 3, 2, 5, 6]
    rng.assert_exhausted()


def test_multiple_exchange_rejects_breadth_out_of_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        multiple_exchange_mutation(ARR, 1, rng)
    with pytest.raises(ValueError):
        multiple_exchange_mutation(ARR, 7, rng)


def test_multiple_exchange_never_returns_input():
    rng = np.random.default_rng(11)
    for _ in range(300):
        ri = int(rng.integers(2, 7))
        out = multiple_exchange_mutation(ARR, ri, rng)
        assert sorted(out.tolist()) == [1, 2, 3, 4, 5, 6]
        assert not np.array_equal(out, ARR)


def test_inversion_reverses_closed_segment():
    assert simple_inversion_mutation(ARR, 1, 3).tolist() == [1, 4, 3, 2, 5, 6]
    assert simple_inversion_mutation(ARR, 0, 5).tolist() == [6, 5, 4, 3, 2, 1]


def test_inversion_rejects_degenerate_segment():
    with pytest.raises(ValueError):
        simple_inversion_mutation(ARR, 3, 3)
    with pytest.raises(ValueError):
        simple_inversion_mutation(ARR, 2, 6)


def test_displacement_moves_segment():
    assert displacement_mutation(ARR, 1, 2, 3).tolist() == [1, 4, 5, 2, 3, 6]


def test_displacement_at_own_position_is_identity():
    assert displacement_mutation(ARR, 1, 2, 1).tolist() == [1, 2, 3, 4, 5, 6]


def test_displacement_rejects_overrun_insertion():
    with pytest.raises(ValueError):
        displacement_mutation(ARR, 1, 2, 5)


def test_random_operators_preserve_permutation():
    rng = np.random.default_rng(23)
    for _ in range(300):
        assert sorted(random_inversion(ARR, rng).tolist()) == [1, 2, 3, 4, 5, 6]
        assert sorted(random_displacement(ARR, rng).tolist()) == [1, 2, 3, 4, 5, 6]


def test_multilevel_rejects_unknown_variant():
    with pytest.raises(ValueError, match="unknown multilevel variant"):
        multilevel_mutation(ARR, "swap+swap", np.random.default_rng(0))


def test_multilevel_composes_exchange_then_displacement():
    rng = ScriptedRng(
        choice=[[0, 1]],          # exchange positions
        permutation=[[1, 0]],     # swap them
        integers=[0, 1, 0],       # displacement i=0, j=1, p=0
    )
    out = multilevel_mutation(ARR, "exchange+displacement", rng)
    # swap(1, 2) leaves [2, 1, 3, 4, 5, 6]; moving segment [2, 1] to the
    # front is then the identity
    assert out.tolist() == [2, 1, 3, 4, 5, 6]
    rng.assert_exhausted()


def test_multilevel_variants_preserve_permutation():
    rng = np.random.default_rng(7)
    for _ in range(200):
        for variant in MULTILEVEL_VARIANTS:
            out = multilevel_mutation(ARR, variant, rng)
            assert sorted(out.tolist()) == [1, 2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# Crossover


def test_order_crossover_fills_cyclically_from_past_the_cut():
    p1 = np.arange(1, 9)
    p2 = np.array([2, 4, 6, 8, 7, 5, 3, 1])
    c1, c2 = order_crossover(p1, p2, 2, 4)
    assert c1.tolist() == [8, 7, 3, 4, 5, 1, 2, 6]
    assert c2.tolist() == [4, 5, 6, 8, 7, 1, 2, 3]


def _loop_order_crossover(p1, p2, cut1, cut2):
    """Reference OX, one city at a time."""
    n = len(p1)

    def make(keep, donor):
        child = np.empty(n, dtype=keep.dtype)
        child[cut1 : cut2 + 1] = keep[cut1 : cut2 + 1]
        kept = set(int(v) for v in keep[cut1 : cut2 + 1])
        fill = [v for k in range(n) if int(v := donor[(cut2 + 1 + k) % n]) not in kept]
        for offset, v in enumerate(fill):
            child[(cut2 + 1 + offset) % n] = v
        return child

    return make(p1, p2), make(p2, p1)


def test_order_crossover_matches_the_loop_reference():
    rng = np.random.default_rng(13)
    for _ in range(3000):
        n = int(rng.integers(3, 40))
        p1 = rng.permutation(n) + int(rng.integers(0, 3))  # labels need not start at 0
        p2 = rng.permutation(p1)
        cut1, cut2 = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        got = order_crossover(p1, p2, cut1, cut2)
        want = _loop_order_crossover(p1, p2, cut1, cut2)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tolist() == w.tolist()
    p1, p2 = np.array([0, 1, 2]), np.array([2, 0, 1])
    for cut1, cut2 in ((0, 1), (0, 2), (1, 2)):
        got = order_crossover(p1, p2, cut1, cut2)
        want = _loop_order_crossover(p1, p2, cut1, cut2)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]


def test_order_crossover_rejects_negative_labels():
    with pytest.raises(ValueError, match="non-negative"):
        order_crossover(np.array([-1, 0, 1]), np.array([1, 0, -1]), 0, 1)


def test_order_crossover_rejects_bad_cuts():
    p1 = np.arange(1, 9)
    p2 = np.arange(1, 9)[::-1].copy()
    with pytest.raises(ValueError):
        order_crossover(p1, p2, 4, 4)
    with pytest.raises(ValueError):
        order_crossover(p1, p2, 2, 8)


def test_order_crossover_rejects_unequal_parents():
    with pytest.raises(ValueError):
        order_crossover(np.arange(5), np.arange(6), 1, 2)


def test_random_order_crossover_children_are_permutations():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p1 = rng.permutation(9)
        p2 = rng.permutation(9)
        for child in random_order_crossover(p1, p2, rng):
            assert sorted(child.tolist()) == list(range(9))


# ---------------------------------------------------------------------------
# Statistics and exhaustive oracle


def test_error_percent_known_pairs():
    assert error_percent(1272, 1272) == 0.0
    assert error_percent(432, 426) == pytest.approx(1.4084507, abs=1e-6)
    assert error_percent(684, 675) == pytest.approx(1.3333333, abs=1e-6)


def test_error_percent_rejects_nonpositive_optimum():
    with pytest.raises(ValueError):
        error_percent(100, 0)


@pytest.mark.parametrize("optimum", [float("nan"), float("inf")])
def test_error_percent_rejects_non_finite_optimum(optimum):
    with pytest.raises(ValueError, match="finite and positive"):
        error_percent(100, optimum)


def test_brute_force_finds_hexagon_perimeter():
    cost, tour = brute_force_optimum(hexagon_instance())
    assert cost == 6.0
    assert sorted(tour.tolist()) == list(range(6))


def test_brute_force_square_prefers_the_boundary():
    inst = TspInstance.from_coords(
        "square", [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)]
    )
    cost, _ = brute_force_optimum(inst)
    assert cost == 40.0


def test_brute_force_refuses_large_instances():
    coords = [(float(i), float(i % 3)) for i in range(11)]
    with pytest.raises(ValueError):
        brute_force_optimum(TspInstance.from_coords("big", coords))


# ---------------------------------------------------------------------------
# Problem bundle


def test_problem_objective_matches_tour_cost(hexagon):
    problem = TspProblem(hexagon)
    rng = np.random.default_rng(1)
    for _ in range(20):
        tour = problem.random_genome(rng)
        assert problem.objective(tour) == tour_cost(tour, hexagon)


def test_problem_mutation_outputs_are_permutations(hexagon):
    problem = TspProblem(hexagon)
    schedule = MutationSchedule.for_dimension(6, 100)
    rng = np.random.default_rng(4)
    tour = problem.random_genome(rng)
    for gen in (1, 25, 50, 75, 100):
        for _ in range(100):
            tour = problem.mutate(tour, gen, schedule, rng)
            assert sorted(tour.tolist()) == list(range(6))


def test_problem_multilevel_gate_respects_start_generation(hexagon):
    problem = TspProblem(hexagon)
    always = MutationSchedule(
        hi_start=2, hi_floor=2, decay_generations=1,
        multilevel_probability=1.0, multilevel_start_generation=50,
    )
    tour = np.arange(6)
    # before the start generation the gate cannot fire even at p = 1
    out = problem.mutate(tour, 49, always, np.random.default_rng(2))
    assert sorted(out.tolist()) == list(range(6))
    out = problem.mutate(tour, 50, always, np.random.default_rng(2))
    assert sorted(out.tolist()) == list(range(6))


def test_problem_crossover_children_are_permutations(hexagon):
    problem = TspProblem(hexagon)
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = problem.random_genome(rng), problem.random_genome(rng)
        for child in problem.crossover(a, b, rng):
            assert sorted(child.tolist()) == list(range(6))


# The operator path as it stood when every call went through the checked
# public functions: string dispatch, ``np.sort`` cut pairs, the checked
# ``order_crossover`` and ``tour_cost``.  ``TspProblem`` must reproduce
# it call for call: same children, dtypes, objectives and generator state.


def _ref_exchange(arr, ri, rng):
    positions = rng.choice(len(arr), size=ri, replace=False)
    order = rng.permutation(ri)
    while (order == np.arange(ri)).all():
        order = rng.permutation(ri)
    out = np.array(arr)
    out[positions] = out[positions][order]
    return out


def _ref_inversion(arr, rng):
    i, j = np.sort(rng.choice(len(arr), size=2, replace=False))
    return simple_inversion_mutation(arr, int(i), int(j))


def _ref_displacement(arr, rng):
    n = len(arr)
    i = int(rng.integers(n))
    j = int(rng.integers(i, n))
    p = int(rng.integers(0, n - (j - i + 1) + 1))
    return displacement_mutation(arr, i, j, p)


def _ref_mutate(n, tour, gen, schedule, rng):
    if (
        gen >= schedule.multilevel_start_generation
        and rng.random() < schedule.multilevel_probability
    ):
        variant = MULTILEVEL_VARIANTS[int(rng.integers(len(MULTILEVEL_VARIANTS)))]
        if variant == "exchange+displacement":
            step = _ref_exchange(tour, 2, rng)
        else:
            step = _ref_inversion(tour, rng)
        return _ref_displacement(step, rng)
    op = ("multiple_exchange", "inversion", "displacement")[int(rng.integers(3))]
    if op == "multiple_exchange":
        ri = int(rng.integers(2, hi_at(gen, n, schedule) + 1))
        return _ref_exchange(tour, ri, rng)
    if op == "inversion":
        return _ref_inversion(tour, rng)
    return _ref_displacement(tour, rng)


def _ref_crossover(a, b, rng):
    cut1, cut2 = np.sort(rng.choice(len(a), size=2, replace=False))
    return order_crossover(a, b, int(cut1), int(cut2))


def _assert_same_tours(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9, 51])
def test_problem_operators_match_the_checked_reference(n):
    for seed in range(30):
        coords = np.random.default_rng(1000 + seed).uniform(0, 100, (n, 2))
        for rounded in (True, False):
            instance = TspInstance.from_coords(f"r{n}", coords, round_distances=rounded)
            problem = TspProblem(instance)
            for p in (0.0, 1.0):
                schedule = MutationSchedule(
                    hi_start=n, decay_generations=8, multilevel_probability=p
                )
                start = np.random.default_rng(seed + 100)
                a, b = start.permutation(n), start.permutation(n)
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for gen in range(1, 11):
                    mutant = problem.mutate(a, gen, schedule, rng)
                    _assert_same_tours([mutant], [_ref_mutate(n, a, gen, schedule, ref)])
                    assert rng.bit_generator.state == ref.bit_generator.state
                    kids = problem.crossover(mutant, b, rng)
                    _assert_same_tours(kids, _ref_crossover(mutant, b, ref))
                    assert rng.bit_generator.state == ref.bit_generator.state
                    for tour in (mutant, *kids):
                        cost = problem.objective(tour)
                        assert type(cost) is float and cost == tour_cost(tour, instance)
                    a, b = kids
