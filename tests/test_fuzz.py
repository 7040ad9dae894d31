"""Fuzz the text inputs (TSPLIB files, site files and config files), the
variation operators and ``tour_cost``.

Each text input is assembled from a small token vocabulary that mixes
valid values with the ones parsers get wrong (``inf``, ``nan``, ``1.5``,
``1e308``, stray words).  A parser may accept the text or reject it
with a ``ValueError`` subclass; any other exception is a bug.  The
operators run from fuzzed generator seeds at small and odd sizes, where
cut and segment arithmetic has the least room.  ``tour_cost`` gets
permutations and near misses; it must price the first and reject the
rest with ``ValueError``.  The runs are derandomized, so every run
tries the same inputs.
"""

import importlib.resources

import numpy as np
import pytest

from nbga.cli import config_from_sources, load_config_file
from nbga.core import MutationSchedule
from nbga.ligand import LigandProblem, load_site, parse_site
from nbga.tsp import TspInstance, TspProblem, parse_tsplib, tour_cost

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NUMBERS = ["0", "1", "2", "3", "4", "-1", "1.5", "inf", "-inf", "nan", "1e308", "-1e308"]
TOKENS = st.sampled_from(NUMBERS + ["x", "P", "H", "#"])
FUZZ = settings(derandomize=True, database=None, max_examples=400, deadline=None)


def _lines(width: int, count: int):
    """``count`` lines of ``width`` tokens, some a token short or long."""
    exact = st.lists(TOKENS, min_size=width, max_size=width)
    ragged = st.lists(TOKENS, min_size=width - 1, max_size=width + 1)
    return st.lists(st.one_of(exact, ragged).map(" ".join), min_size=count, max_size=count)


@st.composite
def tsplib_texts(draw):
    n = draw(st.integers(3, 4))
    kind = draw(st.sampled_from(["EUC_2D", "FULL_MATRIX", "UPPER_ROW", "LOWER_DIAG_ROW"]))
    header = [f"NAME: fuzz{n}", "TYPE: TSP", f"DIMENSION: {n}"]
    if kind == "EUC_2D":
        header += ["EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
        body = draw(_lines(3, n))
    else:
        header += ["EDGE_WEIGHT_TYPE: EXPLICIT", f"EDGE_WEIGHT_FORMAT: {kind}",
                   "EDGE_WEIGHT_SECTION"]
        width = {"FULL_MATRIX": n * n, "UPPER_ROW": n * (n - 1) // 2,
                 "LOWER_DIAG_ROW": n * (n + 1) // 2}[kind]
        body = draw(_lines(width, 1))
    return "\n".join(header + body + ["EOF"]) + "\n"


@FUZZ
@given(tsplib_texts())
def test_fuzz_parse_tsplib(text):
    try:
        instance = parse_tsplib(text)
    except ValueError:
        return
    assert np.isfinite(instance.cost).all()


SITE_LINES = st.one_of(
    st.tuples(st.sampled_from(["right_anchor", "left_anchor"]), TOKENS, TOKENS),
    st.tuples(st.sampled_from(["right_axis", "left_axis"]), TOKENS),
    st.tuples(st.sampled_from(["SER1", "LEU2"]), TOKENS, TOKENS, st.sampled_from(["P", "H", "x"])),
    st.lists(TOKENS, max_size=4),
).map(" ".join)


@FUZZ
@given(st.lists(SITE_LINES, max_size=8))
def test_fuzz_parse_site(lines):
    # start from a valid site, so the fuzzed lines override or extend it
    valid = ["right_anchor 0 0", "left_anchor -1 0", "right_axis 18.9", "left_axis 5.4",
             "SER1 2.0 3.0 P"]
    try:
        LigandProblem(parse_site("\n".join(valid + lines)))
    except ValueError:
        pass


CONFIG_KEYS = ["runs", "pop", "generations", "seed", "jobs", "optimum", "problem",
               "algorithm", "instance", "site", "trace", "out", "bogus"]
CONFIG_VALUES = st.one_of(TOKENS, st.sampled_from(["tsp", "ligand-fixed", "nbga", "classic-ga",
                                                    "a.tsp", ""]))
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES).map(" = ".join),
    TOKENS,
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.cfg"


@FUZZ
@given(lines=st.lists(CONFIG_LINES, max_size=6))
def test_fuzz_config_file(config_path, lines):
    config_path.write_text("\n".join(lines) + "\n")
    try:
        config_from_sources(load_config_file(config_path), {})
    except ValueError:
        pass


TSP_PROBLEMS = [
    TspProblem(TspInstance.from_coords(f"ring{n}", 10 * np.c_[np.cos(range(n)), np.sin(range(n))]))
    for n in (3, 4, 5, 7, 9)
]
SEEDS = st.integers(0, 2**32 - 1)
GATE = st.sampled_from([0.0, 1.0]).map(lambda p: MutationSchedule(multilevel_probability=p))


@FUZZ
@given(seed=SEEDS, schedule=GATE)
def test_fuzz_tsp_operators_at_small_sizes(seed, schedule):
    rng = np.random.default_rng(seed)
    for problem in TSP_PROBLEMS:
        n = problem.n
        a, b = rng.permutation(n), rng.permutation(n)
        a0, b0 = a.copy(), b.copy()
        for tour in (problem.mutate(a, 1, schedule, rng), *problem.crossover(a, b, rng)):
            assert sorted(tour.tolist()) == list(range(n))
        assert np.array_equal(a, a0) and np.array_equal(b, b0)


@FUZZ
@given(data=st.data())
def test_fuzz_tour_cost_accepts_only_permutations(data):
    problem = data.draw(st.sampled_from(TSP_PROBLEMS))
    n = problem.n
    tour = data.draw(st.one_of(
        st.permutations(range(n)),
        st.lists(st.integers(-2, n + 1), min_size=n - 1, max_size=n + 1),
    ))
    is_permutation = sorted(tour) == list(range(n))
    try:
        cost = tour_cost(np.array(tour), problem.instance)
    except ValueError:
        assert not is_permutation
        return
    assert is_permutation and cost == problem.objective(np.array(tour))


SITE = load_site(importlib.resources.files("nbga") / "data" / "sample_site.txt")
LIGAND_PROBLEMS = {mode: LigandProblem(SITE, mode) for mode in ("variable", "fixed")}


@FUZZ
@given(mode=st.sampled_from(sorted(LIGAND_PROBLEMS)), seed=SEEDS, schedule=GATE)
def test_fuzz_ligand_operators_leave_inputs_unmodified(mode, seed, schedule):
    problem, rng = LIGAND_PROBLEMS[mode], np.random.default_rng(seed)
    a, b = problem.random_genome(rng), problem.random_genome(rng)
    before = (a.right, a.left, b.right, b.left)
    problem.mutate(a, 1, schedule, rng)
    problem.crossover(a, b, rng)
    assert (a.right, a.left, b.right, b.left) == before
