"""One cold start, as each ``nbga`` invocation pays it: import the CLI,
parse the workload's input file and build the problem bundle.

    python3 perfbench/setup_probe.py <problem> <input file>

Prints the three parts in ms as one JSON object.
"""

import sys
import time

start = time.perf_counter()
import nbga.cli  # noqa: E402
from nbga.ligand import LigandProblem, load_site  # noqa: E402
from nbga.tsp import TspProblem, load_tsplib  # noqa: E402

imported = time.perf_counter()
problem, path = sys.argv[1:3]
if problem == "tsp":
    data = load_tsplib(path)
    parsed = time.perf_counter()
    TspProblem(data)
else:
    data = load_site(path)
    parsed = time.perf_counter()
    LigandProblem(data, mode="fixed" if problem == "ligand-fixed" else "variable")
built = time.perf_counter()
print(
    '{"import_ms": %r, "parse_ms": %r, "build_ms": %r}'
    % (1e3 * (imported - start), 1e3 * (parsed - imported), 1e3 * (built - parsed))
)
