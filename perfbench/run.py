#!/usr/bin/env python3
"""nbga benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload tsp-syn51 --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; nbga is imported from ``src/`` there,
not installed.  The workloads are listed in ``workloads.py`` and
``BENCHMARK.json``.  An invocation

1. times repeated cold starts of a fresh interpreter that imports
   nbga, parses the workload's input file and builds the problem bundle;
2. starts one workload process (``worker.py``) that makes runs through
   ``nbga.cli.run_experiment`` for ``--seconds`` and checks and hashes
   every result.  TSP runs each get their own instance, a TSPLIB file
   drawn from the run seed under ``.perfbench/``; ligand runs use the
   bundled active site.

Every workload process runs alone, with one thread per numeric library.
The benchmark prints one line per run with its determinism digest, a
table of every metric with its unit, then, as the last line, one JSON
object: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics, from a traced run, with ``--trace 1``.  The
table also gives ``fail_rate``; the JSON carries it as ``pass_rate``
(``1 - fail_rate``), a metric that is never 0.  A result file with the
runs, their digests and an environment stamp goes to ``.perfbench/``.
``--tiny`` shrinks every budget for a smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 21  # timed cold starts per invocation, after one untimed one
DEADLINE_S = 170  # every invocation ends within this, whatever --seconds is

sys.path.insert(0, str(HERE))
from workloads import ROOT, WORKDIR, WORKLOADS, run_seed, tiny, write_input  # noqa: E402


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    path = str(ROOT / "src")
    env["PYTHONPATH"] = path + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else path
    return env


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(cmd: list[str], timeout: float) -> str:
    """Stdout of a child that must exit 0 before ``timeout``."""
    done = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise RuntimeError(f"{Path(cmd[1]).name} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def measure_setup(w, input_path: Path, deadline: float) -> tuple[float, dict[str, float]]:
    """Median wall seconds of a cold start, and its median parts in ms."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), w.problem, str(input_path)]
    walls, parts = [], []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        out = run_child(cmd, deadline - time.monotonic())
        wall = time.perf_counter() - start
        if i:  # the first start also compiles bytecode
            walls.append(wall)
            parts.append(json.loads(out.splitlines()[-1]))
    return statistics.median(walls), {
        f"setup.{k}": statistics.median(p[k] for p in parts) for k in parts[0]
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test budgets")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nbga" / "__init__.py").is_file():
        print(f"error: no nbga sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    WORKDIR.mkdir(exist_ok=True)
    input_path = write_input(w, run_seed(args.seed, 0))  # the cold starts parse run 0's input

    try:
        setup_s, setup_parts = measure_setup(w, input_path, deadline)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", w.name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        worker = json.loads(run_child(cmd, deadline - time.monotonic()).splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if Path(worker["nbga"]) != ROOT / "src" / "nbga":
        print(f"error: imported nbga from {worker['nbga']}, not this checkout", file=sys.stderr)
        return 1

    runs = worker["runs"]
    failed = sum(1 for r in runs if r["errors"])
    timed = [r for r in runs if "gen_ms" in r]  # completed, whether or not its checks passed
    if not timed:
        print(f"error: no run completed: {runs[0]['errors']}", file=sys.stderr)
        return 1
    env = {
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        **{var: "1" for var in THREAD_VARS},
    }
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {w.name} seed {args.seed} trace {args.trace} generations {w.generations} pop {w.pop}")
    for r in runs:
        status = "ok" if not r["errors"] else "FAILED " + "; ".join(r["errors"])
        print(
            f"run seed={r['seed']} traced={int(r['traced'])} gen_ms={r.get('gen_ms', float('nan')):.4f}"
            f" best={r.get('best', float('nan'))!r} digest={r.get('digest', '-')} {status}"
        )

    if args.trace:
        metrics = {**worker["layers"], **setup_parts}
    else:
        scored = [r["best"] for r in runs[: w.min_runs] if "best" in r] or [r["best"] for r in timed]
        metrics = {
            "gen_ms": statistics.median(r["gen_ms"] for r in timed),
            "best_objective": statistics.fmean(scored),
            "setup_s": setup_s,
            "peak_rss_mb": worker["peak_rss_mb"],
            "pass_rate": (len(runs) - failed) / len(runs),
        }
        print(f"metric fail_rate {failed / len(runs)!r} ratio ({failed} of {len(runs)} runs)")
        print(f"note gen_ms is the median of {len(timed)} runs; best_objective the mean of {len(scored)}")
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "env": env, "runs": runs, **result}
    (WORKDIR / f"result-{w.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
