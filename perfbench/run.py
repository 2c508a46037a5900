"""Monte Carlo benchmark of sparseproc: three built-in cases at pinned reps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/sparseproc``.  Each
measurement is its own process (``worker.py``) with PYTHONPATH set to the
checkout's ``src`` and the BLAS thread pool pinned to one thread.

--trace 0 starts the worker a few times for set-up alone, then repeats the
whole Monte Carlo run (same seed) for as long as another run fits into
``--seconds``, at least once, and reports the medians of ``setup_s``,
``wall_s`` and ``peak_rss_mb``.

--trace 1 makes one untraced and one traced run of the same seed and
reports the traced run's per-layer split; the spans go to
``perfbench/out/trace-<workload>-seed<N>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Output checks that fail set ``correct`` to
false and are listed on stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2          # set-up-only processes per timed run, besides the runs' own
DEADLINE_S = 170.0        # a run must end within 180 s
LAYER_SUM_TOL = 1e-6      # layer self times must add up to the traced wall time


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Launcher:
    """Starts worker processes and stops the whole run at the deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t_start = monotonic()
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))

    def __call__(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, *extra]
        remaining = DEADLINE_S - (monotonic() - self.t_start)
        t_spawn = monotonic()
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                              timeout=max(remaining, 1.0), check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        out["setup_s"] = out["t_ready"] - t_spawn
        return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed(launch: Launcher, seconds: float) -> tuple:
    setups = [launch("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    runs = []
    t0 = monotonic()
    while not runs or monotonic() - t0 + max(r["wall_s"] + r["setup_s"] for r in runs) <= seconds:
        runs.append(launch("run"))
        setups.append(runs[-1]["setup_s"])
    problems = [p for r in runs for p in r["problems"]]
    if len({r["report"] for r in runs}) != 1:
        problems.append("runs of the same seed gave different reports")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(r["wall_s"] for r in runs), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    return runs, problems, metrics


def traced(launch: Launcher) -> tuple:
    base = launch("run")
    out = HERE / "out" / f"trace-{launch.workload}-seed{launch.seed}.json"
    tr = launch("trace", "--trace-out", str(out))
    problems = base["problems"] + tr["problems"]
    if base["report"] != tr["report"]:
        problems.append("the traced run's report differs from the untraced run's")

    split = tr["split"]
    names, layers = split["names"], split["layers"]

    def total(*span_names):
        return sum(names.get(n, {}).get("total_s", 0.0) for n in span_names)

    if abs(sum(layers.values()) - split["wall_s"]) > LAYER_SUM_TOL * split["wall_s"]:
        problems.append("layer self times do not add up to the traced wall time")
    lp_s = total("dantzig.cv_lp", "dantzig.first_lp")
    metrics = {
        "simulate.time_s": metric(layers.get("simulate", 0.0), "s"),
        "simulate.calls": metric(sum(v["calls"] for n, v in names.items()
                                     if n.startswith("simulate.")), "count"),
        "scores.lagged_design_s": metric(total("scores.lagged_design"), "s"),
        "scores.build_s": metric(total("scores.build"), "s"),
        "dantzig.lp_s": metric(lp_s, "s"),
        "dantzig.first_lp_s": metric(total("dantzig.first_lp"), "s"),
        "dantzig.other_s": metric(layers.get("dantzig", 0.0) - lp_s, "s"),
        "dantzig.lp_solves": metric(tr["lp_solves"], "count"),
        "dantzig.pivots": metric(tr["pivots"], "count"),
        "dantzig.first_lp_pivots": metric(tr["first_lp_pivots"], "count"),
        "dantzig.us_per_pivot": metric(1e6 * lp_s / max(tr["pivots"], 1), "us"),
        "dantzig.lp_uncertified": metric(tr["lp_uncertified"], "count"),
        "rest.self_s": metric(sum(layers.get(k, 0.0)
                                  for k in ("harness", "twostep", "diagnostics")), "s"),
        "trace.wall_s": metric(split["wall_s"], "s"),
        "trace.overhead_s": metric(tr["wall_s"] - base["wall_s"], "s"),
    }
    return [base, tr], problems, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "sparseproc" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'sparseproc'} is missing",
              file=sys.stderr)
        return 2

    launch = Launcher(args.workload, args.seed)
    runs, problems, metrics = traced(launch) if args.trace else timed(launch, args.seconds)
    reports = [json.loads(r["report"]) for r in runs]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["reps"] for r in reports),
        "failed": sum(r["failures"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
