"""One benchmark process: set up a workload, then (optionally) run it once.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace

``run.py`` starts this script with PYTHONPATH pointing at the checkout's
``src`` and the BLAS thread pool pinned to one thread.  It prints one JSON
object on stdout.  ``t_ready`` is read on the system-wide monotonic clock
after ``import sparseproc`` and the CaseConfig, just before the first
replication; the launcher subtracts its own clock reading taken before the
process was started.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def traced_run(workload, config, seed: int, trace_path: Path) -> dict:
    from sparseproc import dantzig, harness, twostep
    from tracing import Tracer

    tracer = Tracer()
    tracer.install({"harness": harness, "dantzig": dantzig, "twostep": twostep})
    t0 = time.perf_counter()
    report = workload.run(harness, config)
    wall = time.perf_counter() - t0
    text = harness.report_to_json(report)
    split = tracer.split()

    import oracle
    problems = oracle.check_report(json.loads(text), config, workload.hawkes)
    lp_problems, uncertified, worst_gap = oracle.check_lps(tracer.lps, oracle_reps={1})
    problems += lp_problems
    if not workload.hawkes:
        problems += oracle.check_two_step_fits(tracer.two_step_fits, config)
    if not tracer.lps:
        problems.append("no LP solve was traced")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "split": split,
        "spans": tracer.spans, "lp_worst_relative_gap_to_highs": worst_gap,
    }) + "\n")
    return {"wall_s": wall, "report": text, "split": split,
            "lp_solves": len(tracer.lps),
            "first_lp_pivots": sum(fit.iterations for _, name, _, _, fit in tracer.lps
                                   if name == "dantzig.first_lp"),
            "pivots": sum(fit.iterations for *_, fit in tracer.lps),
            "lp_uncertified": uncertified, "problems": problems}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    from sparseproc import harness
    config = workload.config(harness, args.seed)
    out = {"t_ready": monotonic()}
    if args.mode == "run":
        t0 = time.perf_counter()
        report = workload.run(harness, config)
        out["wall_s"] = time.perf_counter() - t0
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["report"] = harness.report_to_json(report)
        import oracle
        out["problems"] = oracle.check_report(json.loads(out["report"]), config,
                                              workload.hawkes)
    elif args.mode == "trace":
        out.update(traced_run(workload, config, args.seed, args.trace_out))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
