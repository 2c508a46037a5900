"""Print the sha256 of the pinned reports and CLI outputs of the report-byte policy.

Run from the root of a checkout, once per tree to compare:

    python tools/report_digests.py             # the compiled loops of _countsim
    python tools/report_digests.py --fallback  # the numpy reference loops of the tests

``--fallback`` patches ``_countsim.load`` to return the ``ReferenceKernel`` of
``tests/reference_loops.py``, the numpy loops the compiled ones are checked
against, so the two runs print the same lines.  The package itself has no
other path than the compiled loops.

Each line is ``<sha256>  <name>``.  The six reports are ``report_to_json`` of
the built-in cases at their default seed with ``jobs=2``: ``case1`` (20 reps),
``case2`` (10), ``case3`` (3), ``case4`` with the rate lambda (7), ``ou`` (10)
and ``hawkes`` (10).  The six CLI outputs fit series simulated by the CLI
(the ``case1`` spec with ``--n 2000 --seed 1``, the ``ou`` spec with
``--seed 2``).  BLAS is pinned to one thread, as the policy's digests were
taken; the CLI files go to a temporary directory that is removed afterwards.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparseproc import _countsim, cli  # noqa: E402
from sparseproc.harness import (builtin_case, report_to_json, run_case,  # noqa: E402
                                run_hawkes_support)
from sparseproc.simulate import spec_to_dict  # noqa: E402

# (name, case, reps, builtin_case overrides)
REPORTS = (
    ("case1", "case1", 20, {}),
    ("case2", "case2", 10, {}),
    ("case3", "case3", 3, {}),
    ("case4-rate", "case4", 7, {"lambda_mode": "rate"}),
    ("ou", "ou", 10, {}),
    ("hawkes", "hawkes", 10, {}),
)

# (name, CLI arguments after the series); "counts.csv" and "ou.csv" are simulated first
CLI_RUNS = (
    ("fit-lambda-0.12", ["fit", "--series", "counts.csv", "--lambda", "0.12"]),
    ("cv", ["cv", "--series", "counts.csv"]),
    ("cv-grid-folds-4", ["cv", "--series", "counts.csv", "--grid", "0.001,0.5,15",
                         "--folds", "4"]),
    ("hawkes-support", ["hawkes-support", "--reps", "3", "--n", "200"]),
    ("diffusion-lambda-0.05", ["fit", "--series", "ou.csv", "--model", "diffusion",
                               "--delta", "0.05", "--lambda", "0.05"]),
    ("diffusion-lambda-1000", ["fit", "--series", "ou.csv", "--model", "diffusion",
                               "--delta", "0.05", "--lambda", "1000"]),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests():
    for name, case_id, reps, overrides in REPORTS:
        config = builtin_case(case_id, reps=reps, **overrides)
        run = run_hawkes_support if case_id == "hawkes" else run_case
        yield name, sha256(report_to_json(run(config, jobs=2)).encode())


def cli_digests(workdir: Path):
    def run(args):
        code = cli.main(args)
        if code != 0:
            raise SystemExit(f"sparseproc {' '.join(args)} exited {code}")

    for spec_name, case_id, extra in (("counts", "case1", ["--n", "2000", "--seed", "1"]),
                                      ("ou", "ou", ["--seed", "2"])):
        spec = workdir / f"{spec_name}.json"
        spec.write_text(json.dumps(spec_to_dict(builtin_case(case_id).model)))
        run(["simulate", "--config", str(spec), *extra, "--out",
             str(workdir / f"{spec_name}.csv")])
    for name, args in CLI_RUNS:
        out = workdir / f"{name}.out"
        args = [str(workdir / a) if a.endswith(".csv") else a for a in args]
        run([*args, "--out", str(out)])
        yield f"cli {name}", sha256(out.read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fallback", action="store_true",
                        help="run the numpy reference loops of tests/reference_loops.py: "
                             "patch _countsim.load to return a ReferenceKernel")
    args = parser.parse_args(argv)
    if args.fallback:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
        from reference_loops import ReferenceKernel

        _countsim.load = ReferenceKernel
    for name, digest in report_digests():
        print(f"{digest}  {name}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in cli_digests(Path(tmp)):
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
