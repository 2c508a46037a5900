"""The benchmark's workloads: one built-in Monte Carlo case each, at pinned reps.

This module imports nothing from the program, so the launcher can list the
workloads without paying for numpy and scipy.
"""

from dataclasses import dataclass
from typing import Optional

# `--seed n` runs the case at base seed BASE_SEED + n; seed 0 is the
# package's own default base seed.
BASE_SEED = 20240801


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    reps: int
    lambda_mode: Optional[str]  # None keeps the case's default (cv)

    @property
    def hawkes(self) -> bool:
        return self.case == "hawkes"

    def config(self, harness, seed: int):
        """The case's CaseConfig at this workload's reps, seeded from ``seed``."""
        return harness.builtin_case(self.case, reps=self.reps, base_seed=BASE_SEED + seed,
                                    lambda_mode=self.lambda_mode)

    def run(self, harness, config):
        """One Monte Carlo run in this process (jobs=1)."""
        if self.hawkes:
            return harness.run_hawkes_support(config, jobs=1)
        return harness.run_case(config, jobs=1)


# Why each workload was chosen is in BENCHMARK.json and README.md.  reps are
# sized so that one Monte Carlo run takes 6-36 s on one core and averages
# out enough of the rep-to-rep spread in LP pivots (about 3% per rep for
# case3, 10% for case4) that runs with different seeds agree on wall_s.
WORKLOADS = {w.name: w for w in (
    Workload("case3_cv", "case3", reps=1, lambda_mode=None),
    Workload("case4_rate", "case4", reps=7, lambda_mode="rate"),
    Workload("hawkes_cv", "hawkes", reps=10, lambda_mode=None),
)}
