"""Spans around the program's layer boundaries, recorded from outside.

The program imports names directly (``from .dantzig import solve_dantzig``),
so a function is wrapped in the namespace of the module that calls it: the
same ``solve_dantzig`` is a CV LP when ``dantzig.cross_validate_lambda``
calls it and a first-step LP when ``twostep`` or ``harness`` does.  Spans
are kept in memory; the caller writes them out once the run has ended.
"""

import time
from collections import defaultdict

# (module, attribute, span name, layer); one layer per module of the program
_WRAPS = (
    ("harness", "run_case", "harness.run", "harness"),
    ("harness", "run_hawkes_support", "harness.run", "harness"),
    ("harness", "derive_seed", "harness.derive_seed", "harness"),
    ("harness", "simulate_inar", "simulate.inar", "simulate"),
    ("harness", "simulate_minar1", "simulate.minar1", "simulate"),
    ("harness", "simulate_ou", "simulate.ou", "simulate"),
    ("harness", "simulate_hawkes", "simulate.hawkes", "simulate"),
    ("harness", "bin_counts", "simulate.bin_counts", "simulate"),
    ("harness", "lagged_design", "scores.lagged_design", "scores"),
    ("harness", "build_regression_score", "scores.build", "scores"),
    ("harness", "default_lambda_grid", "dantzig.grid", "dantzig"),
    ("harness", "cross_validate_lambda", "dantzig.cv", "dantzig"),
    ("harness", "solve_dantzig", "dantzig.first_lp", "dantzig"),
    ("harness", "threshold_support", "dantzig.threshold", "dantzig"),
    ("harness", "two_step_fit", "twostep.fit", "twostep"),
    ("harness", "estimate_diffusion_sigma2", "twostep.nuisance", "twostep"),
    ("harness", "project_statistic", "twostep.project", "twostep"),
    ("harness", "selection_and_errors", "diagnostics.errors", "diagnostics"),
    ("harness", "royston_test", "diagnostics.royston", "diagnostics"),
    ("dantzig", "solve_dantzig", "dantzig.cv_lp", "dantzig"),
    ("dantzig", "build_regression_score", "scores.build", "scores"),
    ("twostep", "solve_dantzig", "dantzig.first_lp", "dantzig"),
    ("twostep", "threshold_support", "dantzig.threshold", "dantzig"),
    ("twostep", "build_regression_score", "scores.build", "scores"),
    ("twostep", "build_weighted_system", "scores.build", "scores"),
    ("twostep", "estimate_inar_nuisance", "twostep.nuisance", "twostep"),
    ("twostep", "solve_weighted", "twostep.solve_weighted", "twostep"),
)

LP_SPANS = ("dantzig.cv_lp", "dantzig.first_lp")


class Tracer:
    """Wraps the program's layer functions and records one span per call.

    A span is ``[name, layer, parent index, start, end]``.  Every LP solve
    is also kept as ``(rep, span name, system, lambda, fit)`` and every
    two-step fit as ``(rep, fit)``, for the output checks after the run.
    """

    def __init__(self):
        self.spans = []
        self.lps = []
        self.two_step_fits = []
        self._open = []
        self._rep = 0

    def install(self, modules: dict) -> None:
        """Replace each listed function in ``modules`` (name -> module) by a wrapper."""
        for mod_name, attr, name, layer in _WRAPS:
            module = modules[mod_name]
            setattr(module, attr, self._wrap(getattr(module, attr), name, layer))

    def _wrap(self, fn, name, layer):
        def traced(*args, **kwargs):
            span = [name, layer, self._open[-1] if self._open else None,
                    time.perf_counter(), None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._open.pop()
            self._record(name, args, result)
            return result
        return traced

    def _record(self, name, args, result) -> None:
        if name == "harness.derive_seed":
            self._rep = args[1]  # derive_seed(base_seed, rep) opens each replication
        elif name in LP_SPANS:
            self.lps.append((self._rep, name, args[0], float(args[1]), result))
        elif name == "twostep.fit":
            self.two_step_fits.append((self._rep, result))

    def split(self) -> dict:
        """Per span name: calls, total and self seconds; per layer: self seconds."""
        child = [0.0] * len(self.spans)
        for name, layer, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        names = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        layers = defaultdict(float)
        for i, (name, layer, parent, t0, t1) in enumerate(self.spans):
            own = t1 - t0 - child[i]
            names[name]["calls"] += 1
            names[name]["total_s"] += t1 - t0
            names[name]["self_s"] += own
            layers[layer] += own
        root = [t1 - t0 for name, layer, parent, t0, t1 in self.spans if parent is None]
        return {"wall_s": sum(root), "names": dict(names), "layers": dict(layers)}
