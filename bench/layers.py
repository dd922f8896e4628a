"""Spans and counters around the public functions of each gf4msd module.

The tracer wraps functions from outside the package: it rebinds every
name under which a listed function is reachable in any loaded
``gf4msd`` module, including from-import aliases such as
``bounds.quantum_verdict``, on ``install()`` and puts the originals back
on ``uninstall()``; the workload installs it around each traced item.  Only
public names are wrapped, so a rewrite of a module's private helpers
keeps the benchmark working.  ``exact`` is left unwrapped: its functions
are too small and too hot to wrap, and their cost shows in the self time
of their callers.

Spans stay in memory as ``[name, start, end, parent, item]`` rows (times
from ``time.perf_counter``, ``parent`` an index into the same list or
-1) and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from fractions import Fraction

LAYERS = {
    "gf4": ("weight_enumerator", "rall_signs", "shorten"),
    "enumerators": ("macwilliams", "transform_xy", "signed_eval"),
    "invariants": ("expand_family", "extremal_distillation_enumerator"),
    "distill": ("build_map", "noise_exponent", "threshold", "quantum_verdict"),
    "roots": ("isolate_roots", "refine_root", "poly_nonneg_on"),
    "simplex": ("solve", "certify_optimum"),
    "bounds": (
        "lp_feasible",
        "reduce_equalities",
        "count_lattice_points",
        "max_nu_bound",
        "max_distance_bound",
        "lattice_search",
    ),
    "oracle": ("build_projector", "projection_prob"),
    "cli": ("main",),
}

FUNCTIONS = tuple("%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns)

# bisection drivers whose lp_feasible calls make up bounds.lp_feasible.per_bound
BOUND_DRIVERS = ("bounds.max_nu_bound", "bounds.max_distance_bound")

COUNTERS = {
    "gf4.codewords": "count",
    "roots.max_degree": "count",
    "roots.max_coeff_bits": "bits",
    "simplex.solve.infeasible": "count",
    "simplex.solve.max_rows": "count",
    "simplex.solve.max_cols": "count",
    "simplex.solve.max_coeff_bits": "bits",
    "bounds.lp_feasible.per_bound": "count",
    "bounds.lattice.accept_ratio": "ratio",
    "bounds.lattice.classical_count": "count",
    "bounds.lattice.quantum_count": "count",
    "oracle.build_projector.exact": "count",
    "oracle.build_projector.float": "count",
    "oracle.max_dim": "count",
}


def metric_units():
    """Unit of every per-layer metric the traced run reports, by name."""
    units = {}
    for name in FUNCTIONS:
        units[name + ".calls"] = "count"
        units[name + ".busy_s"] = "s"
        units[name + ".self_s"] = "s"
    units.update(COUNTERS)
    units["cli.main.failed"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def _max_bits(values) -> int:
    return max((_bits(v) for v in values), default=0)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._saved = []
        self.reset_counters()

    def reset_counters(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.lattice = {}  # (n, quantum) -> count

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed function under every name that reaches it."""
        for mod in LAYERS:
            importlib.import_module("gf4msd." + mod)
        modules = [m for k, m in sys.modules.items() if k == "gf4msd" or k.startswith("gf4msd.")]
        for name in FUNCTIONS:
            mod, fn = name.rsplit(".", 1)
            orig = getattr(sys.modules["gf4msd." + mod], fn)
            wrapped = self._wrap(name, orig, _OBSERVERS.get(name))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._saved.append((m, attr, orig))
                        setattr(m, attr, wrapped)

    def uninstall(self):
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved = []

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, first_span=0):
        """Per-function calls, busy and self time over spans[first_span:]."""
        spans = self.spans
        out = {}
        for name in FUNCTIONS:
            out[name + ".calls"] = 0
            out[name + ".busy_s"] = 0.0
            out[name + ".self_s"] = 0.0
        child_time = {}
        for idx in range(first_span, len(spans)):
            name, t0, t1, parent, _ = spans[idx]
            dur = t1 - t0
            out[name + ".calls"] += 1
            if parent >= first_span:
                child_time[parent] = child_time.get(parent, 0.0) + dur
        for idx in range(first_span, len(spans)):
            name, t0, t1, _, _ = spans[idx]
            dur = t1 - t0
            # recursion through a wrapped name counts once in busy time
            if not self._has_ancestor(idx, name, first_span):
                out[name + ".busy_s"] += dur
            out[name + ".self_s"] += dur - child_time.get(idx, 0.0)
        out.update(self.counter_metrics(first_span))
        return out

    def _has_ancestor(self, idx, name, first_span):
        parent = self.spans[idx][3]
        while parent >= first_span:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def counter_metrics(self, first_span=0):
        out = dict(self.counts)
        spans = self.spans
        drivers = 0
        steps = 0
        for idx in range(first_span, len(spans)):
            name = spans[idx][0]
            if name in BOUND_DRIVERS:
                drivers += 1
            elif name == "bounds.lp_feasible":
                parent = spans[idx][3]
                while parent >= first_span and spans[parent][0] not in BOUND_DRIVERS:
                    parent = spans[parent][3]
                if parent >= first_span:
                    steps += 1
        out["bounds.lp_feasible.per_bound"] = steps / drivers if drivers else 0
        both = [n for (n, q) in self.lattice if q and (n, False) in self.lattice]
        classical = sum(self.lattice[(n, False)] for n in both)
        quantum = sum(self.lattice[(n, True)] for n in both)
        out["bounds.lattice.classical_count"] = classical
        out["bounds.lattice.quantum_count"] = quantum
        out["bounds.lattice.accept_ratio"] = quantum / classical if classical else 0
        return out


def median_metrics(samples):
    """Median per key over a list of metric dicts."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- counters computed from arguments and results ----------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _obs_codewords(tr, args, kwargs, result):
    tr.counts["gf4.codewords"] += 4 ** _arg(args, kwargs, 0, "code").k


def _obs_poly(tr, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    c = tr.counts
    c["roots.max_degree"] = max(c["roots.max_degree"], len(p) - 1)
    c["roots.max_coeff_bits"] = max(c["roots.max_coeff_bits"], _max_bits(p))


def _obs_solve(tr, args, kwargs, result):
    c = tr.counts
    cost = _arg(args, kwargs, 0, "c")
    parts = [list(cost)]
    rows = 0
    for pos, key in ((1, "a_ub"), (2, "b_ub"), (3, "a_eq"), (4, "b_eq")):
        val = args[pos] if len(args) > pos else kwargs.get(key, ())
        if key.startswith("a_"):
            rows += len(val)
            for row in val:
                parts.append(row)
        else:
            parts.append(val)
    if result.status == "infeasible":
        c["simplex.solve.infeasible"] += 1
    c["simplex.solve.max_rows"] = max(c["simplex.solve.max_rows"], rows)
    c["simplex.solve.max_cols"] = max(c["simplex.solve.max_cols"], len(cost))
    bits = max(_max_bits(p) for p in parts)
    c["simplex.solve.max_coeff_bits"] = max(c["simplex.solve.max_coeff_bits"], bits)


def _obs_lattice(tr, args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    quantum = bool(args[1] if len(args) > 1 else kwargs.get("use_quantum", False))
    tr.lattice[(n, quantum)] = result[0]


def _obs_projector(tr, args, kwargs, result):
    c = tr.counts
    c["oracle.build_projector." + result.mode] += 1
    c["oracle.max_dim"] = max(c["oracle.max_dim"], 2 ** _arg(args, kwargs, 1, "n"))


_OBSERVERS = {
    "gf4.weight_enumerator": _obs_codewords,
    "gf4.rall_signs": _obs_codewords,
    "roots.isolate_roots": _obs_poly,
    "roots.refine_root": _obs_poly,
    "roots.poly_nonneg_on": _obs_poly,
    "simplex.solve": _obs_solve,
    "bounds.lattice_search": _obs_lattice,
    "oracle.build_projector": _obs_projector,
}
