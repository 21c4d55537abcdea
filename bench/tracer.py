"""Layer tracing from outside the program.

Each public function of a ``detpower`` module is wrapped so that a call
records a span (name, start, end, parent).  The wrapper replaces the function
in every ``detpower`` namespace that bound it by name (``detpower.cli``
imports ``eig_hermitian``, ``detpower.optimize`` imports
``chernoff_exponent`` and so on), not only in the module that defines it.
Spans stay in memory until the run ends; ``Tracer.uninstall`` puts the
original functions back.

The optimizer's phases are stamped from outside as well: a span of
``optimize_state_pair`` starts in the basis scan, and the scan ends when the
``_candidate_bases`` generator is exhausted.  Objective calls are the calls
of the channel functions through the names ``detpower.optimize`` imported.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (defining module, attribute) -> span name; the layer is the part before the dot
SPANNED = [
    ("core", "eig_hermitian", "core.eig_hermitian"),
    ("core", "validate_povm", "core.validate_povm"),
    ("channel", "induced_probs", "channel.induced_probs"),
    ("channel", "chernoff_exponent", "channel.chernoff_exponent"),
    ("channel", "hoeffding_exponent", "channel.hoeffding_exponent"),
    ("channel", "relative_entropy", "channel.relative_entropy"),
    ("optimize", "single_shot_power", "optimize.single_shot_power"),
    ("finite", "sequence_distribution", "finite.sequence_distribution"),
    ("finite", "ml_error_probability", "finite.ml_error_probability"),
    ("finite", "brute_force_grouping", "finite.brute_force_grouping"),
    ("finite", "best_product_pair", "finite.best_product_pair"),
    ("finite", "sweep_x", "finite.sweep_x"),
    ("finite", "_block_log_err", "finite.block_log_err"),
    ("finite", "empirical_rate", "finite.empirical_rate"),
    ("adaptive", "optimal_adaptive", "adaptive.optimal_adaptive"),
    ("adaptive", "evaluate_strategy", "adaptive.evaluate_strategy"),
    ("io", "load_json_file", "io.load_json_file"),
    ("io", "povm_from_json", "io.povm_from_json"),
    ("io", "candidates_from_json", "io.candidates_from_json"),
    ("io", "strategy_from_json", "io.strategy_from_json"),
    ("cli", "main", "cli.main"),
]
OBJECTIVES = ("chernoff_exponent", "hoeffding_exponent", "relative_entropy")
LAYERS = ("core", "channel", "optimize", "finite", "adaptive", "io", "cli")

_clock = time.perf_counter


class _OptimizeCall:
    """Phase bookkeeping of one optimize_state_pair call."""

    __slots__ = ("start", "scan_end", "best", "scan_best")

    def __init__(self, start):
        self.start = start
        self.scan_end = None
        self.best = -math.inf
        self.scan_best = -math.inf


def _computed_counts(counts):
    """Sizes computed from each call's arguments, not measured: bytes of the
    float64 arrays a call builds, leaves of the full adaptive tree, groupings
    of the single-shot scan."""

    def sequence_distribution(p, inp, *args, **kwargs):
        # one kron product per slot: m, m^2, ..., m^n entries
        counts["finite.sequence_distribution.bytes_computed"] += 8 * sum(
            p.n_outcomes**k for k in range(1, inp.n + 1)
        )

    def block_log_err(pp, qq, n, m):
        # lw, l0, l1, min(l0, l1) and terms: five (m+1) x (n-m+1) arrays
        counts["finite.block_log_err.bytes_computed"] += 5 * 8 * (m + 1) * (n - m + 1)

    def optimal_adaptive(p, candidates, n):
        # every node tries |C|^2 candidate pairs and branches on m outcomes
        counts["adaptive.optimal_adaptive.leaves_computed"] += (len(candidates) ** 2 * p.n_outcomes) ** n

    def single_shot_power(p):
        counts["optimize.single_shot_power.groupings"] += 2 ** (p.n_outcomes - 1) - 1

    return {
        "sequence_distribution": sequence_distribution,
        "_block_log_err": block_log_err,
        "optimal_adaptive": optimal_adaptive,
        "single_shot_power": single_shot_power,
    }


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._opt_stack = []
        self._patches = []
        self.counts = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, on_result=None, on_call=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def begin_batch(self):
        idx = len(self.spans)
        self.spans.append(["driver.batch", _clock(), 0.0, -1])
        self._stack.append(idx)
        return idx

    def end_batch(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def _objective_result(self, result):
        if not self._opt_stack:
            return
        call = self._opt_stack[-1]
        value = float(getattr(result, "value", result))
        phase = "basis_scan" if call.scan_end is None else "restarts"
        self.counts[f"optimize.{phase}.objective_calls"] += 1
        if value > call.best:
            call.best = value
            self.counts["optimize.improving_evals"] += 1
        if call.scan_end is None and value > call.scan_best:
            call.scan_best = value

    def _wrap_optimize_state_pair(self, fn):
        inner = self.span("optimize.optimize_state_pair", fn)

        def wrapper(objective, p, opts=None):
            call = _OptimizeCall(_clock())
            self._opt_stack.append(call)
            try:
                report = inner(objective, p, opts)
            finally:
                self._opt_stack.pop()
            end = _clock()
            scan_end = call.scan_end if call.scan_end is not None else end
            self.counts["optimize.basis_scan.s"] += scan_end - call.start
            self.counts["optimize.restarts.s"] += end - scan_end
            if math.isfinite(report.value) and math.isfinite(call.scan_best):
                self.counts["optimize.restart_gain"] += report.value - max(call.scan_best, 0.0)
            return report

        return wrapper

    def _wrap_candidate_bases(self, fn):
        def wrapper(p):
            yield from fn(p)
            # reached only when the scan ran to the end
            if self._opt_stack:
                self._opt_stack[-1].scan_end = _clock()

        return wrapper

    def _wrap_phi_evaluator(self, fn):
        counts = self.counts

        def wrapper(p, q):
            f = fn(p, q)
            counts["channel.phi_solves"] += 1

            def counted(s):
                counts["channel.phi_evals"] += 1
                return f(s)

            return counted

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper, only=None):
        """Rebind `original` to `wrapper` in every detpower namespace holding it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "detpower" or mod_name.startswith("detpower.")):
                continue
            if only is not None and mod_name != only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def install(self):
        from detpower import channel, cli, core, optimize  # noqa: F401  (cli loads io)

        mods = {name: sys.modules[f"detpower.{name}"] for name, _, _ in SPANNED}
        originals = {attr: getattr(mods[mod], attr) for mod, attr, _ in SPANNED}
        # optimize's own bindings of the objective functions also count objective calls
        for attr in OBJECTIVES:
            fn = originals[attr]
            wrapper = self.span(f"channel.{attr}", fn, on_result=self._objective_result)
            self._replace(fn, wrapper, only="detpower.optimize")
        hooks = _computed_counts(self.counts)
        for mod, attr, name in SPANNED:
            fn = originals[attr]
            self._replace(fn, self.span(name, fn, on_call=hooks.get(attr)))
        self._replace(
            optimize.golden_section_min,
            self.span("optimize.golden_section_min", optimize.golden_section_min),
            only="detpower.optimize",
        )
        self._replace(optimize.optimize_state_pair, self._wrap_optimize_state_pair(optimize.optimize_state_pair))
        self._replace(optimize._candidate_bases, self._wrap_candidate_bases(optimize._candidate_bases))
        self._replace(channel._phi_evaluator, self._wrap_phi_evaluator(channel._phi_evaluator))
        self._patch_method(
            core.DensityMatrix,
            "__post_init__",
            self.span("core.DensityMatrix", core.DensityMatrix.__post_init__),
        )
        self._patch_method(
            channel.ClassicalDistribution,
            "__post_init__",
            self._counted("channel.ClassicalDistribution.calls", channel.ClassicalDistribution.__post_init__),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-name call counts, inclusive and self times over all batches."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_t = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_t[name] += end - start - child[i]
        return calls, incl, self_t
