"""Spans around the calls into each lpqcycles module, recorded from outside.

Tracer.install replaces public functions with timing wrappers under the
names their callers look up (lambda_numbers.validate, solver.constraint_pairs,
...), so calls between modules are seen as well as calls from the benchmark.
Each span keeps its parent, which gives self time: a span's duration minus
the time its direct children cover.  A name that no longer exists is listed
in Tracer.missing instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

# span name -> the module attributes that lead to it ("" is the package)
LAYERS: dict[str, tuple[str, ...]] = {
    "graphs.torus": (
        "graphs.torus", "lambda_numbers.torus", "cli.torus", ".torus",
        # documents rebuild their torus through product()
        "labelings.product",
    ),
    "graphs.two_step_pairs": (
        "graphs.two_step_pairs", "labelings.two_step_pairs", ".two_step_pairs",
    ),
    "labelings.constraint_pairs": (
        "labelings.constraint_pairs", "solver.constraint_pairs", ".constraint_pairs",
    ),
    "labelings.validate": (
        "labelings.validate", "lambda_numbers.validate", "cli.validate", ".validate",
    ),
    "labelings.document": (
        "labelings.labeling_document", "cli.labeling_document",
        "labelings.labeling_from_document", "labelings.read_labeling",
        "cli.read_labeling",
    ),
    "patterns.lift_diagonal": (
        "patterns.lift_diagonal", "lambda_numbers.lift_diagonal", "cli.lift_diagonal",
        ".lift_diagonal",
    ),
    "patterns.exists_cycle_pattern": (
        "patterns.exists_cycle_pattern", "lambda_numbers.exists_cycle_pattern",
        "cli.exists_cycle_pattern", ".exists_cycle_pattern",
    ),
    "solver.compile_constraints": ("solver.compile_constraints",),
    "solver.exists_labeling": (
        "solver.exists_labeling", "lambda_numbers.exists_labeling", ".exists_labeling",
    ),
    "solver.exact_lambda": (
        "solver.exact_lambda", "lambda_numbers.exact_lambda", ".exact_lambda",
    ),
    # renamed solver.parallel_count when called with workers > 1
    "solver.count_labelings": (
        "solver.count_labelings", "lambda_numbers.count_labelings", ".count_labelings",
    ),
    "lambda_numbers.dispatch": (
        "lambda_numbers.lambda_cartesian", "lambda_numbers.lambda_strong",
        "cli.lambda_cartesian", "cli.lambda_strong",
        ".lambda_cartesian", ".lambda_strong",
    ),
    "lambda_numbers.lemma": (
        "lambda_numbers.verify_lemma_cartesian_local",
        "lambda_numbers.verify_lemma_strong_local",
        "cli.verify_lemma_cartesian_local", "cli.verify_lemma_strong_local",
        ".verify_lemma_cartesian_local", ".verify_lemma_strong_local",
    ),
    "lambda_numbers.l2211": (
        "lambda_numbers.verify_l2211_periodicity", ".verify_l2211_periodicity",
    ),
    # renamed cli.<subcommand> from its argv
    "cli": ("cli.main",),
}

PACKAGE = "lpqcycles"
COUNTED = ("solver.count_labelings", "solver.parallel_count")


def _tally(name: str, result) -> int:
    """Work a span reports as a count: violations found, labelings counted."""
    if name == "labelings.validate":
        return len(result)
    if name in COUNTED:
        return int(result)
    return 0


class Tracer:
    def __init__(self) -> None:
        # [name, parent index or None, call id, start, end, tally]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _namer(self, layer: str, fn):
        if layer == "solver.count_labelings":
            sig = inspect.signature(fn)

            def name(args, kwargs):
                workers = sig.bind(*args, **kwargs).arguments.get("workers", 1)
                return "solver.parallel_count" if workers > 1 else layer

            return name
        if layer == "cli":
            def name(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                return f"cli.{argv[0]}" if argv else "cli.main"

            return name
        return lambda args, kwargs: layer

    def _wrap(self, layer: str, fn):
        namer = self._namer(layer, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs)
            rec = [name, stack[-1] if stack else None, self.call_id, perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            rec[5] = _tally(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in LAYERS; one wrapper per function object, so a
        function reached through two modules still gives one span per call."""
        wrappers: dict[int, object] = {}
        self.missing = []
        for layer, targets in LAYERS.items():
            for target in targets:
                modname, attr = target.split(".")
                full = PACKAGE + (f".{modname}" if modname else "")
                try:
                    mod = importlib.import_module(full)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(layer, fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed tallies, and
        the durations of the individual spans."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[1] is not None:
                child_time[rec[1]] += rec[4] - rec[3]
        out: dict[str, dict] = {}
        for i, (name, _parent, _call, t0, t1, tally) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "tally": 0, "durations": []})
            s["calls"] += 1
            s["total_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child_time[i]
            s["tally"] += tally
            s["durations"].append(t1 - t0)
        return out

    def lemma_hits(self) -> tuple[int, int]:
        """(cache hits, lemma calls): a lemma span that counted no labelings
        was answered from the per-process cache."""
        counted = {rec[1] for rec in self.spans if rec[0] in COUNTED}
        lemmas = [i for i, rec in enumerate(self.spans) if rec[0] == "lambda_numbers.lemma"]
        return sum(i not in counted for i in lemmas), len(lemmas)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """The per-layer figures, per traced round (set-up spans included)."""
    s = tracer.summary()

    def self_ms(name: str) -> float:
        return 1000.0 * s.get(name, {}).get("self_s", 0.0) / rounds

    def per_round(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0) / rounds

    def p50_ms(name: str) -> float:
        d = s.get(name, {}).get("durations")
        return 1000.0 * statistics.median(d) if d else 0.0

    hits, lemmas = tracer.lemma_hits()
    return {
        "graphs.torus_ms": self_ms("graphs.torus"),
        "graphs.two_step_pairs_ms": self_ms("graphs.two_step_pairs"),
        "labelings.constraint_pairs_ms": self_ms("labelings.constraint_pairs"),
        "labelings.validate_ms": self_ms("labelings.validate"),
        "labelings.violations_reported": per_round("labelings.validate", "tally"),
        "labelings.document_ms": self_ms("labelings.document"),
        "patterns.lift_diagonal_ms": self_ms("patterns.lift_diagonal"),
        "patterns.exists_cycle_pattern_ms": self_ms("patterns.exists_cycle_pattern"),
        "patterns.word_searches": per_round("patterns.exists_cycle_pattern", "calls"),
        "solver.compile_constraints_ms": self_ms("solver.compile_constraints"),
        "solver.exists_labeling_ms": self_ms("solver.exists_labeling"),
        "solver.spans_tried": per_round("solver.exists_labeling", "calls"),
        "solver.count_labelings_ms": self_ms("solver.count_labelings"),
        "solver.solutions_counted": (
            per_round("solver.count_labelings", "tally")
            + per_round("solver.parallel_count", "tally")
        ),
        "solver.parallel_count_ms": self_ms("solver.parallel_count"),
        "lambda_numbers.dispatch_self_ms": self_ms("lambda_numbers.dispatch"),
        "lambda_numbers.lemma_ms": self_ms("lambda_numbers.lemma"),
        "lambda_numbers.lemma_cache_hit_ratio": hits / lemmas if lemmas else 0.0,
        "cli.construct_p50_ms": p50_ms("cli.construct"),
        "cli.verify_p50_ms": p50_ms("cli.verify"),
        "cli.lambda_p50_ms": p50_ms("cli.lambda"),
    }
