"""Per-layer spans and counters, recorded from outside modiag.

``Tracer.install`` replaces every public function of the layer modules
(``modiag.exact``, ``diagonals``, ``grading``, ``cohomology`` and ``cli``)
with a wrapper, in every modiag namespace that holds it.  That matters
because ``grading`` and ``cli`` import names directly and
``grading._cohomology_step`` imports ``class_of_cycle`` at call time, which
reads the patched module attribute.  ``Tracer.restore`` puts every original
back.  Spans stay in memory as ``[name, start, end, parent, cert]`` lists
and are reduced to per-layer metrics when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import Counter
from contextlib import contextmanager
from math import comb

LAYERS = ("exact", "diagonals", "grading", "cohomology", "cli")
NAMESPACES = ("modiag",) + tuple(f"modiag.{layer}" for layer in LAYERS)

# normalize_twist runs once per twist, inside the diagonals layer; a span
# per call would cost more than the work it times, so it is only counted.
COUNT_ONLY = {"diagonals.normalize_twist": "diagonals.twists_normalized"}
# Private, but the command line calls it itself when it builds survey rows.
PRIVATE = {"grading._count_bounded"}
RENDER = ("grading.certificate_to_json", "grading.certificate_to_text")
# Calls from cli that produce or render a certificate; any other layer
# call made by cli itself is recomputation.
CLI_VIEW = frozenset(RENDER + ("grading.replay_proof",))

# Per-layer metrics in the order they are reported.  run.py adds
# cli.startup_s and trace.overhead_s, which need the wall clock outside
# the traced process.
METRICS = (
    "diagonals.self_s",
    "diagonals.calls",
    "diagonals.twists_normalized",
    "diagonals.terms_out",
    "diagonals.mult_pushforward_all.s",
    "diagonals.proj_pushforward.s",
    "grading.self_s",
    "grading.admissible_degrees.s",
    "grading.multidegrees_enumerated",
    "grading.survivors",
    "grading.render.s",
    "cohomology.self_s",
    "cohomology.pushforward.s",
    "cohomology.twists_realized",
    "cohomology.terms_built",
    "cohomology.useful_ratio",
    "cohomology.monomials_walked",
    "cli.self_s",
    "cli.recompute_s",
    "exact.self_s",
    "exact.calls",
)


def _monomials_walked(counters, args, result):
    # Computed, not measured: pushforward(f, c) walks C(n_out, comp_deg)
    # target monomials for each degree present in c.
    f, c = args[0], args[1]
    two_g = 2 * c.ambient.g
    n_in, n_out = two_g * f.source_blocks, two_g * f.target_blocks
    degrees = {mask.bit_count() for mask in c.terms}
    counters["cohomology.monomials_walked"] += sum(
        comb(n_out, n_in - d) for d in degrees if 0 <= n_in - d <= n_out
    )


def _twist_realized(counters, args, result):
    counters["cohomology.twists_realized"] += 1
    counters["cohomology.terms_built"] += len(result.terms)


def _class_terms(counters, args, result):
    counters["cohomology.class_terms"] += len(result.terms)


def _multidegrees(counters, args, result):
    counters["grading.multidegrees_enumerated"] += len(result)


def _survivors(counters, args, result):
    counters["grading.survivors"] += len(result)


def _terms_out(counters, args, result):
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        counters["diagonals.terms_out"] += len(terms)


OBSERVERS = {
    "cohomology.pushforward": _monomials_walked,
    "cohomology.class_of_twist": _twist_realized,
    "cohomology.class_of_cycle": _class_terms,
    "grading.admissible_degrees": _multidegrees,
    "grading.filter_top": _survivors,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.cert = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.cert]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, cert=None):
        """A span opened by the benchmark itself, such as one certificate."""
        self.cert = cert
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        counters = self.counters
        if name in COUNT_ONLY:
            key = COUNT_ONLY[name]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return counted

        observe = OBSERVERS.get(name)
        if observe is None and layer_of(name) == "diagonals":
            observe = _terms_out
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span)
            if observe is not None:
                observe(counters, args, result)
            return result

        return spanned

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"modiag.{layer}")
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                    or (attr.startswith("_") and name not in PRIVATE)
                ):
                    continue
                wrappers[fn] = self._wrap(name, fn)
        for namespace in NAMESPACES:
            module = importlib.import_module(namespace)
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def layer_metrics(spans: list, counters) -> dict:
    """Reduce one pass's spans and counters to the per-layer metrics.

    A layer's self time is the time of its spans minus the time of their
    child spans.  ``calls`` counts entries into a layer from outside it.
    ``cli.recompute_s`` is the time of layer calls that cli makes itself
    rather than through replay_proof.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    inclusive: Counter = Counter()
    entries: Counter = Counter()
    recompute = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = layer_of(name)
        duration = end - start
        self_s[layer] += duration - child[i]
        inclusive[name] += duration
        parent_layer = layer_of(spans[parent][0]) if parent >= 0 else None
        if parent_layer != layer:
            entries[layer] += 1
        if parent_layer == "cli" and layer not in ("cli", "bench") and name not in CLI_VIEW:
            recompute += duration
    built = counters["cohomology.terms_built"]
    out = {
        "diagonals.self_s": self_s["diagonals"],
        "diagonals.calls": entries["diagonals"],
        "diagonals.twists_normalized": counters["diagonals.twists_normalized"],
        "diagonals.terms_out": counters["diagonals.terms_out"],
        "diagonals.mult_pushforward_all.s": inclusive["diagonals.mult_pushforward_all"],
        "diagonals.proj_pushforward.s": inclusive["diagonals.proj_pushforward"],
        "grading.self_s": self_s["grading"],
        "grading.admissible_degrees.s": inclusive["grading.admissible_degrees"],
        "grading.multidegrees_enumerated": counters["grading.multidegrees_enumerated"],
        "grading.survivors": counters["grading.survivors"],
        "grading.render.s": sum(inclusive[name] for name in RENDER),
        "cohomology.self_s": self_s["cohomology"],
        "cohomology.pushforward.s": inclusive["cohomology.pushforward"],
        "cohomology.twists_realized": counters["cohomology.twists_realized"],
        "cohomology.terms_built": built,
        "cohomology.useful_ratio": counters["cohomology.class_terms"] / built if built else 0.0,
        "cohomology.monomials_walked": counters["cohomology.monomials_walked"],
        "cli.self_s": self_s["cli"],
        "cli.recompute_s": recompute,
        "exact.self_s": self_s["exact"],
        "exact.calls": entries["exact"],
    }
    return out
