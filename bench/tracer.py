"""Per-layer spans for the benchmark's traced run.

The tracer wraps the public functions and methods of each negbeta layer
module.  A call opens a span only when it crosses a layer boundary: when
the caller is the benchmark itself or code of another layer.  Calls inside
one layer pass straight through, so ``<layer>.calls`` counts boundary
crossings and ``<layer>.self_s`` is the time spent in the layer's spans
minus the time covered by the spans they caused.

Spans are aggregated per function in memory (some layers are entered
millions of times per pass) and written out once, when the run ends.
Layer-specific work counters are derived from the values the wrapped
functions return, so the program itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("order", "numeric", "language", "graph", "decomposition",
          "measures", "factors", "cli")

# Layer-specific counters and their units.
COUNTERS = {
    "numeric.digits_certified": "count",
    "numeric.precision_exhausted": "count",
    "language.words_out": "count",
    "language.block_checks": "count",
    "graph.vertices_built": "count",
    "graph.edges_built": "count",
    "graph.truncation_refusals": "count",
    "measures.blocks_weighted": "count",
    "factors.claims_checked": "count",
    "factors.claims_not_passed": "count",
    "cli.bytes_written": "B",
}
RATIOS = {
    # name: (numerator counter, denominator counter)
    "language.block_ok_ratio": ("language.block_ok", "language.block_checks"),
    "decomposition.glue_search_ratio": ("decomposition.glue_search",
                                        "decomposition.glue_results"),
}


class Tracer:
    """Installs span wrappers on the layer modules of one negbeta import."""

    def __init__(self, package):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.enabled = False
        self.stack: list[list] = []     # [layer, start_ns, child_ns]
        self.calls: Counter = Counter()     # (layer, function) -> spans
        self.self_ns: Counter = Counter()   # (layer, function) -> ns
        self.raised: Counter = Counter()    # (layer, function) -> spans
        self.counts: Counter = Counter()    # counter name -> value
        self._undo: list = []
        self._refusal_types = (package.errors.TruncationInsufficient,
                               package.errors.PrefixTooShort)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        # Functions are also bound by name in the modules that import them.
        namespaces = [self.package, *self.modules.values()]
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(layer, name, obj)
                    for ns in namespaces:
                        for alias, value in list(vars(ns).items()):
                            if value is obj:
                                self._set(ns, alias, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            qual = f"{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                new = staticmethod(self._wrap(layer, qual, attr.__func__))
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(layer, qual, attr.__func__))
            elif isinstance(attr, property) and attr.fget is not None:
                new = property(self._wrap(layer, qual, attr.fget),
                               attr.fset, attr.fdel, attr.__doc__)
            elif inspect.isfunction(attr):
                new = self._wrap(layer, qual, attr)
            else:
                continue
            self._set(cls, name, new)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, layer: str, qual: str, func):
        key = (layer, qual)
        observe = self._observer(layer, qual)
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(layer, key, func, observe)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                result = func(*args, **kwargs)
                if observe is not None:
                    observe(result)
                return result
            frame = [layer, clock(), 0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.raised[key] += 1
                if isinstance(exc, tracer._refusal_types) and layer == "graph":
                    tracer.counts["graph.truncation_refusals"] += 1
                raise
            finally:
                tracer._close(key, frame)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, key, func, observe):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            if not tracer.enabled:
                return inner
            stack = tracer.stack
            boundary = not (stack and stack[-1][0] == layer)
            if not boundary and observe is None:
                return inner
            return tracer._resume(layer, key, inner, boundary, observe)

        return wrapper

    def _resume(self, layer, key, inner, boundary, observe):
        # A generator's work happens while the consumer resumes it, so each
        # resumption is a span of its own; the call is counted once.
        clock = time.perf_counter_ns
        if boundary:
            self.calls[key] += 1
        while True:
            if boundary:
                frame = [layer, clock(), 0]
                self.stack.append(frame)
            try:
                item = next(inner)
            except StopIteration:
                return
            except BaseException:
                if boundary:
                    self.raised[key] += 1
                raise
            finally:
                if boundary:
                    self._close(key, frame, count=False)
            if observe is not None:
                observe(item)
            yield item

    def _close(self, key, frame, count: bool = True) -> None:
        stack = self.stack
        stack.pop()
        spent = time.perf_counter_ns() - frame[1]
        self.self_ns[key] += spent - frame[2]
        if count:
            self.calls[key] += 1
        if stack:
            stack[-1][2] += spent

    # -- layer-specific counters --------------------------------------------

    def _observer(self, layer: str, qual: str):
        counts = self.counts
        if (layer, qual) == ("numeric", "expand"):
            def observe(got):
                counts["numeric.digits_certified"] += got.certified
                if not got.complete:
                    counts["numeric.precision_exhausted"] += 1
        elif (layer, qual) in (("language", "iter_words"),
                               ("language", "follower_words")):
            def observe(result):
                counts["language.words_out"] += (
                    len(result) if isinstance(result, list) else 1)
        elif (layer, qual) == ("language", "periodic_block_ok"):
            def observe(ok):
                counts["language.block_checks"] += 1
                counts["language.block_ok"] += bool(ok)
        elif (layer, qual) == ("graph", "build_graph"):
            def observe(g):
                counts["graph.vertices_built"] += g.K + 1
                counts["graph.edges_built"] += sum(len(t) for t in g.out)
        elif (layer, qual) == ("decomposition", "glue"):
            def observe(res):
                counts["decomposition.glue_results"] += 1
                counts["decomposition.glue_search"] += res.route == "search"
        elif (layer, qual) == ("measures", "mu_n"):
            def observe(measure):
                counts["measures.blocks_weighted"] += measure.per_count
        elif (layer, qual) == ("factors", "verify_factor"):
            def observe(report):
                counts["factors.claims_checked"] += len(report.claims)
                counts["factors.claims_not_passed"] += sum(
                    c.status != "pass" for c in report.claims)
        else:
            observe = None
        return observe

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative per-layer totals and counters so far."""
        snap: Counter = Counter(self.counts)
        for (layer, _), n in self.calls.items():
            snap[f"{layer}.calls"] += n
        for (layer, _), ns in self.self_ns.items():
            snap[f"{layer}.self_ns"] += ns
        for (layer, _), n in self.raised.items():
            snap[f"{layer}.raised"] += n
        return dict(snap)

    def per_function(self) -> list[dict]:
        keys = sorted(set(self.calls) | set(self.raised))
        return [{"layer": layer, "function": qual, "calls": self.calls[(layer, qual)],
                 "self_s": self.self_ns[(layer, qual)] / 1e9,
                 "raised": self.raised[(layer, qual)]}
                for layer, qual in keys]


def layer_metrics(delta: dict, self_s: dict) -> dict:
    """Per-layer metric values for one traced pass.

    ``delta`` holds the pass's counter increments, ``self_s`` each layer's
    self time in seconds.
    """
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (delta.get(f"{layer}.calls", 0), "count")
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        out[f"{layer}.raised"] = (delta.get(f"{layer}.raised", 0), "count")
    for name, unit in COUNTERS.items():
        out[name] = (delta.get(name, 0), unit)
    for name, (num, den) in RATIOS.items():
        d = delta.get(den, 0)
        out[name] = (delta.get(num, 0) / d if d else 0.0, "ratio")
    return out
