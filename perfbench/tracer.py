"""Per-layer attribution for the benchmark's traced runs.

The tracer wraps every public function of each layer module of
``struvekit`` and patches each name where it is looked up: in the module
that defines it, in every module that imported it by name, and in the
package namespace. Each wrapped call is a span; a layer's self time is the
duration of its spans minus the part covered by spans of its callees.
Names that no longer exist are simply not wrapped, so the tracer keeps
working when a later change removes or renames a function.

Spans live in memory and are summarised by :meth:`Tracer.report` when the
run ends. Nothing here changes the program's results.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Modules of ``struvekit`` timed as layers. gammafuncs, core and errors do
#: no work worth timing on their own; their cost counts in their callers'
#: self time. cli only formats output.
LAYERS = ("inequalities", "identities", "routes", "series", "quadrature",
          "foxwright", "closedforms")

#: Context managers through which ``series`` enters an mpmath
#: working-precision pass.
_PRECISION_CONTEXTS = ("workdps", "workprec", "extradps", "extraprec")


class _Frame:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str | None) -> None:
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Collects call counts, self times and route outcomes per layer."""

    def __init__(self) -> None:
        self._stack = [_Frame(None)]
        self.layer_calls: Counter[str] = Counter()
        self.layer_self_s: defaultdict[str, float] = defaultdict(float)
        self.fn_calls: Counter[str] = Counter()
        self.fn_s: defaultdict[str, float] = defaultdict(float)
        self.route_samples: defaultdict[str, list[float]] = defaultdict(list)
        self.served: Counter[str] = Counter()
        self.served_s: defaultdict[str, float] = defaultdict(float)
        self.escalations = 0
        self.escalation_s = 0.0

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (m is package or name.startswith(prefix))]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(prefix + layer)
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(layer, name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        series = sys.modules.get(prefix + "series")
        mpmath = getattr(series, "mp", None)
        if mpmath is not None and getattr(mpmath, "__name__", "") == "mpmath":
            series.mp = _MpmathProxy(self, mpmath)

    def _wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        stack = self._stack
        keep_samples = layer == "routes"

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = _Frame(layer)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent.child_s += elapsed
                self.layer_self_s[layer] += elapsed - frame.child_s
                if parent.layer != layer:
                    self.layer_calls[layer] += 1
                self.fn_calls[key] += 1
                self.fn_s[key] += elapsed
            if keep_samples:
                self.route_samples[key].append(elapsed)
                method = getattr(getattr(result, "method", None), "value", None)
                if method is not None:
                    self.served[method] += 1
                    self.served_s[method] += elapsed
            return result

        traced.__name__ = name
        traced.__qualname__ = name
        traced.__doc__ = fn.__doc__
        return traced

    def report(self) -> dict:
        """JSON-ready summary of everything recorded so far."""
        return {
            "layer_calls": dict(self.layer_calls),
            "layer_self_s": dict(self.layer_self_s),
            "fn_calls": dict(self.fn_calls),
            "fn_s": dict(self.fn_s),
            "route_median_s": {k: statistics.median(v)
                               for k, v in self.route_samples.items() if v},
            "served": dict(self.served),
            "served_s": dict(self.served_s),
            "escalations": self.escalations,
            "escalation_s": self.escalation_s,
        }


class _MpmathProxy:
    """Stands in for the ``mp`` name inside ``series`` and times every
    working-precision context entered through it."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._tracer = tracer
        self._module = module

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if name in _PRECISION_CONTEXTS:
            tracer = self._tracer
            return lambda *args, **kwargs: _TimedContext(tracer, attr(*args, **kwargs))
        return attr


class _TimedContext:
    def __init__(self, tracer: Tracer, context) -> None:
        self._tracer = tracer
        self._context = context
        self._start = 0.0

    def __enter__(self):
        self._start = perf_counter()
        return self._context.__enter__()

    def __exit__(self, *exc):
        try:
            return self._context.__exit__(*exc)
        finally:
            self._tracer.escalations += 1
            self._tracer.escalation_s += perf_counter() - self._start
