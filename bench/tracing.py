"""Per-layer tracing of chshlab from outside the package.

The layers are the package modules.  A span is recorded around every call
that crosses from one layer into another, around every call of a function
that the per-layer metrics name, and around every call of a public method
of ``SplitMix64``.  Each wrapper replaces the function in every module namespace
that binds it, because ``cli`` and ``expsim`` import their callees by name;
methods are replaced on the class.  ``uninstall`` puts every original back,
so untraced passes in the same process run the unmodified code.

A span's self time is its duration minus the durations of the wrapped calls
it made.  Spans are aggregated as they close, not stored one by one, so a
pass with tens of thousands of calls stays cheap to trace.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "chshlab"
LAYERS = ("cli", "chsh", "linalg", "expsim", "rng")
# Calls inside a layer that the per-layer metrics name.  Calls between
# layers are found from the module namespaces and need no listing.
NAMED = {
    "cli": ("main",),
    "chsh": ("s_parameter", "quantum_bounds", "bell_operator", "haar_sample_s"),
    "linalg": ("herm_eigenvalues",),
    "expsim": ("estimate_s", "noisy_state", "setting_probabilities"),
    "rng": ("derive_seed",),
}
TRACED_CLASS = ("rng", "SplitMix64")
# Spans whose distinct argument sets are counted, to measure repeated work.
DISTINCT_ARGS = ("expsim.setting_probabilities",)


def _freeze(value):
    """A hashable stand-in for an argument, equal exactly when the argument is."""
    if hasattr(value, "tobytes") and hasattr(value, "shape"):
        return ("array", value.shape, value.dtype.str, value.tobytes())
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    """Wraps the traced functions of chshlab and aggregates their spans."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        self.functions, self.methods = self._targets()
        self._patches: list[tuple[object, str, object]] = []
        self._open: list[float] = []
        self.reset()

    def _targets(self):
        functions = {}
        for layer, module in self.modules.items():
            others = [vars(m).values() for m in self.modules.values() if m is not module]
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                crosses = any(any(v is fn for v in values) for values in others)
                if crosses or name in NAMED.get(layer, ()):
                    functions[f"{layer}.{name}"] = fn
        layer, cls_name = TRACED_CLASS
        cls = getattr(self.modules[layer], cls_name)
        methods = {
            f"{layer}.{name}": (cls, name, fn)
            for name, fn in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(fn)
        }
        return functions, methods

    def reset(self) -> None:
        """Forget the spans recorded so far."""
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.arg_sets: defaultdict[str, set] = defaultdict(set)

    def _wrap(self, span: str, fn):
        open_spans = self._open
        keyed = span in DISTINCT_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keyed:
                key = tuple(map(_freeze, args)) + tuple((k, _freeze(v)) for k, v in sorted(kwargs.items()))
                self.arg_sets[span].add(key)
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = open_spans.pop()
                self.calls[span] += 1
                self.self_s[span] += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): (span, self._wrap(span, fn)) for span, fn in self.functions.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) not in wrappers:
                    continue
                span, wrapper = wrappers[id(value)]
                layer, name = span.split(".", 1)
                # Inside its own layer a function is traced only when a metric names it.
                if value.__module__ == mod_name and name not in NAMED.get(layer, ()):
                    continue
                self._patches.append((module, attr, value))
                setattr(module, attr, wrapper)
        for span, (cls, name, fn) in self.methods.items():
            self._patches.append((cls, name, fn))
            setattr(cls, name, self._wrap(span, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._open.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, tuple[int, float]]:
        """Per-span (calls, self seconds) since the last reset."""
        return {span: (self.calls[span], self.self_s[span]) for span in self.calls}

    def distinct(self, span: str) -> int:
        return len(self.arg_sets[span])
