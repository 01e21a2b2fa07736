"""Spans around the public functions of dmspec's modules, and the metrics read from them.

A Tracer replaces every module attribute that refers to a traced function
with a wrapper that records a span: name, start, end, the span that was open
when it began, and an optional note computed from its arguments and result.
Functions imported by name into another module (spectrum imports
trace_over_cycle, schwartzman imports _stable_core) are replaced there too,
since that is where they are looked up when called.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from time import perf_counter

#: the layers, one per module of dmspec
LAYERS = ("cli", "verify", "spectrum", "dynamics", "sampling", "cocycle", "ids",
          "schwartzman", "svgplot")
#: private functions traced as well as the public ones
PRIVATE = {"cli": ("_emit",), "cocycle": ("_stable_core",), "schwartzman": ("_winding_core",)}
#: methods that evaluate the sampling function; they count in the sampling layer
METHODS = {
    "dynamics": {"PeriodicOrbit": ("potential_values", "sided_potentials")},
    "sampling": {"TrigPoly": ("__call__", "left_limit", "on_breakpoint"),
                 "Step": ("__call__", "left_limit", "on_breakpoint")},
}
SAMPLING_METHODS = {"dynamics.PeriodicOrbit.potential_values",
                    "dynamics.PeriodicOrbit.sided_potentials"}

#: the verify checks, each timed with its callees
VERIFY_CHECKS = ("check_sturm_counts", "check_band_edge_oracle", "check_determinants",
                 "check_invariance", "check_digit_independence", "check_containment",
                 "check_gap_shrinkage", "check_gap_labelling", "check_disconnection")

#: the columns of a span table, one list each
FIELDS = ("name", "start", "end", "parent", "nested", "note")


def _argument(fn, name):
    """A note function returning argument `name` of fn as bound at the call."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _notes():
    """Span name -> note(fn) giving note(args, kwargs, result), for the counts."""
    def orbits(fn):
        return lambda args, kwargs, result: len(result)

    def potential(fn):
        pots = _argument(fn, "pots")
        return lambda args, kwargs, result: tuple(float(v) for v in pots(args, kwargs))

    def sturm_updates(fn):
        energies = _argument(fn, "energies")
        n = _argument(fn, "truncation_size")
        m = _argument(fn, "sample_count")
        return lambda args, kwargs, result: (
            len(energies(args, kwargs)) * int(n(args, kwargs)) * int(m(args, kwargs)))

    return {"dynamics.enumerate_orbits": orbits,
            "spectrum.potential_bands": potential,
            "ids.ids_estimate": sturm_updates}


class Tracer:
    """Records spans of the traced dmspec functions while installed.

    Spans are kept column by column (see FIELDS), so that recording them adds
    no object per span for the garbage collector to scan.
    """

    def __init__(self):
        self.spans = {f: [] for f in FIELDS}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def take(self) -> dict[str, list]:
        """The spans recorded so far, which are then cleared."""
        out = {f: list(col) for f, col in self.spans.items()}
        for col in self.spans.values():
            col.clear()
        return out

    def _wrap(self, name, fn, note=None):
        names, starts, ends, parents, nested, notes = (self.spans[f] for f in FIELDS)
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            depth = active.get(name, 0)
            nested.append(depth > 0)
            notes.append(None)
            ends.append(0.0)
            active[name] = depth + 1
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
                active[name] = depth
            if note is not None:
                notes[i] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "dmspec") -> None:
        notes = _notes()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in PRIVATE.get(layer, ()))):
                    name = f"{layer}.{attr}"
                    note = notes.get(name)
                    wrappers[obj] = self._wrap(name, obj, note and note(obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is not None:
                        self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        modules = [importlib.import_module(package)]
        modules += [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _layer(name: str) -> str:
    return "sampling" if name in SAMPLING_METHODS else name.split(".", 1)[0]


def round_metrics(spans: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics of one round's span table (parents index into it).

    `<fn>.s` is the time from entry to return of the outermost calls of fn;
    `<layer>.self_s` and sampling.potentials.s sum the self times of the
    layer's spans, each span's duration less that of its direct children.
    """
    names, parents, nested = spans["name"], spans["parent"], spans["nested"]
    durations = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(names)
    for p, dur in zip(parents, durations):
        if p >= 0:
            child[p] += dur
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    self_by_name: dict[str, float] = {}
    for name, dur, is_nested, in_children in zip(names, durations, nested, child):
        calls[name] = calls.get(name, 0) + 1
        if not is_nested:
            total[name] = total.get(name, 0.0) + dur
        self_by_layer[_layer(name)] += dur - in_children
        self_by_name[name] = self_by_name.get(name, 0.0) + dur - in_children

    def notes(name):
        return [v for n, v in zip(names, spans["note"]) if n == name and v is not None]

    pb_calls = calls.get("spectrum.potential_bands", 0)
    updates = sum(notes("ids.ids_estimate"))
    sturm_s = self_by_name.get("ids.ids_estimate", 0.0)
    m = {
        "dynamics.enumerate_orbits.s": total.get("dynamics.enumerate_orbits", 0.0),
        "dynamics.orbits": sum(notes("dynamics.enumerate_orbits")),
        "sampling.potentials.s": self_by_layer["sampling"],
        "spectrum.potential_bands.s": total.get("spectrum.potential_bands", 0.0),
        "spectrum.potential_bands.calls": pb_calls,
        "spectrum.trace_over_cycle.calls": calls.get("cocycle.trace_over_cycle", 0),
        "spectrum.union_spectrum.calls": calls.get("spectrum.union_spectrum", 0),
        "spectrum.union_spectrum.s": total.get("spectrum.union_spectrum", 0.0),
        "spectrum.distinct_ratio": (len(set(notes("spectrum.potential_bands"))) / pb_calls
                                    if pb_calls else 0.0),
        "spectrum.merge_bands.s": total.get("spectrum.merge_bands", 0.0),
        "cli.emit.s": total.get("cli._emit", 0.0),
        "svgplot.s": sum(t for n, t in total.items() if n.startswith("svgplot.")),
        "ids.ids_estimate.s": total.get("ids.ids_estimate", 0.0),
        "ids.sturm_updates": updates,
        "ids.sturm_rate": updates / sturm_s if sturm_s > 0.0 else 0.0,
        "cocycle.dichotomy_test.s": total.get("cocycle.dichotomy_test", 0.0),
        "cocycle.dichotomy_test.calls": calls.get("cocycle.dichotomy_test", 0),
        "cocycle._stable_core.s": total.get("cocycle._stable_core", 0.0),
        "schwartzman.rotation_number.s": total.get("schwartzman.rotation_number", 0.0),
        "schwartzman.rotation_number.calls": calls.get("schwartzman.rotation_number", 0),
        "schwartzman._winding_core.s": total.get("schwartzman._winding_core", 0.0),
        "verify.floquet_edge_oracle.s": total.get("verify.floquet_edge_oracle", 0.0),
        "trace.top_spans_s": sum(d for p, d in zip(parents, durations) if p < 0),
    }
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = total.get(f"verify.{check}", 0.0)
    for layer in LAYERS:
        if layer != "sampling":
            m[f"{layer}.self_s"] = self_by_layer[layer]
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over rounds."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


UNITS = {".s": "s", "_s": "s", ".calls": "count", "orbits": "count",
         "sturm_updates": "count", "sturm_rate": "1/s", "distinct_ratio": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)
