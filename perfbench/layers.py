"""Per-layer tracing for the benchmark, done entirely from outside the engine.

The engine's modules call each other through names they import at load
time (``from .geometry import realign``).  ``Tracer.install`` replaces those
module attributes with timing wrappers, so every call one module makes into
another is a span; the engine's source is untouched.  Each span is named
after the function called (``geometry.realign``), whichever module made the
call, and aggregates calls and self time: its duration minus the time its
nested spans took.

Per-fragment helpers (``embed_fragment``, ``tokenize``, ``_opposed``) are not
wrapped.  They run about a million times a run, so the wrapper would cost
more than the work it measures; their time lands in the caller's self time.

Work counts come from the canonical trace's payloads, so they repeat exactly
from run to run.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (module that makes the call, name it calls through, span name, input size).
# The input size is the number of fragments the call receives, or None.
WRAPS = (
    ("simulator", "assimilate", "dynamics.assimilate",
     lambda a: len(a[0].fragments) + len(a[1].fragments)),
    ("memory", "assimilate", "dynamics.assimilate",
     lambda a: len(a[0].fragments) + len(a[1].fragments)),
    ("simulator", "nullify", "dynamics.nullify", lambda a: len(a[0].fragments)),
    ("simulator", "nullify_sector", "dynamics.nullify_sector", None),
    ("simulator", "annihilate_sector", "dynamics.annihilate_sector", None),
    ("simulator", "introspect", "regulation.introspect", None),
    ("simulator", "meta_assimilate", "regulation.meta_assimilate", None),
    ("simulator", "regulate", "regulation.regulate", None),
    ("simulator", "coherence", "regulation.coherence", None),
    ("regulation", "coherence", "regulation.coherence", None),
    ("execution", "coherence", "regulation.coherence", None),
    ("regulation", "compass_reading", "geometry.compass_reading", None),
    ("geometry", "compass_reading", "geometry.compass_reading", None),
    ("regulation", "distance", "geometry.distance", None),
    ("tower", "distance", "geometry.distance", None),
    ("simulator", "realign", "geometry.realign", None),
    ("geometry", "embed_state", "core.embed_state", None),
    ("tower", "embed_state", "core.embed_state", None),
    ("simulator", "build_tower", "tower.build_tower", None),
    ("tower", "abstract_step", "tower.abstract_step", None),
    ("simulator", "derive_axis", "tower.derive_axis", None),
    ("simulator", "generate_query", "memory.generate_query", None),
    ("simulator", "retrieve", "memory.retrieve", lambda a: len(a[0].fragments)),
    ("simulator", "integrate_retrieved", "memory.integrate_retrieved", None),
    ("simulator", "evaluate_action", "execution.evaluate_action", None),
    ("simulator", "resolve_actions", "execution.resolve_actions", None),
)

# Spans the benchmark opens itself around the public API calls it makes.
OWN_SPANS = ("simulator.load_scenario", "trace.write")

ACTION_KINDS = (
    "annihilate_sector", "corrective_assimilation", "accelerate_nullify", "realign",
)

# name -> (unit, which direction is better).  The layer is the first part of
# the name: simulator, core, dynamics, regulation, geometry, tower, memory,
# execution, trace; bench.* describes the tracing itself.
PER_LAYER = {
    "simulator.load_scenario.self_s": ("s", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.ticks": ("count", "higher"),
    "simulator.inputs": ("count", "higher"),
    "core.embed_state.calls": ("count", "lower"),
    "core.embed_state.self_s": ("s", "lower"),
    "core.embed_cache.hit_ratio": ("ratio", "higher"),
    "dynamics.assimilate.calls": ("count", "lower"),
    "dynamics.assimilate.self_s": ("s", "lower"),
    "dynamics.assimilate.frags_in": ("count", "lower"),
    "dynamics.conflicts_found": ("count", "lower"),
    "dynamics.retracted": ("count", "lower"),
    "dynamics.nullify.calls": ("count", "lower"),
    "dynamics.nullify.self_s": ("s", "lower"),
    "dynamics.nullify.frags_in": ("count", "lower"),
    "dynamics.pruned": ("count", "lower"),
    "dynamics.nullify_sector.calls": ("count", "lower"),
    "dynamics.nullify_sector.self_s": ("s", "lower"),
    "dynamics.annihilate_sector.calls": ("count", "lower"),
    "dynamics.annihilate_sector.self_s": ("s", "lower"),
    "regulation.introspect.self_s": ("s", "lower"),
    "regulation.coherence.calls": ("count", "lower"),
    "regulation.coherence.self_s": ("s", "lower"),
    "regulation.meta_assimilate.calls": ("count", "lower"),
    "regulation.meta_assimilate.self_s": ("s", "lower"),
    "regulation.regulate.self_s": ("s", "lower"),
    "regulation.actions": ("count", "lower"),
    **{f"regulation.actions.{k}": ("count", "lower") for k in ACTION_KINDS},
    "regulation.effort_skips": ("count", "lower"),
    "geometry.distance.calls": ("count", "lower"),
    "geometry.distance.self_s": ("s", "lower"),
    "geometry.compass_reading.calls": ("count", "lower"),
    "geometry.compass_reading.self_s": ("s", "lower"),
    "geometry.realign.calls": ("count", "lower"),
    "geometry.realign.self_s": ("s", "lower"),
    "geometry.realign.removed": ("count", "lower"),
    "geometry.realign.useful_ratio": ("ratio", "higher"),
    "tower.build_tower.self_s": ("s", "lower"),
    "tower.abstract_step.calls": ("count", "lower"),
    "tower.abstract_step.self_s": ("s", "lower"),
    "tower.derive_axis.self_s": ("s", "lower"),
    "memory.generate_query.calls": ("count", "lower"),
    "memory.generate_query.self_s": ("s", "lower"),
    "memory.retrieve.calls": ("count", "lower"),
    "memory.retrieve.self_s": ("s", "lower"),
    "memory.retrieve.scanned": ("count", "lower"),
    "memory.retrieve.hit_ratio": ("ratio", "higher"),
    "memory.integrate_retrieved.calls": ("count", "lower"),
    "memory.integrate_retrieved.self_s": ("s", "lower"),
    "memory.integrate.added_ratio": ("ratio", "higher"),
    "execution.evaluate_action.calls": ("count", "lower"),
    "execution.evaluate_action.self_s": ("s", "lower"),
    "execution.resolve_actions.self_s": ("s", "lower"),
    "trace.events": ("count", "lower"),
    "trace.bytes": ("bytes", "lower"),
    "trace.write.self_s": ("s", "lower"),
    "bench.tracing_overhead": ("ratio", "lower"),
}


class Tracer:
    """Span aggregation over the wrapped cross-module calls of one run."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.frags_in: Counter[str] = Counter()
        # (span, enclosing span) -> calls, for work done inside another layer.
        self.nested_calls: Counter[tuple[str, str | None]] = Counter()
        self._stack: list[list] = []  # [name, nested ns, parent, start ns]
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0, parent, perf_counter_ns()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, size: int | None) -> None:
        elapsed = perf_counter_ns() - frame[3]
        self._stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.self_ns[name] += elapsed - frame[1]
        self.nested_calls[(name, frame[2])] += 1
        if size is not None:
            self.frags_in[name] += size
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, None)

    def _wrap(self, fn, name: str, size):
        def traced(*args, **kwargs):
            n = size(args) if size else None
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, n)

        return traced

    def install(self) -> None:
        """Wrap every name in WRAPS.  A name the engine no longer imports is
        listed in ``missing`` rather than failing the run: its spans are then
        absent, and the report says so."""
        for module_name, attr, name, size in WRAPS:
            module = importlib.import_module(f"beliefsim.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, size))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def trace_counts(events) -> dict[str, float]:
    """Work counts read from a run's trace events."""
    kinds = Counter(e.kind for e in events)
    conflicts = retracted = pruned = removed = 0
    hits = copied = added = 0
    actions: Counter[str] = Counter()
    for e in events:
        p = e.payload
        if e.kind in ("assimilate", "integrate"):
            conflicts += p["report"]["conflicts_found"]
            retracted += len(p["report"]["retracted"])
        if e.kind == "correction":
            conflicts += p["conflicts"]
            retracted += len(p["retracted"])
        elif e.kind == "nullify_prune":
            pruned += len(p["active"]) + len(p["store"])
        elif e.kind == "regulate_action":
            actions[p["decision"]["kind"]] += 1
            if p["decision"]["kind"] == "realign":
                removed += len(p["removed"])
        elif e.kind == "retrieve":
            hits += len(p["ids"])
        elif e.kind == "integrate":
            copied += len(p["copied"])
            added += len(p["report"]["added"])
    out = {
        "simulator.inputs": kinds["ingest"],
        "dynamics.conflicts_found": conflicts,
        "dynamics.retracted": retracted,
        "dynamics.pruned": pruned,
        "regulation.actions": sum(actions.values()),
        "regulation.effort_skips": kinds["effort_skip"],
        "geometry.realign.removed": removed,
        "trace.events": len(events),
        "_retrieve_hits": hits,
        "_integrate_copied": copied,
        "_integrate_added": added,
    }
    for k in ACTION_KINDS:
        out[f"regulation.actions.{k}"] = actions[k]
    return out


def layer_metrics(tracer: Tracer, counts: dict, wall_ns: int, ticks: int,
                  trace_bytes: int, cache_info) -> dict[str, float | None]:
    """Every per-layer metric of one traced run but the tracing overhead.

    A ratio whose base is zero (no realign ran, nothing was scanned) is None:
    the metric is absent on that run, not zero.
    """
    m: dict[str, float | None] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "calls":
            m[name] = tracer.calls[span]
        elif field == "self_s":
            m[name] = tracer.self_ns[span] / 1e9
        elif field == "frags_in":
            m[name] = tracer.frags_in[span]
    m.update({k: v for k, v in counts.items() if not k.startswith("_")})
    m["simulator.self_s"] = (wall_ns - sum(tracer.self_ns.values())) / 1e9
    m["simulator.ticks"] = ticks
    m["trace.bytes"] = trace_bytes
    m["memory.retrieve.scanned"] = tracer.frags_in["memory.retrieve"]
    m["memory.retrieve.hit_ratio"] = _ratio(
        counts["_retrieve_hits"], tracer.frags_in["memory.retrieve"])
    m["memory.integrate.added_ratio"] = _ratio(
        counts["_integrate_added"], counts["_integrate_copied"])
    m["geometry.realign.useful_ratio"] = _ratio(
        counts["geometry.realign.removed"],
        tracer.nested_calls[("geometry.compass_reading", "geometry.realign")])
    m["core.embed_cache.hit_ratio"] = (
        None if cache_info is None
        else _ratio(cache_info.hits, cache_info.hits + cache_info.misses))
    return m
