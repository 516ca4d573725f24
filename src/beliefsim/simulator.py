"""Scenario-driven simulation runs.

A scenario file is one JSON object declaring the world (config overrides,
long-term store seeds, elaboration rules, drift lexicon, orientation axes,
action basins) and a timeline of events: observations, commands, tick blocks,
run-mode switches, and expectation checks.  The run executes the timeline
deterministically and writes a canonical trace.

Each tick:

1. the op-rate window rolls and the state introspects itself (free);
2. breaches are written into the reflective sector (budgeted);
3. the regulation decision is taken (free) and applied (budgeted) — both 2
   and 3 spend from the *previous* tick's allocations;
4. effort is re-allocated from the fresh report;
5. at most one memory cycle runs: query, retrieve, integrate (budgeted, paid
   once before the query; an equal cue is never reissued);
6. a vacuum state drifts one lexicon word in (budgeted);
7. one unit of time passes: active and store decay, prunes are logged (free);
8. basins are evaluated and resolved to at most one fired action per tick
   (budgeted).

``regulation.EFFORT_COSTS`` states once which class pays for each budgeted
step and how much; a step whose class cannot pay is skipped and logged.

Observations and commands sit between ticks, advance nothing, and cost
nothing; they are the world pushing in, not the engine working.
"""

from __future__ import annotations

import json
import random
import reprlib
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import AbstractSet, Any, Mapping, Sequence

import numpy as np

from .config import ParameterConfig, config_from_dict, is_finite_number
from .core import ANCHOR_MAX, BeliefState, Fragment, IdAllocator, embed_state, tokenize
from .dynamics import (
    ASSIMILATION_MODES,
    ConflictError,
    ElaborationRule,
    annihilate_sector,
    assimilate,
    drift,
    nullify,
    nullify_sector,
    resolve_conflicts,
)
from .execution import ActionBasin, Clause, GateRule, evaluate_action, resolve_actions
from .geometry import realign
from .memory import (
    QUERY_TRIGGERS,
    QueryCue,
    generate_query,
    integrate_retrieved,
    retrieve,
)
from .regulation import (
    EFFORT_COSTS,
    allocate_effort,
    any_breach,
    coherence,
    coherence_breached,
    introspect,
    meta_assimilate,
    regulate,
    uniform_budget,
)
from .tower import EpistemicAxis, TowerTrajectory, build_tower, derive_axis
from .trace import TraceLog, canonical_json, make_header, record_dict

RUN_MODES = ("live", "simulation")

COMMAND_ANCHOR = 5.0

# Each timeline event and the fields its entry may carry, each with its
# default.  The loader fills every entry in from it and the run reads the
# completed entry.  A field that must be given defaults to a value its check
# refuses.
_TIMELINE: dict[str, dict[str, Any]] = {
    "observe": {"specs": None, "mode": "auto", "group": None},
    "command": {"text": "", "anchor": COMMAND_ANCHOR, "name": None},
    "tick": {"n": 1},
    "set_mode": {"mode": None},
    "expect": {"assertions": []},
}
TIMELINE_EVENTS = tuple(_TIMELINE)

# Each expect check and the fields it reads besides its optional tol and sector.
_CHECKS: dict[str, tuple[str, ...]] = {
    "fragment_present": ("name",),
    "fragment_absent": ("name",),
    "persistence": ("name", "value"),
    "anchor": ("name", "value"),
    "kappa": ("value",),
    "is_vacuum": (),
    "action_fired": ("action",),
    "action_not_fired": ("action",),
}
ASSERTION_CHECKS = tuple(_CHECKS)

# Ops that count toward the load rate term, over the sliding window.
OP_RATE_KINDS = frozenset(
    {
        "ingest",
        "assimilate",
        "nullify_prune",
        "drift",
        "query",
        "retrieve",
        "integrate",
        "regulate_action",
        "correction",
    }
)

# Most ticks a scenario may ask for, in one tick event and in all of them
# together; a shipped scenario asks for at most 150 in one event.  Above it
# a run would not end in useful time, so load refuses it.
MAX_TICKS = 10_000

_SCENARIO_KEYS = frozenset(
    {"name", "config", "memory", "rules", "lexicon", "axes", "basins", "timeline", "states"}
)
_AXIS_FIELDS = frozenset({"label", "seed", "max_k", "null_seed"})
_RULE_FIELDS = frozenset({"trigger", "emit"})
_SPEC_FIELDS = frozenset(
    {"text", "sector", "sectors", "level", "anchor", "persistence", "key", "polarity", "name"}
)


class ScenarioError(ValueError):
    """A scenario file that cannot be executed as written."""


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario.  The store (ids 1..N), each named state, each
    rule's emit and each axis's tower are built once, at load; the specs of
    an observe, or a command's one spec, are built when it runs."""

    name: str
    config: ParameterConfig
    store: BeliefState
    names: Mapping[str, int]  # the store's named fragments
    rules: tuple[ElaborationRule, ...]
    lexicon: tuple[str, ...]
    towers: Mapping[str, tuple[TowerTrajectory, bool]]  # axis label -> (tower, null_seed)
    basins: tuple[ActionBasin, ...]
    timeline: tuple[Mapping[str, Any], ...]  # each entry completed from _TIMELINE
    states: Mapping[str, BeliefState]


def _refuse_unknown(raw: Mapping[str, Any], allowed: AbstractSet[str], where: str) -> None:
    unknown = raw.keys() - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {reprlib.repr(sorted(unknown))}")


def _record(cls: type, raw: Mapping[str, Any], where: str, **nested: type) -> Any:
    """``cls`` built from the JSON object ``raw``, whose fields are the
    dataclass's own; a field named in ``nested`` holds a list of objects,
    each built as the type given for it.  A field the dataclass does not
    declare, or anything the type refuses, raises ScenarioError naming
    ``where``."""
    _refuse_unknown(raw, frozenset(f.name for f in fields(cls)), where)
    values = dict(raw)
    for name, item in nested.items():
        if name in values:
            values[name] = tuple(
                _record(item, v, f"{where}.{name}[{i}]")
                for i, v in enumerate(_objects(values[name], f"{where}.{name}"))
            )
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _check_specs(specs: Any, where: str) -> None:
    """The one check of a spec list's shape: a list of objects, each of
    ``_SPEC_FIELDS`` only, with a string text, a valid sector or sectors (not
    both), a key and a name each a string or null, and a non-empty name that
    no other spec of the list gives."""
    if not isinstance(specs, list):
        raise ScenarioError(f"{where} must be a list of objects")
    named: dict[str, int] = {}  # name -> the position that gave it
    for j, spec in enumerate(specs):
        # Inline, not a helper call: it runs once per spec, 10k times for a big store.
        if not isinstance(spec, dict):
            raise ScenarioError(f"{where}[{j}]: a spec must be an object")
        # _refuse_unknown's message; issuperset builds no set for the many specs that pass.
        if not _SPEC_FIELDS.issuperset(spec):
            raise ScenarioError(
                f"{where}[{j}]: unknown fields {reprlib.repr(sorted(spec.keys() - _SPEC_FIELDS))}")
        text = spec.get("text", "")
        if not isinstance(text, str):
            raise ScenarioError(
                f"{where}[{j}]: spec text must be a string, got {reprlib.repr(text)}")
        sectors = spec.get("sectors")
        if sectors is None:  # read as fragment_from_spec reads it
            sector = spec.get("sector", "perc")
            ok = isinstance(sector, str) and sector != ""
        elif "sector" in spec:
            raise ScenarioError(f"{where}[{j}]: give sector or sectors, not both")
        else:
            ok = isinstance(sectors, list) and sectors != [] and all(
                isinstance(s, str) and s != "" for s in sectors)
        if not ok:
            raise ScenarioError(f"{where}[{j}]: sector must be a non-empty string, "
                                "sectors a non-empty list of them")
        key = spec.get("key")
        if key is not None and not isinstance(key, str):
            raise ScenarioError(f"{where}[{j}]: spec {reprlib.repr(text)}: "
                                f"key must be a string, got {reprlib.repr(key)}")
        name = spec.get("name")
        if name is not None:  # most specs have none: one test
            if not isinstance(name, str):
                raise ScenarioError(f"{where}[{j}]: spec {reprlib.repr(text)}: "
                                    f"name must be a string, got {reprlib.repr(name)}")
            if name in named:  # "" registers nothing, so it may repeat
                raise ScenarioError(
                    f"{where}[{j}]: name {reprlib.repr(name)} is already given "
                    f"at {where}[{named[name]}]")
            if name:
                named[name] = j


def fragment_from_spec(spec: Mapping[str, Any], fragment_id: int, clock: float) -> Fragment:
    """Build one observed fragment from a spec that passed ``_check_specs``.

    A spec's fields are ``_SPEC_FIELDS``: text (required), sector (default
    "perc") or sectors, level, anchor, persistence, key, polarity, and the
    name the loader registers.  A level, anchor or persistence that is not a
    number raises ValueError, as ``Fragment`` does for any value out of range.
    """
    text = spec.get("text", "")
    sectors = spec.get("sectors")
    if sectors is None:
        sectors = [spec.get("sector", "perc")]
    try:
        level = int(spec.get("level", 0))
        anchor = float(spec.get("anchor", 1.0))
        persistence = float(spec.get("persistence", 1.0))
    except (TypeError, ValueError, OverflowError):
        given = {k: spec[k] for k in ("level", "anchor", "persistence") if k in spec}
        raise ValueError(
            f"spec {reprlib.repr(text)}: level, anchor and persistence must be numbers, "
            f"got {reprlib.repr(given)}"
        ) from None
    return Fragment(
        id=fragment_id,
        text=text,
        sectors=frozenset(sectors),
        level=level,
        anchor=anchor,
        persistence=persistence,
        created_at=clock,
        key=spec.get("key"),
        polarity=spec.get("polarity"),
    )


def _names(sources: Sequence[Mapping[str, Any]], frags: Sequence[Fragment]) -> dict[str, int]:
    """Name -> id of each fragment whose spec has a name."""
    return {s["name"]: f.id for s, f in zip(sources, frags) if s.get("name")}


def _objects(value: Any, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise ScenarioError(f"{where} must be a list of objects")
    return value


def _build(
    specs: Sequence[Mapping[str, Any]], ids: IdAllocator, clock: float, where: str
) -> tuple[Fragment, ...]:
    """One fragment per spec, its id drawn from ``ids`` in spec order.

    Every scenario fragment is built here: the store, each state, each
    rule's emit and each axis seed once at load, and each observation and
    command when it runs.  A spec that cannot be built raises
    ScenarioError naming its path, ``where[j]``.  One inline loop, not a
    call per spec: a store can hold 10k specs.
    """
    frags = []
    for j, spec in enumerate(specs):
        try:
            frags.append(fragment_from_spec(spec, ids.next(), clock))
        except ValueError as exc:
            raise ScenarioError(f"{where}[{j}]: {exc}") from exc
    return tuple(frags)


def _check_assertion(a: Any, where: str) -> None:
    """Every field an expect check reads (``_CHECKS``), typed, so the check
    cannot fail on it."""
    if not isinstance(a, dict):
        raise ScenarioError(f"{where}: must be an object")
    check = a.get("check")
    if check not in ASSERTION_CHECKS:  # a tuple: a list as check is refused, not a TypeError
        raise ScenarioError(f"{where}: unknown check {reprlib.repr(check)}")
    reads = _CHECKS[check]
    if "name" in reads and not isinstance(a.get("name"), str):
        raise ScenarioError(f"{where}: {check} needs a name, a string")
    if "value" in reads and not is_finite_number(a.get("value")):
        raise ScenarioError(f"{where}: {check} needs a value, a finite number")
    if "tol" in a and not (is_finite_number(a["tol"]) and a["tol"] >= 0):
        raise ScenarioError(f"{where}: tol must be a finite number >= 0")
    if "sector" in a and not (isinstance(a["sector"], str) and a["sector"]):
        raise ScenarioError(f"{where}: sector must be a non-empty string")
    if check == "is_vacuum" and not isinstance(a.get("value", True), bool):
        raise ScenarioError(f"{where}: is_vacuum value must be true or false")
    if "action" in reads and not isinstance(a.get("action"), str):
        raise ScenarioError(f"{where}: {check} needs an action, a string")
    try:  # the spec enters the trace as written, extra fields too
        canonical_json(a)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"{where}: nested too deeply to enter a trace") from None


def _complete_timeline(timeline: Any) -> tuple[dict[str, Any], ...]:
    """Each entry with its event's defaults from ``_TIMELINE`` filled in and
    every field checked.  A command becomes what it ingests: an observe of
    one ``task`` spec, ``{text, sector, anchor, name}``, in mode auto."""
    if not isinstance(timeline, list):
        raise ScenarioError("timeline must be a list")
    completed = []
    ticks = 0
    for i, raw in enumerate(timeline):
        if not isinstance(raw, dict):
            raise ScenarioError(f"timeline[{i}]: an entry must be an object")
        kind = raw.get("event")
        if kind not in TIMELINE_EVENTS:  # a tuple: a list as event is refused, not a TypeError
            raise ScenarioError(f"timeline[{i}]: unknown event {reprlib.repr(kind)}")
        _refuse_unknown(raw, {"event", *_TIMELINE[kind]}, f"timeline[{i}]")
        entry = {**_TIMELINE[kind], **raw}
        if kind == "observe":
            specs = entry["specs"]
            if not isinstance(specs, list) or not specs:
                raise ScenarioError(f"timeline[{i}]: observe needs non-empty specs, a list")
            _check_specs(specs, f"timeline[{i}].specs")
            if entry["mode"] not in ASSIMILATION_MODES:
                raise ScenarioError(
                    f"timeline[{i}]: mode must be one of {ASSIMILATION_MODES}"
                )
            if entry["mode"] == "abs":
                group = entry["group"]
                if not isinstance(group, str) or not tokenize(group):
                    raise ScenarioError(
                        f"timeline[{i}]: mode abs needs a group, a string with a token"
                    )
            elif "group" in raw:  # as written: a null group is refused too
                raise ScenarioError(f"timeline[{i}]: group is only allowed with mode abs")
        if kind == "command":
            if not (isinstance(entry["text"], str) and tokenize(entry["text"])):
                raise ScenarioError(f"timeline[{i}]: command needs text")
            anchor = entry["anchor"]
            if not is_finite_number(anchor) or not 0 <= anchor <= ANCHOR_MAX:
                raise ScenarioError(
                    f"timeline[{i}]: anchor must be a finite number >= 0 and <= {ANCHOR_MAX:g}"
                )
            if entry["name"] is not None and not isinstance(entry["name"], str):
                raise ScenarioError(f"timeline[{i}]: command name must be a string or null")
            spec = {"text": entry["text"], "sector": "task", "anchor": anchor,
                    "name": entry["name"]}
            entry = {**_TIMELINE["observe"], "event": "command", "specs": [spec]}
        if kind == "tick":
            n = entry["n"]
            if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_TICKS:
                raise ScenarioError(f"timeline[{i}]: tick n must be an int >= 1 and <= {MAX_TICKS}")
            ticks += n
            if ticks > MAX_TICKS:
                raise ScenarioError(
                    f"timeline[{i}]: the ticks up to here add up to {ticks}, above {MAX_TICKS}"
                )
        if kind == "set_mode" and entry["mode"] not in RUN_MODES:
            raise ScenarioError(f"timeline[{i}]: mode must be one of {RUN_MODES}")
        if kind == "expect":
            assertions = entry["assertions"]
            if not isinstance(assertions, list):
                raise ScenarioError(f"timeline[{i}]: assertions must be a list")
            for j, a in enumerate(assertions):
                _check_assertion(a, f"timeline[{i}].assertions[{j}]")
        completed.append(entry)
    return tuple(completed)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not UTF-8: {exc}") from None
    except RecursionError:
        raise ScenarioError(f"scenario {path} is nested too deeply to decode") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    extra = set(raw) - _SCENARIO_KEYS
    if extra:
        raise ScenarioError(f"unknown scenario sections {sorted(extra)}")
    name = path.stem if raw.get("name") is None else raw["name"]
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {reprlib.repr(name)}")
    if not name:
        raise ScenarioError("name must be a non-empty string, got ''")

    try:
        config = config_from_dict(raw.get("config", {}))
    except ValueError as exc:
        raise ScenarioError(f"config: {exc}") from exc

    raw_rules = _objects(raw.get("rules", []), "rules")
    for i, r in enumerate(raw_rules):
        _refuse_unknown(r, _RULE_FIELDS, f"rules[{i}]")
        if not isinstance(r.get("trigger"), str) or not r["trigger"]:
            raise ScenarioError(f"rules[{i}]: needs a trigger, a non-empty string")
    emits = [r.get("emit") for r in raw_rules]
    _check_specs(emits, "rules")
    built = _build(emits, IdAllocator(1), 0.0, "rules")
    rules = tuple(
        ElaborationRule(r["trigger"], emit, spec.get("name") or None)
        for r, spec, emit in zip(raw_rules, emits, built)
    )

    basins = tuple(
        _record(ActionBasin, b, f"basins[{i}]",
                clauses=Clause, suppressors=Clause, gate_policy=GateRule)
        for i, b in enumerate(_objects(raw.get("basins", []), "basins"))
    )
    seen = set()
    for b in basins:
        if b.name in seen:
            raise ScenarioError(f"duplicate basin name {reprlib.repr(b.name)}")
        seen.add(b.name)

    lexicon = raw.get("lexicon", [])
    if not isinstance(lexicon, list):
        raise ScenarioError("lexicon must be a list")
    for i, word in enumerate(lexicon):
        if not isinstance(word, str) or not tokenize(word):
            raise ScenarioError(
                f"lexicon[{i}]: must be a string with a token, got {reprlib.repr(word)}")

    memory = raw.get("memory", [])
    _check_specs(memory, "memory")
    stored = _build(memory, IdAllocator(1), 0.0, "memory")

    towers: dict[str, tuple[TowerTrajectory, bool]] = {}
    for i, spec in enumerate(_objects(raw.get("axes", []), "axes")):
        _refuse_unknown(spec, _AXIS_FIELDS, f"axes[{i}]")
        label = spec.get("label")
        if not isinstance(label, str) or not label:
            raise ScenarioError(f"axes[{i}]: needs a label, a non-empty string")
        if label in towers:
            raise ScenarioError(f"duplicate axis label {reprlib.repr(label)}")
        if not spec.get("seed"):
            raise ScenarioError(f"axes[{i}]: needs seed fragments")
        _check_specs(spec["seed"], f"axes[{i}].seed")
        max_k = spec.get("max_k", 12)
        if not isinstance(max_k, int) or isinstance(max_k, bool):
            raise ScenarioError(f"axes[{i}]: max_k must be an int")
        null_seed = spec.get("null_seed", False)
        if not isinstance(null_seed, bool):
            raise ScenarioError(f"axes[{i}]: null_seed must be true or false")
        # Each axis in its own id space; its tower draws ids above its seed's.
        ids = IdAllocator(1)
        seed = BeliefState(_build(spec["seed"], ids, 0.0, f"axes[{i}].seed"), 0.0)
        try:
            towers[label] = (build_tower(seed, max_k, config, ids), null_seed)
        except ValueError as exc:
            raise ScenarioError(f"axes[{i}] ({reprlib.repr(label)}): {exc}") from exc

    timeline = _complete_timeline(raw.get("timeline", []))

    states = raw.get("states", {})
    if not isinstance(states, dict):
        raise ScenarioError("states must be an object")
    for label, specs in states.items():
        _check_specs(specs, f"states.{label}")

    return Scenario(
        name=name,
        config=config,
        store=BeliefState(stored, 0.0),
        names=_names(memory, stored),
        rules=rules,
        lexicon=tuple(lexicon),
        towers=towers,
        basins=basins,
        timeline=timeline,
        # each state in its own id space
        states={
            label: BeliefState(_build(specs, IdAllocator(1), 0.0, f"states.{label}"), 0.0)
            for label, specs in states.items()
        },
    )


@dataclass(frozen=True)
class AssertionOutcome:
    check: str
    ok: bool
    detail: str
    spec: Mapping[str, Any]


def _removed_ids(before: BeliefState, after: BeliefState) -> list[int]:
    """The ids ``after`` dropped from ``before``, ascending; ``after`` only
    keeps or drops ids, so equal row counts mean nothing was dropped."""
    if len(after.rows) == len(before.rows):
        return []
    return sorted(before.ids() - after.ids())


class SimulationRun:
    """One deterministic execution of a scenario timeline; once ``run()``
    returns, the run is its own result: its trace, its final active state and
    store, each expect outcome in ``assertions`` and each fired action in
    ``fired``."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        mode: str = "live",
    ):
        if mode not in RUN_MODES:
            raise ScenarioError(f"mode must be one of {RUN_MODES}, got {mode!r}")
        self.scenario = scenario
        self.config = scenario.config
        self.seed = scenario.config.seed if seed is None else int(seed)
        if not is_finite_number(self.seed):  # the header carries it into the trace
            raise ScenarioError(
                f"seed must be an integer within the float range, got {reprlib.repr(self.seed)}")
        self.mode = mode
        self.rng = random.Random(self.seed)
        self.store = scenario.store
        self.ids = IdAllocator(len(self.store.rows) + 1)
        self.names: dict[str, int] = dict(scenario.names)
        self.active = BeliefState((), 0.0)
        # Each axis from its tower, kept since load; a tower that did not
        # converge, or that gives a zero direction, is refused here.
        self.axes: dict[str, EpistemicAxis] = {}
        for i, (label, (tower, null_seed)) in enumerate(scenario.towers.items()):
            try:
                self.axes[label] = derive_axis(tower, label, self.config, null_seed=null_seed)
            except ValueError as exc:
                raise ScenarioError(f"axes[{i}] ({reprlib.repr(label)}): {exc}") from exc

        self.trace = TraceLog(
            make_header(scenario.name, self.seed, mode, record_dict(self.config))
        )
        # Each effort class's units left; step 4 of each tick replaces them.
        self.budget: dict[str, float] = uniform_budget(self.config)
        # The last introspected state's embedding: the next tick's velocity
        # needs only it, not the state and its vectors.
        self._prev_embedding: np.ndarray | None = None
        self._prev_readiness: dict[str, float] = {b.name: 0.0 for b in scenario.basins}
        self._issued_cues: set[QueryCue] = set()
        self.fired: list[str] = []
        self._kappa_streak = 0
        self._op_buckets: deque[int] = deque(maxlen=self.config.window)
        self._pending_ops = 0
        self.assertions: list[AssertionOutcome] = []

    # -- plumbing ----------------------------------------------------------

    def _emit(self, kind: str, payload: dict) -> None:
        self.trace.emit(kind, self.active.clock, payload)
        if kind in OP_RATE_KINDS:
            self._pending_ops += 1

    def _afford(self, op: str) -> bool:
        """Charge ``op``'s cost in ``EFFORT_COSTS``; if its class cannot pay,
        more than float dust short, charge nothing and log the skip.  Every
        cost is a whole number of units, so each subtraction is exact: the
        units left are the allocation minus what was charged, to the bit."""
        cls, needed = EFFORT_COSTS[op]
        if self.budget[cls] + 1e-12 >= needed:
            self.budget[cls] -= needed
            return True
        self._emit(
            "effort_skip",
            {
                "op": op,
                "class": cls,
                "needed": needed,
                "available": self.budget[cls],
            },
        )
        return False

    def _goals_present(self) -> bool:
        return bool(self.active.goals(self.config.goal_marker.lower()))

    def _register_rule_names(self, elaborated: Sequence[int]) -> None:
        if not elaborated:
            return
        emitted = [self.active.get(fid) for fid in elaborated]
        for rule in self.scenario.rules:
            if rule.name is None:
                continue
            for frag in emitted:
                if frag is not None and frag.content_key() == rule.emit.content_key():
                    self.names[rule.name] = frag.id
                    break

    # -- timeline events ---------------------------------------------------

    def _ingest(self, entry: Mapping[str, Any], index: int) -> None:
        """Take an observe's specs, or a command's one spec, in from the
        world: build them, register their names, log them, assimilate them,
        then register the names of any rule emits.  Input that elaborative
        mode cannot take without revising is refused whole, with a warning,
        and the state stays as it was."""
        specs = entry["specs"]
        frags = _build(specs, self.ids, self.active.clock, f"timeline[{index}].specs")
        self.names.update(_names(specs, frags))
        self._emit(
            "ingest",
            {"ids": [f.id for f in frags], "texts": [f.text for f in frags],
             "command": entry["event"] == "command"},
        )
        try:
            self.active, report = assimilate(
                self.active, BeliefState(frags, self.active.clock), self.config, self.ids,
                mode=entry["mode"], rules=self.scenario.rules, abs_group=entry["group"],
            )
        except ConflictError as exc:
            self._emit("warning", {"op": "assimilate", "message": str(exc)})
            return
        self._emit("assimilate", {"report": record_dict(report)})
        self._register_rule_names(report.elaborated)

    # -- the tick ----------------------------------------------------------

    def _apply_regulation(self, report) -> None:
        decision = regulate(report, self.active, self.config, self._kappa_streak)
        if decision.kind == "none" or not self._afford(decision.kind):
            return
        before = self.active
        if decision.kind == "annihilate_sector":
            self.active = annihilate_sector(self.active, decision.target)
        elif decision.kind == "corrective_assimilation":
            self.active, swept = resolve_conflicts(self.active)
            self._emit("correction", {"retracted": sorted(swept), "conflicts": len(swept)})
        elif decision.kind == "accelerate_nullify":
            self.active = nullify_sector(
                self.active, decision.target, self.config.nullify_boost, self.config
            )
        elif decision.kind == "realign":
            outcome = realign(self.active, self.axes[decision.target], self.config)
            self.active = outcome.state
        removed = _removed_ids(before, self.active)
        if decision.kind == "realign" and outcome.warned:
            self._emit("warning", {"op": "realign", "message": "still drifting after realignment"})
        self._emit("regulate_action", {"decision": record_dict(decision), "removed": removed})

    def _memory_cycle(self, goals: bool) -> None:
        cue = None
        for trigger in QUERY_TRIGGERS:
            if trigger == "goal" and not goals:
                continue  # step 4 found none, and the state has not changed since
            candidate = generate_query(self.active, trigger, self.config)
            if candidate is not None and candidate not in self._issued_cues:
                cue = candidate
                break
        if cue is None or not self._afford("memory_cycle"):
            return
        self._issued_cues.add(cue)
        self._emit("query", {"cue": record_dict(cue)})
        found = retrieve(self.store, cue, self.config)
        self._emit(
            "retrieve",
            {"cue_kind": cue.kind, "ids": [f.id for f in found.rows]},
        )
        if found.is_vacuum:
            return
        self.active, self.store, report = integrate_retrieved(
            self.active, found, self.store, self.config, self.ids,
            rules=self.scenario.rules,
        )
        self._emit(
            "integrate",
            {
                "report": record_dict(report),
                "copied": [f.id for f in found.rows],
            },
        )
        self._register_rule_names(report.elaborated)

    def _tick(self) -> None:
        # 1. roll the op window and introspect (free).
        self._op_buckets.append(self._pending_ops)
        self._pending_ops = 0
        rate = float(sum(self._op_buckets))
        report = introspect(
            self.active, self._prev_embedding, self.axes, self.config, rate
        )
        self._prev_embedding = embed_state(self.active, self.config.embed_dim)

        breached = coherence_breached(report, self.config)
        self._kappa_streak = self._kappa_streak + 1 if breached else 0

        # 2. write breach reflections (previous allocations).
        if any_breach(report, self.config) and self._afford("meta"):
            self.active, _, warnings = meta_assimilate(self.active, report, self.config, self.ids)
            for message in warnings:
                self._emit("warning", {"op": "meta", "message": message})

        # 3. regulation decision and application (previous allocations).
        self._apply_regulation(report)

        # 4. re-allocate effort and log the introspection.
        goals = self._goals_present()
        self.budget = allocate_effort(report, goals, self.config)
        self._emit(
            "meta",
            {
                "report": record_dict(report),
                "allocations": dict(self.budget),
                "breach_streak": self._kappa_streak,
            },
        )

        # 5. memory cycle.
        self._memory_cycle(goals)

        # 6. vacuum drift.
        if self.active.is_vacuum and self.scenario.lexicon and self._afford("drift"):
            self.active = drift(self.active, self.scenario.lexicon, self.rng, self.ids)
            newest = self.active.rows[-1]
            self._emit("drift", {"id": newest.id, "text": newest.text})

        # 7. one unit of time passes (free); prunes are logged post-advance.
        before, before_store = self.active, self.store
        self.active = nullify(self.active, 1.0, self.config)
        self.store = nullify(self.store, 1.0, self.config)
        pruned_active = _removed_ids(before, self.active)
        pruned_store = _removed_ids(before_store, self.store)
        if pruned_active or pruned_store:
            self._emit(
                "nullify_prune",
                {"active": pruned_active, "store": pruned_store},
            )

        # 8. basin evaluation and resolution.
        if self.scenario.basins and self._afford("basins"):
            decisions = [
                evaluate_action(b, self.active, self._prev_readiness[b.name], self.mode)
                for b in self.scenario.basins
            ]
            for d in resolve_actions(decisions):
                self._emit("action_decision", record_dict(d))
                self._prev_readiness[d.action] = d.readiness
                if d.verdict == "fired":
                    self.fired.append(d.action)

    # -- assertions --------------------------------------------------------

    def _check(self, spec: Mapping[str, Any]) -> AssertionOutcome:
        """One branch per family: an absence check is its presence check
        negated, with the same detail, and the valued checks share one test."""
        check = spec["check"]

        def out(ok: bool, detail: str) -> AssertionOutcome:
            return AssertionOutcome(check=check, ok=ok, detail=detail, spec=spec)

        if check in ("fragment_present", "fragment_absent"):
            name = spec["name"]
            if name not in self.names:
                present, detail = False, f"name {name!r} never registered"
            else:
                present = self.active.get(self.names[name]) is not None
                detail = f"id {self.names[name]} " + ("present" if present else "absent")
            return out(present == (check == "fragment_present"), detail)
        if check in ("persistence", "anchor", "kappa"):
            if check == "kappa":
                sector = spec.get("sector")
                value = coherence(self.active, sector)
                label = f"kappa in {sector}" if sector else "kappa"
            else:
                name = spec["name"]
                frag = self.active.get(self.names[name]) if name in self.names else None
                if frag is None:
                    return out(False, f"{name!r} not in active state")
                value, label = getattr(frag, check), check
            # The loader typed every field; float() only shapes the detail
            # text, where an int value or tol prints as a float (3 as "3.0").
            tol = float(spec.get("tol", 1e-9 if check == "anchor" else 1e-6))
            want = float(spec["value"])
            bound = "" if check == "anchor" else f" ± {tol}"
            return out(abs(value - want) <= tol, f"{label} {value:.6f} vs {want}{bound}")
        if check == "is_vacuum":
            return out(self.active.is_vacuum == spec.get("value", True),
                       f"vacuum={self.active.is_vacuum}")
        fired = spec["action"] in self.fired
        return out(fired == (check == "action_fired"),
                   f"fired so far: {sorted(set(self.fired))}")

    def _do_expect(self, entry: Mapping[str, Any]) -> None:
        for spec in entry["assertions"]:
            outcome = self._check(spec)
            self.assertions.append(outcome)
            self._emit("assertion_result", record_dict(outcome))

    # -- driver ------------------------------------------------------------

    @property
    def failures(self) -> list[AssertionOutcome]:
        return [a for a in self.assertions if not a.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def warnings(self) -> int:
        """The warnings the run logged, counted from its trace."""
        return sum(e.kind == "warning" for e in self.trace.events)

    def run(self) -> SimulationRun:
        for i, entry in enumerate(self.scenario.timeline):
            kind = entry["event"]
            if kind in ("observe", "command"):
                self._ingest(entry, i)
            elif kind == "tick":
                for _ in range(entry["n"]):
                    self._tick()
            elif kind == "set_mode":
                self.mode = entry["mode"]
            elif kind == "expect":
                self._do_expect(entry)
        return self


def run_scenario(
    path: str | Path,
    seed: int | None = None,
    mode: str = "live",
) -> SimulationRun:
    """Load and execute in one call; the common entry point for tools."""
    scenario = load_scenario(path)
    return SimulationRun(scenario, seed=seed, mode=mode).run()


__all__ = [
    "ASSERTION_CHECKS",
    "AssertionOutcome",
    "COMMAND_ANCHOR",
    "MAX_TICKS",
    "OP_RATE_KINDS",
    "RUN_MODES",
    "Scenario",
    "ScenarioError",
    "SimulationRun",
    "TIMELINE_EVENTS",
    "fragment_from_spec",
    "load_scenario",
    "run_scenario",
]
