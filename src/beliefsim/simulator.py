"""Scenario-driven simulation runs.

A scenario file is one JSON object declaring the world (config overrides,
long-term store seeds, elaboration rules, drift lexicon, orientation axes,
action basins) and a timeline of events: observations, commands, tick blocks,
run-mode switches, and expectation checks.  The run executes the timeline
deterministically and writes a canonical trace.

Each tick:

1. the op-rate window rolls and the state introspects itself (free);
2. breaches are written into the reflective sector (monitors budget);
3. the regulation decision is taken (free) and applied (its class budget) —
   both 2 and 3 spend from the *previous* tick's allocations;
4. effort is re-allocated from the fresh report;
5. at most one memory cycle runs: query, retrieve, integrate (memory budget,
   three units up front, cue signatures never reissued);
6. a vacuum state drifts one lexicon word in (rest budget);
7. one unit of time passes: active and store decay, prunes are logged (free);
8. basins are evaluated and resolved to at most one fired action per tick
   (planning budget).

Observations and commands sit between ticks, advance nothing, and cost
nothing; they are the world pushing in, not the engine working.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from .config import ParameterConfig, config_from_dict, is_finite_number
from .core import ANCHOR_MAX, BeliefState, Fragment, IdAllocator, tokenize
from .dynamics import (
    ASSIMILATION_MODES,
    ConflictError,
    ElaborationRule,
    annihilate_sector,
    assimilate,
    drift,
    nullify,
    nullify_sector,
)
from .execution import ActionBasin, Clause, GateRule, evaluate_action, resolve_actions
from .geometry import realign
from .memory import (
    QUERY_TRIGGERS,
    generate_query,
    integrate_retrieved,
    retrieve,
)
from .regulation import (
    EffortLedger,
    allocate_effort,
    any_breach,
    coherence,
    coherence_breached,
    introspect,
    meta_assimilate,
    regulate,
    uniform_ledger,
)
from .tower import EpistemicAxis, TowerTrajectory, build_tower, derive_axis
from .trace import TraceLog, make_header

RUN_MODES = ("live", "simulation")

TIMELINE_EVENTS = ("observe", "command", "tick", "set_mode", "expect")

ASSERTION_CHECKS = (
    "fragment_present",
    "fragment_absent",
    "persistence",
    "anchor",
    "kappa",
    "is_vacuum",
    "action_fired",
    "action_not_fired",
)
_NAMED_CHECKS = frozenset({"fragment_present", "fragment_absent", "persistence", "anchor"})
_VALUED_CHECKS = frozenset({"persistence", "anchor", "kappa"})
_ACTION_CHECKS = frozenset({"action_fired", "action_not_fired"})

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

COMMAND_ANCHOR = 5.0
MEMORY_CYCLE_COST = 3.0

_SCENARIO_KEYS = frozenset(
    {"name", "config", "memory", "rules", "lexicon", "axes", "basins", "timeline", "states"}
)
_CLAUSE_FIELDS = ("kind", "sector", "minimum", "level", "tolerance", "token")


class ScenarioError(ValueError):
    """A scenario file that cannot be executed as written."""


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario.  The store (ids 1..N), each named state, each
    rule's emit and each axis's tower are built once, at load; an observe's
    specs are built when it runs."""

    name: str
    config: ParameterConfig
    store: BeliefState
    names: Mapping[str, int]  # the store's named fragments
    rules: tuple[ElaborationRule, ...]
    lexicon: tuple[str, ...]
    towers: Mapping[str, tuple[TowerTrajectory, bool]]  # axis label -> (tower, null_seed)
    basins: tuple[ActionBasin, ...]
    timeline: tuple[Mapping[str, Any], ...]
    states: Mapping[str, BeliefState]


def _parse_clause(raw: Mapping[str, Any], where: str) -> Clause:
    extra = set(raw) - set(_CLAUSE_FIELDS)
    if extra:
        raise ScenarioError(f"{where}: unknown clause fields {sorted(extra)}")
    try:
        return Clause(**{k: raw[k] for k in _CLAUSE_FIELDS if k in raw})
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_gate(raw: Mapping[str, Any], where: str) -> GateRule:
    try:
        return GateRule(pattern=raw.get("pattern"), action=raw.get("action", "approve"))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_basin(raw: Mapping[str, Any], index: int) -> ActionBasin:
    where = f"basins[{index}]"
    try:
        clauses = tuple(
            _parse_clause(c, f"{where}.clauses[{i}]")
            for i, c in enumerate(raw.get("clauses", ()))
        )
        suppressors = tuple(
            _parse_clause(c, f"{where}.suppressors[{i}]")
            for i, c in enumerate(raw.get("suppressors", ()))
        )
        gates = tuple(
            _parse_gate(g, f"{where}.gate_policy[{i}]")
            for i, g in enumerate(_objects(raw.get("gate_policy", []), f"{where}.gate_policy"))
        )
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise ScenarioError(f"{where}: name must be a string")
        tau = raw.get("tau", 0.5)
        if not is_finite_number(tau):
            raise ScenarioError(f"{where}: tau must be a finite number")
        return ActionBasin(
            name=name,
            clauses=clauses,
            tau=float(tau),
            suppressors=suppressors,
            gate_policy=gates,
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _check_specs(specs: Any, where: str) -> None:
    """Fragment specs must be a list of objects, each with a valid sector field."""
    if not isinstance(specs, list):
        raise ScenarioError(f"{where} must be a list of objects")
    for j, spec in enumerate(specs):
        # Inline, not a helper call: it runs once per spec, 10k times for a big store.
        if not isinstance(spec, dict):
            raise ScenarioError(f"{where}[{j}]: a spec must be an object")
        sectors = spec.get("sectors")
        if sectors is None:  # read as fragment_from_spec below reads it
            sector = spec.get("sector", "perc")
            ok = isinstance(sector, str) and sector != ""
        else:
            ok = isinstance(sectors, list) and sectors != [] and all(
                isinstance(s, str) and s != "" for s in sectors
            )
        if not ok:
            raise ScenarioError(
                f"{where}[{j}]: sector must be a non-empty string, "
                "sectors a non-empty list of them"
            )


def fragment_from_spec(spec: Mapping[str, Any], fragment_id: int, clock: float) -> Fragment:
    """Build one observed fragment from a spec that passed ``_check_specs``.

    Recognized keys: text (required), sector (default "perc") or sectors,
    level, anchor, persistence, key, polarity.  Other keys (e.g. "name") are
    the loader's.  A level, anchor or persistence that is not a number, or a
    key that is not a string, raises ValueError.
    """
    text = str(spec.get("text", ""))
    sectors = spec.get("sectors")
    if sectors is None:
        sectors = [spec.get("sector", "perc")]
    try:
        level = int(spec.get("level", 0))
        anchor = float(spec.get("anchor", 1.0))
        persistence = float(spec.get("persistence", 1.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"spec {text!r}: level, anchor and persistence must be numbers ({exc})"
        ) from None
    key = spec.get("key")
    if key is not None and not isinstance(key, str):
        raise ValueError(f"spec {text!r}: key must be a string, got {key!r}")
    return Fragment(
        id=fragment_id,
        text=text,
        sectors=frozenset(map(str, sectors)),
        level=level,
        anchor=anchor,
        persistence=persistence,
        created_at=clock,
        key=key,
        polarity=spec.get("polarity"),
    )


def _names(sources: Sequence[Mapping[str, Any]], frags: Sequence[Fragment]) -> dict[str, int]:
    """Name -> id of each fragment whose source, a spec or a command, has a name."""
    return {str(s["name"]): f.id for s, f in zip(sources, frags) if s.get("name")}


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
    """Every field an expect check reads, typed, so the check cannot fail on it."""
    if not isinstance(a, dict):
        raise ScenarioError(f"{where}: must be an object")
    check = a.get("check")
    if check not in ASSERTION_CHECKS:
        raise ScenarioError(f"{where}: unknown check {check!r}")
    if check in _NAMED_CHECKS and not isinstance(a.get("name"), str):
        raise ScenarioError(f"{where}: {check} needs a name, a string")
    if check in _VALUED_CHECKS and not is_finite_number(a.get("value")):
        raise ScenarioError(f"{where}: {check} needs a value, a finite number")
    if "tol" in a and not (is_finite_number(a["tol"]) and a["tol"] >= 0):
        raise ScenarioError(f"{where}: tol must be a finite number >= 0")
    if "sector" in a and not (isinstance(a["sector"], str) and a["sector"]):
        raise ScenarioError(f"{where}: sector must be a non-empty string")
    if check == "is_vacuum" and not isinstance(a.get("value", True), bool):
        raise ScenarioError(f"{where}: is_vacuum value must be true or false")
    if check in _ACTION_CHECKS and not isinstance(a.get("action"), str):
        raise ScenarioError(f"{where}: {check} needs an action, a string")


def _validate_timeline(timeline: Sequence[Mapping[str, Any]]) -> None:
    for i, entry in enumerate(timeline):
        if not isinstance(entry, dict):
            raise ScenarioError(f"timeline[{i}]: an entry must be an object")
        kind = entry.get("event")
        if kind not in TIMELINE_EVENTS:
            raise ScenarioError(f"timeline[{i}]: unknown event {kind!r}")
        if kind == "observe":
            specs = entry.get("specs")
            if not isinstance(specs, list) or not specs:
                raise ScenarioError(f"timeline[{i}]: observe needs non-empty specs, a list")
            _check_specs(specs, f"timeline[{i}].specs")
            mode = entry.get("mode", "auto")
            if mode not in ASSIMILATION_MODES:
                raise ScenarioError(
                    f"timeline[{i}]: mode must be one of {ASSIMILATION_MODES}"
                )
            if mode == "abs":
                group = entry.get("group")
                if not isinstance(group, str) or not tokenize(group):
                    raise ScenarioError(
                        f"timeline[{i}]: mode abs needs a group, a string with a token"
                    )
            elif "group" in entry:
                raise ScenarioError(f"timeline[{i}]: group is only allowed with mode abs")
        if kind == "command":
            if not tokenize(str(entry.get("text", ""))):
                raise ScenarioError(f"timeline[{i}]: command needs text")
            anchor = entry.get("anchor", COMMAND_ANCHOR)
            if not is_finite_number(anchor) or not 0 <= anchor <= ANCHOR_MAX:
                raise ScenarioError(
                    f"timeline[{i}]: anchor must be a finite number >= 0 and <= {ANCHOR_MAX:g}"
                )
        if kind == "tick":
            n = entry.get("n", 1)
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise ScenarioError(f"timeline[{i}]: tick n must be an int >= 1")
        if kind == "set_mode" and entry.get("mode") not in RUN_MODES:
            raise ScenarioError(f"timeline[{i}]: mode must be one of {RUN_MODES}")
        if kind == "expect":
            assertions = entry.get("assertions", [])
            if not isinstance(assertions, list):
                raise ScenarioError(f"timeline[{i}]: assertions must be a list")
            for j, a in enumerate(assertions):
                _check_assertion(a, f"timeline[{i}].assertions[{j}]")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    extra = set(raw) - _SCENARIO_KEYS
    if extra:
        raise ScenarioError(f"unknown scenario sections {sorted(extra)}")

    try:
        config = config_from_dict(raw.get("config", {}))
    except ValueError as exc:
        raise ScenarioError(f"config: {exc}") from exc

    raw_rules = _objects(raw.get("rules", []), "rules")
    for i, r in enumerate(raw_rules):
        if not isinstance(r.get("trigger"), str) or not r["trigger"]:
            raise ScenarioError(f"rules[{i}]: needs a trigger, a non-empty string")
    emits = [r.get("emit") for r in raw_rules]
    _check_specs(emits, "rules")
    built = _build(emits, IdAllocator(1), 0.0, "rules")
    rules = tuple(
        ElaborationRule(r["trigger"], emit, str(spec["name"]) if spec.get("name") else None)
        for r, spec, emit in zip(raw_rules, emits, built)
    )

    basins = tuple(
        _parse_basin(b, i) for i, b in enumerate(_objects(raw.get("basins", []), "basins"))
    )
    seen = set()
    for b in basins:
        if b.name in seen:
            raise ScenarioError(f"duplicate basin name {b.name!r}")
        seen.add(b.name)

    lexicon = raw.get("lexicon", [])
    if not isinstance(lexicon, list):
        raise ScenarioError("lexicon must be a list")
    for i, word in enumerate(lexicon):
        if not isinstance(word, str) or not tokenize(word):
            raise ScenarioError(f"lexicon[{i}]: must be a string with a token, got {word!r}")

    memory = raw.get("memory", [])
    _check_specs(memory, "memory")
    stored = _build(memory, IdAllocator(1), 0.0, "memory")

    towers: dict[str, tuple[TowerTrajectory, bool]] = {}
    for i, spec in enumerate(_objects(raw.get("axes", []), "axes")):
        label = spec.get("label")
        if not isinstance(label, str) or not label:
            raise ScenarioError(f"axes[{i}]: needs a label, a non-empty string")
        if label in towers:
            raise ScenarioError(f"duplicate axis label {label!r}")
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
            raise ScenarioError(f"axes[{i}] ({label}): {exc}") from exc

    timeline = raw.get("timeline", [])
    if not isinstance(timeline, list):
        raise ScenarioError("timeline must be a list")
    _validate_timeline(timeline)

    states = raw.get("states", {})
    if not isinstance(states, dict):
        raise ScenarioError("states must be an object")
    for label, specs in states.items():
        _check_specs(specs, f"states.{label}")

    return Scenario(
        name=str(raw.get("name", path.stem)),
        config=config,
        store=BeliefState(stored, 0.0),
        names=_names(memory, stored),
        rules=rules,
        lexicon=tuple(lexicon),
        towers=towers,
        basins=basins,
        timeline=tuple(timeline),
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


@dataclass
class RunResult:
    scenario: str
    seed: int
    mode: str
    assertions: list[AssertionOutcome] = field(default_factory=list)
    fired: list[str] = field(default_factory=list)
    warnings: int = 0
    trace: TraceLog | None = None
    active: BeliefState | None = None
    store: BeliefState | None = None

    @property
    def failures(self) -> list[AssertionOutcome]:
        return [a for a in self.assertions if not a.ok]

    @property
    def ok(self) -> bool:
        return not self.failures


def _removed_ids(before: BeliefState, after: BeliefState) -> list[int]:
    """The ids ``after`` dropped from ``before``, ascending; ``after`` only
    keeps or drops ids, so equal row counts mean nothing was dropped."""
    if len(after.rows) == len(before.rows):
        return []
    return sorted(before.ids() - after.ids())


class SimulationRun:
    """One deterministic execution of a scenario timeline."""

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
                raise ScenarioError(f"axes[{i}] ({label}): {exc}") from exc

        self.trace = TraceLog(
            make_header(scenario.name, self.seed, mode, self.config.to_dict())
        )
        self.ledger: EffortLedger = uniform_ledger(self.config)
        self._prev_active: BeliefState | None = None
        self._prev_readiness: dict[str, float] = {b.name: 0.0 for b in scenario.basins}
        self._issued_cues: set[tuple] = set()
        self._fired_ever: list[str] = []
        self._kappa_streak = 0
        self._op_buckets: deque[int] = deque(maxlen=self.config.window)
        self._pending_ops = 0
        self._warnings = 0
        self._assertions: list[AssertionOutcome] = []

    # -- plumbing ----------------------------------------------------------

    def _emit(self, kind: str, payload: dict) -> None:
        self.trace.emit(kind, self.active.clock, payload)
        if kind in OP_RATE_KINDS:
            self._pending_ops += 1
        if kind == "warning":
            self._warnings += 1

    def _skip(self, op: str, cls: str, needed: float) -> None:
        self._emit(
            "effort_skip",
            {
                "op": op,
                "class": cls,
                "needed": needed,
                "available": self.ledger.available(cls),
            },
        )

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
                if frag is not None and frag.tokens == rule.emit.tokens:
                    self.names[rule.name] = frag.id
                    break

    # -- timeline events ---------------------------------------------------

    def _ingest(
        self,
        frags: tuple[Fragment, ...],
        sources: Sequence[Mapping[str, Any]],
        command: bool,
        mode: str = "auto",
        group: str | None = None,
    ) -> None:
        """Take fragments in from the world: register their names, log them,
        assimilate them, then register the names of any rule emits.  Input
        that elaborative mode cannot take without revising is refused whole,
        with a warning, and the state stays as it was."""
        self.names.update(_names(sources, frags))
        self._emit(
            "ingest",
            {"ids": [f.id for f in frags], "texts": [f.text for f in frags], "command": command},
        )
        try:
            self.active, report = assimilate(
                self.active, BeliefState(frags, self.active.clock), self.config, self.ids,
                mode=mode, rules=self.scenario.rules, abs_group=group,
            )
        except ConflictError as exc:
            self._emit("warning", {"op": "assimilate", "message": str(exc)})
            return
        self._emit("assimilate", {"report": report.to_dict()})
        self._register_rule_names(report.elaborated)

    def _do_observe(self, entry: Mapping[str, Any], index: int) -> None:
        specs = entry["specs"]
        frags = _build(specs, self.ids, self.active.clock, f"timeline[{index}].specs")
        self._ingest(frags, specs, False, entry.get("mode", "auto"), entry.get("group"))

    def _do_command(self, entry: Mapping[str, Any], index: int) -> None:
        spec = {"text": entry["text"], "sector": "task",
                "anchor": entry.get("anchor", COMMAND_ANCHOR)}
        frags = _build([spec], self.ids, self.active.clock, f"timeline[{index}]")
        self._ingest(frags, (entry,), True)

    # -- the tick ----------------------------------------------------------

    def _apply_regulation(self, report) -> None:
        decision = regulate(report, self.active, self.config, self._kappa_streak)
        if decision.kind == "none":
            return
        cls = {
            "annihilate_sector": "corrective",
            "corrective_assimilation": "corrective",
            "accelerate_nullify": "nullify",
            "realign": "corrective",
        }[decision.kind]
        if not self.ledger.charge(cls, 1.0):
            self._skip(decision.kind, cls, 1.0)
            return
        before = self.active
        if decision.kind == "annihilate_sector":
            self.active = annihilate_sector(self.active, decision.target)
        elif decision.kind == "corrective_assimilation":
            self.active, rep = assimilate(
                self.active,
                BeliefState((), self.active.clock),
                self.config,
                self.ids,
                mode="corr",
            )
        elif decision.kind == "accelerate_nullify":
            self.active = nullify_sector(
                self.active, decision.target, self.config.nullify_boost, self.config
            )
        elif decision.kind == "realign":
            outcome = realign(self.active, self.axes[decision.target], self.config)
            self.active = outcome.state
        removed = _removed_ids(before, self.active)
        if decision.kind == "corrective_assimilation":
            self._emit("correction", {"retracted": removed, "conflicts": rep.conflicts_found})
        elif decision.kind == "realign" and outcome.warned:
            self._emit("warning", {"op": "realign", "message": "still drifting after realignment"})
        self._emit("regulate_action", {"decision": decision.to_dict(), "removed": removed})

    def _memory_cycle(self, goals: bool) -> None:
        cue = None
        for trigger in QUERY_TRIGGERS:
            if trigger == "goal" and not goals:
                continue  # step 4 found none, and the state has not changed since
            candidate = generate_query(self.active, trigger, self.config)
            if candidate is not None and candidate.signature() not in self._issued_cues:
                cue = candidate
                break
        if cue is None:
            return
        if not self.ledger.can_afford("memory", MEMORY_CYCLE_COST):
            self._skip("memory_cycle", "memory", MEMORY_CYCLE_COST)
            return
        self.ledger.charge("memory", 1.0)
        self._issued_cues.add(cue.signature())
        self._emit("query", {"cue": cue.to_dict()})
        found = retrieve(self.store, cue, self.config)
        self.ledger.charge("memory", 1.0)
        self._emit(
            "retrieve",
            {"cue_kind": cue.kind, "ids": [f.id for f in found.fragments]},
        )
        if found.is_vacuum:
            return
        self.ledger.charge("memory", 1.0)
        self.active, self.store, report = integrate_retrieved(
            self.active, found, self.store, self.config, self.ids,
            rules=self.scenario.rules,
        )
        self._emit(
            "integrate",
            {
                "report": report.to_dict(),
                "copied": [f.id for f in found.fragments],
            },
        )

    def _tick(self) -> None:
        # 1. roll the op window and introspect (free).
        self._op_buckets.append(self._pending_ops)
        self._pending_ops = 0
        rate = float(sum(self._op_buckets))
        report = introspect(
            self.active, self._prev_active, self.axes, self.config, rate
        )
        self._prev_active = self.active

        breached = coherence_breached(report, self.config)
        self._kappa_streak = self._kappa_streak + 1 if breached else 0

        # 2. write breach reflections (monitors, previous allocations).
        if any_breach(report, self.config):
            if self.ledger.charge("monitors", 1.0):
                self.active, _, warnings = meta_assimilate(
                    self.active, report, self.config, self.ids
                )
                for message in warnings:
                    self._emit("warning", {"op": "meta", "message": message})
            else:
                self._skip("meta", "monitors", 1.0)

        # 3. regulation decision and application (previous allocations).
        self._apply_regulation(report)

        # 4. re-allocate effort and log the introspection.
        goals = self._goals_present()
        self.ledger = allocate_effort(report, goals, self.config)
        self._emit(
            "meta",
            {
                "report": report.to_dict(),
                "allocations": dict(self.ledger.allocations),
                "breach_streak": self._kappa_streak,
            },
        )

        # 5. memory cycle (memory budget).
        self._memory_cycle(goals)

        # 6. vacuum drift (rest budget).
        if self.active.is_vacuum and self.scenario.lexicon:
            if self.ledger.charge("rest", 1.0):
                self.active = drift(self.active, self.scenario.lexicon, self.rng, self.ids)
                newest = self.active.rows[-1]
                self._emit("drift", {"id": newest.id, "text": newest.text})
            else:
                self._skip("drift", "rest", 1.0)

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

        # 8. basin evaluation and resolution (planning budget).
        if self.scenario.basins:
            if self.ledger.charge("planning", 1.0):
                decisions = [
                    evaluate_action(
                        b, self.active, self._prev_readiness[b.name], self.mode
                    )
                    for b in self.scenario.basins
                ]
                for d in resolve_actions(decisions):
                    self._emit("action_decision", d.to_dict())
                    self._prev_readiness[d.action] = d.readiness
                    if d.verdict == "fired":
                        self._fired_ever.append(d.action)
            else:
                self._skip("basins", "planning", 1.0)

    # -- assertions --------------------------------------------------------

    def _check(self, spec: Mapping[str, Any]) -> AssertionOutcome:
        check = spec["check"]
        name = spec.get("name")
        frag = self.active.get(self.names[name]) if name in self.names else None

        def out(ok: bool, detail: str) -> AssertionOutcome:
            return AssertionOutcome(check=check, ok=ok, detail=detail, spec=spec)

        if check == "fragment_present":
            if name not in self.names:
                return out(False, f"name {name!r} never registered")
            return out(frag is not None, f"id {self.names[name]} "
                       + ("present" if frag else "absent"))
        if check == "fragment_absent":
            if name not in self.names:
                return out(True, f"name {name!r} never registered")
            return out(frag is None, f"id {self.names[name]} "
                       + ("absent" if frag is None else "present"))
        # The loader typed every field; float() only shapes the detail text,
        # where an int value or tol prints as a float (3 as "3.0").
        if check == "persistence":
            if frag is None:
                return out(False, f"{name!r} not in active state")
            tol = float(spec.get("tol", 1e-6))
            want = float(spec["value"])
            ok = abs(frag.persistence - want) <= tol
            return out(ok, f"persistence {frag.persistence:.6f} vs {want} ± {tol}")
        if check == "anchor":
            if frag is None:
                return out(False, f"{name!r} not in active state")
            tol = float(spec.get("tol", 1e-9))
            want = float(spec["value"])
            ok = abs(frag.anchor - want) <= tol
            return out(ok, f"anchor {frag.anchor:.6f} vs {want}")
        if check == "kappa":
            sector = spec.get("sector")
            value = coherence(self.active, sector)
            tol = float(spec.get("tol", 1e-6))
            want = float(spec["value"])
            ok = abs(value - want) <= tol
            where = f" in {sector}" if sector else ""
            return out(ok, f"kappa{where} {value:.6f} vs {want} ± {tol}")
        if check == "is_vacuum":
            return out(self.active.is_vacuum == spec.get("value", True),
                       f"vacuum={self.active.is_vacuum}")
        fired_so_far = f"fired so far: {sorted(set(self._fired_ever))}"
        if check == "action_fired":
            return out(spec["action"] in self._fired_ever, fired_so_far)
        # action_not_fired
        return out(spec["action"] not in self._fired_ever, fired_so_far)

    def _do_expect(self, entry: Mapping[str, Any]) -> None:
        for spec in entry.get("assertions", ()):
            outcome = self._check(spec)
            self._assertions.append(outcome)
            self._emit(
                "assertion_result",
                {
                    "check": outcome.check,
                    "ok": outcome.ok,
                    "detail": outcome.detail,
                    "spec": dict(spec),
                },
            )

    # -- driver ------------------------------------------------------------

    def run(self) -> RunResult:
        for i, entry in enumerate(self.scenario.timeline):
            kind = entry["event"]
            if kind == "observe":
                self._do_observe(entry, i)
            elif kind == "command":
                self._do_command(entry, i)
            elif kind == "tick":
                for _ in range(int(entry.get("n", 1))):
                    self._tick()
            elif kind == "set_mode":
                self.mode = entry["mode"]
            elif kind == "expect":
                self._do_expect(entry)
        return RunResult(
            scenario=self.scenario.name,
            seed=self.seed,
            mode=self.mode,
            assertions=list(self._assertions),
            fired=list(self._fired_ever),
            warnings=self._warnings,
            trace=self.trace,
            active=self.active,
            store=self.store,
        )


def run_scenario(
    path: str | Path,
    seed: int | None = None,
    mode: str = "live",
) -> RunResult:
    """Load and execute in one call; the common entry point for tools."""
    scenario = load_scenario(path)
    return SimulationRun(scenario, seed=seed, mode=mode).run()


__all__ = [
    "ASSERTION_CHECKS",
    "AssertionOutcome",
    "COMMAND_ANCHOR",
    "MEMORY_CYCLE_COST",
    "OP_RATE_KINDS",
    "RUN_MODES",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SimulationRun",
    "TIMELINE_EVENTS",
    "fragment_from_spec",
    "load_scenario",
    "run_scenario",
]
