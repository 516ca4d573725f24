"""Every config knob moves a trace, and every declared kind reaches a golden.

For each ``ParameterConfig`` field, ``MOVES`` names one scenario, shipped or
a benchmark workload (built by ``perfbench/workloads.py`` at seed 0, as its
golden is), and one value of the field that moves the scenario's trace below
the header, compared as bytes.  Some values move no trace at all; ``STILL``
states why for each and names the traces they leave as they were.  A field
with no entry fails.

Each declared timeline event, assimilation mode, clause kind, gate action,
expect check and query trigger is used by a scenario whose golden is
committed, or ``COVERED`` names the test that covers it instead.
"""

from __future__ import annotations

import ast
import functools
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest

from beliefsim.config import ParameterConfig
from beliefsim.dynamics import ASSIMILATION_MODES
from beliefsim.execution import CLAUSE_KINDS, GATE_ACTIONS
from beliefsim.memory import QUERY_TRIGGERS
from beliefsim.simulator import (
    ASSERTION_CHECKS,
    TIMELINE_EVENTS,
    SimulationRun,
    load_scenario,
)
from beliefsim.trace import parse_trace

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402

SHIPPED = tuple(sorted(p.stem for p in SCENARIOS.glob("*.json")))
BENCH = tuple(workloads.PARAMS)

# Field -> (scenario, value): the value moves the scenario's trace.
MOVES = {
    "delta": ("memory_recall", 0.2),
    "lambda0": ("action_ramp", 0.05),
    "decay_modulator": ("action_ramp", "constant"),
    "embed_dim": ("action_ramp", 32),
    "tau_retrieval": ("coherence_recall", 0.6),
    "reanchor_min": ("elaboration_rules", 2.0),
    "goal_marker": ("coherence_recall", "target:"),
    "seed": ("drift_vacuum", 1),
    "sector_costs": ("action_ramp", {"perc": 3.0}),
    "load_coeffs": ("action_ramp", [0.05, 1.0, 0.1]),
    "window": ("action_ramp", 3),
    "effort_total": ("action_ramp", 3.0),
    "tau_theta": ("orientation_axis", 0.4),
    "tau_r": ("orientation_axis", 0.5),  # realign's drift test; 0.79 or 1e300 move nothing
    "kappa_crit": ("coherence_recall", 0.95),
    "l_max": ("sector_wipe", 2.0),
    "patience": ("regulation_loop", 1),
    "nullify_boost": ("conflict_stream", 1.0),
    "sector_priority": ("conflict_stream", []),
    "meta_depth_max": ("regulation_loop", 1),
}

# Field -> (values, traces, why none of the traces moves for any value).
STILL = {
    "a_core": (
        (1.0, 50.0), SHIPPED,
        "read by nothing; it reaches the trace header only"),
    "eps_fix": (
        (1e-3, 1e-9), ("orientation_axis", "realign_sweep", "axis_realign"),
        "each axis's tower ends on a gap of exactly 0 (its group folds to one fragment, "
        "which the next step repeats), so any positive tolerance stops it at the same step"),
    "meta_depth_max": (
        (2, 10), ("orientation_axis", "realign_sweep", "regulation_loop", "sector_wipe",
                  "conflict_stream", "axis_realign"),
        "a reflection about any sector but refl sits at level 2, and only a breach about "
        "refl itself stacks higher; no shipped or bench run breaches on refl, so every cap "
        "from 2 up keeps every reflection, where 1 drops them all"),
    "sector_priority": (
        (list(reversed(ParameterConfig.sector_priority)),), ("conflict_stream", "sector_wipe"),
        "its order picks an overloaded state's nullify target, the lowest-ranked sector "
        "present; only conflict_stream overloads, and its lowest is always an unlisted "
        "disputeNN sector, ranked below every listed one in any order"),
}

# (table, kind) -> "file::test" that covers a kind no golden's scenario uses.
COVERED = {
    ("TIMELINE_EVENTS", "set_mode"): "test_simulator.py::test_set_mode_switches_mid_run",
    ("ASSIMILATION_MODES", "elab"): "test_dynamics.py::test_elaborative_mode_raises_on_conflict",
    ("ASSIMILATION_MODES", "corr"): "test_dynamics.py::test_revision_lower_anchor_loses",
    ("ASSIMILATION_MODES", "abs"): "test_dynamics.py::test_abstracting_merge_folds_group",
    ("CLAUSE_KINDS", "level_present"): "test_execution.py::test_level_present_is_exact",
    ("GATE_ACTIONS", "approve"): "test_execution.py::test_gate_approval_stops_the_walk",
    ("GATE_ACTIONS", "suppress"): "test_execution.py::test_gate_delay_and_suppress_verdicts",
}

KINDS = {
    "TIMELINE_EVENTS": TIMELINE_EVENTS,
    "ASSIMILATION_MODES": ASSIMILATION_MODES,
    "CLAUSE_KINDS": CLAUSE_KINDS,
    "GATE_ACTIONS": GATE_ACTIONS,
    "ASSERTION_CHECKS": ASSERTION_CHECKS,
    "QUERY_TRIGGERS": QUERY_TRIGGERS,
}


def _source(name: str) -> dict:
    if name in BENCH:
        return workloads.generate(name, 0)
    return json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))


def _load(data: dict):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "scenario.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return load_scenario(path)


@functools.cache
def _body(name: str, field: str | None = None, value: str = "null") -> bytes:
    """The trace of scenario ``name`` below its header, with ``field`` set
    to ``value`` (JSON text, so that the call can be cached)."""
    data = _source(name)
    if field is not None:
        data["config"] = {**data.get("config", {}), field: json.loads(value)}
    lines = list(SimulationRun(_load(data)).run().trace.lines())
    return "\n".join(lines[1:]).encode()


def test_every_config_field_moves_a_trace_or_says_why_not():
    assert MOVES.keys() | STILL.keys() == {f.name for f in fields(ParameterConfig)}
    assert {name for name, _ in MOVES.values()} <= {*SHIPPED, *BENCH}
    assert all(set(traces) <= {*SHIPPED, *BENCH} for _, traces, _ in STILL.values())


@pytest.mark.parametrize("field", sorted(MOVES))
def test_the_knob_moves_its_trace(field):
    name, value = MOVES[field]
    assert _body(name, field, json.dumps(value)) != _body(name)


@pytest.mark.parametrize("field", sorted(STILL))
def test_the_knob_moves_none_of_its_named_traces(field):
    values, traces, _ = STILL[field]
    for name in traces:
        for value in values:
            assert _body(name, field, json.dumps(value)) == _body(name), (name, value)


def _reached() -> dict[str, set[str]]:
    """Each table's kinds that a scenario with a committed golden uses: its
    completed timeline, its basins, and its golden's query cues."""
    reached: dict[str, set[str]] = {table: set() for table in KINDS}
    goldens = [(name, SCENARIOS / "golden" / f"{name}.trace.jsonl") for name in SHIPPED]
    goldens += [(name, REPO / "perfbench" / "golden" / f"{name}.s0.trace.jsonl")
                for name in BENCH]
    for name, golden in goldens:
        scenario = _load(_source(name))
        for entry in scenario.timeline:
            reached["TIMELINE_EVENTS"].add(entry["event"])
            if entry["event"] in ("observe", "command"):
                reached["ASSIMILATION_MODES"].add(entry["mode"])
            reached["ASSERTION_CHECKS"].update(a["check"] for a in entry.get("assertions", ()))
        for basin in scenario.basins:
            reached["CLAUSE_KINDS"].update(c.kind for c in (*basin.clauses, *basin.suppressors))
            reached["GATE_ACTIONS"].update(g.action for g in basin.gate_policy)
        _, events = parse_trace(golden)
        reached["QUERY_TRIGGERS"].update(e.payload["cue"]["kind"] for e in events
                                         if e.kind == "query")
    return reached


def _test_source(entry: str) -> str:
    file, name = entry.split("::")
    text = (TESTS / file).read_text(encoding="utf-8")
    found = [node for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.FunctionDef) and node.name == name]
    assert found, f"{entry} does not exist"
    return ast.get_source_segment(text, found[0])


def test_every_declared_kind_reaches_a_golden_or_names_its_test():
    reached = _reached()
    for table, kinds in KINDS.items():
        for kind in kinds:
            entry = COVERED.get((table, kind))
            if entry is None:
                assert kind in reached[table], f"{table} {kind!r}: no golden uses it"
            else:  # an entry goes once a golden uses its kind
                assert kind not in reached[table], f"{table} {kind!r}: {entry} is stale"
                assert f'"{kind}"' in _test_source(entry), entry
    assert {table for table, _ in COVERED} <= KINDS.keys()
