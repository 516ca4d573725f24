"""Scenario loading, the tick pipeline, effort gating, and assertions."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beliefsim.config import default_config
from beliefsim.core import BeliefState, Fragment
from beliefsim import dynamics, simulator
from beliefsim.dynamics import annihilate_sector, nullify
from beliefsim.simulator import (
    SimulationRun,
    ScenarioError,
    _removed_ids,
    load_scenario,
    run_scenario,
)

from conftest import SECTORS, states


def write_scenario(tmp_path, data, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def minimal(**extra):
    data = {"name": "case", "timeline": []}
    data.update(extra)
    return data


# --------------------------------------------------------------------------
# Loader validation
# --------------------------------------------------------------------------

def test_missing_file_is_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_invalid_json_is_scenario_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)


def test_non_object_root_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="root"):
        load_scenario(path)


def test_unknown_section_rejected(tmp_path):
    path = write_scenario(tmp_path, minimal(extras={"x": 1}))
    with pytest.raises(ScenarioError, match="unknown scenario sections"):
        load_scenario(path)


def test_bad_config_value_rejected(tmp_path):
    path = write_scenario(tmp_path, minimal(config={"delta": 2.0}))
    with pytest.raises(ScenarioError, match="config"):
        load_scenario(path)


def test_unknown_config_key_rejected(tmp_path):
    path = write_scenario(tmp_path, minimal(config={"detla": 0.1}))
    with pytest.raises(ScenarioError, match="detla"):
        load_scenario(path)


def test_rule_needs_trigger_and_text(tmp_path):
    path = write_scenario(tmp_path, minimal(rules=[{"trigger": "pump", "emit": {}}]))
    with pytest.raises(ScenarioError, match=r"rules\[0\]"):
        load_scenario(path)


@pytest.mark.parametrize("trigger", [["a"], "", 5, None])
def test_rule_trigger_must_be_a_non_empty_string(tmp_path, trigger):
    path = write_scenario(tmp_path, minimal(rules=[{"trigger": trigger, "emit": {"text": "a"}}]))
    with pytest.raises(ScenarioError, match=r"^rules\[0\]: needs a trigger, a non-empty string"):
        load_scenario(path)


@pytest.mark.parametrize(
    "gates, where",
    [
        (["x"], r"basins\[0\]\.gate_policy must be a list of objects"),
        ({"pattern": "x"}, r"basins\[0\]\.gate_policy must be a list of objects"),
        ([{}], r"basins\[0\]\.gate_policy\[0\]: gate pattern must be a string"),
        ([{"pattern": "stop"}, {"pattern": "go", "action": "veto"}],
         r"basins\[0\]\.gate_policy\[1\]: unknown gate action"),
    ],
)
def test_malformed_gates_are_refused_with_their_path(tmp_path, gates, where):
    basin = {"name": "b", "clauses": [{"kind": "token_present", "token": "go"}],
             "gate_policy": gates}
    path = write_scenario(tmp_path, minimal(basins=[basin]))
    with pytest.raises(ScenarioError, match="^" + where):
        load_scenario(path)


def test_duplicate_basin_names_rejected(tmp_path):
    basin = {
        "name": "twin",
        "clauses": [{"kind": "token_present", "token": "go"}],
        "tau": 0.3,
    }
    path = write_scenario(tmp_path, minimal(basins=[basin, dict(basin)]))
    with pytest.raises(ScenarioError, match="duplicate basin"):
        load_scenario(path)


def test_bad_clause_reported_with_location(tmp_path):
    basin = {"name": "b", "clauses": [{"kind": "warp"}], "tau": 0.3}
    path = write_scenario(tmp_path, minimal(basins=[basin]))
    with pytest.raises(ScenarioError, match=r"basins\[0\].clauses\[0\]"):
        load_scenario(path)


def test_unknown_clause_field_rejected(tmp_path):
    basin = {
        "name": "b",
        "clauses": [{"kind": "token_present", "token": "go", "volume": 11}],
        "tau": 0.3,
    }
    path = write_scenario(tmp_path, minimal(basins=[basin]))
    with pytest.raises(ScenarioError, match="volume"):
        load_scenario(path)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"event": "dance"}, "unknown event"),
        ({"event": "observe"}, "non-empty specs"),
        ({"event": "command", "text": "   "}, "needs text"),
        ({"event": "tick", "n": 0}, "int >= 1"),
        ({"event": "tick", "n": 1.5}, "int >= 1"),
        ({"event": "set_mode", "mode": "dream"}, "mode must be"),
        ({"event": "expect", "assertions": [{"check": "vibes"}]}, "unknown check"),
        ({"event": "tick", "n": True}, "int >= 1"),
        ({"event": "command", "text": "go", "anchor": "x"}, "anchor must be"),
        ({"event": "command", "text": "go", "anchor": True}, "anchor must be"),
        ({"event": "command", "text": "go", "anchor": -1.0}, "anchor must be"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "bogus"}, "mode must be"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "abs"}, "needs a group"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "abs", "group": " ; "},
         "needs a group"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "abs", "group": 3},
         "needs a group"),
        ({"event": "observe", "specs": [{"text": "pump"}], "group": "pump"}, "only allowed"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "corr", "group": "pump"},
         "only allowed"),
        *(
            ({"event": "expect", "assertions": [assertion]}, message)
            for assertion, message in (
                ({"check": "persistence", "name": "p"}, "needs a value"),
                ({"check": "kappa", "value": "abc"}, "needs a value"),
                ({"check": "kappa", "value": math.nan}, "needs a value"),
                ({"check": "anchor", "name": "p", "value": True}, "needs a value"),
                ({"check": "anchor", "name": "p", "value": 10**400}, "needs a value"),
                ({"check": "fragment_present", "name": ["p"]}, "needs a name"),
                ({"check": "fragment_absent"}, "needs a name"),
                ({"check": "persistence", "value": 1.0}, "needs a name"),
                ({"check": "kappa", "value": 1.0, "sector": ["perc"]}, "sector must be"),
                ({"check": "kappa", "value": 1.0, "sector": ""}, "sector must be"),
                ({"check": "kappa", "value": 1.0, "tol": -0.1}, "tol must be"),
                ({"check": "kappa", "value": 1.0, "tol": "x"}, "tol must be"),
                ({"check": "anchor", "name": "p", "value": 1, "tol": math.inf}, "tol must be"),
                ({"check": "is_vacuum", "value": 1}, "true or false"),
                ({"check": "action_fired"}, "needs an action"),
                ({"check": "action_not_fired", "action": 3}, "needs an action"),
            )
        ),
    ],
)
def test_timeline_validation(tmp_path, entry, message):
    path = write_scenario(tmp_path, minimal(timeline=[entry]))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize("anchor", [math.nan, math.inf])
@pytest.mark.parametrize(
    "section, where",
    [
        (lambda spec: {"memory": [{"text": "stored"}, spec]}, r"memory\[1\]"),
        (lambda spec: {"states": {"probe": [spec]}}, r"states\.probe\[0\]"),
        (lambda spec: {"axes": [{"label": "focus", "seed": [spec]}]}, r"axes\[0\]\.seed\[0\]"),
    ],
    ids=["memory", "states", "axis-seed"],
)
def test_non_finite_anchor_rejected_at_construction(tmp_path, section, where, anchor):
    # The store, the states and an axis seed all fail at load.
    path = write_scenario(tmp_path, minimal(**section({"text": "pump", "anchor": anchor})))
    with pytest.raises(ScenarioError, match=where + ": fragment .*anchor must be a finite"):
        SimulationRun(load_scenario(path))


def test_loader_accepts_full_shape(tmp_path):
    data = {
        "name": "full",
        "config": {"seed": 4},
        "memory": [{"text": "stored fact", "name": "fact"}],
        "rules": [{"trigger": "pump", "emit": {"text": "check panel", "name": "panel"}}],
        "lexicon": ["rain"],
        "axes": [{"label": "focus", "seed": [{"text": "survey the map"},
                                             {"text": "mark the map"}]}],
        "basins": [
            {
                "name": "act",
                "clauses": [{"kind": "token_present", "token": "go"}],
                "tau": 0.3,
            }
        ],
        "timeline": [{"event": "tick", "n": 1}],
        "states": {"probe": [{"text": "pump"}]},
    }
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert scenario.name == "full"
    assert scenario.config.seed == 4
    assert scenario.rules[0].name == "panel"
    assert scenario.rules[0].emit.text == "check panel"
    assert scenario.names == {"fact": 1}
    assert len(scenario.basins) == 1
    assert list(scenario.states) == ["probe"]


@pytest.mark.parametrize("word", ["", "!!", 5, ["a"], None])
def test_lexicon_entries_are_strings_with_a_token(tmp_path, word):
    path = write_scenario(tmp_path, minimal(lexicon=["rain", word]))
    with pytest.raises(ScenarioError, match=r"lexicon\[1\]: must be a string with a token"):
        load_scenario(path)


def test_each_static_spec_is_built_once_at_load(tmp_path, monkeypatch):
    built = []
    real = simulator.fragment_from_spec
    monkeypatch.setattr(simulator, "fragment_from_spec",
                        lambda spec, *a: built.append(spec["text"]) or real(spec, *a))
    data = minimal(
        memory=[{"text": "stored fact"}, {"text": "old chart", "name": "chart"}],
        states={"a": [{"text": "pump"}], "b": [{"text": "valve"}]},
        rules=[{"trigger": "pump", "emit": {"text": "check panel", "name": "panel"}}],
        axes=[{"label": "focus", "seed": [{"text": "survey the map"},
                                          {"text": "mark the map"}]}],
        timeline=[{"event": "observe", "specs": [{"text": "pump hums"}]},
                  {"event": "observe", "specs": [{"text": "pump rattles"}]}],
    )
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert built == ["check panel", "stored fact", "old chart",
                     "survey the map", "mark the map", "pump", "valve"]
    built.clear()
    run = SimulationRun(scenario)
    assert built == []  # each axis is derived from the tower kept since load
    result = run.run()
    assert built == ["pump hums", "pump rattles"]  # a fired emit is never rebuilt
    # The run's ids follow the store's 1..2; the emit draws 4, its refire 6.
    assert [e.payload["report"]["elaborated"] for e in result.trace.events
            if e.kind == "assimilate"] == [[4], []]
    assert run.names == {"chart": 2, "panel": 4}


def test_a_rule_emit_is_copied_only_when_it_enters(monkeypatch):
    copies = []
    real = Fragment.replace
    monkeypatch.setattr(Fragment, "replace", lambda f, **kw: (
        copies.append(kw["id"]) if kw.get("origin") == "elaborated" else None) or real(f, **kw))
    result = run_scenario(Path(__file__).parent.parent / "scenarios" / "elaboration_rules.json")
    entered = [i for e in result.trace.events if e.kind in ("assimilate", "integrate")
               for i in e.payload["report"]["elaborated"]]
    # A refire still draws its id (3, 6, 7, 8, 10 and 11 go unused), but is not copied.
    assert copies == entered == [5, 12]


def test_a_rule_trigger_is_tokenized_only_at_load(monkeypatch):
    run = SimulationRun(load_scenario(
        Path(__file__).parent.parent / "scenarios" / "elaboration_rules.json"))
    calls = []
    real = dynamics.tokenize
    monkeypatch.setattr(dynamics, "tokenize", lambda text: calls.append(text) or real(text))
    run.run()
    assert calls == []  # each rule keeps its trigger's tokens from construction


def test_scenario_name_defaults_to_file_stem(tmp_path):
    path = write_scenario(tmp_path, {"timeline": []}, name="stem_demo.json")
    assert load_scenario(path).name == "stem_demo"


# --------------------------------------------------------------------------
# Axes and standalone states
# --------------------------------------------------------------------------

def test_build_states_allocates_each_state_from_one(tmp_path):
    data = minimal(states={"a": [{"text": "pump"}, {"text": "valve"}], "b": [{"text": "hum"}]})
    states = load_scenario(write_scenario(tmp_path, data)).states
    assert sorted(states["a"].ids()) == [1, 2]
    assert sorted(states["b"].ids()) == [1]
    assert states["a"].clock == 0.0


def test_axis_duplicate_label_rejected_at_load(tmp_path):
    spec = {"label": "focus", "seed": [{"text": "survey the map"},
                                       {"text": "mark the map"}]}
    path = write_scenario(tmp_path, minimal(axes=[spec, dict(spec)]))
    with pytest.raises(ScenarioError, match="duplicate axis label 'focus'"):
        load_scenario(path)


@pytest.mark.parametrize(
    "axis, message",
    [
        ({"seed": [{"text": "survey the map"}]}, r"axes\[0\]: needs a label"),
        ({"label": "", "seed": [{"text": "survey the map"}]}, r"axes\[0\]: needs a label"),
        ({"label": 5, "seed": [{"text": "survey the map"}]}, r"axes\[0\]: needs a label"),
        ({"label": "focus"}, r"axes\[0\]: needs seed fragments"),
        ({"label": "focus", "seed": []}, r"axes\[0\]: needs seed fragments"),
    ],
    ids=["no-label", "empty-label", "int-label", "no-seed", "empty-seed"],
)
def test_axis_requires_label_and_seed_at_load(tmp_path, axis, message):
    path = write_scenario(tmp_path, minimal(axes=[axis]))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize(
    "axis, message",
    [
        # A singleton, non-null seed converges onto itself: zero direction.
        ({"label": "flat", "seed": [{"text": "pump hums"}]}, "degenerate"),
        ({"label": "flat", "max_k": 1,
          "seed": [{"text": f"reading {i} of the coolant line"} for i in range(8)]},
         "requires a converged tower"),
    ],
    ids=["degenerate", "not-converged"],
)
def test_run_refuses_an_axis_its_tower_cannot_orient(tmp_path, axis, message):
    # The tower loads, so `beliefsim tower` can show it; a run refuses it.
    focus = {"label": "focus", "seed": [{"text": "survey the map"}, {"text": "mark the map"}]}
    scenario = load_scenario(write_scenario(tmp_path, minimal(axes=[focus, axis])))
    assert list(scenario.towers) == ["focus", "flat"]
    with pytest.raises(ScenarioError, match=r"axes\[1\] \(flat\): .*" + message):
        SimulationRun(scenario)


def test_axis_tower_is_built_at_load_in_its_own_id_space(tmp_path):
    seed = [{"text": "survey the map"}, {"text": "mark the map"}]
    data = minimal(axes=[{"label": "a", "seed": seed}, {"label": "b", "seed": seed}],
                   memory=[{"text": "stored fact"}])
    towers = load_scenario(write_scenario(tmp_path, data)).towers
    for tower, null_seed in towers.values():
        assert not null_seed and tower.converged
        assert sorted(tower.levels[0].ids()) == [1, 2]
        assert min(tower.levels[1].ids()) == 3  # the tower draws ids above the seed's


# --------------------------------------------------------------------------
# Running timelines
# --------------------------------------------------------------------------

def test_observe_registers_names_and_checks_pass(tmp_path):
    data = minimal(
        timeline=[
            {"event": "observe", "specs": [{"text": "pump hums", "name": "hum"}]},
            {
                "event": "expect",
                "assertions": [
                    {"check": "fragment_present", "name": "hum"},
                    {"check": "is_vacuum", "value": False},
                ],
            },
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    assert len(result.assertions) == 2


def test_observe_enters_at_full_persistence_whatever_its_spec_says(tmp_path):
    data = minimal(
        timeline=[
            {"event": "tick", "n": 2},
            {"event": "observe", "specs": [{"text": "pump", "persistence": 0.2}]},
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    (pump,) = result.active.fragments
    assert (pump.persistence, pump.created_at) == (1.0, 2.0)


def test_bad_observe_spec_names_its_timeline_path(tmp_path):
    data = minimal(
        timeline=[
            {"event": "tick"},
            {"event": "observe", "specs": [{"text": "fine"}, {"text": "  "}]},
        ]
    )
    run = SimulationRun(load_scenario(write_scenario(tmp_path, data)))
    with pytest.raises(ScenarioError, match=r"^timeline\[1\]\.specs\[1\]: .*no tokens"):
        run.run()


def test_command_defaults(tmp_path):
    data = minimal(
        timeline=[{"event": "command", "text": "hold position", "name": "order"}]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    order = next(f for f in result.active.fragments if f.text == "hold position")
    assert order.sectors == frozenset({"task"})
    assert order.anchor == 5.0
    assert order.origin == "observed"


def test_ticks_advance_the_clock(tmp_path):
    data = minimal(timeline=[{"event": "tick", "n": 3}])
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.active.clock == 3.0


def test_elab_observation_conflict_is_refused_with_a_warning(tmp_path):
    data = minimal(
        timeline=[
            {
                "event": "observe",
                "specs": [{"text": "valve open", "key": "valve", "polarity": "+"}],
            },
            {
                "event": "observe",
                "mode": "elab",
                "specs": [{"text": "valve shut", "key": "valve", "polarity": "-", "name": "shut"},
                          {"text": "pump hums"}],
            },
            {"event": "tick"},
            {"event": "expect", "assertions": [{"check": "fragment_absent", "name": "shut"}]},
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok and result.warnings == 1
    # The whole input is refused: the state keeps only the first observation.
    assert [f.text for f in result.active.fragments] == ["valve open"]
    (warning,) = [e for e in result.trace.events if e.kind == "warning"]
    assert warning.payload == {
        "op": "assimilate",
        "message": "1 conflict(s) on key(s) ['valve']; "
                   "elaborative mode cannot revise — use corrective mode",
    }
    assert [e.kind for e in result.trace.events].count("assimilate") == 1


def test_run_mode_validated(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, minimal()))
    with pytest.raises(ScenarioError, match="mode"):
        SimulationRun(scenario, mode="dry")


def test_traces_are_deterministic(tmp_path):
    data = minimal(
        config={"seed": 9},
        lexicon=["rain", "wind", "hum"],
        timeline=[
            {"event": "observe", "specs": [{"text": "pump hums"}]},
            {"event": "tick", "n": 4},
        ],
    )
    path = write_scenario(tmp_path, data)
    first = run_scenario(path).trace.render()
    second = run_scenario(path).trace.render()
    assert first == second


def test_seed_override_lands_in_header_and_drift(tmp_path):
    data = minimal(
        config={"seed": 0},
        lexicon=["rain", "wind", "hum", "static", "flicker"],
        timeline=[{"event": "tick", "n": 5}],
    )
    path = write_scenario(tmp_path, data)
    with_default = run_scenario(path)
    with_seven = run_scenario(path, seed=7)
    assert with_default.seed == 0
    assert with_seven.seed == 7
    headers = [json.loads(r.trace.render().splitlines()[0]) for r in (with_default, with_seven)]
    assert headers[0]["header"]["seed"] == 0
    assert headers[1]["header"]["seed"] == 7


def test_drift_fills_the_vacuum(tmp_path):
    data = minimal(
        lexicon=["rain", "wind"],
        timeline=[
            {"event": "tick"},
            {"event": "expect", "assertions": [{"check": "is_vacuum", "value": False}]},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    kinds = [e.kind for e in result.trace.events]
    assert "drift" in kinds


def test_no_drift_without_lexicon(tmp_path):
    data = minimal(timeline=[{"event": "tick", "n": 2}])
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.active.is_vacuum
    assert all(e.kind != "drift" for e in result.trace.events)


def test_rule_fires_and_registers_name(tmp_path):
    data = minimal(
        rules=[
            {
                "trigger": "pump",
                "emit": {"text": "check the panel", "sector": "plan", "name": "followup"},
            }
        ],
        timeline=[
            {"event": "command", "text": "inspect the pump"},
            {
                "event": "expect",
                "assertions": [{"check": "fragment_present", "name": "followup"}],
            },
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    emitted = next(f for f in result.active.fragments if f.text == "check the panel")
    assert emitted.origin == "elaborated"
    assert emitted.sectors == frozenset({"plan"})


# --------------------------------------------------------------------------
# Effort gating in the tick
# --------------------------------------------------------------------------

def test_memory_cycle_starved_under_uniform_allocation(tmp_path):
    # A quiet tick allocates 10/7 per class; the three-step memory cycle
    # needs 3 up front, so the associative cue is skipped, tick after tick.
    data = minimal(
        memory=[{"text": "pump hums loudly"}],
        timeline=[
            {"event": "observe", "specs": [{"text": "pump hums"}]},
            {"event": "tick", "n": 2},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    skips = [e for e in result.trace.events if e.kind == "effort_skip"]
    memory_skips = [e for e in skips if e.payload["class"] == "memory"]
    assert len(memory_skips) == 2  # unfunded retries are not deduplicated
    assert all(e.payload["op"] == "memory_cycle" for e in memory_skips)
    assert all(e.kind != "query" for e in result.trace.events)


def test_goal_funds_the_full_memory_cycle(tmp_path):
    data = minimal(
        memory=[{"text": "fix the pump manual", "name": "manual"}],
        timeline=[
            {"event": "command", "text": "goal: fix the pump"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    kinds = [e.kind for e in result.trace.events]
    assert "query" in kinds
    assert "retrieve" in kinds
    assert "integrate" in kinds
    assert kinds.index("query") < kinds.index("retrieve") < kinds.index("integrate")
    # The retrieved copy landed in the active state.
    assert any(f.text == "fix the pump manual" for f in result.active.fragments)


def test_issued_cue_is_not_repeated(tmp_path):
    data = minimal(
        memory=[{"text": "fix the pump manual"}],
        timeline=[
            {"event": "command", "text": "goal: fix the pump"},
            {"event": "tick", "n": 3},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    goal_queries = [
        e for e in result.trace.events
        if e.kind == "query" and e.payload["cue"]["kind"] == "goal"
    ]
    assert len(goal_queries) == 1


def test_abs_observe_folds_its_group_into_a_summary(tmp_path):
    data = minimal(
        timeline=[
            {"event": "observe", "specs": [
                {"text": "coolant flow steady", "name": "steady"},
                {"text": "terrain grid", "name": "grid"},
            ]},
            {"event": "observe", "mode": "abs", "group": "coolant flow", "specs": [
                {"text": "coolant flow noisy", "name": "noisy"},
            ]},
        ],
    )
    run = SimulationRun(load_scenario(write_scenario(tmp_path, data)))
    result = run.run()
    report = [e for e in result.trace.events if e.kind == "assimilate"][-1].payload["report"]
    assert report["mode"] == "abs"
    (summary_id,) = report["abstracted"]
    summary = result.active.get(summary_id)
    assert summary.origin == "abstracted"
    assert summary.members == (run.names["steady"], run.names["noisy"])
    assert result.active.ids() == {summary_id, run.names["grid"]}


def test_vacuum_retrieval_emits_no_integration(tmp_path):
    # Store is empty, so the cue is issued but hits nothing.
    data = minimal(
        timeline=[
            {"event": "command", "text": "goal: chart the unmapped ridge"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    kinds = [e.kind for e in result.trace.events]
    assert "query" in kinds
    assert "retrieve" in kinds
    assert "integrate" not in kinds
    retrieve_event = next(e for e in result.trace.events if e.kind == "retrieve")
    assert retrieve_event.payload["ids"] == []


# --------------------------------------------------------------------------
# Basins and modes
# --------------------------------------------------------------------------

BASIN = {
    "name": "engage",
    "clauses": [{"kind": "token_present", "token": "ready"}],
    "tau": 0.3,
}


def test_basin_fires_in_live_mode(tmp_path):
    data = minimal(
        basins=[BASIN],
        timeline=[
            {"event": "command", "text": "crew ready"},
            {"event": "tick"},
            {
                "event": "expect",
                "assertions": [{"check": "action_fired", "action": "engage"}],
            },
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    assert result.fired == ["engage"]


def test_simulation_mode_blocks_basins(tmp_path):
    data = minimal(
        basins=[BASIN],
        timeline=[
            {"event": "command", "text": "crew ready"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data), mode="simulation")
    assert result.fired == []
    decisions = [e for e in result.trace.events if e.kind == "action_decision"]
    assert decisions
    assert decisions[0].payload["verdict"] == "blocked_simulation"


def test_set_mode_switches_mid_run(tmp_path):
    data = minimal(
        basins=[BASIN],
        timeline=[
            {"event": "set_mode", "mode": "simulation"},
            {"event": "command", "text": "crew ready"},
            {"event": "tick"},
            {"event": "set_mode", "mode": "live"},
            {"event": "command", "text": "crew ready again now"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    verdicts = [
        e.payload["verdict"]
        for e in result.trace.events
        if e.kind == "action_decision"
    ]
    assert verdicts[0] == "blocked_simulation"
    assert result.mode == "live"


# --------------------------------------------------------------------------
# Assertion semantics
# --------------------------------------------------------------------------

def test_failed_assertion_is_reported_not_raised(tmp_path):
    data = minimal(
        timeline=[
            {"event": "observe", "specs": [{"text": "pump", "name": "p"}]},
            {
                "event": "expect",
                "assertions": [{"check": "anchor", "name": "p", "value": 99.0}],
            },
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert not result.ok
    assert len(result.failures) == 1
    assert "anchor" in result.failures[0].detail


def test_absence_of_unregistered_name_is_vacuously_true(tmp_path):
    data = minimal(
        timeline=[
            {
                "event": "expect",
                "assertions": [
                    {"check": "fragment_absent", "name": "ghost"},
                    {"check": "fragment_present", "name": "ghost"},
                ],
            }
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    absent, present = result.assertions
    assert absent.ok
    assert not present.ok
    assert "never registered" in present.detail


def test_kappa_check_with_sector(tmp_path):
    data = minimal(
        timeline=[
            {
                "event": "observe",
                "mode": "conf",
                "specs": [
                    {"text": "valve open", "sector": "plan", "key": "valve",
                     "polarity": "+"},
                    {"text": "valve shut", "sector": "plan", "key": "valve",
                     "polarity": "-"},
                    {"text": "pump hums", "sector": "perc"},
                ],
            },
            {
                "event": "expect",
                "assertions": [
                    {"check": "kappa", "sector": "plan", "value": 0.5},
                    {"check": "kappa", "value": 0.7777777777, "tol": 1e-6},
                ],
            },
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok, [a.detail for a in result.failures]


def test_assertion_results_enter_the_trace(tmp_path):
    data = minimal(
        timeline=[
            {"event": "expect", "assertions": [{"check": "is_vacuum", "value": True}]}
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    events = [e for e in result.trace.events if e.kind == "assertion_result"]
    assert len(events) == 1
    assert events[0].payload["ok"] is True
    assert events[0].payload["check"] == "is_vacuum"


@settings(max_examples=200, deadline=None)
@given(state=states(max_frags=8), data=st.data())
def test_removed_ids_walk_matches_the_set_difference(state, data):
    keep = data.draw(st.lists(st.booleans(), min_size=len(state.fragments),
                              max_size=len(state.fragments)))
    afters = (
        BeliefState(
            tuple(f.replace(persistence=0.5) for f, kept in zip(state.fragments, keep) if kept),
            state.clock,
        ),
        nullify(state, data.draw(st.sampled_from((1.0, 40.0))), default_config()),
        annihilate_sector(state, data.draw(st.sampled_from(SECTORS))),
        state,
        BeliefState((), state.clock),
    )
    for after in afters:
        assert _removed_ids(state, after) == sorted(state.ids() - after.ids())


# --------------------------------------------------------------------------
# Fuzzed scenarios: load and construction either succeed or say why
# --------------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

SPEC_FIELDS = ("text", "sector", "sectors", "level", "anchor", "persistence",
               "key", "polarity", "name")


def near(values):
    """Mostly plausible values, sometimes any JSON at all."""
    return st.one_of(st.sampled_from(values), JSON)


SPEC = st.dictionaries(
    st.sampled_from(SPEC_FIELDS),
    near(["pump hums", "valve shut", "", "perc", "mem", 0, 1, 2.5, -1, "+", "-",
          ["perc", "mem"], [], "p"]),
    max_size=5,
)
SPECS = st.one_of(JSON, st.lists(SPEC, max_size=3))


def lists_of(item):
    return st.one_of(JSON, st.lists(item, max_size=3))


SECTIONS = {
    "name": JSON,
    "config": st.one_of(JSON, st.dictionaries(
        st.sampled_from(("delta", "embed_dim", "goal_marker", "seed", "window",
                         "load_coeffs", "sector_costs", "sector_priority", "l_max")),
        near([0.5, 16, "goal:", 3, [0.1, 1.0, 0.1], {"perc": 2.0}, ["task"], 1]),
        max_size=3,
    )),
    "memory": SPECS,
    "rules": lists_of(st.fixed_dictionaries(
        {"trigger": near(["pump", ""]), "emit": st.one_of(SPEC, JSON)})),
    "lexicon": lists_of(near(["pump", "", "hum"])),
    "axes": lists_of(st.fixed_dictionaries(
        {"label": near(["focus", ""]), "seed": SPECS},
        optional={"max_k": near([1, 3, 0]), "null_seed": JSON},
    )),
    "basins": lists_of(st.fixed_dictionaries(
        {"name": near(["b"])},
        optional={
            "clauses": lists_of(st.dictionaries(
                st.sampled_from(("kind", "sector", "minimum", "level", "tolerance", "token")),
                near(["token_present", "sector_density", "perc", 0.5, "go"]),
                max_size=3,
            )),
            "gate_policy": lists_of(st.dictionaries(
                st.sampled_from(("pattern", "action")), near(["stop", "veto"]), max_size=2)),
            "tau": near([0.5]),
        },
    )),
    "timeline": lists_of(st.dictionaries(
        st.sampled_from(("event", "specs", "text", "anchor", "mode", "n", "assertions")),
        near(["observe", "command", "tick", "expect", "go", 2, "auto", "bogus"]),
        max_size=4,
    )),
    "states": st.one_of(JSON, st.dictionaries(st.sampled_from(("a", "b")), SPECS, max_size=2)),
}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.fixed_dictionaries({}, optional=SECTIONS))
def test_any_json_loads_or_raises_scenario_error(tmp_path, data):
    path = write_scenario(tmp_path, data)
    try:
        scenario = load_scenario(path)
    except ScenarioError:
        return
    try:
        SimulationRun(scenario)
    except ScenarioError:
        pass
