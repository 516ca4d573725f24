"""Clause scoring, the veto ladder, and single-winner resolution."""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsim import execution
from beliefsim.core import BeliefState, tokenize
from beliefsim.execution import (
    ActionBasin,
    ActionDecision,
    Clause,
    GateRule,
    evaluate_action,
    readiness,
    resolve_actions,
)
from beliefsim.simulator import SimulationRun, load_scenario

from conftest import make_fragment, states


def basin_with(*clauses, name="act", tau=0.3, suppressors=(), gate_policy=()):
    return ActionBasin(
        name=name,
        clauses=tuple(clauses),
        tau=tau,
        suppressors=tuple(suppressors),
        gate_policy=tuple(gate_policy),
    )


def task_state(*texts, clock=0.0):
    frags = tuple(
        make_fragment(i + 1, text, sectors=("task",)) for i, text in enumerate(texts)
    )
    return BeliefState(frags, clock)


# --------------------------------------------------------------------------
# Clause construction and scoring
# --------------------------------------------------------------------------

def test_unknown_clause_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        Clause(kind="mood")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"kind": "sector_density", "minimum": 0.5}, "sector"),
        ({"kind": "sector_density", "sector": "task"}, "minimum"),
        ({"kind": "sector_density", "sector": "task", "minimum": 0.0}, "minimum"),
        ({"kind": "level_present"}, "level"),
        ({"kind": "level_present", "level": -1}, "level"),
        ({"kind": "coherence_conflict", "tolerance": 0.1}, "sector"),
        ({"kind": "coherence_conflict", "sector": "plan"}, "tolerance"),
        ({"kind": "token_present"}, "token"),
    ],
)
def test_clause_field_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Clause(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"kind": "sector_density", "sector": "perc", "minimum": 0.5, "level": 2}, "level"),
        ({"kind": "sector_density", "sector": "perc", "minimum": 0.5, "tolerance": 0.1},
         "tolerance"),
        ({"kind": "level_present", "level": 1, "sector": "perc"}, "sector"),
        ({"kind": "coherence_conflict", "sector": "plan", "tolerance": 0.1, "token": "go"},
         "token"),
        ({"kind": "token_present", "token": "go", "minimum": 0.5}, "minimum"),
    ],
)
def test_a_clause_field_its_kind_does_not_read_is_refused(kwargs, field):
    with pytest.raises(ValueError, match=f"^{kwargs['kind']} clause does not read {field}$"):
        Clause(**kwargs)


def test_each_clause_kind_takes_the_fields_its_table_names():
    """A clause of each kind built from every field ``_CLAUSES`` names for
    it; a token_present clause may leave its sector out."""
    values = {"sector": "perc", "minimum": 0.5, "level": 1, "tolerance": 0.1, "token": "go"}
    assert execution.CLAUSE_KINDS == tuple(execution._CLAUSES)
    for kind, reads in execution._CLAUSES.items():
        clause = Clause(kind, **{name: values[name] for name in reads})
        assert all(getattr(clause, name) == values[name] for name in reads)
    assert Clause("token_present", token="go").sector is None


def test_sector_density_scores_proportionally():
    clause = Clause(kind="sector_density", sector="task", minimum=0.8)
    state = BeliefState(
        (
            make_fragment(1, "pump", sectors=("task",), anchor=1.0),
            make_fragment(2, "valve", sectors=("perc",), anchor=1.0),
        ),
        0.0,
    )
    # density 0.5 against minimum 0.8
    assert clause.score(state) == pytest.approx(0.625)


def test_sector_density_saturates_at_one():
    clause = Clause(kind="sector_density", sector="task", minimum=0.5)
    assert clause.score(task_state("pump")) == 1.0


def test_level_present_is_exact():
    clause = Clause(kind="level_present", level=1)
    state = BeliefState((make_fragment(1, "pump", level=2),), 0.0)
    assert clause.score(state) == 0.0
    state = BeliefState((make_fragment(1, "pump", level=1),), 0.0)
    assert clause.score(state) == 1.0


def test_coherence_conflict_tolerance():
    clause = Clause(kind="coherence_conflict", sector="plan", tolerance=0.4)
    strife = BeliefState(
        (
            make_fragment(1, "valve open", sectors=("plan",), key="valve", polarity="+"),
            make_fragment(2, "valve shut", sectors=("plan",), key="valve", polarity="-"),
        ),
        0.0,
    )
    assert clause.score(strife) == 0.0  # incoherence 0.5 > 0.4
    relaxed = Clause(kind="coherence_conflict", sector="plan", tolerance=0.5)
    assert relaxed.score(strife) == 1.0


def test_token_present_with_and_without_sector():
    anywhere = Clause(kind="token_present", token="ready")
    only_task = Clause(kind="token_present", token="ready", sector="task")
    state = BeliefState((make_fragment(1, "crew ready", sectors=("perc",)),), 0.0)
    assert anywhere.score(state) == 1.0
    assert only_task.score(state) == 0.0


# --------------------------------------------------------------------------
# Gate rules
# --------------------------------------------------------------------------

def test_gate_rule_validation():
    with pytest.raises(ValueError, match="action"):
        GateRule(pattern="hold", action="pause")
    with pytest.raises(ValueError, match="pattern"):
        GateRule(pattern="  ", action="delay")


def test_gate_rule_matches_only_reflective_fragments():
    rule = GateRule(pattern="hold launch", action="delay")
    refl = BeliefState(
        (make_fragment(1, "hold launch until wind clears", sectors=("refl",)),), 0.0
    )
    perc = BeliefState(
        (make_fragment(1, "hold launch until wind clears", sectors=("perc",)),), 0.0
    )
    assert rule.matches(refl)
    assert not rule.matches(perc)


def test_gate_rule_needs_all_pattern_tokens_in_one_fragment():
    rule = GateRule(pattern="hold launch", action="delay")
    split = BeliefState(
        (
            make_fragment(1, "hold everything", sectors=("refl",)),
            make_fragment(2, "launch soon", sectors=("refl",)),
        ),
        0.0,
    )
    assert not rule.matches(split)


# --------------------------------------------------------------------------
# Basin readiness
# --------------------------------------------------------------------------

def test_basin_validation():
    clause = Clause(kind="token_present", token="go")
    with pytest.raises(ValueError, match="name"):
        ActionBasin(name="", clauses=(clause,), tau=0.3)
    with pytest.raises(ValueError, match="clause"):
        ActionBasin(name="act", clauses=(), tau=0.3)
    with pytest.raises(ValueError, match="tau"):
        ActionBasin(name="act", clauses=(clause,), tau=1.0)


def test_readiness_is_geometric_mean():
    basin = basin_with(
        Clause(kind="sector_density", sector="task", minimum=0.8),
        Clause(kind="token_present", token="pump"),
    )
    state = BeliefState(
        (
            make_fragment(1, "pump", sectors=("task",)),
            make_fragment(2, "valve", sectors=("perc",)),
        ),
        0.0,
    )
    value, scores = readiness(basin, state)
    assert scores == (pytest.approx(0.625), 1.0)
    assert value == pytest.approx(math.sqrt(0.625))


def test_readiness_zero_clause_vetoes_everything():
    basin = basin_with(
        Clause(kind="token_present", token="pump"),
        Clause(kind="token_present", token="unicorn"),
    )
    value, scores = readiness(basin, task_state("pump hums"))
    assert value == 0.0
    assert scores == (1.0, 0.0)


class TestReadinessLaws:
    @settings(max_examples=60, deadline=None)
    @given(state=states())
    def test_bounded_in_unit_interval(self, state):
        basin = basin_with(
            Clause(kind="sector_density", sector="perc", minimum=0.5),
            Clause(kind="coherence_conflict", sector="perc", tolerance=0.5),
        )
        value, scores = readiness(basin, state)
        assert 0.0 <= value <= 1.0
        assert all(0.0 <= s <= 1.0 for s in scores)
        # Geometric mean sits between the extremes of its inputs.
        if all(s > 0 for s in scores):
            assert min(scores) - 1e-12 <= value <= max(scores) + 1e-12


# --------------------------------------------------------------------------
# The veto ladder
# --------------------------------------------------------------------------

READY = Clause(kind="token_present", token="ready")


class Counted:
    """A clause or gate rule whose ``score`` and ``matches`` calls are counted."""

    def __init__(self, wrapped) -> None:
        self.wrapped, self.calls = wrapped, 0

    def __getattr__(self, name):
        return getattr(self.wrapped, name)

    def score(self, state):
        self.calls += 1
        return self.wrapped.score(state)

    def matches(self, state):
        self.calls += 1
        return self.wrapped.matches(state)


def test_fired_on_clean_descent():
    basin = basin_with(READY)
    decision = evaluate_action(basin, task_state("crew ready"), 0.0, "active")
    assert decision.verdict == "fired"
    assert decision.reason == ""
    assert decision.readiness == 1.0
    assert decision.momentum == 1.0


def test_suppressor_outranks_everything():
    later = Counted(Clause(kind="token_present", token="crew"))  # also saturated
    basin = basin_with(
        READY,
        suppressors=[Clause(kind="token_present", token="abort"), later],
        gate_policy=[GateRule(pattern="ready", action="suppress")],
    )
    state = task_state("crew ready", "abort signal")
    decision = evaluate_action(basin, state, 0.0, "active")
    assert decision.verdict == "suppressed"
    assert decision.reason == "suppressor saturated"
    assert later.calls == 0  # the walk stops at the first saturated suppressor


def test_below_threshold_verdict():
    basin = basin_with(
        Clause(kind="sector_density", sector="task", minimum=0.9), tau=0.6
    )
    state = BeliefState(
        (
            make_fragment(1, "pump", sectors=("task",)),
            make_fragment(2, "valve", sectors=("perc",)),
        ),
        0.0,
    )
    decision = evaluate_action(basin, state, 0.0, "active")
    assert decision.verdict == "below_threshold"
    assert decision.reason == "readiness 0.555556 <= tau 0.6"
    assert decision.readiness == pytest.approx(0.5 / 0.9)


def test_threshold_boundary_is_exclusive():
    basin = basin_with(READY, tau=0.0)
    # Readiness 1.0 > tau 0.0 passes; readiness equal to tau would not.
    fired = evaluate_action(basin, task_state("crew ready"), 0.5, "active")
    assert fired.verdict == "fired"
    flat = basin_with(Clause(kind="token_present", token="missing"), tau=0.0)
    stuck = evaluate_action(flat, task_state("crew ready"), -1.0, "active")
    assert stuck.verdict == "below_threshold"  # 0.0 <= tau


def test_no_momentum_when_readiness_stalls():
    basin = basin_with(READY)
    decision = evaluate_action(basin, task_state("crew ready"), 1.0, "active")
    assert decision.verdict == "no_momentum"
    assert decision.reason == "momentum 0 <= 0"
    assert decision.momentum == 0.0


def test_gate_delay_and_suppress_verdicts():
    state = BeliefState(
        (
            make_fragment(1, "crew ready", sectors=("task",)),
            make_fragment(2, "hold launch for weather", sectors=("refl",)),
        ),
        0.0,
    )
    delayed = evaluate_action(
        basin_with(READY, gate_policy=[GateRule(pattern="hold launch", action="delay")]),
        state, 0.0, "active",
    )
    assert (delayed.verdict, delayed.reason) == ("gated_delay", "gate pattern 'hold launch'")
    squashed = evaluate_action(
        basin_with(READY, gate_policy=[GateRule(pattern="hold launch", action="suppress")]),
        state, 0.0, "active",
    )
    assert (squashed.verdict, squashed.reason) == ("gated_suppress", "gate pattern 'hold launch'")


def test_gate_approval_stops_the_walk():
    state = BeliefState(
        (
            make_fragment(1, "crew ready", sectors=("task",)),
            make_fragment(2, "launch approved by control", sectors=("refl",)),
        ),
        0.0,
    )
    basin = basin_with(
        READY,
        gate_policy=[
            GateRule(pattern="approved", action="approve"),
            GateRule(pattern="launch", action="suppress"),  # would match, never reached
        ],
    )
    decision = evaluate_action(basin, state, 0.0, "active")
    assert decision.verdict == "fired"


def test_gate_first_match_wins():
    state = BeliefState(
        (
            make_fragment(1, "crew ready", sectors=("task",)),
            make_fragment(2, "hold launch for weather", sectors=("refl",)),
        ),
        0.0,
    )
    basin = basin_with(
        READY,
        gate_policy=[
            GateRule(pattern="hold", action="delay"),
            GateRule(pattern="hold launch", action="suppress"),
        ],
    )
    assert evaluate_action(basin, state, 0.0, "active").verdict == "gated_delay"


def test_simulation_mode_blocks_firing():
    basin = basin_with(READY)
    decision = evaluate_action(basin, task_state("crew ready"), 0.0, "simulation")
    assert decision.verdict == "blocked_simulation"
    assert decision.reason == "simulation mode blocks outward actions"
    assert decision.readiness == 1.0  # readiness still measured honestly


def test_ladder_order_momentum_before_gates():
    # A gate would match, but stalled momentum is checked first.
    state = BeliefState(
        (
            make_fragment(1, "crew ready", sectors=("task",)),
            make_fragment(2, "hold launch", sectors=("refl",)),
        ),
        0.0,
    )
    gate = Counted(GateRule(pattern="hold", action="suppress"))
    basin = basin_with(READY, gate_policy=[gate])
    decision = evaluate_action(basin, state, 1.0, "active")
    assert decision.verdict == "no_momentum"
    assert gate.calls == 0
    assert evaluate_action(basin, state, 0.0, "active").verdict == "gated_suppress"
    assert gate.calls == 1


# --------------------------------------------------------------------------
# Resolution
# --------------------------------------------------------------------------

def fired_decision(name: str, value: float) -> ActionDecision:
    return ActionDecision(name, "fired", value, value)


def test_resolution_keeps_single_winner():
    decisions = [fired_decision("alpha", 0.6), fired_decision("beta", 0.9)]
    resolved = resolve_actions(decisions)
    verdicts = {d.action: d.verdict for d in resolved}
    assert verdicts == {"alpha": "gated_delay", "beta": "fired"}
    loser = next(d for d in resolved if d.action == "alpha")
    assert loser.reason == "lost_resolution"
    assert loser.readiness == 0.6  # measurement is preserved on demotion


def test_resolution_tie_prefers_lexicographically_first():
    decisions = [fired_decision("zulu", 0.7), fired_decision("alpha", 0.7)]
    resolved = resolve_actions(decisions)
    verdicts = {d.action: d.verdict for d in resolved}
    assert verdicts == {"alpha": "fired", "zulu": "gated_delay"}


def test_resolution_handles_unequal_name_lengths():
    decisions = [fired_decision("ab", 0.7), fired_decision("a", 0.7)]
    resolved = resolve_actions(decisions)
    verdicts = {d.action: d.verdict for d in resolved}
    assert verdicts == {"a": "fired", "ab": "gated_delay"}


def test_resolution_leaves_non_fired_untouched():
    decisions = [
        fired_decision("alpha", 0.6),
        ActionDecision("beta", "below_threshold", 0.1, 0.1),
    ]
    resolved = resolve_actions(decisions)
    assert resolved == decisions


def test_resolution_of_nothing_is_nothing():
    assert resolve_actions([]) == []


class TestResolutionLaws:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=0, max_size=6)
    )
    def test_at_most_one_fires(self, values):
        decisions = [fired_decision(f"act{i}", v) for i, v in enumerate(values)]
        resolved = resolve_actions(decisions)
        assert sum(1 for d in resolved if d.verdict == "fired") <= 1
        if values:
            winner = [d for d in resolved if d.verdict == "fired"]
            assert len(winner) == 1
            assert winner[0].readiness == max(values)


def test_gate_rules_tokenize_their_patterns_only_at_load(monkeypatch):
    scenario = load_scenario(Path(__file__).parent.parent / "scenarios" / "action_vetoes.json")
    assert any(b.gate_policy for b in scenario.basins)
    calls = []
    monkeypatch.setattr(execution, "tokenize", lambda text: calls.append(text) or tokenize(text))
    SimulationRun(scenario).run()
    assert calls == []
