"""Self-measurement, reflective write-back, effort, and regulation choices."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsim.config import default_config
from beliefsim.core import BeliefState, IdAllocator, embed_state
from beliefsim.geometry import distance
from beliefsim.regulation import (
    EFFORT_CLASSES,
    EFFORT_COSTS,
    META_ANCHOR,
    IntrospectiveReport,
    allocate_effort,
    coherence,
    cognitive_load,
    introspect,
    meta_assimilate,
    meta_depth,
    regulate,
    uniform_budget,
)
from beliefsim.simulator import SimulationRun, load_scenario
from beliefsim.tower import EpistemicAxis

from conftest import SECTORS, make_fragment, states
from reference import meta_assimilate as reference_meta_assimilate

import numpy as np


def oracle_coherence(frags) -> float:
    """Independent pair-counting implementation used as the reference."""
    n = len(frags)
    if n == 0:
        return 1.0
    clashes = sum(
        1
        for a, b in itertools.combinations(frags, 2)
        if a.key is not None
        and b.key == a.key
        and b.polarity is not None
        and a.polarity != b.polarity
    )
    return 1.0 - (2 * clashes) / (n * n)


def report_with(**overrides) -> IntrospectiveReport:
    base = dict(
        tick=0.0,
        kappa_global=1.0,
        kappa_by_sector={},
        load=1.0,
        theta_by_axis={},
        velocity=0.0,
        depth=1,
    )
    base.update(overrides)
    return IntrospectiveReport(**base)


# --------------------------------------------------------------------------
# Coherence
# --------------------------------------------------------------------------

def test_vacuum_is_fully_coherent():
    assert coherence(BeliefState((), 0.0)) == 1.0


def test_direct_contradiction_scores_half():
    state = BeliefState(
        (
            make_fragment(1, "valve open", key="valve", polarity="+"),
            make_fragment(2, "valve shut", key="valve", polarity="-"),
        ),
        0.0,
    )
    assert coherence(state) == pytest.approx(0.5)


def test_neutral_content_dilutes_a_dispute():
    state = BeliefState(
        (
            make_fragment(1, "valve open", key="valve", polarity="+"),
            make_fragment(2, "valve shut", key="valve", polarity="-"),
            make_fragment(3, "pump hums"),
        ),
        0.0,
    )
    assert coherence(state) == pytest.approx(7.0 / 9.0)


def test_sector_coherence_sees_only_that_sector():
    state = BeliefState(
        (
            make_fragment(1, "valve open", sectors=("plan",), key="valve", polarity="+"),
            make_fragment(2, "valve shut", sectors=("plan",), key="valve", polarity="-"),
            make_fragment(3, "pump hums", sectors=("perc",)),
        ),
        0.0,
    )
    assert coherence(state, "plan") == pytest.approx(0.5)
    assert coherence(state, "perc") == 1.0
    assert coherence(state, "lang") == 1.0  # empty projection is coherent


class TestCoherenceOracle:
    @settings(max_examples=120, deadline=None)
    @given(state=states(keyed=True))
    def test_matches_pair_counting_reference(self, state):
        assert coherence(state) == oracle_coherence(state.fragments)

    @settings(max_examples=60, deadline=None)
    @given(state=states(keyed=True))
    def test_bounded_and_vacuum_safe(self, state):
        value = coherence(state)
        assert 0.0 <= value <= 1.0


# --------------------------------------------------------------------------
# Load
# --------------------------------------------------------------------------

def test_load_hand_oracle(cfg):
    state = BeliefState(
        (
            make_fragment(1, "pump", sectors=("task",), anchor=3.0),
            make_fragment(2, "valve", sectors=("perc",), anchor=1.0),
        ),
        0.0,
    )
    # densities: task 0.75, perc 0.25; default unit costs sum to 1.0
    # 0.01 * 2 fragments + 1.0 * 1.0 + 0.1 * rate 4
    assert cognitive_load(state, cfg, 4.0) == pytest.approx(1.42)


def test_load_respects_sector_costs():
    cfg = default_config().replace(sector_costs={"task": 2.0})
    state = BeliefState(
        (
            make_fragment(1, "pump", sectors=("task",), anchor=3.0),
            make_fragment(2, "valve", sectors=("perc",), anchor=1.0),
        ),
        0.0,
    )
    # sector term becomes 0.75 * 2 + 0.25 * 1 = 1.75
    assert cognitive_load(state, cfg, 4.0) == pytest.approx(2.17)


def test_load_counts_overlapping_sectors_twice(cfg):
    state = BeliefState((make_fragment(1, "pump", sectors=("perc", "task")),), 0.0)
    # The fragment is fully active in both sectors.
    assert cognitive_load(state, cfg, 0.0) == pytest.approx(0.01 + 2.0)


def test_load_rejects_negative_rate(cfg):
    with pytest.raises(ValueError, match="rate"):
        cognitive_load(BeliefState((), 0.0), cfg, -1.0)


def test_vacuum_load_is_rate_only(cfg):
    assert cognitive_load(BeliefState((), 0.0), cfg, 7.0) == pytest.approx(0.7)


# --------------------------------------------------------------------------
# Introspection
# --------------------------------------------------------------------------

def test_introspect_snapshot_fields(cfg):
    state = BeliefState(
        (
            make_fragment(1, "valve open", sectors=("plan",), key="valve", polarity="+"),
            make_fragment(2, "valve shut", sectors=("plan",), key="valve", polarity="-"),
        ),
        6.0,
    )
    report = introspect(state, None, {}, cfg, rate=2.0)
    assert report.tick == 6.0
    assert report.kappa_global == pytest.approx(0.5)
    assert report.kappa_by_sector == {"plan": pytest.approx(0.5)}
    assert report.velocity == 0.0
    assert report.depth == 1
    assert report.theta_by_axis == {}


def test_introspect_velocity_is_distance_to_previous(cfg):
    prev = BeliefState((make_fragment(1, "coolant flow"),), 0.0)
    curr = BeliefState((make_fragment(1, "terrain grid"),), 1.0)
    report = introspect(curr, embed_state(prev, cfg.embed_dim), {}, cfg, rate=0.0)
    assert report.velocity == distance(curr, prev, cfg)


def test_introspect_reads_every_axis(cfg):
    state = BeliefState((make_fragment(1, "coolant flow"),), 0.0)
    direction = embed_state(state, cfg.embed_dim)
    axis = EpistemicAxis(
        label="focus", origin=np.zeros(cfg.embed_dim), direction=direction
    )
    report = introspect(state, None, {"focus": axis}, cfg, rate=0.0)
    assert report.theta_by_axis["focus"] == pytest.approx(0.0, abs=1e-9)


def test_meta_depth_tracks_reflection_levels(cfg):
    plain = BeliefState((make_fragment(1, "pump"),), 0.0)
    assert meta_depth(plain) == 1
    with_meta = BeliefState(
        (make_fragment(1, "coherence global low", sectors=("refl",), origin="meta", level=2),),
        0.0,
    )
    assert meta_depth(with_meta) == 2


# --------------------------------------------------------------------------
# Meta-assimilation
# --------------------------------------------------------------------------

def breached_state(clock=0.0):
    return BeliefState(
        (
            make_fragment(1, "valve open", sectors=("plan",), key="valve", polarity="+"),
            make_fragment(2, "valve shut", sectors=("plan",), key="valve", polarity="-"),
        ),
        clock,
    )


def test_meta_assimilate_writes_reflective_fragments(cfg):
    state = breached_state()
    report = introspect(state, None, {}, cfg, rate=0.0)
    out, emitted, warnings = meta_assimilate(state, report, cfg, IdAllocator(10))
    assert warnings == []
    texts = sorted(f.text for f in emitted)
    assert texts == ["coherence global low 0.5", "coherence plan low 0.5"]
    for f in emitted:
        assert f.origin == "meta"
        assert f.sectors == frozenset({"refl"})
        assert f.anchor == META_ANCHOR
        assert f.level == 2
    assert meta_depth(out) == 2


def test_meta_assimilate_reports_high_load(cfg):
    report = report_with(load=12.5)
    state = BeliefState((make_fragment(1, "pump"),), 0.0)
    out, emitted, _ = meta_assimilate(state, report, cfg, IdAllocator(10))
    assert [f.text for f in emitted] == ["load global high 12.5"]


def test_meta_assimilate_reports_axis_drift(cfg):
    report = report_with(theta_by_axis={"focus": 0.8355})
    state = BeliefState((make_fragment(1, "pump"),), 0.0)
    _, emitted, _ = meta_assimilate(state, report, cfg, IdAllocator(10))
    assert [f.text for f in emitted] == ["orientation focus high 0.84"]


def test_meta_assimilate_updates_slot_in_place(cfg):
    state = breached_state()
    report = introspect(state, None, {}, cfg, rate=0.0)
    once, first, _ = meta_assimilate(state, report, cfg, IdAllocator(10))
    report2 = introspect(once, None, {}, cfg, rate=0.0)
    twice, second, _ = meta_assimilate(once, report2, cfg, IdAllocator(50))
    # Re-breaching the same (metric, target) reuses its slot: every second-pass
    # write lands on a first-pass id, and the reflection count does not grow.
    # (The global breach clears on the second pass — the meta fragments
    # themselves dilute the conflict density — so only the plan slot repeats.)
    assert second != []
    assert {f.id for f in second} <= {f.id for f in first}
    metas = [f for f in twice.fragments if f.origin == "meta"]
    assert len(metas) == len(first)


@pytest.mark.parametrize("target", ["a_b", "Task", "task-focus"])
def test_meta_assimilate_finds_the_slot_of_a_multi_token_target(cfg, target):
    # A target that is not one lowercase word ("a_b" tokenizes to a, b)
    # keeps one slot, and never takes over the slot of target "a".
    report = report_with(kappa_by_sector={"a": 0.5, target: 0.25})
    state = BeliefState((make_fragment(1, "pump"),), 0.0)
    ids = IdAllocator(10)
    for _ in range(3):
        state, _, _ = meta_assimilate(state, report, cfg, ids)
        metas = sorted(f.text for f in state.fragments if f.origin == "meta")
        assert metas == sorted(["coherence a low 0.5", f"coherence {target} low 0.25"])


def test_meta_assimilate_stacks_reflective_breach_one_deeper(cfg):
    # A dispute inside the reflective sector itself: the summary must sit
    # above the deepest existing reflection.
    state = BeliefState(
        (
            make_fragment(1, "report says fine", sectors=("refl",), key="report",
                          polarity="+"),
            make_fragment(2, "report says broken", sectors=("refl",), key="report",
                          polarity="-"),
        ),
        0.0,
    )
    report = introspect(state, None, {}, cfg, rate=0.0)
    out, emitted, warnings = meta_assimilate(state, report, cfg, IdAllocator(10))
    assert warnings == []
    by_text = {f.text: f for f in emitted}
    assert by_text["coherence global low 0.5"].level == 2
    assert by_text["coherence refl low 0.5"].level == 3
    assert meta_depth(out) == 3


def test_meta_assimilate_caps_reflection_depth():
    cfg = default_config().replace(meta_depth_max=2)
    state = BeliefState(
        (
            make_fragment(1, "report says fine", sectors=("refl",), key="report",
                          polarity="+"),
            make_fragment(2, "report says broken", sectors=("refl",), key="report",
                          polarity="-"),
        ),
        0.0,
    )
    report = introspect(state, None, {}, cfg, rate=0.0)
    out, emitted, warnings = meta_assimilate(state, report, cfg, IdAllocator(10))
    # The global breach fits at depth 2; the refl-target one would need 3.
    assert [f.text for f in emitted] == ["coherence global low 0.5"]
    assert len(warnings) == 1
    assert "depth cap" in warnings[0]
    assert meta_depth(out) == 2


# Readings either side of the default thresholds (kappa_crit 0.8, l_max 10,
# tau_theta 0.8); "global" as a sector name writes the global slot twice.
KAPPAS = st.sampled_from((0.25, 0.5, 0.79, 0.8, 1.0))


@st.composite
def reports(draw):
    sectors = draw(st.lists(st.sampled_from(SECTORS[:5] + ("global",)), unique=True, max_size=4))
    return IntrospectiveReport(
        tick=0.0,
        kappa_global=draw(KAPPAS),
        kappa_by_sector={s: draw(KAPPAS) for s in sectors},
        load=draw(st.sampled_from((2.0, 10.0, 12.5))),
        theta_by_axis={a: draw(st.sampled_from((0.1, 0.9))) for a in
                       draw(st.lists(st.sampled_from(("ax", "refl")), unique=True))},
        velocity=0.0,
        depth=1,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    state=states(max_frags=5, keyed=True),
    rounds=st.lists(reports(), min_size=1, max_size=4),
    depth_max=st.integers(1, 4),
)
def test_meta_assimilate_matches_the_per_entry_loop(state, rounds, depth_max):
    """Rounds of reflection give the states, fragments, warnings and ids of
    the loop that reads every row and edits the table once per breach."""
    cfg = default_config().replace(meta_depth_max=depth_max)
    fast_ids, slow_ids = IdAllocator(100), IdAllocator(100)
    fast = slow = state
    for report in rounds:
        fast, fast_emitted, fast_warnings = meta_assimilate(fast, report, cfg, fast_ids)
        slow, slow_emitted, slow_warnings = reference_meta_assimilate(slow, report, cfg, slow_ids)
        assert fast == slow
        assert fast_emitted == slow_emitted
        assert fast_warnings == slow_warnings
        assert meta_depth(fast) == meta_depth(slow)
    assert fast_ids.next() == slow_ids.next()


def test_meta_assimilate_quiet_report_writes_nothing(cfg):
    state = BeliefState((make_fragment(1, "pump"),), 0.0)
    report = introspect(state, None, {}, cfg, rate=0.0)
    out, emitted, warnings = meta_assimilate(state, report, cfg, IdAllocator(10))
    assert emitted == []
    assert warnings == []
    assert out == state


# --------------------------------------------------------------------------
# Effort budget
# --------------------------------------------------------------------------

def test_uniform_budget_splits_the_total_evenly(cfg):
    budget = uniform_budget(cfg)
    share = cfg.effort_total / len(EFFORT_CLASSES)
    assert budget == {c: share for c in EFFORT_CLASSES}
    assert sum(budget.values()) == pytest.approx(cfg.effort_total)


def test_ledger_charge_and_refusal(tmp_path):
    # The memory class pays memory_cycle's 3 units out of 5, then refuses a
    # second cycle with 2 left and spends nothing.
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"name": "case", "timeline": []}), encoding="utf-8")
    run = SimulationRun(load_scenario(path))
    assert EFFORT_COSTS["memory_cycle"] == ("memory", 3.0)
    run.budget["memory"] = 5.0
    assert run._afford("memory_cycle")
    assert run.budget["memory"] == 2.0
    assert not run._afford("memory_cycle")  # refused, nothing spent
    assert run.budget["memory"] == 2.0
    assert [e.kind for e in run.trace.events] == ["effort_skip"]


def test_every_effort_cost_names_a_class_and_positive_units():
    # Whole units, so the run's subtractions from a class's units are exact.
    assert {cls for cls, _ in EFFORT_COSTS.values()} <= set(EFFORT_CLASSES)
    assert all(isinstance(units, float) and units > 0 and units.is_integer()
               for _, units in EFFORT_COSTS.values())


# --------------------------------------------------------------------------
# Effort allocation branches
# --------------------------------------------------------------------------

def test_allocation_coherence_breach_funds_correction(cfg):
    budget = allocate_effort(report_with(kappa_global=0.5), False, cfg)
    assert budget["corrective"] == pytest.approx(6.0)
    assert budget["monitors"] == pytest.approx(2.0)
    assert budget["rest"] == pytest.approx(2.0)
    assert budget["memory"] == 0.0


def test_allocation_sector_breach_alone_still_counts(cfg):
    report = report_with(kappa_by_sector={"plan": 0.5})
    assert allocate_effort(report, True, cfg)["corrective"] == pytest.approx(6.0)


def test_allocation_overload_funds_pruning(cfg):
    budget = allocate_effort(report_with(load=12.0), False, cfg)
    assert budget["nullify"] == pytest.approx(5.0)
    assert budget["abstraction"] == pytest.approx(3.0)
    assert budget["monitors"] == pytest.approx(2.0)


def test_allocation_goals_fund_planning_and_memory(cfg):
    budget = allocate_effort(report_with(), True, cfg)
    assert budget["planning"] == pytest.approx(5.0)
    assert budget["memory"] == pytest.approx(3.0)
    assert budget["monitors"] == pytest.approx(2.0)


def test_allocation_quiet_tick_is_uniform(cfg):
    budget = allocate_effort(report_with(), False, cfg)
    share = cfg.effort_total / len(EFFORT_CLASSES)
    assert all(v == pytest.approx(share) for v in budget.values())


def test_allocation_coherence_preempts_overload_and_goals(cfg):
    report = report_with(kappa_global=0.5, load=99.0)
    budget = allocate_effort(report, True, cfg)
    assert budget["corrective"] == pytest.approx(6.0)
    assert budget["nullify"] == 0.0
    assert budget["planning"] == 0.0


def test_allocation_always_spends_the_whole_budget(cfg):
    for report, goals in (
        (report_with(kappa_global=0.0), False),
        (report_with(load=50.0), False),
        (report_with(), True),
        (report_with(), False),
    ):
        budget = allocate_effort(report, goals, cfg)
        assert list(budget) == list(EFFORT_CLASSES)
        assert sum(budget.values()) == pytest.approx(cfg.effort_total)


# --------------------------------------------------------------------------
# Regulation decisions
# --------------------------------------------------------------------------

def test_regulate_all_clear(cfg):
    action = regulate(report_with(), BeliefState((), 0.0), cfg, 0)
    assert action.kind == "none"


def test_regulate_fresh_breach_sweeps_first(cfg):
    state = breached_state()
    report = introspect(state, None, {}, cfg, rate=0.0)
    action = regulate(report, state, cfg, kappa_breach_ticks=1)
    assert action.kind == "corrective_assimilation"
    assert "kappa" in action.reason


def test_regulate_stale_breach_annihilates_most_conflicted(cfg):
    state = BeliefState(
        (
            make_fragment(1, "valve open", sectors=("plan",), key="valve", polarity="+"),
            make_fragment(2, "valve shut", sectors=("plan",), key="valve", polarity="-"),
            make_fragment(3, "seal holds", sectors=("mem",), key="seal", polarity="+"),
            make_fragment(4, "seal leaks", sectors=("mem",), key="seal", polarity="-"),
            make_fragment(5, "seal intact", sectors=("mem",), key="seal", polarity="+"),
        ),
        0.0,
    )
    report = introspect(state, None, {}, cfg, rate=0.0)
    action = regulate(report, state, cfg, kappa_breach_ticks=cfg.patience)
    assert action.kind == "annihilate_sector"
    assert action.target == "mem"  # two conflicting pairs beat plan's one


def test_regulate_cross_sector_conflict_falls_back_to_first_sector(cfg):
    state = BeliefState(
        (
            make_fragment(1, "valve open", sectors=("plan",), key="valve", polarity="+"),
            make_fragment(2, "valve shut", sectors=("task",), key="valve", polarity="-"),
        ),
        0.0,
    )
    report = introspect(state, None, {}, cfg, rate=0.0)
    action = regulate(report, state, cfg, kappa_breach_ticks=cfg.patience)
    assert action.kind == "annihilate_sector"
    assert action.target == "plan"  # min of the pair's sector union


def test_regulate_patience_boundary(cfg):
    state = breached_state()
    report = introspect(state, None, {}, cfg, rate=0.0)
    before = regulate(report, state, cfg, kappa_breach_ticks=cfg.patience - 1)
    at = regulate(report, state, cfg, kappa_breach_ticks=cfg.patience)
    assert before.kind == "corrective_assimilation"
    assert at.kind == "annihilate_sector"


def test_regulate_overload_burns_lowest_priority_sector(cfg):
    state = BeliefState(
        (
            make_fragment(1, "pump", sectors=("task",)),
            make_fragment(2, "valve", sectors=("perc",)),
        ),
        0.0,
    )
    action = regulate(report_with(load=12.0), state, cfg, 0)
    assert action.kind == "accelerate_nullify"
    assert action.target == "perc"  # last in the priority order


def test_regulate_unlisted_sector_ranks_after_listed(cfg):
    state = BeliefState(
        (
            make_fragment(1, "pump", sectors=("perc",)),
            make_fragment(2, "valve", sectors=("scratch",)),
        ),
        0.0,
    )
    action = regulate(report_with(load=12.0), state, cfg, 0)
    assert action.target == "scratch"


def test_regulate_drift_triggers_realign_on_first_label(cfg):
    report = report_with(theta_by_axis={"zeta": 1.1, "alpha": 0.9})
    state = BeliefState((make_fragment(1, "pump"),), 0.0)
    action = regulate(report, state, cfg, 0)
    assert action.kind == "realign"
    assert action.target == "alpha"  # sorted order, not magnitude


def test_regulate_priority_order(cfg):
    # Coherence beats load beats orientation.
    state = breached_state()
    everything = report_with(
        kappa_global=0.5, load=50.0, theta_by_axis={"focus": 2.0}
    )
    assert regulate(everything, state, cfg, 0).kind == "corrective_assimilation"
    load_and_theta = report_with(load=50.0, theta_by_axis={"focus": 2.0})
    assert regulate(load_and_theta, state, cfg, 0).kind == "accelerate_nullify"
