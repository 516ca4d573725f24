"""Cue generation, store retrieval, and re-integration."""

from __future__ import annotations

import pytest

from beliefsim import core, memory
from beliefsim.core import BeliefState, IdAllocator, embed_tokens
from beliefsim.dynamics import nullify
from beliefsim.memory import (
    QueryCue,
    generate_query,
    integrate_retrieved,
    retrieval_score,
    retrieve,
)

from conftest import make_fragment

VACUUM = BeliefState((), 0.0)


# --------------------------------------------------------------------------
# Query generation
# --------------------------------------------------------------------------

def test_unknown_trigger_rejected(cfg):
    with pytest.raises(ValueError, match="trigger"):
        generate_query(VACUUM, "panic", cfg)


@pytest.mark.parametrize("trigger", ["goal", "coherence", "associative"])
def test_vacuum_yields_no_cue(cfg, trigger):
    assert generate_query(VACUUM, trigger, cfg) is None


def test_goal_cue_strips_marker(cfg):
    state = BeliefState(
        (make_fragment(1, "goal: fix the pump", sectors=("task",)),), 0.0
    )
    cue = generate_query(state, "goal", cfg)
    assert cue == QueryCue(kind="goal", tokens=("fix", "the", "pump"))
    assert cue.text == "fix the pump"


def test_goal_cue_is_case_insensitive(cfg):
    state = BeliefState((make_fragment(1, "Goal: Fix The Pump"),), 0.0)
    cue = generate_query(state, "goal", cfg)
    assert cue.tokens == ("fix", "the", "pump")


def test_goal_cue_prefers_highest_anchor(cfg):
    state = BeliefState(
        (
            make_fragment(1, "goal: fix the pump", anchor=2.0),
            make_fragment(2, "goal: chart the terrain", anchor=8.0),
        ),
        0.0,
    )
    cue = generate_query(state, "goal", cfg)
    assert cue.tokens == ("chart", "the", "terrain")


def test_goal_cue_anchor_tie_prefers_higher_id(cfg):
    state = BeliefState(
        (
            make_fragment(1, "goal: fix the pump", anchor=3.0),
            make_fragment(2, "goal: chart the terrain", anchor=3.0),
        ),
        0.0,
    )
    assert generate_query(state, "goal", cfg).tokens == ("chart", "the", "terrain")


def test_goal_cue_none_without_goal_fragment(cfg):
    state = BeliefState((make_fragment(1, "just a percept"),), 0.0)
    assert generate_query(state, "goal", cfg) is None


def test_goal_cue_none_when_marker_is_bare(cfg):
    state = BeliefState((make_fragment(1, "goal:"),), 0.0)
    assert generate_query(state, "goal", cfg) is None


def test_coherence_cue_joins_first_conflict_pair(cfg):
    state = BeliefState(
        (
            make_fragment(1, "valve open wide", key="valve", polarity="+"),
            make_fragment(2, "valve shut tight", key="valve", polarity="-"),
            make_fragment(3, "seal leaks", key="seal", polarity="-"),
            make_fragment(4, "seal holds", key="seal", polarity="+"),
        ),
        0.0,
    )
    cue = generate_query(state, "coherence", cfg)
    assert cue.kind == "coherence"
    # Lowest (id, id) pair is (1, 2); tokens are the sorted set union.
    assert cue.tokens == ("open", "shut", "tight", "valve", "wide")


def test_coherence_cue_none_without_conflict(cfg):
    state = BeliefState(
        (make_fragment(1, "valve open", key="valve", polarity="+"),), 0.0
    )
    assert generate_query(state, "coherence", cfg) is None


def test_associative_cue_takes_most_recent(cfg):
    state = BeliefState(
        (
            make_fragment(1, "old news", created_at=1.0),
            make_fragment(2, "fresh reading arrived", created_at=9.0),
        ),
        10.0,
    )
    cue = generate_query(state, "associative", cfg)
    assert cue == QueryCue(kind="associative", tokens=("fresh", "reading", "arrived"))


def test_associative_recency_tie_prefers_higher_id(cfg):
    state = BeliefState(
        (
            make_fragment(1, "first words", created_at=4.0),
            make_fragment(2, "second words", created_at=4.0),
        ),
        5.0,
    )
    assert generate_query(state, "associative", cfg).tokens == ("second", "words")


# --------------------------------------------------------------------------
# Retrieval
# --------------------------------------------------------------------------

def test_retrieval_score_is_cosine_times_persistence(cfg):
    frag = make_fragment(50, "coolant pump manual", persistence=0.6)
    cue = QueryCue(kind="goal", tokens=("coolant", "pump", "manual"))
    cue_vec = embed_tokens(cue.tokens, cfg.embed_dim)
    assert retrieval_score(cue_vec, frag) == pytest.approx(0.6, abs=1e-9)


def test_retrieve_applies_threshold(cfg):
    store = BeliefState(
        (
            make_fragment(50, "coolant pump manual", persistence=1.0),
            make_fragment(51, "coolant pump manual", persistence=0.2),  # damped out
            make_fragment(52, "unrelated terrain chatter", persistence=1.0),
        ),
        30.0,
    )
    cue = QueryCue(kind="goal", tokens=("coolant", "pump", "manual"))
    hits = retrieve(store, cue, cfg)
    assert hits.ids() == frozenset({50})


def test_second_retrieve_over_decayed_store_embeds_only_the_cue(cfg, monkeypatch):
    store = BeliefState(
        tuple(
            make_fragment(50 + i, text)
            for i, text in enumerate(
                ("coolant pump manual", "coolant flow steady", "terrain survey grid")
            )
        ),
        0.0,
    )
    cue = QueryCue(kind="goal", tokens=("coolant", "pump"))
    first = retrieve(store, cue, cfg)
    decayed = nullify(store, 1.0, cfg)

    embedded = []
    real = core.embed_tokens

    def counting(tokens, dim):
        embedded.append(tuple(tokens))
        return real(tokens, dim)

    monkeypatch.setattr(core, "embed_tokens", counting)
    monkeypatch.setattr(memory, "embed_tokens", counting)
    second = retrieve(decayed, cue, cfg)
    assert embedded == [cue.tokens]
    assert second.ids() == first.ids() == frozenset({50, 51})


def test_retrieve_copies_keep_store_ids_and_retag_origin(cfg):
    store = BeliefState((make_fragment(50, "coolant pump manual"),), 12.0)
    cue = QueryCue(kind="goal", tokens=("coolant", "pump"))
    hits = retrieve(store, cue, cfg)
    copy = hits.get(50)
    assert copy is not None
    assert copy.origin == "retrieved"
    assert hits.clock == 12.0
    # The store itself is untouched.
    assert store.get(50).origin == "observed"


def test_retrieve_strips_member_records(cfg):
    summary = make_fragment(
        60, "coolant pump", origin="abstracted", members=(1, 2), level=1
    )
    store = BeliefState((summary,), 0.0)
    cue = QueryCue(kind="goal", tokens=("coolant", "pump"))
    copy = retrieve(store, cue, cfg).get(60)
    assert copy.members is None
    assert store.get(60).members == (1, 2)


def test_retrieve_can_come_back_empty(cfg):
    store = BeliefState((make_fragment(50, "terrain chatter"),), 0.0)
    cue = QueryCue(kind="goal", tokens=("coolant", "pump"))
    assert retrieve(store, cue, cfg).is_vacuum


# --------------------------------------------------------------------------
# Integration
# --------------------------------------------------------------------------

def test_integration_boosts_copy_and_reanchors_twin(cfg):
    active = BeliefState((make_fragment(1, "goal: fix the pump", sectors=("task",)),), 40.0)
    store = BeliefState(
        (make_fragment(50, "fix the pump manual", anchor=1.0, persistence=0.6),), 40.0
    )
    cue = QueryCue(kind="goal", tokens=("fix", "the", "pump"))
    hits = retrieve(store, cue, cfg)
    assert hits.ids() == frozenset({50})
    new_active, new_store, report = integrate_retrieved(
        active, hits, store, cfg, IdAllocator(100)
    )
    added = [new_active.get(i) for i in report.added]
    assert [f.text for f in added] == ["fix the pump manual"]
    assert added[0].anchor == cfg.reanchor_min  # lifted to the floor
    assert added[0].persistence == 1.0
    twin = new_store.get(50)
    assert twin.anchor == cfg.reanchor_min
    assert twin.persistence == 1.0


def test_integration_leaves_store_twin_when_copy_is_retracted(cfg):
    active = BeliefState(
        (make_fragment(1, "valve open", key="valve", polarity="+", anchor=50.0),), 0.0
    )
    store = BeliefState(
        (make_fragment(50, "valve shut", key="valve", polarity="-",
                       anchor=1.0, persistence=0.9),),
        0.0,
    )
    cue = QueryCue(kind="goal", tokens=("valve", "shut"))
    hits = retrieve(store, cue, cfg)
    assert not hits.is_vacuum
    new_active, new_store, report = integrate_retrieved(
        active, hits, store, cfg, IdAllocator(100)
    )
    # The copy lost the revision against the heavily anchored holding...
    assert report.added == ()
    assert new_active.get(1) is not None
    # ...so the store twin is not rewarded with a re-anchor.
    assert new_store.get(50).anchor == 1.0
    assert new_store.get(50).persistence == 0.9


def test_integration_refresh_still_reanchors_twin(cfg):
    # Copy duplicates active content: no new fragment, but the twin survives
    # by content and is re-anchored.
    active = BeliefState((make_fragment(1, "coolant pump manual", anchor=2.0),), 0.0)
    store = BeliefState(
        (make_fragment(50, "coolant pump manual", anchor=1.0, persistence=0.5),), 0.0
    )
    cue = QueryCue(kind="goal", tokens=("coolant", "pump", "manual"))
    hits = retrieve(store, cue, cfg)
    new_active, new_store, report = integrate_retrieved(
        active, hits, store, cfg, IdAllocator(100)
    )
    assert report.added == ()
    assert new_active.get(1).anchor == 3.0  # duplicate refresh
    assert new_store.get(50).anchor == cfg.reanchor_min
    assert new_store.get(50).persistence == 1.0


def test_integration_keeps_high_anchor_copy_above_floor(cfg):
    active = BeliefState((make_fragment(1, "goal: fix pump", sectors=("task",)),), 0.0)
    store = BeliefState(
        (make_fragment(50, "fix pump quickly", anchor=9.0, persistence=1.0),), 0.0
    )
    cue = QueryCue(kind="goal", tokens=("fix", "pump"))
    hits = retrieve(store, cue, cfg)
    new_active, new_store, report = integrate_retrieved(
        active, hits, store, cfg, IdAllocator(100)
    )
    assert new_active.get(report.added[0]).anchor == 9.0  # floor never lowers
    assert new_store.get(50).anchor == 9.0
