"""Cue generation, store retrieval, and re-integration."""

from __future__ import annotations

import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefsim import core, memory
from beliefsim.config import default_config
from beliefsim.core import BeliefState, IdAllocator
from beliefsim.dynamics import assimilate, nullify
from beliefsim.simulator import SimulationRun, _removed_ids, load_scenario
from beliefsim.memory import (
    QueryCue,
    generate_query,
    goal_fragments,
    integrate_retrieved,
    retrieve,
)

from conftest import KEYS, WORDS, make_fragment, texts
from reference import embed_tokens
from reference import integrate_retrieved as reference_integrate_retrieved
from reference import nullify as reference_nullify
from reference import retrieval_score
from reference import retrieve as reference_retrieve

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


def test_goal_cue_is_case_insensitive(cfg):
    state = BeliefState((make_fragment(1, "Goal: Fix The Pump"),), 0.0)
    cue = generate_query(state, "goal", cfg)
    assert cue.tokens == ("fix", "the", "pump")


@pytest.mark.parametrize("marker", ["GOAL:", "Goal:"])
def test_goal_marker_is_matched_ignoring_its_own_case(cfg, marker):
    state = BeliefState(
        (make_fragment(1, "Goal: pump"), make_fragment(2, "goal: map the ridge", anchor=2.0)),
        0.0,
    )
    cased = cfg.replace(goal_marker=marker)
    assert [f.id for f in goal_fragments(state, cased)] == [1, 2]
    cue = generate_query(state, "goal", cased)
    assert cue == generate_query(state, "goal", cfg) == QueryCue("goal", ("map", "the", "ridge"))


# "\u0130" (dotted capital I) lowercases to two characters, "\u1e9e" to
# "\u00df" and the Kelvin sign "\u212a" to "k".
GOAL_CHARS = "goalGOAL: \u0130i\u1e9e\u00df\u212ak"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    marker=st.text(GOAL_CHARS, min_size=1, max_size=6),
    heads=st.lists(st.text(GOAL_CHARS, max_size=8), min_size=1, max_size=6),
)
@example(marker="GoAl:", heads=["gOaL: ", "goal ", "GOAL:", "Goal:x"])
@example(marker="İgoal:", heads=["İGOAL: ", "igoal: ", "i\u0307goal:", "İ goal:"])
def test_goal_fragments_match_the_lowercased_prefix_test(marker, heads):
    """A goal is exactly a fragment whose ``text.lower()`` starts with
    ``goal_marker.lower()``, and its cue is the rest of the lowered text,
    also for characters whose lowercase changes length."""
    cfg = default_config().replace(goal_marker=marker)
    frags = [make_fragment(i, head + " pump", anchor=i) for i, head in enumerate(heads, 1)]
    state = BeliefState(tuple(frags), 0.0)
    want = [f.id for f in frags if f.text.lower().startswith(marker.lower())]
    assert [f.id for f in goal_fragments(state, cfg)] == want
    assert [f.id for f in goal_fragments(state, cfg)] == want  # read again, kept
    cue = generate_query(state, "goal", cfg)
    if want:
        rest = frags[want[-1] - 1].text.lower()[len(marker.lower()):]
        assert cue == (QueryCue("goal", core.tokenize(rest)) if core.tokenize(rest) else None)
    else:
        assert cue is None
    copy = frags[0].replace(text=marker + " valve")
    assert next(goal_fragments(BeliefState((copy,), 0.0), cfg)) is copy


def test_a_mixed_case_goal_marker_recalls_in_a_run(tmp_path):
    path = tmp_path / "cased.json"
    path.write_text(json.dumps({
        "config": {"goal_marker": "Goal:"},
        "memory": [{"text": "pump manual", "sector": "mem", "name": "manual"}],
        "timeline": [
            {"event": "command", "text": "Goal: pump"},
            {"event": "tick"},
            {"event": "expect", "assertions": [{"check": "fragment_present", "name": "manual"}]},
        ],
    }))
    result = SimulationRun(load_scenario(path)).run()
    assert [e.payload["cue"]["kind"] for e in result.trace.events if e.kind == "query"] == ["goal"]
    assert result.ok, result.failures


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


def test_goal_fragments_is_the_one_goal_rule(cfg, tmp_path):
    state = BeliefState(
        (
            make_fragment(1, "Goal: map the ridge", anchor=4.0),
            make_fragment(2, "the goal: is not a prefix here"),
            make_fragment(3, "GOAL: check the valve", anchor=2.0),
        ),
        0.0,
    )
    assert [f.id for f in goal_fragments(state, cfg)] == [1, 3]
    assert generate_query(state, "goal", cfg).tokens == ("map", "the", "ridge")
    path = tmp_path / "empty.json"
    path.write_text('{"timeline": []}')
    run = SimulationRun(load_scenario(path))
    assert not run._goals_present()
    run.active = state
    assert run._goals_present()
    run.active = state.revised(drop=[1, 3])
    assert not run._goals_present()


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
    real = core.embed_rows

    def counting(token_lists, dim):
        embedded.append([tuple(tokens) for tokens in token_lists])
        return real(token_lists, dim)

    monkeypatch.setattr(core, "embed_rows", counting)
    monkeypatch.setattr(memory, "embed_rows", counting)
    second = retrieve(decayed, cue, cfg)
    assert embedded == [[cue.tokens]]
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


def test_retrieved_hit_enters_as_the_copy_integration_made(cfg, monkeypatch):
    copies = []  # the id of each fragment copied
    real = core.Fragment.replace
    monkeypatch.setattr(core.Fragment, "replace",
                        lambda self, **kw: copies.append(self.id) or real(self, **kw))
    active = BeliefState((make_fragment(1, "goal: fix the pump", sectors=("task",)),), 40.0)
    store = BeliefState(
        (make_fragment(50, "fix the pump manual", anchor=1.0, persistence=0.6),), 40.0
    )
    hits = retrieve(store, QueryCue(kind="goal", tokens=("fix", "the", "pump")), cfg)
    assert copies.count(50) == 1  # matching's copy
    new_active, _, report = integrate_retrieved(active, hits, store, cfg, IdAllocator(100))
    copy = new_active.get(50)
    assert (copy.anchor, copy.persistence) == (cfg.reanchor_min, 1.0)
    assert report.added == (50,)
    # One lift after matching's copy: assimilation appends it uncopied.
    assert copies.count(50) <= 2


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


# --------------------------------------------------------------------------
# The store as a belief state
# --------------------------------------------------------------------------

def test_store_sorts_rows_and_rejects_duplicate_ids():
    store = BeliefState((make_fragment(9, "pump"), make_fragment(3, "valve")), 2.0)
    assert [f.id for f in store.fragments] == [3, 9]
    assert store.ids() == {3, 9} and store.clock == 2.0
    with pytest.raises(ValueError, match="duplicate fragment ids in state: \\[3\\]"):
        BeliefState((make_fragment(3, "pump"), make_fragment(3, "valve")))
    with pytest.raises(ValueError, match="clock"):
        BeliefState((), -1.0)


def test_store_rows_count_and_one_row_builds_alone(cfg, monkeypatch):
    store = BeliefState(
        tuple(make_fragment(i, "pump", persistence=0.1005 if i == 1 else 0.5 + i / 10)
              for i in range(1, 6))
    )
    decayed = nullify(store, 1.0, cfg)
    assert _removed_ids(store, decayed) == [1]
    built = []
    real = core._at
    monkeypatch.setattr(core, "_at", lambda row, *a: built.append(row.id) or real(row, *a))
    assert len(decayed.rows) == 4
    assert built == []
    assert decayed.fragment(-1).id == 5 and built == [5]
    rows = decayed.fragments
    assert [f.id for f in rows] == [2, 3, 4, 5] and built == [5, 2, 3, 4, 5]
    assert decayed.fragments == rows and len(built) == 9  # each read builds every row again
    assert decayed.get(1) is None and decayed.get(7) is None
    assert decayed.get(2).persistence == rows[0].persistence


def test_reanchor_skips_absent_and_pruned_ids(cfg):
    store = BeliefState((make_fragment(2, "pump", persistence=0.1005),
                         make_fragment(4, "valve", anchor=1.0, persistence=0.5)))
    decayed = nullify(store, 1.0, cfg)
    assert _removed_ids(store, decayed) == [2]
    lifted = decayed.reanchor([1, 2, 4, 9], 5.0)
    assert lifted.get(2) is None
    assert lifted.get(4).anchor == 5.0 and lifted.get(4).persistence == 1.0
    assert decayed.get(4).anchor == 1.0  # snapshots are immutable
    assert decayed.reanchor([1, 9], 5.0) is decayed


def test_decay_factors_round_as_math_exp(cfg):
    """Rows decay by the per-fragment loop's factor, math.exp(-rate * dt);
    np.exp rounds about one such value in twenty differently."""
    rnd = random.Random(7)
    rows = [
        make_fragment(i + 1, "pump", anchor=rnd.uniform(0.0, 12.0),
                      persistence=rnd.uniform(0.5, 1.0))
        for i in range(400)
    ]
    cfg = cfg.replace(lambda0=0.3)
    decayed = nullify(BeliefState(rows), 1.0, cfg)
    assert [f.persistence for f in decayed.fragments] == [
        f.persistence * math.exp(-cfg.decay_rate(f.anchor)) for f in rows
    ]


def test_vectors_are_built_at_the_first_retrieve_and_shared(cfg):
    scenario = load_scenario(Path(__file__).parent.parent / "scenarios" / "memory_recall.json")
    run = SimulationRun(scenario)
    assert run.store._space is None  # not at load
    store = run.store
    retrieve(store, QueryCue(kind="goal", tokens=("coolant", "pump")), cfg)
    matrix = store._space[0]
    assert matrix.shape == (len(scenario.store.fragments), cfg.embed_dim)
    decayed = nullify(store, 1.0, cfg)
    retrieve(decayed, QueryCue(kind="goal", tokens=("valve",)), cfg)
    assert decayed._space[0] is matrix
    for row, f in enumerate(store.fragments):
        assert np.array_equal(matrix[row], embed_tokens(f.tokens, cfg.embed_dim))


def test_a_run_builds_fragments_only_for_retrieved_hits(monkeypatch):
    scenario = load_scenario(Path(__file__).parent.parent / "scenarios" / "memory_recall.json")
    store_rows = {id(f) for f in scenario.store.rows}
    built = []
    real = core._at
    monkeypatch.setattr(core, "_at", lambda row, *a: (
        id(row) in store_rows and built.append(row.id)) or real(row, *a))
    result = SimulationRun(scenario).run()
    hits = [i for e in result.trace.events if e.kind == "retrieve" for i in e.payload["ids"]]
    assert hits
    assert len(built) <= len(hits) and set(built) <= set(hits)


def test_retrieve_rereads_a_row_the_product_rounds_below_tau(cfg):
    """Find a row whose matrix-product score rounds below its exact score;
    with tau at the exact score, the row must still be a hit."""
    cfg = cfg.replace(embed_dim=8)
    rows = [
        make_fragment(i + 1, " ".join(WORDS[(i * 7 + k * 3) % len(WORDS)] for k in range(6)))
        for i in range(60)
    ]
    store = BeliefState(rows)
    for cue_words in (WORDS[:4], WORDS[4:9], WORDS[9:15], WORDS[15:]):
        cue = QueryCue(kind="associative", tokens=tuple(cue_words))
        cue_vec = embed_tokens(cue.tokens, 8)
        screened = store.vectors(8) @ cue_vec
        for row, f in enumerate(rows):
            exact = retrieval_score(cue_vec, f)
            if screened[row] < exact:
                hits = retrieve(store, cue, cfg.replace(tau_retrieval=exact))
                assert f.id in hits.ids()
                return
    pytest.skip("this BLAS rounds the matrix product like the row dot products")


def _reference_integrate(active, retrieved, store, config, ids):
    """The per-fragment integration loop: twins found by walking the store."""
    floor = config.reanchor_min
    boosted = [c.replace(anchor=max(c.anchor, floor)) for c in retrieved.fragments]
    new_active, report = assimilate(
        active, BeliefState(tuple(boosted), active.clock), config, ids, mode="auto"
    )
    surviving = {f.content_key() for f in new_active.fragments}
    twin_keys = {c.id for c in boosted if c.content_key() in surviving}
    new_store_frags = []
    for f in store.fragments:
        if f.id in twin_keys:
            f = f.replace(anchor=max(f.anchor, floor), persistence=1.0)
        new_store_frags.append(f)
    return new_active, BeliefState(tuple(new_store_frags), store.clock), report


def _nudged(draw, value):
    """``value`` moved by a few ulps or by up to 1e-12, either way."""
    how = draw(st.sampled_from(("same", "same", "ulps", "tiny")))
    if how == "ulps":
        toward = draw(st.sampled_from((-math.inf, math.inf)))
        for _ in range(draw(st.integers(1, 3))):
            value = float(np.nextafter(value, toward))
    elif how == "tiny":
        value += draw(st.floats(-1e-12, 1e-12))
    return value


@st.composite
def store_chains(draw):
    """A random store, config, active state and chain of operations.

    Persistences sit anywhere above delta, some a few ulps above it or just
    above the point where the next decay prunes them; anchors include the
    re-anchor floor; keyed rows can lose revision against the active state;
    each retrieval's tau lies within 1e-12 of some live row's exact score.
    """
    cfg = default_config().replace(
        embed_dim=draw(st.sampled_from((8, 8, 16, 64))),
        delta=draw(st.sampled_from((0.05, 0.1, 0.3))),
        lambda0=draw(st.sampled_from((0.02, 0.3, 1.0))),
        decay_modulator=draw(st.sampled_from(("inverse_anchor", "constant"))),
        reanchor_min=draw(st.sampled_from((0.5, 5.0))),
    )
    ids = draw(st.lists(st.integers(1, 400), max_size=32, unique=True))
    # Generic values: decay factors of round anchors rarely show how
    # np.exp and math.exp round apart.
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for fid in ids:
        anchor = draw(st.one_of(
            st.just(rnd.uniform(0.0, 12.0)), st.sampled_from((0.0, cfg.reanchor_min, 9.0))
        ))
        edge = draw(st.sampled_from(("any", "delta", "prune_next")))
        if edge == "delta":
            persistence = _nudged(draw, float(np.nextafter(cfg.delta, 1.0)))
        elif edge == "prune_next":
            factor = math.exp(-cfg.decay_rate(anchor))
            persistence = _nudged(draw, cfg.delta / factor)
        else:
            persistence = rnd.uniform(cfg.delta, 1.0)
        persistence = min(max(persistence, float(np.nextafter(cfg.delta, 1.0))), 1.0)
        key = polarity = None
        if draw(st.integers(0, 3)) == 0:
            key, polarity = draw(st.sampled_from(KEYS)), draw(st.sampled_from("+-"))
        rows.append(make_fragment(
            fid, draw(texts(1, 8)), anchor=anchor, persistence=persistence,
            key=key, polarity=polarity, sectors=("mem",),
        ))
    active = BeliefState(tuple(
        make_fragment(
            1000 + i, draw(texts(1, 4)), anchor=draw(st.sampled_from((0.5, 50.0))),
            key=draw(st.sampled_from(KEYS)), polarity=draw(st.sampled_from("+-")),
        )
        for i in range(draw(st.integers(0, 3)))
    ), 0.0)
    # A first decay keeps factors, so a later re-anchor must recompute some.
    ops = [("decay", 1.0)] + draw(st.lists(
        st.one_of(
            st.tuples(st.just("decay"), st.sampled_from((1.0, 1.0, 1.0, 2.5))),
            st.tuples(st.sampled_from(("retrieve", "recall")), texts(1, 4)),
        ),
        min_size=2, max_size=8,
    ))
    return cfg, rows, active, ops


@settings(max_examples=250, deadline=None)
@given(chain=store_chains(), data=st.data())
def test_store_matches_the_per_fragment_loops(chain, data):
    cfg, rows, active, ops = chain
    store = BeliefState(rows, 0.0)
    ref = BeliefState(tuple(rows), 0.0)
    ref_active = active
    for op, arg in ops:
        if op == "decay":
            before, store = store, nullify(store, arg, cfg)
            gone = ref.ids()
            ref = reference_nullify(ref, arg, cfg)
            assert _removed_ids(before, store) == sorted(gone - ref.ids())
        else:
            cue_text = arg
            if ref.fragments and data.draw(st.booleans()):
                cue_text = data.draw(st.sampled_from(ref.fragments)).text
            cue = QueryCue(kind="associative", tokens=tuple(cue_text.split()))
            tau = 0.5
            if ref.fragments:
                # Aim tau at a row whose matrix-product score rounds below
                # its exact score, when there is one.
                cue_vec = embed_tokens(cue.tokens, cfg.embed_dim)
                exact = [retrieval_score(cue_vec, f) for f in ref.fragments]
                vectors = np.stack([embed_tokens(f.tokens, cfg.embed_dim) for f in ref.fragments])
                screened = (vectors @ cue_vec) * [f.persistence for f in ref.fragments]
                low = [e for e, s in zip(exact, screened) if s < e]
                tau = data.draw(st.sampled_from(low or exact))
                tau = min(max(_nudged(data.draw, tau), 0.0), 1.0)
            cfg_r = cfg.replace(tau_retrieval=tau)
            hits = retrieve(store, cue, cfg_r)
            assert hits == reference_retrieve(ref, cue, cfg_r)
            if op == "recall" and not hits.is_vacuum:
                active, store, report = integrate_retrieved(
                    active, hits, store, cfg_r, IdAllocator(5000)
                )
                ref_active, ref, ref_report = _reference_integrate(
                    ref_active, hits, ref, cfg_r, IdAllocator(5000)
                )
                assert report == ref_report
                assert active == ref_active
        assert tuple(store.fragments) == ref.fragments
        assert len(store.fragments) == len(ref.fragments)
        assert store.ids() == ref.ids()
        assert store.clock == ref.clock


def _bits(fragments):
    """Each fragment's fields in order, a float as its exact bits."""
    return [
        tuple(v.hex() if isinstance(v, float) else v
              for v in (getattr(f, field.name) for field in dataclasses.fields(f)))
        for f in fragments
    ]


@st.composite
def recalls(draw):
    """A store whose anchors lie below, at and above the re-anchor floor,
    at full persistence or below it, perhaps decayed once (so the lift must
    recompute kept decay factors); an active state that may hold a twin or
    a rival of a store row; and a cue taken from a store row."""
    cfg = default_config().replace(
        reanchor_min=draw(st.sampled_from((0.5, 5.0))),
        tau_retrieval=draw(st.sampled_from((0.0, 0.3))),
    )
    floor = cfg.reanchor_min
    rows = []
    for i in range(draw(st.integers(1, 8))):
        anchor = draw(st.one_of(
            st.floats(0.0, floor, exclude_max=True),
            st.just(floor),
            st.floats(floor, 20.0, exclude_min=True),
        ))
        persistence = draw(st.one_of(st.just(1.0), st.floats(0.11, 1.0, exclude_max=True)))
        key = polarity = None
        if draw(st.booleans()):
            key, polarity = draw(st.sampled_from(KEYS)), draw(st.sampled_from("+-"))
        rows.append(make_fragment(10 + i, draw(texts(1, 4)), sectors=("mem",), anchor=anchor,
                                  persistence=persistence, key=key, polarity=polarity))
    store = BeliefState(rows, 0.0)
    if draw(st.booleans()):
        store = nullify(store, 1.0, cfg)
    active = []
    for i in range(draw(st.integers(0, 3))):
        like = draw(st.sampled_from(rows))
        polarity = like.polarity
        if polarity is not None and draw(st.booleans()):
            polarity = "+" if polarity == "-" else "-"
        active.append(like.replace(id=1000 + i, anchor=draw(st.sampled_from((0.5, 50.0))),
                                   persistence=1.0, polarity=polarity))
    cue = QueryCue(kind="associative", tokens=draw(st.sampled_from(rows)).tokens)
    return cfg, store, BeliefState(active, draw(st.sampled_from((0.0, 7.0)))), cue


@settings(max_examples=200, deadline=None, derandomize=True)
@given(recall=recalls())
def test_integration_lifts_as_the_per_copy_boost_loop(recall):
    """``integrate_retrieved`` lifts the retrieved state through
    ``reanchor``; the hand-built boost of each copy it replaced gives the
    same active state, store and report, bit for bit."""
    cfg, store, active, cue = recall
    hits = retrieve(store, cue, cfg)
    new_active, new_store, report = integrate_retrieved(
        active, hits, store, cfg, IdAllocator(5000))
    ref_active, ref_store, ref_report = reference_integrate_retrieved(
        active, hits, store, cfg, IdAllocator(5000))
    assert _bits(new_active.fragments) == _bits(ref_active.fragments)
    assert _bits(new_store.fragments) == _bits(ref_store.fragments)
    assert report == ref_report
