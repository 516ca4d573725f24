"""Behavioral-equivalence probes and the gauge verdict."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from beliefsim.config import default_config
from beliefsim.core import BeliefState
from beliefsim.gauge import PROBES, Probe, canonical_state, gauge_equivalent

from conftest import make_fragment, states


def relabel(state: BeliefState, offset: int) -> BeliefState:
    """Same content under different ids (and insertion order)."""
    frags = tuple(
        f.replace(id=f.id + offset) for f in reversed(state.fragments)
    )
    return BeliefState(frags, state.clock)


# --------------------------------------------------------------------------
# Canonical form
# --------------------------------------------------------------------------

def test_canonical_state_ignores_ids():
    a = BeliefState((make_fragment(1, "pump"), make_fragment(2, "valve")), 3.0)
    b = BeliefState((make_fragment(9, "valve"), make_fragment(17, "pump")), 3.0)
    assert canonical_state(a) == canonical_state(b)


def test_canonical_state_ignores_token_order():
    a = BeliefState((make_fragment(1, "coolant flow steady"),), 0.0)
    b = BeliefState((make_fragment(1, "steady coolant flow"),), 0.0)
    assert canonical_state(a) == canonical_state(b)


def test_canonical_state_sees_anchor_and_clock():
    base = BeliefState((make_fragment(1, "pump", anchor=1.0),), 0.0)
    heavier = BeliefState((make_fragment(1, "pump", anchor=2.0),), 0.0)
    later = BeliefState((make_fragment(1, "pump", anchor=1.0),), 1.0)
    assert canonical_state(base) != canonical_state(heavier)
    assert canonical_state(base) != canonical_state(later)


# --------------------------------------------------------------------------
# Suite construction
# --------------------------------------------------------------------------

def test_default_suite_has_ten_probes():
    assert len(PROBES) == 10
    assert len({p.name for p in PROBES}) == 10


def test_probe_kind_validated():
    with pytest.raises(ValueError, match="kind"):
        Probe("bad", "vibes", lambda s, c: None)


# --------------------------------------------------------------------------
# Equivalence verdicts
# --------------------------------------------------------------------------

def test_state_is_equivalent_to_itself(cfg):
    state = BeliefState(
        (
            make_fragment(1, "goal: fix the pump", sectors=("task",), anchor=3.0),
            make_fragment(2, "coolant flow steady"),
        ),
        5.0,
    )
    verdict = gauge_equivalent(state, state, cfg)
    assert verdict.equivalent
    assert verdict.witness is None
    assert len(verdict.rows) == 10
    assert all(r.matched for r in verdict.rows)


def test_relabeled_state_is_equivalent(cfg):
    state = BeliefState(
        (
            make_fragment(1, "goal: fix the pump", sectors=("task",), anchor=3.0),
            make_fragment(2, "coolant flow steady", anchor=1.5),
        ),
        5.0,
    )
    assert gauge_equivalent(state, relabel(state, 40), cfg).equivalent


def test_word_order_rewrite_is_equivalent(cfg):
    a = BeliefState(
        (
            make_fragment(1, "coolant flow steady"),
            make_fragment(2, "check the panel light"),
        ),
        0.0,
    )
    b = BeliefState(
        (
            make_fragment(1, "steady coolant flow"),
            make_fragment(2, "the panel light check"),
        ),
        0.0,
    )
    assert gauge_equivalent(a, b, cfg).equivalent


def test_polarity_flip_is_not_equivalent(cfg):
    pos = BeliefState((make_fragment(1, "valve claim", key="p", polarity="+"),), 0.0)
    neg = BeliefState((make_fragment(1, "valve claim", key="p", polarity="-"),), 0.0)
    verdict = gauge_equivalent(pos, neg, cfg)
    assert not verdict.equivalent
    assert verdict.witness is not None


def test_anchor_difference_is_not_equivalent(cfg):
    light = BeliefState((make_fragment(1, "pump", anchor=1.0),), 0.0)
    heavy = BeliefState((make_fragment(1, "pump", anchor=10.0),), 0.0)
    verdict = gauge_equivalent(light, heavy, cfg)
    assert not verdict.equivalent
    # The load probe splits them before any decay horizon does... either way
    # the witness is the first row that failed.
    first_failed = next(r for r in verdict.rows if not r.matched)
    assert verdict.witness == first_failed.probe


def test_witness_is_first_divergence_in_suite_order(cfg):
    # Weight-matched fragments (anchor * persistence both 1.0) so load agrees,
    # but their decay and canonical rows differ.
    a = BeliefState((make_fragment(1, "pump", anchor=2.0, persistence=0.5),), 0.0)
    b = BeliefState((make_fragment(1, "pump", anchor=1.0, persistence=1.0),), 0.0)
    verdict = gauge_equivalent(a, b, cfg)
    assert not verdict.equivalent
    suite_names = [p.name for p in PROBES]
    failed = [r.probe for r in verdict.rows if not r.matched]
    assert verdict.witness == min(failed, key=suite_names.index)


def test_goal_cue_distinguishes_goal_states(cfg):
    with_goal = BeliefState(
        (make_fragment(1, "goal: fix the pump", sectors=("task",)),), 0.0
    )
    without = BeliefState((make_fragment(1, "fix the pump now"),), 0.0)
    verdict = gauge_equivalent(with_goal, without, cfg)
    assert not verdict.equivalent
    failed = {r.probe for r in verdict.rows if not r.matched}
    assert "query_goal" in failed


def test_vacuum_states_are_equivalent(cfg):
    assert gauge_equivalent(BeliefState((), 2.0), BeliefState((), 2.0), cfg).equivalent


def test_vacuum_vs_content_is_not(cfg):
    verdict = gauge_equivalent(
        BeliefState((), 0.0), BeliefState((make_fragment(1, "pump"),), 0.0), cfg
    )
    assert not verdict.equivalent


class TestGaugeLaws:
    @settings(max_examples=40, deadline=None)
    @given(state=states(keyed=True))
    def test_every_state_equals_its_relabeling(self, state):
        cfg = default_config()
        verdict = gauge_equivalent(state, relabel(state, 977), cfg)
        assert verdict.equivalent, verdict.witness

    @settings(max_examples=30, deadline=None)
    @given(a=states(keyed=True), b=states(keyed=True))
    def test_verdict_is_symmetric(self, a, b):
        cfg = default_config()
        assert (
            gauge_equivalent(a, b, cfg).equivalent
            == gauge_equivalent(b, a, cfg).equivalent
        )
