"""Assimilation, decay, sector wipes, and drift operators."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefsim.config import ParameterConfig, default_config
from beliefsim.core import BeliefState, IdAllocator, embed_state, first_conflict
from beliefsim.dynamics import (
    DRIFT_ANCHOR,
    ConflictError,
    ElaborationRule,
    _resolve_internal,
    annihilate_sector,
    assimilate,
    drift,
    half_life,
    nullify,
    nullify_sector,
)
from beliefsim.regulation import _most_conflicted_sector

import reference
from conftest import SECTORS, ltr_sum, make_fragment, sector_projection, states, union_sectors


def make_state(*frags, clock=0.0):
    return BeliefState(tuple(frags), clock)


def incoming(*frags, clock=0.0):
    """Incoming batch as a state; ids must not collide with the target."""
    return BeliefState(tuple(frags), clock)


# --------------------------------------------------------------------------
# Nullification: analytic decay
# --------------------------------------------------------------------------

def test_decay_matches_closed_form(cfg):
    # lambda_i = lambda0 / (1 + anchor); persistence multiplies by exp(-lambda_i dt)
    state = make_state(
        make_fragment(1, anchor=10.0),
        make_fragment(2, "valve", anchor=5.0),
        make_fragment(3, "seal", anchor=1.0),
    )
    out = nullify(state, 20.0, cfg)
    for fid, anchor in ((1, 10.0), (2, 5.0), (3, 1.0)):
        expected = math.exp(-cfg.lambda0 / (1.0 + anchor) * 20.0)
        assert out.get(fid).persistence == pytest.approx(expected, abs=1e-15)
    assert out.get(1).persistence == pytest.approx(0.96429, abs=5e-6)
    assert out.get(2).persistence == pytest.approx(0.93551, abs=5e-6)
    assert out.get(3).persistence == pytest.approx(0.81873, abs=5e-6)


def test_decay_advances_clock(cfg):
    out = nullify(make_state(make_fragment(1), clock=4.0), 6.0, cfg)
    assert out.clock == 10.0


def test_decay_zero_dt_is_identity(cfg):
    state = make_state(make_fragment(1, persistence=0.5))
    assert nullify(state, 0.0, cfg) is state


def test_decay_rejects_negative_dt(cfg):
    with pytest.raises(ValueError, match="dt"):
        nullify(make_state(), -1.0, cfg)


def test_decay_prunes_at_threshold(cfg):
    # At the threshold exactly the fragment is gone; strictly above it stays.
    rate = cfg.decay_rate(1.0)
    dt = 5.0
    at_threshold = cfg.delta / math.exp(-rate * dt)
    above = at_threshold * 1.01
    state = make_state(
        make_fragment(1, persistence=at_threshold),
        make_fragment(2, "valve", persistence=above),
    )
    out = nullify(state, dt, cfg)
    assert out.get(1) is None
    assert out.get(2) is not None


def test_constant_modulator_ignores_anchor():
    cfg = default_config().replace(decay_modulator="constant")
    state = make_state(
        make_fragment(1, anchor=0.0),
        make_fragment(2, "valve", anchor=50.0),
    )
    out = nullify(state, 30.0, cfg)
    assert out.get(1).persistence == pytest.approx(out.get(2).persistence, abs=1e-15)


def test_sector_decay_targets_only_that_sector(cfg):
    state = make_state(
        make_fragment(1, sectors=("perc",)),
        make_fragment(2, "valve", sectors=("task",)),
    )
    out = nullify_sector(state, "perc", 50.0, cfg)
    assert out.get(1).persistence < 1.0
    assert out.get(2).persistence == 1.0
    assert out.clock == state.clock  # accelerated decay is not time passing


def test_sector_decay_can_prune(cfg):
    state = make_state(make_fragment(1, sectors=("perc",), anchor=0.0))
    out = nullify_sector(state, "perc", 1000.0, cfg)
    assert out.is_vacuum


def test_half_life_closed_form(cfg):
    frag = make_fragment(1, anchor=1.0)
    expected = math.log(1.0 / cfg.delta) / (cfg.lambda0 / 2.0)
    assert half_life(frag, cfg) == pytest.approx(expected)
    assert half_life(frag, cfg) == pytest.approx(230.2585, abs=5e-4)


def test_half_life_boundary_and_infinite_cases(cfg):
    assert half_life(make_fragment(1, persistence=0.1), cfg) == 0.0
    frozen_cfg = ParameterConfig(lambda0=0.0)  # unvalidated on purpose
    assert half_life(make_fragment(1), frozen_cfg) == math.inf


def test_half_life_predicts_pruning(cfg):
    frag = make_fragment(1, anchor=2.0, persistence=0.7)
    t = half_life(frag, cfg)
    survives = nullify(make_state(frag), t * 0.99, cfg)
    gone = nullify(make_state(frag), t * 1.01, cfg)
    assert survives.get(1) is not None
    assert gone.get(1) is None


class TestDecayLaws:
    """Composition and ordering laws over random ensembles."""

    @settings(max_examples=80, deadline=None)
    @given(
        state=states(min_frags=1),
        t1=st.floats(0.0, 60.0, allow_nan=False),
        t2=st.floats(0.0, 60.0, allow_nan=False),
    )
    def test_two_steps_compose_to_one(self, state, t1, t2):
        cfg = default_config()
        stepped = nullify(nullify(state, t1, cfg), t2, cfg)
        direct = nullify(state, t1 + t2, cfg)
        assert stepped.clock == pytest.approx(direct.clock, abs=1e-9)
        shared = stepped.ids() & direct.ids()
        for fid in shared:
            assert stepped.get(fid).persistence == pytest.approx(
                direct.get(fid).persistence, abs=1e-12
            )
        # A survivor-set mismatch is only legitimate within float noise of
        # the prune threshold.
        for fid in stepped.ids() ^ direct.ids():
            holder = stepped.get(fid) or direct.get(fid)
            assert abs(holder.persistence - cfg.delta) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(state=states(), dt=st.floats(0.0, 100.0, allow_nan=False))
    def test_persistence_never_increases(self, state, dt):
        cfg = default_config()
        before = {f.id: f.persistence for f in state.fragments}
        after = nullify(state, dt, cfg)
        for f in after.fragments:
            assert f.persistence <= before[f.id] + 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        low=st.floats(0.0, 10.0, allow_nan=False),
        extra=st.floats(0.1, 10.0, allow_nan=False),
        dt=st.floats(0.1, 80.0, allow_nan=False),
    )
    def test_higher_anchor_decays_slower(self, low, extra, dt):
        cfg = default_config()
        state = make_state(
            make_fragment(1, anchor=low),
            make_fragment(2, "valve", anchor=low + extra),
        )
        out = nullify(state, dt, cfg)
        weak, strong = out.get(1), out.get(2)
        if weak is not None:
            assert strong is not None
            assert strong.persistence >= weak.persistence


@st.composite
def state_chains(draw):
    """A state, a config and a chain of the operators that derive a state
    from another: whole and sector decay (some persistences sit just above
    delta), revisions that put in or replace fragments and drop ids (an id
    can be both), a sector wipe and a re-anchor."""
    cfg = default_config().replace(
        lambda0=draw(st.sampled_from((0.02, 0.3, 1.0))),
        delta=draw(st.sampled_from((0.1, 0.5))),
    )
    state = draw(states(max_frags=8, keyed=True))
    state = BeliefState(
        tuple(f.replace(persistence=min(f.persistence + cfg.delta, 1.0)) for f in state.fragments),
        state.clock,
    )
    # A first decay keeps factors, so every later operator must carry them.
    ops = [("nullify", 1.0)] + draw(st.lists(st.one_of(
        st.tuples(st.just("nullify"), st.sampled_from((1.0, 1.0, 1.0, 2.5, 0.0))),
        st.tuples(st.just("nullify_sector"), st.sampled_from(SECTORS[:3]),
                  st.sampled_from((1.0, 5.0))),
        st.tuples(
            st.just("revise"),
            st.dictionaries(st.integers(1, 12), st.tuples(
                st.sampled_from((0.5, 2.0, 7.0)), st.sampled_from((1.0, 0.6))), max_size=3),
            st.sets(st.integers(1, 12), max_size=3),
        ),
        st.tuples(st.just("annihilate"), st.sampled_from(SECTORS[:3])),
        st.tuples(st.just("reanchor"), st.sets(st.integers(1, 10), max_size=3)),
    ), min_size=1, max_size=8))
    return cfg, state, ops


@settings(max_examples=150, deadline=None)
@given(chain=state_chains())
def test_state_operators_match_the_per_fragment_loops(chain):
    cfg, state, ops = chain
    ref = state
    for op, *args in ops:
        if op == "nullify":
            state, ref = nullify(state, args[0], cfg), reference.nullify(ref, args[0], cfg)
        elif op == "nullify_sector":
            state = nullify_sector(state, *args, cfg)
            ref = reference.nullify_sector(ref, *args, cfg)
        elif op == "revise":
            put = [
                make_fragment(fid, "seal check", sectors=SECTORS[:1], anchor=a, persistence=p)
                for fid, (a, p) in args[0].items()
            ]
            state = state.revised(put=put, drop=args[1])
            ref = BeliefState((*(f for f in ref.fragments
                                 if f.id not in args[1] and f.id not in args[0]), *put), ref.clock)
        elif op == "annihilate":
            state = annihilate_sector(state, args[0])
            ref = BeliefState(
                tuple(f for f in ref.fragments if args[0] not in f.sectors), ref.clock)
        else:
            state = state.reanchor(args[0], 5.0)
            ref = BeliefState(tuple(
                f.replace(anchor=max(f.anchor, 5.0), persistence=1.0) if f.id in args[0] else f
                for f in ref.fragments
            ), ref.clock)
        assert state == ref
        assert [f.id for f in state.rows] == [f.id for f in ref.fragments]
        assert state.mass == ltr_sum(f.weight for f in ref.fragments)
        assert embed_state(state, 16).tobytes() == reference.embed_state(ref, 16).tobytes()


# --------------------------------------------------------------------------
# Assimilation
# --------------------------------------------------------------------------

def test_unknown_mode_rejected(cfg):
    with pytest.raises(ValueError, match="mode"):
        assimilate(make_state(), incoming(), cfg, IdAllocator(100), mode="merge")


def test_duplicate_refresh_bumps_anchor_and_persistence(cfg):
    held = make_fragment(1, "pump runs", anchor=2.0, persistence=0.4)
    again = make_fragment(101, "pump runs", anchor=9.0)  # same content key
    out, report = assimilate(make_state(held), incoming(again), cfg, IdAllocator(200))
    assert out.ids() == frozenset({1})
    refreshed = out.get(1)
    assert refreshed.anchor == 3.0
    assert refreshed.persistence == 1.0
    assert report.added == ()
    assert report.conflicts_found == 0


def test_duplicate_refresh_counts_each_twin(cfg):
    held = make_fragment(1, "pump runs", anchor=2.0, persistence=0.4)
    twins = incoming(make_fragment(101, "runs pump"), make_fragment(102, "pump runs"))
    out, report = assimilate(make_state(held), twins, cfg, IdAllocator(200))
    assert out.ids() == frozenset({1})
    assert out.get(1).anchor == 4.0
    assert out.get(1).persistence == 1.0
    assert report.added == ()


def test_union_resets_persistence_and_keeps_anchor(cfg):
    new = make_fragment(101, "valve hums", anchor=4.0, persistence=0.3)
    out, report = assimilate(make_state(make_fragment(1)), incoming(new), cfg, IdAllocator(200))
    assert out.get(101).persistence == 1.0
    assert out.get(101).anchor == 4.0
    assert report.added == (101,)


def test_fresh_input_is_copied_only_to_reset_its_persistence(cfg):
    full = make_fragment(101, "valve hums")
    rule = ElaborationRule("valve", make_fragment(1, "check the panel", persistence=0.2))
    out, report = assimilate(
        make_state(make_fragment(1)), incoming(full), cfg, IdAllocator(200), rules=(rule,)
    )
    assert out.get(101) is full
    assert out.get(report.elaborated[0]).persistence == 1.0


def test_incoming_id_collision_rejected(cfg):
    clash = make_fragment(1, "totally different words")
    with pytest.raises(ValueError, match="collides"):
        assimilate(make_state(make_fragment(1)), incoming(clash), cfg, IdAllocator(200))


def test_conflict_pairs_require_shared_key_opposite_polarity(cfg):
    held = make_state(
        make_fragment(1, "valve open", key="valve", polarity="+"),
        make_fragment(2, "seal ok", key="seal", polarity="+"),
    )
    probe = incoming(
        make_fragment(101, "valve shut", key="valve", polarity="-"),
        make_fragment(102, "seal ok indeed", key="seal", polarity="+"),
        make_fragment(103, "plain text"),
    )
    with pytest.raises(ConflictError) as err:
        assimilate(held, probe, cfg, IdAllocator(200), mode="elab")
    assert [(a.id, a.key, b.id) for a, b in err.value.pairs] == [(1, "valve", 101)]


def test_elaborative_mode_raises_on_conflict(cfg):
    held = make_state(make_fragment(1, "valve open", key="valve", polarity="+"))
    clash = incoming(make_fragment(101, "valve shut", key="valve", polarity="-"))
    with pytest.raises(ConflictError) as err:
        assimilate(held, clash, cfg, IdAllocator(200), mode="elab")
    assert [a.key for a, _ in err.value.pairs] == ["valve"]


def test_confirmatory_mode_unions_without_revision(cfg):
    held = make_state(make_fragment(1, "valve open", key="valve", polarity="+", anchor=1.0))
    clash = incoming(make_fragment(101, "valve shut", key="valve", polarity="-", anchor=9.0))
    out, report = assimilate(held, clash, cfg, IdAllocator(200), mode="conf")
    assert out.ids() == frozenset({1, 101})  # both sides kept, tension recorded
    assert report.conflicts_found == 1
    assert report.retracted == ()


def test_revision_lower_anchor_loses(cfg):
    held = make_state(make_fragment(1, "valve open", key="valve", polarity="+", anchor=1.0))
    challenger = incoming(
        make_fragment(101, "valve shut", key="valve", polarity="-", anchor=5.0)
    )
    out, report = assimilate(held, challenger, cfg, IdAllocator(200), mode="corr")
    assert out.ids() == frozenset({101})
    assert report.retracted == (1,)


def test_revision_anchor_tie_older_loses(cfg):
    held = make_state(
        make_fragment(1, "valve open", key="valve", polarity="+", anchor=3.0, created_at=0.0)
    )
    newer = incoming(
        make_fragment(101, "valve shut", key="valve", polarity="-", anchor=3.0, created_at=7.0)
    )
    out, _ = assimilate(held, newer, cfg, IdAllocator(200), mode="corr")
    assert out.ids() == frozenset({101})


def test_revision_full_tie_incoming_loses(cfg):
    held = make_state(
        make_fragment(1, "valve open", key="valve", polarity="+", anchor=3.0, created_at=2.0)
    )
    rival = incoming(
        make_fragment(101, "valve shut", key="valve", polarity="-", anchor=3.0, created_at=2.0)
    )
    out, report = assimilate(held, rival, cfg, IdAllocator(200), mode="corr")
    assert out.ids() == frozenset({1})
    assert report.added == ()
    assert report.conflicts_found == 1


def test_rule_fires_on_key_match(cfg):
    rule = ElaborationRule(
        "valve", make_fragment(1, "check the panel", sectors=("task",), anchor=2.0)
    )
    held = make_state(make_fragment(1, "valve open", key="valve", polarity="+"))
    out, report = assimilate(held, incoming(), cfg, IdAllocator(200), rules=(rule,))
    assert len(report.elaborated) == 1
    emitted = out.get(report.elaborated[0])
    assert emitted.text == "check the panel"
    assert emitted.origin == "elaborated"
    assert emitted.anchor == 2.0
    assert emitted.sectors == frozenset({"task"})


def test_rule_fires_on_token_subset(cfg):
    rule = ElaborationRule("red light", make_fragment(1, "warning active"))
    held = make_state(make_fragment(1, "the red warning light blinks"))
    out, report = assimilate(held, incoming(), cfg, IdAllocator(200))
    assert report.elaborated == ()  # no rules passed, nothing emitted
    out, report = assimilate(held, incoming(), cfg, IdAllocator(200), rules=(rule,))
    assert len(report.elaborated) == 1
    assert out.get(report.elaborated[0]).text == "warning active"


def test_rule_does_not_fire_without_match(cfg):
    rule = ElaborationRule("green light", make_fragment(1, "all clear"))
    held = make_state(make_fragment(1, "red light"))
    _, report = assimilate(held, incoming(), cfg, IdAllocator(200), rules=(rule,))
    assert report.elaborated == ()


def test_rule_skips_duplicate_emission(cfg):
    rule = ElaborationRule("pump", make_fragment(1, "check the panel"))
    held = make_state(make_fragment(1, "pump hums"), make_fragment(2, "check the panel"))
    out, report = assimilate(held, incoming(), cfg, IdAllocator(200), rules=(rule,))
    assert report.elaborated == ()
    assert out.ids() == frozenset({1, 2})


def test_rule_fires_at_most_once_per_pass(cfg):
    rule = ElaborationRule("pump", make_fragment(1, "check the panel"))
    held = make_state(make_fragment(1, "pump hums"), make_fragment(2, "pump rattles"))
    _, report = assimilate(held, incoming(), cfg, IdAllocator(200), rules=(rule,))
    assert len(report.elaborated) == 1


def test_abstracting_merge_folds_group(cfg):
    held = make_state(
        make_fragment(1, "coolant flow steady", sectors=("perc",)),
        make_fragment(2, "coolant flow noisy", sectors=("perc",)),
        make_fragment(3, "terrain grid", sectors=("perc",)),
    )
    out, report = assimilate(
        held, incoming(), cfg, IdAllocator(200), mode="abs", abs_group="coolant flow"
    )
    assert len(report.abstracted) == 1
    summary = out.get(report.abstracted[0])
    assert summary.origin == "abstracted"
    assert summary.members == (1, 2)
    assert summary.level == 1
    assert out.get(3) is not None  # non-members untouched
    assert out.get(1) is None and out.get(2) is None


def test_abstracting_merge_needs_two_members(cfg):
    held = make_state(make_fragment(1, "coolant flow steady"))
    out, report = assimilate(
        held, incoming(), cfg, IdAllocator(200), mode="abs", abs_group="coolant flow"
    )
    assert report.abstracted == ()
    assert out.ids() == frozenset({1})


def test_internal_sweep_resolves_contradictory_input(cfg):
    pro = make_fragment(101, "valve open", key="valve", polarity="+", anchor=2.0)
    con = make_fragment(102, "valve shut", key="valve", polarity="-", anchor=1.0)
    out, report = assimilate(make_state(), incoming(pro, con), cfg, IdAllocator(200))
    assert out.ids() == frozenset({101})
    assert report.conflicts_found == 1
    assert 102 not in report.added


def test_internal_sweep_full_tie_drops_higher_id(cfg):
    pro = make_fragment(101, "valve open", key="valve", polarity="+", anchor=2.0, created_at=1.0)
    con = make_fragment(102, "valve shut", key="valve", polarity="-", anchor=2.0, created_at=1.0)
    out, _ = assimilate(make_state(), incoming(pro, con), cfg, IdAllocator(200))
    assert out.ids() == frozenset({101})


def test_assimilation_preserves_clock(cfg):
    held = BeliefState((make_fragment(1),), 12.5)
    out, _ = assimilate(held, incoming(make_fragment(101, "valve")), cfg, IdAllocator(200))
    assert out.clock == 12.5


class TestAssimilationLaws:
    @settings(max_examples=60, deadline=None)
    @given(held=states(keyed=True), data=st.data())
    def test_auto_mode_ends_conflict_free(self, held, data):
        from conftest import fragments

        cfg = default_config()
        n = data.draw(st.integers(0, 4))
        batch = [data.draw(fragments(100 + i, keyed=True)) for i in range(n)]
        out, _ = assimilate(
            held, BeliefState(tuple(batch), held.clock), cfg, IdAllocator(500)
        )
        assert reference.first_conflict(out.rows) is None

    @settings(max_examples=50, deadline=None)
    @given(held=states(min_frags=1))
    def test_reassimilating_own_content_adds_nothing(self, held):
        cfg = default_config()
        keys = [f.content_key() for f in held.fragments]
        assume(len(set(keys)) == len(keys))  # content twins share one refresh target
        echo = BeliefState(
            tuple(f.replace(id=f.id + 1000) for f in held.fragments), held.clock
        )
        out, report = assimilate(held, echo, cfg, IdAllocator(5000))
        assert report.added == ()
        assert out.ids() == held.ids()
        for f in out.fragments:
            assert f.anchor == held.get(f.id).anchor + 1.0
            assert f.persistence == 1.0


# --------------------------------------------------------------------------
# Assimilation against the reference that rebuilds every fragment
# --------------------------------------------------------------------------

# Few contents, so twins, shared keys of both polarities and rule emits that
# equal a held fragment's content are common.
CLAIMS = (None, ("p", "+"), ("p", "-"))


@st.composite
def _claims(draw, fid):
    key = draw(st.sampled_from(CLAIMS))
    return make_fragment(
        fid,
        draw(st.sampled_from(("pump valve", "valve seal"))),
        sectors=draw(st.sampled_from((("perc",), ("perc", "task")))),
        anchor=draw(st.sampled_from((1.0, 2.0, 3.0))),
        persistence=draw(st.sampled_from((1.0, 0.6))),
        created_at=draw(st.sampled_from((0.0, 1.0))),
        key=key and key[0],
        polarity=key and key[1],
    )


@st.composite
def assimilation_cases(draw):
    """A state whose columns have moved from its rows (decay keeps factors,
    a re-anchor lifts anchors and ties them), an input of twins, rivals of
    held claims and fresh claims whose ids may collide with the state's,
    rules (some emit a held fragment's content) and a mode."""
    cfg = default_config().replace(lambda0=draw(st.sampled_from((0.05, 0.5))))
    held = draw(st.lists(st.integers(1, 10), unique=True, max_size=7))
    state = BeliefState(tuple(draw(_claims(fid)) for fid in sorted(held)), 1.0)
    for op in draw(st.lists(st.sampled_from(("nullify", "reanchor")), max_size=3)):
        if op == "nullify":
            state = nullify(state, 1.0, cfg)
        else:
            lifted = draw(st.sets(st.sampled_from(held or [0]), max_size=3))
            state = state.reanchor(lifted, draw(st.sampled_from((2.0, 3.5))))
    batch = []
    for fid in draw(st.lists(st.integers(1, 16), unique=True, max_size=5)):
        source = "claim"
        if state.rows:
            source = draw(st.sampled_from(("twin", "rival", "rival", "claim")))
        if source == "claim":
            batch.append(draw(_claims(fid)))
            continue
        held_row = draw(st.sampled_from(state.rows))
        anchor = draw(st.sampled_from((1.0, 3.0, 4.0, 4.0)))
        if source == "rival" and held_row.key is not None:
            flipped = "+" if held_row.polarity == "-" else "-"
            batch.append(held_row.replace(id=fid, polarity=flipped, anchor=anchor))
        else:
            batch.append(held_row.replace(id=fid, anchor=anchor))
    rules = tuple(
        ElaborationRule(
            draw(st.sampled_from(("pump", "seal", "p", "steady"))),
            draw(st.sampled_from(state.rows)) if state.rows and draw(st.integers(0, 2))
            else draw(_claims(0)),
        )
        for _ in range(draw(st.integers(0, 3)))
    )
    mode = draw(st.sampled_from(("auto", "auto", "auto", "corr", "elab", "abs", "conf")))
    group = draw(st.sampled_from((None, "valve", "pump")))
    return cfg, state, BeliefState(tuple(batch), 1.0), rules, mode, group


def _fixed(f):
    return f.id, f.text, f.sectors, f.level, f.created_at, f.origin, f.key, f.polarity, f.members


def _assimilated(fn, state, batch, cfg, rules, mode, group):
    """The result and the next id drawn, or the refusal."""
    ids = IdAllocator(100)
    try:
        out = fn(state, batch, cfg, ids, mode=mode, rules=rules, abs_group=group)
    except ValueError as err:  # ConflictError too
        return type(err), str(err), getattr(err, "pairs", None)
    return out, ids.next()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=assimilation_cases())
def test_assimilate_matches_the_reference_rebuild(case):
    cfg, state, batch, rules, mode, group = case
    fast = _assimilated(assimilate, state, batch, cfg, rules, mode, group)
    slow = _assimilated(reference.assimilate, state, batch, cfg, rules, mode, group)
    if not isinstance(slow[0], tuple):
        assert fast == slow
        return
    ((out, report), next_id), ((ref, ref_report), ref_next_id) = fast, slow
    assert (report, next_id) == (ref_report, ref_next_id)
    assert out == ref
    assert list(map(_fixed, out.rows)) == list(map(_fixed, ref.rows))
    anchor, persistence = out._table["anchor"], out._table["persistence"]
    assert anchor.tobytes() == np.array([f.anchor for f in ref.fragments], float).tobytes()
    assert persistence.tobytes() == np.array(
        [f.persistence for f in ref.fragments], float).tobytes()
    assert out._decay == state._decay
    if out._decay is not None:
        dt = out._decay[0]
        assert out._table["decay"].tobytes() == np.array(
            [math.exp(-cfg.decay_rate(f.anchor) * dt) for f in ref.fragments], float).tobytes()


# --------------------------------------------------------------------------
# Conflict queries: the key index against all-pairs enumeration
# --------------------------------------------------------------------------

def _opposed(a, b):
    return a.key is not None and a.key == b.key and a.polarity != b.polarity


def _all_conflicts(frags):
    """Every conflicting (a, b) with a listed before b, in listing order."""
    return [(a, b) for i, a in enumerate(frags) for b in frags[i + 1:] if _opposed(a, b)]


def _quadratic_resolve(fragments):
    """Reference revision walk over every pair: (survivors, retracted, seen)."""
    alive = {f.id: f for f in fragments}
    retracted = []
    seen = 0
    ordered = sorted(fragments, key=lambda f: f.id)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a.id not in alive or b.id not in alive:
                continue
            if _opposed(a, b):
                seen += 1
                if a.anchor != b.anchor:
                    loser = a if a.anchor < b.anchor else b
                elif a.created_at != b.created_at:
                    loser = a if a.created_at < b.created_at else b
                else:
                    loser = b
                del alive[loser.id]
                retracted.append(loser.id)
    return sorted(alive.values(), key=lambda f: f.id), retracted, seen


def _quadratic_most_conflicted(state):
    best, best_count = None, 0
    for sector in union_sectors(state):
        count = len(_all_conflicts(sector_projection(state, sector).fragments))
        if count > best_count:
            best, best_count = sector, count
    if best is not None:
        return best
    pairs = _all_conflicts(state.fragments)
    return min(pairs[0][0].sectors | pairs[0][1].sectors) if pairs else None


@st.composite
def interleaved_claims(draw):
    """Shuffled fragments whose ids interleave several keys.  Anchors and
    created_at come from two values each, so both revision tie-breaks fire."""
    n = draw(st.integers(0, 14))
    frags = []
    for i in range(n):
        key = draw(st.sampled_from((None, "p", "q", "r")))
        frags.append(
            make_fragment(
                i + 1,
                sectors=draw(st.sets(st.sampled_from(("perc", "task", "plan")), min_size=1)),
                anchor=draw(st.sampled_from((1.0, 2.0))),
                created_at=draw(st.sampled_from((1.0, 2.0))),
                key=key,
                polarity=draw(st.sampled_from("+-")) if key else None,
            )
        )
    return draw(st.permutations(frags))


@settings(max_examples=300, deadline=None)
@given(frags=interleaved_claims(), data=st.data())
def test_key_index_matches_all_pairs_enumeration(frags, data):
    survivors, retracted, seen = _quadratic_resolve(frags)
    resolved, swept = _resolve_internal(make_state(*frags))
    assert (list(resolved.fragments), swept) == (survivors, retracted)
    assert len(retracted) == seen

    state = make_state(*frags)
    pairs = _all_conflicts(state.fragments)
    assert first_conflict(state) == reference.first_conflict(state.rows) == (
        pairs[0] if pairs else None)
    assert _most_conflicted_sector(state) == _quadratic_most_conflicted(state)

    # Assimilation's conflict pairs, read from the elaborative refusal; the
    # probe's texts differ from the held ones, so no input is a twin.
    sides = data.draw(st.lists(st.booleans(), min_size=len(frags), max_size=len(frags)))
    held = make_state(*(f for f, new in zip(frags, sides) if not new))
    probe = incoming(*(f.replace(text="valve probe") for f, new in zip(frags, sides) if new))
    try:
        assimilate(held, probe, default_config(), IdAllocator(100), mode="elab")
        pairs = ()
    except ConflictError as err:
        pairs = err.pairs
    assert list(pairs) == [
        (a, b) for a in held.fragments for b in probe.fragments if _opposed(a, b)
    ]


# --------------------------------------------------------------------------
# Annihilation
# --------------------------------------------------------------------------

def test_annihilate_sector_removes_multi_tagged_entirely():
    state = make_state(
        make_fragment(1, sectors=("perc", "task")),
        make_fragment(2, "valve", sectors=("task",)),
        make_fragment(3, "seal", sectors=("mem",)),
    )
    out = annihilate_sector(state, "task")
    assert out.ids() == frozenset({3})


def test_annihilate_sector_is_idempotent():
    state = make_state(make_fragment(1, sectors=("perc",)), make_fragment(2, "valve"))
    once = annihilate_sector(state, "perc")
    assert annihilate_sector(once, "perc") == once
    assert once.is_vacuum


def test_annihilate_sector_untagged_survives():
    state = make_state(make_fragment(1, sectors=("mem",)))
    assert annihilate_sector(state, "task") == state


# --------------------------------------------------------------------------
# Drift
# --------------------------------------------------------------------------

def test_drift_refuses_empty_lexicon():
    state = make_state(make_fragment(1))
    with pytest.raises(ValueError):
        drift(state, [], random.Random(0), IdAllocator(100))


def test_drift_adds_low_anchor_percept():
    state = BeliefState((), 6.0)
    out = drift(state, ["rain", "wind"], random.Random(3), IdAllocator(100))
    frag = out.fragments[0]
    assert frag.text in ("rain", "wind")
    assert frag.anchor == DRIFT_ANCHOR
    assert frag.origin == "drifted"
    assert frag.sectors == frozenset({"perc"})
    assert frag.created_at == 6.0


def test_drift_is_reproducible_per_seed():
    lexicon = ["rain", "wind", "hum", "static", "flicker"]
    picks_a = []
    picks_b = []
    for picks, seed in ((picks_a, 11), (picks_b, 11)):
        rng = random.Random(seed)
        state = BeliefState((), 0.0)
        ids = IdAllocator(1)
        for _ in range(6):
            state = drift(state, lexicon, rng, ids)
        picks.extend(f.text for f in state.fragments)
    assert picks_a == picks_b
