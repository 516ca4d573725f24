"""Abstraction towers: merging upward, elaborating downward, axis derivation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsim.config import default_config
from beliefsim.core import BeliefState, IdAllocator, embed_state
from beliefsim.geometry import distance
from beliefsim.tower import (
    SUMMARY_TOKEN_CAP,
    _merge_pair,
    _primary_sector,
    abstract_step,
    build_tower,
    derive_axis,
    elaborate_step,
    merge_group,
    roundtrip_loss,
)

from conftest import make_fragment, states, tie_states
from reference import embed_tokens


# --------------------------------------------------------------------------
# One upward step
# --------------------------------------------------------------------------

def test_abstract_rejects_vacuum(cfg):
    with pytest.raises(ValueError, match="vacuum"):
        abstract_step(BeliefState((), 0.0), cfg, IdAllocator(1))


def test_abstract_merges_most_similar_pair(cfg):
    close_a = make_fragment(1, "coolant flow steady")
    close_b = make_fragment(2, "coolant flow noisy")
    far = make_fragment(3, "terrain grid")
    state = BeliefState((close_a, close_b, far), 0.0)
    out = abstract_step(state, cfg, IdAllocator(10))
    summaries = [f for f in out.fragments if f.origin == "abstracted"]
    assert len(summaries) == 1
    assert summaries[0].members == (1, 2)
    # The odd fragment passes through one level up.
    passthrough = out.get(3)
    assert passthrough is not None
    assert passthrough.level == 1


def test_abstract_summary_metadata(cfg):
    a = make_fragment(1, "coolant flow steady", sectors=("perc",), anchor=2.0,
                      persistence=0.8)
    b = make_fragment(2, "coolant flow noisy", sectors=("perc", "task"), anchor=5.0,
                      persistence=0.4)
    state = BeliefState((a, b), 3.0)
    out = abstract_step(state, cfg, IdAllocator(10))
    summary = out.fragments[0]
    assert summary.level == 1
    assert summary.anchor == 5.0
    assert summary.persistence == 0.8
    assert summary.sectors == frozenset({"perc", "task"})
    assert summary.created_at == 3.0
    assert summary.origin == "abstracted"


def test_summary_text_uses_shared_tokens_with_multiplicity(cfg):
    a = make_fragment(1, "pump pump valve check")
    b = make_fragment(2, "pump pump seal valve")
    out = abstract_step(BeliefState((a, b), 0.0), cfg, IdAllocator(10))
    # Intersection multiset {pump:2, valve:1}, sorted elements.
    assert out.fragments[0].text == "pump pump valve"


def test_summary_text_disjoint_takes_capped_union(cfg):
    a = make_fragment(1, "alpha beta gamma delta")
    b = make_fragment(2, "epsilon zeta eta eta")
    out = abstract_step(BeliefState((a, b), 0.0), cfg, IdAllocator(10))
    tokens = out.fragments[0].text.split()
    assert len(tokens) == SUMMARY_TOKEN_CAP
    assert tokens[0] == "eta"  # count 2 ranks first, then alphabetical
    assert tokens[1:] == ["alpha", "beta", "delta", "epsilon", "gamma"]
    assert "zeta" not in tokens  # seventh by rank, truncated


def test_abstract_groups_by_primary_sector(cfg):
    # Same text, different sectors: must not merge across groups.
    a = make_fragment(1, "coolant flow", sectors=("perc",))
    b = make_fragment(2, "coolant flow", sectors=("task",))
    out = abstract_step(BeliefState((a, b), 0.0), cfg, IdAllocator(10))
    assert all(f.origin != "abstracted" for f in out.fragments)
    assert {f.level for f in out.fragments} == {1}


def test_abstract_singleton_passes_through_with_same_id(cfg):
    lone = make_fragment(7, "pump hums", level=2)
    out = abstract_step(BeliefState((lone,), 0.0), cfg, IdAllocator(10))
    assert out.ids() == frozenset({7})
    assert out.get(7).level == 3


def test_abstract_tie_breaks_to_lowest_id_pair(cfg):
    # Three identical texts: all cosines are 1.0, so (1, 2) must pair.
    frags = tuple(make_fragment(i, "pump hums") for i in (1, 2, 3))
    out = abstract_step(BeliefState(frags, 0.0), cfg, IdAllocator(10))
    summary = [f for f in out.fragments if f.origin == "abstracted"][0]
    assert summary.members == (1, 2)


def test_merge_group_folds_to_single_summary(cfg):
    frags = [
        make_fragment(1, "coolant flow steady"),
        make_fragment(2, "coolant flow noisy"),
        make_fragment(3, "coolant flow rising"),
    ]
    summary = merge_group(frags, cfg, IdAllocator(10), 5.0)
    assert summary.origin == "abstracted"
    assert summary.level == 2  # two nested merges
    assert summary.created_at == 5.0


def test_merge_group_singleton_just_levels_up(cfg):
    frag = make_fragment(4, "pump", level=1)
    out = merge_group([frag], cfg, IdAllocator(10), 0.0)
    assert out.id == 4
    assert out.level == 2
    assert out.origin == "observed"


def test_merge_group_rejects_empty(cfg):
    with pytest.raises(ValueError, match="at least one"):
        merge_group([], cfg, IdAllocator(10), 0.0)


# --------------------------------------------------------------------------
# Downward elaboration
# --------------------------------------------------------------------------

def test_elaborate_restores_members_from_history(cfg):
    a = make_fragment(1, "coolant flow steady")
    b = make_fragment(2, "coolant flow noisy")
    seed = BeliefState((a, b), 0.0)
    ids = IdAllocator(10)
    up = abstract_step(seed, cfg, ids)
    down = elaborate_step(up, (seed,), cfg, ids)
    texts = sorted(f.text for f in down.fragments)
    assert texts == ["coolant flow noisy", "coolant flow steady"]
    assert all(f.level == 0 for f in down.fragments)
    # Restorations are copies under fresh ids, not the original objects.
    assert down.ids().isdisjoint(seed.ids())


def test_elaborate_without_history_degrades_to_synthetic(cfg):
    a = make_fragment(1, "coolant flow steady")
    b = make_fragment(2, "coolant flow noisy")
    up = abstract_step(BeliefState((a, b), 0.0), cfg, IdAllocator(10))
    down = elaborate_step(up, (), cfg, IdAllocator(50))
    assert len(down.fragments) == 1
    ghost = down.fragments[0]
    assert ghost.origin == "synthetic"
    assert ghost.members is None
    assert ghost.level == 0
    assert ghost.text == up.fragments[0].text


def test_elaborate_plain_fragment_steps_down_with_floor(cfg):
    state = BeliefState(
        (make_fragment(1, "pump", level=2), make_fragment(2, "valve", level=0)), 0.0
    )
    down = elaborate_step(state, (), cfg, IdAllocator(10))
    assert down.get(1).level == 1
    assert down.get(2).level == 0


def test_roundtrip_loss_zero_for_self_similar_pair(cfg):
    # Identical texts merge into the same bag, so the embedding cannot move.
    a = make_fragment(1, "pump hums")
    b = make_fragment(2, "pump hums")
    assert roundtrip_loss(BeliefState((a, b), 0.0), cfg) == pytest.approx(0.0, abs=1e-12)


def test_roundtrip_loss_positive_when_union_truncates(cfg):
    a = make_fragment(1, "alpha beta gamma delta")
    b = make_fragment(2, "epsilon zeta eta theta")
    loss = roundtrip_loss(BeliefState((a, b), 0.0), cfg)
    assert loss > 0.0


def test_roundtrip_loss_rejects_vacuum(cfg):
    with pytest.raises(ValueError, match="vacuum"):
        roundtrip_loss(BeliefState((), 0.0), cfg)


# --------------------------------------------------------------------------
# Towers
# --------------------------------------------------------------------------

def seed_of(n: int, clock: float = 0.0) -> BeliefState:
    frags = tuple(
        make_fragment(i + 1, f"reading {i} of the coolant line") for i in range(n)
    )
    return BeliefState(frags, clock)


def test_build_tower_validates_arguments(cfg):
    with pytest.raises(ValueError, match="max_k"):
        build_tower(seed_of(2), 0, cfg, IdAllocator(100))
    with pytest.raises(ValueError, match="vacuum"):
        build_tower(BeliefState((), 0.0), 4, cfg, IdAllocator(100))


def test_tower_converges_within_log_bound(cfg):
    for n in (2, 3, 5, 8):
        bound = math.ceil(math.log2(n)) + 1
        trajectory = build_tower(seed_of(n), bound, cfg, IdAllocator(100))
        assert trajectory.converged, f"n={n} did not converge in {bound} steps"
        assert trajectory.fixpoint_gap < cfg.eps_fix


def test_tower_levels_shrink_monotonically(cfg):
    trajectory = build_tower(seed_of(6), 8, cfg, IdAllocator(100))
    sizes = [len(level.fragments) for level in trajectory.levels]
    assert sizes[0] == 6
    assert all(b <= a for a, b in zip(sizes, sizes[1:]))
    # Convergence is an embedding fixpoint, not necessarily a singleton:
    # once every summary carries the same token bag the tower stops moving.
    assert trajectory.converged
    assert distance(trajectory.levels[-1], trajectory.levels[-2], cfg) < cfg.eps_fix


def test_tower_not_converged_when_budget_too_small(cfg):
    trajectory = build_tower(seed_of(8), 1, cfg, IdAllocator(100))
    assert not trajectory.converged
    assert trajectory.fixpoint_gap >= cfg.eps_fix


class TestTowerLaws:
    @settings(max_examples=30, deadline=None)
    @given(state=states(min_frags=1, max_frags=6))
    def test_tower_reaches_fixpoint_within_bound(self, state):
        cfg = default_config()
        n = len(state.fragments)
        bound = math.ceil(math.log2(n)) + 1 if n > 1 else 1
        trajectory = build_tower(state, bound, cfg, IdAllocator(10_000))
        assert trajectory.converged

    @settings(max_examples=30, deadline=None)
    @given(state=states(min_frags=2, max_frags=6))
    def test_abstraction_never_grows_the_state(self, state):
        cfg = default_config()
        out = abstract_step(state, cfg, IdAllocator(10_000))
        assert len(out.fragments) <= len(state.fragments)


def _reference_best_pair(pool, dim):
    """The full rescan of every pair: the oracle for the pair heap."""
    ordered = sorted(pool)
    best_key = None
    best_cos = -math.inf
    for i, ia in enumerate(ordered):
        va = embed_tokens(pool[ia].tokens, dim)
        for ib in ordered[i + 1:]:
            cos = float(np.dot(va, embed_tokens(pool[ib].tokens, dim)))
            if cos > best_cos or (cos == best_cos and (ia, ib) < best_key):
                best_cos = cos
                best_key = (ia, ib)
    return best_key


def _reference_abstract_step(state, config, ids):
    groups = {}
    for f in state.fragments:
        groups.setdefault(_primary_sector(f), []).append(f)
    result = []
    for sector in sorted(groups):
        pool = {f.id: f for f in groups[sector]}
        while len(pool) >= 2:
            ia, ib = _reference_best_pair(pool, config.embed_dim)
            result.append(_merge_pair(pool.pop(ia), pool.pop(ib), ids, state.clock))
        for leftover in pool.values():
            result.append(leftover.replace(level=leftover.level + 1))
    return BeliefState(tuple(result), state.clock)


def _reference_merge_group(members, config, ids, clock):
    pool = {f.id: f for f in members}
    while len(pool) > 1:
        ia, ib = _reference_best_pair(pool, config.embed_dim)
        merged = _merge_pair(pool.pop(ia), pool.pop(ib), ids, clock)
        pool[merged.id] = merged
    return next(iter(pool.values()))


class TestPairHeapMatchesRescan:
    @settings(max_examples=150, deadline=None)
    @given(state=tie_states(max_frags=12), dim=st.sampled_from((8, 64)))
    def test_abstract_step(self, state, dim):
        cfg = default_config().replace(embed_dim=dim)
        start = max(state.ids()) + 1
        out = abstract_step(state, cfg, IdAllocator(start))
        assert out == _reference_abstract_step(state, cfg, IdAllocator(start))

    @settings(max_examples=150, deadline=None)
    @given(state=tie_states(max_frags=12), dim=st.sampled_from((8, 64)))
    def test_merge_group(self, state, dim):
        cfg = default_config().replace(embed_dim=dim)
        start = max(state.ids()) + 1
        members = list(state.fragments)
        out = merge_group(members, cfg, IdAllocator(start), 3.0)
        assert out == _reference_merge_group(members, cfg, IdAllocator(start), 3.0)


# --------------------------------------------------------------------------
# Axis derivation
# --------------------------------------------------------------------------

def test_derive_axis_requires_convergence(cfg):
    trajectory = build_tower(seed_of(8), 1, cfg, IdAllocator(100))
    with pytest.raises(ValueError, match="converged"):
        derive_axis(trajectory, "focus", cfg)


def test_derive_axis_null_seed_uses_zero_origin(cfg):
    trajectory = build_tower(seed_of(4), 6, cfg, IdAllocator(100))
    axis = derive_axis(trajectory, "focus", cfg, null_seed=True)
    assert not axis.origin.any()
    fixpoint = embed_state(trajectory.levels[-1], cfg.embed_dim)
    assert np.allclose(axis.direction, fixpoint)
    assert axis.label == "focus"


def test_derive_axis_difference_vector(cfg):
    trajectory = build_tower(seed_of(4), 6, cfg, IdAllocator(100))
    axis = derive_axis(trajectory, "focus", cfg)
    start = embed_state(trajectory.levels[0], cfg.embed_dim)
    end = embed_state(trajectory.levels[-1], cfg.embed_dim)
    assert np.allclose(axis.origin, start)
    assert np.allclose(axis.direction, end - start)


def test_derive_axis_rejects_degenerate_direction(cfg):
    # A singleton seed is its own fixed point: origin equals fixpoint.
    lone = BeliefState((make_fragment(1, "pump hums"),), 0.0)
    trajectory = build_tower(lone, 3, cfg, IdAllocator(100))
    assert trajectory.converged
    with pytest.raises(ValueError, match="degenerate"):
        derive_axis(trajectory, "focus", cfg)


def test_derive_axis_null_seed_rescues_singleton(cfg):
    lone = BeliefState((make_fragment(1, "pump hums"),), 0.0)
    trajectory = build_tower(lone, 3, cfg, IdAllocator(100))
    axis = derive_axis(trajectory, "focus", cfg, null_seed=True)
    assert float(np.linalg.norm(axis.direction)) == pytest.approx(1.0)
