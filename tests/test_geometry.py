"""Distance conventions, compass readings, and realignment."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsim import geometry
from beliefsim.config import default_config
from beliefsim.core import BeliefState, embed_state, embed_weighted, tokenize
from beliefsim.geometry import (
    CompassReading,
    compass_reading,
    cosine_distance,
    detect_drift,
    distance,
    realign,
)
from beliefsim.tower import EpistemicAxis

import reference
from conftest import CORE, make_fragment, states, tie_states
from reference import embed_tokens

VACUUM = BeliefState((), 0.0)


def axis_from(vec, origin=None, label="probe"):
    direction = np.asarray(vec, dtype=np.float64)
    if origin is None:
        origin = np.zeros_like(direction)
    return EpistemicAxis(label=label, origin=np.asarray(origin, dtype=np.float64),
                         direction=direction)


def one_frag_state(text: str) -> BeliefState:
    return BeliefState((make_fragment(1, text),), 0.0)


# --------------------------------------------------------------------------
# Distance
# --------------------------------------------------------------------------

def test_distance_identical_states_is_zero(cfg):
    state = one_frag_state("coolant flow steady")
    assert distance(state, state, cfg) == pytest.approx(0.0, abs=1e-12)


def test_distance_word_order_is_irrelevant(cfg):
    a = one_frag_state("coolant flow steady")
    b = one_frag_state("steady coolant flow")
    assert distance(a, b, cfg) == pytest.approx(0.0, abs=1e-12)


def test_distance_vacuum_conventions(cfg):
    state = one_frag_state("pump")
    assert distance(VACUUM, VACUUM, cfg) == 0.0
    assert distance(VACUUM, state, cfg) == 1.0
    assert distance(state, VACUUM, cfg) == 1.0


def test_distance_disjoint_texts_is_large(cfg):
    a = one_frag_state("coolant flow steady")
    b = one_frag_state("purple elephant dancing")
    assert distance(a, b, cfg) > 0.5


class TestDistanceLaws:
    @settings(max_examples=60, deadline=None)
    @given(a=states(), b=states())
    def test_symmetric_and_bounded(self, a, b):
        cfg = default_config()
        d = distance(a, b, cfg)
        assert d == pytest.approx(distance(b, a, cfg), abs=1e-12)
        assert 0.0 <= d <= 2.0

    @settings(max_examples=60, deadline=None)
    @given(a=states(), b=states())
    def test_is_the_cosine_distance_of_the_embeddings(self, a, b):
        """Vacua included: both empty read 0, one empty reads 1."""
        cfg = default_config()
        va, vb = embed_state(a, cfg.embed_dim), embed_state(b, cfg.embed_dim)
        assert cosine_distance(va, vb) == distance(a, b, cfg)

    @settings(max_examples=40, deadline=None)
    @given(a=states())
    def test_self_distance_zero(self, a):
        cfg = default_config()
        assert distance(a, a, cfg) == pytest.approx(0.0, abs=1e-9)


# --------------------------------------------------------------------------
# Compass
# --------------------------------------------------------------------------

def test_compass_rejects_zero_direction(cfg):
    bad = axis_from(np.zeros(cfg.embed_dim))
    with pytest.raises(ValueError, match="zero direction"):
        compass_reading(one_frag_state("pump"), bad, cfg)


def test_compass_at_origin_reads_zero(cfg):
    state = one_frag_state("pump hums")
    origin = embed_state(state, cfg.embed_dim)
    direction = np.zeros(cfg.embed_dim)
    direction[0] = 1.0
    reading = compass_reading(state, axis_from(direction, origin=origin), cfg)
    assert reading == CompassReading(0.0, 0.0, 0.0)


def test_compass_on_axis_state_has_zero_theta(cfg):
    state = one_frag_state("pump hums")
    direction = embed_state(state, cfg.embed_dim)
    reading = compass_reading(state, axis_from(direction), cfg)
    assert reading.theta == pytest.approx(0.0, abs=1e-9)
    assert reading.residual == pytest.approx(0.0, abs=1e-9)
    assert reading.proj_coeff == pytest.approx(1.0, abs=1e-9)


def test_compass_anti_aligned_state_reads_pi(cfg):
    state = one_frag_state("pump hums")
    direction = -embed_state(state, cfg.embed_dim)
    reading = compass_reading(state, axis_from(direction), cfg)
    assert reading.theta == pytest.approx(math.pi, abs=1e-9)
    assert reading.proj_coeff == pytest.approx(-1.0, abs=1e-9)


def test_compass_projection_scales_with_direction_norm(cfg):
    state = one_frag_state("pump hums")
    v = embed_state(state, cfg.embed_dim)
    # Doubling |v| halves the coefficient needed to land on the same point.
    single = compass_reading(state, axis_from(v), cfg)
    double = compass_reading(state, axis_from(2.0 * v), cfg)
    assert double.proj_coeff == pytest.approx(single.proj_coeff / 2.0, abs=1e-12)
    assert double.theta == pytest.approx(single.theta, abs=1e-12)


class TestCompassLaws:
    @settings(max_examples=80, deadline=None)
    @given(state=states(min_frags=1), axis_state=states(min_frags=1))
    def test_decomposition_is_pythagorean(self, state, axis_state):
        cfg = default_config()
        direction = embed_state(axis_state, cfg.embed_dim)
        if float(np.linalg.norm(direction)) == 0.0:
            return
        axis = axis_from(direction)
        reading = compass_reading(state, axis, cfg)
        u = embed_state(state, cfg.embed_dim) - axis.origin
        lhs = float(np.dot(u, u))
        parallel = reading.proj_coeff * float(np.linalg.norm(direction))
        rhs = parallel * parallel + reading.residual * reading.residual
        assert lhs == pytest.approx(rhs, abs=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(state=states(min_frags=1), axis_state=states(min_frags=1))
    def test_theta_in_principal_range(self, state, axis_state):
        cfg = default_config()
        direction = embed_state(axis_state, cfg.embed_dim)
        if float(np.linalg.norm(direction)) == 0.0:
            return
        reading = compass_reading(state, axis_from(direction), cfg)
        assert 0.0 <= reading.theta <= math.pi
        assert reading.residual >= 0.0


# --------------------------------------------------------------------------
# Drift detection
# --------------------------------------------------------------------------

def test_detect_drift_thresholds(cfg):
    ok = CompassReading(1.0, cfg.tau_theta - 0.01, cfg.tau_r - 0.01)
    angular = CompassReading(1.0, cfg.tau_theta + 0.01, 0.0)
    offset = CompassReading(1.0, 0.0, cfg.tau_r + 0.01)
    assert not detect_drift(ok, cfg)
    assert detect_drift(angular, cfg)
    assert detect_drift(offset, cfg)


def test_detect_drift_boundary_is_exclusive(cfg):
    at_limits = CompassReading(1.0, cfg.tau_theta, cfg.tau_r)
    assert not detect_drift(at_limits, cfg)


# --------------------------------------------------------------------------
# Realignment
# --------------------------------------------------------------------------

def test_realign_no_drift_is_identity(cfg):
    state = one_frag_state("pump hums")
    axis = axis_from(embed_state(state, cfg.embed_dim))
    outcome = realign(state, axis, cfg)
    assert outcome.state == state
    assert outcome.removed == ()
    assert not outcome.warned


def test_realign_drops_offending_fragment():
    cfg = default_config().replace(tau_theta=0.3, tau_r=0.25)
    on_axis = make_fragment(1, "survey the terrain ridge", sectors=("task",), anchor=3.0)
    noise = make_fragment(2, "purple elephant dancing wildly", anchor=1.0)
    state = BeliefState((on_axis, noise), 0.0)
    axis = axis_from(embed_state(BeliefState((on_axis,), 0.0), cfg.embed_dim))
    before = compass_reading(state, axis, cfg)
    assert detect_drift(before, cfg)
    outcome = realign(state, axis, cfg)
    assert outcome.removed == (2,)
    assert not outcome.warned
    after = compass_reading(outcome.state, axis, cfg)
    assert not detect_drift(after, cfg)


def test_realign_keeps_at_least_one_fragment(cfg):
    lone = one_frag_state("purple elephant dancing")
    axis = axis_from(embed_state(one_frag_state("coolant flow"), cfg.embed_dim))
    outcome = realign(lone, axis, cfg)
    assert len(outcome.state.fragments) == 1
    assert outcome.warned  # still adrift, but nothing left to drop


class TestRealignmentLaws:
    @settings(max_examples=40, deadline=None)
    @given(state=states(min_frags=1), axis_state=states(min_frags=1))
    def test_residual_never_worsens(self, state, axis_state):
        cfg = default_config()
        direction = embed_state(axis_state, cfg.embed_dim)
        if float(np.linalg.norm(direction)) == 0.0:
            return
        axis = axis_from(direction)
        before = compass_reading(state, axis, cfg)
        outcome = realign(state, axis, cfg)
        after = compass_reading(outcome.state, axis, cfg)
        assert after.residual <= before.residual + 1e-12
        assert outcome.state.ids() <= state.ids()
        assert len(outcome.state.fragments) >= 1


@st.composite
def realign_axes(draw, dim):
    """A null-seed axis on the shared core, or one from random states, with
    or without an origin offset."""
    kind = draw(st.sampled_from(("core", "state", "offset")))
    if kind == "core":
        return axis_from(embed_tokens(tokenize(CORE), dim))
    direction = embed_state(draw(states(min_frags=1)), dim)
    origin = np.zeros(dim)
    if kind == "offset":
        origin = embed_state(draw(states(min_frags=1)), dim)
        direction = direction - origin
    if float(np.linalg.norm(direction)) == 0.0:
        return axis_from(embed_tokens(tokenize(CORE), dim))
    return axis_from(direction, origin)


class TestRealignMatchesExactLoop:
    @settings(max_examples=200, deadline=None)
    @given(state=tie_states(max_frags=12), data=st.data())
    def test_same_removals_state_and_warning(self, state, data):
        cfg = default_config().replace(
            embed_dim=data.draw(st.sampled_from((8, 64))),
            tau_theta=data.draw(st.sampled_from((0.05, 0.3, 0.8))),
            tau_r=data.draw(st.sampled_from((0.05, 0.3, 0.8))),
        )
        axis = data.draw(realign_axes(cfg.embed_dim))
        outcome = realign(state, axis, cfg)
        expected = reference.realign(state, axis, cfg)
        assert outcome.removed == expected.removed
        assert outcome.state == expected.state
        assert outcome.warned == expected.warned


    @settings(max_examples=200, deadline=None)
    @given(state=tie_states(max_frags=10), data=st.data())
    def test_same_removals_with_weights_too_small_to_square(self, state, data):
        scale = data.draw(st.sampled_from((1e-155, 1e-160, 1e-200)))
        state = BeliefState(
            tuple(f.replace(anchor=f.anchor * scale) for f in state.fragments), state.clock
        )
        cfg = default_config().replace(
            embed_dim=data.draw(st.sampled_from((8, 64))), tau_theta=0.05, tau_r=0.05
        )
        axis = data.draw(realign_axes(cfg.embed_dim))
        outcome = realign(state, axis, cfg)
        expected = reference.realign(state, axis, cfg)
        assert outcome.removed == expected.removed
        assert outcome.warned == expected.warned


def test_realign_rereads_a_rest_too_small_to_screen():
    # Without fragment 3 the rest weighs 2e-9 beside a whole of about 1, so
    # its norm read from S keeps few correct digits: the screen cannot bound
    # that removal and lists every one for the exact re-read.
    cfg = default_config().replace(embed_dim=8, tau_theta=0.05, tau_r=0.05)
    state = BeliefState((
        make_fragment(1, "green", anchor=1e-9),
        make_fragment(2, "light", anchor=1e-9),
        make_fragment(3, "green red"),
    ), 0.0)
    axis = axis_from(embed_tokens(tokenize("light red"), cfg.embed_dim))
    outcome = realign(state, axis, cfg)
    assert outcome.removed == reference.realign(state, axis, cfg).removed == (1, 3)


class TestScreenHoldsTheExactArgmin:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(state=tie_states(max_frags=12), data=st.data())
    def test_every_shortlist_holds_the_first_least_exact_residual(self, state, data):
        """Rows echoing one text at other weights, weights scaled down (to
        below TINY_NORM too) or zeroed, rows already removed, and axes
        through a rest: residuals that tie, or sit near 0 where their
        squares cancel, or come from a rest faint beside the whole."""
        n = len(state.rows)
        every = st.just(frozenset(range(n)))
        echo = sorted(data.draw(st.one_of(every, st.sets(st.integers(0, n - 1)))))
        if echo:
            text = state.rows[echo[0]].text
            state = BeliefState(tuple(
                f.replace(text=text) if i in echo else f for i, f in enumerate(state.rows)
            ), state.clock)
        dim = data.draw(st.sampled_from((8, 64)))
        vecs, weights = state.vectors(dim), state.weights().copy()
        all_but_one = st.integers(0, n - 1).map(lambda k: frozenset(range(n)) - {k})
        faint = sorted(data.draw(st.one_of(all_but_one, st.sets(st.integers(0, n - 1)))))
        weights[faint] *= data.draw(st.sampled_from((0.0, 1e-2, 1e-4, 1e-6, 1e-155, 1e-160)))
        gone = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 2)))
        live = np.delete(np.arange(n), gone)
        kind = data.draw(st.sampled_from(("drawn", "along", "at")))
        if kind == "drawn":
            axis = data.draw(realign_axes(dim))
        else:  # the axis passes through one removal's rest, often the faintest
            heaviest = st.just(int(np.argmax(weights[live])))
            rest = np.delete(live, data.draw(st.one_of(heaviest, st.integers(0, len(live) - 1))))
            point = embed_weighted(vecs, rest, weights[rest])
            origin = data.draw(st.sampled_from((np.zeros(dim), embed_state(state, dim))))
            direction = point - origin
            if kind == "at" or not direction.any():
                origin, direction = point, embed_tokens(tokenize(CORE), dim)
            axis = axis_from(direction, origin)
        pos = np.where(weights > 0.0, weights, 0.0)
        pos[gone] = 0.0
        residuals = [  # every removal as realignment's exact re-read reads it
            geometry._reading(embed_weighted(vecs, rest, weights[rest]), axis).residual
            for rest in (np.delete(live, k) for k in range(len(live)))
        ]
        least = residuals.index(min(residuals))
        assert least in geometry._shortlist(vecs, pos, live, geometry._fixed(vecs, axis))
        assert least in reference.shortlist(vecs[live], weights[live], axis)
