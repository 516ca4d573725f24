"""A state's sector readings and kept readings, pinned bit for bit to the
whole-state scans.

A state reads its sectors from the sector column of its records, so every
per-sector reading must equal the scan it replaced: the same fragments in
the same id order, hence the same sums in the same order.  The scans live in
conftest as reference loops, and the conflict readings that regroup the rows
by key in ``reference.py``.  Through a chain of derivations, a state's
records must equal a fresh build's, and its kept conflict groups, goal rows
and vectors, built or handed on, must equal that regrouping, a walk over its
rows and their fresh embedding.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefsim import core, regulation
from beliefsim.config import ParameterConfig, default_config
from beliefsim.core import BeliefState, Fragment, activation_density, first_conflict, tokenize
from beliefsim.dynamics import nullify, nullify_sector
from beliefsim.execution import Clause, GateRule
from beliefsim.regulation import (
    REFLECTIVE_SECTOR,
    _most_conflicted_sector,
    coherence,
    cognitive_load,
    introspect,
)

import reference
from conftest import (
    KEYS,
    SECTORS,
    WORDS,
    ltr_sum,
    make_fragment,
    sector_projection,
    sort_based_order,
    texts,
    two_pass_density,
    union_sectors,
)

# Five sectors, the reflective one among them, so states share tags often.
VIEW_SECTORS = SECTORS[:5]
PROBES = (*VIEW_SECTORS, "absent")
COSTLY = ParameterConfig(sector_costs={"task": 2.5, "refl": 0.25})


# --------------------------------------------------------------------------
# The old per-sector loops, over the reference scans
# --------------------------------------------------------------------------

def scan_load(state: BeliefState, config: ParameterConfig, rate: float) -> float:
    c_count, c_sector, c_rate = config.load_coeffs
    sector_term = ltr_sum(
        two_pass_density(state, s) * config.cost(s) for s in union_sectors(state)
    )
    return c_count * len(state.fragments) + c_sector * sector_term + c_rate * rate


def scan_clause_score(clause: Clause, state: BeliefState) -> float:
    if clause.kind == "sector_density":
        return min(two_pass_density(state, clause.sector) / clause.minimum, 1.0)
    if clause.kind == "level_present":
        return 1.0 if any(f.level == clause.level for f in state.fragments) else 0.0
    if clause.kind == "coherence_conflict":
        incoherence = 1.0 - reference.coherence(state, clause.sector)
        return 1.0 if incoherence <= clause.tolerance else 0.0
    for f in state.fragments:
        if clause.sector is not None and clause.sector not in f.sectors:
            continue
        if clause.token in f.tokens:
            return 1.0
    return 0.0


def scan_gate_matches(rule: GateRule, state: BeliefState) -> bool:
    wanted = set(tokenize(rule.pattern))
    for f in state.fragments:
        if REFLECTIVE_SECTOR not in f.sectors:
            continue
        if wanted <= set(f.tokens):
            return True
    return False


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

# Goal markers as a text may carry them, in mixed case; a goal reading asks
# for the lowercased marker.
GOAL_HEADS = ("goal:", "Goal:", "GOAL:", "gOaL:", "goal")
MARKERS = ("goal:", "goal")


def goal_texts():
    """Texts of which about one in three starts with a goal marker."""
    return st.one_of(
        texts(), texts(),
        st.tuples(st.sampled_from(GOAL_HEADS), texts()).map(" ".join),
    )


@st.composite
def view_fragments(draw, unique: bool, max_frags: int = 10) -> list[Fragment]:
    """Fragments in drawn (not id) order, ids from 1 to 20, with one to three
    sectors each, zero weights, keyed claims, goal texts and, unless
    ``unique``, repeated ids."""
    fids = draw(st.lists(st.integers(1, 20), max_size=max_frags, unique=unique))
    frags = []
    for fid in fids:
        key = draw(st.sampled_from((None, *KEYS[:2])))
        frags.append(make_fragment(
            fid,
            draw(goal_texts()),
            sectors=tuple(draw(st.sets(st.sampled_from(VIEW_SECTORS), min_size=1, max_size=3))),
            level=draw(st.integers(0, 2)),
            anchor=draw(st.sampled_from((0.0, 1.0, 2.5)) | st.floats(0.0, 20.0)),
            persistence=draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
            key=key,
            polarity=draw(st.sampled_from("+-")) if key else None,
        ))
    return frags


@st.composite
def view_states(draw) -> BeliefState:
    frags = draw(view_fragments(unique=True))
    return BeliefState(tuple(frags), draw(st.sampled_from((0.0, 3.0))))


@st.composite
def clauses(draw) -> Clause:
    kind = draw(st.sampled_from(
        ("sector_density", "level_present", "coherence_conflict", "token_present")
    ))
    if kind == "sector_density":
        minimum = draw(st.sampled_from((0.25, 1.0)) | st.floats(0.01, 1.0))
        return Clause(kind, sector=draw(st.sampled_from(PROBES)), minimum=minimum)
    if kind == "level_present":
        return Clause(kind, level=draw(st.integers(0, 3)))
    if kind == "coherence_conflict":
        tolerance = draw(st.sampled_from((0.0, 0.5)) | st.floats(0.0, 1.0))
        return Clause(kind, sector=draw(st.sampled_from(PROBES)), tolerance=tolerance)
    sector = draw(st.sampled_from((None, *PROBES)))
    return Clause(kind, sector=sector, token=draw(st.sampled_from(WORDS)))


def same_fragments(got, want) -> bool:
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


# --------------------------------------------------------------------------
# The constructor
# --------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(frags=view_fragments(unique=False))
def test_constructor_matches_the_sort_based_order(frags):
    try:
        want = sort_based_order(frags)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            BeliefState(tuple(frags), 0.0)
        assert str(refused.value) == str(exc)
        return
    assert same_fragments(BeliefState(tuple(frags), 0.0).fragments, want)


@pytest.mark.parametrize("fids", [(1, 2, 2, 3), (3, 1, 3), (4, 4, 4)])
def test_constructor_refuses_a_repeat_in_or_out_of_order(fids):
    frags = tuple(make_fragment(fid, f"pump {i}") for i, fid in enumerate(fids))
    with pytest.raises(ValueError, match=r"duplicate fragment ids in state: \[\d\]"):
        BeliefState(frags, 0.0)


# --------------------------------------------------------------------------
# The sector column and every reading that goes through it
# --------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(state=view_states())
def test_view_matches_the_whole_state_scans(state):
    assert state.sectors() == union_sectors(state)
    for sector in PROBES:
        assert same_fragments(state.rows_in(sector), sector_projection(state, sector).fragments)
    assert state.mass == ltr_sum(f.weight for f in state.fragments)


@settings(max_examples=150, deadline=None)
@given(state=view_states(), rate=st.sampled_from((0.0, 4.0)) | st.floats(0.0, 50.0))
def test_readings_are_bit_equal_to_the_scans(state, rate):
    for config in (default_config(), COSTLY):
        load = scan_load(state, config, rate)
        assert cognitive_load(state, config, rate) == load
        assert reference.cognitive_load(state, config, rate) == load
        assert regulation._lowest_priority_sector(state, config) == (
            reference.lowest_priority_sector(state, config))
        report = introspect(state, None, {}, config, rate)
        assert report.load == load
        assert report.kappa_global == reference.coherence(state)
        assert list(report.kappa_by_sector.items()) == [
            (s, reference.coherence(state, s)) for s in union_sectors(state)
        ]
    for sector in PROBES:
        assert coherence(state, sector) == reference.coherence(state, sector)
    assert _most_conflicted_sector(state) == reference.most_conflicted_sector(state)


@settings(max_examples=150, deadline=None)
@given(state=view_states(), clause=clauses(), pattern=texts(max_tokens=2))
def test_clause_scores_and_gate_rules_equal_the_scans(state, clause, pattern):
    assert clause.score(state) == scan_clause_score(clause, state)
    rule = GateRule(pattern=pattern, action="delay")
    assert rule.matches(state) is scan_gate_matches(rule, state)


@settings(max_examples=60, deadline=None)
@given(state=view_states(), data=st.data())
def test_deriving_leaves_the_source_sector_readings_alone(state, data):
    """A derived state reads its own sector column.  A put may bring a
    sector set no row carried before, which the shared registry of sector
    sets then gains; the source still reads as it did."""
    before = (state.sectors(), [state.rows_in(s) for s in PROBES])
    drop = data.draw(st.sets(st.sampled_from(sorted(state.ids()) or [0])))
    moved_to = frozenset(data.draw(st.sets(st.sampled_from(PROBES), min_size=1)))
    moved = [f.replace(sectors=moved_to) for f in state.fragments[:1]]
    derived = (
        state.revised(drop=drop),
        BeliefState(state.fragments[1:], state.clock),
        *(state.revised(put=[f]) for f in moved),
        nullify(state, 1.0, default_config()),
    )
    for d in derived:
        assert d.sectors() == union_sectors(d)
        assert [f.id for f in d.rows] == [f.id for f in d.fragments]
        for sector in PROBES:
            assert same_fragments(d.rows_in(sector), [f for f in d.rows if sector in f.sectors])
        assert d.mass == ltr_sum(f.weight for f in d.fragments)
    assert (state.sectors(), [state.rows_in(s) for s in PROBES]) == before


@settings(max_examples=150, deadline=None)
@given(frags=view_fragments(unique=True),
       created=st.lists(st.sampled_from((0.0, -0.0, 1.0, 2.5)), min_size=20, max_size=20),
       put=view_fragments(unique=True, max_frags=3))
def test_latest_is_the_max_walk(frags, created, put):
    """The associative cue's row, read from the id and ``created_at``
    columns, is the one the ``max`` walk finds, with many rows created at
    once; also after a put splices rows in."""
    stamp = lambda f: f.replace(created_at=created[f.id - 1])  # noqa: E731
    state = BeliefState(map(stamp, frags), 0.0)
    for s in (state, state.revised(put=map(stamp, put))):
        if not s.is_vacuum:
            assert s.latest() is reference.latest(s)


# --------------------------------------------------------------------------
# The kept conflict groups
# --------------------------------------------------------------------------

# One step of a chain: a put of drawn rows (a put id may replace a row), a
# drop, a decay of every row or of one sector's rows (either may prune), or
# a reanchor.
CHAIN_STEPS = st.one_of(
    st.tuples(st.just("put"), view_fragments(unique=True, max_frags=3)),
    st.tuples(st.just("drop"), st.sets(st.integers(1, 20), max_size=4)),
    st.tuples(st.just("decay"), st.sampled_from((1.0, 5.0, 40.0))),
    st.tuples(st.just("sector"), st.tuples(st.sampled_from(VIEW_SECTORS),
                                           st.sampled_from((1.0, 40.0)))),
    st.tuples(st.just("reanchor"), st.sets(st.integers(1, 20), max_size=3)),
)


def assert_conflict_readings(state: BeliefState) -> None:
    assert state.conflicts() == reference.conflict_groups(state.rows)
    assert first_conflict(state) == reference.first_conflict(state.rows)
    assert _most_conflicted_sector(state) == reference.most_conflicted_sector(state)
    for sector in (None, *PROBES):
        assert coherence(state, sector) == reference.coherence(state, sector)


def assert_equals_fresh_build(state: BeliefState) -> None:
    """The state's columns, fragments, sector readings and kept decay
    factors equal those of a state built fresh from its fragments, and its
    sector rows the reference filter's; none of these is handed on."""
    assert [f.id for f in state.rows] == sorted(f.id for f in state.rows)
    fresh = BeliefState(state.fragments, state.clock)
    assert state.weights().tobytes() == fresh.weights().tobytes()
    for column in ("id", "created_at"):
        assert state._table[column].tobytes() == fresh._table[column].tobytes()
    assert list(state.fragments) == list(fresh.fragments)
    assert state.sectors() == fresh.sectors() == union_sectors(state)
    for sector in PROBES:
        assert same_fragments(state.rows_in(sector), reference._tagged(state, sector))
        assert [f.id for f in fresh.rows_in(sector)] == [f.id for f in state.rows_in(sector)]
        density = np.float64(activation_density(state, sector)).tobytes()
        assert density == np.float64(activation_density(fresh, sector)).tobytes()
    if not state.is_vacuum:
        assert state.latest() is reference.latest(state)
    if state._decay is not None:
        dt, cfg = state._decay
        assert state._table["decay"].tobytes() == np.array(
            [math.exp(-cfg.decay_rate(f.anchor) * dt) for f in fresh.fragments], float
        ).tobytes()


def assert_handed_on_readings(state: BeliefState, marker: str) -> None:
    """The readings a derivation hands on: the conflict groups, the goal rows
    and V equal the reference regrouping, walk and embedding of the rows."""
    assert_conflict_readings(state)
    want = tuple(f for f in state.rows if f.text.lower().startswith(marker))
    assert same_fragments(state.goals(marker), want)
    fresh = BeliefState(state.fragments, state.clock)
    assert state.vectors(16).tobytes() == fresh.vectors(16).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(state=view_states(), chain=st.lists(st.tuples(st.booleans(), CHAIN_STEPS), max_size=8),
       marker=st.sampled_from(MARKERS))
@example(
    state=BeliefState((make_fragment(1, "valve open", key="p", polarity="+"),), 0.0),
    chain=[(True, ("put", [make_fragment(2, "valve shut", key="p", polarity="-")]))],
    marker="goal:",
)
@example(
    state=BeliefState(tuple(make_fragment(i, t) for i, t in enumerate(
        ("Goal: pump", "valve", "GOAL: seal", "light"), 1)), 0.0),
    chain=[(True, ("drop", {1})), (True, ("put", [make_fragment(5, "goal: map"),
                                                  make_fragment(6, "red light")]))],
    marker="goal:",
)
def test_kept_conflict_groups_equal_the_regrouping(state, chain, marker):
    """Oracle: whatever chain of ``revised``, ``decayed``, ``nullify_sector``
    and ``reanchor`` made a state, its weights, id and ``created_at``
    columns, fragments, sector readings and decay factors equal a fresh
    build's; and whether each state on the way read its conflict groups,
    goal rows and vectors (and so handed them on) or not, they equal the
    reference's regrouping, walk and embedding of its rows."""
    cfg = default_config()
    for read, (op, arg) in chain:
        assert_equals_fresh_build(state)
        if read:
            assert_handed_on_readings(state, marker)
        if op == "put":
            state = state.revised(put=arg)
        elif op == "drop":
            state = state.revised(drop=arg)
        elif op == "decay":
            state = state.decayed(arg, cfg, state.clock + arg)
        elif op == "sector":
            state = nullify_sector(state, *arg, cfg)
        else:
            state = state.reanchor(arg, 2.0)
    assert_equals_fresh_build(state)
    assert_handed_on_readings(state, marker)


def test_view_leaves_equality_and_hash_alone():
    a, b = make_fragment(1, sectors=("task",)), make_fragment(2, "valve")
    viewed = BeliefState((a, b), 3.0)
    assert viewed.sectors() == ("perc", "task")
    fresh = BeliefState((b, a), 3.0)
    assert viewed == fresh and hash(viewed) == hash(fresh)
    assert repr(viewed) == repr(fresh)


@pytest.mark.parametrize("n_sectors", [1, 8, 64])
def test_cognitive_load_reads_each_weight_a_bounded_number_of_times(monkeypatch, n_sectors):
    reads: Counter[int] = Counter()
    weight = Fragment.weight.fget

    def counted(f):
        reads[f.id] += 1
        return weight(f)

    summed: list[int] = []
    real_sum = core.ordered_sum

    def counted_sum(values):
        summed.append(len(values))
        return real_sum(values)

    monkeypatch.setattr(Fragment, "weight", property(counted))
    monkeypatch.setattr(core, "ordered_sum", counted_sum)
    monkeypatch.setattr(regulation, "ordered_sum", counted_sum)
    frags = tuple(
        make_fragment(i + 1, sectors=(f"s{i % n_sectors}",), anchor=1.0 + i % 3)
        for i in range(128)
    )
    cognitive_load(BeliefState(frags, 0.0), default_config(), 0.0)
    # No fragment is read: the weights come from the state's columns, summed
    # once for the state's mass and once for the one sector's share each.
    assert reads == Counter()
    assert sum(summed) == 2 * len(frags) + n_sectors
