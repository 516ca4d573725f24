"""Fragment, belief-state, and embedding behavior."""

from __future__ import annotations

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsim.config import default_config
from beliefsim.core import (
    ANCHOR_MAX,
    BeliefState,
    Fragment,
    IdAllocator,
    activation_density,
    embed_fragment,
    embed_state,
    embed_tokens,
    token_cell,
    tokenize,
)
from beliefsim.execution import ActionBasin, readiness
from beliefsim.regulation import cognitive_load
from beliefsim.simulator import fragment_from_spec

from conftest import KEYS, SECTORS, WORDS, fragments, make_fragment, states, texts


# --------------------------------------------------------------------------
# Tokenization
# --------------------------------------------------------------------------

def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The Pump, is STEADY!") == ("the", "pump", "is", "steady")


def test_tokenize_keeps_digits():
    assert tokenize("valve 42 open") == ("valve", "42", "open")


def test_tokenize_empty():
    assert tokenize("...") == ()


# --------------------------------------------------------------------------
# Fragment validation
# --------------------------------------------------------------------------

def test_fragment_rejects_empty_text():
    with pytest.raises(ValueError, match="no tokens"):
        make_fragment(1, "!!!")


def test_fragment_rejects_missing_sectors():
    with pytest.raises(ValueError, match="sector"):
        make_fragment(1, sectors=())


def test_fragment_rejects_negative_level():
    with pytest.raises(ValueError, match="level"):
        make_fragment(1, level=-1)


def test_fragment_rejects_negative_anchor():
    with pytest.raises(ValueError, match="anchor"):
        make_fragment(1, anchor=-0.5)


@pytest.mark.parametrize("anchor", [math.nan, math.inf])
def test_fragment_rejects_non_finite_anchor(anchor):
    with pytest.raises(ValueError, match="anchor must be a finite number >= 0"):
        make_fragment(1, anchor=anchor)
    with pytest.raises(ValueError, match="anchor must be a finite number >= 0"):
        make_fragment(1).replace(anchor=anchor)


@pytest.mark.parametrize("anchor", [1e101, 1e155, 1e308])
def test_fragment_rejects_anchor_above_bound(anchor):
    with pytest.raises(ValueError, match="anchor must be a finite number >= 0 and <= 1e"):
        make_fragment(1, anchor=anchor)
    with pytest.raises(ValueError, match="anchor must be a finite number >= 0 and <= 1e"):
        make_fragment(1).replace(anchor=anchor)


def test_fragment_accepts_anchor_at_bound():
    frag = make_fragment(1, anchor=ANCHOR_MAX)
    assert frag.replace(anchor=frag.anchor + 1.0).anchor == ANCHOR_MAX


@pytest.mark.parametrize("persistence", [-0.1, 1.1])
def test_fragment_rejects_persistence_outside_unit_interval(persistence):
    with pytest.raises(ValueError, match="persistence"):
        make_fragment(1, persistence=persistence)


def test_fragment_rejects_unknown_origin():
    with pytest.raises(ValueError, match="origin"):
        make_fragment(1, origin="imagined")


def test_fragment_key_and_polarity_are_paired():
    with pytest.raises(ValueError, match="together"):
        make_fragment(1, key="p")
    with pytest.raises(ValueError, match="together"):
        make_fragment(1, polarity="+")
    frag = make_fragment(1, key="p", polarity="-")
    assert (frag.key, frag.polarity) == ("p", "-")


def test_fragment_rejects_bad_polarity():
    with pytest.raises(ValueError, match="polarity"):
        make_fragment(1, key="p", polarity="neg")


def test_members_require_abstracted_origin():
    with pytest.raises(ValueError, match="members"):
        make_fragment(1, members=(2, 3))
    with pytest.raises(ValueError, match="members"):
        make_fragment(1, origin="abstracted")
    frag = make_fragment(1, origin="abstracted", members=(2, 3), level=1)
    assert frag.members == (2, 3)


def test_weight_is_anchor_times_persistence():
    frag = make_fragment(1, anchor=4.0, persistence=0.25)
    assert frag.weight == pytest.approx(1.0)


def test_content_key_ignores_id_anchor_and_token_order():
    a = make_fragment(1, "pump valve pump", anchor=3.0)
    b = make_fragment(9, "valve pump pump", anchor=0.5, persistence=0.2)
    assert a.content_key() == b.content_key()


def test_content_key_separates_level_and_polarity():
    base = make_fragment(1, "pump", key="p", polarity="+")
    assert base.content_key() != make_fragment(2, "pump", key="p", polarity="-").content_key()
    assert base.content_key() != make_fragment(3, "pump", key="p", polarity="+", level=1).content_key()


# --------------------------------------------------------------------------
# BeliefState
# --------------------------------------------------------------------------

def test_state_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        BeliefState((make_fragment(1), make_fragment(1, "valve")), 0.0)


def test_state_rejects_negative_clock():
    with pytest.raises(ValueError, match="clock"):
        BeliefState((), -1.0)


def test_state_sorts_fragments_by_id():
    state = BeliefState((make_fragment(5), make_fragment(2, "valve")), 0.0)
    assert [f.id for f in state.fragments] == [2, 5]


def test_state_equality_ignores_insertion_order():
    a, b = make_fragment(1), make_fragment(2, "valve")
    assert BeliefState((a, b), 3.0) == BeliefState((b, a), 3.0)


def test_vacuum_and_membership_helpers():
    state = BeliefState((make_fragment(4),), 1.0)
    assert not state.is_vacuum
    assert BeliefState((), 1.0).is_vacuum
    assert state.get(4).text == "pump steady"
    assert state.get(99) is None
    assert state.ids() == frozenset({4})


def test_sectors_listing_is_sorted_union():
    state = BeliefState(
        (make_fragment(1, sectors=("task", "perc")), make_fragment(2, "valve", sectors=("mem",))),
        0.0,
    )
    assert state.sectors() == ("mem", "perc", "task")


def test_revised_drops_replaces_and_adds():
    state = BeliefState((make_fragment(1), make_fragment(2, "valve")), 0.0)
    assert state.revised(drop=[2]).ids() == frozenset({1})
    bumped = state.revised(put=[state.get(1).replace(anchor=7.0)])
    assert bumped.get(1).anchor == 7.0
    assert bumped.get(2).anchor == 1.0
    grown = bumped.revised(put=[make_fragment(3, "lamp"), make_fragment(0, "seal")], drop=[2])
    assert [f.id for f in grown.fragments] == [0, 1, 3] and grown.get(1).anchor == 7.0
    # A dropped id that is also put comes back as the put fragment.
    back = grown.revised(put=[make_fragment(3, "bell")], drop=[3])
    assert back.get(3).text == "bell"
    assert state.revised() is state
    with pytest.raises(ValueError, match="duplicate"):
        state.revised(put=[make_fragment(5), make_fragment(5, "seal")])


def test_id_allocator_is_monotonic():
    ids = IdAllocator(10)
    assert [ids.next() for _ in range(3)] == [10, 11, 12]


# --------------------------------------------------------------------------
# Embeddings
# --------------------------------------------------------------------------

def test_token_cell_is_stable_across_calls():
    assert token_cell("pump", 64) == token_cell("pump", 64)
    assert 0 <= token_cell("pump", 64) < 64


def test_embed_tokens_is_unit_norm(cfg):
    vec = embed_tokens(("pump", "valve"), cfg.embed_dim)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_embed_tokens_order_invariant(cfg):
    a = embed_tokens(("pump", "valve", "pump"), cfg.embed_dim)
    b = embed_tokens(("valve", "pump", "pump"), cfg.embed_dim)
    assert np.array_equal(a, b)


def test_embed_cached_array_is_readonly(cfg):
    vec = embed_tokens(("pump",), cfg.embed_dim)
    with pytest.raises(ValueError):
        vec[0] = 99.0


def test_fragment_keeps_its_vector_across_replace(cfg):
    frag = make_fragment(1, "pump steady")
    vec = embed_fragment(frag, cfg.embed_dim)
    assert embed_fragment(frag, cfg.embed_dim) is vec
    assert embed_fragment(frag.replace(persistence=0.5, anchor=3.0), cfg.embed_dim) is vec


def test_replace_text_never_carries_the_old_vector(cfg):
    frag = make_fragment(1, "pump steady")
    embed_fragment(frag, cfg.embed_dim)
    moved = frag.replace(text="coolant flow")
    fresh = embed_tokens(("coolant", "flow"), cfg.embed_dim)
    assert embed_fragment(moved, cfg.embed_dim).tobytes() == fresh.tobytes()


def test_second_dim_recomputes(cfg):
    frag = make_fragment(1, "pump steady valve")
    embed_fragment(frag, 64)
    small = embed_fragment(frag, 16)
    assert small.tobytes() == embed_tokens(frag.tokens, 16).tobytes()
    assert embed_fragment(frag, 64).tobytes() == embed_tokens(frag.tokens, 64).tobytes()


REPLACE_STEPS = st.one_of(
    st.fixed_dictionaries({"anchor": st.floats(0.0, 20.0)}),
    st.fixed_dictionaries({"persistence": st.floats(0.0, 1.0)}),
    st.fixed_dictionaries({"level": st.integers(0, 4)}),
    st.fixed_dictionaries({"id": st.integers(1, 99)}),
    st.fixed_dictionaries({"sectors": st.just(frozenset({"mem"}))}),
    st.fixed_dictionaries({"text": texts()}),
)


@settings(max_examples=80, deadline=None)
@given(
    frag=fragments(1),
    chain=st.lists(
        st.tuples(REPLACE_STEPS, st.sampled_from((None, 16, 64))), max_size=8
    ),
    dim=st.sampled_from((16, 64)),
)
def test_carried_vector_equals_fresh_embedding(frag, chain, dim):
    """Oracle: whatever replace chain made it, a fragment embeds bit for bit
    as its tokens do, whether or not earlier links were embedded (at any dim)."""
    for overrides, embed_dim in chain:
        if embed_dim is not None:
            embed_fragment(frag, embed_dim)
        frag = frag.replace(**overrides)
    assert embed_fragment(frag, dim).tobytes() == embed_tokens(frag.tokens, dim).tobytes()


def test_replace_rejects_unknown_field_like_dataclasses():
    frag = make_fragment(1)
    with pytest.raises(TypeError):
        dataclasses.replace(frag, colour="red")
    with pytest.raises(TypeError, match="colour"):
        frag.replace(colour="red")


@pytest.mark.parametrize(
    "overrides, carried",
    [
        ({"persistence": 0.5}, True),
        ({"anchor": 3.0, "id": 7, "origin": "retrieved"}, True),
        ({"text": "pump steady"}, False),
        ({"level": 1}, False),
        ({"sectors": frozenset({"mem"})}, False),
        ({"key": "q", "polarity": "-"}, False),
    ],
)
def test_replace_carries_content_key_unless_its_fields_change(overrides, carried):
    frag = make_fragment(1, "pump steady", key="p", polarity="+")
    key = frag.content_key()
    copy = frag.replace(**overrides)
    assert (copy.content_key() is key) == carried
    assert copy.content_key() == reference_content_key(copy)


@pytest.mark.parametrize(
    "overrides",
    [
        {"persistence": 1.5},
        {"text": "!!"},
        {"sectors": frozenset()},
        {"origin": "abstracted"},
        {"key": None},
    ],
)
def test_replace_checks_the_copy(overrides):
    frag = make_fragment(1, key="p", polarity="+")
    with pytest.raises(ValueError):
        frag.replace(**overrides)


def reference_content_key(frag: Fragment) -> tuple:
    """The content key derived from scratch, as content_key defines it."""
    return (
        tuple(sorted(Counter(frag.tokens).items())),
        frag.key or "",
        frag.polarity or "",
        tuple(sorted(frag.sectors)),
        frag.level,
    )


# Overrides that always give a valid copy, and overrides of every field with
# valid and invalid values, so both succeeding and failing copies are compared
# with dataclasses.replace.
VALID_OVERRIDE = {
    "id": st.integers(1, 99),
    "text": texts(),
    "sectors": st.frozensets(st.sampled_from(SECTORS), min_size=1, max_size=2),
    "level": st.integers(0, 4),
    "anchor": st.floats(0.0, 20.0),
    "persistence": st.floats(0.0, 1.0),
}
ANY_OVERRIDE = {
    "id": st.integers(-2, 99),
    "text": st.one_of(texts(), st.sampled_from(("", "!!", 5))),
    "sectors": st.one_of(
        st.frozensets(st.sampled_from(SECTORS), max_size=2), st.just(frozenset())
    ),
    "level": st.one_of(st.integers(-1, 4), st.just("x")),
    "anchor": st.one_of(st.floats(-1.0, 20.0, allow_nan=False), st.none()),
    "persistence": st.floats(-0.5, 1.5, allow_nan=False),
    "created_at": st.floats(0.0, 50.0, allow_nan=False),
    "origin": st.sampled_from(("observed", "retrieved", "abstracted", "bogus")),
    "key": st.sampled_from((None,) + KEYS),
    "polarity": st.sampled_from((None, "+", "-", "?")),
    "members": st.sampled_from((None, (), (1, 2))),
    "colour": st.just("red"),
}


def _outcome(make):
    try:
        return make()
    except Exception as exc:  # the exception type is what is compared
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(
    frag=fragments(1, keyed=True),
    chain=st.lists(
        st.tuples(
            st.one_of(
                st.fixed_dictionaries({}, optional=VALID_OVERRIDE),
                st.fixed_dictionaries({}, optional=ANY_OVERRIDE),
            ),
            st.sampled_from((None, 16, 64)),
            st.booleans(),
        ),
        max_size=6,
    ),
    dim=st.sampled_from((16, 64)),
)
def test_replace_matches_dataclasses_replace(frag, chain, dim):
    """Oracle: every copy equals a rebuilt one field by field, with equal
    tokens, or fails with the same exception type; the vector and content key
    it carries equal fresh ones, whatever was derived earlier in the chain."""
    for overrides, embed_dim, keyed in chain:
        if embed_dim is not None:
            embed_fragment(frag, embed_dim)
        if keyed:
            frag.content_key()
        want = _outcome(lambda: dataclasses.replace(frag, **overrides))
        got = _outcome(lambda: frag.replace(**overrides))
        if isinstance(want, type):
            assert got is want
            continue
        assert isinstance(got, Fragment)
        for f in dataclasses.fields(Fragment):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert got.tokens == want.tokens
        frag = got
    assert embed_fragment(frag, dim).tobytes() == embed_tokens(frag.tokens, dim).tobytes()
    assert frag.content_key() == reference_content_key(frag)


def test_embed_state_vacuum_is_zero(cfg):
    vec = embed_state(BeliefState((), 0.0), cfg.embed_dim)
    assert not vec.any()


def test_embed_state_single_fragment_matches_fragment_vector(cfg):
    frag = make_fragment(1, "coolant flow steady")
    state = BeliefState((frag,), 0.0)
    assert np.allclose(embed_state(state, cfg.embed_dim), embed_fragment(frag, cfg.embed_dim))


def test_embed_state_weighting_pulls_toward_heavy_fragment(cfg):
    heavy = make_fragment(1, "coolant flow", anchor=50.0)
    faint = make_fragment(2, "terrain grid", anchor=0.1)
    vec = embed_state(BeliefState((heavy, faint), 0.0), cfg.embed_dim)
    toward_heavy = float(vec @ embed_fragment(heavy, cfg.embed_dim))
    toward_faint = float(vec @ embed_fragment(faint, cfg.embed_dim))
    assert toward_heavy > toward_faint


def test_embed_state_zero_weights_fall_back_to_uniform_mean(cfg):
    a = make_fragment(1, "coolant flow", anchor=0.0)
    b = make_fragment(2, "terrain grid", anchor=0.0)
    vec = embed_state(BeliefState((a, b), 0.0), cfg.embed_dim)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


@pytest.mark.parametrize("anchor", [1e-150, 5.344401253819236e-161, 1e-200, 5e-324])
def test_embed_state_is_unit_for_weights_too_small_to_square(cfg, anchor):
    # Squaring entries this small gives subnormals: the norm would lose digits.
    state = BeliefState(
        (make_fragment(1, "pump", anchor=anchor), make_fragment(2, "valve", anchor=anchor)), 0.0
    )
    assert float(np.linalg.norm(embed_state(state, cfg.embed_dim))) == pytest.approx(1.0)


class TestEmbeddingLaws:
    """Determinism and normalization hold over random token bags."""

    @settings(max_examples=60, deadline=None)
    @given(tokens=st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))
    def test_unit_norm_and_determinism(self, tokens):
        first = embed_tokens(tuple(tokens), 64)
        second = embed_tokens(tuple(tokens), 64)
        assert np.array_equal(first, second)
        assert np.linalg.norm(first) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(state=states(min_frags=1))
    def test_state_vectors_are_unit_or_zero(self, state):
        norm = float(np.linalg.norm(embed_state(state, 64)))
        assert norm == pytest.approx(1.0) or norm == 0.0


# --------------------------------------------------------------------------
# Fragment specs and sector views
# --------------------------------------------------------------------------

def test_fragment_from_spec_defaults():
    frag = fragment_from_spec({"text": "pump hums"}, 3, 2.5)
    assert frag.sectors == frozenset({"perc"})
    assert (frag.level, frag.anchor, frag.created_at) == (0, 1.0, 2.5)
    assert frag.origin == "observed"


def test_fragment_from_spec_explicit_fields():
    frag = fragment_from_spec(
        {"text": "valve open", "sector": "task", "anchor": 3, "key": "valve", "polarity": "+"},
        7,
        1.0,
    )
    assert frag.sectors == frozenset({"task"})
    assert (frag.key, frag.polarity, frag.anchor) == ("valve", "+", 3.0)


def test_rows_in_lists_tagged_rows_in_id_order():
    state = BeliefState(
        (
            make_fragment(3, sectors=("task", "plan")),
            make_fragment(2, "valve", sectors=("perc",)),
            make_fragment(1, sectors=("task",)),
        ),
        9.0,
    )
    assert [f.id for f in state.rows_in("task")] == [1, 3]
    assert state.rows_in("lang") == ()
    assert state.sectors() == ("perc", "plan", "task")
    assert state.mass == 3.0


def test_activation_density_is_mass_share():
    state = BeliefState(
        (
            make_fragment(1, sectors=("task",), anchor=3.0),
            make_fragment(2, "valve", sectors=("perc",), anchor=1.0),
        ),
        0.0,
    )
    assert activation_density(state, "task") == pytest.approx(0.75)
    assert activation_density(state, "lang") == 0.0
    assert activation_density(BeliefState((), 0.0), "task") == 0.0


@settings(max_examples=50, deadline=None)
@given(state=states())
def test_activation_density_sums_to_at_least_one_when_overlapping(state):
    # Every fragment belongs to >= 1 sector, so sector shares cover all mass.
    total = sum(activation_density(state, s) for s in state.sectors())
    if any(f.weight > 0 for f in state.fragments):
        assert total >= 1.0 - 1e-9


@settings(max_examples=40, deadline=None)
@given(text=texts(min_tokens=1, max_tokens=6))
def test_fragment_tokens_match_tokenize(text):
    frag = make_fragment(1, text)
    assert frag.tokens == tokenize(text)


# --------------------------------------------------------------------------
# Sums run left to right on every Python version
# --------------------------------------------------------------------------

def _neumaier_sum(values, start=0):
    """Python 3.12's sum(): floats are added with Neumaier compensation."""
    total, carry, floats = start, 0.0, False
    for x in values:
        floats = floats or isinstance(x, float)
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry if floats else total


class _Fixed:
    """A clause that scores every state the same."""

    def __init__(self, value: float) -> None:
        self.value = value

    def score(self, state: BeliefState) -> float:
        return self.value


def test_sums_do_not_follow_the_builtin_sum(monkeypatch):
    """Anchors 1, 1e-16 and 1e-16 sum to 1.0 left to right, and to
    1.0000000000000002 under 3.12's compensated sum(): each reading must
    not change when sum() does."""
    tiny = [make_fragment(i + 1, sectors=("a",), anchor=a) for i, a in enumerate((1.0, 1e-16, 1e-16))]
    state = BeliefState((*tiny, make_fragment(9, sectors=("b",))), 0.0)
    three = BeliefState(tuple(make_fragment(i + 1, sectors=(s,)) for i, s in enumerate("abc")), 0.0)
    config = default_config().replace(
        sector_costs={"a": 3.0, "b": 3e-16, "c": 3e-16}, load_coeffs=(0.0, 1.0, 0.0)
    )
    basin = ActionBasin("act", tuple(map(_Fixed, (math.exp(-1.0), 1 - 1e-16, 1 - 1e-16))), 0.5)

    def readings():
        return (
            BeliefState(tiny, 0.0).mass,
            activation_density(BeliefState(state.fragments, 0.0), "a"),
            cognitive_load(BeliefState(three.fragments, 0.0), config, 0.0),
            readiness(basin, state)[0],
        )

    left_to_right = readings()
    monkeypatch.setattr("builtins.sum", _neumaier_sum)
    assert readings() == left_to_right
    assert left_to_right[0] == 1.0
