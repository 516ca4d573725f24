"""Fragment, belief-state, and embedding behavior."""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefsim.config import default_config
from beliefsim.core import (
    ANCHOR_MAX,
    BeliefState,
    Fragment,
    IdAllocator,
    activation_density,
    embed_rows,
    embed_state,
    token_cell,
    tokenize,
)
from beliefsim.execution import ActionBasin, readiness
from beliefsim.regulation import cognitive_load
from beliefsim.simulator import fragment_from_spec

from conftest import KEYS, SECTORS, WORDS, fragments, make_fragment, states, texts
from reference import embed_state as reference_embed_state
from reference import embed_tokens


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
    vec = embed_rows([("pump", "valve")], cfg.embed_dim)[0]
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_embed_tokens_order_invariant(cfg):
    a, b = embed_rows([("pump", "valve", "pump"), ("valve", "pump", "pump")], cfg.embed_dim)
    assert a.tobytes() == b.tobytes()


def test_embed_cached_array_is_readonly(cfg):
    vec = embed_rows([("pump",)], cfg.embed_dim)
    with pytest.raises(ValueError):
        vec[0, 0] = 99.0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    token_lists=st.lists(st.lists(st.sampled_from(WORDS + ("x", "0")), max_size=12), max_size=6),
    dim=st.integers(8, 4096),
)
@example(token_lists=[[], ["pump"] * 12, ["x", "0", "pump"]], dim=8)
def test_embed_rows_matches_the_per_token_loop(token_lists, dim):
    """Oracle: each row is bit-equal to the one-token-multiset-at-a-time
    embedding; an empty list embeds to zero."""
    matrix = embed_rows(token_lists, dim)
    assert matrix.shape == (len(token_lists), dim)
    for tokens, row in zip(token_lists, matrix):
        assert row.tobytes() == embed_tokens(tokens, dim).tobytes()


def _fresh(state: BeliefState, dim: int) -> bytes:
    return embed_rows([f.tokens for f in state.rows], dim).tobytes()


def test_replace_text_never_carries_the_old_vector(cfg):
    state = BeliefState((make_fragment(1, "pump steady"), make_fragment(2, "seal")), 0.0)
    state.vectors(cfg.embed_dim)
    moved = state.revised(put=[state.rows[0].replace(text="coolant flow")])
    fresh = embed_tokens(("coolant", "flow"), cfg.embed_dim)
    assert moved.vectors(cfg.embed_dim)[0].tobytes() == fresh.tobytes()


def test_second_dim_recomputes(cfg):
    state = BeliefState((make_fragment(1, "pump steady valve"),), 0.0)
    state.vectors(64)
    assert state.vectors(16).tobytes() == _fresh(state, 16)
    assert state.vectors(64).tobytes() == _fresh(state, 64)


def test_vectors_are_a_new_c_ordered_matrix_in_row_order():
    state = BeliefState(tuple(make_fragment(i, w) for i, w in enumerate(WORDS[:5], 1)), 0.0)
    vectors = state.vectors(16)
    assert vectors.flags.c_contiguous and vectors.flags.writeable
    vectors[:] = 0.0  # a copy: the state's V is untouched
    assert state.vectors(16).tobytes() == _fresh(state, 16)
    picked = embed_rows([state.rows[3].tokens, state.rows[1].tokens], 16)
    assert state.vectors(16, [3, 1]).tobytes() == picked.tobytes()
    mask = np.array([False, True, False, True, False])
    assert state.vectors(16, mask).tobytes() == picked[::-1].tobytes()


# One step of a chain: a put (ids and texts: a put id may replace a row's
# text), a drop, a decay that may prune, or a reanchor.
VECTOR_STEPS = st.one_of(
    st.tuples(st.just("put"), st.dictionaries(st.integers(1, 12), texts(), max_size=3)),
    st.tuples(st.just("drop"), st.sets(st.integers(1, 12), max_size=4)),
    st.tuples(st.just("decay"), st.sampled_from((1.0, 5.0, 40.0))),
    st.tuples(st.just("reanchor"), st.sets(st.integers(1, 12), max_size=3)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    state=states(max_frags=6),
    chain=st.lists(st.tuples(st.sampled_from((None, 8, 16, 16)), VECTOR_STEPS), max_size=10),
    dim=st.sampled_from((8, 16)),
)
@example(state=BeliefState((), 0.0), chain=[(8, ("put", {1: "pump steady"}))], dim=8)
@example(
    state=BeliefState(tuple(make_fragment(i, w) for i, w in enumerate(WORDS[:4], 1)), 0.0),
    chain=[(16, ("drop", {1, 3})), (None, ("put", {2: "seal", 5: "red light"}))],
    dim=16,
)
def test_carried_vector_equals_fresh_embedding(state, chain, dim):
    """Oracle: whatever chain of ``revised``, ``decayed`` and ``reanchor``
    made a state, and at whatever dims its lineage embedded on the way, its
    vectors are bit-equal to its rows' ``embed_rows``; so are those of a
    state whose V a put handed on, and of a state with no row left."""
    cfg = default_config()
    for ask, (op, arg) in chain:
        if ask is not None:
            assert state.vectors(ask).tobytes() == _fresh(state, ask)
        parent = state
        if op == "put":
            state = state.revised(put=[make_fragment(i, text) for i, text in arg.items()])
        elif op == "drop":
            state = state.revised(drop=arg)
        elif op == "decay":
            state = state.decayed(arg, cfg, state.clock + arg)
        else:
            state = state.reanchor(arg, 2.0)
        if op == "put" and ask is not None:
            assert parent.vectors(ask).tobytes() == _fresh(parent, ask)
    assert state.vectors(dim).tobytes() == _fresh(state, dim)


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
            st.booleans(),
        ),
        max_size=6,
    ),
)
def test_replace_matches_dataclasses_replace(frag, chain):
    """Oracle: every copy equals a rebuilt one field by field, with equal
    tokens, or fails with the same exception type; the content key it
    carries equals a fresh one, whatever was derived earlier in the chain."""
    for overrides, keyed in chain:
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
    assert frag.content_key() == reference_content_key(frag)


def test_embed_state_vacuum_is_zero(cfg):
    vec = embed_state(BeliefState((), 0.0), cfg.embed_dim)
    assert not vec.any()


def test_embed_state_single_fragment_matches_fragment_vector(cfg):
    frag = make_fragment(1, "coolant flow steady")
    state = BeliefState((frag,), 0.0)
    assert np.allclose(embed_state(state, cfg.embed_dim), embed_tokens(frag.tokens, cfg.embed_dim))


def test_embed_state_weighting_pulls_toward_heavy_fragment(cfg):
    heavy = make_fragment(1, "coolant flow", anchor=50.0)
    faint = make_fragment(2, "terrain grid", anchor=0.1)
    vec = embed_state(BeliefState((heavy, faint), 0.0), cfg.embed_dim)
    toward_heavy, toward_faint = embed_rows([heavy.tokens, faint.tokens], cfg.embed_dim) @ vec
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
        first, second = embed_rows([tuple(tokens), tuple(tokens)], 64)
        assert np.array_equal(first, second)
        assert np.linalg.norm(first) == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(state=states(min_frags=1))
    def test_state_vectors_are_unit_or_zero(self, state):
        norm = float(np.linalg.norm(embed_state(state, 64)))
        assert norm == pytest.approx(1.0) or norm == 0.0


# Weight classes of the drawn states: anchor, persistence for a random source.
# Tiny weights alone make a sum whose norm is below TINY_NORM (the rescale);
# huge ones reach ANCHOR_MAX.
WEIGHT_CLASSES = {
    "zero": lambda rnd: rnd.choice(((0.0, rnd.random()), (rnd.uniform(0.0, 20.0), 0.0))),
    "tiny": lambda rnd: (rnd.choice((5e-324, 1e-300, 1e-200, 3e-160)), rnd.uniform(0.5, 1.0)),
    "huge": lambda rnd: (10.0 ** rnd.uniform(50.0, 100.0), rnd.uniform(0.01, 1.0)),
    "ordinary": lambda rnd: (rnd.uniform(0.0, 20.0), rnd.uniform(0.01, 1.0)),
}


def weight_mix_state(n: int, palette: frozenset[str], seed: int) -> BeliefState:
    """n fragments of WORDS texts, some repeated, each weighted from a class
    of ``palette``."""
    rnd = random.Random(seed)
    classes = sorted(palette)
    frags = []
    for i in range(1, n + 1):
        if frags and rnd.random() < 0.1:
            text = rnd.choice(frags).text
        else:
            text = " ".join(rnd.choices(WORDS, k=rnd.randint(1, 5)))
        anchor, persistence = WEIGHT_CLASSES[rnd.choice(classes)](rnd)
        frags.append(make_fragment(
            i, text, sectors=(rnd.choice(SECTORS),),
            anchor=min(anchor, ANCHOR_MAX), persistence=persistence,
        ))
    return BeliefState(tuple(frags), 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 600),
    dim=st.integers(8, 256),
    palette=st.frozensets(st.sampled_from(sorted(WEIGHT_CLASSES)), min_size=1),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=600, dim=256, palette=frozenset({"zero"}), seed=0)
@example(n=600, dim=200, palette=frozenset({"zero", "tiny"}), seed=1)
@example(n=600, dim=129, palette=frozenset(WEIGHT_CLASSES), seed=2)
def test_embed_state_matches_the_per_fragment_loop_and_is_kept(n, dim, palette, seed):
    """The array pass gives the reference loop's bytes; the state keeps the
    read-only result per dim, and no derived state inherits it."""
    state = weight_mix_state(n, palette, seed)
    vec = embed_state(state, dim)
    assert vec.tobytes() == reference_embed_state(state, dim).tobytes()
    assert embed_state(state, dim) is vec
    assert not vec.flags.writeable
    with pytest.raises(ValueError):
        vec[0] = 1.0
    other = 8 if dim != 8 else 9
    assert embed_state(state, other).tobytes() == reference_embed_state(state, other).tobytes()
    assert embed_state(state, dim).tobytes() == vec.tobytes()
    rnd = random.Random(seed)
    row = rnd.choice(state.rows)
    added = make_fragment(n + 1, rnd.choice(WORDS), anchor=rnd.uniform(0.0, 5.0))
    derived = (
        state.revised(drop=(row.id,)),
        state.revised(put=(added,)),
        state.revised(put=(row.replace(anchor=rnd.uniform(0.0, 5.0)),)),
        state.decayed(1.0, default_config(), 1.0),
        state.reanchor((row.id,), 2.0),
    )
    kept = embed_state(state, dim)
    for child in derived:
        child_vec = embed_state(child, dim)
        assert child_vec is not kept
        assert child_vec.tobytes() == reference_embed_state(child, dim).tobytes()


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
