"""Shared fixtures and hypothesis strategies for the suite."""

from __future__ import annotations

import functools
import operator

import pytest
from hypothesis import strategies as st

from beliefsim.config import default_config
from beliefsim.core import BeliefState, Fragment

# A small closed vocabulary so random fragments actually overlap and the
# pairing / retrieval machinery has structure to find.
WORDS = (
    "pump", "valve", "seal", "light", "red", "green", "coolant", "flow",
    "steady", "noisy", "check", "the", "panel", "warning", "terrain",
    "survey", "grid", "wind", "rain", "static",
)

SECTORS = ("perc", "task", "plan", "mem", "refl", "narr", "lang", "affect")

KEYS = ("p", "q", "valve", "seal")


@pytest.fixture()
def cfg():
    return default_config()


def make_fragment(
    fid: int,
    text: str = "pump steady",
    *,
    sectors=("perc",),
    level: int = 0,
    anchor: float = 1.0,
    persistence: float = 1.0,
    created_at: float = 0.0,
    origin: str = "observed",
    key=None,
    polarity=None,
    members=None,
) -> Fragment:
    return Fragment(
        id=fid,
        text=text,
        sectors=frozenset(sectors),
        level=level,
        anchor=anchor,
        persistence=persistence,
        created_at=created_at,
        origin=origin,
        key=key,
        polarity=polarity,
        members=members,
    )


def texts(min_tokens: int = 1, max_tokens: int = 5):
    return st.lists(
        st.sampled_from(WORDS), min_size=min_tokens, max_size=max_tokens
    ).map(" ".join)


@st.composite
def fragments(draw, fid: int, keyed: bool = False):
    key = polarity = None
    if keyed and draw(st.booleans()):
        key = draw(st.sampled_from(KEYS))
        polarity = draw(st.sampled_from(("+", "-")))
    return make_fragment(
        fid,
        draw(texts()),
        sectors=tuple(draw(st.sets(st.sampled_from(SECTORS), min_size=1, max_size=2))),
        anchor=draw(st.floats(0.0, 20.0, allow_nan=False)),
        persistence=draw(st.floats(0.11, 1.0, allow_nan=False)),
        created_at=draw(st.floats(0.0, 50.0, allow_nan=False)),
        key=key,
        polarity=polarity,
    )


@st.composite
def states(draw, min_frags: int = 0, max_frags: int = 6, keyed: bool = False):
    n = draw(st.integers(min_frags, max_frags))
    frags = [draw(fragments(i + 1, keyed=keyed)) for i in range(n)]
    clock = draw(st.floats(0.0, 100.0, allow_nan=False))
    return BeliefState(tuple(frags), clock)


# --------------------------------------------------------------------------
# Reference loops: each scans the whole state, as the engine did before a
# state grouped its fragments by sector once.  The view is pinned to them.
# --------------------------------------------------------------------------

def sector_projection(state: BeliefState, sector: str) -> BeliefState:
    """The sub-state of fragments tagged with ``sector``; clock preserved."""
    return BeliefState(tuple(f for f in state.fragments if sector in f.sectors), state.clock)


def union_sectors(state: BeliefState) -> tuple[str, ...]:
    """Every sector tag present, sorted: the union of the fragments' tags."""
    tags: set[str] = set()
    for f in state.fragments:
        tags |= f.sectors
    return tuple(sorted(tags))


def ltr_sum(values) -> float:
    """Floats added one at a time from 0.0, left to right, as ``sum()`` adds
    them up to Python 3.11 (3.12's compensates)."""
    return functools.reduce(operator.add, values, 0.0)


def two_pass_density(state: BeliefState, sector: str) -> float:
    """Share of total mass carried by ``sector``: one pass for the total,
    one for the sector."""
    total = ltr_sum(f.weight for f in state.fragments)
    if total <= 0.0:
        return 0.0
    tagged = ltr_sum(f.weight for f in state.fragments if sector in f.sectors)
    return tagged / total


def sort_based_order(fragments) -> tuple[Fragment, ...]:
    """The state constructor's canonical order: refuse repeated ids, then sort."""
    ids = [f.id for f in fragments]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate fragment ids in state: {dupes}")
    return tuple(sorted(fragments, key=lambda f: f.id))


# Texts that tie: every "core + one unique word" text has the same cosine with
# every other, and a twin (same text, same weight) embeds bit-equal to its
# original.  Weightless fragments exercise embed_state's branches, and
# near-weightless ones a rest whose sum is tiny beside the whole state's.
CORE = "survey terrain grid ridge"
UNIQUE = (
    "alpha", "bravo", "cobalt", "delta", "ember", "fjord",
    "garnet", "harbor", "indigo", "juniper", "kestrel", "lumen",
)
TIE_WEIGHTS = ((1.0, 1.0), (2.0, 0.5), (3.0, 1.0), (0.0, 1.0), (1.0, 0.0), (1e-9, 1.0))


@st.composite
def tie_states(draw, min_frags: int = 2, max_frags: int = 10):
    """States built to tie: core-plus-one-word texts, twins of earlier
    fragments, weightless fragments, and sometimes a single fragment with
    positive weight."""
    n = draw(st.integers(min_frags, max_frags))
    frags: list[Fragment] = []
    for i in range(n):
        source = draw(st.sampled_from(("core", "twin", "words")))
        if source == "twin" and frags:
            twin = draw(st.sampled_from(frags))
            text, anchor, persistence = twin.text, twin.anchor, twin.persistence
        else:
            text = f"{CORE} {UNIQUE[i]}" if source != "words" else draw(texts())
            anchor, persistence = draw(st.sampled_from(TIE_WEIGHTS))
        frags.append(make_fragment(
            i + 1, text, sectors=(draw(st.sampled_from(SECTORS[:3])),),
            anchor=anchor, persistence=persistence,
        ))
    if draw(st.integers(0, 3)) == 0:
        keep = draw(st.integers(0, n - 1))
        frags = [
            f.replace(anchor=2.0, persistence=1.0) if j == keep else f.replace(anchor=0.0)
            for j, f in enumerate(frags)
        ]
    return BeliefState(tuple(frags), 0.0)
