"""Query generation, long-term retrieval, and re-integration.

The active state stays small; a separate store holds everything ever
consolidated.  Triggers inspect the active state and phrase a token cue, the
cue pulls persistence-weighted matches out of the store as read-only copies,
and integration assimilates those copies back into the active state while
re-anchoring the surviving store twins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ParameterConfig
from .core import (
    BeliefState,
    Fragment,
    IdAllocator,
    embed_fragment,
    embed_tokens,
    first_conflict,
    tokenize,
)
from .dynamics import AssimilationReport, ElaborationRule, assimilate

QUERY_TRIGGERS = ("goal", "coherence", "associative")


@dataclass(frozen=True)
class QueryCue:
    kind: str
    tokens: tuple[str, ...]

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    def signature(self) -> tuple[str, tuple[str, ...]]:
        return (self.kind, self.tokens)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tokens": list(self.tokens)}


def generate_query(
    active: BeliefState,
    trigger: str,
    config: ParameterConfig,
) -> QueryCue | None:
    """Phrase a retrieval cue from the active state, or None if nothing fits.

    goal        -- tokens of the highest-anchor goal-marked fragment, with
                   the marker prefix stripped.
    coherence   -- combined tokens of the first conflicting pair, so the
                   store is asked for evidence bearing on the dispute.
    associative -- tokens of the most recently created fragment.
    """
    if trigger not in QUERY_TRIGGERS:
        raise ValueError(f"unknown query trigger {trigger!r}")
    if active.is_vacuum:
        return None

    if trigger == "goal":
        marker = config.goal_marker
        goals = [f for f in active.fragments if f.text.lower().startswith(marker)]
        if not goals:
            return None
        best = max(goals, key=lambda f: (f.anchor, f.id))
        tokens = tuple(tokenize(best.text.lower()[len(marker):]))
        if not tokens:
            return None
        return QueryCue(kind="goal", tokens=tokens)

    if trigger == "coherence":
        pair = first_conflict(active.fragments)
        if pair is None:
            return None
        a, b = pair
        tokens = tuple(sorted(set(a.tokens) | set(b.tokens)))
        return QueryCue(kind="coherence", tokens=tokens)

    # associative
    latest = max(active.fragments, key=lambda f: (f.created_at, f.id))
    return QueryCue(kind="associative", tokens=latest.tokens)


def retrieval_score(cue_vec: np.ndarray, fragment: Fragment) -> float:
    """Cosine match against the cue's vector, damped by the fragment's persistence."""
    frag_vec = embed_fragment(fragment, len(cue_vec))
    return float(np.dot(cue_vec, frag_vec)) * fragment.persistence


def retrieve(
    store: BeliefState,
    cue: QueryCue,
    config: ParameterConfig,
) -> BeliefState:
    """Pull matching store fragments as copies; the store is never mutated.

    Copies keep their store ids (so later integration can find the twins) and
    are re-tagged origin="retrieved"; member records do not survive the copy
    because the copies are surrogates, not the original summaries.
    """
    cue_vec = embed_tokens(cue.tokens, config.embed_dim)
    hits = []
    for f in store.fragments:
        if retrieval_score(cue_vec, f) >= config.tau_retrieval:
            hits.append(f.replace(origin="retrieved", members=None))
    return BeliefState(fragments=tuple(hits), clock=store.clock)


def integrate_retrieved(
    active: BeliefState,
    retrieved: BeliefState,
    store: BeliefState,
    config: ParameterConfig,
    ids: IdAllocator,
    rules: tuple[ElaborationRule, ...] = (),
) -> tuple[BeliefState, BeliefState, AssimilationReport]:
    """Assimilate retrieved copies into the active state and refresh the store.

    Copies are lifted to at least the re-anchor floor before assimilation so
    a fragile memory does not instantly decay away again.  Store twins of
    copies that survive assimilation (judged by content, since revision may
    retract them) are re-anchored and restored to full persistence.
    """
    floor = config.reanchor_min
    boosted = [
        c.replace(anchor=max(c.anchor, floor)) for c in retrieved.fragments
    ]
    new_active, report = assimilate(
        active,
        BeliefState(tuple(boosted), active.clock),
        config,
        ids,
        mode="auto",
        rules=rules,
    )
    surviving = {f.content_key() for f in new_active.fragments}
    twin_keys = {
        c.id for c in boosted if c.content_key() in surviving
    }
    new_store_frags = []
    for f in store.fragments:
        if f.id in twin_keys:
            f = f.replace(anchor=max(f.anchor, floor), persistence=1.0)
        new_store_frags.append(f)
    return new_active, store.with_fragments(new_store_frags), report


__all__ = [
    "QUERY_TRIGGERS",
    "QueryCue",
    "generate_query",
    "integrate_retrieved",
    "retrieval_score",
    "retrieve",
]
