"""Query generation, long-term retrieval, and re-integration.

The active state stays small; a separate store holds everything ever
consolidated.  Triggers inspect the active state and phrase a token cue, the
cue pulls persistence-weighted matches out of the store as read-only copies,
and integration assimilates those copies back into the active state while
re-anchoring the surviving store twins.

The store is a ``BeliefState`` like the active state, and decays through
the same ``dynamics.nullify``.  Retrieval asks it for the rows a cue scores
at or above tau_retrieval (``BeliefState.matching``: one screen over the
cue's nonzero columns, then an exact re-read near the threshold), and integration
re-anchors the surviving twins in its columns (``BeliefState.reanchor``).
Both give the results of the per-fragment loops they replace, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .config import ParameterConfig
from .core import (
    BeliefState,
    Fragment,
    IdAllocator,
    embed_rows,
    first_conflict,
    tokenize,
)
from .dynamics import AssimilationReport, ElaborationRule, assimilate

# The query triggers, in the order a tick's memory cycle tries them.
QUERY_TRIGGERS = ("goal", "coherence", "associative")


@dataclass(frozen=True)
class QueryCue:
    """A retrieval cue; equal cues are the same cue, so a run never
    reissues one."""

    kind: str
    tokens: tuple[str, ...]


def goal_fragments(state: BeliefState, config: ParameterConfig) -> Iterator[Fragment]:
    """The fragments whose text starts with ``goal_marker``, ignoring case,
    in id order and lazily, so a caller asking whether any exist stops early.
    The goal rows are the state's kept reading (``BeliefState.goals``); only
    a goal fragment is built."""
    return (state.get(f.id) for f in state.goals(config.goal_marker.lower()))


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
        best = max(
            goal_fragments(active, config), key=lambda f: (f.anchor, f.id), default=None
        )
        if best is None:
            return None
        tokens = tuple(tokenize(best.text.lower()[len(config.goal_marker.lower()):]))
        if not tokens:
            return None
        return QueryCue(kind="goal", tokens=tokens)

    if trigger == "coherence":
        pair = first_conflict(active)
        if pair is None:
            return None
        a, b = pair
        tokens = tuple(sorted(set(a.tokens) | set(b.tokens)))
        return QueryCue(kind="coherence", tokens=tokens)

    # associative
    return QueryCue(kind="associative", tokens=active.latest().tokens)


# --------------------------------------------------------------------------
# Retrieval and integration
# --------------------------------------------------------------------------

def retrieve(
    store: BeliefState,
    cue: QueryCue,
    config: ParameterConfig,
) -> BeliefState:
    """Pull matching store fragments as copies; the store is never mutated.

    A fragment matches when its cosine with the cue, times its persistence,
    reaches tau_retrieval; the store scores every row at once
    (``BeliefState.matching``), and copies each hit once.  Copies keep
    their store ids (so later integration can find the twins) and are
    re-tagged origin="retrieved"; member records do not survive the copy
    because the copies are surrogates, not the original summaries.
    """
    cue_vec = embed_rows([cue.tokens], config.embed_dim)[0]
    hits = store.matching(cue_vec, config.tau_retrieval, origin="retrieved", members=None)
    return BeliefState(hits, store.clock)


def integrate_retrieved(
    active: BeliefState,
    retrieved: BeliefState,
    store: BeliefState,
    config: ParameterConfig,
    ids: IdAllocator,
    rules: tuple[ElaborationRule, ...] = (),
) -> tuple[BeliefState, BeliefState, AssimilationReport]:
    """Assimilate retrieved copies into the active state and refresh the store.

    Copies are lifted by the store's own lift (``BeliefState.reanchor``) to
    an anchor of at least the re-anchor floor and full persistence before
    assimilation, so a fragile memory does not instantly decay away again
    and each enters uncopied.  Store twins of copies that survive
    assimilation (judged by content, since revision may retract them) get
    the same lift.
    """
    floor = config.reanchor_min
    lifted = retrieved.reanchor(retrieved.ids(), floor)
    new_active, report = assimilate(active, lifted, config, ids, mode="auto", rules=rules)
    surviving = {f.content_key() for f in new_active.rows}
    twins = [f.id for f in lifted.rows if f.content_key() in surviving]
    return new_active, store.reanchor(twins, floor), report


__all__ = [
    "QUERY_TRIGGERS",
    "QueryCue",
    "generate_query",
    "goal_fragments",
    "integrate_retrieved",
    "retrieve",
]
