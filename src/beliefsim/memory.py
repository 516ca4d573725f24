"""Query generation, long-term retrieval, and re-integration.

The active state stays small; a separate store holds everything ever
consolidated.  Triggers inspect the active state and phrase a token cue, the
cue pulls persistence-weighted matches out of the store as read-only copies,
and integration assimilates those copies back into the active state while
re-anchoring the surviving store twins.

The store is columnar (``MemoryStore``): its fragments are fixed rows in id
order, and what changes over a run (persistence, anchor, liveness) lives in
arrays beside them.  Decay is one array multiply by per-row factors that are
kept until a row's anchor changes; retrieval screens every row with one
matrix product over the vector matrix V, built at the first retrieve, and
re-reads the rows near the threshold exactly.  Both give the results of the
per-fragment loops they replace, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import ParameterConfig
from .core import (
    BeliefState,
    Fragment,
    IdAllocator,
    embed_fragment,
    embed_tokens,
    first_conflict,
    token_cell,
    tokenize,
)
from .dynamics import AssimilationReport, ElaborationRule, assimilate

# The query triggers, in the order a tick's memory cycle tries them.
QUERY_TRIGGERS = ("goal", "coherence", "associative")


@dataclass(frozen=True)
class QueryCue:
    kind: str
    tokens: tuple[str, ...]

    def signature(self) -> tuple[str, tuple[str, ...]]:
        return (self.kind, self.tokens)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "tokens": list(self.tokens)}


def goal_fragments(state: BeliefState, config: ParameterConfig) -> Iterator[Fragment]:
    """The fragments whose text starts with ``goal_marker``, ignoring case,
    in id order and lazily, so a caller asking whether any exist stops early."""
    marker = config.goal_marker.lower()
    return (f for f in state.fragments if f.text.lower().startswith(marker))


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
        pair = first_conflict(active.fragments)
        if pair is None:
            return None
        a, b = pair
        tokens = tuple(sorted(set(a.tokens) | set(b.tokens)))
        return QueryCue(kind="coherence", tokens=tokens)

    # associative
    latest = max(active.fragments, key=lambda f: (f.created_at, f.id))
    return QueryCue(kind="associative", tokens=latest.tokens)


# --------------------------------------------------------------------------
# The long-term store
# --------------------------------------------------------------------------

class MemoryStore:
    """An immutable snapshot of the long-term store, held as columns.

    Its rows are its fragments as it was built, in id order; they never
    change.  Beside them it holds each row's id, current persistence and
    anchor, a live mask, the decay factors of the last decay, and (from the
    first retrieve on) the rows' unit vectors as one matrix V.  Every
    operation returns a new snapshot that shares the rows, the ids and V.
    A row is built into a ``Fragment`` only when it is read: a retrieved
    copy, ``get``, or an element of ``fragments``.
    """

    __slots__ = (
        "clock", "_rows", "_ids", "_anchor", "_persistence", "_live",
        "_decay", "_vectors",
    )

    def __init__(self, fragments: Iterable[Fragment] = (), clock: float = 0.0) -> None:
        if clock < 0:
            raise ValueError(f"clock must be >= 0, got {clock}")
        self.clock = clock
        # (dt, config, per-row factors) of the last decay, or None.
        self._decay: Optional[tuple] = None
        # One slot shared by every snapshot of this store: V, once built.
        self._vectors: list[Optional[np.ndarray]] = [None]
        rows = tuple(fragments)
        if not rows:
            # numpy's first calls in a process cost about 0.1 ms, a twentieth
            # of a small scenario's set-up; an empty store makes none.
            self._rows, self._ids, self._anchor, self._persistence, self._live = _EMPTY
            return
        ids = np.fromiter((f.id for f in rows), np.int64, len(rows))
        if not (np.diff(ids) > 0).all():
            order = np.argsort(ids, kind="stable")
            rows = tuple(rows[i] for i in order.tolist())
            ids = ids[order]
            dupes = np.unique(ids[1:][np.diff(ids) == 0])
            if len(dupes):
                raise ValueError(f"duplicate fragment ids in store: {dupes.tolist()}")
        self._rows = rows
        self._ids = _frozen(ids)
        self._anchor = _frozen(np.fromiter((f.anchor for f in rows), float, len(rows)))
        self._persistence = _frozen(
            np.fromiter((f.persistence for f in rows), float, len(rows))
        )
        self._live = _frozen(np.ones(len(rows), dtype=bool))

    def _derive(self, **columns) -> "MemoryStore":
        new = object.__new__(MemoryStore)
        for name in MemoryStore.__slots__:
            setattr(new, name, columns.get(name.lstrip("_"), getattr(self, name)))
        return new

    # -- reading -----------------------------------------------------------

    def _fragment(self, row: int, **overrides) -> Fragment:
        return self._rows[row].replace(
            anchor=float(self._anchor[row]),
            persistence=float(self._persistence[row]),
            **overrides,
        )

    @property
    def fragments(self) -> "StoreFragments":
        """The live rows as fragments, in id order."""
        return StoreFragments(self)

    def ids(self) -> frozenset[int]:
        return frozenset(self._ids[self._live].tolist())

    def get(self, fragment_id: int) -> Optional[Fragment]:
        row = self._find(np.asarray([fragment_id]))
        return self._fragment(int(row[0])) if len(row) else None

    def _find(self, fragment_ids: np.ndarray) -> np.ndarray:
        """The live rows holding ``fragment_ids``; absent or pruned ids are skipped."""
        if not len(self._ids):
            return np.zeros(0, dtype=np.intp)
        rows = np.minimum(np.searchsorted(self._ids, fragment_ids), len(self._ids) - 1)
        return rows[(self._ids[rows] == fragment_ids) & self._live[rows]]

    # -- operators ---------------------------------------------------------

    def decay(self, dt: float, config: ParameterConfig) -> tuple["MemoryStore", list[int]]:
        """``dynamics.nullify`` over the store: (decayed store, pruned ids).

        Each persistence is multiplied by its row's factor
        ``math.exp(-decay_rate(anchor) * dt)``, and rows ending at or below
        ``delta`` are pruned.  The factors are computed with ``math.exp``, as
        nullify computes them (``np.exp`` rounds differently), and kept for
        the next decay with the same dt and config.  The clock advances by dt.
        """
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        if dt == 0:
            return self, []
        decay = self._decay
        if decay is None or decay[0] != dt or decay[1] != config:
            decay = (dt, config, _decay_factors(self._anchor, dt, config))
        persistence = _frozen(self._persistence * decay[2])
        live = _frozen(self._live & (persistence > config.delta))
        pruned = self._ids[self._live & ~live]
        store = self._derive(
            clock=self.clock + dt, persistence=persistence, live=live, decay=decay
        )
        return store, pruned.tolist()

    def reanchor(self, fragment_ids: Iterable[int], floor: float) -> "MemoryStore":
        """Live rows of ``fragment_ids`` lifted to at least ``floor`` and
        restored to full persistence; absent or pruned ids are skipped.

        Kept decay factors are recomputed only for rows whose anchor moved.
        """
        rows = self._find(np.asarray(sorted(fragment_ids), dtype=np.int64))
        if not len(rows):
            return self
        lifted = np.maximum(self._anchor[rows], floor)
        moved = rows[lifted != self._anchor[rows]]
        anchor = self._anchor.copy()
        anchor[rows] = lifted
        persistence = self._persistence.copy()
        persistence[rows] = 1.0
        decay = self._decay
        if decay is not None and len(moved):
            dt, config, factors = decay
            factors = factors.copy()
            factors[moved] = _decay_factors(anchor[moved], dt, config)
            decay = (dt, config, _frozen(factors))
        return self._derive(
            anchor=_frozen(anchor), persistence=_frozen(persistence), decay=decay
        )

    def _matrix(self, dim: int) -> np.ndarray:
        """V: row i is ``embed_tokens(row i's tokens, dim)``, bit for bit."""
        matrix = self._vectors[0]
        if matrix is None or matrix.shape[1] != dim:
            matrix = _embed_rows(self._rows, dim)
            self._vectors[0] = matrix
        return matrix


class StoreFragments(Sequence):
    """A store's live rows read as fragments.

    Counting them builds nothing; a row becomes a ``Fragment`` when it is
    read.
    """

    __slots__ = ("_store", "_live_rows")

    def __init__(self, store: MemoryStore) -> None:
        self._store = store
        self._live_rows = np.flatnonzero(store._live)

    def __len__(self) -> int:
        return len(self._live_rows)

    def __getitem__(self, index: int) -> Fragment:
        return self._store._fragment(int(self._live_rows[index]))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # snapshots share their columns; never mutate
    return array


# rows, ids, anchors, persistences and live mask of an empty store
_EMPTY = (
    (),
    _frozen(np.zeros(0, dtype=np.int64)),
    _frozen(np.zeros(0)),
    _frozen(np.zeros(0)),
    _frozen(np.zeros(0, dtype=bool)),
)


def _decay_factors(anchors: np.ndarray, dt: float, config: ParameterConfig) -> np.ndarray:
    """``math.exp(-decay_rate(anchor) * dt)`` per row, as ``nullify`` computes it."""
    return _frozen(np.array(
        [math.exp(-config.decay_rate(a) * dt) for a in anchors.tolist()], dtype=float
    ))


def _embed_rows(rows: tuple[Fragment, ...], dim: int) -> np.ndarray:
    """Every row's ``embed_tokens`` vector, filled into one matrix in place.

    A row's cells hold integer token counts, so their squares sum exactly
    and ``sqrt`` of that sum is the norm ``embed_tokens`` divides by: each
    row comes out bit-equal to the fragment's own vector.
    """
    tokens = [f.tokens for f in rows]
    flat = list(chain.from_iterable(tokens))
    cell_of = {t: token_cell(t, dim) for t in set(flat)}
    matrix = np.zeros((len(rows), dim), dtype=float)
    np.add.at(
        matrix,
        (
            np.repeat(np.arange(len(rows)), [len(t) for t in tokens]),
            np.fromiter(map(cell_of.__getitem__, flat), np.intp, len(flat)),
        ),
        1.0,
    )
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    matrix /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return _frozen(matrix)


# --------------------------------------------------------------------------
# Retrieval and integration
# --------------------------------------------------------------------------

def _score(cue_vec: np.ndarray, vec: np.ndarray, persistence: float) -> float:
    return float(np.dot(cue_vec, vec)) * persistence


def retrieval_score(cue_vec: np.ndarray, fragment: Fragment) -> float:
    """Cosine match against the cue's vector, damped by the fragment's persistence."""
    return _score(cue_vec, embed_fragment(fragment, len(cue_vec)), fragment.persistence)


def retrieve(
    store: MemoryStore,
    cue: QueryCue,
    config: ParameterConfig,
) -> BeliefState:
    """Pull matching store fragments as copies; the store is never mutated.

    A fragment matches when its ``retrieval_score`` reaches tau_retrieval.
    Every row is screened with one product ``(V @ cue) * persistence``; the
    rows the screen cannot rule out are scored exactly, as
    ``retrieval_score`` scores them, because the matrix product can round
    differently.  Copies keep their store ids (so later integration can find
    the twins) and are re-tagged origin="retrieved"; member records do not
    survive the copy because the copies are surrogates, not the original
    summaries.
    """
    cue_vec = embed_tokens(cue.tokens, config.embed_dim)
    vectors = store._matrix(config.embed_dim)
    persistence = store._persistence
    tau = config.tau_retrieval
    # Vectors are non-negative and unit-norm, so two float64 dot products of
    # length d (V @ cue, and one np.dot) differ by at most 2*d*eps; one more
    # eps covers the multiply by the persistence.
    bound = (2 * len(cue_vec) + 1) * np.finfo(float).eps
    near = np.flatnonzero(store._live & ((vectors @ cue_vec) * persistence >= tau - bound))
    hits = [
        store._fragment(row, origin="retrieved", members=None)
        for row, p in zip(near.tolist(), persistence[near].tolist())
        if _score(cue_vec, vectors[row], p) >= tau
    ]
    return BeliefState(tuple(hits), store.clock)


def integrate_retrieved(
    active: BeliefState,
    retrieved: BeliefState,
    store: MemoryStore,
    config: ParameterConfig,
    ids: IdAllocator,
    rules: tuple[ElaborationRule, ...] = (),
) -> tuple[BeliefState, MemoryStore, AssimilationReport]:
    """Assimilate retrieved copies into the active state and refresh the store.

    Copies are lifted to at least the re-anchor floor before assimilation so
    a fragile memory does not instantly decay away again.  The same copy
    sets full persistence, as assimilation would, so it enters uncopied.
    Store twins of copies that survive assimilation (judged by content,
    since revision may retract them) are re-anchored and restored to full
    persistence.
    """
    floor = config.reanchor_min
    boosted = [
        c.replace(anchor=max(c.anchor, floor), persistence=1.0) for c in retrieved.fragments
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
    twins = [c.id for c in boosted if c.content_key() in surviving]
    return new_active, store.reanchor(twins, floor), report


__all__ = [
    "MemoryStore",
    "QUERY_TRIGGERS",
    "QueryCue",
    "StoreFragments",
    "generate_query",
    "goal_fragments",
    "integrate_retrieved",
    "retrieval_score",
    "retrieve",
]
