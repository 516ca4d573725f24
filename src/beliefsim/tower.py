"""Abstraction, elaboration, and tower construction.

One abstraction step merges, per sector, the most similar fragment pairs into
summary fragments one level up; iterating from a seed yields a tower whose
embedding stabilizes to a fixed point (detected by the distance between
consecutive levels falling under a tolerance).  The axis from a seed's
embedding to its fixed point's embedding is the compass reference used by the
orientation machinery.

Elaboration is the downward inverse: recorded summary members are restored
where history allows, and degrade to synthetic copies where it doesn't.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ParameterConfig
from .core import (
    BeliefState,
    Fragment,
    IdAllocator,
    embed_rows,
    embed_state,
)
from .geometry import distance

SUMMARY_TOKEN_CAP = 6


def _primary_sector(fragment: Fragment) -> str:
    # Deterministic grouping key for multi-tagged fragments.
    return min(fragment.sectors)


def _summary_text(a: Fragment, b: Fragment) -> str:
    """Merged text: token-multiset intersection, else capped weighted union."""
    ca = Counter(a.tokens)
    cb = Counter(b.tokens)
    shared = ca & cb
    if shared:
        return " ".join(sorted(shared.elements()))
    union = ca + cb
    ranked = sorted(union.items(), key=lambda item: (-item[1], item[0]))
    return " ".join(token for token, _ in ranked[:SUMMARY_TOKEN_CAP])


def _merge_pair(
    a: Fragment,
    b: Fragment,
    ids: IdAllocator,
    clock: float,
) -> Fragment:
    return Fragment(
        id=ids.next(),
        text=_summary_text(a, b),
        sectors=a.sectors | b.sectors,
        level=max(a.level, b.level) + 1,
        anchor=max(a.anchor, b.anchor),
        persistence=max(a.persistence, b.persistence),
        created_at=clock,
        origin="abstracted",
        members=tuple(sorted((a.id, b.id))),
    )


def _vectors(fragments: Sequence[Fragment], dim: int) -> dict[int, np.ndarray]:
    """id -> unit vector of each fragment, from one ``embed_rows`` call: for
    ``merge_group``, whose pool and summaries are no state's rows."""
    vectors = embed_rows([f.tokens for f in fragments], dim).dense()
    return dict(zip((f.id for f in fragments), vectors))


def _pair_entry(a: int, b: int, vec: dict[int, np.ndarray]) -> tuple[float, int, int]:
    """Heap entry (-cosine, lower id, higher id) of the pair of ids a, b."""
    if b < a:
        a, b = b, a
    return (-float(np.dot(vec[a], vec[b])), a, b)


def _pair_heap(vec: dict[int, np.ndarray]) -> list[tuple[float, int, int]]:
    """Every pair of ``vec``'s ids, each cosine computed once, as a min-heap.

    Cosines are per-pair ``np.dot`` calls rather than one ``V @ V.T``: a
    matrix product may round a tie differently, and equal cosines are common
    (fragments sharing a core of words), so the lowest-id tie-break must see
    bit-equal values.
    """
    ids = sorted(vec)
    heap = [_pair_entry(a, b, vec) for i, a in enumerate(ids) for b in ids[i + 1:]]
    heapq.heapify(heap)
    return heap


def _pop_best_pair(heap: list[tuple[float, int, int]],
                   pool: dict[int, Fragment]) -> tuple[int, int]:
    """Highest-cosine pair still in the pool; ties broken by the lowest (id, id) pair.

    Entries naming a fragment that already left the pool are discarded as
    they surface.
    """
    while True:
        _, ia, ib = heapq.heappop(heap)
        if ia in pool and ib in pool:
            return ia, ib


def abstract_step(
    state: BeliefState,
    config: ParameterConfig,
    ids: IdAllocator,
) -> BeliefState:
    """One upward step: per sector, merge a maximal pairing of fragments.

    Within each sector group the two most embedding-similar fragments are
    paired (ties to the lowest id pair) and merged into a summary at level
    max+1; paired fragments leave the pool, so one step halves (ceiling) each
    group.  Every pair's cosine is computed once per group, from the state's
    own vectors, into a heap, and the best pair still unpaired is popped
    from it.  Singletons and odd leftovers pass through with their level
    incremented so level bookkeeping stays exact across the tower.
    """
    if state.is_vacuum:
        raise ValueError("cannot abstract the vacuum: no content to merge")
    frags = state.fragments
    vec = dict(zip((f.id for f in frags), state.vectors(config.embed_dim)))
    groups: dict[str, list[Fragment]] = {}
    for f in frags:
        groups.setdefault(_primary_sector(f), []).append(f)

    result: list[Fragment] = []
    for sector in sorted(groups):
        pool = {f.id: f for f in groups[sector]}
        heap = _pair_heap({f.id: vec[f.id] for f in groups[sector]})
        while len(pool) >= 2:
            ia, ib = _pop_best_pair(heap, pool)
            a = pool.pop(ia)
            b = pool.pop(ib)
            result.append(_merge_pair(a, b, ids, state.clock))
        for leftover in pool.values():
            result.append(leftover.replace(level=leftover.level + 1))
    return BeliefState(result, state.clock)


def merge_group(
    members: Sequence[Fragment],
    config: ParameterConfig,
    ids: IdAllocator,
    clock: float,
) -> Fragment:
    """Fold a whole group into a single summary (abstracting assimilation).

    Pairs are picked as in ``abstract_step``; each summary's pairs with the
    rest of the pool join the heap when it is made.
    """
    if not members:
        raise ValueError("merge_group needs at least one fragment")
    pool = {f.id: f for f in members}
    if len(pool) == 1:
        only = next(iter(pool.values()))
        return only.replace(level=only.level + 1)
    dim = config.embed_dim
    vec = _vectors(list(pool.values()), dim)
    heap = _pair_heap(vec)
    while len(pool) > 1:
        ia, ib = _pop_best_pair(heap, pool)
        a = pool.pop(ia)
        b = pool.pop(ib)
        merged = _merge_pair(a, b, ids, clock)
        vec[merged.id] = embed_rows([merged.tokens], dim).dense()[0]
        for other in pool:
            heapq.heappush(heap, _pair_entry(other, merged.id, vec))
        pool[merged.id] = merged
    return next(iter(pool.values()))


def elaborate_step(
    state: BeliefState,
    history: Sequence[BeliefState],
    config: ParameterConfig,
    ids: IdAllocator,
) -> BeliefState:
    """One downward step: invert recorded merges, degrade the rest.

    Abstracted fragments whose members appear in ``history`` are replaced by
    copies of those members (fresh ids) at the summary's level minus one.
    Abstracted fragments without recoverable members become a synthetic copy
    one level down.  Everything else passes through with level-1, floored at
    zero.
    """
    recall: dict[int, Fragment] = {}
    for past in history:
        for f in past.fragments:
            recall[f.id] = f

    result: list[Fragment] = []
    for f in state.fragments:
        if f.origin == "abstracted" and f.members:
            restored_level = max(f.level - 1, 0)
            if all(m in recall for m in f.members):
                for member_id in f.members:
                    m = recall[member_id]
                    result.append(m.replace(id=ids.next(), level=restored_level))
            else:
                result.append(
                    f.replace(
                        id=ids.next(),
                        level=restored_level,
                        origin="synthetic",
                        members=None,
                    )
                )
        else:
            result.append(f.replace(level=max(f.level - 1, 0)))
    return BeliefState(result, state.clock)


def roundtrip_loss(state: BeliefState, config: ParameterConfig) -> float:
    """Distance between a state and its historyless down(up(·)) image."""
    if state.is_vacuum:
        raise ValueError("round-trip loss of the vacuum is undefined")
    top = max(state.ids(), default=0)
    scratch = IdAllocator(top + 1)
    up = abstract_step(state, config, scratch)
    down = elaborate_step(up, (), config, scratch)
    return distance(state, down, config)


# --------------------------------------------------------------------------
# Towers and axes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerTrajectory:
    """The state sequence of iterated abstraction from a seed."""

    levels: tuple[BeliefState, ...]
    converged: bool
    fixpoint_gap: float


def build_tower(
    seed: BeliefState,
    max_k: int,
    config: ParameterConfig,
    ids: IdAllocator,
) -> TowerTrajectory:
    """Iterate abstraction until the embedding stops moving.

    Each iteration appends one more level; construction stops when the
    distance between consecutive levels falls below eps_fix (converged) or
    after max_k steps (not converged).  A group of n fragments needs at most
    ceil(log2 n) + 1 steps: the pairing halves the group each step and a
    stable singleton closes the gap to ~0.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    if seed.is_vacuum:
        raise ValueError("tower seed must be non-vacuum")
    levels = [seed]
    gap = math.inf
    converged = False
    for _ in range(max_k):
        nxt = abstract_step(levels[-1], config, ids)
        gap = distance(nxt, levels[-1], config)
        levels.append(nxt)
        if gap < config.eps_fix:
            converged = True
            break
    return TowerTrajectory(tuple(levels), converged, gap)


@dataclass(frozen=True, eq=False)
class EpistemicAxis:
    """Origin embedding plus the direction toward a tower's fixed point."""

    label: str
    origin: np.ndarray
    direction: np.ndarray


def derive_axis(
    trajectory: TowerTrajectory,
    label: str,
    config: ParameterConfig,
    null_seed: bool = False,
) -> EpistemicAxis:
    """Axis from a converged tower.

    ``null_seed`` declares that the seed stands in for contentless ground, so
    the axis origin is the zero vector and the direction is the fixed point's
    embedding itself.  A zero direction (e.g. a non-null singleton seed whose
    fixed point IS the seed embedding) is degenerate and rejected.
    """
    if not trajectory.converged:
        raise ValueError("axis derivation requires a converged tower")
    dim = config.embed_dim
    if null_seed:
        origin = np.zeros(dim, dtype=np.float64)
    else:
        origin = embed_state(trajectory.levels[0], dim).copy()
    direction = embed_state(trajectory.levels[-1], dim) - origin
    if float(np.linalg.norm(direction)) == 0.0:
        raise ValueError(f"axis {label!r} is degenerate: zero direction vector")
    return EpistemicAxis(label=label, origin=origin, direction=direction)


__all__ = [
    "EpistemicAxis",
    "SUMMARY_TOKEN_CAP",
    "TowerTrajectory",
    "abstract_step",
    "build_tower",
    "derive_axis",
    "elaborate_step",
    "merge_group",
    "roundtrip_loss",
]
