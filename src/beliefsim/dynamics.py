"""Belief lifecycle operators: assimilation, nullification, sector wipes, drift.

Assimilation is a staged pipeline:

1. exact duplicates of existing fragments are dropped and instead refresh the
   existing fragment (confirmation: persistence back to 1.0, anchor +1 per
   duplicate);
2. conflicts between the state and the remaining input are detected (shared
   proposition key, opposite polarity);
3. in corrective modes the lower-anchored party of each conflict is retracted
   (ties: older created_at loses, then the incoming side loses);
4. surviving input is unioned in with persistence 1.0;
5. elaboration rules fire at most once each, their emits also entering at
   persistence 1.0;
6. in abstracting mode a configured group is merged into one summary;
and, in corrective modes, a final sweep resolves any conflicts remaining
*inside* the merged state (input-internal or elaboration-introduced) with the
same revision rule, so corrective assimilation always ends conflict-free.
Regulation's corrective move is that sweep alone, ``resolve_conflicts``.
Each stage ends in one ``BeliefState.revised``; a row is built into a
fragment only where its anchor or persistence is read or written.  The
twins, the conflict pairs, the id-collision check and the refire test read
the state's content-key map, key index and id column, which derivations
hand on, never its rows: with them carried, assimilating k fragments reads
only those, the rows on their proposition keys and the rows it changes,
whatever the state's size.

Nullification multiplies persistence by exp(-lambda_i * dt) with
lambda_i = lambda0 * f(anchor) and prunes fragments at or below the threshold;
it composes as a semigroup, which is what lets the simulator decay one tick at
a time while coarse analytic checkpoints still match.  ``nullify`` and
``nullify_sector`` are one masked multiply (``BeliefState.decayed``).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .config import ParameterConfig
from .core import BeliefState, Fragment, IdAllocator, key_groups, tokenize

ASSIMILATION_MODES = ("elab", "corr", "abs", "conf", "auto")


@dataclass(frozen=True)
class ElaborationRule:
    """Forward rule: when a fragment matches ``trigger``, emit a copy of
    ``emit`` with a fresh id (registered under ``name``, if any).

    The trigger matches a fragment if it equals the fragment's proposition
    key, or if every token of the trigger (tokenized like text, so
    ``light_green`` -> {light, green}) occurs among the fragment's tokens.
    The trigger is tokenized once, on construction.
    """

    trigger: str
    emit: Fragment
    name: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_trigger_tokens", frozenset(tokenize(self.trigger)))

    def matches(self, fragment: Fragment) -> bool:
        if fragment.key is not None and fragment.key == self.trigger:
            return True
        trigger_tokens = self._trigger_tokens  # type: ignore[attr-defined]
        return bool(trigger_tokens) and trigger_tokens <= set(fragment.tokens)


@dataclass(frozen=True)
class AssimilationReport:
    added: tuple[int, ...] = ()
    retracted: tuple[int, ...] = ()
    elaborated: tuple[int, ...] = ()
    abstracted: tuple[int, ...] = ()
    conflicts_found: int = 0
    mode: str = "auto"


class ConflictError(ValueError):
    """Raised when elaborative-only assimilation meets a contradiction."""

    def __init__(self, pairs: Sequence[tuple[Fragment, Fragment]]):
        self.pairs = tuple(pairs)
        keys = sorted({existing.key for existing, _ in self.pairs})
        super().__init__(
            f"{len(self.pairs)} conflict(s) on key(s) {keys}; "
            "elaborative mode cannot revise — use corrective mode"
        )


def _revision_loser(existing: Fragment, incoming: Fragment) -> Fragment:
    """Which party of a conflict is retracted: lower anchor, then older
    created_at, then the incoming (later) side."""
    if existing.anchor != incoming.anchor:
        return existing if existing.anchor < incoming.anchor else incoming
    if existing.created_at != incoming.created_at:
        return existing if existing.created_at < incoming.created_at else incoming
    return incoming


def resolve_conflicts(state: BeliefState) -> tuple[BeliefState, list[int]]:
    """Resolve conflicts among the fragments of one state.

    Same revision rule, with the higher id as the later arrival that loses a
    full tie.  Each of the state's conflict groups (``state.conflicts()``)
    is walked pair by pair in id order, each row read through ``state.get``
    for its current anchor; retracted ids come out in global (a.id, b.id)
    discovery order, and every conflict seen retracts exactly one fragment.
    Returns (the survivors' state, retracted ids).
    """
    dead: set[int] = set()
    found: list[tuple[int, int, int]] = []  # (a.id, b.id, loser id)
    for rows in state.conflicts():
        group = [state.get(f.id) for f in rows]
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if a.id in dead:
                    break
                if b.id in dead or b.polarity == a.polarity:
                    continue
                loser = _revision_loser(a, b)
                dead.add(loser.id)
                found.append((a.id, b.id, loser.id))
    found.sort()
    return state.revised(drop=dead), [loser for _, _, loser in found]


def assimilate(
    state: BeliefState,
    incoming: BeliefState,
    config: ParameterConfig,
    ids: IdAllocator,
    mode: str = "auto",
    rules: Sequence[ElaborationRule] = (),
    abs_group: Optional[str] = None,
) -> tuple[BeliefState, AssimilationReport]:
    """Integrate ``incoming`` into ``state`` under the requested mode.

    Modes: elab (elaboration only; conflicts raise ConflictError), corr
    (conflict revision), abs (abstracting merge over ``abs_group``), conf
    (confirmation/union only), auto (= corr then elab).
    """
    if mode not in ASSIMILATION_MODES:
        raise ValueError(f"unknown assimilation mode {mode!r}")
    clock = state.clock

    # Stage 1: duplicate refresh (confirmatory behavior), +1 per twin; the
    # twin is the row of highest id holding the candidate's content key.
    refreshed: dict[int, Fragment] = {}
    fresh: list[Fragment] = []
    for candidate in incoming.fragments:
        holding = state.holding(candidate.content_key())
        if not holding:
            fresh.append(candidate)
        else:
            f = refreshed.get(holding[-1]) or state.get(holding[-1])
            refreshed[f.id] = f.replace(anchor=f.anchor + 1.0, persistence=1.0)

    # Stage 2: conflict detection against what remains of the input; pairs
    # come in existing-id order, then incoming order, each existing row as
    # refreshed.  A refresh moves no row's key, so the key index is read
    # before the refreshed rows go in, and an input refused here leaves the
    # state as it was, with the readings it keeps.
    by_key = key_groups(fresh)
    build = functools.cache(lambda i, rows=state: refreshed.get(i) or rows.get(i))  # built once
    pairs = [
        (build(i), candidate)
        for i, polarity, key in sorted(
            (i, polarity, key) for key in by_key for i, polarity in state.keyed(key))
        for candidate in by_key[key] if candidate.polarity != polarity
    ]
    conflicts_found = len(pairs)

    retracted: list[int] = []
    if pairs and mode == "elab":
        raise ConflictError(pairs)
    state = state.revised(put=refreshed.values())

    # Stage 3: revision (corrective modes only).
    if pairs and mode in ("corr", "auto"):
        dead_existing: set[int] = set()
        dead_incoming: set[int] = set()
        for existing, candidate in pairs:
            if existing.id in dead_existing or candidate.id in dead_incoming:
                continue  # this conflict dissolved with an earlier retraction
            if _revision_loser(existing, candidate) is existing:
                dead_existing.add(existing.id)
                retracted.append(existing.id)
            else:
                dead_incoming.add(candidate.id)
        fresh = [f for f in fresh if f.id not in dead_incoming]
        state = state.revised(drop=dead_existing)

    # Stage 4: union; added fragments keep their anchors, persistence resets
    # (a fragment already at 1.0 enters as it is, uncopied).
    if fresh:
        taken = state.positions([f.id for f in fresh]) >= 0
        if taken.any():
            collided = fresh[int(taken.argmax())].id
            raise ValueError(f"incoming fragment id {collided} collides with state")
    state = state.revised(
        put=[f if f.persistence == 1.0 else f.replace(persistence=1.0) for f in fresh]
    )
    added = [f.id for f in fresh]

    # Stage 5: elaboration rules, at most once each.
    elaborated: list[int] = []
    if mode in ("elab", "auto") and rules:
        emits: list[Fragment] = []
        emitted: set[tuple] = set()  # the emits' content keys
        for rule in rules:
            if not any(rule.matches(f) for f in chain(state.rows, emits)):
                continue
            fid = ids.next()  # drawn even by a refire, so later ids keep their order
            # The copy overrides no field of the content key: test before copying.
            ckey = rule.emit.content_key()
            if ckey in emitted or state.holding(ckey):
                continue  # refiring would only duplicate
            emits.append(
                rule.emit.replace(id=fid, created_at=clock, origin="elaborated", persistence=1.0)
            )
            emitted.add(ckey)
            elaborated.append(fid)
        state = state.revised(put=emits)

    # Stage 6: abstracting merge over a configured group.
    abstracted: list[int] = []
    if mode == "abs" and abs_group:
        from .tower import merge_group  # local import; tower depends on geometry

        group_tokens = set(tokenize(abs_group))
        members = [
            state.fragment(i) for i, f in enumerate(state.rows) if group_tokens <= set(f.tokens)
        ]
        if len(members) >= 2:
            summary = merge_group(members, config, ids, clock)
            state = state.revised(put=[summary], drop=[f.id for f in members])
            abstracted.append(summary.id)

    # Final sweep: corrective modes end conflict-free even when the input
    # itself (or an elaboration) carried a contradiction.
    if mode in ("corr", "auto"):
        state, swept = resolve_conflicts(state)
        conflicts_found += len(swept)
        for fid in swept:
            if fid in added:
                added.remove(fid)
            elif fid in elaborated:
                elaborated.remove(fid)
            else:
                retracted.append(fid)

    report = AssimilationReport(
        added=tuple(added),
        retracted=tuple(retracted),
        elaborated=tuple(elaborated),
        abstracted=tuple(abstracted),
        conflicts_found=conflicts_found,
        mode=mode,
    )
    return state, report


# --------------------------------------------------------------------------
# Nullification
# --------------------------------------------------------------------------

def nullify(state: BeliefState, dt: float, config: ParameterConfig) -> BeliefState:
    """Anchored exponential decay over ``dt`` ticks, with pruning.

    Each fragment's persistence is multiplied by exp(-lambda_i * dt); any
    fragment ending at or below the prune threshold is removed.  The clock
    advances by dt.  The active state and the store both decay here.
    """
    return state if dt == 0 else state.decayed(dt, config, state.clock + dt)


def nullify_sector(
    state: BeliefState,
    sector: str,
    dt: float,
    config: ParameterConfig,
) -> BeliefState:
    """Extra decay applied only to one sector, without advancing the clock.

    Used by accelerated nullification: regulation burns down a low-priority
    sector faster than time alone would.
    """
    return state.decayed(dt, config, state.clock, sector)


def half_life(fragment: Fragment, config: ParameterConfig) -> float:
    """Ticks until the fragment's persistence reaches the prune threshold.

    From the current persistence: t = ln(d / delta) / lambda_i.  Zero if the
    fragment is already at or below the threshold; infinite if its decay rate
    is zero.
    """
    if fragment.persistence <= config.delta:
        return 0.0
    rate = config.decay_rate(fragment.anchor)
    if rate <= 0.0:
        return math.inf
    return math.log(fragment.persistence / config.delta) / rate


# --------------------------------------------------------------------------
# Annihilation
# --------------------------------------------------------------------------

def annihilate_sector(state: BeliefState, sector: str) -> BeliefState:
    """Remove every fragment tagged with ``sector``.

    Multi-tagged fragments are removed entirely (set difference), not
    untagged — untagging would silently change their meaning.
    """
    return state.revised(drop=[f.id for f in state.rows_in(sector)])


# --------------------------------------------------------------------------
# Spontaneous drift
# --------------------------------------------------------------------------

DRIFT_ANCHOR = 0.1


def drift(
    state: BeliefState,
    lexicon: Sequence[str],
    rng: random.Random,
    ids: IdAllocator,
) -> BeliefState:
    """Sample one low-anchor perceptual fragment from a non-empty drift lexicon.

    An empty lexicon raises ValueError.  The generator is advanced in place —
    thread it explicitly for replay.
    """
    text = lexicon[rng.randrange(len(lexicon))]
    fragment = Fragment(
        id=ids.next(),
        text=text,
        sectors=frozenset({"perc"}),
        level=0,
        anchor=DRIFT_ANCHOR,
        persistence=1.0,
        created_at=state.clock,
        origin="drifted",
    )
    return state.revised(put=[fragment])


__all__ = [
    "ASSIMILATION_MODES",
    "AssimilationReport",
    "ConflictError",
    "DRIFT_ANCHOR",
    "ElaborationRule",
    "annihilate_sector",
    "assimilate",
    "drift",
    "half_life",
    "nullify",
    "nullify_sector",
    "resolve_conflicts",
]
