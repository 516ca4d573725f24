"""Reference loops: the per-fragment versions of the engine's fast paths.

Each function here is the plain loop that a fast path of the engine
replaced, kept as an oracle; ``assimilate`` builds every fragment of the
state into a list and rebuilds the state from it.  ``test_reference.py``
swaps them into a whole run through the module attributes the engine calls
and asserts that the trace comes out byte for byte the same.
"""

from __future__ import annotations

import math

import numpy as np

from beliefsim.core import (
    TINY_NORM,
    BeliefState,
    embed_fragment,
    embed_tokens,
    key_groups,
    tokenize,
)
from beliefsim.dynamics import (
    ASSIMILATION_MODES,
    AssimilationReport,
    ConflictError,
    _revision_loser,
)
from beliefsim.tower import merge_group


def nullify(state, dt, config):
    """Each fragment's persistence times exp(-rate(anchor) * dt), one at a
    time; fragments at or below delta are dropped; the clock advances.  The
    active state and the store both decay through it."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if dt == 0:
        return state
    survivors = []
    for f in state.fragments:
        decayed = f.persistence * math.exp(-config.decay_rate(f.anchor) * dt)
        if decayed > config.delta:
            survivors.append(f.replace(persistence=decayed))
    return BeliefState(tuple(survivors), state.clock + dt)


def nullify_sector(state, sector, dt, config):
    """``nullify`` over one sector's fragments, the clock left alone."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    survivors = []
    for f in state.fragments:
        if sector in f.sectors:
            decayed = f.persistence * math.exp(-config.decay_rate(f.anchor) * dt)
            if decayed > config.delta:
                survivors.append(f.replace(persistence=decayed))
        else:
            survivors.append(f)
    return BeliefState(tuple(survivors), state.clock)


def embed_state(state, dim):
    """Weighted sum of the fragments' vectors, one fragment at a time."""
    if state.is_vacuum:
        return np.zeros(dim, dtype=np.float64)
    weights = [f.anchor * f.persistence for f in state.fragments]
    acc = np.zeros(dim, dtype=np.float64)
    if any(w > 0.0 for w in weights):
        for f, w in zip(state.fragments, weights):
            if w > 0.0:
                acc += w * embed_fragment(f, dim)
    else:
        for f in state.fragments:
            acc += embed_fragment(f, dim)
    norm = float(np.linalg.norm(acc))
    if norm < TINY_NORM and acc.any():
        acc = acc / np.abs(acc).max()
        norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc = acc / norm
    return acc


def retrieval_score(cue_vec, fragment):
    """Cosine match against the cue's vector, damped by the fragment's persistence."""
    return float(np.dot(cue_vec, embed_fragment(fragment, len(cue_vec)))) * fragment.persistence


def retrieve(store, cue, config):
    """Every store fragment whose ``retrieval_score`` reaches tau_retrieval,
    scored one at a time, copied as a retrieved surrogate."""
    cue_vec = embed_tokens(cue.tokens, config.embed_dim)
    hits = [
        f.replace(origin="retrieved", members=None)
        for f in store.fragments
        if retrieval_score(cue_vec, f) >= config.tau_retrieval
    ]
    return BeliefState(tuple(hits), store.clock)


def assimilate(state, incoming, config, ids, mode="auto", rules=(), abs_group=None):
    """Assimilation over a list of every fragment of the state, rebuilt
    into a new state at the end: stages as in ``dynamics.assimilate``, each
    conflict scan walking every existing fragment against the input's keys,
    and the final sweep walking every key group."""
    if mode not in ASSIMILATION_MODES:
        raise ValueError(f"unknown assimilation mode {mode!r}")
    clock = state.clock
    current = list(state.fragments)
    by_content = {f.content_key(): i for i, f in enumerate(current)}

    fresh = []
    for candidate in incoming.fragments:
        twin = by_content.get(candidate.content_key())
        if twin is None:
            fresh.append(candidate)
        else:
            f = current[twin]
            current[twin] = f.replace(anchor=f.anchor + 1.0, persistence=1.0)

    by_key = key_groups(fresh)
    pairs = [
        (existing, candidate)
        for existing in current
        for candidate in by_key.get(existing.key, ())
        if candidate.polarity != existing.polarity
    ]
    conflicts_found = len(pairs)
    retracted = []
    if pairs and mode == "elab":
        raise ConflictError(pairs)

    if pairs and mode in ("corr", "auto"):
        dead_existing, dead_incoming = set(), set()
        for existing, candidate in pairs:
            if existing.id in dead_existing or candidate.id in dead_incoming:
                continue
            if _revision_loser(existing, candidate) is existing:
                dead_existing.add(existing.id)
                retracted.append(existing.id)
            else:
                dead_incoming.add(candidate.id)
        current = [f for f in current if f.id not in dead_existing]
        fresh = [f for f in fresh if f.id not in dead_incoming]

    existing_ids = {f.id for f in current}
    added = []
    for candidate in fresh:
        if candidate.id in existing_ids:
            raise ValueError(f"incoming fragment id {candidate.id} collides with state")
        if candidate.persistence != 1.0:
            candidate = candidate.replace(persistence=1.0)
        current.append(candidate)
        existing_ids.add(candidate.id)
        added.append(candidate.id)

    elaborated = []
    if mode in ("elab", "auto"):
        content_now = {f.content_key() for f in current}
        for rule in rules:
            if not any(rule.matches(f) for f in current):
                continue
            fid = ids.next()
            if rule.emit.content_key() in content_now:
                continue
            current.append(
                rule.emit.replace(id=fid, created_at=clock, origin="elaborated", persistence=1.0)
            )
            content_now.add(rule.emit.content_key())
            elaborated.append(fid)

    abstracted = []
    if mode == "abs" and abs_group:
        group_tokens = set(tokenize(abs_group))
        members = [f for f in current if group_tokens <= set(f.tokens)]
        if len(members) >= 2:
            summary = merge_group(members, config, ids, clock)
            member_ids = {f.id for f in members}
            current = [f for f in current if f.id not in member_ids]
            current.append(summary)
            abstracted.append(summary.id)

    if mode in ("corr", "auto"):
        current = sorted(current, key=lambda f: f.id)
        dead, found = set(), []
        for group in key_groups(current).values():
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    if a.id in dead:
                        break
                    if b.id in dead or b.polarity == a.polarity:
                        continue
                    loser = _revision_loser(a, b)
                    dead.add(loser.id)
                    found.append((a.id, b.id, loser.id))
        current = [f for f in current if f.id not in dead]
        conflicts_found += len(found)
        for _, _, fid in sorted(found):
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
    return BeliefState(tuple(current), clock), report
