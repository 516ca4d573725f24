"""Reference loops: the per-fragment versions of the engine's fast paths.

Each function here is the plain loop that a fast path of the engine
replaced, kept as an oracle; ``assimilate`` builds every fragment of the
state into a list and rebuilds the state from it, ``embed_tokens`` embeds
one token multiset at a time, and the conflict readings group the rows by
key on every call.  ``test_reference.py`` swaps them into
a whole run through the module attributes the engine calls and asserts that
the trace comes out byte for byte the same.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from beliefsim.core import (
    TINY_NORM,
    BeliefState,
    Fragment,
    key_groups,
    token_cell,
    tokenize,
)
from beliefsim.dynamics import (
    ASSIMILATION_MODES,
    AssimilationReport,
    ConflictError,
    _revision_loser,
)
from beliefsim.regulation import META_ANCHOR, REFLECTIVE_SECTOR, _breach_entries, _meta_text
from beliefsim.tower import merge_group


def embed_tokens(tokens, dim):
    """Normalized bag-of-words vector of a token multiset, one distinct token
    at a time."""
    vec = np.zeros(dim, dtype=np.float64)
    for token, count in sorted(Counter(tokens).items()):
        vec[token_cell(token, dim)] += count
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


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
                acc += w * embed_tokens(f.tokens, dim)
    else:
        for f in state.fragments:
            acc += embed_tokens(f.tokens, dim)
    norm = float(np.linalg.norm(acc))
    if norm < TINY_NORM and acc.any():
        acc = acc / np.abs(acc).max()
        norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc = acc / norm
    return acc


def retrieval_score(cue_vec, fragment):
    """Cosine match against the cue's vector, damped by the fragment's persistence."""
    return float(np.dot(cue_vec, embed_tokens(fragment.tokens, len(cue_vec)))) * fragment.persistence


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


def meta_assimilate(active, report, config, ids):
    """Breach summaries written one at a time, each through its own table
    edit, every reflection read from all the rows of the state so far."""
    warnings, emitted = [], []
    existing_meta = {
        f.text.rsplit(" ", 2)[0]: f for f in active.rows if f.origin == "meta"
    }
    state = active
    for metric, target, direction, value in _breach_entries(report, config):
        text = _meta_text(metric, target, direction, value)
        level = 2
        if target == REFLECTIVE_SECTOR:
            level = max((f.level for f in state.rows if f.origin == "meta"), default=1) + 1
        if 1 + max(0, level - 1) > config.meta_depth_max:
            warnings.append(
                f"reflection depth cap {config.meta_depth_max}: dropped {metric} {target}"
            )
            continue
        slot = existing_meta.get(f"{metric} {target}")
        if slot is not None:
            updated = slot.replace(text=text, level=level, anchor=META_ANCHOR,
                                   persistence=1.0, created_at=state.clock)
        else:
            updated = Fragment(
                id=ids.next(), text=text, sectors=frozenset({REFLECTIVE_SECTOR}),
                level=level, anchor=META_ANCHOR, persistence=1.0,
                created_at=state.clock, origin="meta",
            )
        state = state.revised(put=[updated])
        existing_meta[f"{metric} {target}"] = updated
        emitted.append(updated)
    return state, emitted, warnings


def conflict_groups(fragments):
    """The key groups of ``fragments`` that hold both polarities, in input
    order, regrouped on every call."""
    return tuple(
        tuple(group) for group in key_groups(fragments).values()
        if len({f.polarity for f in group}) == 2
    )


def _conflict_pairs(fragments):
    """Unordered conflicting pairs: per key, positives times negatives."""
    count = 0
    for group in key_groups(fragments).values():
        plus = sum(1 for f in group if f.polarity == "+")
        count += plus * (len(group) - plus)
    return count


def first_conflict(fragments):
    """The conflicting pair (a, b) with the lowest (a.id, b.id), or None,
    for ``fragments`` in id order: the first key group with a pair holds it."""
    for head, *rest in key_groups(fragments).values():
        rival = next((f for f in rest if f.polarity != head.polarity), None)
        if rival is not None:
            return head, rival
    return None


def _tagged(state, sector):
    return tuple(f for f in state.rows if sector in f.sectors)


def latest(state):
    """The associative cue's row: the last created, the highest id on a tie."""
    return max(state.rows, key=lambda f: (f.created_at, f.id))


def coherence(state, sector=None):
    """1 - 2 * pairs / n^2 over every row, or over the rows a filter finds
    tagged with ``sector``; the vacuum is coherent."""
    rows = state.rows if sector is None else _tagged(state, sector)
    n = len(rows)
    if n == 0:
        return 1.0
    return 1.0 - (2 * _conflict_pairs(rows)) / (n * n)


def most_conflicted_sector(state):
    """The sector with the most conflicting pairs, the first of them on a
    tie; else the first sector of the first conflict; else None."""
    best, best_count = None, 0
    for sector in sorted({s for f in state.rows for s in f.sectors}):
        count = _conflict_pairs(_tagged(state, sector))
        if count > best_count:
            best, best_count = sector, count
    if best is not None:
        return best
    pair = first_conflict(state.rows)
    return None if pair is None else min(pair[0].sectors | pair[1].sectors)
