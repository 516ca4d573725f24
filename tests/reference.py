"""Reference loops: the per-fragment versions of the engine's fast paths.

Each function here is the plain loop that a fast path of the engine
replaced, kept as an oracle; ``DataclassFragment`` is a fragment made by the
dataclass's generated constructor and ``__post_init__``, ``assimilate``
builds every fragment of the state into a list and rebuilds the state from
it, ending, in corrective modes, with ``resolve_conflicts``, the sweep that
regroups that list by key, ``embed_tokens`` embeds one token multiset at a
time and ``embed_rows`` stacks its rows, ``integrate_retrieved`` lifts
each retrieved copy by hand, ``realign`` reads every removal
from a whole derived state, ``shortlist`` screens every removal through the
matrix of all its rests, the conflict readings group the rows by key on
every call, and the load, the overload target, the sectors present, a
sector's rows and its activation density walk every row, and ``check``
reads an expect check with one branch per check.
``test_reference.py`` swaps them into a whole run through the module
attributes the engine calls and asserts that the trace comes out byte for
byte the same.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

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
from beliefsim.geometry import (
    SCREEN_BAND,
    RealignmentOutcome,
    compass_reading,
    detect_drift,
)
from beliefsim.regulation import META_ANCHOR, REFLECTIVE_SECTOR, _breach_entries, _meta_text
from beliefsim.simulator import AssertionOutcome
from beliefsim.tower import merge_group


@dataclass(frozen=True)
class DataclassFragment:
    """A fragment made as ``core.Fragment`` once was: the generated
    ``__init__`` sets each field by ``object.__setattr__``, then
    ``__post_init__`` tokenises, leaves the content key underived and runs
    the same ``_check``.  Sector sets are not interned."""

    id: int
    text: str
    sectors: frozenset[str]
    level: int = 0
    anchor: float = 1.0
    persistence: float = 1.0
    created_at: float = 0.0
    origin: str = "observed"
    key: Optional[str] = None
    polarity: Optional[str] = None
    members: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_tokens", tokenize(self.text))
        object.__setattr__(self, "_ckey", None)
        self._check()

    _check = Fragment._check
    tokens = Fragment.tokens
    content_key = Fragment.content_key


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


def embed_rows(token_lists, dim):
    """Each token list's ``embed_tokens`` row, stacked into a read-only
    matrix."""
    matrix = np.zeros((len(token_lists), dim), dtype=np.float64)
    for row, tokens in zip(matrix, token_lists):
        row[:] = embed_tokens(tokens, dim)
    matrix.flags.writeable = False
    return matrix


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


def realign(state, axis, config):
    """The greedy loop that derives the state without each fragment and
    reads it with ``compass_reading``, every removal at every step."""
    current = state
    removed = []
    reading = compass_reading(current, axis, config)
    while detect_drift(reading, config) and len(current.fragments) > 1:
        best_id = None
        best_reading = None
        for f in current.fragments:
            candidate = current.revised(drop=(f.id,))
            cand_reading = compass_reading(candidate, axis, config)
            if best_reading is None or cand_reading.residual < best_reading.residual:
                best_id = f.id
                best_reading = cand_reading
        if best_reading.residual >= reading.residual:
            return RealignmentOutcome(current, tuple(removed), True)
        current = current.revised(drop=(best_id,))
        removed.append(best_id)
        reading = best_reading
    return RealignmentOutcome(current, tuple(removed), detect_drift(reading, config))


def shortlist(vecs, weights, axis):
    """Realignment's screen in matrix form: every rest (every row but i) as
    a row ``S - w_i * v_i``, or the unweighted sum where at most one weight
    is positive, with two sets of row norms and an outer product.  Its
    bound grows as a rest's sum gets small beside S; a rest below
    ``TINY_NORM`` lists every row."""
    n = len(weights)
    positive = weights > 0.0
    pos = np.where(positive, weights, 0.0)
    weighted = np.count_nonzero(positive) - positive > 0
    rest = pos @ vecs - pos[:, None] * vecs
    if not weighted.all():
        rest = np.where(weighted[:, None], rest, vecs.sum(axis=0) - vecs)
    norms = np.linalg.norm(rest, axis=1)
    if (norms < TINY_NORM).any():
        return np.arange(n)
    scale = np.where(weighted, pos.sum(), n)
    emb = rest / norms[:, None]
    err = 4.0 * (n + 2) * np.finfo(np.float64).eps * scale / norms
    v = np.asarray(axis.direction, dtype=np.float64)
    u = emb - np.asarray(axis.origin, dtype=np.float64)
    residual = np.linalg.norm(u - np.outer(u @ v / (v @ v), v), axis=1)
    floor = np.min(residual + err)
    return np.flatnonzero(~(residual - err > floor + SCREEN_BAND))


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


def integrate_retrieved(active, retrieved, store, config, ids, rules=()):
    """Each retrieved copy lifted by hand to an anchor of at least the
    re-anchor floor and full persistence, into a new state that is
    assimilated; the store twins of the copies that survive, found by
    content, re-anchored."""
    floor = config.reanchor_min
    boosted = [
        c.replace(anchor=max(c.anchor, floor), persistence=1.0) for c in retrieved.fragments
    ]
    new_active, report = assimilate(
        active, BeliefState(tuple(boosted), active.clock), config, ids, mode="auto", rules=rules
    )
    surviving = {f.content_key() for f in new_active.fragments}
    twins = [c.id for c in boosted if c.content_key() in surviving]
    return new_active, store.reanchor(twins, floor), report


def resolve_conflicts(state):
    """The conflict sweep over a list of every fragment of the state: each
    key group, regrouped from the list, walked pair by pair in id order.
    Returns (the survivors' state, retracted ids in (a.id, b.id) order)."""
    current = list(state.fragments)
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
    survivors = tuple(f for f in current if f.id not in dead)
    return BeliefState(survivors, state.clock), [loser for _, _, loser in sorted(found)]


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
        resolved, swept = resolve_conflicts(BeliefState(tuple(current), clock))
        current = list(resolved.fragments)
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
    """The rows tagged with ``sector``, by a filter over every row."""
    return tuple(f for f in state.rows if sector in f.sectors)


def sectors(state):
    """Every sector tag present, sorted: one walk over every row's sectors."""
    return tuple(sorted({s for f in state.rows for s in f.sectors}))


def activation_density(state, sector):
    """The weight of the fragments tagged with ``sector`` over the total
    weight, each summed left to right over every fragment; 0 when the total
    is not positive."""
    total = mass = 0.0
    for f in state.fragments:
        weight = f.anchor * f.persistence
        total += weight
        if sector in f.sectors:
            mass += weight
    return mass / total if total > 0.0 else 0.0


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


def cognitive_load(state, config, rate):
    """Row count + activation-weighted sector costs + operator rate, each
    sector's mass and the total summed left to right over every fragment."""
    if rate < 0:
        raise ValueError(f"operation rate must be >= 0, got {rate}")
    c_count, c_sector, c_rate = config.load_coeffs
    frags = state.fragments
    total = 0.0
    for f in frags:
        total += f.anchor * f.persistence
    sector_term = 0.0
    for sector in sorted({s for f in frags for s in f.sectors}):
        mass = 0.0
        for f in frags:
            if sector in f.sectors:
                mass += f.anchor * f.persistence
        sector_term += (mass / total if total > 0.0 else 0.0) * config.cost(sector)
    return c_count * len(frags) + c_sector * sector_term + c_rate * rate


def lowest_priority_sector(state, config):
    """The present sector ranked last in ``sector_priority``, unlisted ones
    after every listed one and by name among themselves: one walk over every
    row's sectors; None for the vacuum."""
    order = list(config.sector_priority)
    lowest = None
    for f in state.rows:
        for s in f.sectors:
            rank = (order.index(s) if s in order else len(order), s)
            if lowest is None or rank > lowest:
                lowest = rank
    return None if lowest is None else lowest[1]


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


def check(run, spec):
    """An expect check as ``SimulationRun._check`` once read it: one branch
    per check, each absence check and its presence check written apart, and
    every valued check's tolerance and detail on its own."""
    check = spec["check"]
    name = spec.get("name")
    frag = run.active.get(run.names[name]) if name in run.names else None

    def out(ok, detail):
        return AssertionOutcome(check=check, ok=ok, detail=detail, spec=spec)

    if check == "fragment_present":
        if name not in run.names:
            return out(False, f"name {name!r} never registered")
        return out(frag is not None, f"id {run.names[name]} "
                   + ("present" if frag else "absent"))
    if check == "fragment_absent":
        if name not in run.names:
            return out(True, f"name {name!r} never registered")
        return out(frag is None, f"id {run.names[name]} "
                   + ("absent" if frag is None else "present"))
    if check == "persistence":
        if frag is None:
            return out(False, f"{name!r} not in active state")
        tol = float(spec.get("tol", 1e-6))
        want = float(spec["value"])
        ok = abs(frag.persistence - want) <= tol
        return out(ok, f"persistence {frag.persistence:.6f} vs {want} ± {tol}")
    if check == "anchor":
        if frag is None:
            return out(False, f"{name!r} not in active state")
        tol = float(spec.get("tol", 1e-9))
        want = float(spec["value"])
        ok = abs(frag.anchor - want) <= tol
        return out(ok, f"anchor {frag.anchor:.6f} vs {want}")
    if check == "kappa":
        sector = spec.get("sector")
        value = coherence(run.active, sector)
        tol = float(spec.get("tol", 1e-6))
        want = float(spec["value"])
        ok = abs(value - want) <= tol
        where = f" in {sector}" if sector else ""
        return out(ok, f"kappa{where} {value:.6f} vs {want} ± {tol}")
    if check == "is_vacuum":
        return out(run.active.is_vacuum == spec.get("value", True),
                   f"vacuum={run.active.is_vacuum}")
    fired_so_far = f"fired so far: {sorted(set(run.fired))}"
    if check == "action_fired":
        return out(spec["action"] in run.fired, fired_so_far)
    # action_not_fired
    return out(spec["action"] not in run.fired, fired_so_far)
