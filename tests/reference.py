"""Reference loops: the per-fragment versions of the engine's fast paths.

Each function here is the plain loop that a fast path of the engine
replaced, kept as an oracle.  ``test_reference.py`` swaps them into a whole
run through the module attributes the engine calls and asserts that the
trace comes out byte for byte the same.
"""

from __future__ import annotations

import math

import numpy as np

from beliefsim.core import TINY_NORM, BeliefState, embed_fragment, embed_tokens


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
