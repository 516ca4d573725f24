"""Semantic distance and the orientation compass.

Distance is cosine distance between state embeddings (1 - cosine), with the
conventions: two vacua are at distance 0, a vacuum and anything else at
distance 1.  Cosine distance is symmetric and non-negative but does NOT obey
the triangle inequality in general; nothing here relies on it.

The compass measures a state against an epistemic axis (an origin embedding
plus a direction vector): scalar projection coefficient along the axis,
angular deviation theta, and the perpendicular residual.  theta is computed
with atan2 of the rejection/parallel lengths rather than arccos of a
normalized dot product — identical mathematically, exact near 0 and pi
numerically.

There is one compass arithmetic, ``_reading`` of an embedding, and one
embedding arithmetic, ``core.embed_weighted``.  ``compass_reading`` reads a
state's kept embedding; realignment re-reads the states it considers from
the arrays of the state it was given, with the same two functions, and
derives the pruned state once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import ParameterConfig
from .core import TINY_NORM, BeliefState, embed_state, embed_weighted

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .tower import EpistemicAxis


def distance(a: BeliefState, b: BeliefState, config: ParameterConfig) -> float:
    """Cosine distance between state embeddings, in [0, 2]."""
    va = embed_state(a, config.embed_dim)
    vb = embed_state(b, config.embed_dim)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    cos = float(np.dot(va, vb) / (na * nb))
    return min(max(1.0 - cos, 0.0), 2.0)


@dataclass(frozen=True)
class CompassReading:
    """Projection coefficient, angular deviation (radians), residual offset."""

    proj_coeff: float
    theta: float
    residual: float


def compass_reading(state: BeliefState, axis: "EpistemicAxis",
                    config: ParameterConfig) -> CompassReading:
    """Measure a state against an axis: ``_reading`` of its embedding.

    With u = embed(state) - origin and v the axis direction:
    proj_coeff = <u, v> / |v|^2, theta = angle(u, v), residual = |u - proj*v|.
    A state sitting exactly at the axis origin reads theta 0, residual 0 by
    convention.
    """
    return _reading(embed_state(state, config.embed_dim), axis)


def _reading(embedding: np.ndarray, axis: "EpistemicAxis") -> CompassReading:
    """The compass arithmetic, of ``compass_reading`` and of realignment's
    exact re-reads: ``embedding`` measured against ``axis``."""
    v = np.asarray(axis.direction, dtype=np.float64)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError(f"axis {getattr(axis, 'label', '?')!r} has zero direction")
    u = embedding - np.asarray(axis.origin, dtype=np.float64)
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        return CompassReading(proj_coeff=0.0, theta=0.0, residual=0.0)
    dot = float(np.dot(u, v))
    proj_coeff = dot / (nv * nv)
    rejection = u - proj_coeff * v
    residual = float(np.linalg.norm(rejection))
    parallel = dot / nv  # signed length of u along v
    theta = math.atan2(residual, parallel)
    return CompassReading(proj_coeff=proj_coeff, theta=theta, residual=residual)


def detect_drift(reading: CompassReading, config: ParameterConfig) -> bool:
    """True when the reading breaches either orientation threshold."""
    return reading.theta > config.tau_theta or reading.residual > config.tau_r


@dataclass(frozen=True)
class RealignmentOutcome:
    state: BeliefState
    removed: tuple[int, ...]
    warned: bool


# Slack on top of each screened residual's error bound, for the rounding of
# the residual arithmetic itself.
SCREEN_BAND = 1e-9


def _shortlist(vecs: np.ndarray, weights: np.ndarray,
               axis: "EpistemicAxis") -> np.ndarray:
    """Indices i whose removal may give the least residual, in one numpy pass.

    Row i embeds the rest (every row but i) the way ``embed_weighted`` does:
    the sum of positive-weight vectors, or the unweighted sum when no
    positive weight remains, normalised.  It is formed as ``S - w_i * v_i``,
    a different summation order from ``embed_weighted``'s, so each screened
    residual carries a bound on its distance from the exact reading; the
    bound grows as the rest's sum gets small beside S.  Every row whose
    interval reaches the lowest upper end (plus SCREEN_BAND) is listed, so
    the exact minimum is always among them.  A rest whose norm is below
    ``TINY_NORM`` lists every row.  Weights are finite: an anchor is at most
    ``ANCHOR_MAX`` and a persistence at most 1.
    """
    n = len(weights)
    positive = weights > 0.0
    pos = np.where(positive, weights, 0.0)
    weighted = np.count_nonzero(positive) - positive > 0
    rest = pos @ vecs - pos[:, None] * vecs
    if not weighted.all():  # at most one positive weight: some rests sum unweighted
        rest = np.where(weighted[:, None], rest, vecs.sum(axis=0) - vecs)
    norms = np.linalg.norm(rest, axis=1)
    if (norms < TINY_NORM).any():
        # embed_weighted rescales so small a sum before normalising it, which
        # no bound here covers: read every row exactly.
        return np.arange(n)
    scale = np.where(weighted, pos.sum(), n)
    emb = rest / norms[:, None]
    err = 4.0 * (n + 2) * np.finfo(np.float64).eps * scale / norms
    v = np.asarray(axis.direction, dtype=np.float64)
    u = emb - np.asarray(axis.origin, dtype=np.float64)
    # u = 0 gives a zero rejection: the residual-0 convention of the reading.
    residual = np.linalg.norm(u - np.outer(u @ v / (v @ v), v), axis=1)
    floor = np.min(residual + err)
    return np.flatnonzero(~(residual - err > floor + SCREEN_BAND))


def realign(state: BeliefState, axis: "EpistemicAxis",
            config: ParameterConfig) -> RealignmentOutcome:
    """Prune content greedily until the compass stops flagging drift.

    Embeddings are derived from content, so a state cannot be moved onto the
    axis directly; instead the fragment whose removal most reduces the
    residual is dropped, repeatedly, until drift clears or only one fragment
    remains.  Stops early (warned=True) if no removal strictly reduces the
    residual — the residual never increases between steps.

    The loop runs on the arrays of ``state``: its rows' vectors
    (``state.vectors``), its weights and the positions of the rows still
    live.  Each step screens every removal at once (``_shortlist``), then
    re-reads only the shortlisted ones exactly: ``embed_weighted`` of the
    rest and ``_reading``, the arithmetic of ``compass_reading`` on the
    state without that row, to the bit.  The first least exact residual in
    id order is dropped, so the choice is that of reading every removal
    exactly.  The pruned state is derived once, by one ``revised``.
    """
    reading = compass_reading(state, axis, config)
    warned = detect_drift(reading, config)
    removed: list[int] = []
    if warned and len(state.rows) > 1:
        vecs, weights = state.vectors(config.embed_dim), state.weights()
        live = np.arange(len(state.rows))
        while warned and len(live) > 1:
            best = best_reading = None
            for i in _shortlist(vecs[live], weights[live], axis).tolist():
                rest = np.delete(live, i)
                cand_reading = _reading(embed_weighted(vecs, rest, weights[rest]), axis)
                if best_reading is None or cand_reading.residual < best_reading.residual:
                    best, best_reading = i, cand_reading
            assert best_reading is not None
            if best_reading.residual >= reading.residual:
                break  # still drifting: warned stays True
            removed.append(state.rows[live[best]].id)
            live = np.delete(live, best)
            reading = best_reading
            warned = detect_drift(reading, config)
    return RealignmentOutcome(state.revised(drop=removed), tuple(removed), warned)


__all__ = [
    "CompassReading",
    "RealignmentOutcome",
    "compass_reading",
    "detect_drift",
    "distance",
    "realign",
]
