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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import ParameterConfig
from .core import TINY_NORM, BeliefState, embed_state

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
    """Measure a state against an axis.

    With u = embed(state) - origin and v the axis direction:
    proj_coeff = <u, v> / |v|^2, theta = angle(u, v), residual = |u - proj*v|.
    A state sitting exactly at the axis origin reads theta 0, residual 0 by
    convention.
    """
    v = np.asarray(axis.direction, dtype=np.float64)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError(f"axis {getattr(axis, 'label', '?')!r} has zero direction")
    u = embed_state(state, config.embed_dim) - np.asarray(axis.origin, dtype=np.float64)
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

    Row i embeds the rest (every fragment but i) the way ``embed_state``
    does: the sum of positive-weight vectors, or the unweighted sum when no
    positive weight remains, normalised, a zero sum staying zero.  It is
    formed as ``S - w_i * v_i``, a different summation order from
    ``embed_state``'s, so each screened residual carries a bound on its
    distance from the exact reading; the bound grows as the rest's sum gets
    small beside S.  Every row whose interval reaches the lowest upper end
    (plus SCREEN_BAND) is listed, so the exact minimum is always among them.
    A non-finite weight, or a rest whose norm is below ``TINY_NORM``, lists
    every row.
    """
    n = len(weights)
    if not np.isfinite(weights).all():
        return np.arange(n)
    positive = weights > 0.0
    pos = np.where(positive, weights, 0.0)
    weighted = np.count_nonzero(positive) - positive > 0
    rest = np.where(weighted[:, None], pos @ vecs - pos[:, None] * vecs,
                    vecs.sum(axis=0) - vecs)
    norms = np.linalg.norm(rest, axis=1)
    if (norms < TINY_NORM).any():
        # embed_state rescales so small a sum before normalising it, which no
        # bound here covers: read every row exactly.
        return np.arange(n)
    scale = np.where(weighted, pos.sum(), n)
    with np.errstate(divide="ignore", invalid="ignore"):
        emb = np.where(norms[:, None] > 0.0, rest / norms[:, None], 0.0)
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

    Each step screens every removal at once (``_shortlist``), then re-reads
    only the shortlisted ones exactly with ``compass_reading``; the first
    least exact residual in id order is dropped, so the choice is that of
    reading every removal exactly.  The state read for that removal becomes
    the current one, its kept embedding with it.
    """
    current = state
    removed: list[int] = []
    reading = compass_reading(current, axis, config)
    while detect_drift(reading, config) and len(current.rows) > 1:
        best_id = best_state = best_reading = None
        rows = current.rows
        for i in _shortlist(current.vectors(config.embed_dim), current.weights(), axis):
            candidate = current.revised(drop=(rows[i].id,))
            cand_reading = compass_reading(candidate, axis, config)
            if best_reading is None or cand_reading.residual < best_reading.residual:
                best_id, best_state, best_reading = rows[i].id, candidate, cand_reading
        assert best_reading is not None
        if best_reading.residual >= reading.residual:
            return RealignmentOutcome(current, tuple(removed), True)
        current = best_state
        removed.append(best_id)
        reading = best_reading
    warned = detect_drift(reading, config)
    return RealignmentOutcome(current, tuple(removed), warned)


__all__ = [
    "CompassReading",
    "RealignmentOutcome",
    "compass_reading",
    "detect_drift",
    "distance",
    "realign",
]
