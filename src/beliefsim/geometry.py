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
derives the pruned state once.  It re-reads only the removals that a screen
cannot rule out: the screen reads every removal's residual from per-row
scalars (each row's products with the axis, taken once per realignment,
and one small product per step), with a derived error bound, so the
removal it leads to is the one that reading every removal exactly gives.
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
    return cosine_distance(embed_state(a, config.embed_dim), embed_state(b, config.embed_dim))


def cosine_distance(va: np.ndarray, vb: np.ndarray) -> float:
    """``distance``'s arithmetic on two embeddings: 0 for two zero vectors,
    1 for one zero vector, else 1 - cosine clipped to [0, 2]."""
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


# Slack on top of each screened residual's interval, for the rounding of
# its two ends.
SCREEN_BAND = 1e-9

_EPS = float(np.finfo(np.float64).eps)


def _fixed(vecs: np.ndarray, axis: "EpistemicAxis") -> tuple:
    """What the screen reads once per realignment: the axis as arrays, each
    row's ``a_i = v_i·dir``, ``b_i = v_i·origin`` and ``q_i = |v_i|²``, and
    ``dir·dir``, ``origin·dir`` and ``origin·origin``."""
    direction = np.asarray(axis.direction, dtype=np.float64)
    origin = np.asarray(axis.origin, dtype=np.float64)
    rows = (vecs @ direction, vecs @ origin, np.einsum("ij,ij->i", vecs, vecs))
    return direction, origin, rows, (direction @ direction, origin @ direction, origin @ origin)


def _shortlist(vecs: np.ndarray, pos: np.ndarray, live: np.ndarray,
               fixed: tuple) -> np.ndarray:
    """Positions k in ``live`` whose removal may give the least residual.

    ``pos`` is every row's weight where positive and 0 elsewhere, 0 too for
    the rows already removed, so S = pos @ vecs sums the live positive
    rows; ``fixed`` is ``_fixed(vecs, axis)``.  With at least two live
    positive weights every rest (every live row but i) sums as
    ``embed_weighted`` weighs it, to R_i = S - w_i v_i, and with
    c = vecs @ S each removal is read from scalars:

        N_i² = S·S - 2 w_i c_i + w_i² q_i
        u·dir = (S·dir - w_i a_i) / N_i - origin·dir
        |u|² = 1 - 2 (S·origin - w_i b_i) / N_i + origin·origin
        residual² = |u|² - (u·dir)² / (dir·dir)

    The bound.  Let eps be the machine epsilon, n the live rows, d the
    columns, W the sum of the live positive weights, N a lower bound on
    N_i and t = 1 + |origin|.  Every row of V is a unit vector or zero, so
    Σ w_j |v_j| <= W and N_i <= W.  To first order in eps:
      - the exact re-read sums R_i to within (n/2)·eps·W, so its unit
        vector lies within n·eps·W/N of R_i/N_i, and its norm and division
        add (d/4 + 3/2)·eps; ``_reading`` adds at most (5d/4 + 9/2)·eps·t.
        Its residual is within (n + 3d/2 + 6)·eps·(W/N)·t of the true one,
        and its square within twice that times t;
      - S is within (n/2)·eps·W of the true sum, which moves each rest's
        residual by at most n·eps·W/N and its square by 2n·eps·(W/N)·t;
      - from that S the scalars give N_i² within (2d + 4)·eps·W², u·dir
        within (7d/2 + 13/2)·eps·(W/N)²·t·|dir|, |u|² within
        (13d/2 + 13)·eps·(W/N)²·t², and residual² within
        (14d + 28)·eps·(W/N)²·t².
    As W/N >= 1 and t >= 1, residual² is within
    (4n + 17d + 40)·eps·(W/N)²·t² of the re-read's square.  The bound is
    twice that, with N² taken as the computed N_i² less its own error,
    (n + 2d + 4)·eps·W².  It is used only while it is at most t², where
    every first-order term is below 1/2 and the dropped terms are below
    the first-order ones.  Otherwise every position is listed; so it is
    when a rest is below ``TINY_NORM`` (its squares may be subnormal and
    lose digits, and ``embed_weighted`` rescales it), and when fewer than
    two live weights are positive (some rests then sum unweighted).

    The interval of residual² is cut at 0 and the square root taken of
    each end, so a residual near 0 needs no division by it.  Every
    position whose interval reaches the lowest upper end (plus
    SCREEN_BAND) is listed, so the exact minimum is always among them.
    """
    direction, origin, (a, b, q), (dd, od, oo) = fixed
    n, d = len(live), vecs.shape[1]
    w = pos[live]
    if np.count_nonzero(w) < 2:
        return np.arange(n)
    total = float(w.sum())
    s = pos @ vecs
    c = (vecs @ s)[live]
    n2 = s @ s - 2.0 * w * c + w * w * q[live]
    low = n2 - (n + 2 * d + 4) * _EPS * total * total
    coeff = (8 * n + 34 * d + 80) * _EPS * total * total
    if low.min() < max(TINY_NORM * TINY_NORM, coeff):
        return np.arange(n)
    norm = np.sqrt(n2)
    along = (s @ direction - w * a[live]) / norm - od
    uu = 1.0 - 2.0 * (s @ origin - w * b[live]) / norm + oo
    res2 = np.maximum(uu - along * along / dd, 0.0)
    bound = coeff / low * (1.0 + math.sqrt(oo)) ** 2
    lo = np.sqrt(np.maximum(res2 - bound, 0.0))
    hi = np.sqrt(res2 + bound)
    return np.flatnonzero(lo <= hi.min() + SCREEN_BAND)


def realign(state: BeliefState, axis: "EpistemicAxis",
            config: ParameterConfig) -> RealignmentOutcome:
    """Prune content greedily until the compass stops flagging drift.

    Embeddings are derived from content, so a state cannot be moved onto the
    axis directly; instead the fragment whose removal most reduces the
    residual is dropped, repeatedly, until drift clears or only one fragment
    remains.  Stops early (warned=True) if no removal strictly reduces the
    residual — the residual never increases between steps.

    The loop runs on the arrays of ``state``: its rows' entries in row
    order (``state.entries``) and the dense matrix V of them, its weights,
    zeroed as rows leave, and the positions of the rows still live.  Each
    row's products with the axis are taken once (``_fixed``); each step
    screens every removal from them, from one product of the live weighted
    sum with V and from three dot products of that sum (``_shortlist``),
    then re-reads only the shortlisted removals exactly: ``embed_weighted``
    of the rest's entries and ``_reading``, the arithmetic of
    ``compass_reading`` on the state without that row, to the bit.  The
    first least exact residual in id order is dropped, so the choice is
    that of reading every removal exactly.  The pruned state is derived
    once, by one ``revised``.
    """
    reading = compass_reading(state, axis, config)
    warned = detect_drift(reading, config)
    removed: list[int] = []
    if warned and state.size > 1:
        entries, weights = state.entries(config.embed_dim), state.weights()
        vecs = entries.dense()
        fixed = _fixed(vecs, axis)
        pos = np.where(weights > 0.0, weights, 0.0)
        live = np.arange(state.size)
        while warned and len(live) > 1:
            best = best_reading = None
            for i in _shortlist(vecs, pos, live, fixed).tolist():
                rest = np.delete(live, i)
                cand_reading = _reading(embed_weighted(entries, rest, weights[rest]), axis)
                if best_reading is None or cand_reading.residual < best_reading.residual:
                    best, best_reading = i, cand_reading
            assert best_reading is not None
            if best_reading.residual >= reading.residual:
                break  # still drifting: warned stays True
            removed.append(state.rows[live[best]].id)
            pos[live[best]] = 0.0
            live = np.delete(live, best)
            reading = best_reading
            warned = detect_drift(reading, config)
    return RealignmentOutcome(state.revised(drop=removed), tuple(removed), warned)


__all__ = [
    "CompassReading",
    "RealignmentOutcome",
    "compass_reading",
    "cosine_distance",
    "detect_drift",
    "distance",
    "realign",
]
