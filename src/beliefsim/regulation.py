"""Self-monitoring and regulation.

Each tick the engine reads itself (coherence, load, orientation, velocity,
meta depth), writes breach summaries back into its own reflective sector,
decides at most one corrective move by a fixed priority walk, and splits a
fixed effort budget across operator classes.  Regulation competes for the
same budget it allocates, which is what makes overload self-limiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import ParameterConfig
from .core import (
    BeliefState,
    Fragment,
    IdAllocator,
    activation_density,
    embed_state,
    first_conflict,
    ordered_sum,
)
from .geometry import compass_reading, cosine_distance
from .tower import EpistemicAxis

EFFORT_CLASSES = (
    "corrective",
    "monitors",
    "memory",
    "planning",
    "nullify",
    "abstraction",
    "rest",
)

# What each budgeted step of a tick costs: its ``effort_skip`` op name ->
# (the class that pays, units).  The one statement of these costs; a step
# pays before it runs, or is skipped.  No step charges ``abstraction``.
EFFORT_COSTS: Mapping[str, tuple[str, float]] = {
    "meta": ("monitors", 1.0),
    "annihilate_sector": ("corrective", 1.0),
    "corrective_assimilation": ("corrective", 1.0),
    "realign": ("corrective", 1.0),
    "accelerate_nullify": ("nullify", 1.0),
    "memory_cycle": ("memory", 3.0),
    "drift": ("rest", 1.0),
    "basins": ("planning", 1.0),
}

REFLECTIVE_SECTOR = "refl"
META_ANCHOR = 2.0


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

def _conflict_pairs(state: BeliefState, sector: str | None = None) -> int:
    """Unordered conflicting pairs among the rows tagged with ``sector`` (all
    rows by default): per conflict group, positives times negatives."""
    count = 0
    for group in state.conflicts():
        if sector is not None:
            group = [f for f in group if sector in f.sectors]
        plus = sum(1 for f in group if f.polarity == "+")
        count += plus * (len(group) - plus)
    return count


def coherence(state: BeliefState, sector: str | None = None) -> float:
    """1 minus the ordered-conflicting-pair density; the vacuum is coherent.

    Ordered pairs (each unordered conflict counts twice) over n^2, so two
    fragments in direct contradiction score 0.5 and the measure decays
    smoothly as neutral content is added around a dispute.  With p_k and m_k
    counting the '+' and '-' fragments on key k, this is 1 − 2·Σ_k p_k·m_k / n²,
    read from the state's conflict groups: with none, exactly 1.0, n uncounted.
    """
    pairs = _conflict_pairs(state, sector)
    if not pairs:
        return 1.0
    n = state.size if sector is None else state.count_in(sector)
    return 1.0 - (2 * pairs) / (n * n)


def cognitive_load(state: BeliefState, config: ParameterConfig, rate: float) -> float:
    """Fragment count + activation-weighted sector costs + operator rate."""
    if rate < 0:
        raise ValueError(f"operation rate must be >= 0, got {rate}")
    c_count, c_sector, c_rate = config.load_coeffs
    sector_term = ordered_sum(
        [activation_density(state, s) * config.cost(s) for s in state.sectors()]
    )
    return c_count * state.size + c_sector * sector_term + c_rate * rate


def meta_depth(state: BeliefState) -> int:
    """The deepest reflection's level, at least 1: 1 = plain self-report;
    grows when reflections reference reflections."""
    return max([1, *(f.level for f in state.rows_in(REFLECTIVE_SECTOR) if f.origin == "meta")])


@dataclass(frozen=True)
class IntrospectiveReport:
    """One tick's self-measurement snapshot."""

    tick: float
    kappa_global: float
    kappa_by_sector: Mapping[str, float]
    load: float
    theta_by_axis: Mapping[str, float]
    velocity: float
    depth: int

    @property
    def worst_kappa(self) -> float:
        """The lowest coherence reading, global or per sector."""
        return min((self.kappa_global, *self.kappa_by_sector.values()))


def introspect(
    active: BeliefState,
    prev_embedding: np.ndarray | None,
    axes: Mapping[str, EpistemicAxis],
    config: ParameterConfig,
    rate: float,
) -> IntrospectiveReport:
    """One tick's report on ``active``.  The velocity is the cosine
    distance from ``prev_embedding``, the previous tick's state embedding
    (``embed_state``), or 0 on the first tick."""
    kappa_by_sector = {
        s: coherence(active, s) for s in active.sectors()
    }
    theta_by_axis = {}
    for label in sorted(axes):
        theta_by_axis[label] = compass_reading(active, axes[label], config).theta
    velocity = 0.0
    if prev_embedding is not None:
        velocity = cosine_distance(embed_state(active, config.embed_dim), prev_embedding)
    return IntrospectiveReport(
        tick=active.clock,
        kappa_global=coherence(active),
        kappa_by_sector=kappa_by_sector,
        load=cognitive_load(active, config, rate),
        theta_by_axis=theta_by_axis,
        velocity=velocity,
        depth=meta_depth(active),
    )


# --------------------------------------------------------------------------
# Meta-assimilation: breaches become reflective fragments
# --------------------------------------------------------------------------

def coherence_breached(report: IntrospectiveReport, config: ParameterConfig) -> bool:
    """Whether global or any sector coherence is under kappa_crit."""
    return report.worst_kappa < config.kappa_crit


def any_breach(report: IntrospectiveReport, config: ParameterConfig) -> bool:
    """Whether meta_assimilate has a breach to write for this report."""
    return bool(_breach_entries(report, config))


def _breach_entries(
    report: IntrospectiveReport, config: ParameterConfig
) -> list[tuple[str, str, str, float]]:
    """(metric, target, direction, value) rows, in a fixed scan order."""
    rows: list[tuple[str, str, str, float]] = []
    if report.kappa_global < config.kappa_crit:
        rows.append(("coherence", "global", "low", report.kappa_global))
    for sector, kappa in sorted(report.kappa_by_sector.items()):
        if kappa < config.kappa_crit:
            rows.append(("coherence", sector, "low", kappa))
    if report.load > config.l_max:
        rows.append(("load", "global", "high", report.load))
    for label, theta in sorted(report.theta_by_axis.items()):
        if theta > config.tau_theta:
            rows.append(("orientation", label, "high", theta))
    return rows


def _meta_text(metric: str, target: str, direction: str, value: float) -> str:
    return f"{metric} {target} {direction} {round(value, 2):g}"


def meta_assimilate(
    active: BeliefState,
    report: IntrospectiveReport,
    config: ParameterConfig,
    ids: IdAllocator,
) -> tuple[BeliefState, list[Fragment], list[str]]:
    """Fold breach summaries into the reflective sector.

    One fragment per (metric, target); a repeat breach updates the existing
    fragment in place (same id, fresh text/timestamp) instead of piling up.
    A breach about the reflective sector itself stacks one level higher than
    the deepest reflection so depth actually measures self-reference; the
    stack is capped at meta_depth_max and over-cap reflections are dropped
    with a warning rather than written.  Every write is one table edit.
    """
    warnings: list[str] = []
    emitted: list[Fragment] = []
    # Text "<metric> <target> <direction> <value>": slot "<metric> <target>".
    existing_meta = {
        f.text.rsplit(" ", 2)[0]: f
        for f in active.rows_in(REFLECTIVE_SECTOR) if f.origin == "meta"
    }
    for metric, target, direction, value in _breach_entries(report, config):
        text = _meta_text(metric, target, direction, value)
        level = 2
        if target == REFLECTIVE_SECTOR:
            level = max((f.level for f in existing_meta.values()), default=1) + 1
        if level > config.meta_depth_max:  # a reflection's depth is its level
            warnings.append(
                f"reflection depth cap {config.meta_depth_max}: "
                f"dropped {metric} {target}"
            )
            continue
        slot = existing_meta.get(f"{metric} {target}")
        if slot is not None:
            updated = slot.replace(
                text=text,
                level=level,
                anchor=META_ANCHOR,
                persistence=1.0,
                created_at=active.clock,
            )
        else:
            updated = Fragment(
                id=ids.next(),
                text=text,
                sectors=frozenset({REFLECTIVE_SECTOR}),
                level=level,
                anchor=META_ANCHOR,
                persistence=1.0,
                created_at=active.clock,
                origin="meta",
            )
        existing_meta[f"{metric} {target}"] = updated
        emitted.append(updated)
    # A slot written twice (a sector named "global") is put as last written.
    return active.revised(put={f.id: f for f in emitted}.values()), emitted, warnings


# --------------------------------------------------------------------------
# Effort
# --------------------------------------------------------------------------

def uniform_budget(config: ParameterConfig) -> dict[str, float]:
    """The budget split evenly: each class's units for a tick."""
    share = config.effort_total / len(EFFORT_CLASSES)
    return {cls: share for cls in EFFORT_CLASSES}


def allocate_effort(
    report: IntrospectiveReport,
    goals_present: bool,
    config: ParameterConfig,
) -> dict[str, float]:
    """Split the budget by the most pressing condition, in priority order:
    each class's units for a tick.

    Coherence trouble funds correction, overload funds pruning and
    abstraction, open goals fund planning and memory, and a quiet tick
    spreads the budget uniformly.  Unnamed classes get zero: scarcity under
    stress is the point.
    """
    if coherence_breached(report, config):
        shares = {"corrective": 0.6, "monitors": 0.2, "rest": 0.2}
    elif report.load > config.l_max:
        shares = {"nullify": 0.5, "abstraction": 0.3, "monitors": 0.2}
    elif goals_present:
        shares = {"planning": 0.5, "memory": 0.3, "monitors": 0.2}
    else:
        return uniform_budget(config)
    total = config.effort_total
    return {cls: shares.get(cls, 0.0) * total for cls in EFFORT_CLASSES}


# --------------------------------------------------------------------------
# The regulation decision
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RegulationAction:
    kind: str
    target: str | None
    reason: str


def _most_conflicted_sector(state: BeliefState) -> str | None:
    if not state.conflicts():
        return None
    counts = {s: _conflict_pairs(state, s) for s in state.sectors()}
    best = max(counts, key=counts.__getitem__)  # the first of the most
    if counts[best]:
        return best
    # Cross-sector conflict: no single projection contains a pair.  Fall back
    # to the lexicographically first sector touching the first conflict.
    a, b = first_conflict(state)
    return min(a.sectors | b.sectors)


def _lowest_priority_sector(state: BeliefState, config: ParameterConfig) -> str | None:
    present = list(state.sectors())
    if not present:
        return None
    order = list(config.sector_priority)

    def rank(sector: str) -> tuple[int, str]:
        try:
            return (order.index(sector), sector)
        except ValueError:
            return (len(order), sector)

    return max(present, key=rank)


def regulate(
    report: IntrospectiveReport,
    active: BeliefState,
    config: ParameterConfig,
    kappa_breach_ticks: int,
) -> RegulationAction:
    """Pick at most one corrective move for this tick.

    Priority: a coherence breach that has outlasted patience wipes the most
    conflicted sector; a fresh breach gets a corrective sweep first; then
    overload accelerates decay of the lowest-priority active sector; then a
    lost bearing triggers realignment; otherwise nothing.
    """
    kappa_breach = coherence_breached(report, config)

    if kappa_breach and kappa_breach_ticks >= config.patience:
        target = _most_conflicted_sector(active)
        if target is not None:
            return RegulationAction(
                kind="annihilate_sector",
                target=target,
                reason=(
                    f"kappa {report.worst_kappa:.6g} < {config.kappa_crit:g} "
                    f"for {kappa_breach_ticks} ticks"
                ),
            )
    if kappa_breach:
        return RegulationAction(
            kind="corrective_assimilation",
            target=None,
            reason=f"kappa {report.worst_kappa:.6g} < {config.kappa_crit:g}",
        )
    if report.load > config.l_max:
        target = _lowest_priority_sector(active, config)
        if target is not None:
            return RegulationAction(
                kind="accelerate_nullify",
                target=target,
                reason=f"load {report.load:.6g} > {config.l_max:g}",
            )
    breached_axes = sorted(
        label
        for label, theta in report.theta_by_axis.items()
        if theta > config.tau_theta
    )
    if breached_axes:
        label = breached_axes[0]
        return RegulationAction(
            kind="realign",
            target=label,
            reason=(
                f"theta {report.theta_by_axis[label]:.6g} > {config.tau_theta:g} "
                f"on {label}"
            ),
        )
    return RegulationAction(kind="none", target=None, reason="all clear")


__all__ = [
    "EFFORT_CLASSES",
    "EFFORT_COSTS",
    "IntrospectiveReport",
    "META_ANCHOR",
    "REFLECTIVE_SECTOR",
    "RegulationAction",
    "allocate_effort",
    "any_breach",
    "coherence",
    "coherence_breached",
    "cognitive_load",
    "introspect",
    "meta_assimilate",
    "meta_depth",
    "regulate",
    "uniform_budget",
]
