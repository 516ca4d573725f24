"""Activation basins: graded readiness and gated action release.

A basin names an action and the conditions under which it may fire.  Each
condition clause scores the current state in [0, 1]; readiness is their
geometric mean, so one dead clause vetoes the whole basin.  Firing further
requires clearing a threshold, positive momentum since the last look,
approval from reflective gate rules, and a live (non-simulation) run mode.
At most one action fires per tick.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

from .config import is_finite_number
from .core import BeliefState, activation_density, ordered_sum, tokenize
from .regulation import REFLECTIVE_SECTOR, coherence

# Each clause kind and the fields it reads, each with the test its value must
# pass, or None for an optional field, and what the kind needs when it fails.
_CLAUSES: dict[str, dict[str, tuple[Callable[[Any], bool], str] | None]] = {
    "sector_density": {"sector": (bool, "a sector"), "minimum": (lambda v: v > 0, "minimum > 0")},
    "level_present": {"level": (lambda v: v >= 0, "level >= 0")},
    "coherence_conflict": {
        "sector": (bool, "a sector"), "tolerance": (lambda v: v >= 0, "tolerance >= 0")},
    "token_present": {"token": (bool, "a token"), "sector": None},
}
CLAUSE_KINDS = tuple(_CLAUSES)

# What a clause field's annotation asks of a value that is not None.
_FIELD_TYPES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "str | None": (lambda v: isinstance(v, str), "a string"),
    "float | None": (is_finite_number, "a finite number"),
    "int | None": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an int"),
}

GATE_ACTIONS = ("approve", "delay", "suppress")

SATURATION = 1.0 - 1e-12


@dataclass(frozen=True)
class Clause:
    """One scored condition over the active state.

    sector_density     -- mass share of ``sector`` against ``minimum``;
                          scores proportionally and saturates at 1.
    level_present      -- 1 iff some fragment sits at exactly ``level``.
    coherence_conflict -- 1 iff the sector's incoherence (1 - kappa) stays
                          within ``tolerance``.
    token_present      -- 1 iff ``token`` occurs in any fragment
                          (optionally restricted to ``sector``).
    """

    kind: str
    sector: str | None = None
    minimum: float | None = None
    level: int | None = None
    tolerance: float | None = None
    token: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in CLAUSE_KINDS:  # a tuple: an unhashable kind is refused too
            raise ValueError(f"unknown clause kind {reprlib.repr(self.kind)}")
        reads = _CLAUSES[self.kind]
        for f in fields(self)[1:]:  # each typed from its annotation, then held to its kind
            value, rule = getattr(self, f.name), reads.get(f.name)
            if value is not None:
                is_type, what = _FIELD_TYPES[f.type]
                if not is_type(value):
                    raise ValueError(f"clause {f.name} must be {what}, got {reprlib.repr(value)}")
                if f.name not in reads:
                    raise ValueError(f"{self.kind} clause does not read {f.name}")
            if rule is not None and (value is None or not rule[0](value)):
                raise ValueError(f"{self.kind} clause needs {rule[1]}")
        # Fragment tokens are lowercase alphanumeric runs; no other token can match.
        if self.token is not None and tokenize(self.token) != (self.token,):
            raise ValueError(
                "clause token must be one lowercase alphanumeric word, "
                f"got {reprlib.repr(self.token)}"
            )

    def score(self, state: BeliefState) -> float:
        if self.kind == "sector_density":
            return min(activation_density(state, self.sector) / self.minimum, 1.0)
        if self.kind == "level_present":
            return 1.0 if any(f.level == self.level for f in state.rows) else 0.0
        if self.kind == "coherence_conflict":
            return 1.0 if (1.0 - coherence(state, self.sector)) <= self.tolerance else 0.0
        # token_present
        frags = state.rows if self.sector is None else state.rows_in(self.sector)
        return 1.0 if any(self.token in f.tokens for f in frags) else 0.0


@dataclass(frozen=True)
class GateRule:
    """Reflective veto: pattern tokens, read once, found in one refl fragment."""

    pattern: str
    action: str = "approve"

    def __post_init__(self) -> None:
        if self.action not in GATE_ACTIONS:
            raise ValueError(f"unknown gate action {reprlib.repr(self.action)}")
        if not isinstance(self.pattern, str):
            raise ValueError(f"gate pattern must be a string, got {reprlib.repr(self.pattern)}")
        wanted = frozenset(tokenize(self.pattern))
        if not wanted:
            raise ValueError("gate pattern must contain at least one token")
        object.__setattr__(self, "_wanted", wanted)

    def matches(self, state: BeliefState) -> bool:
        wanted = self._wanted  # type: ignore[attr-defined]
        return any(wanted <= set(f.tokens) for f in state.rows_in(REFLECTIVE_SECTOR))


@dataclass(frozen=True)
class ActionBasin:
    name: str
    clauses: tuple[Clause, ...]
    tau: float = 0.5
    suppressors: tuple[Clause, ...] = ()
    gate_policy: tuple[GateRule, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"basin name must be a non-empty string, got {reprlib.repr(self.name)}")
        name = reprlib.repr(self.name)
        if not self.clauses:
            raise ValueError(f"basin {name} needs at least one clause")
        if not is_finite_number(self.tau):
            raise ValueError(f"basin {name}: tau must be a finite number")
        object.__setattr__(self, "tau", float(self.tau))
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"basin {name}: tau must be in [0, 1)")


def readiness(basin: ActionBasin, state: BeliefState) -> tuple[float, tuple[float, ...]]:
    """Geometric mean of clause scores, plus the individual scores."""
    scores = tuple(c.score(state) for c in basin.clauses)
    if any(s == 0.0 for s in scores):
        return 0.0, scores
    value = math.exp(ordered_sum([math.log(s) for s in scores]) / len(scores))
    return min(value, 1.0), scores


@dataclass(frozen=True)
class ActionDecision:
    action: str
    verdict: str
    readiness: float
    momentum: float
    clause_scores: tuple[float, ...] = ()
    reason: str = ""


def _veto(
    basin: ActionBasin, state: BeliefState, value: float, momentum: float, mode: str
) -> tuple[str, str]:
    """(verdict, reason) of the first failing rung, read no further than it;
    ``("fired", "")`` after a clean descent."""
    if any(s.score(state) >= SATURATION for s in basin.suppressors):
        return "suppressed", "suppressor saturated"
    if value <= basin.tau:
        return "below_threshold", f"readiness {value:.6g} <= tau {basin.tau:g}"
    if momentum <= 0.0:
        return "no_momentum", f"momentum {momentum:.6g} <= 0"
    rule = next((r for r in basin.gate_policy if r.matches(state)), None)
    if rule is not None and rule.action != "approve":  # approval ends the gate walk
        return f"gated_{rule.action}", f"gate pattern {rule.pattern!r}"
    if mode == "simulation":
        return "blocked_simulation", "simulation mode blocks outward actions"
    return "fired", ""


def evaluate_action(
    basin: ActionBasin,
    state: BeliefState,
    prev_readiness: float,
    mode: str,
) -> ActionDecision:
    """Walk the veto ladder for one basin; the first failing rung names
    the verdict, and only a clean descent ends in ``fired``."""
    value, scores = readiness(basin, state)
    momentum = value - prev_readiness
    verdict, reason = _veto(basin, state, value, momentum, mode)
    return ActionDecision(basin.name, verdict, value, momentum, scores, reason)


def resolve_actions(decisions: Sequence[ActionDecision]) -> list[ActionDecision]:
    """Keep at most one ``fired`` decision; demote the rest to gated_delay.

    The winner is the highest readiness, ties to the lexicographically
    smallest action name, so resolution is deterministic under reordering.
    """
    fired = [d for d in decisions if d.verdict == "fired"]
    if len(fired) <= 1:
        return list(decisions)
    winner = min(fired, key=lambda d: (-d.readiness, d.action))
    out = []
    for d in decisions:
        if d.verdict == "fired" and d.action != winner.action:
            d = ActionDecision(
                d.action, "gated_delay", d.readiness, d.momentum,
                d.clause_scores, reason="lost_resolution",
            )
        out.append(d)
    return out


__all__ = [
    "ActionBasin",
    "ActionDecision",
    "CLAUSE_KINDS",
    "Clause",
    "GATE_ACTIONS",
    "GateRule",
    "SATURATION",
    "evaluate_action",
    "readiness",
    "resolve_actions",
]
