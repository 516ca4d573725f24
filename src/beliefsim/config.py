"""Engine configuration.

Every tunable of the belief engine lives in one frozen dataclass so that a
scenario file (or a test) can override any subset and the rest of the code
never reaches for module-level globals.  Instances are immutable; use
``replace()`` to derive variants.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import dataclass, field, fields
from dataclasses import replace as dc_replace
from typing import Any, Mapping

from .core import ANCHOR_MAX

# Function families available for the anchor-dependent decay modulator f(a).
DECAY_MODULATORS = ("inverse_anchor", "constant")

# Largest embedding: every fragment keeps one float64 vector of this length.
EMBED_DIM_MAX = 4096

# Largest |load coefficient| and sector cost.  The load is c_count*n +
# c_sector*sum(density*cost) + c_rate*rate with each density in [0, 1], so
# at this bound it stays finite for counts (rows, sectors, ops) below 1e108.
LOAD_SCALE_MAX = 1e100


@dataclass(frozen=True)
class ParameterConfig:
    """All engine parameters, with desk-scale defaults."""

    # --- decay / pruning -------------------------------------------------
    delta: float = 0.1            # persistence prune threshold, in (0, 1)
    lambda0: float = 0.02         # base decay rate per tick, > 0
    decay_modulator: str = "inverse_anchor"   # f(a) = 1/(1+a) | f(a) = 1

    # --- embedding -------------------------------------------------------
    embed_dim: int = 64           # token-hash cells, in [8, EMBED_DIM_MAX]

    # --- memory cycle ----------------------------------------------------
    tau_retrieval: float = 0.3    # relevance score threshold, in [0, 1]
    reanchor_min: float = 5.0     # integration raises a surviving twin's anchor to at least this
    goal_marker: str = "goal:"    # prefix marking goal fragments (case-insensitive)

    # --- abstraction tower -----------------------------------------------
    eps_fix: float = 1e-6         # fixed-point tolerance for tower convergence

    # --- determinism -----------------------------------------------------
    seed: int = 0                 # drives the drift sampler

    # --- cognitive load --------------------------------------------------
    sector_costs: Mapping[str, float] = field(default_factory=dict)  # missing sector -> 1.0
    load_coeffs: tuple[float, float, float] = (0.01, 1.0, 0.1)       # (complexity, sector, rate)
    window: int = 10              # operator-rate window, ticks

    # --- effort ----------------------------------------------------------
    effort_total: float = 10.0    # per-tick budget

    # --- regulation thresholds -------------------------------------------
    tau_theta: float = 0.8        # angular deviation trigger, radians
    tau_r: float = 0.8            # residual offset trigger
    kappa_crit: float = 0.8       # coherence floor
    l_max: float = 10.0           # load ceiling
    a_core: float = 5.0           # read by nothing; kept only for the trace header

    # --- regulation policy -----------------------------------------------
    patience: int = 3             # consecutive breached ticks before escalation
    nullify_boost: float = 5.0    # extra decay span applied by accelerated nullification
    sector_priority: tuple[str, ...] = (
        "task", "plan", "refl", "narr", "mem", "lang", "affect", "perc",
    )                             # highest priority first

    # --- meta recursion --------------------------------------------------
    meta_depth_max: int = 3

    # ----------------------------------------------------------------------

    def validate(self) -> None:
        """Raise ValueError on any out-of-range or mistyped parameter."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not is_finite_number(value):
                raise ValueError(f"{f.name} must be a finite number, got {reprlib.repr(value)}")
            if f.type == "int" and not (isinstance(value, int) and is_finite_number(value)):
                raise ValueError(
                    f"{f.name} must be an integer within the float range, "
                    f"got {reprlib.repr(value)}")
        for name in ("lambda0", "eps_fix", "effort_total", "nullify_boost"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("patience", "meta_depth_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.decay_modulator not in DECAY_MODULATORS:
            raise ValueError(
                f"decay_modulator must be one of {DECAY_MODULATORS}, "
                f"got {reprlib.repr(self.decay_modulator)}")
        if not (8 <= self.embed_dim <= EMBED_DIM_MAX):
            raise ValueError(
                f"embed_dim must lie in [8, {EMBED_DIM_MAX}], got {self.embed_dim}"
            )
        if not (0.0 <= self.tau_retrieval <= 1.0):
            raise ValueError(f"tau_retrieval must lie in [0, 1], got {self.tau_retrieval}")
        if self.reanchor_min > ANCHOR_MAX:
            raise ValueError(f"reanchor_min must be <= {ANCHOR_MAX:g}, got {self.reanchor_min}")
        if not (
            isinstance(self.load_coeffs, tuple)
            and len(self.load_coeffs) == 3
            and all(is_finite_number(c) and abs(c) <= LOAD_SCALE_MAX for c in self.load_coeffs)
        ):
            raise ValueError(f"load_coeffs must be three numbers of size <= "
                             f"{LOAD_SCALE_MAX:g}, got {reprlib.repr(self.load_coeffs)}")
        if not (
            isinstance(self.sector_priority, tuple)
            and all(isinstance(s, str) for s in self.sector_priority)
        ):
            raise ValueError(
                f"sector_priority must be strings, got {reprlib.repr(self.sector_priority)}")
        if not isinstance(self.sector_costs, Mapping):
            raise ValueError(
                f"sector_costs must be a mapping, got {reprlib.repr(self.sector_costs)}")
        if not (1 <= self.window <= sys.maxsize):  # the op-rate deque's length limit
            raise ValueError(f"window must lie in [1, {sys.maxsize}], got {self.window}")
        if not isinstance(self.goal_marker, str) or not self.goal_marker:
            raise ValueError(
                f"goal_marker must be a non-empty string, got {reprlib.repr(self.goal_marker)}")
        for sector, cost in self.sector_costs.items():
            if not is_finite_number(cost):
                raise ValueError(f"sector cost for {reprlib.repr(sector)} must be a finite "
                                 f"number, got {reprlib.repr(cost)}")
            if not 0 <= cost <= LOAD_SCALE_MAX:
                raise ValueError(f"sector cost for {reprlib.repr(sector)} must lie in "
                                 f"[0, {LOAD_SCALE_MAX:g}], got {cost}")

    def cost(self, sector: str) -> float:
        """Per-sector activation cost; sectors without an entry cost 1.0."""
        return float(self.sector_costs.get(sector, 1.0))

    def decay_rate(self, anchor: float) -> float:
        """Effective decay rate lambda_i = lambda0 * f(anchor)."""
        if self.decay_modulator == "inverse_anchor":
            return self.lambda0 / (1.0 + anchor)
        return self.lambda0

    def replace(self, **overrides: Any) -> "ParameterConfig":
        cfg = dc_replace(self, **overrides)
        cfg.validate()
        return cfg


def is_finite_number(value: Any) -> bool:
    """A number, not a bool, that a float holds finitely (NaN compares false).

    Compared, not converted: float() of a huge JSON integer overflows, and an
    int just above the largest float would round down into range.  This is
    the one finiteness test for every number a scenario supplies.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max
    )


def _as_float(value: Any) -> Any:
    return float(value) if is_finite_number(value) else value


def default_config() -> ParameterConfig:
    cfg = ParameterConfig()
    cfg.validate()
    return cfg


def config_from_dict(data: Mapping[str, Any]) -> ParameterConfig:
    """Build a config from a plain mapping (e.g. a scenario's config block).

    Unknown keys raise ValueError so typos in scenario files fail loudly.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"config must be an object, got {reprlib.repr(data)}")
    known = {f.name for f in ParameterConfig.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {reprlib.repr(sorted(unknown))}")
    kwargs: dict[str, Any] = dict(data)
    # JSON lists become tuples and numbers floats; validate() rejects the rest.
    if isinstance(kwargs.get("load_coeffs"), list):
        kwargs["load_coeffs"] = tuple(_as_float(c) for c in kwargs["load_coeffs"])
    if isinstance(kwargs.get("sector_priority"), list):
        kwargs["sector_priority"] = tuple(kwargs["sector_priority"])
    if isinstance(kwargs.get("sector_costs"), dict):
        kwargs["sector_costs"] = {k: _as_float(v) for k, v in kwargs["sector_costs"].items()}
    cfg = ParameterConfig(**kwargs)
    cfg.validate()
    return cfg


__all__ = [
    "DECAY_MODULATORS",
    "EMBED_DIM_MAX",
    "LOAD_SCALE_MAX",
    "ParameterConfig",
    "config_from_dict",
    "default_config",
    "is_finite_number",
]
