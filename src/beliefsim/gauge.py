"""Behavioral equivalence between belief states.

Two states that answer every observable question identically are the same
state for all practical purposes, whatever their internal ids or bookkeeping
look like.  The harness runs a fixed probe battery against both states —
measurement scalars, decay horizons, assimilation responses, query phrasing,
and an action verdict — and declares equivalence only if every probe agrees.
The first disagreeing probe is reported as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .config import ParameterConfig
from .core import BeliefState, Fragment, IdAllocator
from .dynamics import assimilate, nullify
from .execution import ActionBasin, Clause, evaluate_action
from .memory import generate_query
from .regulation import cognitive_load, coherence

SCALAR_TOL = 1e-9

PROBE_KINDS = ("scalar", "state", "cue", "verdict")


def canonical_state(state: BeliefState) -> tuple:
    """Id-free observable form: sorted content rows plus the clock."""
    rows = sorted(
        (
            f.content_key(),
            round(f.anchor, 12),
            round(f.persistence, 12),
            f.origin,
        )
        for f in state.fragments
    )
    return (round(state.clock, 12), tuple(rows))


@dataclass(frozen=True)
class Probe:
    name: str
    kind: str
    run: Callable[[BeliefState, ParameterConfig], object]

    def __post_init__(self) -> None:
        if self.kind not in PROBE_KINDS:
            raise ValueError(f"unknown probe kind {self.kind!r}")


def _scratch_ids(state: BeliefState) -> IdAllocator:
    top = max(state.ids(), default=0)
    return IdAllocator(top + 1000)


def _assimilation_probe(
    text: str, key: str | None, polarity: str | None
) -> Callable[[BeliefState, ParameterConfig], object]:
    def run(state: BeliefState, config: ParameterConfig) -> object:
        ids = _scratch_ids(state)
        incoming = Fragment(
            id=ids.next(),
            text=text,
            sectors=frozenset({"perc"}),
            key=key,
            polarity=polarity,
            anchor=1.0,
            persistence=1.0,
            created_at=state.clock,
            origin="observed",
        )
        out, _ = assimilate(
            state, BeliefState((incoming,), state.clock), config, ids, mode="auto"
        )
        return canonical_state(out)

    return run


def _cue_observable(cue) -> object:
    # Token order is presentation; retrieval scoring only sees the bag, so
    # the observable is the sorted multiset.
    if cue is None:
        return None
    return (cue.kind, tuple(sorted(cue.tokens)))


def _action_probe(state: BeliefState, config: ParameterConfig) -> object:
    basin = ActionBasin(
        name="gauge-probe",
        clauses=(Clause(kind="sector_density", sector="perc", minimum=0.5),),
        tau=0.25,
    )
    decision = evaluate_action(basin, state, prev_readiness=0.0, mode="live")
    return (decision.verdict, round(decision.readiness, 9))


# The battery: ten probes spanning every observable channel.
PROBES = (
    Probe("coherence_global", "scalar", lambda s, c: coherence(s)),
    Probe("load_at_rest", "scalar", lambda s, c: cognitive_load(s, c, 0.0)),
    Probe(
        "decay_horizon_short",
        "state",
        lambda s, c: canonical_state(nullify(s, 10.0, c)),
    ),
    Probe(
        "decay_horizon_long",
        "state",
        lambda s, c: canonical_state(nullify(s, 120.0, c)),
    ),
    Probe(
        "assimilate_claim_p_neg",
        "state",
        _assimilation_probe("gauge probe claim", "p", "-"),
    ),
    Probe(
        "assimilate_claim_q_pos",
        "state",
        _assimilation_probe("gauge probe claim", "q", "+"),
    ),
    Probe(
        "assimilate_plain",
        "state",
        _assimilation_probe("gauge probe note", None, None),
    ),
    Probe(
        "query_goal",
        "cue",
        lambda s, c: _cue_observable(generate_query(s, "goal", c)),
    ),
    Probe(
        "query_associative",
        "cue",
        lambda s, c: _cue_observable(generate_query(s, "associative", c)),
    ),
    Probe("action_readiness", "verdict", _action_probe),
)


@dataclass(frozen=True)
class ProbeRow:
    probe: str
    kind: str
    matched: bool
    value_a: str
    value_b: str


@dataclass(frozen=True)
class GaugeVerdict:
    equivalent: bool
    witness: str | None
    rows: tuple[ProbeRow, ...]


def _values_match(kind: str, a: object, b: object) -> bool:
    if kind == "scalar":
        return abs(float(a) - float(b)) <= SCALAR_TOL
    return a == b


def gauge_equivalent(
    state_a: BeliefState,
    state_b: BeliefState,
    config: ParameterConfig,
) -> GaugeVerdict:
    """Run the battery on both states; equivalent iff every probe agrees."""
    rows = []
    witness: str | None = None
    for probe in PROBES:
        value_a = probe.run(state_a, config)
        value_b = probe.run(state_b, config)
        matched = _values_match(probe.kind, value_a, value_b)
        if not matched and witness is None:
            witness = probe.name
        rows.append(
            ProbeRow(
                probe=probe.name,
                kind=probe.kind,
                matched=matched,
                value_a=repr(value_a),
                value_b=repr(value_b),
            )
        )
    return GaugeVerdict(
        equivalent=witness is None, witness=witness, rows=tuple(rows)
    )


__all__ = [
    "GaugeVerdict",
    "PROBES",
    "PROBE_KINDS",
    "Probe",
    "ProbeRow",
    "SCALAR_TOL",
    "canonical_state",
    "gauge_equivalent",
]
