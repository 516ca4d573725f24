"""Acceptance gates: one test per headline capability, at stated tolerance.

Each test is self-contained and checks the engine against independently
computed oracles (closed forms, brute-force enumeration, or byte-level
replay), so a pass certifies the behavior rather than the implementation.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np

from conftest import WORDS, make_fragment
from reference import first_conflict

from beliefsim.config import default_config
from beliefsim.core import BeliefState, IdAllocator, embed_state
from beliefsim.dynamics import (
    annihilate_sector,
    assimilate,
    half_life,
    nullify,
)
from beliefsim.execution import (
    ActionBasin,
    ActionDecision,
    Clause,
    GateRule,
    evaluate_action,
    resolve_actions,
)
from beliefsim.gauge import canonical_state, gauge_equivalent
from beliefsim.geometry import compass_reading
from beliefsim.memory import generate_query, integrate_retrieved, retrieve
from beliefsim.regulation import coherence
from beliefsim.simulator import run_scenario
from beliefsim.tower import EpistemicAxis, build_tower
from beliefsim.trace import canonical_json

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

SECTORS = ("perc", "task", "plan", "mem")
KEYS = ("valve", "pump", "relay", "hatch", "fan")


def rand_state(
    rng: random.Random,
    min_frags: int = 1,
    max_frags: int = 6,
    keyed: bool = False,
    consistent_keys: bool = False,
) -> BeliefState:
    """Random state with unique ids and texts; optionally keyed claims."""
    n = rng.randint(min_frags, max_frags)
    polarity_of: dict[str, str] = {}
    frags = []
    for i in range(n):
        key = polarity = None
        if keyed and rng.random() < 0.7:
            key = rng.choice(KEYS)
            if consistent_keys:
                polarity = polarity_of.setdefault(key, rng.choice("+-"))
            else:
                polarity = rng.choice("+-")
        frags.append(
            make_fragment(
                i + 1,
                f"{rng.choice(WORDS)} {rng.choice(WORDS)} {i}",
                sectors=(rng.choice(SECTORS),),
                anchor=rng.uniform(0.0, 10.0),
                persistence=rng.uniform(0.15, 1.0),
                key=key,
                polarity=polarity,
            )
        )
    return BeliefState(tuple(frags), clock=0.0)


def mass(state: BeliefState) -> float:
    return sum(f.weight for f in state.fragments)


def state_digest(state: BeliefState) -> str:
    return hashlib.sha256(canonical_json(canonical_state(state)).encode()).hexdigest()


# --------------------------------------------------------------------------
# 1. Decay checkpoint table and re-anchoring, under one second
# --------------------------------------------------------------------------

def test_decay_checkpoint_table_and_reanchoring():
    started = time.perf_counter()
    cfg = default_config()
    state = BeliefState(
        (
            make_fragment(1, "reactor temperature nominal", anchor=10.0),
            make_fragment(2, "coolant flow reduced", anchor=5.0),
            make_fragment(3, "dust on the grille", anchor=1.0),
        ),
        clock=0.0,
    )

    checkpoints = {
        20.0: {1: 0.96, 2: 0.94, 3: 0.82},
        100.0: {1: 0.84, 2: 0.72, 3: 0.37},
        250.0: {1: 0.64, 2: 0.44, 3: None},  # weakest fragment pruned by now
    }
    for target, row in checkpoints.items():
        state = nullify(state, target - state.clock, cfg)
        assert state.clock == target
        for fid, want in row.items():
            frag = state.get(fid)
            if want is None:
                assert frag is None
            else:
                assert frag is not None and abs(frag.persistence - want) <= 0.01
    assert state.ids() == {1, 2}

    # A goal-cued memory pass over the decayed state, used as the store,
    # re-anchors the mid fragment to the floor value and restores full
    # persistence.
    active = BeliefState(
        (make_fragment(50, "goal: coolant flow reduced", anchor=2.0),),
        clock=state.clock,
    )
    cue = generate_query(active, "goal", cfg)
    hits = retrieve(state, cue, cfg)
    assert hits.ids() == {2}
    _, new_store, _ = integrate_retrieved(
        active, hits, state, cfg, IdAllocator(100)
    )
    twin = new_store.get(2)
    assert twin.anchor == 5.0 and twin.persistence == 1.0

    assert time.perf_counter() - started < 1.0


# --------------------------------------------------------------------------
# 2. Decay laws on 1,000 random states, under five seconds
# --------------------------------------------------------------------------

def test_decay_laws_hold_on_random_states():
    started = time.perf_counter()
    cfg = default_config()
    rng = random.Random(20260823)

    for _ in range(1000):
        state = rand_state(rng, min_frags=1, max_frags=8)
        t1 = rng.uniform(0.5, 40.0)
        t2 = t1 + rng.uniform(0.5, 40.0)

        short = nullify(state, t1, cfg)
        long = nullify(state, t2, cfg)
        stepped = nullify(short, t2 - t1, cfg)

        # Composition: decaying in two legs equals one leg of the sum.
        assert stepped.ids() == long.ids()
        for frag in stepped.fragments:
            assert abs(frag.persistence - long.get(frag.id).persistence) <= 1e-9

        # Monotone weakening: more elapsed time never adds mass or count.
        assert len(long.fragments) <= len(short.fragments)
        assert mass(long) <= mass(short) + 1e-12

    # Anchoring order: at equal persistence, the better-anchored fragment
    # always outlives the weaker one.
    for _ in range(1000):
        p = rng.uniform(0.15, 1.0)
        low = make_fragment(1, "tick", anchor=rng.uniform(0.0, 8.0), persistence=p)
        high = make_fragment(2, "tock", anchor=low.anchor + rng.uniform(0.5, 4.0),
                             persistence=p)
        assert half_life(high, cfg) > half_life(low, cfg)

    # The closed form predicts the exact integer pruning tick when stepping.
    prune_ticks = []
    for anchor in (0.0, 2.0, 5.0):
        frag = make_fragment(1, "stepper", anchor=anchor)
        predicted = math.floor(half_life(frag, cfg)) + 1
        state = BeliefState((frag,), clock=0.0)
        ticks = 0
        while state.fragments:
            state = nullify(state, 1.0, cfg)
            ticks += 1
        assert ticks == predicted
        prune_ticks.append(ticks)
    assert prune_ticks == sorted(prune_ticks) and len(set(prune_ticks)) == 3

    assert time.perf_counter() - started < 5.0


# --------------------------------------------------------------------------
# 3. Coherence equals brute-force ordered-pair enumeration
# --------------------------------------------------------------------------

def test_coherence_equals_ordered_pair_enumeration():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 50)
        frags = []
        for i in range(n):
            key = rng.choice(KEYS) if rng.random() < 0.6 else None
            frags.append(
                make_fragment(
                    i + 1,
                    f"{rng.choice(WORDS)} {i}",
                    key=key,
                    polarity=rng.choice("+-") if key else None,
                )
            )
        state = BeliefState(tuple(frags), clock=0.0)

        ordered = 0
        for a in frags:
            for b in frags:
                if (
                    a.id != b.id
                    and a.key is not None
                    and a.key == b.key
                    and a.polarity != b.polarity
                ):
                    ordered += 1
        assert coherence(state) == 1.0 - ordered / (n * n)


# --------------------------------------------------------------------------
# 4. Assimilation: redundancy refresh, dispute revision, panel example
# --------------------------------------------------------------------------

def test_assimilation_redundancy_revision_and_dispute():
    cfg = default_config()
    rng = random.Random(11)

    # Re-presenting content the state already holds changes no identity:
    # same fragment set, every anchor up by one, persistence back to full.
    for _ in range(200):
        state = rand_state(rng, keyed=True, consistent_keys=True)
        echo = BeliefState(
            tuple(f.replace(id=f.id + 500) for f in state.fragments), state.clock
        )
        out, report = assimilate(state, echo, cfg, IdAllocator(9000), mode="auto")
        assert out.ids() == state.ids()
        assert report.added == () and report.retracted == ()
        for frag in out.fragments:
            assert frag.anchor == state.get(frag.id).anchor + 1.0
            assert frag.persistence == 1.0

    # Corrective assimilation always ends free of internal contradictions.
    for _ in range(200):
        n_keys = rng.randint(1, 5)
        chosen = rng.sample(KEYS, n_keys)
        held = tuple(
            make_fragment(
                i + 1,
                f"{key} held {i}",
                key=key,
                polarity=rng.choice("+-"),
                anchor=rng.uniform(0.0, 5.0),
            )
            for i, key in enumerate(chosen)
        )
        incoming = tuple(
            make_fragment(
                100 + i,
                f"{key} seen {i}",
                key=key,
                polarity=rng.choice("+-"),
                anchor=rng.uniform(0.0, 5.0),
                created_at=1.0,
            )
            for i, key in enumerate(chosen)
        )
        out, _ = assimilate(
            BeliefState(held, clock=1.0),
            BeliefState(incoming, clock=1.0),
            cfg,
            IdAllocator(500),
            mode="corr",
        )
        assert first_conflict(out.rows) is None
        assert coherence(out) == 1.0

    # The panel dispute: a newer observation at equal anchor replaces the
    # held belief outright.
    held_panel = make_fragment(
        1, "Panel is closed", key="panel_closed", polarity="+", created_at=0.0
    )
    seen_panel = make_fragment(
        2, "Panel is open", key="panel_closed", polarity="-", created_at=1.0
    )
    out, report = assimilate(
        BeliefState((held_panel,), clock=1.0),
        BeliefState((seen_panel,), clock=1.0),
        cfg,
        IdAllocator(10),
        mode="corr",
    )
    assert [f.text for f in out.fragments] == ["Panel is open"]
    assert report.retracted == (1,)


# --------------------------------------------------------------------------
# 5. Annihilation clears fully or by sector, idempotently
# --------------------------------------------------------------------------

def test_annihilation_clears_and_is_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        state = rand_state(rng, min_frags=0, max_frags=6, keyed=True)
        # Wiping every sector in turn gives the vacuum; a second wipe is a no-op.
        wiped = state
        for sector in state.sectors():
            wiped = annihilate_sector(wiped, sector)
        assert wiped.is_vacuum and wiped.clock == state.clock
        for sector in state.sectors():
            assert annihilate_sector(wiped, sector) == wiped
        for sector in state.sectors():
            cut = annihilate_sector(state, sector)
            assert sector not in cut.sectors()
            assert annihilate_sector(cut, sector) == cut


# --------------------------------------------------------------------------
# 6. Towers converge within the logarithmic bound, levels exact
# --------------------------------------------------------------------------

def test_towers_converge_within_log_bound():
    cfg = default_config()
    rng = random.Random(5)
    for n in (2, 4, 8, 16, 32):
        bound = math.ceil(math.log2(n)) + 1
        for _ in range(10):
            seeds = tuple(
                make_fragment(
                    i + 1,
                    f"{rng.choice(WORDS)} {rng.choice(WORDS)} reading {i}",
                    sectors=("perc",),
                )
                for i in range(n)
            )
            trajectory = build_tower(
                BeliefState(seeds, clock=0.0), bound, cfg, IdAllocator(1000)
            )
            assert trajectory.converged
            assert trajectory.fixpoint_gap < cfg.eps_fix
            assert len(trajectory.levels) - 1 <= bound
            for depth, level_state in enumerate(trajectory.levels):
                assert all(f.level == depth for f in level_state.fragments)


# --------------------------------------------------------------------------
# 7. Compass geometry: Pythagoras and on-axis alignment
# --------------------------------------------------------------------------

def test_compass_pythagoras_and_axis_alignment():
    cfg = default_config()
    dim = cfg.embed_dim
    rng = random.Random(13)

    checked = 0
    for _ in range(1000):
        state = rand_state(rng, min_frags=1, max_frags=5)
        origin = embed_state(rand_state(rng, min_frags=1), dim)
        direction = embed_state(rand_state(rng, min_frags=1), dim) - origin
        norm_v = float(np.linalg.norm(direction))
        if norm_v < 1e-12:
            continue
        axis = EpistemicAxis("probe", origin, direction)
        reading = compass_reading(state, axis, cfg)
        u = embed_state(state, dim) - origin
        lhs = float(np.dot(u, u))
        rhs = (reading.proj_coeff * norm_v) ** 2 + reading.residual**2
        assert abs(lhs - rhs) <= 1e-6
        assert 0.0 <= reading.theta <= math.pi
        checked += 1
    assert checked >= 900  # degenerate direction draws are rare

    # A state that defines the axis tip sits on the axis: angle below 1e-9.
    aligned = 0
    for _ in range(50):
        base = rand_state(rng, min_frags=1)
        tip = rand_state(rng, min_frags=1)
        origin = embed_state(base, dim)
        direction = embed_state(tip, dim) - origin
        if float(np.linalg.norm(direction)) < 1e-12:
            continue
        axis = EpistemicAxis("aligned", origin, direction)
        assert compass_reading(tip, axis, cfg).theta <= 1e-9
        # Both endpoints read perfectly aligned: cos(theta) is exactly 1.
        for end in (base, tip):
            assert math.cos(compass_reading(end, axis, cfg).theta) == 1.0
        aligned += 1
    assert aligned >= 45


# --------------------------------------------------------------------------
# 8. Gauge harness: relabeling invisible, claim keys witnessed
# --------------------------------------------------------------------------

def test_gauge_relabeling_equivalence_and_witness():
    cfg = default_config()

    # Different ids, shuffled word order, reversed storage: no probe notices.
    original = BeliefState(
        (
            make_fragment(1, "cooling pump active", sectors=("task",), anchor=2.0),
            make_fragment(2, "valve reads shut", sectors=("perc",),
                          key="valve", polarity="-"),
        ),
        clock=3.0,
    )
    # Fresh ids keep their relative order: recency tie-breaks see id order,
    # so an order-preserving relabeling is the invisible one.
    relabeled = BeliefState(
        (
            make_fragment(57, "shut reads valve", sectors=("perc",),
                          key="valve", polarity="-"),
            make_fragment(41, "pump active cooling", sectors=("task",), anchor=2.0),
        ),
        clock=3.0,
    )
    verdict = gauge_equivalent(original, relabeled, cfg)
    assert verdict.equivalent and verdict.witness is None
    assert all(row.matched for row in verdict.rows)

    # Same sentence filed under different claim keys: observably different,
    # with a concrete witnessing probe.
    p_state = BeliefState(
        (make_fragment(1, "the claim holds", key="p", polarity="+"),), clock=0.0
    )
    q_state = BeliefState(
        (make_fragment(1, "the claim holds", key="q", polarity="+"),), clock=0.0
    )
    verdict = gauge_equivalent(p_state, q_state, cfg)
    assert not verdict.equivalent
    assert verdict.witness == "decay_horizon_short"
    by_name = {row.probe: row for row in verdict.rows}
    # The opposing-claim probe separates them too: it collides with p but
    # lands beside q.
    assert not by_name["assimilate_claim_p_neg"].matched

    # Reflexive and symmetric across random pairs.
    rng = random.Random(29)
    for _ in range(100):
        a = rand_state(rng, keyed=True)
        b = rand_state(rng, keyed=True)
        assert gauge_equivalent(a, a, cfg).equivalent
        assert (
            gauge_equivalent(a, b, cfg).equivalent
            == gauge_equivalent(b, a, cfg).equivalent
        )


# --------------------------------------------------------------------------
# 9. Memory cycle lengthens the twin's half-life without touching inputs
# --------------------------------------------------------------------------

def test_memory_cycle_extends_half_life_without_mutation():
    cfg = default_config()
    twin = make_fragment(3, "fix the pump manual", anchor=1.0, persistence=0.6)
    store = BeliefState(
        (make_fragment(1, "beacon relay steady", anchor=2.0), twin), clock=40.0
    )
    active = BeliefState(
        (make_fragment(50, "goal: fix the pump manual", anchor=2.0),), clock=40.0
    )

    before = half_life(twin, cfg)
    assert math.isclose(before, math.log(6.0) * 100.0, rel_tol=1e-12)

    store_digest = state_digest(store)
    active_digest = state_digest(active)

    cue = generate_query(active, "goal", cfg)
    hits = retrieve(store, cue, cfg)
    assert hits.ids() == {3}
    assert state_digest(store) == store_digest
    assert state_digest(active) == active_digest

    new_active, new_store, _ = integrate_retrieved(
        active, hits, store, cfg, IdAllocator(100)
    )
    after = half_life(new_store.get(3), cfg)
    assert math.isclose(after, math.log(10.0) * 300.0, rel_tol=1e-12)
    assert after > before

    # The original objects still hash to their snapshots.
    assert state_digest(store) == store_digest
    assert state_digest(active) == active_digest
    assert new_active.get(3) is not None


# --------------------------------------------------------------------------
# 10. Gating: first-crossing fire, vetoes at full readiness, one winner
# --------------------------------------------------------------------------

def test_action_gating_first_crossing_and_single_winner():
    cfg = default_config()

    # Readiness ramp 0.25 -> 0.5 -> 0.75 -> 1.0 against tau 0.6: the fire
    # happens exactly at the first crossing, and a plateau stalls it.
    basin = ActionBasin(
        name="engage",
        clauses=(Clause(kind="sector_density", sector="task", minimum=0.8),),
        tau=0.6,
    )

    def ramp_state(k: int) -> BeliefState:
        frags = tuple(
            make_fragment(i + 1, f"unit {i}",
                          sectors=("task",) if i < k else ("perc",))
            for i in range(10)
        )
        return BeliefState(frags, clock=0.0)

    verdicts = []
    prev = 0.0
    for k in (2, 4, 6, 8, 8):
        decision = evaluate_action(basin, ramp_state(k), prev, "live")
        verdicts.append(decision.verdict)
        prev = decision.readiness
    assert verdicts == [
        "below_threshold", "below_threshold", "fired", "fired", "no_momentum"
    ]

    # Vetoes win over full readiness: both kinds report 1.0 yet never fire.
    hot = BeliefState(
        (
            make_fragment(1, "go signal", sectors=("task",)),
            make_fragment(2, "hold fire order", sectors=("refl",)),
        ),
        clock=0.0,
    )
    ready_clause = Clause(kind="token_present", token="go")
    suppressed = evaluate_action(
        ActionBasin("halt", (ready_clause,), 0.1,
                    suppressors=(Clause(kind="token_present", token="hold"),)),
        hot, 0.0, "live",
    )
    gated = evaluate_action(
        ActionBasin("wait", (ready_clause,), 0.1,
                    gate_policy=(GateRule("hold fire", "suppress"),)),
        hot, 0.0, "live",
    )
    assert suppressed.verdict == "suppressed" and suppressed.readiness == 1.0
    assert gated.verdict == "gated_suppress" and gated.readiness == 1.0

    # Simulation mode emits no outward action at all.
    sim = run_scenario(SCENARIOS / "action_ramp.json", mode="simulation")
    assert sim.fired == []
    decisions = [
        json.loads(line)["payload"]
        for line in list(sim.trace.lines())[1:]
        if json.loads(line)["kind"] == "action_decision"
    ]
    assert decisions
    assert all(d["verdict"] != "fired" for d in decisions)
    assert any(d["verdict"] == "blocked_simulation" for d in decisions)

    # Resolution keeps at most one fired decision across random slates.
    rng = random.Random(17)
    labels = ("north", "south", "east", "west", "up", "down")
    pool = ("fired", "below_threshold", "no_momentum", "gated_delay", "suppressed")
    for _ in range(500):
        slate = [
            ActionDecision(label, rng.choice(pool),
                           round(rng.random(), 3), rng.uniform(-0.5, 0.5))
            for label in rng.sample(labels, rng.randint(1, 6))
        ]
        resolved = resolve_actions(slate)
        fired = [d for d in resolved if d.verdict == "fired"]
        assert len(fired) <= 1
        came_in_fired = [d for d in slate if d.verdict == "fired"]
        if came_in_fired:
            assert len(fired) == 1
            assert fired[0].readiness == max(d.readiness for d in came_in_fired)


# --------------------------------------------------------------------------
# 11. Determinism: byte-identical replays; seeds only steer drift
# --------------------------------------------------------------------------

def test_scenario_replays_are_byte_identical():
    paths = sorted(SCENARIOS.glob("*.json"))
    assert len(paths) >= 6
    for path in paths:
        first = run_scenario(path)
        second = run_scenario(path)
        assert first.trace.render() == second.trace.render(), path.name

    lines_a = list(run_scenario(SCENARIOS / "drift_vacuum.json", seed=7).trace.lines())
    lines_b = list(run_scenario(SCENARIOS / "drift_vacuum.json", seed=8).trace.lines())
    assert len(lines_a) == len(lines_b)
    drift_diffs = 0
    for index, (line_a, line_b) in enumerate(zip(lines_a, lines_b)):
        if line_a == line_b:
            continue
        row_a, row_b = json.loads(line_a), json.loads(line_b)
        if index == 0:
            head_a, head_b = row_a["header"], row_b["header"]
            assert head_a.pop("seed") == 7 and head_b.pop("seed") == 8
            head_a["config"].pop("seed"), head_b["config"].pop("seed")
            assert head_a == head_b
        else:
            assert row_a["kind"] == "drift" and row_b["kind"] == "drift"
            drift_diffs += 1
    assert drift_diffs > 0


# --------------------------------------------------------------------------
# 12. Regulation closes the loop within its patience window
# --------------------------------------------------------------------------

def test_regulation_restores_coherence_within_patience():
    cfg = default_config()
    result = run_scenario(SCENARIOS / "regulation_loop.json")
    assert result.ok

    rows = [json.loads(line) for line in list(result.trace.lines())[1:]]
    kappa_series = [
        (row["tick"], row["payload"]["report"]["kappa_global"])
        for row in rows
        if row["kind"] == "meta"
    ]
    breach_tick = next(t for t, k in kappa_series if k < cfg.kappa_crit)
    recovery_tick = next(
        t for t, k in kappa_series if t > breach_tick and k == 1.0
    )
    assert recovery_tick - breach_tick <= cfg.patience

    corrections = [row for row in rows if row["kind"] == "correction"]
    assert corrections and corrections[0]["tick"] == breach_tick

    monitor_texts = [
        f.text for f in result.active.fragments if "refl" in f.sectors
    ]
    assert any(t.startswith("coherence plan low") for t in monitor_texts)
