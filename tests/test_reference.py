"""Whole runs, fast engine against the reference loops, trace for trace.

Every shipped scenario (``coherence_recall`` among them asks the store about
a dispute), the three benchmark workloads at a reduced size, two scenarios
built to sit on a threshold and drawn scenarios (a reduced workload at a
drawn seed, with thresholds set on values its run compares with them) run
twice: once as the engine stands, and once with the
per-fragment loops of ``reference.py`` (decay, state embedding, retrieval,
the assimilation that rebuilds every fragment, the corrective move's
conflict sweep over a list of every fragment, the reflection written one
breach at a time, realignment reading a whole derived state per removal,
coherence, the sector wipe's target and the coherence cue regrouping the
rows by key, the associative cue's ``max`` walk, and the sectors present, a
sector's rows and a basin clause's activation density walking every row,
and the expect check written one branch per check) swapped in through the
module and class attributes the engine calls.  The two traces must be the
same bytes; ``verify_golden``'s float tolerance would
be too loose here.  Every shipped scenario, and the
benchmark workloads at full size and seed 0, must give their goldens' bytes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beliefsim import core, execution, geometry, memory, regulation, simulator, tower
from beliefsim.config import default_config
from beliefsim.core import BeliefState
from beliefsim.simulator import SimulationRun, load_scenario, run_scenario

import reference
from conftest import SECTORS, states
from reference import embed_tokens

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402

SHIPPED = sorted(p.stem for p in SCENARIOS.glob("*.json"))

# Benchmark workloads at a reduced size, each at a fixed list of seeds.  The
# sizes keep what the full workloads exercise: conflict_stream prunes, is
# overloaded (its l_max lowered) and disputes; axis_realign realigns;
# store_recall prunes its store (its delta raised) and retrieves rows whose
# decayed scores cross tau_retrieval.
BENCH = {
    "conflict_stream": (
        {"batches": 8, "batch_size": 20, "vocabulary": 120},
        {"l_max": 3.0, "lambda0": 0.2},
    ),
    "axis_realign": ({"seed_fragments": 16, "batches": 20}, {}),
    "store_recall": (
        {"store_fragments": 300, "vocabulary": 60, "ticks": 10, "goal_every": 4},
        {"delta": 0.97, "tau_retrieval": 0.65},
    ),
}
SEEDS = (0, 1, 2)


def _bench(name: str, seed: int) -> dict:
    params, config = BENCH[name]
    saved = workloads.PARAMS[name]
    workloads.PARAMS[name] = {**saved, **params}
    try:
        scenario = workloads.generate(name, seed)
    finally:
        workloads.PARAMS[name] = saved
    scenario["config"] = {**scenario.get("config", {}), **config}
    return scenario


def _decay_edge() -> dict:
    """delta set to the persistence an anchor reaches after three ticks of
    ``math.exp`` factors, for an anchor whose ``np.exp`` factor rounds
    higher: the fragment and its store twin are pruned at tick 3 only if
    every factor rounds as ``math.exp``."""
    config = default_config().replace(lambda0=0.3)
    for k in range(1, 1000):
        anchor = k / 64
        rate = config.decay_rate(anchor)
        exact = fast = 1.0
        for _ in range(3):
            exact *= math.exp(-rate * 1.0)
            fast *= float(np.exp(-rate * 1.0))
        if fast > exact:
            break
    spec = {"text": "coolant pump steady", "sector": "mem", "anchor": anchor}
    return {
        "config": {"lambda0": 0.3, "delta": exact},
        "memory": [spec, {"text": "valve seal", "sector": "mem", "anchor": 9.0}],
        "timeline": [
            {"event": "observe", "specs": [spec]},
            {"event": "tick", "n": 5},
        ],
    }


def _retrieval_edge() -> dict:
    """tau_retrieval set to a row's exact score for the goal cue where the
    store's matrix product rounds that score below it: the row is a hit
    only if retrieval re-reads it exactly."""
    dim = 8
    words = workloads._vocabulary(40)
    texts = [" ".join(words[(i * 7 + k * 3) % len(words)] for k in range(6)) for i in range(60)]
    cue = tuple(words[:5])
    cue_vec = embed_tokens(cue, dim)
    vectors = np.stack([embed_tokens(t.split(), dim) for t in texts])
    exact = [float(np.dot(cue_vec, v)) for v in vectors]
    low = [e for e, s in zip(exact, (vectors @ cue_vec).tolist()) if s < e]
    tau = low[0] if low else max(exact)
    return {
        "config": {"embed_dim": dim, "tau_retrieval": tau},
        "memory": [{"text": t, "sector": "mem"} for t in texts],
        "timeline": [
            {"event": "command", "text": "goal: " + " ".join(cue)},
            {"event": "tick", "n": 2},
        ],
    }


CASES = (
    [pytest.param(SCENARIOS / f"{name}.json", id=name) for name in SHIPPED]
    + [pytest.param((name, seed), id=f"{name}-s{seed}") for name in BENCH for seed in SEEDS]
    + [pytest.param(_decay_edge, id="decay_edge"),
       pytest.param(_retrieval_edge, id="retrieval_edge")]
)


def _swap_reference(mp: pytest.MonkeyPatch) -> None:
    """Swap the reference loops in through the names the engine calls; the
    store decays through ``simulator.nullify`` as the active state does,
    retrieved copies are lifted and assimilated through
    ``simulator.integrate_retrieved``, the
    corrective move sweeps through ``simulator.resolve_conflicts``, every
    V, cue vector and tower vector comes from the per-token loop, and every
    expect check is read one branch per check."""
    mp.setattr(simulator, "assimilate", reference.assimilate)
    mp.setattr(simulator, "resolve_conflicts", reference.resolve_conflicts)
    mp.setattr(simulator, "integrate_retrieved", reference.integrate_retrieved)
    mp.setattr(simulator, "nullify", reference.nullify)
    mp.setattr(simulator, "nullify_sector", reference.nullify_sector)
    mp.setattr(simulator, "retrieve", reference.retrieve)
    mp.setattr(simulator, "meta_assimilate", reference.meta_assimilate)
    mp.setattr(simulator, "realign", reference.realign)
    mp.setattr(geometry, "embed_state", reference.embed_state)
    mp.setattr(tower, "embed_state", reference.embed_state)
    for module in (core, memory, tower):
        mp.setattr(module, "embed_rows", reference.embed_rows)
    for module in (regulation, execution, simulator):
        mp.setattr(module, "coherence", reference.coherence)
    mp.setattr(regulation, "_most_conflicted_sector", reference.most_conflicted_sector)
    mp.setattr(regulation, "cognitive_load", reference.cognitive_load)
    mp.setattr(regulation, "_lowest_priority_sector", reference.lowest_priority_sector)
    mp.setattr(memory, "first_conflict", lambda state: reference.first_conflict(state.rows))
    mp.setattr(BeliefState, "latest", reference.latest)
    mp.setattr(BeliefState, "rows_in", reference._tagged)
    mp.setattr(BeliefState, "sectors", reference.sectors)
    mp.setattr(execution, "activation_density", reference.activation_density)
    mp.setattr(SimulationRun, "_check", reference.check)


@pytest.fixture()
def reference_engine(monkeypatch):
    return lambda: _swap_reference(monkeypatch)


def _scenario_path(case, tmp_path: Path) -> Path:
    if isinstance(case, Path):
        return case
    scenario = _bench(*case) if isinstance(case, tuple) else case()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


@pytest.mark.parametrize("case", CASES)
def test_reference_loops_give_the_same_trace_bytes(case, tmp_path, reference_engine):
    path = _scenario_path(case, tmp_path)
    fast = run_scenario(path).trace.render()
    reference_engine()
    slow = run_scenario(path).trace.render()
    assert fast == slow


# The thresholds a drawn scenario sets at, or one ulp beside, a value its
# run compares with them.
NEAR = ("delta", "tau_retrieval", "kappa_crit", "tau_theta", "tau_r", "l_max")


def _readings(scenario: dict, path: Path) -> dict[str, list[float]]:
    """Each of ``NEAR``'s fields with the values one run of ``scenario``
    compares with it: the persistences a decay leaves, the retrieval scores
    of each cue, the compass readings and the coherence and load of each
    tick's report."""
    seen: dict[str, set[float]] = {field: set() for field in NEAR}
    decayed, matching, detect_drift = (
        BeliefState.decayed, BeliefState.matching, geometry.detect_drift)

    def decay(state, *args, **kwargs):
        out = decayed(state, *args, **kwargs)
        seen["delta"].update(f.persistence for f in out.fragments)
        return out

    def match(state, cue_vec, *args, **kwargs):
        seen["tau_retrieval"].update(
            float(np.dot(cue_vec, v)) * f.persistence
            for v, f in zip(state.vectors(len(cue_vec)), state.fragments))
        return matching(state, cue_vec, *args, **kwargs)

    def drift(reading, config):
        seen["tau_theta"].add(reading.theta)
        seen["tau_r"].add(reading.residual)
        return detect_drift(reading, config)

    path.write_text(json.dumps(scenario), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BeliefState, "decayed", decay)
        mp.setattr(BeliefState, "matching", match)
        mp.setattr(geometry, "detect_drift", drift)
        events = run_scenario(path).trace.events
    for report in (e.payload["report"] for e in events if e.kind == "meta"):
        seen["kappa_crit"].update((report["kappa_global"], *report["kappa_by_sector"].values()))
        seen["l_max"].add(report["load"])
        seen["tau_theta"].update(report["theta_by_axis"].values())
    return {field: sorted(values) for field, values in seen.items()}


@st.composite
def near_threshold_scenarios(draw, path: Path) -> dict:
    """A shrunk benchmark workload at a drawn seed, with one to three of
    ``NEAR``'s thresholds moved onto, or one ulp beside, a value its run
    compares with them (kept within the field's bounds)."""
    name = draw(st.sampled_from(sorted(BENCH)))
    scenario = _bench(name, draw(st.integers(0, 999)))
    readings = _readings(scenario, path)
    for field in sorted(draw(st.sets(st.sampled_from(NEAR), min_size=1, max_size=3))):
        if readings[field]:
            value = draw(st.sampled_from(readings[field]))
            value = math.nextafter(value, draw(st.sampled_from((-math.inf, value, math.inf))))
            if field not in ("delta", "tau_retrieval") or 0.0 < value < 1.0:
                scenario["config"][field] = value
    return scenario


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_scenarios_match_the_reference_loops(data, tmp_path_factory):
    """Whole runs of drawn scenarios whose thresholds sit on values the run
    reads give the same trace bytes with the reference loops swapped in."""
    path = tmp_path_factory.mktemp("drawn") / "scenario.json"
    scenario = data.draw(near_threshold_scenarios(path))
    path.write_text(json.dumps(scenario), encoding="utf-8")
    fast = run_scenario(path).trace.render()
    with pytest.MonkeyPatch.context() as mp:
        _swap_reference(mp)
        slow = run_scenario(path).trace.render()
    assert fast == slow


@pytest.mark.parametrize(
    "case, kind",
    [(("conflict_stream", 0), "nullify_prune"),
     (("conflict_stream", 0), "regulate_action"),
     (("axis_realign", 0), "regulate_action"),
     (("store_recall", 0), "integrate")],
    ids=["conflict-prunes", "conflict-regulates", "axis-realigns", "store-recalls"],
)
def test_reference_cases_reach_their_thresholds(case, kind, tmp_path):
    events = run_scenario(_scenario_path(case, tmp_path)).trace.events
    assert any(e.kind == kind for e in events)


def test_edge_cases_sit_on_their_thresholds(tmp_path):
    events = run_scenario(_scenario_path(_decay_edge, tmp_path)).trace.events
    prunes = [(e.tick, e.payload) for e in events if e.kind == "nullify_prune"]
    assert prunes == [(3.0, {"active": [3], "store": [1]})]

    scenario = _retrieval_edge()
    tau, dim = scenario["config"]["tau_retrieval"], scenario["config"]["embed_dim"]
    cue_vec = embed_tokens(scenario["timeline"][0]["text"][len("goal: "):].split(), dim)
    at_tau = [
        i + 1 for i, spec in enumerate(scenario["memory"])
        if float(np.dot(cue_vec, embed_tokens(spec["text"].split(), dim))) == tau
    ]
    events = run_scenario(_scenario_path(_retrieval_edge, tmp_path)).trace.events
    first = next(e.payload["ids"] for e in events if e.kind == "retrieve")
    assert at_tau and set(at_tau) <= set(first)

    events = run_scenario(SCENARIOS / "coherence_recall.json").trace.events
    asked = [(e.payload["cue_kind"], e.payload["ids"]) for e in events if e.kind == "retrieve"]
    assert asked == [("goal", []), ("coherence", [1])]


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_run_matches_golden_bytes(name):
    """The scenario, run as ``scripts/regen_golden.py`` runs it, gives its
    golden byte for byte."""
    trace = run_scenario(SCENARIOS / f"{name}.json").trace.render().encode("utf-8")
    assert trace == (SCENARIOS / "golden" / f"{name}.trace.jsonl").read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_bench_run_matches_golden_bytes(name, tmp_path):
    """The workload at its default seed, run as ``perfbench/regen_golden.py``
    runs it, gives its golden byte for byte."""
    path = tmp_path / "scenario.json"
    path.write_bytes(workloads.scenario_bytes(name, workloads.DEFAULT_SEED))
    trace = SimulationRun(load_scenario(path)).run().trace.render().encode("utf-8")
    golden = REPO / "perfbench" / "golden" / f"{name}.s{workloads.DEFAULT_SEED}.trace.jsonl"
    assert trace == golden.read_bytes()


# Names an expect check may ask for; a drawn run registers all but the
# first, each at an id its state holds or one it does not.
CHECK_NAMES = ("ghost", "hum", "valve")
ACTIONS = ("engage", "halt")


@st.composite
def expect_checks(draw, run: SimulationRun) -> dict:
    """One expect check the loader accepts, its value, where it has one,
    drawn on, within or outside its tolerance of what ``run`` reads, or
    anywhere."""
    check = draw(st.sampled_from(simulator.ASSERTION_CHECKS))
    spec: dict = {"check": check}
    optional = {
        "name": st.sampled_from(CHECK_NAMES),
        "tol": st.sampled_from((0, 1, 0.0, 1e-9, 1e-6, 0.01, 0.5)),
        "sector": st.sampled_from(SECTORS),
        "action": st.sampled_from(ACTIONS),
    }
    for field in ("name", "action"):
        if field in simulator._CHECKS[check] or draw(st.booleans()):
            spec[field] = draw(optional[field])
    for field in ("tol", "sector"):
        if draw(st.booleans()):
            spec[field] = draw(optional[field])
    if check == "is_vacuum" and draw(st.booleans()):
        spec["value"] = draw(st.booleans())
    if "value" in simulator._CHECKS[check]:
        if check == "kappa":
            read = reference.coherence(run.active, spec.get("sector"))
        else:
            frag = run.active.get(run.names.get(spec["name"], 0))
            read = getattr(frag, check) if frag is not None else 1.0
        tol = spec.get("tol", 1e-9 if check == "anchor" else 1e-6)
        spec["value"] = read + draw(st.sampled_from((0.0, 0.5, -0.5, 2.0, -2.0))) * tol
        if draw(st.booleans()):  # an int prints as a float in the detail
            spec["value"] = draw(st.integers(-1, 3))
    simulator._check_assertion(spec, "drawn")
    return spec


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> SimulationRun:
    """A run of an empty timeline, whose state, names and fired actions a
    test sets."""
    path = tmp_path_factory.mktemp("checks") / "scenario.json"
    path.write_text('{"timeline": []}', encoding="utf-8")
    return SimulationRun(load_scenario(path))


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(state=states(max_frags=5, keyed=True), data=st.data())
def test_each_check_reads_as_its_reference_branch(run, state, data):
    """Every check gives the ``(ok, detail)`` of its own branch in
    ``reference.check``: drawn names registered or not, at rows present or
    absent, with or without ``tol`` and ``sector``, on values that pass and
    values that fail."""
    run.active = state
    ids = sorted(state.ids()) + [len(state.rows) + 1]  # the last one absent
    run.names = {name: data.draw(st.sampled_from(ids), label=name) for name in CHECK_NAMES[1:]}
    run.fired = data.draw(st.lists(st.sampled_from(ACTIONS), max_size=3))
    spec = data.draw(expect_checks(run))
    got, want = run._check(spec), reference.check(run, spec)
    assert (got.check, got.ok, got.detail) == (want.check, want.ok, want.detail)
