"""Whole runs, fast engine against the reference loops, trace for trace.

Every shipped scenario (``coherence_recall`` among them asks the store about
a dispute), the three benchmark workloads at a reduced size and two scenarios
built to sit on a threshold run twice: once as the engine stands, and once with the
per-fragment loops of ``reference.py`` (decay, state embedding, retrieval,
the assimilation that rebuilds every fragment, the reflection written one
breach at a time, coherence, the sector wipe's target and the coherence
cue regrouping the rows by key, and the associative cue's ``max`` walk)
swapped in through the module and class attributes the engine calls.  The
two traces must be the same bytes; ``verify_golden``'s float tolerance would
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

from beliefsim import execution, geometry, memory, regulation, simulator, tower
from beliefsim.config import default_config
from beliefsim.core import BeliefState
from beliefsim.simulator import SimulationRun, load_scenario, run_scenario

import reference
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


@pytest.fixture()
def reference_engine(monkeypatch):
    """Swap the reference loops in through the names the engine calls; the
    store decays through ``simulator.nullify`` as the active state does, and
    retrieved copies are assimilated through ``memory.assimilate``."""

    def swap() -> None:
        monkeypatch.setattr(simulator, "assimilate", reference.assimilate)
        monkeypatch.setattr(memory, "assimilate", reference.assimilate)
        monkeypatch.setattr(simulator, "nullify", reference.nullify)
        monkeypatch.setattr(simulator, "nullify_sector", reference.nullify_sector)
        monkeypatch.setattr(simulator, "retrieve", reference.retrieve)
        monkeypatch.setattr(simulator, "meta_assimilate", reference.meta_assimilate)
        monkeypatch.setattr(geometry, "embed_state", reference.embed_state)
        monkeypatch.setattr(tower, "embed_state", reference.embed_state)
        for module in (regulation, execution, simulator):
            monkeypatch.setattr(module, "coherence", reference.coherence)
        monkeypatch.setattr(regulation, "_most_conflicted_sector",
                            reference.most_conflicted_sector)
        monkeypatch.setattr(memory, "first_conflict",
                            lambda state: reference.first_conflict(state.rows))
        monkeypatch.setattr(BeliefState, "latest", reference.latest)

    return swap


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
