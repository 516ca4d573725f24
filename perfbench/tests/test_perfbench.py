"""Tests of the benchmark itself: generator, goldens, tracing, workload claims.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

They take about a minute: each workload runs once plain and once traced at
its default seed, each in a fresh interpreter as the benchmark runs it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from beliefsim.core import tokenize  # noqa: E402
from beliefsim.simulator import SimulationRun, load_scenario  # noqa: E402
from beliefsim.trace import verify_golden  # noqa: E402

WORKLOADS = sorted(workloads.GENERATORS)
SEED = workloads.DEFAULT_SEED


def _one_run(scenario: Path, trace: Path, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "one_run.py"), str(scenario), str(trace),
         "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: the scenario, and a plain and a traced run of it."""
    out = {}
    for name in WORKLOADS:
        tmp = tmp_path_factory.mktemp(name)
        scenario = tmp / "scenario.json"
        scenario.write_bytes(workloads.scenario_bytes(name, SEED))
        entry = {"scenario": scenario}
        for mode in ("run", "traced"):
            trace = tmp / f"{mode}.jsonl"
            entry[mode] = _one_run(scenario, trace, mode)
            entry[mode]["trace"] = trace
        out[name] = entry
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_in_the_seed(name):
    first = workloads.scenario_bytes(name, SEED)
    assert workloads.scenario_bytes(name, SEED) == first
    assert workloads.scenario_bytes(name, SEED + 1) != first
    # Another process with another string-hash seed makes the same bytes.
    env = dict(os.environ, PYTHONHASHSEED="12345")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), name, "--seed", str(SEED)],
        env=env, capture_output=True, check=True, timeout=60,
    )
    assert proc.stdout == first


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("mode", ["run", "traced"])
def test_every_trace_matches_its_golden(runs, name, mode):
    outcome = verify_golden(runs[name][mode]["trace"], bench.golden_path(name, SEED))
    assert outcome.matched, outcome.divergence.describe()


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_changes_nothing_the_engine_does(runs, name):
    digests = {
        hashlib.sha256(runs[name][mode]["trace"].read_bytes()).hexdigest()
        for mode in ("run", "traced")
    }
    assert len(digests) == 1


def test_every_span_has_a_self_time_metric():
    spans = {w[2] for w in layers.WRAPS} | set(layers.OWN_SPANS)
    self_metrics = {n[: -len(".self_s")] for n in layers.PER_LAYER if n.endswith(".self_s")}
    assert spans <= self_metrics


@pytest.mark.parametrize("name", WORKLOADS)
def test_self_times_add_up_to_the_traced_wall_time(runs, name):
    traced = runs[name]["traced"]
    m = traced["layers"]
    self_times = [v for n, v in m.items() if n.endswith(".self_s")]
    assert min(self_times) >= 0.0
    assert sum(self_times) == pytest.approx(traced["wall_ns"] / 1e9, rel=1e-9)


def test_conflict_stream_why(runs):
    """The active state passes 1000 fragments; coherence breaches trigger
    corrective sweeps and overload triggers accelerated nullification."""
    m = runs["conflict_stream"]["traced"]["layers"]
    assert m["regulation.actions.corrective_assimilation"] >= 1
    assert m["regulation.actions.accelerate_nullify"] >= 1
    assert m["geometry.realign.calls"] == 0
    assert m["memory.retrieve.scanned"] == 0

    run = SimulationRun(load_scenario(runs["conflict_stream"]["scenario"]))
    sizes = []
    tick = run._tick

    def counting_tick():
        tick()
        sizes.append(len(run.active.fragments))

    run._tick = counting_tick
    run.run()
    assert max(sizes) >= 1000


def test_axis_realign_why(runs):
    """Realignment runs on most ticks and the axis tower is built at set-up."""
    m = runs["axis_realign"]["traced"]["layers"]
    assert m["regulation.actions.realign"] > m["simulator.ticks"] / 2
    assert m["tower.abstract_step.calls"] >= 1


def test_store_recall_why(runs):
    """A memory cycle runs every tick over a store whose distinct token
    multisets outnumber the embedding cache's 8192 entries."""
    m = runs["store_recall"]["traced"]["layers"]
    assert m["memory.retrieve.calls"] == m["simulator.ticks"]
    assert m["memory.integrate_retrieved.calls"] == m["simulator.ticks"]
    scenario = json.loads(runs["store_recall"]["scenario"].read_text())
    multisets = {
        tuple(sorted(Counter(tokenize(spec["text"])).items()))
        for spec in scenario["memory"]
    }
    assert len(multisets) > 8192


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
