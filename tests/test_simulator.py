"""Scenario loading, the tick pipeline, effort gating, and assertions."""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from beliefsim.config import default_config
from beliefsim.core import BeliefState, Fragment, embed_rows
from beliefsim import core, dynamics, simulator
from beliefsim.dynamics import annihilate_sector, nullify
from beliefsim.regulation import EFFORT_CLASSES, EFFORT_COSTS, uniform_budget
from beliefsim.simulator import (
    SimulationRun,
    ScenarioError,
    load_scenario,
    run_scenario,
)
from beliefsim.trace import parse_trace

import reference
from conftest import KEYS, SECTORS, WORDS, states, texts

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402


def write_scenario(tmp_path, data, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def minimal(**extra):
    data = {"name": "case", "timeline": []}
    data.update(extra)
    return data


# --------------------------------------------------------------------------
# Loader validation
# --------------------------------------------------------------------------

def test_missing_file_is_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_invalid_json_is_scenario_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)


def test_non_object_root_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="root"):
        load_scenario(path)


def test_unknown_section_rejected(tmp_path):
    path = write_scenario(tmp_path, minimal(extras={"x": 1}))
    with pytest.raises(ScenarioError, match="unknown scenario sections"):
        load_scenario(path)


def test_bad_config_value_rejected(tmp_path):
    path = write_scenario(tmp_path, minimal(config={"delta": 2.0}))
    with pytest.raises(ScenarioError, match="config"):
        load_scenario(path)


def test_unknown_config_key_rejected(tmp_path):
    path = write_scenario(tmp_path, minimal(config={"detla": 0.1}))
    with pytest.raises(ScenarioError, match="detla"):
        load_scenario(path)


def test_rule_needs_trigger_and_text(tmp_path):
    path = write_scenario(tmp_path, minimal(rules=[{"trigger": "pump", "emit": {}}]))
    with pytest.raises(ScenarioError, match=r"rules\[0\]"):
        load_scenario(path)


@pytest.mark.parametrize("trigger", [["a"], "", 5, None])
def test_rule_trigger_must_be_a_non_empty_string(tmp_path, trigger):
    path = write_scenario(tmp_path, minimal(rules=[{"trigger": trigger, "emit": {"text": "a"}}]))
    with pytest.raises(ScenarioError, match=r"^rules\[0\]: needs a trigger, a non-empty string"):
        load_scenario(path)


@pytest.mark.parametrize(
    "gates, where",
    [
        (["x"], r"basins\[0\]\.gate_policy must be a list of objects"),
        ({"pattern": "x"}, r"basins\[0\]\.gate_policy must be a list of objects"),
        ([{}], r"basins\[0\]\.gate_policy\[0\]: .*missing .*argument: 'pattern'"),
        ([{"pattern": "stop"}, {"pattern": "go", "action": "veto"}],
         r"basins\[0\]\.gate_policy\[1\]: unknown gate action"),
    ],
)
def test_malformed_gates_are_refused_with_their_path(tmp_path, gates, where):
    basin = {"name": "b", "clauses": [{"kind": "token_present", "token": "go"}],
             "gate_policy": gates}
    path = write_scenario(tmp_path, minimal(basins=[basin]))
    with pytest.raises(ScenarioError, match="^" + where):
        load_scenario(path)


def test_duplicate_basin_names_rejected(tmp_path):
    basin = {
        "name": "twin",
        "clauses": [{"kind": "token_present", "token": "go"}],
        "tau": 0.3,
    }
    path = write_scenario(tmp_path, minimal(basins=[basin, dict(basin)]))
    with pytest.raises(ScenarioError, match="duplicate basin"):
        load_scenario(path)


def test_bad_clause_reported_with_location(tmp_path):
    basin = {"name": "b", "clauses": [{"kind": "warp"}], "tau": 0.3}
    path = write_scenario(tmp_path, minimal(basins=[basin]))
    with pytest.raises(ScenarioError, match=r"basins\[0\].clauses\[0\]"):
        load_scenario(path)


def test_unknown_clause_field_rejected(tmp_path):
    basin = {
        "name": "b",
        "clauses": [{"kind": "token_present", "token": "go", "volume": 11}],
        "tau": 0.3,
    }
    path = write_scenario(tmp_path, minimal(basins=[basin]))
    with pytest.raises(ScenarioError, match="volume"):
        load_scenario(path)


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"event": "dance"}, "unknown event"),
        ({"event": "observe"}, "non-empty specs"),
        ({"event": "command", "text": "   "}, "needs text"),
        ({"event": "tick", "n": 0}, "int >= 1"),
        ({"event": "tick", "n": 1.5}, "int >= 1"),
        ({"event": "set_mode", "mode": "dream"}, "mode must be"),
        ({"event": "expect", "assertions": [{"check": "vibes"}]}, "unknown check"),
        ({"event": "tick", "n": True}, "int >= 1"),
        ({"event": "command", "text": "go", "anchor": "x"}, "anchor must be"),
        ({"event": "command", "text": "go", "anchor": True}, "anchor must be"),
        ({"event": "command", "text": "go", "anchor": -1.0}, "anchor must be"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "bogus"}, "mode must be"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "abs"}, "needs a group"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "abs", "group": " ; "},
         "needs a group"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "abs", "group": 3},
         "needs a group"),
        ({"event": "observe", "specs": [{"text": "pump"}], "group": "pump"}, "only allowed"),
        ({"event": "observe", "specs": [{"text": "pump"}], "mode": "corr", "group": "pump"},
         "only allowed"),
        *(
            ({"event": "expect", "assertions": [assertion]}, message)
            for assertion, message in (
                ({"check": "persistence", "name": "p"}, "needs a value"),
                ({"check": "kappa", "value": "abc"}, "needs a value"),
                ({"check": "kappa", "value": math.nan}, "needs a value"),
                ({"check": "anchor", "name": "p", "value": True}, "needs a value"),
                ({"check": "anchor", "name": "p", "value": 10**400}, "needs a value"),
                ({"check": "fragment_present", "name": ["p"]}, "needs a name"),
                ({"check": "fragment_absent"}, "needs a name"),
                ({"check": "persistence", "value": 1.0}, "needs a name"),
                ({"check": "kappa", "value": 1.0, "sector": ["perc"]}, "sector must be"),
                ({"check": "kappa", "value": 1.0, "sector": ""}, "sector must be"),
                ({"check": "kappa", "value": 1.0, "tol": -0.1}, "tol must be"),
                ({"check": "kappa", "value": 1.0, "tol": "x"}, "tol must be"),
                ({"check": "anchor", "name": "p", "value": 1, "tol": math.inf}, "tol must be"),
                ({"check": "is_vacuum", "value": 1}, "true or false"),
                ({"check": "action_fired"}, "needs an action"),
                ({"check": "action_not_fired", "action": 3}, "needs an action"),
            )
        ),
        ({"event": "observe", "specs": [{"text": "pump"}], "group": None}, "only allowed"),
        ({"event": "command", "text": "go", "anchor": None}, "anchor must be"),
        ({"event": ["tick"]}, "unknown event"),
        ({"event": "expect", "assertions": [{"check": ["kappa"]}]}, "unknown check"),
        ({"event": "command", "text": None}, "needs text"),
        ({"event": "command", "text": 7}, "needs text"),
        ({"event": "command", "text": ["go"]}, "needs text"),
        ({"event": "command", "text": "go", "name": 7}, "command name must be a string or null"),
        ({"event": "command", "text": "go", "name": ["c"]},
         "command name must be a string or null"),
    ],
)
def test_timeline_validation(tmp_path, entry, message):
    path = write_scenario(tmp_path, minimal(timeline=[entry]))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize("text", [None, 7, ["pump"]])
@pytest.mark.parametrize(
    "section, where",
    [
        (lambda spec: {"memory": [spec]}, r"memory\[0\]"),
        (lambda spec: {"states": {"probe": [spec]}}, r"states\.probe\[0\]"),
        (lambda spec: {"axes": [{"label": "focus", "seed": [spec]}]}, r"axes\[0\]\.seed\[0\]"),
        (lambda spec: {"rules": [{"trigger": "pump", "emit": spec}]}, r"rules\[0\]"),
    ],
    ids=["memory", "states", "axis-seed", "rule-emit"],
)
def test_a_spec_text_that_is_not_a_string_is_refused_at_load(tmp_path, section, where, text):
    path = write_scenario(tmp_path, minimal(**section({"text": text})))
    with pytest.raises(ScenarioError, match=where + ": spec text must be a string"):
        load_scenario(path)


@pytest.mark.parametrize("anchor", [math.nan, math.inf])
@pytest.mark.parametrize(
    "section, where",
    [
        (lambda spec: {"memory": [{"text": "stored"}, spec]}, r"memory\[1\]"),
        (lambda spec: {"states": {"probe": [spec]}}, r"states\.probe\[0\]"),
        (lambda spec: {"axes": [{"label": "focus", "seed": [spec]}]}, r"axes\[0\]\.seed\[0\]"),
    ],
    ids=["memory", "states", "axis-seed"],
)
def test_non_finite_anchor_rejected_at_construction(tmp_path, section, where, anchor):
    # The store, the states and an axis seed all fail at load.
    path = write_scenario(tmp_path, minimal(**section({"text": "pump", "anchor": anchor})))
    with pytest.raises(ScenarioError, match=where + ": fragment .*anchor must be a finite"):
        SimulationRun(load_scenario(path))


def test_run_returns_the_run_and_counts_its_warnings_from_its_trace():
    scenario = REPO / "scenarios" / "realign_sweep.json"
    run = SimulationRun(load_scenario(scenario))
    assert run.run() is run
    _, golden = parse_trace(REPO / "scenarios" / "golden" / "realign_sweep.trace.jsonl")
    assert run.warnings == sum(e.kind == "warning" for e in golden) == 5


def test_loader_accepts_full_shape(tmp_path):
    data = {
        "name": "full",
        "config": {"seed": 4},
        "memory": [{"text": "stored fact", "name": "fact"}],
        "rules": [{"trigger": "pump", "emit": {"text": "check panel", "name": "panel"}}],
        "lexicon": ["rain"],
        "axes": [{"label": "focus", "seed": [{"text": "survey the map"},
                                             {"text": "mark the map"}]}],
        "basins": [
            {
                "name": "act",
                "clauses": [{"kind": "token_present", "token": "go"}],
                "tau": 0.3,
            }
        ],
        "timeline": [{"event": "tick", "n": 1}],
        "states": {"probe": [{"text": "pump"}]},
    }
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert scenario.name == "full"
    assert scenario.config.seed == 4
    assert scenario.rules[0].name == "panel"
    assert scenario.rules[0].emit.text == "check panel"
    assert scenario.names == {"fact": 1}
    assert len(scenario.basins) == 1
    assert list(scenario.states) == ["probe"]


@pytest.mark.parametrize("word", ["", "!!", 5, ["a"], None])
def test_lexicon_entries_are_strings_with_a_token(tmp_path, word):
    path = write_scenario(tmp_path, minimal(lexicon=["rain", word]))
    with pytest.raises(ScenarioError, match=r"lexicon\[1\]: must be a string with a token"):
        load_scenario(path)


def _count_reads_and_builds(monkeypatch) -> tuple[list, list]:
    """Record the text of each spec ``_build`` reads, and (text, origin) of
    each ``Fragment`` made: constructed, or filled at a row's first read
    (both through ``core._fill``)."""
    read, built = [], []
    values, fill = simulator._spec_values, core._fill
    monkeypatch.setattr(simulator, "_spec_values",
                        lambda spec: read.append(spec["text"]) or values(spec))

    def counted(row, *args):
        fill(row, *args)
        built.append((row.text, row.origin))
        return row

    monkeypatch.setattr(core, "_fill", counted)
    return read, built


def test_each_static_spec_is_read_once_at_load_and_built_when_read(tmp_path, monkeypatch):
    read, built = _count_reads_and_builds(monkeypatch)
    data = minimal(
        memory=[{"text": "stored fact"}, {"text": "old chart", "name": "chart"}],
        states={"a": [{"text": "pump"}], "b": [{"text": "valve"}]},
        rules=[{"trigger": "pump", "emit": {"text": "check panel", "name": "panel"}}],
        axes=[{"label": "focus", "seed": [{"text": "survey the map"},
                                          {"text": "mark the map"}]}],
        timeline=[{"event": "observe", "specs": [{"text": "pump hums"}]},
                  {"event": "observe", "specs": [{"text": "pump rattles"}]}],
    )
    scenario = load_scenario(write_scenario(tmp_path, data))
    assert read == ["check panel", "stored fact", "old chart",
                    "survey the map", "mark the map", "pump", "valve"]
    # Only the rows load reads are built: the rule's emit and the axis seed
    # the tower abstracts, not the store's nor the states'.
    observed = [text for text, origin in built if origin == "observed"]
    assert observed == ["check panel", "survey the map", "mark the map"]
    read.clear()
    built.clear()
    run = SimulationRun(scenario)
    assert read == built == []  # each axis is derived from the tower kept since load
    result = run.run()
    assert read == ["pump hums", "pump rattles"]  # a fired emit is never rebuilt
    # Each observed row is built once, when assimilation reads it; no row of
    # the store or of a state is ever built.
    assert [text for text, origin in built if origin == "observed"] == read
    built.clear()
    rows = scenario.store.rows, scenario.states["a"].rows
    assert [f.text for f in rows[0]] == ["stored fact", "old chart"]
    assert built == [("stored fact", "observed"), ("old chart", "observed"), ("pump", "observed")]
    built.clear()
    assert scenario.store.fragment(1) is rows[0][1] and scenario.store.rows is rows[0]
    assert built == []  # a row read again is the row kept at its first read
    # The run's ids follow the store's 1..2; the emit draws 4, its refire 6.
    assert [e.payload["report"]["elaborated"] for e in result.trace.events
            if e.kind == "assimilate"] == [[4], []]
    assert run.names == {"chart": 2, "panel": 4}


def test_column_pass_admits_each_observe_spec_once(tmp_path, monkeypatch):
    """Seed-0 ``conflict_stream``: over the run, ``core.admit`` is called once
    per observe spec, by the column pass; the row built from the spec when
    assimilation reads it is filled from the tokens and kept sector set that
    call gave, and is not admitted again."""
    path = write_scenario(tmp_path, workloads.generate("conflict_stream", 0))
    scenario = load_scenario(path)
    passed: Counter = Counter()
    constructed: Counter = Counter()
    admit = core.admit
    monkeypatch.setattr(simulator, "admit", lambda *f: passed.update([f]) or admit(*f))
    monkeypatch.setattr(core, "admit", lambda *f: constructed.update([f]) or admit(*f))
    result = SimulationRun(scenario).run()
    specs = [s for e in scenario.timeline if e["event"] == "observe" for s in e["specs"]]
    ingested = [i for e in result.trace.events if e.kind == "ingest" for i in e.payload["ids"]]
    assert len(specs) == len(ingested) == 1648
    assert sorted(f[0] for f in passed.elements()) == sorted(ingested)
    assert all(n == 1 for n in passed.values())
    assert not passed.keys() & constructed.keys()


def test_store_recall_builds_no_store_row_at_load(tmp_path, monkeypatch):
    """Seed-0 ``store_recall``: load reads the 10k store specs into columns
    and builds none of their rows, the whole run makes no more ``Fragment``
    constructions than the 207 it made when every store row was built at
    load, and ``matching`` makes each hit by one construction."""
    path = write_scenario(tmp_path, workloads.generate("store_recall", 0))
    _, built = _count_reads_and_builds(monkeypatch)
    scenario = load_scenario(path)
    assert scenario.store.size == 10_000
    assert built == []
    in_matching = []
    matching = BeliefState.matching

    def counted(state, *args, **kwargs):
        before = len(built)
        hits = matching(state, *args, **kwargs)
        in_matching.append((len(built) - before, len(hits)))
        return hits

    monkeypatch.setattr(BeliefState, "matching", counted)
    SimulationRun(scenario).run()
    assert len(built) <= 207
    assert all(made == hits for made, hits in in_matching)
    assert sum(hits for _, hits in in_matching) > 0


# A valid value of each optional spec field, and the bad values the column
# pass must refuse at load as the eager build refuses them: numbers that do
# not convert, non-finite ones, numbers out of range, a key without a
# polarity, a polarity that is neither sign, and a text with no token.
VALID_SPEC_FIELDS = {
    "level": st.one_of(st.integers(0, 3), st.sampled_from(("2", 1.5, True))),
    "anchor": st.one_of(st.floats(0.0, 20.0), st.sampled_from(("2.5", 0, 1e100))),
    "persistence": st.one_of(st.floats(0.0, 1.0), st.sampled_from(("0.5", 1))),
    "sector": st.sampled_from(SECTORS),
    "sectors": st.lists(st.sampled_from(SECTORS), min_size=1, max_size=3),
}
BAD_SPEC_FIELDS = {
    "level": st.sampled_from(("x", -1, "-2", None, "1.5", math.inf)),
    "anchor": st.sampled_from(("x", math.nan, math.inf, -math.inf, "NaN", "Infinity",
                               -1.0, 1.1e100, None)),
    "persistence": st.sampled_from(("x", math.nan, "-Infinity", -0.5, 1.5, None)),
    "key": st.sampled_from(KEYS),
    "polarity": st.sampled_from(("?", "plus", 1)),
    "text": st.sampled_from(("", "!!", " -- ")),
}


@st.composite
def spec_lists(draw) -> list:
    """A spec list that passes ``_check_specs``: valid specs, keyed or not,
    named or not, and now and then one spec with one bad field."""
    specs = []
    for j in range(draw(st.integers(0, 8))):
        spec = {"text": draw(st.one_of(texts(), st.sampled_from(("Pump, STEADY!", "K\u212a"))))}
        spec.update(draw(st.fixed_dictionaries({}, optional={
            name: values for name, values in VALID_SPEC_FIELDS.items() if name != "sectors"})))
        if "sector" not in spec and draw(st.booleans()):
            spec["sectors"] = draw(VALID_SPEC_FIELDS["sectors"])
        if draw(st.booleans()):
            spec["key"], spec["polarity"] = draw(st.sampled_from(KEYS)), draw(st.sampled_from("+-"))
        if draw(st.booleans()):
            spec["name"] = f"n{j}"
        specs.append(spec)
    if specs and draw(st.integers(0, 2)) == 0:
        spec = specs[draw(st.integers(0, len(specs) - 1))]
        field = draw(st.sampled_from(sorted(BAD_SPEC_FIELDS)))
        spec[field] = draw(BAD_SPEC_FIELDS[field])
        if field == "key":
            spec.pop("polarity", None)
        elif field == "polarity":
            spec.setdefault("key", "p")
    return specs


@st.composite
def store_chains(draw) -> list:
    """Steps to take on a store, each read both ways: a retrieval,
    a decay of every row or of a sector's, and a lift of some ids."""
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("matching", "decayed", "reanchor")))
        if kind == "matching":
            args = (draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)),
                    draw(st.sampled_from((0.0, 0.3, 0.5, 0.9))))
        elif kind == "decayed":
            args = (draw(st.sampled_from((0.0, 1.0, 2.5))),
                    draw(st.sampled_from((None,) + SECTORS[:3])),
                    draw(st.sampled_from((0.05, 0.5, 0.9))))
        else:
            args = (draw(st.lists(st.integers(1, 10), max_size=4)),
                    draw(st.sampled_from((0.5, 2.0, 9.0))))
        steps.append((kind, args))
    return steps


def _loaded(path: Path):
    try:
        return load_scenario(path)
    except ScenarioError as exc:
        return str(exc)


def _readings(state: BeliefState, dim: int) -> tuple:
    return (repr(state.fragments), state.ids(), state.clock, state.vectors(dim).tobytes())


def _chained(store: BeliefState, chain: list, config) -> tuple[list, list]:
    """The states a chain derives from ``store`` and the hits of each of its
    retrievals; no row is read but those ``matching`` makes."""
    states, hits = [store], []
    for kind, args in chain:
        state = states[-1]
        if kind == "matching":
            cue = embed_rows([tuple(args[0])], config.embed_dim).dense()[0]
            hits.append(state.matching(cue, args[1], origin="retrieved", members=None))
        elif kind == "decayed":
            dt, sector, delta = args
            states.append(state.decayed(dt, config.replace(delta=delta), state.clock + dt, sector))
        else:
            states.append(state.reanchor(*args))
    return states, hits


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=spec_lists(), chain=store_chains(), read_first=st.booleans())
@example(specs=[{"text": "pump"}, {"text": "!!", "name": "n1"}], chain=[], read_first=False)
@example(specs=[{"text": "pump", "persistence": 1.5}], chain=[], read_first=False)
@example(specs=[{"text": "pump valve", "anchor": "NaN"}], chain=[], read_first=False)
@example(specs=[{"text": "pump valve", "sector": "mem"}, {"text": "pump seal", "anchor": 3.0}],
         chain=[("matching", (["pump", "valve"], 0.5)), ("decayed", (1.0, None, 0.5)),
                ("matching", (["pump"], 0.3))], read_first=False)
def test_column_pass_matches_the_eager_build(tmp_path_factory, specs, chain, read_first):
    """A drawn spec list loaded as a store gives, read into columns with rows
    built when read, what building every fragment at once
    (``reference.build``) gives: the same fragments, ids, names and vectors,
    and the same results of a chain of retrievals, decays and lifts, whether
    its rows were read before or not; or the same ``ScenarioError`` text,
    naming the spec."""
    path = write_scenario(tmp_path_factory.mktemp("specs"), minimal(memory=specs))
    got = _loaded(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_build", reference.build)
        want = _loaded(path)
    if isinstance(want, str):
        assert got == want
        assert re.match(r"memory\[\d+\]: ", want)
        return
    assert not isinstance(got, str), got
    assert got.names == want.names
    if read_first:  # build every store row before the chain reads any
        got.store.rows
    config = default_config()
    (states, hits), (ref_states, ref_hits) = (
        _chained(scenario.store, chain, config) for scenario in (got, want))
    assert repr(hits) == repr(ref_hits)
    for state, ref in zip(states, ref_states):
        assert _readings(state, config.embed_dim) == _readings(ref, config.embed_dim)
    for row, ref in zip(got.store.rows, want.store.rows):
        assert row.sectors is ref.sectors  # the one kept equal set
        assert list(row.sectors) == list(ref.sectors)


def test_a_rule_emit_is_copied_only_when_it_enters(monkeypatch):
    copies = []
    real = Fragment.replace
    monkeypatch.setattr(Fragment, "replace", lambda f, **kw: (
        copies.append(kw["id"]) if kw.get("origin") == "elaborated" else None) or real(f, **kw))
    result = run_scenario(Path(__file__).parent.parent / "scenarios" / "elaboration_rules.json")
    entered = [i for e in result.trace.events if e.kind in ("assimilate", "integrate")
               for i in e.payload["report"]["elaborated"]]
    # A refire still draws its id (3, 6, 7, 8, 10 and 11 go unused), but is not copied.
    assert copies == entered == [5, 12]


def test_a_rule_trigger_is_tokenized_only_at_load(monkeypatch):
    run = SimulationRun(load_scenario(
        Path(__file__).parent.parent / "scenarios" / "elaboration_rules.json"))
    calls = []
    real = dynamics.tokenize
    monkeypatch.setattr(dynamics, "tokenize", lambda text: calls.append(text) or real(text))
    run.run()
    assert calls == []  # each rule keeps its trigger's tokens from construction


def test_scenario_name_defaults_to_file_stem(tmp_path):
    path = write_scenario(tmp_path, {"timeline": []}, name="stem_demo.json")
    assert load_scenario(path).name == "stem_demo"


# --------------------------------------------------------------------------
# Axes and standalone states
# --------------------------------------------------------------------------

def test_build_states_allocates_each_state_from_one(tmp_path):
    data = minimal(states={"a": [{"text": "pump"}, {"text": "valve"}], "b": [{"text": "hum"}]})
    states = load_scenario(write_scenario(tmp_path, data)).states
    assert sorted(states["a"].ids()) == [1, 2]
    assert sorted(states["b"].ids()) == [1]
    assert states["a"].clock == 0.0


def test_axis_duplicate_label_rejected_at_load(tmp_path):
    spec = {"label": "focus", "seed": [{"text": "survey the map"},
                                       {"text": "mark the map"}]}
    path = write_scenario(tmp_path, minimal(axes=[spec, dict(spec)]))
    with pytest.raises(ScenarioError, match="duplicate axis label 'focus'"):
        load_scenario(path)


@pytest.mark.parametrize(
    "axis, message",
    [
        ({"seed": [{"text": "survey the map"}]}, r"axes\[0\]: needs a label"),
        ({"label": "", "seed": [{"text": "survey the map"}]}, r"axes\[0\]: needs a label"),
        ({"label": 5, "seed": [{"text": "survey the map"}]}, r"axes\[0\]: needs a label"),
        ({"label": "focus"}, r"axes\[0\]: needs seed fragments"),
        ({"label": "focus", "seed": []}, r"axes\[0\]: needs seed fragments"),
    ],
    ids=["no-label", "empty-label", "int-label", "no-seed", "empty-seed"],
)
def test_axis_requires_label_and_seed_at_load(tmp_path, axis, message):
    path = write_scenario(tmp_path, minimal(axes=[axis]))
    with pytest.raises(ScenarioError, match=message):
        load_scenario(path)


@pytest.mark.parametrize(
    "axis, message",
    [
        # A singleton, non-null seed converges onto itself: zero direction.
        ({"label": "flat", "seed": [{"text": "pump hums"}]}, "degenerate"),
        ({"label": "flat", "max_k": 1,
          "seed": [{"text": f"reading {i} of the coolant line"} for i in range(8)]},
         "requires a converged tower"),
    ],
    ids=["degenerate", "not-converged"],
)
def test_run_refuses_an_axis_its_tower_cannot_orient(tmp_path, axis, message):
    # The tower loads, so `beliefsim tower` can show it; a run refuses it.
    focus = {"label": "focus", "seed": [{"text": "survey the map"}, {"text": "mark the map"}]}
    scenario = load_scenario(write_scenario(tmp_path, minimal(axes=[focus, axis])))
    assert list(scenario.towers) == ["focus", "flat"]
    with pytest.raises(ScenarioError, match=r"axes\[1\] \('flat'\): .*" + message):
        SimulationRun(scenario)


def test_axis_tower_is_built_at_load_in_its_own_id_space(tmp_path):
    seed = [{"text": "survey the map"}, {"text": "mark the map"}]
    data = minimal(axes=[{"label": "a", "seed": seed}, {"label": "b", "seed": seed}],
                   memory=[{"text": "stored fact"}])
    towers = load_scenario(write_scenario(tmp_path, data)).towers
    for tower, null_seed in towers.values():
        assert not null_seed and tower.converged
        assert sorted(tower.levels[0].ids()) == [1, 2]
        assert min(tower.levels[1].ids()) == 3  # the tower draws ids above the seed's


# --------------------------------------------------------------------------
# Running timelines
# --------------------------------------------------------------------------

def test_observe_registers_names_and_checks_pass(tmp_path):
    data = minimal(
        timeline=[
            {"event": "observe", "specs": [{"text": "pump hums", "name": "hum"}]},
            {
                "event": "expect",
                "assertions": [
                    {"check": "fragment_present", "name": "hum"},
                    {"check": "is_vacuum", "value": False},
                ],
            },
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    assert len(result.assertions) == 2


def test_observe_enters_at_full_persistence_whatever_its_spec_says(tmp_path):
    data = minimal(
        timeline=[
            {"event": "tick", "n": 2},
            {"event": "observe", "specs": [{"text": "pump", "persistence": 0.2}]},
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    (pump,) = result.active.fragments
    assert (pump.persistence, pump.created_at) == (1.0, 2.0)


@pytest.mark.parametrize("section", ["memory", "observe", "state", "rule-emit", "axis-seed"])
def test_a_spec_giving_both_sector_and_sectors_is_refused_at_load(tmp_path, section):
    both = {"text": "pump hums", "sector": "task", "sectors": ["perc"]}
    data, where = {
        "memory": (minimal(memory=[{"text": "valve"}, both]), "memory[1]"),
        "observe": (minimal(timeline=[{"event": "tick"}, {"event": "observe", "specs": [both]}]),
                    "timeline[1].specs[0]"),
        "state": (minimal(states={"a": [both]}), "states.a[0]"),
        "rule-emit": (minimal(rules=[{"trigger": "pump", "emit": both}]), "rules[0]"),
        "axis-seed": (minimal(axes=[{"label": "focus", "seed": [both]}]), "axes[0].seed[0]"),
    }[section]
    with pytest.raises(ScenarioError, match=re.escape(f"{where}: give sector or sectors, not")):
        load_scenario(write_scenario(tmp_path, data))


def test_a_clause_field_its_kind_does_not_read_is_refused_at_load(tmp_path):
    clause = {"kind": "sector_density", "sector": "perc", "minimum": 0.5, "level": 2}
    path = write_scenario(tmp_path, minimal(basins=[{"name": "b", "clauses": [clause]}]))
    with pytest.raises(ScenarioError, match=r"^basins\[0\]\.clauses\[0\]: "
                                             r"sector_density clause does not read level$"):
        load_scenario(path)


def test_bad_observe_spec_names_its_timeline_path(tmp_path):
    """A text with no token is refused when its observe runs, a text of
    another type at load; each names the spec's path."""
    def scenario(bad):
        data = minimal(
            timeline=[
                {"event": "tick"},
                {"event": "observe", "specs": [{"text": "fine"}, {"text": bad}]},
            ]
        )
        return write_scenario(tmp_path, data)

    run = SimulationRun(load_scenario(scenario("  ")))
    with pytest.raises(ScenarioError, match=r"^timeline\[1\]\.specs\[1\]: .*no tokens"):
        run.run()
    with pytest.raises(ScenarioError,
                       match=r"^timeline\[1\]\.specs\[1\]: spec text must be a string"):
        load_scenario(scenario(None))


def test_command_defaults(tmp_path):
    data = minimal(
        timeline=[{"event": "command", "text": "hold position", "name": "order"}]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    order = next(f for f in result.active.fragments if f.text == "hold position")
    assert order.sectors == frozenset({"task"})
    assert order.anchor == 5.0
    assert order.origin == "observed"


def test_ticks_advance_the_clock(tmp_path):
    data = minimal(timeline=[{"event": "tick", "n": 3}])
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.active.clock == 3.0


def test_elab_observation_conflict_is_refused_with_a_warning(tmp_path):
    data = minimal(
        timeline=[
            {
                "event": "observe",
                "specs": [{"text": "valve open", "key": "valve", "polarity": "+"}],
            },
            {
                "event": "observe",
                "mode": "elab",
                "specs": [{"text": "valve shut", "key": "valve", "polarity": "-", "name": "shut"},
                          {"text": "pump hums"}],
            },
            {"event": "tick"},
            {"event": "expect", "assertions": [{"check": "fragment_absent", "name": "shut"}]},
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok and result.warnings == 1
    # The whole input is refused: the state keeps only the first observation.
    assert [f.text for f in result.active.fragments] == ["valve open"]
    (warning,) = [e for e in result.trace.events if e.kind == "warning"]
    assert warning.payload == {
        "op": "assimilate",
        "message": "1 conflict(s) on key(s) ['valve']; "
                   "elaborative mode cannot revise — use corrective mode",
    }
    assert [e.kind for e in result.trace.events].count("assimilate") == 1


def test_run_mode_validated(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, minimal()))
    with pytest.raises(ScenarioError, match="mode"):
        SimulationRun(scenario, mode="dry")


def test_traces_are_deterministic(tmp_path):
    data = minimal(
        config={"seed": 9},
        lexicon=["rain", "wind", "hum"],
        timeline=[
            {"event": "observe", "specs": [{"text": "pump hums"}]},
            {"event": "tick", "n": 4},
        ],
    )
    path = write_scenario(tmp_path, data)
    first = run_scenario(path).trace.render()
    second = run_scenario(path).trace.render()
    assert first == second


def test_seed_override_lands_in_header_and_drift(tmp_path):
    data = minimal(
        config={"seed": 0},
        lexicon=["rain", "wind", "hum", "static", "flicker"],
        timeline=[{"event": "tick", "n": 5}],
    )
    path = write_scenario(tmp_path, data)
    with_default = run_scenario(path)
    with_seven = run_scenario(path, seed=7)
    assert with_default.seed == 0
    assert with_seven.seed == 7
    headers = [json.loads(r.trace.render().splitlines()[0]) for r in (with_default, with_seven)]
    assert headers[0]["header"]["seed"] == 0
    assert headers[1]["header"]["seed"] == 7


def test_drift_fills_the_vacuum(tmp_path):
    data = minimal(
        lexicon=["rain", "wind"],
        timeline=[
            {"event": "tick"},
            {"event": "expect", "assertions": [{"check": "is_vacuum", "value": False}]},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    kinds = [e.kind for e in result.trace.events]
    assert "drift" in kinds


def test_no_drift_without_lexicon(tmp_path):
    data = minimal(timeline=[{"event": "tick", "n": 2}])
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.active.is_vacuum
    assert all(e.kind != "drift" for e in result.trace.events)


def test_rule_fires_and_registers_name(tmp_path):
    data = minimal(
        rules=[
            {
                "trigger": "pump",
                "emit": {"text": "check the panel", "sector": "plan", "name": "followup"},
            }
        ],
        timeline=[
            {"event": "command", "text": "inspect the pump"},
            {
                "event": "expect",
                "assertions": [{"check": "fragment_present", "name": "followup"}],
            },
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    emitted = next(f for f in result.active.fragments if f.text == "check the panel")
    assert emitted.origin == "elaborated"
    assert emitted.sectors == frozenset({"plan"})


def test_each_rule_name_is_registered_on_its_own_emit(tmp_path):
    """Two rules with one trigger and one emit text, in different sectors,
    emit two fragments; each name is the fragment its own rule emitted."""
    data = minimal(
        rules=[{"trigger": "pump",
                "emit": {"text": "check the valve", "sector": sector, "name": name}}
               for name, sector in (("a", "plan"), ("b", "task"))],
        timeline=[{"event": "observe", "specs": [{"text": "pump"}]}],
    )
    run = SimulationRun(load_scenario(write_scenario(tmp_path, data)))
    result = run.run()
    assert {name: result.active.get(run.names[name]).sectors for name in "ab"} == {
        "a": frozenset({"plan"}), "b": frozenset({"task"})}


# --------------------------------------------------------------------------
# Effort gating in the tick
# --------------------------------------------------------------------------

@pytest.mark.parametrize("op", sorted(EFFORT_COSTS))
def test_afford_charges_the_cost_or_logs_a_skip_and_charges_nothing(tmp_path, op):
    # The second allocation is not whole (the uniform share of an
    # effort_total of 4.5): the units left are the allocation minus the
    # cost, to the bit.
    cls, units = EFFORT_COSTS[op]
    for allocation in (units + 0.5, units + 4.5 / len(EFFORT_CLASSES)):
        run = SimulationRun(load_scenario(write_scenario(tmp_path, minimal())))
        run.budget[cls] = allocation
        assert run._afford(op)
        assert run.budget[cls] == allocation - units and not run.trace.events
        assert not run._afford(op)
        assert run.budget[cls] == allocation - units
        [skip] = run.trace.events
        assert (skip.kind, skip.payload) == (
            "effort_skip",
            {"op": op, "class": cls, "needed": units, "available": allocation - units})


def test_afford_pays_when_short_by_float_dust_only(tmp_path):
    # 0.7 + 0.2 + 0.1 is 0.9999999999999999: a class short of its one-unit
    # cost by that float dust, or by 1e-13, still pays the whole cost; short
    # by 1e-11, it pays nothing.
    cls, units = EFFORT_COSTS["meta"]
    assert units == 1.0 and 0.7 + 0.2 + 0.1 < units
    run = SimulationRun(load_scenario(write_scenario(tmp_path, minimal())))
    for left, pays in ((0.7 + 0.2 + 0.1, True), (1 - 1e-13, True), (1 - 1e-11, False)):
        run.budget[cls] = left
        assert run._afford("meta") is pays
        assert run.budget[cls] == (left - units if pays else left)
    assert [e.kind for e in run.trace.events] == ["effort_skip"]


def test_the_first_tick_spends_from_the_uniform_split(tmp_path):
    """Steps 2 and 3 of tick 1 pay from the uniform split, which an
    effort_total of 5 leaves short of one unit; tick 2 pays from tick 1's
    fresh split."""
    data = minimal(
        config={"effort_total": 5},
        timeline=[
            {"event": "observe", "mode": "conf", "specs": [
                {"text": "valve open", "key": "valve", "polarity": "+"},
                {"text": "valve shut", "key": "valve", "polarity": "-"},
            ]},
            {"event": "tick", "n": 2},
        ],
    )
    run = SimulationRun(load_scenario(write_scenario(tmp_path, data)))
    share = uniform_budget(run.config)["monitors"]
    assert run.budget == uniform_budget(run.config) and share == 5 / 7
    events = run.run().trace.events
    first_meta = next(i for i, e in enumerate(events) if e.kind == "meta")
    assert [(e.payload["op"], e.payload["available"]) for e in events[:first_meta]
            if e.kind == "effort_skip"] == [("meta", share), ("corrective_assimilation", share)]
    assert [e.kind for e in events[first_meta:]].count("correction") == 1


def test_every_golden_effort_skip_is_a_cost_of_the_table():
    """Each skip in the shipped and benchmark goldens names a step of
    ``EFFORT_COSTS``, with the class and units the table gives it."""
    shipped = sorted((REPO / "scenarios").glob("*.json"))
    goldens = [REPO / "scenarios" / "golden" / f"{p.stem}.trace.jsonl" for p in shipped]
    goldens += sorted((REPO / "perfbench" / "golden").glob("*.trace.jsonl"))
    assert len(goldens) == len(shipped) + 3
    skips = [e.payload for path in goldens for e in parse_trace(path)[1]
             if e.kind == "effort_skip"]
    assert {s["op"] for s in skips} >= {"memory_cycle", "accelerate_nullify"}
    for skip in skips:
        assert (skip["class"], skip["needed"]) == EFFORT_COSTS[skip["op"]]


def test_a_memory_cycle_pays_its_whole_cost_before_it_asks(tmp_path):
    # The store is empty, so the cue finds nothing; the cycle paid its
    # three units once, before the query, all the same.
    data = minimal(timeline=[{"event": "command", "text": "goal: chart the ridge"},
                             {"event": "tick"}])
    run = SimulationRun(load_scenario(write_scenario(tmp_path, data)))
    events = run.run().trace.events
    kinds = [e.kind for e in events]
    assert "retrieve" in kinds and "integrate" not in kinds
    # The meta event logs the tick's fresh split, not what is left after.
    [meta] = [e for e in events if e.kind == "meta"]
    fresh = dict.fromkeys(EFFORT_CLASSES, 0.0) | {"planning": 5.0, "memory": 3.0, "monitors": 2.0}
    assert meta.payload["allocations"] == fresh
    assert run.budget == fresh | {"memory": 0.0}
    assert EFFORT_COSTS["memory_cycle"][1] == 3.0


def test_memory_cycle_starved_under_uniform_allocation(tmp_path):
    # A quiet tick allocates 10/7 per class; the three-step memory cycle
    # needs 3 up front, so the associative cue is skipped, tick after tick.
    data = minimal(
        memory=[{"text": "pump hums loudly"}],
        timeline=[
            {"event": "observe", "specs": [{"text": "pump hums"}]},
            {"event": "tick", "n": 2},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    skips = [e for e in result.trace.events if e.kind == "effort_skip"]
    memory_skips = [e for e in skips if e.payload["class"] == "memory"]
    assert len(memory_skips) == 2  # unfunded retries are not deduplicated
    assert all(e.payload["op"] == "memory_cycle" for e in memory_skips)
    assert all(e.kind != "query" for e in result.trace.events)


def test_a_rule_that_fires_on_integration_registers_its_name(tmp_path):
    """A named rule's emit that enters with retrieved memories is registered,
    as one that enters with an observation is."""
    data = minimal(
        config={"effort_total": 25},
        memory=[{"text": "pump alarm sounded", "sector": "mem"}],
        rules=[{"trigger": "alarm", "emit": {"text": "check the alarm panel", "name": "panel"}}],
        timeline=[
            {"event": "observe", "mode": "conf", "specs": [{"text": "pump alarm"}]},
            {"event": "tick", "n": 2},
            {"event": "expect", "assertions": [{"check": "fragment_present", "name": "panel"}]},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    [assimilate] = [e for e in result.trace.events if e.kind == "assimilate"]
    assert assimilate.payload["report"]["elaborated"] == []
    [integrate] = [e for e in result.trace.events if e.kind == "integrate"]
    assert integrate.payload["report"]["elaborated"] == [3]
    assert result.ok, [a.detail for a in result.failures]


def test_goal_funds_the_full_memory_cycle(tmp_path):
    data = minimal(
        memory=[{"text": "fix the pump manual", "name": "manual"}],
        timeline=[
            {"event": "command", "text": "goal: fix the pump"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    kinds = [e.kind for e in result.trace.events]
    assert "query" in kinds
    assert "retrieve" in kinds
    assert "integrate" in kinds
    assert kinds.index("query") < kinds.index("retrieve") < kinds.index("integrate")
    # The retrieved copy landed in the active state.
    assert any(f.text == "fix the pump manual" for f in result.active.fragments)


def test_issued_cue_is_not_repeated(tmp_path):
    data = minimal(
        memory=[{"text": "fix the pump manual"}],
        timeline=[
            {"event": "command", "text": "goal: fix the pump"},
            {"event": "tick", "n": 3},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    goal_queries = [
        e for e in result.trace.events
        if e.kind == "query" and e.payload["cue"]["kind"] == "goal"
    ]
    assert len(goal_queries) == 1


def test_abs_observe_folds_its_group_into_a_summary(tmp_path):
    data = minimal(
        timeline=[
            {"event": "observe", "specs": [
                {"text": "coolant flow steady", "name": "steady"},
                {"text": "terrain grid", "name": "grid"},
            ]},
            {"event": "observe", "mode": "abs", "group": "coolant flow", "specs": [
                {"text": "coolant flow noisy", "name": "noisy"},
            ]},
        ],
    )
    run = SimulationRun(load_scenario(write_scenario(tmp_path, data)))
    result = run.run()
    report = [e for e in result.trace.events if e.kind == "assimilate"][-1].payload["report"]
    assert report["mode"] == "abs"
    (summary_id,) = report["abstracted"]
    summary = result.active.get(summary_id)
    assert summary.origin == "abstracted"
    assert summary.members == (run.names["steady"], run.names["noisy"])
    assert result.active.ids() == {summary_id, run.names["grid"]}


def test_vacuum_retrieval_emits_no_integration(tmp_path):
    # Store is empty, so the cue is issued but hits nothing.
    data = minimal(
        timeline=[
            {"event": "command", "text": "goal: chart the unmapped ridge"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    kinds = [e.kind for e in result.trace.events]
    assert "query" in kinds
    assert "retrieve" in kinds
    assert "integrate" not in kinds
    retrieve_event = next(e for e in result.trace.events if e.kind == "retrieve")
    assert retrieve_event.payload["ids"] == []


# --------------------------------------------------------------------------
# Basins and modes
# --------------------------------------------------------------------------

BASIN = {
    "name": "engage",
    "clauses": [{"kind": "token_present", "token": "ready"}],
    "tau": 0.3,
}


def test_basin_fires_in_live_mode(tmp_path):
    data = minimal(
        basins=[BASIN],
        timeline=[
            {"event": "command", "text": "crew ready"},
            {"event": "tick"},
            {
                "event": "expect",
                "assertions": [{"check": "action_fired", "action": "engage"}],
            },
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    assert result.fired == ["engage"]


def test_simulation_mode_blocks_basins(tmp_path):
    data = minimal(
        basins=[BASIN],
        timeline=[
            {"event": "command", "text": "crew ready"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data), mode="simulation")
    assert result.fired == []
    decisions = [e for e in result.trace.events if e.kind == "action_decision"]
    assert decisions
    assert decisions[0].payload["verdict"] == "blocked_simulation"


def test_set_mode_switches_mid_run(tmp_path):
    data = minimal(
        basins=[BASIN],
        timeline=[
            {"event": "set_mode", "mode": "simulation"},
            {"event": "command", "text": "crew ready"},
            {"event": "tick"},
            {"event": "set_mode", "mode": "live"},
            {"event": "command", "text": "crew ready again now"},
            {"event": "tick"},
        ],
    )
    result = run_scenario(write_scenario(tmp_path, data))
    verdicts = [
        e.payload["verdict"]
        for e in result.trace.events
        if e.kind == "action_decision"
    ]
    assert verdicts[0] == "blocked_simulation"
    assert result.mode == "live"


# --------------------------------------------------------------------------
# Assertion semantics
# --------------------------------------------------------------------------

def test_failed_assertion_is_reported_not_raised(tmp_path):
    data = minimal(
        timeline=[
            {"event": "observe", "specs": [{"text": "pump", "name": "p"}]},
            {
                "event": "expect",
                "assertions": [{"check": "anchor", "name": "p", "value": 99.0}],
            },
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert not result.ok
    assert len(result.failures) == 1
    assert "anchor" in result.failures[0].detail


def test_absence_of_unregistered_name_is_vacuously_true(tmp_path):
    data = minimal(
        timeline=[
            {
                "event": "expect",
                "assertions": [
                    {"check": "fragment_absent", "name": "ghost"},
                    {"check": "fragment_present", "name": "ghost"},
                ],
            }
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    absent, present = result.assertions
    assert absent.ok
    assert not present.ok
    assert "never registered" in present.detail


def test_a_check_that_reads_no_name_keeps_an_extra_one_as_written(tmp_path):
    """A ``name`` on a check that reads none is an extra field: it enters
    the trace as written and is never looked up, even when unhashable."""
    data = minimal(timeline=[{"event": "expect", "assertions": [
        {"check": "kappa", "value": 1.0, "name": ["p"]},
        {"check": "is_vacuum", "name": {"p": 1}},
    ]}])
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok
    assert [a.spec["name"] for a in result.assertions] == [["p"], {"p": 1}]


def test_kappa_check_with_sector(tmp_path):
    data = minimal(
        timeline=[
            {
                "event": "observe",
                "mode": "conf",
                "specs": [
                    {"text": "valve open", "sector": "plan", "key": "valve",
                     "polarity": "+"},
                    {"text": "valve shut", "sector": "plan", "key": "valve",
                     "polarity": "-"},
                    {"text": "pump hums", "sector": "perc"},
                ],
            },
            {
                "event": "expect",
                "assertions": [
                    {"check": "kappa", "sector": "plan", "value": 0.5},
                    {"check": "kappa", "value": 0.7777777777, "tol": 1e-6},
                ],
            },
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    assert result.ok, [a.detail for a in result.failures]


@pytest.mark.parametrize("note", ["1e400", "NaN", "9" * 400], ids=["inf", "nan", "huge-int"])
def test_an_assertion_spec_the_trace_cannot_carry_is_refused_at_load(tmp_path, note):
    """The spec enters the trace as written, so a field the writer would
    refuse stops the run at load, not at the write after every tick."""
    data = minimal(timeline=[{"event": "tick"}, {"event": "expect", "assertions": [
        {"check": "is_vacuum", "note": "NOTE"}]}])
    path = tmp_path / "case.json"
    path.write_text(json.dumps(data).replace('"NOTE"', note), encoding="utf-8")
    with pytest.raises(ScenarioError, match=re.escape("timeline[1].assertions[0]: ")):
        load_scenario(path)


def test_an_assertion_spec_too_deep_for_the_trace_is_refused_at_load():
    """A spec the decoder took but the trace writer cannot walk is refused
    by path, not left to end the run in a ``RecursionError``."""
    note: list = []
    for _ in range(200):
        note = [note]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        with pytest.raises(ScenarioError, match=re.escape(
                "timeline[1].assertions[0]: nested too deeply to enter a trace")):
            simulator._check_assertion(
                {"check": "is_vacuum", "note": note}, "timeline[1].assertions[0]")
    finally:
        sys.setrecursionlimit(limit)


def test_a_seed_outside_the_float_range_is_refused(tmp_path):
    scenario = load_scenario(write_scenario(tmp_path, minimal()))
    with pytest.raises(ScenarioError, match="seed must be an integer within the float range"):
        SimulationRun(scenario, seed=10**400)
    assert SimulationRun(scenario, seed=int(sys.float_info.max)).run().trace.render()


def test_assertion_results_enter_the_trace(tmp_path):
    data = minimal(
        timeline=[
            {"event": "expect", "assertions": [{"check": "is_vacuum", "value": True}]}
        ]
    )
    result = run_scenario(write_scenario(tmp_path, data))
    events = [e for e in result.trace.events if e.kind == "assertion_result"]
    assert len(events) == 1
    assert events[0].payload["ok"] is True
    assert events[0].payload["check"] == "is_vacuum"


@settings(max_examples=200, deadline=None)
@given(state=states(max_frags=8), data=st.data())
def test_dropped_ids_match_the_set_difference(state, data):
    """The ids a derivation records as dropped, which the trace logs as a
    regulation action's removals and a tick's prunes, are the ids the state
    lost: after a drop, a put that replaces rows (which drops none), a decay
    that may prune, a sector wipe, and a ``revised`` that is the state."""
    ids = sorted(state.ids()) or [0]
    replaced = data.draw(st.sets(st.sampled_from(ids)))
    afters = (
        state.revised(drop=data.draw(st.sets(st.sampled_from(ids)))),
        state.revised(put=[f.replace(text="valve shut") for f in state.fragments
                           if f.id in replaced],
                      drop=data.draw(st.sets(st.sampled_from(ids)))),
        nullify(state, data.draw(st.sampled_from((1.0, 40.0))), default_config()),
        annihilate_sector(state, data.draw(st.sampled_from(SECTORS))),
        state.revised(drop=[-1]),
    )
    for after in afters:
        assert list(after.dropped_from(state)) == sorted(state.ids() - after.ids())


# --------------------------------------------------------------------------
# Fuzzed scenarios: load and construction either succeed or say why
# --------------------------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

SPEC_FIELDS = ("text", "sector", "sectors", "level", "anchor", "persistence",
               "key", "polarity", "name")


def near(values):
    """Mostly plausible values, sometimes any JSON at all."""
    return st.one_of(st.sampled_from(values), JSON)


SPEC = st.dictionaries(
    st.sampled_from(SPEC_FIELDS),
    near(["pump hums", "valve shut", "", "perc", "mem", 0, 1, 2.5, -1, "+", "-",
          ["perc", "mem"], [], "p"]),
    max_size=5,
)
SPECS = st.one_of(JSON, st.lists(SPEC, max_size=3))


def lists_of(item):
    return st.one_of(JSON, st.lists(item, max_size=3))


SECTIONS = {
    "name": JSON,
    "config": st.one_of(JSON, st.dictionaries(
        st.sampled_from(("delta", "embed_dim", "goal_marker", "seed", "window",
                         "load_coeffs", "sector_costs", "sector_priority", "l_max")),
        near([0.5, 16, "goal:", 3, [0.1, 1.0, 0.1], {"perc": 2.0}, ["task"], 1]),
        max_size=3,
    )),
    "memory": SPECS,
    "rules": lists_of(st.fixed_dictionaries(
        {"trigger": near(["pump", ""]), "emit": st.one_of(SPEC, JSON)})),
    "lexicon": lists_of(near(["pump", "", "hum"])),
    "axes": lists_of(st.fixed_dictionaries(
        {"label": near(["focus", ""]), "seed": SPECS},
        optional={"max_k": near([1, 3, 0]), "null_seed": JSON},
    )),
    "basins": lists_of(st.fixed_dictionaries(
        {"name": near(["b"])},
        optional={
            "clauses": lists_of(st.dictionaries(
                st.sampled_from(("kind", "sector", "minimum", "level", "tolerance", "token")),
                near(["token_present", "sector_density", "perc", 0.5, "go"]),
                max_size=3,
            )),
            "gate_policy": lists_of(st.dictionaries(
                st.sampled_from(("pattern", "action")), near(["stop", "veto"]), max_size=2)),
            "tau": near([0.5]),
        },
    )),
    "timeline": lists_of(st.dictionaries(
        st.sampled_from(("event", "specs", "text", "anchor", "mode", "n", "assertions")),
        near(["observe", "command", "tick", "expect", "go", 2, "auto", "bogus"]),
        max_size=4,
    )),
    "states": st.one_of(JSON, st.dictionaries(st.sampled_from(("a", "b")), SPECS, max_size=2)),
}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.fixed_dictionaries({}, optional=SECTIONS))
def test_any_json_loads_or_raises_scenario_error(tmp_path, data):
    path = write_scenario(tmp_path, data)
    try:
        scenario = load_scenario(path)
    except ScenarioError:
        return
    try:
        SimulationRun(scenario)
    except ScenarioError:
        pass
