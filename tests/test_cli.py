"""Exit codes and output of the command-line front end."""

from __future__ import annotations

import copy
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsim import execution
from beliefsim.cli import main
from beliefsim.simulator import _TIMELINE, MAX_TICKS, ScenarioError, load_scenario
from beliefsim.trace import parse_trace

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def write_scenario(tmp_path, data, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


PASSING = {
    "name": "passing",
    "timeline": [
        {"event": "observe", "specs": [{"text": "pump hums", "name": "hum"}]},
        {"event": "expect", "assertions": [{"check": "fragment_present", "name": "hum"}]},
    ],
}

FAILING = {
    "name": "failing",
    "timeline": [
        {"event": "expect", "assertions": [{"check": "is_vacuum", "value": False}]}
    ],
}

# A depth cap of 1 cannot hold any reflection, so the breach write warns.
WARNING = {
    "name": "warning",
    "config": {"meta_depth_max": 1},
    "timeline": [
        {
            "event": "observe",
            "mode": "conf",
            "specs": [
                {"text": "valve open", "key": "valve", "polarity": "+"},
                {"text": "valve shut", "key": "valve", "polarity": "-"},
            ],
        },
        {"event": "tick"},
    ],
}


# --------------------------------------------------------------------------
# Argument handling
# --------------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["meditate"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in ("run", "tower", "gauge", "inspect", "verify"):
        assert sub in out


def test_invalid_mode_is_usage_error(tmp_path, capsys):
    path = write_scenario(tmp_path, PASSING)
    assert main(["run", path, "--mode", "daydream"]) == 2


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def test_run_passing_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, PASSING)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "[PASS] fragment_present hum" in out
    assert "passing: 1 check(s), 0 failed, 0 warning(s)" in out


def test_run_failing_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, FAILING)
    assert main(["run", path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] is_vacuum" in out
    assert "1 failed" in out


def test_run_missing_scenario_is_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_scenario_is_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["run", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# A memory cycle embeds, so a bad embed_dim would fail mid-run if load let it by.
@pytest.mark.parametrize(
    "config, timeline",
    [
        ({"embed_dim": 64.5}, []),
        ({"embed_dim": 4097}, []),
        ({}, [{"event": "tick", "n": True}]),
        ({"delta": "0.5"}, []),
        ({"delta": True}, []),
    ],
    ids=["embed_dim-float", "embed_dim-too-big", "tick-n-bool", "delta-str", "delta-bool"],
)
def test_run_rejects_bad_counts_at_load(tmp_path, capsys, config, timeline):
    data = {**PASSING, "config": config, "timeline": timeline + PASSING["timeline"]}
    assert main(["run", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "timeline",
    [
        [1],
        "abc",
        [{"event": "observe", "specs": "abc"}],
        [{"event": "observe", "specs": [1]}],
        [{"event": "observe", "specs": [{"text": "pump hums", "sector": []}]}],
        [{"event": "observe", "specs": [{"text": "pump hums", "sector": ""}]}],
        [{"event": "observe", "specs": [{"text": "pump hums", "sectors": ["perc", 3]}]}],
        [{"event": "expect", "assertions": [1]}],
    ],
    ids=["entry-int", "timeline-str", "specs-str", "spec-int", "sector-list",
         "sector-empty", "sectors-non-string", "assertion-int"],
)
def test_run_rejects_malformed_timeline_at_load(tmp_path, capsys, timeline):
    data = {"name": "malformed", "timeline": timeline}
    assert main(["run", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m beliefsim ARGS`` with the source tree on the path, no install."""
    return subprocess.run(
        [sys.executable, "-m", "beliefsim", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


@pytest.mark.parametrize(
    "data",
    [
        {"memory": 5},
        {"states": 5},
        {"axes": [{"label": "focus", "seed": "abc"}]},
        {"memory": [{"text": "pump hums", "sector": []}]},
        {"config": {"goal_marker": 5},
         "timeline": [{"event": "command", "text": "goal: map"}, {"event": "tick"}]},
        {"timeline": [{"event": "tick"}, {"event": "command", "text": "go", "anchor": "x"}]},
        {"timeline": [{"event": "tick"}, {"event": "command", "text": "go", "anchor": 1e101}]},
        {"timeline": [{"event": "tick"},
                      {"event": "observe", "specs": [{"text": "pump"}], "mode": "bogus"}]},
        {"timeline": [{"event": "tick"},
                      {"event": "observe", "specs": [{"text": "pump"}], "mode": "abs"}]},
        {"timeline": [{"event": "tick"},
                      {"event": "expect", "assertions": [{"check": "persistence", "name": "p"}]}]},
        {"rules": [{"trigger": "pump", "emit": {"text": "check", "level": "x"}}],
         "timeline": [{"event": "tick", "n": 2}, {"event": "command", "text": "pump"}]},
        {"rules": [{"trigger": ["a"], "emit": {"text": "check"}}]},
        *({"basins": [{"name": "b", "tau": 0.5, **basin}]} for basin in (
            {"clauses": [{"kind": "token_present", "token": "go"}],
             "gate_policy": [{"pattern": 5}]},
            {"clauses": [{"kind": "token_present", "token": "go"}], "gate_policy": ["x"]},
            {"clauses": [{"kind": "token_present", "token": "go"}],
             "gate_policy": {"pattern": "x"}},
            {"clauses": [{"kind": "token_present", "token": "go"}], "gate_policy": [{}]},
            {"clauses": [{"kind": "sector_density", "sector": ["perc"], "minimum": 0.5}]},
            {"clauses": [{"kind": "token_present", "token": 5}]},
            {"clauses": [{"kind": "token_present", "token": "go", "sector": ""}]},
            {"clauses": [{"kind": "level_present", "level": 1.0}]},
            {"clauses": [{"kind": "sector_density", "sector": "perc", "minimum": True}]},
            {"clauses": [{"kind": "token_present", "token": "go"}], "tau": "0.5"},
            {"clauses": [{"kind": "token_present", "token": "go"}], "name": 5},
        )),
        {"axes": [{"label": "focus", "seed": [{"text": "survey the map"}],
                   "null_seed": "false"}]},
        *({"lexicon": ["rain", word], "timeline": [{"event": "tick", "n": 6}]}
          for word in ("!!", 5)),
        {"timeline": [{"event": "tick", "m": 3}]},
        {"axes": [{"label": "focus", "seed": [{"text": "survey the map"}], "nul_seed": True}]},
        {"rules": [{"trigger": "pump", "emit": {"text": "check"}, "name": "check"}]},
        {"memory": [{"text": "pump hums", "persistance": 0.2}]},
        {"memory": [{"text": "pump hums", "name": ["c"]}]},
        {"timeline": [{"event": "command", "text": "go", "name": 7}]},
        {"name": 5},
        {"name": ""},
    ],
    ids=["memory-int", "states-int", "axis-seed-str", "memory-sector-list",
         "goal-marker-int", "anchor-str", "anchor-above-bound", "mode-bogus",
         "abs-without-group", "expect-without-value", "rule-emit-level-str", "rule-trigger-list",
         "gate-pattern-int", "gate-policy-strings", "gate-policy-object", "gate-without-pattern",
         "clause-sector-list", "clause-token-int", "clause-token-sector-empty",
         "clause-level-float",
         "clause-minimum-bool", "basin-tau-str", "basin-name-int", "null-seed-str",
         "lexicon-no-token", "lexicon-int", "timeline-unknown-field", "axis-unknown-field",
         "rule-unknown-field", "memory-spec-unknown-field", "memory-name-list",
         "command-name-int", "scenario-name-int", "scenario-name-empty"],
)
def test_run_rejects_malformed_sections_at_load(tmp_path, data):
    path = write_scenario(tmp_path, {"name": "malformed", **data})
    with pytest.raises(ScenarioError):
        load_scenario(path)
    proc = run_module("run", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


GO = {"kind": "token_present", "token": "go"}


@pytest.mark.parametrize(
    "data, where",
    [
        ({"timeline": [{"event": "tick", "x": 3}]}, "timeline[0]"),
        ({"timeline": [{"event": "tick"}, {"event": "observe", "specs": [{"text": "pump"}],
                                           "x": 1}]},
         "timeline[1]"),
        ({"axes": [{"label": "focus", "seed": [{"text": "survey the map"}], "x": 1}]},
         "axes[0]"),
        ({"rules": [{"trigger": "pump", "emit": {"text": "check"}, "x": 1}]}, "rules[0]"),
        ({"basins": [{"name": "b", "clauses": [GO], "x": 1}]}, "basins[0]"),
        ({"basins": [{"name": "b", "clauses": [{**GO, "x": 1}]}]}, "basins[0].clauses[0]"),
        ({"basins": [{"name": "b", "clauses": [GO], "suppressors": [GO, {**GO, "x": 1}]}]},
         "basins[0].suppressors[1]"),
        ({"basins": [{"name": "b", "clauses": [GO],
                      "gate_policy": [{"pattern": "hold", "x": 1}]}]},
         "basins[0].gate_policy[0]"),
        ({"memory": [{"text": "pump hums"}, {"text": "valve", "x": 1}]}, "memory[1]"),
        ({"states": {"probe": [{"text": "pump", "x": 1}]}}, "states.probe[0]"),
        ({"axes": [{"label": "focus", "seed": [{"text": "survey the map", "x": 1}]}]},
         "axes[0].seed[0]"),
        ({"rules": [{"trigger": "pump", "emit": {"text": "check", "x": 1}}]}, "rules[0]"),
        ({"timeline": [{"event": "tick"},
                       {"event": "observe", "specs": [{"text": "valve open", "x": 1}]}]},
         "timeline[1].specs[0]"),
    ],
    ids=["tick", "observe", "axis", "rule", "basin", "clause", "suppressor", "gate",
         "memory-spec", "state-spec", "axis-seed-spec", "rule-emit", "observe-spec"],
)
def test_run_refuses_an_unknown_field_by_its_path(tmp_path, capsys, data, where):
    """A field the loader does not read is refused at load, not dropped, an
    observe spec's too."""
    assert main(["run", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"error: {where}: unknown fields ['x']\n"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"memory": [{"text": "pump hums", "name": ["c"]}]},
         "memory[0]: spec 'pump hums': name must be a string, got ['c']"),
        ({"states": {"probe": [{"text": "pump", "name": 7}]}},
         "states.probe[0]: spec 'pump': name must be a string, got 7"),
        ({"rules": [{"trigger": "pump", "emit": {"text": "check", "name": 7}}]},
         "rules[0]: spec 'check': name must be a string, got 7"),
        ({"timeline": [{"event": "command", "text": "go", "name": 7}]},
         "timeline[0]: command name must be a string or null"),
        ({"timeline": [{"event": "tick"},
                       {"event": "observe", "specs": [{"text": "pump", "name": ["c"]}]}]},
         "timeline[1].specs[0]: spec 'pump': name must be a string, got ['c']"),
        ({"name": ["c"]}, "name must be a string, got ['c']"),
    ],
    ids=["memory", "state", "rule-emit", "command", "observe", "scenario"],
)
def test_run_refuses_a_name_that_is_not_a_string_by_its_path(tmp_path, capsys, data, message):
    """A name is registered as given, never through ``str``: a name that is
    neither a string nor null is refused at load, an observe's too."""
    assert main(["run", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_null_scenario_name_takes_the_file_stem(tmp_path, capsys):
    path = write_scenario(tmp_path, {"name": None, "timeline": []}, name="stem.json")
    assert main(["run", path]) == 0
    assert capsys.readouterr().out == "stem: 0 check(s), 0 failed, 0 warning(s)\n"


def _named(*names):
    """One spec per name, each with its own text."""
    verbs = ("hums", "leaks", "stops", "starts")
    return [{"text": f"pump {verb}", "name": name} for verb, name in zip(verbs, names)]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"memory": _named("a", "b", "a")}, "memory[2]: name 'a' is already given at memory[0]"),
        ({"timeline": [{"event": "tick"}, {"event": "observe", "specs": _named("b", "b")}]},
         "timeline[1].specs[1]: name 'b' is already given at timeline[1].specs[0]"),
        ({"rules": [{"trigger": "pump", "emit": spec} for spec in _named("c", "d", "c")]},
         "rules[2]: name 'c' is already given at rules[0]"),
        ({"states": {"probe": _named("a", "a")}},
         "states.probe[1]: name 'a' is already given at states.probe[0]"),
        ({"axes": [{"label": "focus", "seed": _named("s", None, "s")}]},
         "axes[0].seed[2]: name 's' is already given at axes[0].seed[0]"),
        ({"memory": _named(["c"], ["c"])},
         "memory[0]: spec 'pump hums': name must be a string, got ['c']"),
    ],
    ids=["memory", "observe", "rule-emit", "state", "axis-seed", "memory-non-string"],
)
def test_run_refuses_a_name_given_twice_in_one_list_at_load(tmp_path, capsys, data, message):
    """A name is unique within its spec list, refused at load naming both
    positions, an observe's too; a name that is not a string is refused as
    such."""
    assert main(["run", write_scenario(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_null_and_empty_names_may_repeat(tmp_path, capsys):
    """A null or empty name registers nothing, so it may be given again."""
    specs = _named(None, "", None, "")
    data = {"memory": specs, "timeline": [{"event": "observe", "specs": specs}]}
    assert main(["run", write_scenario(tmp_path, data, name="blank.json")]) == 0
    assert capsys.readouterr().out == "blank: 0 check(s), 0 failed, 0 warning(s)\n"


def test_a_run_refused_at_a_tick_writes_the_trace_of_its_ticks_before(tmp_path, capsys):
    """An observe spec refused when its observe runs (its numbers are
    converted only then) exits 2 with one error line, and the trace written
    is the run's prefix: it parses, and verify finds it short of the run
    that goes on."""
    def scenario(level):
        return {"name": "prefix", "timeline": [
            {"event": "observe", "specs": [{"text": "pump hums"}]},
            {"event": "tick", "n": 3},
            {"event": "observe", "specs": [{"text": "pump", "level": level}]},
        ]}
    refused, whole = tmp_path / "refused.jsonl", tmp_path / "whole.jsonl"
    assert main(["run", write_scenario(tmp_path, scenario("x")), "--trace", str(refused)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: timeline[2].specs[0]: spec 'pump': level, anchor and "
                            "persistence must be numbers, got {'level': 'x'}\n")
    _, events = parse_trace(refused)
    assert [e.tick for e in events if e.kind == "meta"] == [0.0, 1.0, 2.0]  # one per tick
    assert main(["run", write_scenario(tmp_path, scenario(0), "whole.json"),
                 "--trace", str(whole)]) == 0
    capsys.readouterr()
    lines = refused.read_text().splitlines()
    assert lines == whole.read_text().splitlines()[:len(lines)]
    assert main(["verify", str(refused), str(whole)]) == 1
    assert capsys.readouterr().out.startswith(f"DIVERGED: line {len(lines) + 1}, at .length:")


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"text": "pump", "anchr": 9}, "unknown fields ['anchr']"),
        ({"text": 5}, "spec text must be a string, got 5"),
        ({"text": None}, "spec text must be a string, got None"),
        ({"text": "pump", "key": 5, "polarity": "+"}, "spec 'pump': key must be a string, got 5"),
        ({"text": "pump", "name": ["c"]}, "spec 'pump': name must be a string, got ['c']"),
        ({"text": "pump", "name": 0}, "spec 'pump': name must be a string, got 0"),
        ({"text": "pump", "sector": "task", "sectors": ["perc"]},
         "give sector or sectors, not both"),
    ],
    ids=["unknown-field", "text-int", "text-null", "key-int", "name-list", "name-zero",
         "sector-and-sectors"],
)
def test_a_bad_observe_spec_field_is_refused_before_tick_0(tmp_path, capsys, spec, message):
    """An observe spec's field names, its text, key and name and its sector
    fields are checked at load: a run whose third tick's observe gets one
    wrong exits 2 with one error line naming the spec, and writes no trace."""
    data = {"timeline": [{"event": "tick", "n": 3}, {"event": "observe", "specs": [spec]}]}
    trace = tmp_path / "refused.jsonl"
    assert main(["run", write_scenario(tmp_path, data), "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: timeline[1].specs[0]: {message}\n")
    assert not trace.exists()


@pytest.mark.parametrize("anchor", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "data, message",
    [
        ({"memory": [{"text": "pump hums", "anchor": None}]}, "error: memory[0]: "),
        ({"timeline": [{"event": "observe", "specs": [{"text": "pump", "anchor": None}]}]},
         "error: timeline[0].specs[0]: fragment 1: "),
    ],
    ids=["memory", "observe"],
)
def test_run_rejects_non_finite_anchor_without_traceback(tmp_path, data, message, anchor):
    text = json.dumps({"name": "nan", **data}).replace("null", json.dumps(anchor))
    path = tmp_path / "nan.json"
    path.write_text(text)
    proc = run_module("run", str(path), "--trace", str(tmp_path / "out.jsonl"))
    assert proc.returncode == 2
    assert proc.stderr.startswith(message)
    assert "anchor must be a finite number >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("anchor", [1e155, 1e308])
def test_run_names_an_observe_anchor_above_the_bound(tmp_path, anchor):
    # Two such fragments once overflowed the state's weights, mid-run.
    spec = {"text": "pump", "anchor": anchor}
    data = {"timeline": [{"event": "observe", "specs": [spec, {**spec, "text": "valve"}]},
                         {"event": "tick"}]}
    proc = run_module("run", write_scenario(tmp_path, data),
                      "--trace", str(tmp_path / "out.jsonl"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: timeline[0].specs[0]: fragment 1: anchor must be")
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_run_at_the_anchor_bound_is_clean_under_warnings_as_errors(tmp_path):
    spec = {"text": "pump", "anchor": 1e100}
    data = {"timeline": [{"event": "observe", "specs": [spec, {**spec, "text": "valve"}]},
                         {"event": "tick"}]}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "beliefsim", "run", write_scenario(tmp_path, data),
         "--trace", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_gauge_names_a_state_with_a_non_finite_anchor(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"states": {"a": [{"text": "pump", "anchor": NaN}], "b": [{"text": "pump"}]}}')
    assert main(["gauge", str(path), "--state-a", "a", "--state-b", "b"]) == 2
    assert capsys.readouterr().err.startswith("error: states.a[0]: fragment 1: anchor must be")


def test_run_names_a_bad_observe_spec_when_its_observe_runs(tmp_path):
    data = {"timeline": [{"event": "tick", "n": 2},
                         {"event": "observe", "specs": [{"text": "pump", "level": "x"}]}]}
    proc = run_module("run", write_scenario(tmp_path, data))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: timeline[1].specs[0]: spec 'pump': level")
    assert "Traceback" not in proc.stderr


def test_python_dash_m_runs_the_cli():
    proc = run_module("run", str(SCENARIOS / "sensor_decay.json"))
    assert proc.returncode == 0, proc.stderr
    assert "sensor_decay:" in proc.stdout
    assert "0 failed" in proc.stdout


def test_run_writes_parseable_trace(tmp_path):
    path = write_scenario(tmp_path, PASSING)
    trace_path = tmp_path / "out.trace.jsonl"
    assert main(["run", path, "--trace", str(trace_path)]) == 0
    header, events = parse_trace(trace_path)
    assert header["scenario"] == "passing"
    assert header["format"] == "belief-trace/1"
    assert [e.kind for e in events[:2]] == ["ingest", "assimilate"]


def test_run_seed_override_reaches_header(tmp_path):
    path = write_scenario(tmp_path, PASSING)
    trace_path = tmp_path / "seeded.trace.jsonl"
    assert main(["run", path, "--seed", "42", "--trace", str(trace_path)]) == 0
    header, _ = parse_trace(trace_path)
    assert header["seed"] == 42


def test_run_warnings_pass_by_default(tmp_path, capsys):
    path = write_scenario(tmp_path, WARNING)
    assert main(["run", path]) == 0
    # Both the global and the sector breach rows hit the depth cap.
    assert "2 warning(s)" in capsys.readouterr().out


def test_run_strict_turns_warnings_into_failure(tmp_path):
    path = write_scenario(tmp_path, WARNING)
    assert main(["run", path, "--strict"]) == 1


def test_run_warns_when_an_elab_observe_meets_a_conflict(tmp_path, capsys):
    data = {"timeline": [
        {"event": "observe", "specs": [{"text": "door open", "key": "door", "polarity": "+"}]},
        {"event": "tick", "n": 2},
        {"event": "observe", "mode": "elab",
         "specs": [{"text": "door shut", "key": "door", "polarity": "-"}]},
        {"event": "tick"},
    ]}
    path = write_scenario(tmp_path, data)
    trace_path = tmp_path / "elab.trace.jsonl"
    assert main(["run", path, "--trace", str(trace_path)]) == 0
    assert "0 failed, 1 warning(s)" in capsys.readouterr().out
    _, events = parse_trace(trace_path)
    (warning,) = [e for e in events if e.kind == "warning"]
    assert warning.payload["op"] == "assimilate"
    assert warning.payload["message"].startswith("1 conflict(s) on key(s) ['door']")
    assert main(["run", path, "--strict"]) == 1


@pytest.mark.parametrize("field", ["clauses", "suppressors"])
@pytest.mark.parametrize("token", ["Ready", "ready!", "go now"])
def test_run_refuses_a_clause_token_that_cannot_match(tmp_path, capsys, field, token):
    clause = {"kind": "token_present", "token": "ready"}
    basin = {"name": "engage", "clauses": [clause], "tau": 0.3,
             field: [clause, {**clause, "token": token}]}
    data = {"basins": [basin], "timeline": [{"event": "command", "text": "Ready to go"},
                                            {"event": "tick"}]}
    assert main(["run", write_scenario(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: basins[0].{field}[1]: ")
    assert "token" in err


def test_run_reports_fired_actions(tmp_path, capsys):
    data = {
        "name": "firing",
        "basins": [
            {
                "name": "engage",
                "clauses": [{"kind": "token_present", "token": "ready"}],
                "tau": 0.3,
            }
        ],
        "timeline": [
            {"event": "command", "text": "crew ready"},
            {"event": "tick"},
        ],
    }
    path = write_scenario(tmp_path, data)
    assert main(["run", path]) == 0
    assert "actions fired: engage" in capsys.readouterr().out


def test_run_shipped_scenarios_pass():
    for name in (
        "sensor_decay",
        "regulation_loop",
        "action_ramp",
        "action_vetoes",
        "drift_vacuum",
        "orientation_axis",
        "realign_sweep",
        "memory_recall",
        "elaboration_rules",
        "sector_wipe",
    ):
        assert main(["run", str(SCENARIOS / f"{name}.json")]) == 0, name


# --------------------------------------------------------------------------
# tower
# --------------------------------------------------------------------------

def test_tower_prints_convergence_profile(capsys):
    rc = main(["tower", str(SCENARIOS / "orientation_axis.json"),
               "--axis", "task-focus"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("step 0:")
    assert "converged" in out
    assert "final gap" in out


# The exact output for every axis of every shipped scenario.  Tower grouping
# reads sector frozensets, so CI runs these under two string-hash seeds too.
TOWER_OUTPUT = {
    ("orientation_axis", "task-focus"): (
        "step 0: 2 fragment(s), top level 0\n"
        "step 1: 1 fragment(s), top level 1\n"
        "step 2: 1 fragment(s), top level 2\n"
        "converged after 2 step(s); final gap 0.000e+00\n"
    ),
    ("realign_sweep", "survey"): (
        "step 0: 24 fragment(s), top level 0\n"
        "step 1: 12 fragment(s), top level 1\n"
        "step 2: 6 fragment(s), top level 2\n"
        "converged after 2 step(s); final gap 0.000e+00\n"
    ),
}

SHIPPED_AXES = sorted(
    (p.stem, axis["label"])
    for p in SCENARIOS.glob("*.json")
    for axis in json.loads(p.read_text(encoding="utf-8")).get("axes", [])
)


@pytest.mark.parametrize("name, axis", SHIPPED_AXES, ids=[f"{n}-{a}" for n, a in SHIPPED_AXES])
def test_tower_output_is_pinned(name, axis, capsys):
    assert main(["tower", str(SCENARIOS / f"{name}.json"), "--axis", axis]) == 0
    assert capsys.readouterr().out == TOWER_OUTPUT[name, axis]


def test_tower_unknown_axis_is_error(capsys):
    rc = main(["tower", str(SCENARIOS / "orientation_axis.json"),
               "--axis", "nope"])
    assert rc == 2
    assert "no axis" in capsys.readouterr().err


TALL = {
    "name": "tall",
    "axes": [
        {
            "label": "wide",
            "seed": [{"text": f"reading {i} of the coolant line"} for i in range(8)],
        }
    ],
    "timeline": [],
}

# The exact output under --max-k: a limit below the steps a tower needs stops
# it short, not converged.
TOWER_MAX_K_OUTPUT = {
    ("tall", "wide", 1): (
        "step 0: 8 fragment(s), top level 0\n"
        "step 1: 4 fragment(s), top level 1\n"
        "not converged after 1 step(s); final gap 1.527e-02\n"
    ),
    ("tall", "wide", 2): (
        "step 0: 8 fragment(s), top level 0\n"
        "step 1: 4 fragment(s), top level 1\n"
        "step 2: 2 fragment(s), top level 2\n"
        "converged after 2 step(s); final gap 0.000e+00\n"
    ),
    ("orientation_axis", "task-focus", 1): (
        "step 0: 2 fragment(s), top level 0\n"
        "step 1: 1 fragment(s), top level 1\n"
        "not converged after 1 step(s); final gap 1.835e-01\n"
    ),
    ("realign_sweep", "survey", 1): (
        "step 0: 24 fragment(s), top level 0\n"
        "step 1: 12 fragment(s), top level 1\n"
        "not converged after 1 step(s); final gap 4.577e-03\n"
    ),
    **{(name, axis, 2): TOWER_OUTPUT[name, axis] for name, axis in SHIPPED_AXES},
}


@pytest.mark.parametrize(
    "name, axis, max_k", list(TOWER_MAX_K_OUTPUT),
    ids=[f"{n}-{a}-{k}" for n, a, k in TOWER_MAX_K_OUTPUT],
)
def test_tower_max_k_output_is_pinned(name, axis, max_k, tmp_path, capsys):
    path = (write_scenario(tmp_path, TALL) if name == "tall"
            else str(SCENARIOS / f"{name}.json"))
    assert main(["tower", path, "--axis", axis, "--max-k", str(max_k)]) == 0
    assert capsys.readouterr().out == TOWER_MAX_K_OUTPUT[name, axis, max_k]


def test_tower_max_k_override_can_stop_short(tmp_path, capsys):
    path = write_scenario(tmp_path, TALL)
    assert main(["tower", path, "--axis", "wide", "--max-k", "1"]) == 0
    assert "not converged" in capsys.readouterr().out


def test_tower_shows_the_kept_tower_that_run_refuses(tmp_path, capsys):
    data = {**TALL, "axes": [{**TALL["axes"][0], "max_k": 1}]}
    path = write_scenario(tmp_path, data)
    assert main(["tower", path, "--axis", "wide"]) == 0
    assert capsys.readouterr().out == TOWER_MAX_K_OUTPUT["tall", "wide", 1]
    assert main(["run", path]) == 2
    assert "axes[0] ('wide'): axis derivation requires a converged tower" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, message",
    [
        ({"max_k": 0}, "axes[0] ('wide'): max_k must be >= 1, got 0"),
        ({"seed": [{"text": "pump", "level": "x"}]}, "axes[0].seed[0]: spec 'pump'"),
    ],
    ids=["max-k-zero", "seed-level-str"],
)
def test_every_command_refuses_a_bad_axis_at_load(tmp_path, capsys, axis, message):
    data = {**TALL, "axes": [{**TALL["axes"][0], **axis}],
            "states": {"a": [{"text": "pump"}]}}
    path = write_scenario(tmp_path, data)
    for argv in (["run", path], ["tower", path, "--axis", "wide", "--max-k", "3"],
                 ["gauge", path, "--state-a", "a", "--state-b", "a"]):
        assert main(argv) == 2
        assert message in capsys.readouterr().err


# --------------------------------------------------------------------------
# gauge
# --------------------------------------------------------------------------

def test_gauge_equivalent_pair(capsys):
    rc = main([
        "gauge", str(SCENARIOS / "gauge_pair.json"),
        "--state-a", "word_order_a", "--state-b", "word_order_b",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equivalent under suite 'default' (10 probes)" in out
    assert "DIFFER" not in out


def test_gauge_inequivalent_pair(capsys):
    rc = main([
        "gauge", str(SCENARIOS / "gauge_pair.json"),
        "--state-a", "claim_pos", "--state-b", "claim_neg",
    ])
    assert rc == 1
    out = capsys.readouterr().out
    assert "inequivalent: witness probe" in out
    assert "DIFFER" in out


_PROBES = (
    "coherence_global [scalar]", "load_at_rest [scalar]",
    "decay_horizon_short [state]", "decay_horizon_long [state]",
    "assimilate_claim_p_neg [state]", "assimilate_claim_q_pos [state]",
    "assimilate_plain [state]", "query_goal [cue]", "query_associative [cue]",
    "action_readiness [verdict]",
)
_CLAIM_DIFFERS = (2, 3, 4, 5, 6)


@pytest.mark.parametrize(
    "state_a, state_b, code, out",
    [
        ("word_order_a", "word_order_b", 0,
         "".join(f"{p}: agree\n" for p in _PROBES)
         + "equivalent under suite 'default' (10 probes)\n"),
        ("claim_pos", "claim_neg", 1,
         "".join(f"{p}: {'DIFFER' if i in _CLAIM_DIFFERS else 'agree'}\n"
                 for i, p in enumerate(_PROBES))
         + "inequivalent: witness probe 'decay_horizon_short'\n"),
    ],
    ids=["equivalent", "inequivalent"],
)
def test_gauge_output_is_pinned(state_a, state_b, code, out, capsys):
    rc = main(["gauge", str(SCENARIOS / "gauge_pair.json"),
               "--state-a", state_a, "--state-b", state_b])
    assert rc == code
    assert capsys.readouterr().out == out


def test_gauge_unknown_state_is_error(capsys):
    rc = main([
        "gauge", str(SCENARIOS / "gauge_pair.json"),
        "--state-a", "word_order_a", "--state-b", "nope",
    ])
    assert rc == 2
    assert "no state" in capsys.readouterr().err


# --------------------------------------------------------------------------
# inspect
# --------------------------------------------------------------------------

@pytest.fixture()
def decay_trace(tmp_path):
    trace_path = tmp_path / "decay.trace.jsonl"
    assert main(["run", str(SCENARIOS / "sensor_decay.json"),
                 "--trace", str(trace_path)]) == 0
    return str(trace_path)


def test_inspect_kappa_series(decay_trace, capsys):
    assert main(["inspect", decay_trace, "--metric", "kappa"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 250  # one tick per line
    tick, value = lines[0].split("\t")
    assert float(value) == 1.0


def test_inspect_load_series(decay_trace, capsys):
    assert main(["inspect", decay_trace, "--metric", "load"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(float(line.split("\t")[1]) >= 0.0 for line in lines)


def test_inspect_theta_series(tmp_path, capsys):
    trace_path = tmp_path / "axis.trace.jsonl"
    assert main(["run", str(SCENARIOS / "orientation_axis.json"),
                 "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace_path), "--metric", "theta"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    tick, label, value = lines[0].split("\t")
    assert label == "task-focus"


def test_inspect_rejects_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"seq":0}\n')
    assert main(["inspect", str(bad), "--metric", "kappa"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "5\n",
        '{"header":{}}\n[1,2]\n',
        '{"header":{}}\n{"seq":0,\n',
        '{"header":{}}\n{"seq":0,"tick":0,"kind":"meta","payload":{"report":5}}\n',
        '{"header":{}}\n{"seq":0,"tick":0,"kind":"meta",'
        '"payload":{"report":{"kappa_global":[1]}}}\n',
    ],
    ids=["scalar-header", "list-event", "bad-json", "scalar-report", "list-kappa"],
)
def test_inspect_malformed_trace_exits_2_without_traceback(tmp_path, text):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "beliefsim.cli", "inspect", str(bad), "--metric", "kappa"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: trace line ")
    assert "Traceback" not in proc.stderr


NESTED = "[" * 100_000 + "]" * 100_000
GOLDEN = SCENARIOS / "golden" / "sensor_decay.trace.jsonl"


def _refused(proc: subprocess.CompletedProcess, message: str) -> None:
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command",
    [("run",), ("tower", "--axis", "focus"), ("gauge", "--state-a", "a", "--state-b", "b")],
    ids=["run", "tower", "gauge"],
)
def test_a_deeply_nested_scenario_exits_2_without_traceback(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text('{"timeline": ' + NESTED + "}")
    proc = run_module(command[0], str(path), *command[1:])
    _refused(proc, f"error: scenario {path} is nested too deeply to decode")


@pytest.mark.parametrize(
    "report, message",
    [
        (NESTED, "trace line 2: maximum recursion depth exceeded"),
        ('{"kappa_global":NaN}', "trace line 2: non-finite value nan cannot enter"),
        ('{"kappa_global":Infinity}', "trace line 2: non-finite value inf cannot enter"),
        ('{"kappa_global":-Infinity}', "trace line 2: non-finite value -inf cannot enter"),
    ],
    ids=["deep", "nan", "infinity", "minus-infinity"],
)
def test_inspect_and_verify_refuse_a_trace_the_writer_never_emits(tmp_path, report, message):
    """Nesting past the decoder's recursion limit and a non-finite constant
    are refused, even by a ``verify`` of a trace against itself."""
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"header":{}}\n{"seq":0,"tick":0,"kind":"meta","payload":{"report":'
                   + report + "}}\n")
    _refused(run_module("inspect", str(bad), "--metric", "kappa"), message)
    _refused(run_module("verify", str(bad), str(bad)), message)


@pytest.mark.parametrize(
    "number, message",
    [
        ("1e400", "trace line 4: number '1e400' is outside the float range"),
        ("-" + "9" * 400, "trace line 4: integer of 400 digits is outside the float range"),
    ],
    ids=["float", "integer"],
)
def test_inspect_and_verify_refuse_a_number_outside_the_float_range(tmp_path, number, message):
    """A number the writer never emits, read as ``inf`` or too large for a
    float, is refused by name, even by a ``verify`` of a trace against itself."""
    lines = GOLDEN.read_text().splitlines()
    assert '"kappa_global":1.0' in lines[3]
    lines[3] = lines[3].replace('"kappa_global":1.0', f'"kappa_global":{number}')
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    _refused(run_module("inspect", str(bad), "--metric", "kappa"), message)
    _refused(run_module("verify", str(bad), str(bad)), message)


def test_inspect_names_a_deeply_nested_value_in_one_short_line(tmp_path):
    lines = GOLDEN.read_text().splitlines()
    lines[3] = lines[3].replace('"load":1.23', '"load":' + "[" * 900 + "]" * 900)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_module("inspect", str(bad), "--metric", "load")
    _refused(proc, "error: trace line 4: report.load must be a number, got [[[")
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 200


LONG = "x" * 5000
MANY = [1] * 3000
TRACE_HEADER = '{"header":{}}\n'


def _trace(**fields) -> str:
    """A header and one ``meta`` event, ``fields`` set on the event."""
    event = {"kind": "meta", "payload": {}, "seq": 0, "tick": 0, **fields}
    return TRACE_HEADER + json.dumps(event) + "\n"


def _scenario(config=None, timeline=({"event": "tick"},), **sections) -> str:
    data = {"timeline": list(timeline), **sections}
    if config is not None:
        data["config"] = config
    return json.dumps(data)


def _basin(clause=None, **fields) -> str:
    """A scenario of one basin, ``fields`` set on it and ``clause`` on its clause."""
    return _scenario(basins=[{"name": "b", "clauses": [{**GO, **(clause or {})}], **fields}])


@pytest.mark.parametrize(
    "command, texts, code",
    [
        ("run", [_scenario({"delta": LONG})], 2),
        ("run", [_scenario(MANY)], 2),
        ("run", [_scenario({"decay_modulator": LONG})], 2),
        ("run", [_scenario({"load_coeffs": MANY})], 2),
        ("run", [_scenario({"sector_priority": [LONG, 5]})], 2),
        ("run", [_scenario({"sector_costs": MANY})], 2),
        ("run", [_scenario({"sector_costs": {LONG: LONG}})], 2),
        ("run", [_scenario({"goal_marker": MANY})], 2),
        ("run", [_scenario({LONG: 1})], 2),
        ("run", [_scenario(timeline=[{"event": "x" * 4000}])], 2),
        ("run", [_scenario(timeline=[{"event": "expect", "assertions": [{"check": LONG}]}])],
         2),
        ("run", [_basin({"kind": LONG})], 2),
        ("run", [_basin({"sector": MANY})], 2),
        ("run", [_basin({"token": LONG.upper()})], 2),
        ("run", [_basin({"kind": "sector_density", "sector": "perc", "minimum": MANY})], 2),
        ("run", [_basin({"kind": "level_present", "level": MANY})], 2),
        ("run", [_basin(name=LONG, clauses=[])], 2),
        ("run", [_basin(gate_policy=[{"pattern": "hold", "action": LONG}])], 2),
        ("run", [_basin(gate_policy=[{"pattern": MANY}])], 2),
        ("run", [_scenario(lexicon=["rain", "!" * 5000])], 2),
        ("run", [_scenario(timeline=[{"event": "observe",
                                      "specs": [{"text": LONG, "level": "x"}]}])], 2),
        ("run", [_scenario(timeline=[{"event": "observe",
                                      "specs": [{"text": LONG, "key": MANY}]}])], 2),
        ("run", [_scenario(memory=[{"text": "pump", "anchor": LONG}])], 2),
        ("run", [_scenario(axes=[{"label": LONG, "seed": [{"text": "pump"}], "max_k": 0}])], 2),
        ("inspect", [_trace(kind="k" * 3000)], 2),
        ("verify", [_trace(kind="k" * 3000)] * 2, 2),
        ("verify", [_trace(payload={"x": list(range(3000))}), _trace()], 1),
    ],
    ids=["float-field", "config-root", "decay_modulator", "load_coeffs", "sector_priority",
         "sector_costs", "sector-cost", "goal_marker", "config-key", "timeline-event",
         "expect-check", "clause-kind", "clause-sector", "clause-token", "clause-minimum",
         "clause-level", "basin-name", "gate-action", "gate-pattern", "lexicon", "spec-text",
         "spec-key", "spec-number", "axis-label", "inspect-kind", "verify-kind",
         "verify-diverged"],
)
def test_an_outside_value_shows_bounded_in_one_short_line(tmp_path, capsys, command, texts, code):
    """A message quotes a value from a file as ``reprlib`` bounds it, and a
    divergence too, where numbers stay whole: never the value's whole repr."""
    paths = []
    for i, text in enumerate(texts):
        paths.append(str(tmp_path / f"in{i}.json"))
        Path(paths[-1]).write_text(text)
    args = ["--metric", "kappa"] if command == "inspect" else []
    assert main([command, *paths, *args]) == code
    captured = capsys.readouterr()
    shown = captured.out + captured.err
    assert shown.startswith("error: " if code == 2 else "DIVERGED: ")
    assert len(shown.splitlines()) == 1 and len(shown) < 300, shown[:300]


def test_run_refuses_a_tick_count_that_would_not_end(tmp_path):
    """A 400-digit tick count is refused at load, not run until killed."""
    path = tmp_path / "long.json"
    path.write_text('{"timeline": [{"event": "tick", "n": ' + "9" * 400 + "}]}")
    proc = subprocess.run(
        [sys.executable, "-m", "beliefsim", "run", str(path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60,
    )
    _refused(proc, f"error: timeline[0]: tick n must be an int >= 1 and <= {MAX_TICKS}")


NINES = "9" * 400
ON_NOTE = ('{"timeline": [{"event": "tick"}, {"event": "expect", '
           '"assertions": [{"check": "is_vacuum", "note": %s}]}]}')


@pytest.mark.parametrize(
    "text, args, message",
    [
        (ON_NOTE % "1e400", [], "timeline[1].assertions[0]: non-finite value inf cannot enter"),
        ('{"config": {"patience": %s}, "timeline": [{"event": "tick"}]}' % NINES[:388], [],
         "config: patience must be an integer within the float range"),
        (None, ["--seed", NINES], "seed must be an integer within the float range"),
    ],
    ids=["assertion", "config", "seed"],
)
def test_run_refuses_a_number_its_trace_could_not_carry_before_tick_0(
        tmp_path, capsys, text, args, message):
    """A number the trace writer or reader would refuse stops ``run`` with
    exit 2 before the first tick: no check line, no trace."""
    path = SCENARIOS / "sensor_decay.json"
    if text is not None:
        path = tmp_path / "case.json"
        path.write_text(text)
    out = tmp_path / "out.jsonl"
    assert main(["run", str(path), "--trace", str(out), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: " + message)


@pytest.mark.parametrize(
    "counts, refused",
    [
        ([MAX_TICKS], None),
        ([MAX_TICKS - 1, 1], None),
        ([MAX_TICKS + 1], f"timeline[0]: tick n must be an int >= 1 and <= {MAX_TICKS}"),
        ([MAX_TICKS, 1], f"timeline[1]: the ticks up to here add up to {MAX_TICKS + 1}"),
    ],
    ids=["one-event-at-bound", "total-at-bound", "one-event-above", "total-above"],
)
def test_load_bounds_the_ticks_of_an_event_and_of_the_scenario(tmp_path, counts, refused):
    data = {"timeline": [{"event": "tick", "n": n} for n in counts]}
    path = write_scenario(tmp_path, data)
    if refused is None:
        assert sum(e["n"] for e in load_scenario(path).timeline) == MAX_TICKS
    else:
        with pytest.raises(ScenarioError, match=re.escape(refused)):
            load_scenario(path)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

SHIPPED = sorted(p.stem for p in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("name", SHIPPED)
def test_verify_fresh_run_matches_golden(name, tmp_path, capsys):
    trace_path = tmp_path / "fresh.trace.jsonl"
    assert main(["run", str(SCENARIOS / f"{name}.json"),
                 "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    golden = SCENARIOS / "golden" / f"{name}.trace.jsonl"
    assert main(["verify", str(trace_path), str(golden)]) == 0
    assert capsys.readouterr().out.strip() == "MATCH"
    assert trace_path.read_bytes() == golden.read_bytes()


# The exact stdout of `beliefsim run` on each shipped scenario, the same
# with or without --strict.
RUN_OUTPUT = {
    "action_ramp": (
        "[PASS] action_fired engage: fired so far: ['engage']\n"
        "[PASS] action_not_fired standby: fired so far: ['engage']\n"
        "[PASS] fragment_present crew: id 3 present\n"
        "actions fired: engage\n"
        "action_ramp: 3 check(s), 0 failed, 0 warning(s)\n"
    ),
    "action_vetoes": (
        "[PASS] action_fired alpha: fired so far: ['alpha']\n"
        "[PASS] action_not_fired beta: fired so far: ['alpha']\n"
        "[PASS] action_not_fired launch: fired so far: ['alpha']\n"
        "[PASS] action_not_fired abort: fired so far: ['alpha']\n"
        "actions fired: alpha\n"
        "action_vetoes: 4 check(s), 0 failed, 0 warning(s)\n"
    ),
    "coherence_recall": (
        "[PASS] fragment_present manual: id 1 present\n"
        "[PASS] fragment_absent shut: id 4 absent\n"
        "[PASS] kappa : kappa 1.000000 vs 1.0 ± 1e-06\n"
        "coherence_recall: 3 check(s), 0 failed, 0 warning(s)\n"
    ),
    "drift_vacuum": (
        "[PASS] is_vacuum : vacuum=False\n"
        "[PASS] kappa : kappa 1.000000 vs 1.0 ± 1e-09\n"
        "drift_vacuum: 2 check(s), 0 failed, 0 warning(s)\n"
    ),
    "elaboration_rules": (
        "[PASS] fragment_present hum: id 2 present\n"
        "[PASS] fragment_present inspect: id 5 present\n"
        "[PASS] fragment_absent alarm: name 'alarm' never registered\n"
        "[PASS] fragment_present alarm: id 12 present\n"
        "[PASS] anchor alarm: anchor 3.000000 vs 3.0\n"
        "[PASS] persistence alarm: persistence 1.000000 vs 1.0 ± 1e-06\n"
        "[PASS] fragment_present worn: id 1 present\n"
        "[PASS] anchor worn: anchor 5.000000 vs 5.0\n"
        "[PASS] fragment_present inspect: id 5 present\n"
        "[PASS] fragment_present alarm: id 12 present\n"
        "elaboration_rules: 10 check(s), 0 failed, 0 warning(s)\n"
    ),
    "gauge_pair": (
        "gauge_pair: 0 check(s), 0 failed, 0 warning(s)\n"
    ),
    "memory_recall": (
        "[PASS] fragment_present manual: id 1 present\n"
        "[PASS] anchor manual: anchor 5.000000 vs 5.0\n"
        "[PASS] persistence manual: persistence 0.983471 vs 0.98347 ± 0.0001\n"
        "[PASS] fragment_absent valve-shut: id 2 absent\n"
        "[PASS] fragment_present valve-open: id 301 present\n"
        "[PASS] fragment_present goal: id 302 present\n"
        "[PASS] kappa : kappa 1.000000 vs 1.0 ± 1e-06\n"
        "memory_recall: 7 check(s), 0 failed, 0 warning(s)\n"
    ),
    "orientation_axis": (
        "[PASS] fragment_absent noise: id 2 absent\n"
        "[PASS] fragment_present keep: id 1 present\n"
        "[PASS] kappa : kappa 1.000000 vs 1.0 ± 1e-09\n"
        "orientation_axis: 3 check(s), 0 failed, 0 warning(s)\n"
    ),
    "realign_sweep": (
        "[PASS] is_vacuum : vacuum=False\n"
        "[PASS] kappa : kappa 1.000000 vs 1.0 ± 1e-09\n"
        "[PASS] fragment_present on0: id 1 present\n"
        "[PASS] fragment_absent off1: id 2 absent\n"
        "[PASS] fragment_present on2: id 3 present\n"
        "[PASS] fragment_absent off3: id 4 absent\n"
        "realign_sweep: 6 check(s), 0 failed, 5 warning(s)\n"
    ),
    "regulation_loop": (
        "[PASS] kappa : kappa 0.500000 vs 0.5 ± 1e-09\n"
        "[PASS] kappa : kappa in plan 0.500000 vs 0.5 ± 1e-09\n"
        "[PASS] fragment_present open: id 1 present\n"
        "[PASS] fragment_present shut: id 2 present\n"
        "[PASS] kappa : kappa 1.000000 vs 1.0 ± 1e-09\n"
        "[PASS] fragment_absent open: id 1 absent\n"
        "[PASS] fragment_present shut: id 2 present\n"
        "[PASS] anchor shut: anchor 3.000000 vs 3.0\n"
        "[PASS] persistence shut: persistence 0.990050 vs 0.99005 ± 0.005\n"
        "regulation_loop: 9 check(s), 0 failed, 0 warning(s)\n"
    ),
    "sector_wipe": (
        "[PASS] fragment_present drain_open: id 13 present\n"
        "[PASS] fragment_absent drain_open: id 13 absent\n"
        "[PASS] fragment_present brief: id 1 present\n"
        "sector_wipe: 3 check(s), 0 failed, 0 warning(s)\n"
    ),
    "sensor_decay": (
        "[PASS] persistence steady: persistence 0.964290 vs 0.96429 ± 0.01\n"
        "[PASS] persistence mid: persistence 0.935507 vs 0.93551 ± 0.01\n"
        "[PASS] persistence faint: persistence 0.818731 vs 0.81873 ± 0.01\n"
        "[PASS] anchor steady: anchor 10.000000 vs 10.0\n"
        "[PASS] persistence steady: persistence 0.833753 vs 0.83368 ± 0.01\n"
        "[PASS] persistence mid: persistence 0.716531 vs 0.71653 ± 0.01\n"
        "[PASS] persistence faint: persistence 0.367879 vs 0.36788 ± 0.01\n"
        "[PASS] persistence steady: persistence 0.634736 vs 0.63462 ± 0.01\n"
        "[PASS] persistence mid: persistence 0.434598 vs 0.4346 ± 0.01\n"
        "[PASS] fragment_absent faint: id 3 absent\n"
        "[PASS] is_vacuum : vacuum=False\n"
        "sensor_decay: 11 check(s), 0 failed, 0 warning(s)\n"
    ),
}


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
@pytest.mark.parametrize("name", SHIPPED)
def test_run_output_is_pinned(name, strict, capsys):
    """Only realign_sweep logs warnings (5, counted from its trace), so only
    it exits 1 under --strict."""
    args = ["run", str(SCENARIOS / f"{name}.json")] + (["--strict"] if strict else [])
    assert main(args) == (1 if strict and name == "realign_sweep" else 0)
    assert capsys.readouterr().out == RUN_OUTPUT[name]


def test_verify_reports_divergence(tmp_path, capsys):
    doctored = tmp_path / "doctored.jsonl"
    lines = GOLDEN.read_text().splitlines()
    lines[1] = lines[1].replace('"command":false', '"command":true')
    doctored.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(doctored), str(GOLDEN)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIVERGED: line 2")


def test_verify_missing_file_is_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "ghost.jsonl"), str(GOLDEN)]) == 2
    assert "error:" in capsys.readouterr().err


NOT_TRACES = [
    ("", "empty trace: missing header line"),
    ("5\n[1]\n", "trace line 1: must be the header object"),
    (_trace(kind="k" * 3000),
     "trace line 2: unknown trace event kind 'kkkkkkkkkkkk...kkkkkkkkkkkkk'"),
    (TRACE_HEADER + '{"kind":"meta","seq":0,"tick":0}\n',
     "trace line 2: missing fields ['payload']"),
    (_trace(x=1), "trace line 2: unknown fields ['x']"),
]


@pytest.mark.parametrize(
    "text, message", NOT_TRACES,
    ids=["empty", "no-header", "long-kind", "no-payload", "extra-field"],
)
def test_verify_and_inspect_refuse_a_file_that_is_not_a_trace(tmp_path, capsys, text, message):
    """``verify`` reads each side as ``inspect`` does, through ``parse_trace``:
    a file that is not a trace is refused with exit 2 and one line naming the
    trace line and the side, whichever side it is on, even against itself."""
    bad = str(tmp_path / "bad.jsonl")
    Path(bad).write_text(text)
    for argv, side in (([bad, bad], "actual"), ([str(GOLDEN), bad], "golden")):
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message} (in the {side} trace)\n")
    assert main(["inspect", bad, "--metric", "kappa"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bytes_that_are_not_utf8_are_refused_by_line_or_file(tmp_path, capsys):
    """``verify`` and ``inspect`` name the trace line that holds such a
    byte, as they name every other fault; ``run`` names the scenario file."""
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(TRACE_HEADER.encode() + b'{"kind":"meta","payload":{"\xff":1}}\n')
    message = "trace line 2: not UTF-8 at column 28"
    assert main(["verify", str(trace), str(trace)]) == 2
    assert capsys.readouterr().err == f"error: {message} (in the actual trace)\n"
    assert main(["inspect", str(trace), "--metric", "kappa"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    scenario = tmp_path / "bad.json"
    scenario.write_bytes(b'{"name": "\xff"}')
    assert main(["run", str(scenario)]) == 2
    assert capsys.readouterr().err == (
        f"error: scenario {scenario} is not UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 10: invalid start byte\n")


FUZZED = SCENARIOS / "golden" / "regulation_loop.trace.jsonl"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """The path of every value inside a decoded JSON value, its own first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield from _paths(inner, (*prefix, key))


@st.composite
def mutated_golden(draw) -> bytes:
    """A shipped golden with one drawn fault: truncated within a line, a
    line replaced by a drawn JSON value, a key dropped from an event, a
    value swapped for one of another type, or an invalid UTF-8 byte."""
    lines = FUZZED.read_bytes().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    fault = draw(st.sampled_from(("truncate", "replace", "drop", "swap", "utf8")))
    if fault == "truncate":
        lines[i:] = [lines[i][:draw(st.integers(0, len(lines[i])))]]
    elif fault == "replace":
        lines[i] = json.dumps(draw(JSON_VALUES)).encode()
    elif fault == "utf8":
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
    else:
        record = json.loads(lines[i])
        keyed = [p for p in _paths(record) if p and isinstance(p[-1], str)]
        path = draw(st.sampled_from(keyed if fault == "drop" else list(_paths(record))[1:]))
        holder = record
        for key in path[:-1]:
            holder = holder[key]
        if fault == "drop":
            del holder[path[-1]]
        else:
            old = type(holder[path[-1]])
            holder[path[-1]] = draw(JSON_VALUES.filter(lambda v: type(v) is not old))
        lines[i] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return b"\n".join(lines) + b"\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=mutated_golden())
def test_verify_and_inspect_exit_0_1_or_2_on_a_mutated_golden(text, tmp_path_factory):
    """On any drawn fault, ``main`` returns and does not raise; ``verify``
    exits 2 exactly when ``parse_trace`` refuses a side, and a trace that
    parses matches itself."""
    path = tmp_path_factory.mktemp("fuzz") / "mutated.jsonl"
    path.write_bytes(text)
    try:
        parse_trace(path)
        parses = True
    except ValueError:
        parses = False
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        itself = main(["verify", str(path), str(path)])
        against = main(["verify", str(path), str(FUZZED)])
        inspected = [main(["inspect", str(path), "--metric", metric])
                     for metric in ("kappa", "load", "theta", "velocity")]
    assert itself == (0 if parses else 2)
    assert against in ((0, 1) if parses else (2,))
    assert set(inspected) <= ({0, 2} if parses else {2})


# A value of another type put in place of a scenario value: a list, null, a
# number or a string.
SWAPS = ([], ["x"], None, 0, -1, 2.5, "", "x")

# Raw text put in place of a scenario value: a list nested past the decoder's
# depth or within it, and the constants that JSON does not define but
# Python's decoder reads.
RAW = ("[" * 100_000 + "]" * 100_000, "[" * 900 + "]" * 900, "NaN", "Infinity", "-Infinity")


def _at(data, path):
    """The value at ``path`` inside ``data``."""
    for key in path:
        data = data[key]
    return data


@st.composite
def mutated_scenario(draw, names=tuple(SHIPPED)) -> bytes:
    """A shipped scenario, one of ``names``, with one to three drawn faults,
    each a value swapped for one of another type in ``SWAPS`` or for raw
    text in ``RAW``, a key dropped, or an unknown key added to an object;
    now and then followed by an invalid UTF-8 byte put in anywhere."""
    data = json.loads((SCENARIOS / f"{draw(st.sampled_from(names))}.json").read_text())
    raw = []
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(data))
        fault = draw(st.sampled_from(("swap", "drop", "add", "raw")))
        if fault == "add":
            path = draw(st.sampled_from([p for p in paths if isinstance(_at(data, p), dict)]))
            _at(data, path)[draw(st.sampled_from(("x", "Text", "anchr")))] = 0
            continue
        path = draw(st.sampled_from(paths[1:]))
        holder = _at(data, path[:-1])
        if fault == "drop" and isinstance(path[-1], str):
            del holder[path[-1]]
        elif fault == "raw":  # a marker string, replaced by the raw text once dumped
            holder[path[-1]] = f"\x00raw{len(raw)}"
            raw.append(draw(st.sampled_from(RAW)))
        else:  # a copy: a later fault may write inside a list it put in
            old = type(holder[path[-1]])
            holder[path[-1]] = copy.deepcopy(
                draw(st.sampled_from(SWAPS).filter(lambda v: type(v) is not old)))
    text = json.dumps(data)
    for k, value in enumerate(raw):
        text = text.replace(json.dumps(f"\x00raw{k}"), value)
    encoded = text.encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(encoded)))
        encoded = encoded[:at] + b"\xff" + encoded[at:]
    return encoded


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=mutated_scenario())
def test_run_exits_0_1_or_2_on_a_mutated_scenario(text, tmp_path_factory):
    """On any drawn fault, ``run`` returns and does not raise: exit 2 with
    one ``error:`` line, or exit 1 only with a failed check."""
    path = tmp_path_factory.mktemp("fuzz") / "mutated.json"
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        assert (code == 1) == ("[FAIL]" in out.getvalue())


def _late_observes(name):
    """The index of each observe of a shipped scenario that comes after a tick."""
    timeline = json.loads((SCENARIOS / f"{name}.json").read_text())["timeline"]
    ticks = [i for i, entry in enumerate(timeline) if entry["event"] == "tick"]
    return [i for i, entry in enumerate(timeline)
            if entry["event"] == "observe" and ticks and ticks[0] < i]


LATE_OBSERVES = [(name, i) for name in SHIPPED for i in _late_observes(name)]
# Values that are not strings, and values that int() or float() refuses.
NOT_STRINGS = ([], ["x"], 0, -1, 2.5, True)
NOT_NUMBERS = ("x", "", [], None, {"a": 1})


@st.composite
def observe_fault(draw):
    """A shipped scenario with one fault in one spec of an observe that
    comes after a tick: an unknown field, a text, key or name that is not a
    string, or a level, anchor or persistence that is not a number.  Returns
    the scenario's name, its faulted JSON, the entry and spec indexes, and
    whether the fault is a number, which the observe converts only when it
    runs."""
    name, i = draw(st.sampled_from(LATE_OBSERVES))
    data = json.loads((SCENARIOS / f"{name}.json").read_text())
    specs = data["timeline"][i]["specs"]
    j = draw(st.integers(0, len(specs) - 1))
    fault = draw(st.sampled_from(("unknown", "text", "key", "name", "number")))
    if fault == "unknown":
        specs[j][draw(st.sampled_from(("anchr", "Text", "colour")))] = draw(st.sampled_from(SWAPS))
    elif fault == "number":
        field = draw(st.sampled_from(("level", "anchor", "persistence")))
        specs[j][field] = draw(st.sampled_from(NOT_NUMBERS))
    else:
        specs[j][fault] = draw(st.sampled_from(NOT_STRINGS))
    return name, json.dumps(data), i, j, fault == "number"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=observe_fault())
def test_a_drawn_observe_spec_fault_is_refused_at_load_or_at_its_tick(case, tmp_path_factory):
    """A spec's field names and the types of its text, key and name are
    refused before tick 0, with no trace written; a number that does not
    convert is refused when its observe runs, and the trace written is the
    golden's prefix up to it, the ticks before included."""
    name, text, i, j, at_tick = case
    folder = tmp_path_factory.mktemp("fuzz")
    path, trace = folder / "mutated.json", folder / "mutated.jsonl"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(path), "--trace", str(trace)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: timeline[{i}].specs[{j}]: ")
    assert err.getvalue().count("\n") == 1
    if not at_tick:
        assert not trace.exists()
        return
    lines = trace.read_bytes().splitlines()
    assert lines == (SCENARIOS / "golden" / f"{name}.trace.jsonl").read_bytes().splitlines()[
        :len(lines)]
    assert "meta" in {e.kind for e in parse_trace(trace)[1]}  # the ticks before it ran


GAUGE_STATES = ("word_order_a", "word_order_b", "claim_pos", "claim_neg")


@pytest.mark.parametrize("name", ["orientation_axis", "realign_sweep", "gauge_pair"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_tower_and_gauge_exit_0_1_or_2_on_a_mutated_scenario(name, data, tmp_path_factory):
    """``tower`` on a mutated axis scenario and ``gauge`` on a mutated
    state pair return and do not raise: exit 2 with one ``error:`` line,
    exit 1 only for a gauge inequivalence, else exit 0."""
    path = tmp_path_factory.mktemp("fuzz") / f"{name}.json"
    path.write_bytes(data.draw(mutated_scenario(names=(name,))))
    if name == "gauge_pair":
        a, b = (data.draw(st.sampled_from(GAUGE_STATES)) for _ in range(2))
        args = ["gauge", str(path), "--state-a", a, "--state-b", b]
    else:
        axis = json.loads((SCENARIOS / f"{name}.json").read_text())["axes"][0]["label"]
        args = ["tower", str(path), "--axis", axis]
        max_k = data.draw(st.sampled_from((None, 0, 1, 3)))
        if max_k is not None:
            args += ["--max-k", str(max_k)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        inequivalent = "inequivalent: witness probe" in out.getvalue()
        assert (code == 1) == (args[0] == "gauge" and inequivalent)


def test_the_readme_scenario_runs_and_passes_its_check(tmp_path, capsys):
    """The README's scenario example, its ``//`` comments stripped, runs
    with exit 0, and the README lists each timeline event's fields as the
    loader's table has them."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(re.sub(r"\s*//[^\n]*", "", example), encoding="utf-8")
    assert main(["run", str(path)]) == 0
    assert "[PASS] fragment_present hum" in capsys.readouterr().out
    prose = " ".join(readme.split())
    for event, defaults in _TIMELINE.items():
        assert f"`{event}` {{{', '.join(f'`{f}`' for f in defaults)}}}" in prose


def test_the_readme_lists_each_clause_kinds_fields_as_the_table_has_them():
    prose = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    for kind, reads in execution._CLAUSES.items():
        assert f"`{kind}` {{{', '.join(f'`{f}`' for f in reads)}}}" in prose
