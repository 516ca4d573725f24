"""Canonical JSONL emission, parsing, and golden comparison."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefsim.memory import QueryCue
from beliefsim.simulator import run_scenario
from beliefsim.trace import (
    FORMAT_TAG,
    Divergence,
    TraceEvent,
    TraceLog,
    canonical_json,
    make_header,
    parse_trace,
    record_dict,
    verify_golden,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# --------------------------------------------------------------------------
# Canonical JSON
# --------------------------------------------------------------------------

def test_keys_are_sorted_and_output_compact():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_floats_canonicalized_to_nine_significant_digits():
    assert canonical_json(0.1234567891234) == "0.123456789"
    assert canonical_json(1.0) == "1.0"


def test_negative_zero_collapses():
    assert canonical_json(-0.0) == "0.0"


def test_integers_and_bools_pass_through():
    assert canonical_json({"n": 3, "flag": True, "none": None}) == (
        '{"flag":true,"n":3,"none":null}'
    )


def test_tuples_become_arrays():
    assert canonical_json((1, 2)) == "[1,2]"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(bad)


def test_integers_beyond_the_float_range_rejected():
    """The writer refuses an integer the reader would refuse, and emits the
    largest one a float holds as the reader takes it back."""
    top = int(sys.float_info.max)
    header, _ = parse_trace([canonical_json({"header": {"n": [top, -top]}})])
    assert header == {"n": [top, -top]}
    for bad in (top + 1, -top - 1, -(10**400)):
        with pytest.raises(ValueError, match="outside the float range"):
            canonical_json({"n": [bad]})


def test_unknown_types_rejected():
    with pytest.raises(TypeError, match="set"):
        canonical_json({"x": {1, 2}})


@settings(max_examples=80, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_canonicalization_is_idempotent(x):
    once = canonical_json(x)
    twice = canonical_json(json.loads(once))
    assert once == twice


# --------------------------------------------------------------------------
# Records
# --------------------------------------------------------------------------

def test_a_record_is_written_as_its_fields():
    assert record_dict(QueryCue("goal", ("map", "route"))) == {
        "kind": "goal", "tokens": ["map", "route"]}
    payload = {"report": {"load": 0.5}}
    event = record_dict(TraceEvent(seq=0, tick=1.0, kind="meta", payload=payload))
    assert event == {"seq": 0, "tick": 1.0, "kind": "meta", "payload": payload}
    # One level only: the payload's own values are not copied.
    assert event["payload"]["report"] is payload["report"]
    proxy = record_dict(TraceEvent(0, 0.0, "meta", MappingProxyType({"a": 1})))
    assert type(proxy["payload"]) is dict


PLAIN = (dict, list, str, int, float, bool, type(None))


def _plain(value) -> bool:
    """Only JSON's own types, a dict keyed by strings: no record, no tuple."""
    if type(value) is dict:
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_plain, value))
    return type(value) in PLAIN


def test_shipped_runs_hold_plain_payloads_in_memory():
    """Records become dicts and lists when emitted, not when written, so a
    reader of the in-memory trace (the benchmark's event counts) sees what a
    reader of the file sees."""
    kinds = set()
    for path in sorted(SCENARIOS.glob("*.json")):
        trace = run_scenario(path).trace
        assert _plain(trace.header), path.stem
        for event in trace.events:
            assert _plain(event.payload), (path.stem, event.kind, event.payload)
            kinds.add(event.kind)
    assert {"assimilate", "regulate_action", "meta", "query", "integrate",
            "action_decision"} <= kinds


# --------------------------------------------------------------------------
# Trace log
# --------------------------------------------------------------------------

def make_log() -> TraceLog:
    header = make_header("demo", seed=3, mode="active", config_echo={"delta": 0.1})
    return TraceLog(header=header)


def test_event_kind_validated():
    with pytest.raises(ValueError, match="kind"):
        TraceEvent(seq=0, tick=0.0, kind="gossip", payload={})


def test_emit_assigns_sequence_numbers():
    log = make_log()
    first = log.emit("ingest", 0.0, {"ids": [1]})
    second = log.emit("assimilate", 0.0, {"added": [1]})
    assert (first.seq, second.seq) == (0, 1)
    assert len(log.events) == 2


def test_header_line_comes_first_and_carries_format_tag():
    log = make_log()
    log.emit("ingest", 0.0, {"ids": [1]})
    lines = list(log.lines())
    head = json.loads(lines[0])
    assert set(head) == {"header"}
    assert head["header"]["format"] == FORMAT_TAG
    assert head["header"]["scenario"] == "demo"
    body = json.loads(lines[1])
    assert body["kind"] == "ingest"


def test_render_ends_with_newline():
    text = make_log().render()
    assert text.endswith("\n")
    assert not text.endswith("\n\n")


def test_write_and_parse_round_trip(tmp_path):
    log = make_log()
    log.emit("ingest", 0.0, {"ids": [1, 2]})
    log.emit("meta", 1.0, {"report": {"load": 0.52}})
    path = tmp_path / "run.trace.jsonl"
    log.write(path)
    header, events = parse_trace(path)
    assert header == log.header
    assert [e.kind for e in events] == ["ingest", "meta"]
    assert events[1].payload == {"report": {"load": 0.52}}
    assert [e.seq for e in events] == [0, 1]


def test_parse_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty trace"):
        parse_trace(path)


def test_parse_rejects_missing_header():
    lines = ['{"seq":0,"tick":0.0,"kind":"ingest","payload":{}}']
    with pytest.raises(ValueError, match="header"):
        parse_trace(lines)


def test_parse_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    """Counted as every other refusal counts lines: blank lines skipped."""
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"header":{}}\n\n{"kind":"me\xe9ta"}\n')
    with pytest.raises(ValueError, match=r"^trace line 2: not UTF-8 at column 12$"):
        parse_trace(path)


def test_parse_reports_bad_line_number():
    header = '{"header":{"scenario":"x"}}'
    good = '{"seq":0,"tick":0.0,"kind":"ingest","payload":{}}'
    bad_events = [
        '{"seq":1,"tick":0.0,"kind":"gossip","payload":{}}',
        "[1,2]",
        '{"seq":1,"tick":0.0,"kind":"ingest"',
        '{"seq":1,"tick":0.0,"kind":"ingest"}',
        '{"seq":true,"tick":0.0,"kind":"ingest","payload":{}}',
        '{"seq":1,"tick":"0","kind":"ingest","payload":{}}',
        '{"seq":1,"tick":0.0,"kind":["ingest"],"payload":{}}',
        '{"seq":1,"tick":0.0,"kind":"ingest","payload":[]}',
        '{"seq":1,"tick":0.0,"kind":"ingest","payload":{},"x":1}',
        # Nothing the writer emits: a non-finite constant, or nesting past
        # the decoder's recursion limit.
        '{"seq":1,"tick":0.0,"kind":"ingest","payload":{"x":NaN}}',
        '{"seq":1,"tick":Infinity,"kind":"ingest","payload":{}}',
        '{"seq":1,"tick":0.0,"kind":"ingest","payload":{"x":[-Infinity]}}',
        '{"seq":1,"tick":0.0,"kind":"ingest","payload":' + "[" * 100_000 + "]" * 100_000 + "}",
    ]
    for bad in bad_events:
        with pytest.raises(ValueError, match=r"^trace line 3: "):
            parse_trace([header, good, bad])
    for bad_header in ("5", '{"header":5}', "{", '{"header":{},"x":1}'):
        with pytest.raises(ValueError, match=r"^trace line 1: "):
            parse_trace([bad_header, good])
    with pytest.raises(ValueError, match=r"^trace line 2: invalid JSON"):
        verify_golden([header, "{"], [header, good])
    with pytest.raises(ValueError, match=r"^trace line 2: invalid JSON"):
        verify_golden([header, good], [header, "[1,"])
    for bad in bad_events[-4:]:
        with pytest.raises(ValueError, match=r"^trace line 2: "):
            verify_golden([header, bad], [header, bad])


def test_render_is_deterministic():
    def build():
        log = make_log()
        log.emit("ingest", 0.0, {"ids": [1], "weight": 0.30000000000000004})
        log.emit("drift", 1.0, {"text": "rain"})
        return log.render()

    assert build() == build()


# --------------------------------------------------------------------------
# Golden comparison
# --------------------------------------------------------------------------

GOLD = [
    '{"header":{"scenario":"x","format":"belief-trace/1"}}',
    '{"kind":"ingest","payload":{"ids":[1,2],"weight":0.5},"seq":0,"tick":0.0}',
    '{"kind":"meta","payload":{"report":{"load":1.42}},"seq":1,"tick":1.0}',
]


def test_verify_identical_lines_match():
    result = verify_golden(GOLD, GOLD)
    assert result.matched
    assert result.divergence is None


def test_verify_tolerates_tiny_float_noise():
    wobbly = list(GOLD)
    wobbly[1] = wobbly[1].replace("0.5", "0.5000000001")
    assert verify_golden(wobbly, GOLD).matched


def test_verify_catches_value_drift_with_dotted_path():
    off = list(GOLD)
    off[2] = off[2].replace("1.42", "1.52")
    result = verify_golden(off, GOLD)
    assert not result.matched
    d = result.divergence
    assert d.line == 3
    assert d.path == ".payload.report.load"
    assert d.actual == 1.52
    assert d.expected == 1.42
    assert "line 3" in d.describe()


def test_a_divergence_shows_numbers_whole_and_other_values_bounded():
    big = 10 ** 300
    shown = Divergence(line=2, path=".payload.x", actual=big, expected=["y" * 3000]).describe()
    assert shown == f"line 2, at .payload.x: actual={big} expected=['yyyyyyyyyyyy...yyyyyyyyyyyyy']"


def test_verify_catches_list_element_change():
    off = list(GOLD)
    off[1] = off[1].replace("[1,2]", "[1,3]")
    result = verify_golden(off, GOLD)
    assert not result.matched
    assert result.divergence.path == ".payload.ids[1]"


def test_verify_catches_list_length_change():
    off = list(GOLD)
    off[1] = off[1].replace("[1,2]", "[1]")
    result = verify_golden(off, GOLD)
    assert not result.matched
    assert result.divergence.path == ".payload.ids.length"


def test_verify_catches_missing_key():
    off = list(GOLD)
    off[1] = off[1].replace(',"weight":0.5', "")
    result = verify_golden(off, GOLD)
    assert not result.matched
    assert result.divergence.path == ".payload.weight"


def test_verify_reports_truncation_at_next_line():
    result = verify_golden(GOLD[:2], GOLD)
    assert not result.matched
    assert result.divergence.line == 3
    assert result.divergence.path == ".length"
    assert result.divergence.actual == 2
    assert result.divergence.expected == 3


def test_verify_distinguishes_bool_from_number():
    a = ['{"header":{"x":true}}']
    b = ['{"header":{"x":1}}']
    assert not verify_golden(a, b).matched


def test_verify_reads_files(tmp_path):
    actual = tmp_path / "a.jsonl"
    golden = tmp_path / "b.jsonl"
    actual.write_text("\n".join(GOLD) + "\n")
    golden.write_text("\n".join(GOLD) + "\n")
    assert verify_golden(actual, golden).matched
