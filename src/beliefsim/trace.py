"""Run traces: canonical JSONL emission, parsing, and golden comparison.

Every run writes one header line followed by one line per event.  Numbers are
canonicalized (9 significant digits, negative zero collapsed) before
serialization and keys are sorted, so identical runs produce byte-identical
files on any platform — which is what makes golden-trace testing meaningful.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Iterator

FORMAT_TAG = "belief-trace/1"

EVENT_KINDS = frozenset(
    {
        "ingest",
        "assimilate",
        "nullify_prune",
        "drift",
        "query",
        "retrieve",
        "integrate",
        "meta",
        "regulate_action",
        "effort_skip",
        "action_decision",
        "correction",
        "warning",
        "assertion_result",
    }
)

FLOAT_TOL = 1e-9


def _canon_float(x: float) -> float:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot enter a trace")
    if x == 0.0:
        return 0.0
    return float(f"{x:.9g}")


def _canonicalize(obj: Any) -> Any:
    if isinstance(obj, str) or obj is None or isinstance(obj, bool):
        return obj
    if isinstance(obj, int):  # refused as the reader refuses it
        if not -sys.float_info.max <= obj <= sys.float_info.max:
            raise ValueError(
                f"integer of {obj.bit_length()} bits is outside the float range "
                "and cannot enter a trace")
        return obj
    if isinstance(obj, float):
        return _canon_float(obj)
    if isinstance(obj, dict):
        return {str(k): _canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonicalize(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a trace")


def canonical_json(obj: Any) -> str:
    """Deterministic one-line JSON: sorted keys, compact, canonical floats."""
    return json.dumps(_canonicalize(obj), sort_keys=True, separators=(",", ":"))


def record_dict(record: Any) -> dict[str, Any]:
    """A record's trace form: ``{field: value}`` over its dataclass fields,
    a tuple written as a list and a mapping as a dict.  One level only, and
    no deep copy (``asdict`` would copy every payload): a record's fields
    hold plain values."""
    out = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Mapping):
            value = dict(value)
        out[f.name] = value
    return out


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    tick: float
    kind: str
    payload: dict

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind {self.kind!r}")


@dataclass
class TraceLog:
    """Accumulates one run's header and ordered events."""

    header: dict
    events: list[TraceEvent] = field(default_factory=list)

    def emit(self, kind: str, tick: float, payload: dict) -> TraceEvent:
        event = TraceEvent(seq=len(self.events), tick=tick, kind=kind, payload=payload)
        self.events.append(event)
        return event

    def lines(self) -> Iterator[str]:
        yield canonical_json({"header": self.header})
        for event in self.events:
            yield canonical_json(record_dict(event))

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.render(), encoding="utf-8")


def make_header(
    scenario: str, seed: int, mode: str, config_echo: dict
) -> dict:
    return {
        "scenario": scenario,
        "seed": seed,
        "mode": mode,
        "config": config_echo,
        "format": FORMAT_TAG,
    }


def _float_in_range(text: str) -> float:
    """A JSON float as ``float`` reads it, refused if it overflows to ±inf."""
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {reprlib.repr(text)} is outside the float range")
    return value


def _int_in_range(text: str) -> int:
    """A JSON integer as ``int`` reads it, refused beyond ±``float_info.max``:
    a reader of the trace takes it as a float."""
    value = int(text)
    if not -sys.float_info.max <= value <= sys.float_info.max:
        raise ValueError(
            f"integer of {len(text.lstrip('-'))} digits is outside the float range")
    return value


def _json_line(line: str, number: int) -> Any:
    """One trace line decoded, or a ValueError naming it: the writer emits
    no NaN or infinity, no number outside the float range, and no nesting
    past the decoder's recursion limit, and writes UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"trace line {number}: not UTF-8 at column {exc.start + 1}") from None
    try:
        return json.loads(line, parse_constant=lambda name: _canon_float(float(name)),
                          parse_float=_float_in_range, parse_int=_int_in_range)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"trace line {number}: invalid JSON at column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"trace line {number}: {exc}") from None


def parse_trace(source: str | Path | Iterable[str]) -> tuple[dict, list[TraceEvent]]:
    """Read a trace back; inverse of TraceLog.render for well-formed files.

    Anything else raises ValueError naming the trace line at fault.
    """
    if isinstance(source, (str, Path)):
        # A byte that is not UTF-8 is kept as a lone surrogate, which its
        # line's decode then refuses by line number.
        source = Path(source).read_bytes().decode("utf-8", "surrogateescape").splitlines()
    lines = [ln for ln in source if ln.strip()]
    if not lines:
        raise ValueError("empty trace: missing header line")
    first = _json_line(lines[0], 1)
    if not isinstance(first, dict) or not isinstance(first.get("header"), dict):
        raise ValueError("trace line 1: must be the header object")
    if len(first) > 1:
        unknown = sorted(set(first) - {"header"})
        raise ValueError(f"trace line 1: unknown fields {reprlib.repr(unknown)}")
    events = []
    for i, line in enumerate(lines[1:], start=2):
        raw = _json_line(line, i)
        if not isinstance(raw, dict):
            raise ValueError(f"trace line {i}: an event must be a JSON object")
        missing = sorted({"seq", "tick", "kind", "payload"} - set(raw))
        if missing:
            raise ValueError(f"trace line {i}: missing fields {missing}")
        if len(raw) > 4:
            unknown = sorted(set(raw) - {"seq", "tick", "kind", "payload"})
            raise ValueError(f"trace line {i}: unknown fields {reprlib.repr(unknown)}")
        seq, tick, kind, payload = (raw[k] for k in ("seq", "tick", "kind", "payload"))
        if not isinstance(seq, int) or isinstance(seq, bool):
            raise ValueError(f"trace line {i}: seq must be an integer")
        if not isinstance(tick, (int, float)) or isinstance(tick, bool):
            raise ValueError(f"trace line {i}: tick must be a number")
        if not isinstance(payload, dict):
            raise ValueError(f"trace line {i}: payload must be an object")
        if not isinstance(kind, str) or kind not in EVENT_KINDS:
            raise ValueError(
                f"trace line {i}: unknown trace event kind {reprlib.repr(kind)}")
        events.append(TraceEvent(seq=seq, tick=tick, kind=kind, payload=payload))
    return first["header"], events


# --------------------------------------------------------------------------
# Golden comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Divergence:
    line: int
    path: str
    actual: Any
    expected: Any

    def describe(self) -> str:
        return (
            f"line {self.line}, at {self.path or '$'}: "
            f"actual={_shown(self.actual)} expected={_shown(self.expected)}"
        )


def _shown(value: Any) -> str:
    """A value as a message shows it: a number whole, anything else bounded."""
    return repr(value) if isinstance(value, (int, float)) else reprlib.repr(value)


@dataclass(frozen=True)
class VerifyResult:
    matched: bool
    divergence: Divergence | None = None


def _compare(actual: Any, expected: Any, path: str) -> tuple[bool, str, Any, Any]:
    if isinstance(actual, bool) or isinstance(expected, bool):
        # true != 1: booleans only ever match other booleans.
        ok = isinstance(actual, bool) and isinstance(expected, bool) and actual == expected
        return (ok, path, actual, expected)
    if isinstance(actual, (int, float)) and isinstance(expected, (int, float)):
        ok = abs(float(actual) - float(expected)) <= FLOAT_TOL
        return (ok, path, actual, expected)
    if isinstance(actual, dict) and isinstance(expected, dict):
        if set(actual) != set(expected):
            missing = sorted(set(actual) ^ set(expected))
            return (False, f"{path}.{missing[0]}", actual.get(missing[0]), expected.get(missing[0]))
        for key in sorted(actual):
            ok, where, a, e = _compare(actual[key], expected[key], f"{path}.{key}")
            if not ok:
                return (False, where, a, e)
        return (True, path, actual, expected)
    if isinstance(actual, list) and isinstance(expected, list):
        if len(actual) != len(expected):
            return (False, f"{path}.length", len(actual), len(expected))
        for i, (a_item, e_item) in enumerate(zip(actual, expected)):
            ok, where, a, e = _compare(a_item, e_item, f"{path}[{i}]")
            if not ok:
                return (False, where, a, e)
        return (True, path, actual, expected)
    return (actual == expected, path, actual, expected)


def verify_golden(
    actual: str | Path | Iterable[str],
    golden: str | Path | Iterable[str],
) -> VerifyResult:
    """Structural comparison with per-number tolerance; first divergence wins.

    A length mismatch is reported at the first line the shorter side lacks,
    so a truncated run points at exactly where it stopped.  Each side is read
    by ``parse_trace``, and its refusal is raised with the side named.
    """
    sides = []
    for source, side in ((actual, "actual"), (golden, "golden")):
        try:
            header, events = parse_trace(source)
        except ValueError as exc:
            raise ValueError(f"{exc} (in the {side} trace)") from None
        sides.append([{"header": header}, *map(record_dict, events)])
    actual_lines, golden_lines = sides
    for i, (a_line, g_line) in enumerate(zip(actual_lines, golden_lines), start=1):
        ok, where, a, e = _compare(a_line, g_line, "")
        if not ok:
            return VerifyResult(False, Divergence(line=i, path=where, actual=a, expected=e))
    if len(actual_lines) != len(golden_lines):
        short = min(len(actual_lines), len(golden_lines))
        return VerifyResult(False, Divergence(
            line=short + 1, path=".length", actual=len(actual_lines), expected=len(golden_lines)))
    return VerifyResult(True, None)


__all__ = [
    "Divergence",
    "EVENT_KINDS",
    "FLOAT_TOL",
    "FORMAT_TAG",
    "TraceEvent",
    "TraceLog",
    "VerifyResult",
    "canonical_json",
    "make_header",
    "parse_trace",
    "record_dict",
    "verify_golden",
]
