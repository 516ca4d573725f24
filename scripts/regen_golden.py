#!/usr/bin/env python3
"""Regenerate the frozen golden trace of every shipped scenario.

Each ``scenarios/<name>.json`` is run with its own seed and written to
``scenarios/golden/<name>.trace.jsonl``.  Run after any intentional change to
trace semantics, then review the diff: the golden files are the contract that
replays must reproduce byte-for-byte.
"""

from pathlib import Path

from beliefsim.simulator import run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN_DIR = SCENARIOS / "golden"


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for scenario in sorted(SCENARIOS.glob("*.json")):
        result = run_scenario(scenario)
        if not result.ok:
            details = [a.detail for a in result.failures]
            raise SystemExit(
                f"{scenario.name}: scenario checks failed; refusing to freeze: {details}"
            )
        golden = GOLDEN_DIR / f"{scenario.stem}.trace.jsonl"
        result.trace.write(golden)
        print(f"wrote {golden.relative_to(ROOT)} ({len(result.trace.events)} events)")


if __name__ == "__main__":
    main()
