"""Command-line front end.

Subcommands:

  run      execute a scenario timeline, report expectation checks,
           optionally write the canonical trace
  tower    build the abstraction tower for one declared axis and show
           its convergence profile
  gauge    probe two declared states for behavioral equivalence
  inspect  print a metric series (kappa, load, theta, velocity) from a trace
  verify   compare a trace against a golden trace with numeric tolerance

Exit codes: 0 success, 1 failed checks (expectations, inequivalence,
divergence, or warnings under --strict), 2 usage or load errors.
"""

from __future__ import annotations

import argparse
import reprlib
import sys
from pathlib import Path

from .core import IdAllocator
from .gauge import gauge_equivalent
from .simulator import RUN_MODES, ScenarioError, SimulationRun, load_scenario
from .tower import build_tower
from .trace import parse_trace, verify_golden


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefsim",
        description="Deterministic belief-state engine and scenario simulator.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="execute a scenario timeline")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--trace", help="write the canonical JSONL trace here")
    p_run.add_argument(
        "--strict", action="store_true",
        help="treat engine warnings as failures",
    )
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument(
        "--mode", choices=RUN_MODES, default="live",
        help="initial run mode (simulation blocks outward actions)",
    )

    p_tower = sub.add_parser("tower", help="build one axis' abstraction tower")
    p_tower.add_argument("scenario")
    p_tower.add_argument("--axis", required=True, help="axis label to build")
    p_tower.add_argument("--max-k", type=int, help="override the step limit")

    p_gauge = sub.add_parser("gauge", help="probe two states for equivalence")
    p_gauge.add_argument("scenario")
    p_gauge.add_argument("--state-a", required=True)
    p_gauge.add_argument("--state-b", required=True)

    p_inspect = sub.add_parser("inspect", help="print a metric series")
    p_inspect.add_argument("trace")
    p_inspect.add_argument(
        "--metric", required=True,
        choices=("kappa", "load", "theta", "velocity"),
    )

    p_verify = sub.add_parser("verify", help="compare a trace to a golden")
    p_verify.add_argument("trace")
    p_verify.add_argument("golden")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    run = SimulationRun(scenario, seed=args.seed, mode=args.mode)
    try:
        run.run()
    finally:  # a run refused at a tick still leaves the trace of its ticks before
        if args.trace:
            run.trace.write(args.trace)
    for outcome in run.assertions:
        tag = "PASS" if outcome.ok else "FAIL"
        label = outcome.spec.get("name") or outcome.spec.get("action") or ""
        print(f"[{tag}] {outcome.check} {label}: {outcome.detail}".rstrip())
    fired = sorted(set(run.fired))
    if fired:
        print(f"actions fired: {', '.join(fired)}")
    failed, warnings = len(run.failures), run.warnings
    print(f"{scenario.name}: {len(run.assertions)} check(s), {failed} failed, "
          f"{warnings} warning(s)")
    return 1 if failed or (args.strict and warnings) else 0


def _cmd_tower(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    towers = scenario.towers
    if args.axis not in towers:
        raise ScenarioError(f"no axis {args.axis!r}; scenario declares {list(towers)}")
    trajectory, _ = towers[args.axis]
    if args.max_k is not None:  # rebuild from the kept seed, ids above the seed's
        seed = trajectory.levels[0]
        ids = IdAllocator(max(seed.ids()) + 1)
        trajectory = build_tower(seed, args.max_k, scenario.config, ids)
    for i, level in enumerate(trajectory.levels):
        top = max((f.level for f in level.rows), default=0)
        print(f"step {i}: {len(level.rows)} fragment(s), top level {top}")
    status = "converged" if trajectory.converged else "not converged"
    print(
        f"{status} after {len(trajectory.levels) - 1} step(s); "
        f"final gap {trajectory.fixpoint_gap:.3e}"
    )
    return 0


def _cmd_gauge(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    states = scenario.states
    for side in (args.state_a, args.state_b):
        if side not in states:
            raise ScenarioError(f"no state {side!r}; scenario declares {sorted(states)}")
    verdict = gauge_equivalent(states[args.state_a], states[args.state_b], scenario.config)
    for row in verdict.rows:
        mark = "agree" if row.matched else "DIFFER"
        print(f"{row.probe} [{row.kind}]: {mark}")
    if verdict.equivalent:
        print(f"equivalent under suite 'default' ({len(verdict.rows)} probes)")
        return 0
    print(f"inequivalent: witness probe {verdict.witness!r}")
    return 1


def _number(value: object, line: int, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"trace line {line}: {path} must be a number, got {reprlib.repr(value)}")
    return value


def _object(value: object, line: int, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(
            f"trace line {line}: {path} must be an object, got {reprlib.repr(value)}")
    return value


def _cmd_inspect(args: argparse.Namespace) -> int:
    _, events = parse_trace(Path(args.trace))
    for line, event in enumerate(events, start=2):  # line 1 is the header
        if event.kind != "meta":
            continue
        report = _object(event.payload.get("report", {}), line, "report")
        if args.metric == "theta":
            by_axis = _object(report.get("theta_by_axis", {}), line, "report.theta_by_axis")
            for label, value in sorted(by_axis.items()):
                value = _number(value, line, f"report.theta_by_axis.{label}")
                print(f"{event.tick:g}\t{label}\t{value:.9g}")
            continue
        key = {
            "kappa": "kappa_global",
            "load": "load",
            "velocity": "velocity",
        }[args.metric]
        if key in report:
            print(f"{event.tick:g}\t{_number(report[key], line, f'report.{key}'):.9g}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = verify_golden(Path(args.trace), Path(args.golden))
    if result.matched:
        print("MATCH")
        return 0
    print(f"DIVERGED: {result.divergence.describe()}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    handlers = {
        "run": _cmd_run,
        "tower": _cmd_tower,
        "gauge": _cmd_gauge,
        "inspect": _cmd_inspect,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.cmd](args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
