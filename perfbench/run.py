"""beliefsim benchmark: end-to-end and per-layer costs of seeded scenarios.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload generator (workloads.py) turns the seed into a scenario file.
Each run executes that scenario in a fresh interpreter (one_run.py), and
every trace a run writes is checked: against the committed golden when one
exists for this workload and seed, and against every other trace of the
same invocation, so a run that drifts or is not deterministic counts as
failed.  Runs repeat for about ``--seconds`` seconds, always at least one.

``--trace 0`` reports the end-to-end metrics, medians over runs: ``wall_s``
(load, run, trace written), ``setup_s`` (load plus construction), the tick
latency percentiles pooled over every tick of every run, and the run
process's peak RSS.  ``--trace 1`` alternates plain and traced runs and
reports the per-layer metrics of the traced ones (layers.py), plus the
tracing overhead.  Every time is host time, scaled to a reference host
speed (hostspeed.py); the raw medians are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report that also states failed_frac, each trace's sha256 and
the machine the numbers come from.  Exit status is 0 when every run passed,
1 when some did not, and 2 when the engine's source cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from hostspeed import scale  # noqa: E402
from layers import PER_LAYER  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "tick_ms.p50": "ms",
    "tick_ms.p95": "ms",
    "peak_rss_mb": "MB",
}

# Set-up is short and noisy, so every invocation measures it at least this
# many times, with set-up-only runs when too few full runs fit.
MIN_SETUPS = 7
# No invocation may outlive this, whatever --seconds says.
HARD_LIMIT_S = 170.0


def golden_path(workload: str, seed: int) -> Path:
    return GOLDEN_DIR / f"{workload}.s{seed}.trace.jsonl"


def stamp() -> dict:
    """What the numbers depend on besides the code: they compare only
    between runs with the same stamp."""
    commit = "unknown"  # a checkout that is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "beliefsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


class Session:
    """The runs of one invocation, their checks and their tally."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.work = work
        self.scenario = work / "scenario.json"
        self.scenario.write_bytes(workloads.scenario_bytes(workload, seed))
        golden = golden_path(workload, seed)
        self.golden = golden if golden.exists() else None
        self.start = time.monotonic()
        self.soft_deadline = self.start + seconds
        self.hard_deadline = self.start + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.reference_digest: str | None = None
        self.deterministic = True

    def run(self, mode: str) -> dict | None:
        """One fresh-process run; None if it failed any check."""
        self.attempted += 1
        trace = self.work / f"trace-{self.attempted}.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "one_run.py"), str(self.scenario),
                 str(trace), "--mode", mode],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.hard_deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print(f"run {self.attempted} ({mode}): timed out")
            self.failed += 1
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            print(f"run {self.attempted} ({mode}): exit {proc.returncode}: {tail[0]}")
            self.failed += 1
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode != "setup" and not self._check(trace, mode):
            self.failed += 1
            return None
        return result

    def _check(self, trace: Path, mode: str) -> bool:
        from beliefsim.trace import verify_golden

        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        verdict = "no golden for this seed"
        ok = True
        if self.golden is not None:
            outcome = verify_golden(trace, self.golden)
            ok = outcome.matched
            verdict = "MATCH" if ok else "DIVERGED " + outcome.divergence.describe()
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            self.deterministic = False
            ok = False
            verdict += "; differs from the first trace of this invocation"
        print(f"run {self.attempted} ({mode}): trace sha256 {digest} {verdict}")
        trace.unlink()
        return ok

    def time_left_for(self, seconds: float) -> bool:
        """Whether another round that takes ``seconds`` ends by the deadline,
        give or take half a round."""
        return time.monotonic() + seconds / 2 <= self.soft_deadline


def end_to_end(session: Session) -> dict[str, float]:
    runs, setups = [], []
    while True:
        began = time.monotonic()
        result = session.run("run")
        if result is not None:
            runs.append(result)
            setups.append(result)
        if not session.time_left_for(time.monotonic() - began):
            break
    while len(setups) < MIN_SETUPS and time.monotonic() < session.hard_deadline - 30:
        result = session.run("setup")
        if result is not None:
            setups.append(result)
    if not runs:
        return {}
    ticks = [t * scale(*r["probe_ns"]) for r in runs for t in r["ticks_ns"]]
    p95 = statistics.quantiles(ticks, n=20)[18] if len(ticks) > 1 else ticks[0]
    beyond = sum(t > p95 for t in ticks)
    print(f"{len(runs)} runs, {len(setups)} set-ups, {len(ticks)} ticks pooled "
          f"({beyond} beyond p95)")
    print(f"raw medians: wall_s {statistics.median(r['wall_ns'] for r in runs) / 1e9:.6g}"
          f", setup_s {statistics.median(r['setup_ns'] for r in setups) / 1e9:.6g}"
          f"; host probe median {statistics.median(p for r in runs for p in r['probe_ns']) / 1e6:.4g} ms")
    return {
        "wall_s": statistics.median(r["wall_ns"] * scale(*r["probe_ns"]) for r in runs) / 1e9,
        "setup_s": statistics.median(r["setup_ns"] * scale(*r["probe_ns"]) for r in setups) / 1e9,
        "tick_ms.p50": statistics.median(ticks) / 1e6,
        "tick_ms.p95": p95 / 1e6,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in runs) / 1024,
    }


def per_layer(session: Session) -> tuple[dict[str, float], list[str]]:
    plain, traced = [], []
    while True:
        began = time.monotonic()
        for mode, into in (("run", plain), ("traced", traced)):
            result = session.run(mode)
            if result is not None:
                into.append(result)
        if not session.time_left_for(time.monotonic() - began):
            break
    if not plain or not traced:
        return {}, []
    metrics: dict[str, float] = {}
    absent = []
    for name, (unit, _) in PER_LAYER.items():
        if name == "bench.tracing_overhead":
            continue
        values = [
            r["layers"][name] * (scale(*r["probe_ns"]) if unit == "s" else 1)
            for r in traced if r["layers"][name] is not None
        ]
        if values:
            metrics[name] = statistics.median(values)
        else:
            absent.append(name)
            metrics[name] = 0.0
    if traced[0]["not_wrapped"]:
        print("not wrapped, no longer imported: " + ", ".join(traced[0]["not_wrapped"]))
    traced_wall = statistics.median(r["wall_ns"] * scale(*r["probe_ns"]) for r in traced)
    plain_wall = statistics.median(r["wall_ns"] * scale(*r["probe_ns"]) for r in plain)
    metrics["bench.tracing_overhead"] = traced_wall / plain_wall - 1.0
    print(f"{len(plain)} plain and {len(traced)} traced runs; traced wall "
          f"{traced_wall / 1e9:.4f} s against {plain_wall / 1e9:.4f} s")
    return metrics, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="beliefsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "beliefsim" / "simulator.py").is_file():
        print(f"no engine source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        session = Session(args.workload, args.seed, args.seconds, work)
        print(f"workload {args.workload}, seed {args.seed}, golden "
              f"{session.golden.name if session.golden else 'none'}")
        print("stamp " + json.dumps(stamp(), sort_keys=True))
        if args.trace:
            metrics, absent = per_layer(session)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            if absent:
                print("absent (reported as 0): " + ", ".join(absent))
        else:
            metrics = end_to_end(session)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    failed_frac = session.failed / session.attempted
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} ratio "
          f"({session.failed} of {session.attempted} runs)")
    correct = session.failed == 0 and session.deterministic and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
