"""One benchmark run of a scenario, in a fresh interpreter.

Each run gets its own process because the engine's embedding cache lives for
the life of a process, and every ``beliefsim run`` starts with it cold.

Usage, from the repository root with ``src`` on PYTHONPATH:

    python3 perfbench/one_run.py SCENARIO TRACE_OUT --mode run|traced|setup

It goes through the public API as ``beliefsim run --trace`` does:
``load_scenario``, ``SimulationRun(...).run()``, ``TraceLog.write``.  Timing
starts after the imports.  ``setup`` stops after the ``SimulationRun`` is
built.  ``run`` adds one hook, a clock read around each engine tick.
``traced`` also wraps every cross-module call (see layers.py).  The host
speed probe (hostspeed.py) runs before and after, outside the timed part.
The last line of standard output is a JSON object with the raw
measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
from time import perf_counter_ns

from beliefsim import core
from beliefsim.simulator import SimulationRun, load_scenario

from hostspeed import probe_ns
from layers import Tracer, layer_metrics, trace_counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("scenario")
    parser.add_argument("trace_out")
    parser.add_argument("--mode", choices=("run", "traced", "setup"), required=True)
    args = parser.parse_args(argv)

    ticks_ns: list[int] = []
    engine_tick = SimulationRun._tick

    def timed_tick(self) -> None:
        start = perf_counter_ns()
        engine_tick(self)
        ticks_ns.append(perf_counter_ns() - start)

    SimulationRun._tick = timed_tick
    tracer = Tracer() if args.mode == "traced" else None
    if tracer:
        tracer.install()
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()

    probe_before_ns = probe_ns()
    start = perf_counter_ns()
    with span("simulator.load_scenario"):
        scenario = load_scenario(args.scenario)
    run = SimulationRun(scenario)
    setup_ns = perf_counter_ns() - start
    out: dict = {"setup_ns": setup_ns}
    if args.mode != "setup":
        result = run.run()
        with span("trace.write"):
            result.trace.write(args.trace_out)
        wall_ns = perf_counter_ns() - start
        out.update(
            wall_ns=wall_ns,
            ticks_ns=ticks_ns,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer:
            tracer.uninstall()
            cache = getattr(core, "_embed_counts", None)
            out["not_wrapped"] = tracer.missing
            out["layers"] = layer_metrics(
                tracer,
                trace_counts(result.trace.events),
                wall_ns,
                len(ticks_ns),
                os.path.getsize(args.trace_out),
                cache.cache_info() if hasattr(cache, "cache_info") else None,
            )
    out["probe_ns"] = [probe_before_ns, probe_ns()]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
