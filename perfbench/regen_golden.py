"""Write the golden trace of each workload at its default seed.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/regen_golden.py [WORKLOAD ...]

Run it only for an intended change of engine behaviour, and explain the
trace diff with the change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from beliefsim.simulator import SimulationRun, load_scenario

import workloads
from run import golden_path


def main(argv: list[str]) -> int:
    for name in argv or sorted(workloads.GENERATORS):
        seed = workloads.DEFAULT_SEED
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "scenario.json"
            scenario.write_bytes(workloads.scenario_bytes(name, seed))
            result = SimulationRun(load_scenario(scenario)).run()
        out = golden_path(name, seed)
        out.parent.mkdir(exist_ok=True)
        result.trace.write(out)
        print(f"wrote {out.name}: {len(result.trace.events)} events")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
