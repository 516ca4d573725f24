"""beliefsim: a deterministic belief-state engine and scenario simulator.

Belief states are immutable ensembles of weighted text fragments.  Operators
assimilate new content, decay and prune the old, abstract upward into
fixed-point towers, retrieve from a long-term store, and regulate the whole
loop against coherence, load, and orientation thresholds.  Actions release
through graded activation basins.  Every run is reproducible down to the byte
via canonical JSONL traces.

The package root exports only ``__version__``; import from the submodules
(``beliefsim.core``, ``beliefsim.simulator``, ...).
"""

__version__ = "0.1.0"
