"""beliefsim: a deterministic belief-state engine and scenario simulator.

Belief states are immutable ensembles of weighted text fragments.  Operators
assimilate new content, decay and prune the old, abstract upward into
fixed-point towers, retrieve from a long-term store, and regulate the whole
loop against coherence, load, and orientation thresholds.  Actions release
through graded activation basins.  Every run is reproducible down to the byte
via canonical JSONL traces.
"""

from .config import ParameterConfig, config_from_dict, default_config
from .core import (
    BeliefState,
    Fragment,
    IdAllocator,
    embed_fragment,
    embed_state,
    embed_tokens,
    tokenize,
)
from .dynamics import (
    AssimilationReport,
    ConflictError,
    ElaborationRule,
    annihilate,
    annihilate_sector,
    assimilate,
    drift,
    half_life,
    nullify,
    nullify_sector,
)
from .execution import ActionBasin, ActionDecision, Clause, GateRule
from .gauge import GaugeVerdict, gauge_equivalent
from .geometry import (
    CompassReading,
    compass_reading,
    detect_drift,
    distance,
    realign,
    trajectory_coherence,
)
from .memory import MemoryStore, QueryCue, generate_query, integrate_retrieved, retrieve
from .regulation import (
    EffortLedger,
    IntrospectiveReport,
    RegulationAction,
    allocate_effort,
    coherence,
    cognitive_load,
    identity_signature,
    identity_stability,
    introspect,
    meta_assimilate,
    regulate,
)
from .simulator import (
    RunResult,
    Scenario,
    ScenarioError,
    SimulationRun,
    load_scenario,
    run_scenario,
)
from .tower import (
    EpistemicAxis,
    TowerTrajectory,
    abstract_step,
    build_tower,
    derive_axis,
    elaborate_step,
    roundtrip_loss,
)
from .trace import TraceLog, canonical_json, parse_trace, verify_golden

__version__ = "0.1.0"

__all__ = [
    "ActionBasin",
    "ActionDecision",
    "AssimilationReport",
    "BeliefState",
    "Clause",
    "CompassReading",
    "ConflictError",
    "EffortLedger",
    "ElaborationRule",
    "EpistemicAxis",
    "Fragment",
    "GateRule",
    "GaugeVerdict",
    "IdAllocator",
    "IntrospectiveReport",
    "MemoryStore",
    "ParameterConfig",
    "QueryCue",
    "RegulationAction",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SimulationRun",
    "TowerTrajectory",
    "TraceLog",
    "abstract_step",
    "allocate_effort",
    "annihilate",
    "annihilate_sector",
    "assimilate",
    "build_tower",
    "canonical_json",
    "cognitive_load",
    "coherence",
    "compass_reading",
    "config_from_dict",
    "default_config",
    "derive_axis",
    "detect_drift",
    "distance",
    "drift",
    "elaborate_step",
    "embed_fragment",
    "embed_state",
    "embed_tokens",
    "gauge_equivalent",
    "generate_query",
    "half_life",
    "identity_signature",
    "identity_stability",
    "integrate_retrieved",
    "introspect",
    "load_scenario",
    "meta_assimilate",
    "nullify",
    "nullify_sector",
    "parse_trace",
    "realign",
    "regulate",
    "retrieve",
    "roundtrip_loss",
    "run_scenario",
    "tokenize",
    "trajectory_coherence",
    "verify_golden",
]
