#!/usr/bin/env python3
"""Build an abstraction tower over a small observation set and show each
level's contents, the convergence gap, and the round-trip loss."""

from beliefsim.config import default_config
from beliefsim.core import BeliefState, IdAllocator
from beliefsim.simulator import fragment_from_spec
from beliefsim.tower import build_tower, roundtrip_loss

OBSERVATIONS = [
    {"text": "red warning light on the panel", "sector": "perc"},
    {"text": "red warning light blinking twice", "sector": "perc"},
    {"text": "coolant pump running smoothly", "sector": "perc"},
    {"text": "coolant pump vibrating slightly", "sector": "perc"},
    {"text": "plan the maintenance window", "sector": "plan"},
    {"text": "plan the parts order", "sector": "plan"},
]


def main() -> None:
    cfg = default_config()
    ids = IdAllocator(1)
    frags = [fragment_from_spec(s, ids.next(), 0.0) for s in OBSERVATIONS]
    seed = BeliefState(tuple(frags), 0.0)

    trajectory = build_tower(seed, max_k=10, config=cfg, ids=ids)
    for k, level in enumerate(trajectory.levels):
        print(f"step {k}:")
        for f in level.fragments:
            tag = ",".join(sorted(f.sectors))
            print(f"  [{f.id:>3} L{f.level} {tag}] {f.text}")
    print(
        f"converged={trajectory.converged} "
        f"gap={trajectory.fixpoint_gap:.3e} "
        f"roundtrip_loss={roundtrip_loss(seed, cfg):.4f}"
    )


if __name__ == "__main__":
    main()
