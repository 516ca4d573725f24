"""Seeded generator for the benchmark's synthetic scenarios.

Each workload is a function of its parameters (``PARAMS``) and a workload
seed.  The same seed gives byte-identical scenario JSON; the engine only ever
sees that JSON, never the seed.  Randomness comes from ``random.Random``
seeded with a string, which does not depend on PYTHONHASHSEED.

Usage: python3 perfbench/workloads.py WORKLOAD --seed N [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "ke", "li", "mo", "nu", "pa", "re",
    "si", "to", "vu", "wa", "xe", "yi", "zo", "qu", "ro", "te", "mi", "lo",
)

PARAMS = {
    "conflict_stream": {
        "batches": 32,
        "batch_size": 50,
        "ticks_per_batch": 3,
        "keyed_share": 0.10,
        "keys": 20,
        "dispute_every": 4,
        "dispute_claims": 6,
        "vocabulary": 800,
        "words_per_text": [4, 6],
        "sectors": ["lang", "affect", "mem", "perc"],
    },
    "axis_realign": {
        "seed_fragments": 96,
        "core_words": 4,
        "axis_vocabulary": 40,
        "off_vocabulary": 400,
        "batches": 100,
        "batch_size": 10,
        "on_axis_share": 0.6,
        "on_axis_words": [2, 3],
        "off_axis_words": [3, 5],
        "config": {"lambda0": 0.7},
    },
    "store_recall": {
        "store_fragments": 10000,
        "vocabulary": 3000,
        "words_per_text": 3,
        "store_anchor": [3.0, 6.0],
        "ticks": 15,
        "goal_every": 10,
        "config": {"embed_dim": 256, "tau_retrieval": 0.5},
    },
}

DEFAULT_SEED = 0


def _vocabulary(size: int, prefix: str = "") -> list[str]:
    """``size`` distinct pseudo-words, each 2 to 4 syllables long.

    The vocabulary does not depend on the workload seed: which words collide
    in the embedding's hash cells shapes the geometry, and so the cost, of a
    run.  The seed only decides how the words are sampled.
    """
    rng = random.Random(f"vocabulary:{prefix}:{size}")
    words: set[str] = set()
    while len(words) < size:
        n = rng.randint(2, 4)
        words.add(prefix + "".join(rng.choice(SYLLABLES) for _ in range(n)))
    return sorted(words)


def _text(rng: random.Random, vocab: list[str], lo: int, hi: int) -> str:
    return " ".join(rng.sample(vocab, rng.randint(lo, hi)))


def conflict_stream(rng: random.Random, p: dict) -> dict:
    vocab = _vocabulary(p["vocabulary"])
    lo, hi = p["words_per_text"]
    keys = [f"claim{k:02d}" for k in range(p["keys"])]
    timeline = []
    for b in range(p["batches"]):
        n_keyed = round(p["batch_size"] * p["keyed_share"])
        specs = []
        for i in range(p["batch_size"]):
            spec = {
                "text": _text(rng, vocab, lo, hi),
                "sector": p["sectors"][i % len(p["sectors"])],
            }
            if i < n_keyed:
                spec["key"] = rng.choice(keys)
                spec["polarity"] = rng.choice("+-")
            specs.append(spec)
        rng.shuffle(specs)
        entry: dict = {"event": "observe", "specs": specs}
        if b % p["dispute_every"] == p["dispute_every"] - 1:
            # A dispute in its own sector: half the claims assert, half deny.
            sector = f"dispute{b:02d}"
            for c in range(p["dispute_claims"]):
                specs.append({
                    "text": f"{sector} {_text(rng, vocab, lo, hi)}",
                    "sector": sector,
                    "key": sector,
                    "polarity": "+" if c % 2 == 0 else "-",
                })
            entry["mode"] = "conf"
        timeline.append(entry)
        timeline.append({"event": "tick", "n": p["ticks_per_batch"]})
    return {"timeline": timeline}


def axis_realign(rng: random.Random, p: dict) -> dict:
    on = _vocabulary(p["axis_vocabulary"], prefix="ax")
    off = _vocabulary(p["off_vocabulary"], prefix="of")
    core, on = on[: p["core_words"]], on[p["core_words"]:]
    # Each seed fragment is the core plus a word no other seed fragment has,
    # so every merge keeps exactly the core: the tower converges to it and
    # the axis direction is the same at every seed.
    extras = rng.sample(_vocabulary(p["seed_fragments"] * 2, prefix="sd"), p["seed_fragments"])
    seed = [{"text": " ".join(core) + " " + word, "sector": "task"} for word in extras]
    timeline = []
    for _ in range(p["batches"]):
        n_on = round(p["batch_size"] * p["on_axis_share"])
        specs = [
            {"text": rng.choice(core) + " " + _text(rng, on, *p["on_axis_words"]),
             "sector": "task"}
            for _ in range(n_on)
        ] + [
            {"text": _text(rng, off, *p["off_axis_words"]), "sector": "perc"}
            for _ in range(p["batch_size"] - n_on)
        ]
        rng.shuffle(specs)
        timeline.append({"event": "observe", "specs": specs})
        timeline.append({"event": "tick", "n": 1})
    return {
        "config": dict(p["config"]),
        "axes": [{"label": "focus", "null_seed": True, "max_k": 12, "seed": seed}],
        "timeline": timeline,
    }


def store_recall(rng: random.Random, p: dict) -> dict:
    vocab = _vocabulary(p["vocabulary"])
    n = p["words_per_text"]
    a_lo, a_hi = p["store_anchor"]
    memory = []
    seen: set[frozenset] = set()
    while len(memory) < p["store_fragments"]:
        words = rng.sample(vocab, n)
        if frozenset(words) in seen:
            continue
        seen.add(frozenset(words))
        memory.append({
            "text": " ".join(words),
            "sector": "mem",
            "anchor": round(rng.uniform(a_lo, a_hi), 3),
        })
    timeline = []
    for t in range(p["ticks"]):
        if t % p["goal_every"] == 0:
            # A goal phrased from a stored memory, so the goal cue hits.
            words = memory[rng.randrange(len(memory))]["text"].split()
            timeline.append({"event": "command", "text": "goal: " + " ".join(words[:2])})
        # One word of a stored memory swapped out: the associative cue
        # shares two of three words with it, a cosine of 2/3.
        words = memory[rng.randrange(len(memory))]["text"].split()
        words[rng.randrange(n)] = rng.choice(vocab)
        timeline.append({"event": "observe", "specs": [{"text": " ".join(words), "sector": "perc"}]})
        timeline.append({"event": "tick", "n": 1})
    basin = {
        "name": "recall",
        "tau": 0.5,
        "clauses": [
            {"kind": "sector_density", "sector": "mem", "minimum": 0.3},
            {"kind": "coherence_conflict", "sector": "mem", "tolerance": 0.1},
        ],
    }
    return {
        "config": dict(p["config"]),
        "memory": memory,
        "basins": [basin],
        "timeline": timeline,
    }


GENERATORS = {
    "conflict_stream": conflict_stream,
    "axis_realign": axis_realign,
    "store_recall": store_recall,
}


def generate(workload: str, seed: int) -> dict:
    """The scenario object for ``workload`` at ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    scenario = {"name": f"{workload}-s{seed}"}
    scenario.update(GENERATORS[workload](rng, PARAMS[workload]))
    return scenario


def scenario_bytes(workload: str, seed: int) -> bytes:
    text = json.dumps(generate(workload, seed), sort_keys=True, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", help="write here instead of standard output")
    args = parser.parse_args(argv)
    data = scenario_bytes(args.workload, args.seed)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
