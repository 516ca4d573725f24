"""Fragments, belief states, and the deterministic text embedding.

A belief state is a finite ensemble of linguistic fragments plus a logical
clock.  States are immutable value snapshots: every operator takes states in
and hands new states back, which is what makes runs replayable and traces
byte-stable.

The embedding is a fixed token-hash bag-of-words: each lowercased alphanumeric
token is hashed (blake2b, independent of PYTHONHASHSEED) into one of
``embed_dim`` cells, counts accumulate, and the cell vector is L2-normalized.
Equal token multisets therefore embed to bitwise-equal vectors, and all
geometry downstream (distance, compass, retrieval scores) inherits that
determinism.  A fragment tokenises once, embeds once and derives its content
key once.  ``Fragment.replace`` is the one way to copy a fragment: the copy
carries its source's tokens and vector unless its text changes, and its
content key unless a field the key reads changes, and it passes the same
checks as a freshly built fragment.

A state groups its fragments by sector once, on first use, and keeps that
view as a fragment keeps its vector: ``in_sector(s)`` is the tuple of
fragments tagged ``s`` in id order, ``sectors()`` the sorted tags, and
``mass`` the total weight.  Every per-sector reading (density, coherence,
the conflicted-sector search, clause scores and gate rules) reads the view
instead of scanning the whole state again.  A state made from another one
builds its own view.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import re
from collections import Counter
from dataclasses import dataclass, fields
from typing import Any, Iterable, Optional, Sequence

import numpy as np

ORIGINS = frozenset(
    {"observed", "elaborated", "abstracted", "retrieved", "meta", "drifted", "synthetic"}
)
POLARITIES = ("+", "-")

# Largest anchor.  Weights are anchor * persistence, and a state's mass,
# sector sums and embedding sum them; at this bound n * ANCHOR_MAX and the
# embedding's squared norm stay finite for any n below 1e54.
ANCHOR_MAX = 1e100

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercased alphanumeric tokens, in order of appearance."""
    return tuple(_TOKEN_RE.findall(text.lower()))


@dataclass(frozen=True)
class Fragment:
    """One linguistic belief expression with its metadata.

    ``anchor`` is resistance to decay; ``persistence`` is residual strength in
    [0, 1]; ``level`` is the abstraction height; ``members`` records the
    constituent fragment ids of an abstracted summary.
    """

    id: int
    text: str
    sectors: frozenset[str]
    level: int = 0
    anchor: float = 1.0
    persistence: float = 1.0
    created_at: float = 0.0
    origin: str = "observed"
    key: Optional[str] = None
    polarity: Optional[str] = None
    members: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        # The vector and the content key are derived on first use.  Every
        # fragment sets all three derived attributes here, in one order, so
        # instances share one key table; set later in varying order they
        # would give each fragment a dict of its own (+15% peak RSS).
        object.__setattr__(self, "_tokens", tokenize(self.text))
        object.__setattr__(self, "_vec", None)
        object.__setattr__(self, "_ckey", None)
        self._check()

    def _check(self) -> None:
        """Every invariant of a fragment; runs on construction and on each copy."""
        if not self._tokens:  # type: ignore[attr-defined]
            raise ValueError(f"fragment {self.id}: text has no tokens: {self.text!r}")
        if not self.sectors:
            raise ValueError(f"fragment {self.id}: needs at least one sector tag")
        if self.level < 0:
            raise ValueError(f"fragment {self.id}: level must be >= 0, got {self.level}")
        if not 0 <= self.anchor <= ANCHOR_MAX:  # also rejects NaN
            raise ValueError(
                f"fragment {self.id}: anchor must be a finite number >= 0 "
                f"and <= {ANCHOR_MAX:g}, got {self.anchor}"
            )
        if not (0.0 <= self.persistence <= 1.0):
            raise ValueError(
                f"fragment {self.id}: persistence must lie in [0, 1], got {self.persistence}"
            )
        if self.origin not in ORIGINS:
            raise ValueError(f"fragment {self.id}: unknown origin {self.origin!r}")
        if (self.key is None) != (self.polarity is None):
            raise ValueError(f"fragment {self.id}: key and polarity must be set together")
        if self.polarity is not None and self.polarity not in POLARITIES:
            raise ValueError(f"fragment {self.id}: polarity must be '+' or '-'")
        has_members = bool(self.members)
        if has_members != (self.origin == "abstracted"):
            raise ValueError(
                f"fragment {self.id}: members must be non-empty iff origin is 'abstracted'"
            )

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens  # type: ignore[attr-defined]

    @property
    def weight(self) -> float:
        """Effective mass anchor * persistence."""
        return self.anchor * self.persistence

    def content_key(self) -> tuple:
        """Canonical content identity: (token multiset, key, polarity, sectors, level).

        Two fragments with equal content keys are exact duplicates for
        assimilation and for gauge observables, regardless of id, anchor,
        persistence, origin, or token order.  Derived on first use and kept.
        """
        ckey = self._ckey  # type: ignore[attr-defined]
        if ckey is None:
            ckey = (
                tuple(sorted(Counter(self.tokens).items())),
                self.key or "",
                self.polarity or "",
                tuple(sorted(self.sectors)),
                self.level,
            )
            object.__setattr__(self, "_ckey", ckey)
        return ckey

    def replace(self, **overrides: Any) -> "Fragment":
        """A copy with ``overrides`` applied, checked as a new fragment is.

        The copy is not rebuilt: it carries this fragment's tokens and vector
        unless ``text`` is overridden, and its content key unless a field the
        key reads is.  An unknown field name raises TypeError.
        """
        if not overrides.keys() <= _FIELD_NAMES:
            unknown = sorted(overrides.keys() - _FIELD_NAMES)
            raise TypeError(f"Fragment has no field(s) {unknown}")
        copy = object.__new__(Fragment)
        state = copy.__dict__
        state.update(self.__dict__)
        state.update(overrides)
        if "text" in overrides:
            state["_tokens"] = tokenize(state["text"])
            state["_vec"] = None
        if not _KEY_FIELDS.isdisjoint(overrides):
            state["_ckey"] = None
        copy._check()
        return copy


_FIELD_NAMES = frozenset(f.name for f in fields(Fragment))
# The fields content_key reads; overriding any of them drops the carried key.
_KEY_FIELDS = frozenset({"text", "key", "polarity", "sectors", "level"})


@dataclass(frozen=True)
class BeliefState:
    """An immutable fragment ensemble plus a logical clock."""

    fragments: tuple[Fragment, ...] = ()
    clock: float = 0.0

    def __post_init__(self) -> None:
        frags = tuple(self.fragments)
        ids = [f.id for f in frags]
        # Canonical id order, so equal fragment sets compare equal.  Operators
        # hand states over in id order, so sort only when a walk finds an id
        # not above its predecessor; a repeat then lands beside its twin.
        if any(map(operator.ge, ids, ids[1:])):
            frags = tuple(sorted(frags, key=operator.attrgetter("id")))
            ids.sort()
            dupes = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
            if dupes:
                raise ValueError(f"duplicate fragment ids in state: {dupes}")
        if self.clock < 0:
            raise ValueError(f"clock must be >= 0, got {self.clock}")
        object.__setattr__(self, "fragments", frags)
        object.__setattr__(self, "_view", None)

    def _sector_view(self) -> tuple[dict[str, tuple[Fragment, ...]], float]:
        """(sector -> its fragments in id order, sectors sorted; total mass),
        built on first use and kept: the state never changes."""
        view = self._view  # type: ignore[attr-defined]
        if view is None:
            groups: dict[str, list[Fragment]] = {}
            for f in self.fragments:
                for s in f.sectors:
                    groups.setdefault(s, []).append(f)
            view = (
                {s: tuple(groups[s]) for s in sorted(groups)},
                sum(f.weight for f in self.fragments),
            )
            object.__setattr__(self, "_view", view)
        return view

    @property
    def is_vacuum(self) -> bool:
        return not self.fragments

    def get(self, fragment_id: int) -> Optional[Fragment]:
        for f in self.fragments:
            if f.id == fragment_id:
                return f
        return None

    def ids(self) -> frozenset[int]:
        return frozenset(f.id for f in self.fragments)

    def sectors(self) -> tuple[str, ...]:
        """All sector tags present, sorted."""
        return tuple(self._sector_view()[0])

    def in_sector(self, sector: str) -> tuple[Fragment, ...]:
        """The fragments tagged with ``sector``, in id order."""
        return self._sector_view()[0].get(sector, ())

    @property
    def mass(self) -> float:
        """Total weight (anchor * persistence) of the state's fragments."""
        return self._sector_view()[1]

    def with_fragments(self, fragments: Iterable[Fragment]) -> "BeliefState":
        return BeliefState(tuple(fragments), self.clock)

    def without_ids(self, drop: Iterable[int]) -> "BeliefState":
        gone = set(drop)
        return self.with_fragments(f for f in self.fragments if f.id not in gone)

    def replace_fragment(self, updated: Fragment) -> "BeliefState":
        return self.with_fragments(
            updated if f.id == updated.id else f for f in self.fragments
        )


class IdAllocator:
    """Monotonic fragment-id source, one per engine run."""

    def __init__(self, start: int = 1) -> None:
        self._counter = itertools.count(start)

    def next(self) -> int:
        return next(self._counter)


# --------------------------------------------------------------------------
# Embeddings
# --------------------------------------------------------------------------

def token_cell(token: str, dim: int) -> int:
    """Fixed, seed-independent hash of a token into [0, dim)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


def embed_tokens(tokens: Sequence[str], dim: int) -> np.ndarray:
    """Normalized bag-of-words vector of a token multiset."""
    vec = np.zeros(dim, dtype=np.float64)
    for token, count in sorted(Counter(tokens).items()):
        vec[token_cell(token, dim)] += count
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    vec.setflags(write=False)  # fragment copies share this array; never mutate
    return vec


def embed_fragment(fragment: Fragment, dim: int) -> np.ndarray:
    """The fragment's unit vector, computed on first use and kept on it."""
    vec = fragment._vec  # type: ignore[attr-defined]
    if vec is None or len(vec) != dim:
        vec = embed_tokens(fragment.tokens, dim)
        object.__setattr__(fragment, "_vec", vec)
    return vec


# Below this norm a vector's squared entries can be subnormal, so its norm,
# and the vector normalised by it, lose digits.
TINY_NORM = 1e-150


def embed_state(state: BeliefState, dim: int) -> np.ndarray:
    """Mass-weighted mean of fragment vectors, L2-normalized.

    Weights are anchor * persistence so faded content bends the geometry
    less.  The vacuum embeds to the zero vector.  If every weight is zero in
    a non-vacuum state, the unweighted mean is used so the unit-norm
    invariant still holds.
    """
    if state.is_vacuum:
        return np.zeros(dim, dtype=np.float64)
    total = sum(f.weight for f in state.fragments)
    acc = np.zeros(dim, dtype=np.float64)
    if total > 0.0:
        for f in state.fragments:
            if f.weight > 0.0:
                acc += f.weight * embed_fragment(f, dim)
    else:
        for f in state.fragments:
            acc += embed_fragment(f, dim)
    norm = float(np.linalg.norm(acc))
    if norm < TINY_NORM and acc.any():
        # The squares of the entries are subnormal and the norm loses digits:
        # bring the largest entry to 1 first.
        acc = acc / np.abs(acc).max()
        norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc = acc / norm
    return acc


# --------------------------------------------------------------------------
# Sector density
# --------------------------------------------------------------------------

def activation_density(state: BeliefState, sector: str) -> float:
    """Share of total mass (anchor * persistence) carried by ``sector``."""
    total = state.mass
    if total <= 0.0:
        return 0.0
    return sum(f.weight for f in state.in_sector(sector)) / total


# --------------------------------------------------------------------------
# Conflicts: two fragments contradict when they share a proposition key and
# have opposite polarity
# --------------------------------------------------------------------------

def key_groups(fragments: Iterable[Fragment]) -> dict[str, list[Fragment]]:
    """Keyed fragments grouped by proposition key, input order kept in each.

    Fragments on different keys never conflict, so every conflict query walks
    these groups instead of every pair of fragments.
    """
    groups: dict[str, list[Fragment]] = {}
    for f in fragments:
        if f.key is not None:
            groups.setdefault(f.key, []).append(f)
    return groups


def first_conflict(fragments: Sequence[Fragment]) -> Optional[tuple[Fragment, Fragment]]:
    """The conflicting pair (a, b) with the lowest (a.id, b.id), or None.

    ``fragments`` must be in id order, as a state holds them: each group's
    lowest pair is its head and the head's first opposite, and groups come
    in head-id order, so the first group with a pair holds the answer.
    """
    for head, *rest in key_groups(fragments).values():
        rival = next((f for f in rest if f.polarity != head.polarity), None)
        if rival is not None:
            return head, rival
    return None


__all__ = [
    "ANCHOR_MAX",
    "BeliefState",
    "Fragment",
    "IdAllocator",
    "ORIGINS",
    "POLARITIES",
    "TINY_NORM",
    "activation_density",
    "embed_fragment",
    "embed_state",
    "embed_tokens",
    "first_conflict",
    "key_groups",
    "token_cell",
    "tokenize",
]
