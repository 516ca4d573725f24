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
determinism.  ``embed_rows`` is the one vectoriser; it hashes each distinct
token once per ``dim`` per process.  A fragment tokenises once and derives
its content key once; a state embeds once per ``dim``.
A fragment has one constructor, which keeps one object per equal sector set;
``Fragment.replace`` is a construction from its fields and the overrides, so
a copy tokenises again and derives its own content key.

A state is one table, for the active state and the long-term store alike:
fragments as they entered are its rows, in id order, and one record per row
beside them holds its columns (id, ``created_at``, sector set, anchor,
persistence, decay factor); the rows' unit vectors are a pair (V, index) the
state holds, row ``i``'s vector being ``V[index[i]]``.  Every state comes out
of ``_derive``, which filters rows and records by one keep mask and splices
put rows in by one plan, computing only theirs: a constructed state is the
epistemic vacuum with its fragments put in, decay and ``reanchor`` hand it
new columns, and every other change is one ``revised`` (drop ids, put
fragments).  ``fragments`` builds every row on each read and keeps none;
``fragment(i)`` builds one.  Readers of the fixed fields read ``rows``,
``rows_in(s)``, ``ids()`` or ``latest()`` and build nothing; the conflict
groups and the goal rows are readings a state keeps and ``_derive`` hands on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import operator
import re
from collections import Counter
from collections.abc import Sequence
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only; config imports this module
    from .config import ParameterConfig

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


@dataclasses.dataclass(frozen=True, init=False)
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

    def __init__(self, id, text, sectors, level=0, anchor=1.0, persistence=1.0,
                 created_at=0.0, origin="observed", key=None, polarity=None, members=None):
        # The one constructor: attributes set one at a time, in this order, so
        # all fragments share one key table.  Reading ``__dict__`` would give
        # each its own dict and halve the speed of every attribute read.
        sectors, code = _SECTOR_SETS.get(sectors) or (sectors, None)  # the kept equal set
        put = object.__setattr__  # the class is frozen
        put(self, "id", id)
        put(self, "text", text)
        put(self, "sectors", sectors)
        put(self, "level", level)
        put(self, "anchor", anchor)
        put(self, "persistence", persistence)
        put(self, "created_at", created_at)
        put(self, "origin", origin)
        put(self, "key", key)
        put(self, "polarity", polarity)
        put(self, "members", members)
        put(self, "_tokens", tokenize(text))
        put(self, "_ckey", None)  # the content key, derived on first use
        self._check()
        if code is None:  # registered once checked, so a refused set takes no code
            _SECTOR_SETS[sectors] = (sectors, len(_SECTOR_SETS))

    def _check(self) -> None:
        """Every invariant of a fragment; runs on each construction."""
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
        """A new fragment of this one's fields with ``overrides`` applied,
        made by the one constructor; an unknown field name raises TypeError."""
        return dataclasses.replace(self, **overrides)


class BeliefState:
    """An immutable fragment ensemble plus a logical clock, held as a table.

    ``BeliefState(fragments, clock)`` is the vacuum with ``fragments`` put
    in, by the one ``_derive`` that makes every state.  Beside its rows a
    state keeps one record per row (``_ROW``): the id, ``created_at`` and
    sector set the row entered with, its current anchor and persistence,
    and its factor of the last whole-state decay.  Only this module reads
    the records.  The rows' unit vectors (``vectors``) are a pair (V, index)
    of read-only arrays that the state holds, or embeds at its first read.
    A row's fixed fields (id, text, tokens, sectors, key, polarity, level,
    origin, created_at, members) are current; its anchor and persistence are
    those it entered with.  Its mass, embedding, conflict groups and goal
    rows are readings it keeps once made; ``_derive`` hands on those the
    parent's prove, so an unkeyed state is conflict-free from the start.
    """

    __slots__ = (
        "clock", "_rows", "_table", "_decay", "_space",
        "_mass", "_embedding", "_conflicts", "_goals",
    )

    def __new__(cls, fragments: Iterable[Fragment] = (), clock: float = 0.0) -> "BeliefState":
        if clock < 0:
            raise ValueError(f"clock must be >= 0, got {clock}")
        return _VACUUM._derive(clock, _NO_ROWS, None, put=fragments)

    # -- reading -----------------------------------------------------------

    @property
    def fragments(self) -> tuple[Fragment, ...]:
        """The fragments in id order, every row built on each read: a row
        whose anchor and persistence did not move is handed back as it is."""
        table = self._table
        return tuple(map(
            _at, self._rows, table["anchor"].tolist(), table["persistence"].tolist()))

    @property
    def rows(self) -> tuple[Fragment, ...]:
        """The rows in id order.  Read only their fixed fields: a row's anchor
        and persistence are those it entered with."""
        return self._rows

    def fragment(self, i: int) -> Fragment:
        """Row ``i`` as a ``Fragment`` with its current anchor and
        persistence; no other row is built."""
        record = self._table[i]
        return _at(self._rows[i], float(record["anchor"]), float(record["persistence"]))

    def weights(self) -> np.ndarray:
        """Each fragment's weight, anchor * persistence, in id order."""
        return self._table["anchor"] * self._table["persistence"]

    def _pair(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """The pair (V, index) at ``dim``; with none, or one at another dim,
        the state embeds its own rows and keeps ``(V, arange(n))``."""
        pair = self._space
        if pair is None or pair[0].shape[1] != dim:
            index = _frozen(np.arange(len(self._rows)))
            pair = self._space = (embed_rows([f.tokens for f in self._rows], dim), index)
        return pair

    def vectors(self, dim: int) -> np.ndarray:
        """A new C-ordered matrix of the rows' unit vectors, in row order."""
        return np.take(*self._pair(dim), axis=0)

    def _in(self, sector: str) -> np.ndarray:
        """A mask of the rows whose sector set holds ``sector``."""
        holds = np.fromiter((sector in s for s in _SECTOR_SETS), bool, len(_SECTOR_SETS))
        return holds[self._table["sectors"]]

    def conflicts(self) -> tuple[tuple[Fragment, ...], ...]:
        """The key groups holding both polarities, rows in id order, groups in
        head-id order: the one grouping of a state's rows by key, built by
        one walk on first read and kept.  A derived state that keeps every
        row shares it; one conflict-free by its parent's groups and its put
        rows' keys starts with ``()``.  Read only the rows' fixed fields."""
        kept = self._conflicts
        if kept is None:
            kept = self._conflicts = tuple(
                tuple(group) for group in key_groups(self._rows).values()
                if any(f.polarity != group[0].polarity for f in group)
            )
        return kept

    def goals(self, marker: str) -> tuple[Fragment, ...]:
        """The rows whose lowercased text starts with ``marker``, in id order:
        one walk on the first read for a marker, kept as ``(marker, rows)``.
        A derived state is handed its parent's goal rows that it keeps, and
        tests only its put rows.  Read only the rows' fixed fields."""
        kept = self._goals
        if kept is None or kept[0] != marker:
            kept = self._goals = (marker, _starting(self._rows, marker))
        return kept[1]

    @property
    def is_vacuum(self) -> bool:
        return not self._rows

    def _position(self, fragment_id: int) -> Optional[int]:
        ids = self._table["id"]
        i = int(ids.searchsorted(fragment_id))
        return i if i < len(ids) and ids[i] == fragment_id else None

    def get(self, fragment_id: int) -> Optional[Fragment]:
        i = self._position(fragment_id)
        return None if i is None else self.fragment(i)

    def ids(self) -> frozenset[int]:
        return frozenset(self._table["id"].tolist())

    def latest(self) -> Fragment:
        """The row created last, of a non-empty state; among rows created at
        once, the one of highest id (fixed fields only)."""
        created = self._table["created_at"]
        return self._rows[np.flatnonzero(created == created.max())[-1]]

    def sectors(self) -> tuple[str, ...]:
        """All sector tags present, sorted."""
        if not self._rows:
            return ()
        present = np.bincount(self._table["sectors"], minlength=len(_SECTOR_SETS))
        return tuple(sorted(set().union(*itertools.compress(_SECTOR_SETS, present.tolist()))))

    def rows_in(self, sector: str) -> tuple[Fragment, ...]:
        """The rows tagged with ``sector``, in id order (fixed fields only)."""
        return tuple(itertools.compress(self._rows, self._in(sector).tolist()))

    @property
    def mass(self) -> float:
        """Total weight (anchor * persistence) of the state's fragments."""
        if self._mass is None:
            self._mass = ordered_sum(self.weights()) if self._rows else 0.0
        return self._mass

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BeliefState) and (self.fragments, self.clock) == (
            other.fragments, other.clock)

    def __hash__(self) -> int:
        return hash((self.fragments, self.clock))

    def __repr__(self) -> str:
        return f"BeliefState(fragments={self.fragments!r}, clock={self.clock!r})"

    # -- deriving ----------------------------------------------------------

    def _derive(self, clock: float, table: np.ndarray, decay: Optional[tuple],
                keep: Optional[np.ndarray] = None,
                put: Iterable[Fragment] = ()) -> "BeliefState":
        """The one way a state is made, from another or from the vacuum:
        ``table`` (this state's records or new ones) and the rows filtered by
        one mask ``keep``, then the rows of ``put`` (none kept) put in id
        order and spliced in by one plan, with only their records computed;
        with no row kept, the put rows are the rows.  A drop shares this V;
        a put hands a new one on and empties this state's slot."""
        put = _in_id_order(tuple(put))
        new = object.__new__(BeliefState)
        new.clock, new._mass, new._embedding = clock, None, None
        rows, space = self._rows, self._space
        # The conflict groups and the goal rows read fixed fields only.
        conflicts, goals = self._conflicts, self._goals
        if keep is not None and not keep.all():
            mask = keep.tolist()
            rows = tuple(itertools.compress(rows, mask))
            table = table.view(_RECORD)[keep].view(_ROW)
            conflicts = None if conflicts else conflicts  # () stays ()
            if space is not None:
                space = (space[0], _frozen(space[1][keep]))
            if goals is not None:
                goals = (goals[0], tuple(f for f in goals[1] if mask[self._position(f.id)]))
        if put:
            added = _records(put)
            if decay is not None:
                added["decay"] = _decay_factors(added["anchor"], *decay)
            if not rows:  # nothing kept: the put rows are the table, embedded at the first read
                table, rows, space = added, put, None
            else:
                # The plan: each put row's final position, past the kept rows
                # of lower id and the put rows before it.
                at = table["id"].searchsorted(added["id"]) + np.arange(len(put))
                spliced = np.empty(len(rows) + len(put), _RECORD)
                slot = np.ones(len(spliced), dtype=bool)
                slot[at] = False
                spliced[slot], spliced[at] = table.view(_RECORD), added.view(_RECORD)
                table = spliced.view(_ROW)
                if space is not None:  # the kept rows' vectors and the put rows' in one allocation
                    taken = np.zeros(len(table), np.intp)  # V's row 0 holds the put rows' place
                    taken[slot] = space[1]
                    V = np.take(space[0], taken, axis=0)
                    V[at] = embed_rows([f.tokens for f in put], V.shape[1])
                    space, self._space = (_frozen(V), _frozen(np.arange(len(table)))), None
                spliced_rows = list(rows)
                for i, f in zip(at.tolist(), put):  # in ascending order, so each lands at i
                    spliced_rows.insert(i, f)
                rows = tuple(spliced_rows)
            conflicts = () if conflicts == () and all(f.key is None for f in put) else None
            if goals is not None:  # no put id is among the kept goal rows
                goals = (goals[0], tuple(sorted((*goals[1], *_starting(put, goals[0])), key=_ID)))
        new._rows, new._table, new._space, new._decay = rows, _frozen(table), space, decay
        new._conflicts, new._goals = conflicts, goals
        return new

    def revised(self, put: Iterable[Fragment] = (),
                drop: Iterable[int] = ()) -> "BeliefState":
        """This state without the ids in ``drop``, with each fragment of
        ``put`` in place of the row of its id or added in id order: one
        ``_derive`` that keeps every row not dropped or put."""
        put = tuple(put)
        gone = set(drop).union(map(_ID, put))
        if not gone:
            return self
        keep = np.ones(len(self._rows), dtype=bool)
        keep[[i for i in map(self._position, gone) if i is not None]] = False
        return self._derive(self.clock, self._table, self._decay, keep, put)

    def decayed(self, dt: float, config: ParameterConfig, clock: float,
                sector: Optional[str] = None) -> "BeliefState":
        """The state at ``clock`` after ``dt`` ticks of ``dynamics.nullify``
        over every row, or over ``sector``'s rows.  A whole-state decay keeps
        its factors for the next one with the same dt and config."""
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        table, decay = self._table.view(_RECORD).copy().view(_ROW), self._decay
        anchor, persistence = table["anchor"], table["persistence"]
        if sector is None:
            rows: Any = slice(None)
            if decay != (dt, config):
                decay = (dt, config)
                table["decay"] = _decay_factors(anchor, dt, config)
            factors = table["decay"]
        else:
            rows = self._in(sector)
            factors = _decay_factors(anchor[rows], dt, config)
        persistence[rows] = persistence[rows] * factors
        keep = np.ones(len(table), dtype=bool)
        keep[rows] = persistence[rows] > config.delta
        return self._derive(clock, table, decay, keep)

    def reanchor(self, fragment_ids: Iterable[int], floor: float) -> "BeliefState":
        """Rows of ``fragment_ids`` lifted to an anchor of at least ``floor``
        and restored to full persistence; absent ids are skipped.  Kept decay
        factors are recomputed only for rows whose anchor moved."""
        rows = [i for i in map(self._position, fragment_ids) if i is not None]
        if not rows:
            return self
        table = self._table.view(_RECORD).copy().view(_ROW)
        anchor = table["anchor"]
        anchor[rows] = np.maximum(anchor[rows], floor)
        table["persistence"][rows] = 1.0
        if self._decay is not None:
            moved = np.flatnonzero(anchor != self._table["anchor"])
            table["decay"][moved] = _decay_factors(anchor[moved], *self._decay)
        return self._derive(self.clock, table, self._decay)

    def matching(self, cue_vec: np.ndarray, tau: float,
                 **overrides: Any) -> tuple[Fragment, ...]:
        """The fragments whose ``np.dot(cue_vec, vector) * persistence``
        reaches ``tau``, in id order: one single-threaded ``einsum`` over the
        columns of V where the cue is nonzero screens every row, and the rows
        it cannot rule out are scored exactly.  Each is built once, as one
        ``replace`` of its row with its anchor, persistence and ``overrides``."""
        vectors, index = self._pair(len(cue_vec))
        anchor, persistence = self._table["anchor"], self._table["persistence"]
        cells = np.flatnonzero(cue_vec)
        screened = np.einsum("ij,j->i", vectors[:, cells], cue_vec[cells])[index]
        # Vectors are non-negative and unit-norm, so two float64 dot products
        # of length d (the screen, and one np.dot) differ by at most 2*d*eps;
        # one more eps covers the multiply by the persistence.
        bound = (2 * len(cue_vec) + 1) * np.finfo(float).eps
        near = np.flatnonzero(screened * persistence >= tau - bound)
        return tuple(
            self._rows[i].replace(anchor=a, persistence=p, **overrides)
            for i, row, a, p in zip(near.tolist(), index[near].tolist(),
                                    anchor[near].tolist(), persistence[near].tolist())
            if float(np.dot(cue_vec, vectors[row])) * p >= tau
        )


_ID = operator.attrgetter("id")


def _in_id_order(rows: tuple[Fragment, ...]) -> tuple[Fragment, ...]:
    """``rows`` in id order, so equal fragment sets compare equal.  Operators
    hand rows over in id order, so sort only when a walk finds an id not
    above its predecessor; a repeat then lands beside its twin and is
    refused."""
    ids = [f.id for f in rows]
    if any(map(operator.ge, ids, ids[1:])):
        rows = tuple(sorted(rows, key=_ID))
        ids.sort()
        dupes = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
        if dupes:
            raise ValueError(f"duplicate fragment ids in state: {dupes}")
    return rows


def _starting(rows: Iterable[Fragment], marker: str) -> tuple[Fragment, ...]:
    """The rows whose lowercased text starts with ``marker``, in order."""
    return tuple(f for f in rows if f.text.lower().startswith(marker))


def _at(row: Fragment, anchor: float, persistence: float) -> Fragment:
    """``row`` with this anchor and persistence: the row itself if it has them."""
    if row.anchor == anchor and row.persistence == persistence:
        return row
    return row.replace(anchor=anchor, persistence=persistence)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # states share their columns; never mutate
    return array


# A row's record: ``sectors`` codes its sector set in ``_SECTOR_SETS`` and
# ``decay`` is its factor of the last decay.
_ROW = np.dtype([
    ("id", np.int64), ("created_at", float), ("anchor", float), ("persistence", float),
    ("sectors", np.intp), ("decay", float),
])
# The same bytes with no fields: numpy copies and filters a structured array
# field by field, and these whole, about ten times faster.
_RECORD = np.dtype((np.void, _ROW.itemsize))
# The records of every empty state, so building one makes no numpy call.
_NO_ROWS = _frozen(np.zeros(0, _ROW))
# The epistemic vacuum, which every constructed state is derived from.
_VACUUM = object.__new__(BeliefState)
_VACUUM._rows, _VACUUM._space, _VACUUM._conflicts, _VACUUM._goals = (), None, (), None
# Each distinct sector set a fragment was made with -> the kept set and its
# code, in order of first use; codes never change, so states share it.
_SECTOR_SETS: dict[frozenset[str], tuple[frozenset[str], int]] = {}


def _records(rows: Sequence[Fragment]) -> np.ndarray:
    """A new table of records of ``rows``, with no decay factor."""
    n = len(rows)
    table = np.zeros(n, _ROW)
    for name in ("id", "created_at", "anchor", "persistence"):
        table[name] = np.fromiter(map(operator.attrgetter(name), rows), _ROW[name], n)
    table["sectors"] = np.fromiter((_SECTOR_SETS[f.sectors][1] for f in rows), np.intp, n)
    return table


def _decay_factors(anchors: np.ndarray, dt: float, config: ParameterConfig) -> np.ndarray:
    """``math.exp(-config.decay_rate(anchor) * dt)`` per row (``np.exp``
    rounds differently)."""
    return _frozen(np.array(
        [math.exp(-config.decay_rate(a) * dt) for a in anchors.tolist()], dtype=float
    ))


def ordered_sum(values: Sequence[float]) -> float:
    """The float sum taken left to right, as ``sum()`` takes it up to Python
    3.11.  Not the builtin: Python 3.12's ``sum()`` compensates (Neumaier);
    nor ``np.sum``, which adds pairwise.  Either can move a last bit that a
    threshold in the trace then shows."""
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


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


# dim -> token -> ``token_cell(token, dim)``, for each token ``embed_rows``
# has met at that dim in this process.
_CELLS: dict[int, dict[str, int]] = {}


# Below this norm a vector's squared entries can be subnormal, so its norm,
# and the vector normalised by it, lose digits.
TINY_NORM = 1e-150


def embed_state(state: BeliefState, dim: int) -> np.ndarray:
    """Mass-weighted mean of fragment vectors, L2-normalized.

    Weights are anchor * persistence so faded content bends the geometry
    less.  The vacuum embeds to the zero vector.  If every weight is zero in
    a non-vacuum state, the unweighted mean is used so the unit-norm
    invariant still holds.  The state keeps the result for this ``dim``: the
    array is read-only and is returned, uncopied, by every later call with
    the same ``dim``.  The arithmetic is ``embed_weighted``'s, over the
    state's pair (V, index).
    """
    kept = state._embedding
    if kept is not None and kept[0] == dim:
        return kept[1]
    if state.is_vacuum:
        acc = np.zeros(dim, dtype=np.float64)
    else:
        acc = embed_weighted(*state._pair(dim), state.weights())
    state._embedding = (dim, _frozen(acc))
    return acc


def embed_weighted(vectors: np.ndarray, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The unit vector along the sum of ``vectors[rows[k]]`` weighted by
    ``weights[k]``: the one embedding arithmetic, of ``embed_state`` and of
    the exact re-reads of ``geometry.realign``.

    Only positive weights count; when none is positive, the rows are summed
    unweighted.  The positive-weight rows are taken into a new C-ordered
    matrix and scaled by their weights in place; summing it over axis 0
    adds row after row, in the order (and so to the bits) of
    ``acc += w * v`` over the rows.  Neither ``w @ V`` nor a pairwise sum
    keeps that order.  A zero sum stays zero.
    """
    positive = weights > 0.0
    if positive.any():
        scaled = np.take(vectors, rows[positive], axis=0)
        acc = np.multiply(scaled, weights[positive][:, None], out=scaled).sum(axis=0)
    else:
        acc = np.take(vectors, rows, axis=0).sum(axis=0)
    norm = float(np.linalg.norm(acc))
    if norm < TINY_NORM and acc.any():
        # The squares of the entries are subnormal and the norm loses
        # digits: bring the largest entry to 1 first.
        acc = acc / np.abs(acc).max()
        norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc = acc / norm
    return acc


def embed_rows(token_lists: Sequence[Sequence[str]], dim: int) -> np.ndarray:
    """Each token list's unit bag-of-words vector, one row of a read-only
    matrix filled in place (an empty list's row stays zero).

    A token's cell at ``dim`` is ``token_cell``'s, hashed once per process
    and kept in ``_CELLS``.  The counts are added into a zero matrix, and a
    row's squared norm is summed from the counts of its own tokens: a token
    adds its cell's count once per occurrence, so a row sums to the sum of
    its counts squared.  Those are integers, and every partial sum is exact
    while that sum is below 2**53, which holds for any row of fewer than
    about 9.4e7 tokens; so ``sqrt`` of it is the norm, in any order of
    addition, and equal token multisets give bit-equal rows, whatever the
    token order.  Only the filled cells are divided by the norm; the others
    stay ``+0.0``.
    """
    flat = list(chain.from_iterable(token_lists))
    cell_of = _CELLS.setdefault(dim, {})
    for token in set(flat).difference(cell_of):
        cell_of[token] = token_cell(token, dim)
    matrix = np.zeros((len(token_lists), dim), dtype=float)
    rows = np.repeat(np.arange(len(token_lists)), [len(t) for t in token_lists])
    cells = np.fromiter(map(cell_of.__getitem__, flat), np.intp, len(flat))
    np.add.at(matrix, (rows, cells), 1.0)
    counts = matrix[rows, cells]
    norms = np.sqrt(np.bincount(rows, weights=counts, minlength=len(token_lists)))
    matrix[rows, cells] = np.divide(counts, norms[rows], out=counts)
    return _frozen(matrix)


# --------------------------------------------------------------------------
# Sector density
# --------------------------------------------------------------------------

def activation_density(state: BeliefState, sector: str) -> float:
    """Share of total mass (anchor * persistence) carried by ``sector``."""
    total = state.mass
    if total <= 0.0:
        return 0.0
    return ordered_sum(state.weights()[state._in(sector)]) / total


# --------------------------------------------------------------------------
# Conflicts: two fragments contradict when they share a proposition key and
# have opposite polarity
# --------------------------------------------------------------------------

def key_groups(fragments: Iterable[Fragment]) -> dict[str, list[Fragment]]:
    """Keyed fragments grouped by proposition key, input order kept in each.

    Fragments on different keys never conflict, so a conflict query walks
    these groups instead of every pair; a state's in ``BeliefState.conflicts``.
    """
    groups: dict[str, list[Fragment]] = {}
    for f in fragments:
        if f.key is not None:
            groups.setdefault(f.key, []).append(f)
    return groups


def first_conflict(state: BeliefState) -> Optional[tuple[Fragment, Fragment]]:
    """The conflicting pair (a, b) of rows with the lowest (a.id, b.id), or
    None: the first conflict group's head and the head's first opposite."""
    groups = state.conflicts()
    if not groups:
        return None
    head, *rest = groups[0]
    return head, next(f for f in rest if f.polarity != head.polarity)


__all__ = [
    "ANCHOR_MAX",
    "BeliefState",
    "Fragment",
    "IdAllocator",
    "ORIGINS",
    "POLARITIES",
    "TINY_NORM",
    "activation_density",
    "embed_rows",
    "embed_state",
    "embed_weighted",
    "first_conflict",
    "key_groups",
    "ordered_sum",
    "token_cell",
    "tokenize",
]
