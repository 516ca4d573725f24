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
determinism.  ``embed_rows`` is the one vectoriser.  A fragment tokenises
once and derives its content key once; a state embeds once per ``dim``.
``Fragment.replace`` is the one way to copy a fragment: the copy carries its
source's tokens unless its text changes, and its content key unless a field
the key reads changes, and it passes the same checks as a freshly built
fragment.

A state is one table, for the active state and the long-term store alike:
fragments as they entered are its rows, in id order, and each row's anchor,
persistence and row in V (its unit vectors) are columns beside them from
construction.  Every state made from another comes out of ``_derive``, which
filters the rows and columns by a keep mask and splices put rows in,
computing only theirs: decay and ``reanchor`` hand it new columns, and every
other change is one ``revised`` (drop ids, put fragments).  A derived state
builds a row into a ``Fragment`` only when it is read.  Readers of the fields
that never change read ``rows``, or ``rows_in(s)`` from a sector view, and
build nothing; the conflict groups and the goal rows are readings a state
keeps and ``_derive`` hands on.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import operator
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

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
        # The content key is derived on first use.  Every fragment sets both
        # derived attributes here, in one order, so instances share one key
        # table; set later in varying order they would give each fragment a
        # dict of its own (+15% peak RSS).
        object.__setattr__(self, "_tokens", tokenize(self.text))
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

        The copy is not rebuilt: it carries this fragment's tokens unless
        ``text`` is overridden, and its content key unless a field the key
        reads is.  An unknown field name raises TypeError.
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
        if not _KEY_FIELDS.isdisjoint(overrides):
            state["_ckey"] = None
        copy._check()
        return copy


_FIELD_NAMES = frozenset(f.name for f in fields(Fragment))
# The fields content_key reads; overriding any of them drops the carried key.
_KEY_FIELDS = frozenset({"text", "key", "polarity", "sectors", "level"})


class BeliefState:
    """An immutable fragment ensemble plus a logical clock, held as a table.

    Beside its rows it keeps, from construction, each row's current anchor,
    persistence and row in a matrix V of unit vectors (``vectors``) that the
    states derived from it share until a put hands V on; and the decay
    factors of its last decay.  Only this module reads the columns.  A row's
    fixed fields (id, text, tokens, sectors, key, polarity, level, origin,
    created_at, members) are current; its anchor and persistence are those
    it entered with.  Its sector view, mass, embedding, conflict groups and
    goal rows are readings it keeps once made; ``_derive`` hands on those
    the parent's prove.
    """

    __slots__ = (
        "clock", "_rows", "_anchor", "_persistence", "_built", "_decay", "_lineage",
        "_index", "_view", "_mass", "_embedding", "_conflicts", "_goals",
    )

    def __init__(self, fragments: Iterable[Fragment] = (), clock: float = 0.0) -> None:
        rows = _in_id_order(tuple(fragments))
        if clock < 0:
            raise ValueError(f"clock must be >= 0, got {clock}")
        self.clock = clock
        self._rows = self._built = rows
        n = len(rows)
        if n:
            self._anchor = _frozen(np.fromiter((f.anchor for f in rows), float, n))
            self._persistence = _frozen(np.fromiter((f.persistence for f in rows), float, n))
            self._index = _frozen(np.arange(n))  # each row's row in V
        else:  # numpy's first calls in a process cost about 0.1 ms
            self._anchor = self._persistence = _NO_FLOATS
            self._index = _NO_INTS
        self._decay: Optional[tuple] = None  # (dt, config, per-row factors)
        self._lineage: list = [rows, None]  # (rows V is built over, V)
        self._view = self._mass = self._conflicts = self._goals = None
        self._embedding: Optional[tuple[int, np.ndarray]] = None  # (dim, vector)

    # -- reading -----------------------------------------------------------

    @property
    def fragments(self) -> Sequence[Fragment]:
        """The fragments in id order.  Counting them builds nothing."""
        return Fragments(self) if self._built is None else self._built

    @property
    def rows(self) -> tuple[Fragment, ...]:
        """The rows in id order.  Read only their fixed fields: a row's anchor
        and persistence are those it entered with."""
        return self._rows

    def _fragment(self, i: int) -> Fragment:
        if self._built is not None:
            return self._built[i]
        return _at(self._rows[i], float(self._anchor[i]), float(self._persistence[i]))

    def _all(self) -> tuple[Fragment, ...]:
        if self._built is None:
            self._built = tuple(map(
                _at, self._rows, self._anchor.tolist(), self._persistence.tolist()))
        return self._built

    def weights(self) -> np.ndarray:
        """Each fragment's weight, anchor * persistence, in id order."""
        return self._anchor * self._persistence

    def _V(self, dim: int) -> np.ndarray:
        """The lineage's V at ``dim``, embedded if absent or at another dim."""
        if self._lineage[1] is None or self._lineage[1].shape[1] != dim:
            self._lineage[1] = embed_rows([f.tokens for f in self._lineage[0]], dim)
        return self._lineage[1]

    def vectors(self, dim: int, rows: Any = slice(None)) -> np.ndarray:
        """A new C-ordered matrix of the unit vectors of ``rows`` (positions
        or a mask; all rows by default), in row order."""
        return np.take(self._V(dim), self._index[rows], axis=0)

    def _sector_view(self) -> dict[str, list[int]]:
        """sector -> its row positions, sectors sorted; built on first use
        and kept: the rows never change."""
        view = self._view
        if view is None:
            groups: dict[str, list[int]] = {}
            for i, f in enumerate(self._rows):
                for s in f.sectors:
                    groups.setdefault(s, []).append(i)
            view = self._view = {s: groups[s] for s in sorted(groups)}
        return view

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
        i = bisect.bisect_left(self._rows, fragment_id, key=_ID)
        return i if i < len(self._rows) and self._rows[i].id == fragment_id else None

    def get(self, fragment_id: int) -> Optional[Fragment]:
        i = self._position(fragment_id)
        return None if i is None else self._fragment(i)

    def ids(self) -> frozenset[int]:
        return frozenset(f.id for f in self._rows)

    def sectors(self) -> tuple[str, ...]:
        """All sector tags present, sorted."""
        return tuple(self._sector_view())

    def rows_in(self, sector: str) -> tuple[Fragment, ...]:
        """The rows tagged with ``sector``, in id order (fixed fields only)."""
        return tuple(map(self._rows.__getitem__, self._sector_view().get(sector, ())))

    @property
    def mass(self) -> float:
        """Total weight (anchor * persistence) of the state's fragments."""
        if self._mass is None:
            self._mass = ordered_sum(self.weights()) if self._rows else 0.0
        return self._mass

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BeliefState) and (self._all(), self.clock) == (
            other._all(), other.clock)

    def __hash__(self) -> int:
        return hash((self._all(), self.clock))

    def __repr__(self) -> str:
        return f"BeliefState(fragments={self._all()!r}, clock={self.clock!r})"

    # -- deriving ----------------------------------------------------------

    def _derive(self, clock: float, anchor: np.ndarray, persistence: np.ndarray,
                decay: Optional[tuple], keep: Optional[np.ndarray] = None,
                put: Sequence[Fragment] = ()) -> "BeliefState":
        """The one way a state is made from another: these columns and decay
        filtered to the rows ``keep`` marks, then the rows of ``put`` (in id
        order, none kept) spliced in, with only their columns computed.  A
        put hands V on to the new state and clears this lineage's slot."""
        new = object.__new__(BeliefState)
        new.clock, new._mass, new._embedding, new._built = clock, None, None, None
        rows, index, lineage = self._rows, self._index, self._lineage
        # The view, the conflict groups and the goal rows read fixed fields only.
        view, conflicts, goals = self._view, self._conflicts, self._goals
        if keep is not None and not keep.all():
            mask = keep.tolist()
            rows = tuple(itertools.compress(rows, mask))
            index, anchor, persistence = index[keep], anchor[keep], persistence[keep]
            if decay is not None:
                decay = (decay[0], decay[1], _frozen(decay[2][keep]))
            view = None
            conflicts = None if conflicts else conflicts  # () stays ()
            if goals is not None:
                goals = (goals[0], tuple(f for f in goals[1] if mask[self._position(f.id)]))
        if put:
            at = [bisect.bisect_left(rows, f.id, key=_ID) for f in put]
            spliced = list(rows)
            for i, f in zip(reversed(at), reversed(put)):  # back to front: at stays valid
                spliced.insert(i, f)
            put_anchor = np.array([f.anchor for f in put], dtype=float)
            anchor = np.insert(anchor, at, put_anchor)
            persistence = np.insert(persistence, at, [f.persistence for f in put])
            if decay is not None:
                dt, config, factors = decay
                factors = np.insert(factors, at, _decay_factors(put_anchor, dt, config))
                decay = (dt, config, _frozen(factors))
            V = lineage[1]
            if V is not None:  # in one allocation, a placeholder row at each put row
                put_V = embed_rows([f.tokens for f in put], V.shape[1])
                if rows:
                    V = np.take(V, np.insert(index, at, 0), axis=0)
                    V[np.add(at, np.arange(len(at)))] = put_V
                    put_V = V
                lineage[1], V = None, _frozen(put_V)
            rows = tuple(spliced)
            lineage, index, view = [rows, V], np.arange(len(rows)), None
            conflicts = () if conflicts == () and all(f.key is None for f in put) else None
            if goals is not None:  # no put id is among the kept goal rows
                goals = (goals[0], tuple(sorted((*goals[1], *_starting(put, goals[0])), key=_ID)))
        new._rows, new._lineage, new._index = rows, lineage, _frozen(index)
        new._anchor, new._persistence, new._decay = _frozen(anchor), _frozen(persistence), decay
        new._view, new._conflicts, new._goals = view, conflicts, goals
        return new

    def revised(self, put: Iterable[Fragment] = (),
                drop: Iterable[int] = ()) -> "BeliefState":
        """This state without the ids in ``drop``, with each fragment of
        ``put`` in place of the row of its id or added in id order: one
        ``_derive`` that keeps every row not dropped or put."""
        put = _in_id_order(tuple(put))
        gone = set(drop).union(map(_ID, put))
        if not gone:
            return self
        keep = np.ones(len(self._rows), dtype=bool)
        keep[[i for i in map(self._position, gone) if i is not None]] = False
        return self._derive(self.clock, self._anchor, self._persistence, self._decay, keep, put)

    def decayed(self, dt: float, config: ParameterConfig, clock: float,
                sector: Optional[str] = None) -> "BeliefState":
        """The state at ``clock`` after ``dt`` ticks of ``dynamics.nullify``
        over every row, or over ``sector``'s rows.  A whole-state decay keeps
        its factors for the next one with the same dt and config."""
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        anchor, decay = self._anchor, self._decay
        if sector is None:
            rows: Any = slice(None)
            if decay is None or decay[0] != dt or decay[1] != config:
                decay = (dt, config, _decay_factors(anchor, dt, config))
            factors = decay[2]
        else:
            rows = self._sector_view().get(sector, [])
            factors = _decay_factors(anchor[rows], dt, config)
        persistence = self._persistence.copy()
        persistence[rows] = persistence[rows] * factors
        keep = np.ones(len(persistence), dtype=bool)
        keep[rows] = persistence[rows] > config.delta
        return self._derive(clock, anchor, persistence, decay, keep)

    def reanchor(self, fragment_ids: Iterable[int], floor: float) -> "BeliefState":
        """Rows of ``fragment_ids`` lifted to an anchor of at least ``floor``
        and restored to full persistence; absent ids are skipped.  Kept decay
        factors are recomputed only for rows whose anchor moved."""
        rows = [i for i in map(self._position, fragment_ids) if i is not None]
        if not rows:
            return self
        anchor, persistence = self._anchor.copy(), self._persistence.copy()
        anchor[rows] = np.maximum(anchor[rows], floor)
        persistence[rows] = 1.0
        decay = self._decay
        if decay is not None:
            moved = np.flatnonzero(anchor != self._anchor)
            factors = decay[2].copy()
            factors[moved] = _decay_factors(anchor[moved], decay[0], decay[1])
            decay = (decay[0], decay[1], _frozen(factors))
        return self._derive(self.clock, anchor, persistence, decay)

    def matching(self, cue_vec: np.ndarray, tau: float,
                 **overrides: Any) -> tuple[Fragment, ...]:
        """The fragments whose ``np.dot(cue_vec, vector) * persistence``
        reaches ``tau``, in id order: one matrix product over V screens every
        row, and the rows it cannot rule out are scored exactly, as the
        product can round differently from a row's own dot product.  Each is
        built once, as one ``replace`` of its row with its anchor,
        persistence and ``overrides``."""
        vectors = self._V(len(cue_vec))
        anchor, persistence = self._anchor, self._persistence
        screened = (vectors @ cue_vec)[self._index]
        # Vectors are non-negative and unit-norm, so two float64 dot products
        # of length d (V @ cue, and one np.dot) differ by at most 2*d*eps; one
        # more eps covers the multiply by the persistence.
        bound = (2 * len(cue_vec) + 1) * np.finfo(float).eps
        near = np.flatnonzero(screened * persistence >= tau - bound)
        return tuple(
            self._rows[i].replace(anchor=a, persistence=p, **overrides)
            for i, row, a, p in zip(near.tolist(), self._index[near].tolist(),
                                    anchor[near].tolist(), persistence[near].tolist())
            if float(np.dot(cue_vec, vectors[row])) * p >= tau
        )


class Fragments(Sequence):
    """A derived state's fragments, in id order: counting them builds
    nothing, and a row becomes a ``Fragment`` when it is read."""

    __slots__ = ("_state",)

    def __init__(self, state: BeliefState) -> None:
        self._state = state

    def __len__(self) -> int:
        return len(self._state._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._state._all()[index]
        return self._state._fragment(range(len(self))[index])

    def __iter__(self) -> Iterator[Fragment]:
        return iter(self._state._all())


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


# The columns of every empty state, so building one makes no numpy call.
_NO_FLOATS = _frozen(np.empty(0))
_NO_INTS = _frozen(np.empty(0, dtype=np.intp))


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
    the same ``dim``.

    The positive-weight rows' vectors (``state.vectors``, C-ordered) are
    scaled by their weights in place; summing them over axis 0 adds row
    after row, in the order (and so to the bits) of ``acc += w * v`` over
    the rows.  Neither ``w @ V`` nor a pairwise sum keeps that order.
    """
    kept = state._embedding
    if kept is not None and kept[0] == dim:
        return kept[1]
    if state.is_vacuum:
        acc = np.zeros(dim, dtype=np.float64)
    else:
        w = state.weights()
        positive = w > 0.0
        if positive.any():
            V = state.vectors(dim, positive)
            acc = np.multiply(V, w[positive][:, None], out=V).sum(axis=0)
        else:
            acc = state.vectors(dim).sum(axis=0)
        norm = float(np.linalg.norm(acc))
        if norm < TINY_NORM and acc.any():
            # The squares of the entries are subnormal and the norm loses
            # digits: bring the largest entry to 1 first.
            acc = acc / np.abs(acc).max()
            norm = float(np.linalg.norm(acc))
        if norm > 0.0:
            acc = acc / norm
    state._embedding = (dim, _frozen(acc))
    return acc


def embed_rows(token_lists: Sequence[Sequence[str]], dim: int) -> np.ndarray:
    """Each token list's unit bag-of-words vector, one row of a read-only
    matrix filled in place (an empty list's row stays zero).

    A row's cells hold integer token counts, so their squares sum exactly
    and ``sqrt`` of that sum is its norm: equal token multisets give
    bit-equal rows, whatever the token order.
    """
    flat = list(chain.from_iterable(token_lists))
    cell_of = {t: token_cell(t, dim) for t in set(flat)}
    matrix = np.zeros((len(token_lists), dim), dtype=float)
    np.add.at(
        matrix,
        (
            np.repeat(np.arange(len(token_lists)), [len(t) for t in token_lists]),
            np.fromiter(map(cell_of.__getitem__, flat), np.intp, len(flat)),
        ),
        1.0,
    )
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    matrix /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return _frozen(matrix)


# --------------------------------------------------------------------------
# Sector density
# --------------------------------------------------------------------------

def activation_density(state: BeliefState, sector: str) -> float:
    """Share of total mass (anchor * persistence) carried by ``sector``."""
    total = state.mass
    if total <= 0.0:
        return 0.0
    return ordered_sum(state.weights()[state._sector_view().get(sector, [])]) / total


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
    "first_conflict",
    "key_groups",
    "ordered_sum",
    "token_cell",
    "tokenize",
]
