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
determinism.  A row fills as many cells as it has distinct tokens, a few of
``embed_dim``, so rows are held as their token cells (``Entries``): each
row's filled cells, ascending, with its values beside them.  ``embed_rows``
is the one vectoriser; it hashes each distinct token once per ``dim`` per
process.  A fragment tokenises once and derives its content key once; a
state embeds once per ``dim``.
A fragment has one constructor, which keeps one object per equal sector set
and makes every check of ``check_fields`` through ``admit``;
``Fragment.replace`` is a construction from its fields and the overrides, so
a copy tokenises again and derives its own content key.

A state is one table, for the active state and the long-term store alike:
fragments as they entered are its rows, in id order, and one record per row
beside them holds its columns (id, ``created_at``, sector set, anchor,
persistence, decay factor).  The rows are a pair (source, index), row ``i``
being slot ``index[i]`` of a ``_Rows`` that states share; the rows' unit
vectors are likewise a pair (entries, index), row ``i``'s vector being
entry row ``index[i]``.  A state read from a spec list
(``BeliefState.from_columns``) holds the list's columns and builds a row
only on its first read, filling it from the columns and the tokens and kept
sector set of the list's one ``admit`` by the constructor's own ``_fill``,
and keeps it; a put row comes built.  No state holds a dense matrix:
``vectors`` builds one on each read.  Every other state comes out of
``_derive``, which filters the records and both indexes by one keep mask
and splices put rows in by one plan, computing only theirs: a constructed
state is the epistemic vacuum with its fragments put in, decay and
``reanchor`` hand it new columns, and every other change is one
``revised`` (drop ids, put fragments).
``fragments`` hands back every row with its current anchor and persistence,
building any row not yet built; ``fragment(i)`` reads one row.  Readers of
the fixed fields read ``rows`` (a tuple made on its first read and kept),
``rows_in(s)``, ``ids()``, ``size`` or ``latest()``, and ``rows_in(s)``
and ``latest()`` build only the rows they return; retrieval
(``matching``) makes each hit by one construction from its row's fields,
and builds no row; the conflict groups and the goal rows are readings a
state keeps and ``_derive`` hands on.

Two more readings serve assimilation, each made from the rows on its first
read, so never for a state nobody assimilates into (the store): the
content-key map (content key -> the ids holding it, ``holding``) and the
key index (proposition key -> (id, polarity) of its rows, ``keyed``).
``_derive`` hands both on in O(changed rows): the rows that leave are taken
out and the put rows put in, and the new state takes the two dicts, this
state's slots emptied, as a put takes the entries; they are never copied.
The conflict groups regroup from the key index only the keys derivations
touched, and each derived state records the ids it dropped
(``dropped_from``).
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


def check_fields(id, text, tokens, sectors, level, anchor, persistence, origin,
                 key, polarity, members) -> None:
    """Every invariant of a fragment, read off its plain field values and
    its ``tokens``: each construction runs it, and so does the column pass
    that reads a spec list (``simulator._build``) for each row it reads."""
    if not tokens:
        raise ValueError(f"fragment {id}: text has no tokens: {text!r}")
    if not sectors:
        raise ValueError(f"fragment {id}: needs at least one sector tag")
    if level < 0:
        raise ValueError(f"fragment {id}: level must be >= 0, got {level}")
    if not 0 <= anchor <= ANCHOR_MAX:  # also rejects NaN
        raise ValueError(
            f"fragment {id}: anchor must be a finite number >= 0 "
            f"and <= {ANCHOR_MAX:g}, got {anchor}"
        )
    if not (0.0 <= persistence <= 1.0):
        raise ValueError(f"fragment {id}: persistence must lie in [0, 1], got {persistence}")
    if origin not in ORIGINS:
        raise ValueError(f"fragment {id}: unknown origin {origin!r}")
    if (key is None) != (polarity is None):
        raise ValueError(f"fragment {id}: key and polarity must be set together")
    if polarity is not None and polarity not in POLARITIES:
        raise ValueError(f"fragment {id}: polarity must be '+' or '-'")
    if bool(members) != (origin == "abstracted"):
        raise ValueError(f"fragment {id}: members must be non-empty iff origin is 'abstracted'")


def admit(id, text, sectors, level, anchor, persistence, origin, key, polarity,
          members) -> tuple[tuple[str, ...], frozenset[str]]:
    """The tokens and the kept sector set of a row with these fields, once
    ``check_fields`` passes them: the set kept is the first equal one
    admitted, and a new set takes its code only once checked.  The
    constructor admits each fragment, and the column pass each spec row."""
    kept, code = _SECTOR_SETS.get(sectors) or (sectors, None)
    tokens = tokenize(text)
    check_fields(id, text, tokens, kept, level, anchor, persistence, origin, key, polarity,
                 members)
    if code is None:
        _SECTOR_SETS[kept] = (kept, len(_SECTOR_SETS))
    return tokens, kept


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
        tokens, sectors = admit(
            id, text, sectors, level, anchor, persistence, origin, key, polarity, members)
        _fill(self, id, text, sectors, level, anchor, persistence, created_at, origin, key,
              polarity, members, tokens)

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


def _fill(row: Fragment, id, text, sectors, level, anchor, persistence, created_at, origin,
          key, polarity, members, tokens) -> Fragment:
    """``row`` with these fields set, ``admit`` having passed them and given
    ``tokens`` and the kept set ``sectors``: the one path that sets a
    fragment's fields, for the constructor and for a row the column pass
    admitted (``_Rows.row``).  Attributes are set one at a time, in this
    order, so all fragments share one key table.  Reading ``__dict__``
    would give each its own dict and halve the speed of every attribute
    read."""
    put = object.__setattr__  # the class is frozen
    put(row, "id", id)
    put(row, "text", text)
    put(row, "sectors", sectors)
    put(row, "level", level)
    put(row, "anchor", anchor)
    put(row, "persistence", persistence)
    put(row, "created_at", created_at)
    put(row, "origin", origin)
    put(row, "key", key)
    put(row, "polarity", polarity)
    put(row, "members", members)
    put(row, "_tokens", tokens)
    put(row, "_ckey", None)  # the content key, derived on first use
    return row


class BeliefState:
    """An immutable fragment ensemble plus a logical clock, held as a table.

    ``BeliefState(fragments, clock)`` is the vacuum with ``fragments`` put
    in, by the one ``_derive`` that makes every state from another;
    ``from_columns`` makes a state of rows read into columns.  Beside its
    rows a state keeps one record per row (``_ROW``): the id,
    ``created_at`` and sector set the row entered with, its current anchor
    and persistence, and its factor of the last whole-state decay.  Only
    this module reads the records.  Its rows are a pair (``_Rows``, index):
    row ``i`` is slot ``index[i]`` of the source, built on its first read
    and kept there.  Its rows' unit vectors are a pair (``Entries``, index)
    of read-only arrays that the state holds, or embeds at its first read:
    row ``i``'s vector is entry row ``index[i]``.  So a drop filters both
    indexes, and a put appends only the put rows to a copy of the source
    and of the entries.
    A row's fixed fields (id, text, tokens, sectors, key, polarity, level,
    origin, created_at, members) are current; its anchor and persistence are
    those it entered with.  Its mass, embedding, conflict groups and goal
    rows are readings it keeps once made; ``_derive`` hands on those the
    parent's prove, so an unkeyed state is conflict-free from the start.
    Its content-key map and key index are made on first read and moved to
    the state derived from it, which updates them by the rows that left
    and the rows put in; its conflict groups carry the keys touched since
    they were grouped.  It records the ids its derivation dropped.
    """

    __slots__ = (
        "clock", "_source", "_index", "_rows", "_table", "_decay", "_space",
        "_mass", "_embedding", "_conflicts", "_touched", "_goals", "_contents", "_keys",
        "_dropped",
    )

    def __new__(cls, fragments: Iterable[Fragment] = (), clock: float = 0.0) -> "BeliefState":
        if clock < 0:
            raise ValueError(f"clock must be >= 0, got {clock}")
        return _VACUUM._derive(clock, _NO_ROWS, None, put=fragments)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Any]],
                     tokens: Sequence[tuple[str, ...]], clock: float) -> "BeliefState":
        """A state at ``clock`` whose rows are given as columns, one row built
        only when it is read.  ``columns`` holds one sequence per field of
        ``Fragment`` from ``id`` to ``polarity``, in field order, row ``r``'s
        constructor arguments being item ``r`` of each: ids ascending, and
        each row admitted by ``admit``, which gave its tokens ``tokens[r]``.
        The records are filled from the columns."""
        n = len(tokens)
        if not n:
            return cls((), clock)
        ids, _, sectors, _, anchors, persistences, created_at, _, keys, _ = columns
        return _state(
            clock, _Rows(np.full(n, None, object), _objects(tokens), columns, n), _arange(n),
            _frozen(_records(ids, created_at, anchors, persistences, sectors)), None, None,
            () if keys.count(None) == n else None, _NO_KEYS, None, None, None, ())

    # -- reading -----------------------------------------------------------

    @property
    def fragments(self) -> tuple[Fragment, ...]:
        """The fragments in id order: every row, built and kept if it was
        not, with its current anchor and persistence; a row whose anchor and
        persistence did not move is handed back as it is."""
        table = self._table
        return tuple(map(
            _at, self.rows, table["anchor"].tolist(), table["persistence"].tolist()))

    @property
    def rows(self) -> tuple[Fragment, ...]:
        """The rows in id order, as a tuple made on the first read and kept.
        Read only their fixed fields: a row's anchor and persistence are
        those it entered with."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self._source.take(self._index)
        return rows

    @property
    def size(self) -> int:
        """The number of rows; builds nothing."""
        return len(self._index)

    def fragment(self, i: int) -> Fragment:
        """Row ``i`` as a ``Fragment`` with its current anchor and
        persistence; no other row is built."""
        record = self._table[i]
        return _at(self._source.row(int(self._index[i])),
                   float(record["anchor"]), float(record["persistence"]))

    def weights(self) -> np.ndarray:
        """Each fragment's weight, anchor * persistence, in id order."""
        return self._table["anchor"] * self._table["persistence"]

    def _pair(self, dim: int) -> tuple[Entries, np.ndarray]:
        """The pair (entries, index) at ``dim``; with none, or one at another
        dim, the state embeds its rows' tokens and keeps ``(entries,
        arange(n))``.  No row is built."""
        pair = self._space
        if pair is None or pair[0].dim != dim:
            tokens = self._source.tokens[self._index].tolist()
            pair = self._space = (embed_rows(tokens, dim), _arange(len(tokens)))
        return pair

    def entries(self, dim: int) -> Entries:
        """The rows' entries at ``dim``, in row order: entry row ``i`` is row ``i``."""
        entries, index = self._pair(dim)
        return entries.take(index)

    def vectors(self, dim: int) -> np.ndarray:
        """A new C-ordered matrix of the rows' unit vectors, in row order."""
        return self.entries(dim).dense()

    def _in(self, sector: str) -> np.ndarray:
        """A mask of the rows whose sector set holds ``sector``."""
        holds = np.fromiter((sector in s for s in _SECTOR_SETS), bool, len(_SECTOR_SETS))
        return holds[self._table["sectors"]]

    def conflicts(self) -> tuple[tuple[Fragment, ...], ...]:
        """The key groups holding both polarities, rows in id order, groups in
        head-id order, read from the key index on first read and kept.  A
        derived state is handed its parent's groups with the keys its
        derivations touched, and regroups only those; one conflict-free by
        its parent's groups and its put rows' keys starts with ``()``.
        Read only the rows' fixed fields."""
        kept, touched = self._conflicts, self._touched
        if kept is None or touched:
            keys = self._key_index()
            if kept is None:
                touched, groups = keys, []
            else:
                groups = [g for g in kept if g[0].key not in touched]
            for key in touched:
                held = keys.get(key, ())
                if any(p != held[0][1] for _, p in held):
                    groups.append(self._with_ids([i for i, _ in held]))
            kept = self._conflicts = tuple(sorted(groups, key=_head_id))
            self._touched = _NO_KEYS
        return kept

    def _content_index(self) -> dict[tuple, tuple[int, ...]]:
        """The content-key map: each content key held -> the ids of the rows
        holding it, ascending.  Made from the rows on first read, and then
        handed on by ``_derive``."""
        contents = self._contents
        if contents is None:
            contents = self._contents = {}
            for f in self.rows:
                ckey = f.content_key()
                contents[ckey] = (*contents.get(ckey, ()), f.id)
        return contents

    def _key_index(self) -> dict[str, tuple[tuple[int, str], ...]]:
        """The key index: each proposition key held -> (id, polarity) of
        each row holding it, ascending by id.  Made from the rows on first
        read, and then handed on by ``_derive``."""
        keys = self._keys
        if keys is None:
            keys = self._keys = {
                key: tuple((f.id, f.polarity) for f in group)
                for key, group in key_groups(self.rows).items()
            }
        return keys

    def holding(self, content_key: tuple) -> tuple[int, ...]:
        """The ids of the rows whose content key is ``content_key``,
        ascending: a read of the content-key map."""
        return self._content_index().get(content_key, ())

    def keyed(self, key: str) -> tuple[tuple[int, str], ...]:
        """(id, polarity) of each row on proposition ``key``, ascending by
        id: a read of the key index."""
        return self._key_index().get(key, ())

    def _with_ids(self, ids: Sequence[int]) -> tuple[Fragment, ...]:
        """The rows of ``ids``, ids held and ascending (fixed fields only)."""
        return self._source.take(self._index[self._table["id"].searchsorted(ids)])

    def dropped_from(self, parent: "BeliefState") -> tuple[int, ...]:
        """The ids ``parent`` held that this state does not, ascending, where
        ``parent`` is this state or the one it was derived from: the ids its
        derivation dropped and put no row back for, recorded as it ran."""
        return () if parent is self else self._dropped

    def goals(self, marker: str) -> tuple[Fragment, ...]:
        """The rows whose lowercased text starts with ``marker``, in id order:
        one walk on the first read for a marker, kept as ``(marker, rows)``.
        A derived state is handed its parent's goal rows that it keeps, and
        tests only its put rows.  Read only the rows' fixed fields."""
        kept = self._goals
        if kept is None or kept[0] != marker:
            kept = self._goals = (marker, _starting(self.rows, marker))
        return kept[1]

    @property
    def is_vacuum(self) -> bool:
        return not len(self._index)

    def _position(self, fragment_id: int) -> Optional[int]:
        ids = self._table["id"]
        i = int(ids.searchsorted(fragment_id))
        return i if i < len(ids) and ids[i] == fragment_id else None

    def positions(self, fragment_ids: Sequence[int]) -> np.ndarray:
        """The row of each of ``fragment_ids``, or -1 for an id no row
        has: one ``searchsorted`` of the id column."""
        column, wanted = self._table["id"], np.asarray(fragment_ids, np.int64)
        if not len(column):
            return np.full(len(wanted), -1)
        at = np.minimum(column.searchsorted(wanted), len(column) - 1)
        return np.where(column[at] == wanted, at, -1)

    def get(self, fragment_id: int) -> Optional[Fragment]:
        i = self._position(fragment_id)
        return None if i is None else self.fragment(i)

    def ids(self) -> frozenset[int]:
        return frozenset(self._table["id"].tolist())

    def latest(self) -> Fragment:
        """The row created last, of a non-empty state; among rows created at
        once, the one of highest id (fixed fields only)."""
        created = self._table["created_at"]
        return self._source.row(int(self._index[np.flatnonzero(created == created.max())[-1]]))

    def sectors(self) -> tuple[str, ...]:
        """All sector tags present, sorted."""
        if self.is_vacuum:
            return ()
        present = np.bincount(self._table["sectors"], minlength=len(_SECTOR_SETS))
        return tuple(sorted(set().union(*itertools.compress(_SECTOR_SETS, present.tolist()))))

    def rows_in(self, sector: str) -> tuple[Fragment, ...]:
        """The rows tagged with ``sector``, in id order (fixed fields only);
        no other row is built."""
        return self._source.take(self._index[self._in(sector)])

    def count_in(self, sector: str) -> int:
        """The number of rows tagged with ``sector``; builds nothing."""
        return int(np.count_nonzero(self._in(sector)))

    @property
    def mass(self) -> float:
        """Total weight (anchor * persistence) of the state's fragments."""
        if self._mass is None:
            self._mass = 0.0 if self.is_vacuum else ordered_sum(self.weights())
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
        """The one way a state is made from another, or from the vacuum:
        ``table`` (this state's records or new ones) and the rows filtered by
        one mask ``keep``, then the rows of ``put`` (none kept) put in id
        order and spliced in by one plan, with only their records computed;
        with no row kept, the put rows are the rows.  A drop shares this
        state's source and entries and filters their indexes.  A put
        appends the put rows to a copy of the source, and their entries to
        a copy of the entries, which it hands on, emptying this state's
        slot; either copy first keeps only the live rows once dropped rows
        outnumber them.

        The content-key map and the key index are handed on in O(changed
        rows), never copied: the new state takes them, emptying this
        state's slots.  The rows that leave (dropped, or replaced by a put
        row of their id) are taken out of both, then the put rows put in;
        the keys either touched are added to those the conflict groups must
        regroup.  The new state records the ids dropped and not put back."""
        put = _in_id_order(tuple(put))
        source, index, space = self._source, self._index, self._space
        # The readings handed on read fixed fields only.
        conflicts, touched, goals = self._conflicts, self._touched, self._goals
        contents, keys = self._contents, self._keys
        self._contents = self._keys = None
        gone: tuple[Fragment, ...] = ()  # the rows that leave, read when an index needs them
        dropped: tuple[int, ...] = ()
        dropping = keep is not None and not keep.all()
        if dropping:
            lost = ~keep
            dropped = tuple(table["id"][lost].tolist())
            if contents is not None or keys is not None:  # then every row is built
                gone = source.take(index[lost])
            index = index[keep]
            table = table.view(_RECORD)[keep].view(_ROW)
            if space is not None:
                space = (space[0], _frozen(space[1][keep]))
            if goals is not None:
                mask = keep.tolist()
                goals = (goals[0], tuple(f for f in goals[1] if mask[self._position(f.id)]))
        if put:
            added = _records(*zip(*map(_RECORD_FIELDS, put)))
            if decay is not None:
                added["decay"] = _decay_factors(added["anchor"], *decay)
            if not len(index):  # nothing kept: the put rows are the rows, embedded at the first read
                table, source, index, space = added, _Rows.built(put), _arange(len(put)), None
            else:
                # The plan: each put row's final position, past the kept rows
                # of lower id and the put rows before it.
                at = table["id"].searchsorted(added["id"]) + np.arange(len(put))
                spliced = np.empty(len(index) + len(put), _RECORD)
                slot = np.ones(len(spliced), dtype=bool)
                slot[at] = False
                spliced[slot], spliced[at] = table.view(_RECORD), added.view(_RECORD)
                table = spliced.view(_ROW)
                if 2 * len(index) < len(source):  # most slots are dropped rows'
                    source, index = _Rows.built(source.take(index)), np.arange(len(index))
                index = _spliced(index, slot, at, len(source))
                source = source.extended(put)
                if space is not None:  # the put rows' entry rows follow the others
                    entries, kept = space
                    if 2 * len(kept) < entries.rows:  # most entry rows are dropped rows'
                        entries, kept = entries.take(kept), np.arange(len(kept))
                    kept = _spliced(kept, slot, at, entries.rows)
                    entries = entries.extended(embed_rows([f.tokens for f in put], entries.dim))
                    space, self._space = (entries, _frozen(kept)), None
            if goals is not None:  # no put id is among the kept goal rows
                goals = (goals[0], tuple(sorted((*goals[1], *_starting(put, goals[0])), key=_ID)))
            if dropped:
                back = set(map(_ID, put))
                dropped = tuple(i for i in dropped if i not in back)
        if contents is not None:
            for f in gone:
                _unheld(contents, f.content_key(), f.id)
            for f in put:
                _held(contents, f.content_key(), f.id)
        if keys is not None:
            left = [f for f in gone if f.key is not None]
            came = [f for f in put if f.key is not None]
            for f in left:
                _unheld(keys, f.key, (f.id, f.polarity))
            for f in came:
                _held(keys, f.key, (f.id, f.polarity))
            if conflicts is not None and (left or came):
                touched = touched.union(f.key for f in chain(left, came))
        elif touched or (dropping and conflicts) or any(f.key is not None for f in put):
            conflicts, touched = None, _NO_KEYS  # no index to regroup from; () stays ()
        new = _state(clock, source, _frozen(index), _frozen(table), decay, space, conflicts,
                     touched, goals, contents, keys, dropped)
        if index is self._index:  # the same rows
            new._rows = self._rows
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
        at = self.positions(list(gone))
        keep = np.ones(self.size, dtype=bool)
        keep[at[at >= 0]] = False
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
        reaches ``tau``, in id order.  Each is made by one construction from
        its row's fields with its anchor, persistence and ``overrides``; no
        row is built.

        One ``bincount`` of ``cue_vec[cells] * values`` by entry row screens
        every row: it sums a row's products over its filled cells, the only
        nonzero terms of its dot product.  The rows it cannot rule out are
        re-read exactly, as ``np.dot`` of the cue with the row's dense
        vector, bit-equal to the row of a dense V, so every score keeps its
        bits.  The bound: the cue and a row are non-negative and unit-norm,
        so their exact dot product, the sum of at most d non-negative
        products, lies in [0, 1]; any float64 evaluation of it, products
        rounded and summed in any order, is within gamma_d < d*eps of it.
        So the screen and ``np.dot`` differ by at most 2*d*eps, and one
        more eps covers the multiply by the persistence.
        """
        entries, index = self._pair(len(cue_vec))
        anchor, persistence = self._table["anchor"], self._table["persistence"]
        owner = np.arange(entries.rows).repeat(entries.lengths())
        products = cue_vec[entries.cells] * entries.values
        screened = np.bincount(owner, weights=products, minlength=entries.rows)[index]
        bound = (2 * len(cue_vec) + 1) * np.finfo(float).eps
        near = np.flatnonzero(screened * persistence >= tau - bound)
        made = self._source.made
        return tuple(
            made(r, anchor=a, persistence=p, **overrides)
            for r, vector, a, p in zip(self._index[near].tolist(),
                                       entries.take(index[near]).dense(),
                                       anchor[near].tolist(), persistence[near].tolist())
            if float(np.dot(cue_vec, vector)) * p >= tau
        )


_ID = operator.attrgetter("id")


def _head_id(group: tuple[Fragment, ...]) -> int:
    return group[0].id


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


def _arange(n: int) -> np.ndarray:
    return _frozen(np.arange(n))


def _objects(items: Sequence[Any]) -> np.ndarray:
    """A one-dimensional object array of ``items``, each kept as it is."""
    return np.fromiter(items, object, len(items))


# Fragment's fields, in order.
_FIELDS = tuple(f.name for f in dataclasses.fields(Fragment))


class _Rows:
    """The rows that states read, held once for the states that share them:
    one slot per row and each row's tokens (object arrays), and the columns
    of the rows read from specs.

    A state's rows are a pair (source, index), row ``i`` being slot
    ``index[i]``.  A row given in ``columns`` (one sequence per field of
    ``Fragment`` from ``id`` to ``polarity``, item ``r`` of each being row
    ``r``'s) starts with an empty slot, which its first read fills from the
    columns and its tokens by the constructor's own ``_fill``, with no
    second ``admit``, and keeps; a put row comes built.  A source is
    extended only by copying, so a state's rows never change.
    """

    __slots__ = ("slots", "tokens", "columns", "unbuilt")

    def __init__(self, slots: np.ndarray, tokens: np.ndarray,
                 columns: Sequence[Sequence[Any]] = (), unbuilt: int = 0) -> None:
        self.slots, self.tokens, self.columns = slots, _frozen(tokens), columns
        self.unbuilt = unbuilt  # the number of empty slots

    @classmethod
    def built(cls, rows: Sequence[Fragment]) -> "_Rows":
        """A source of the built ``rows``."""
        return cls(_objects(rows), _objects([f.tokens for f in rows]))

    def __len__(self) -> int:
        return len(self.slots)

    def row(self, r: int) -> Fragment:
        """Row ``r``, built on its first read and kept."""
        row = self.slots[r]
        if row is None:  # the column pass admitted it: filled, not admitted again
            row = self.slots[r] = _fill(object.__new__(Fragment),
                                        *[column[r] for column in self.columns],
                                        None, self.tokens[r])
            self.unbuilt -= 1
        return row

    def made(self, r: int, **overrides: Any) -> Fragment:
        """A new fragment of row ``r``'s fields with ``overrides`` applied, by
        one construction; row ``r`` is not built."""
        row = self.slots[r]
        if row is not None:
            return row.replace(**overrides)
        return Fragment(**dict(zip(_FIELDS, [column[r] for column in self.columns]), **overrides))

    def take(self, index: np.ndarray) -> tuple[Fragment, ...]:
        """Rows ``index``, in that order; only these rows are built."""
        rows = self.slots[index].tolist()
        if self.unbuilt:
            rows = [row if row is not None else self.row(r)
                    for r, row in zip(index.tolist(), rows)]
        return tuple(rows)

    def extended(self, rows: Sequence[Fragment]) -> "_Rows":
        """A new source of these rows, then the built ``rows``."""
        return _Rows(np.concatenate((self.slots, _objects(rows))),
                     np.concatenate((self.tokens, _objects([f.tokens for f in rows]))),
                     self.columns, self.unbuilt)


def _state(clock: float, source: _Rows, index: np.ndarray, table: np.ndarray,
           decay: Optional[tuple], space: Optional[tuple[Entries, np.ndarray]],
           conflicts: Optional[tuple], touched: frozenset[str], goals: Optional[tuple],
           contents: Optional[dict], keys: Optional[dict],
           dropped: tuple[int, ...]) -> BeliefState:
    """A new state of these parts, with no reading made yet but those given."""
    new = object.__new__(BeliefState)
    new.clock, new._source, new._index, new._rows = clock, source, index, None
    new._table, new._decay, new._space = table, decay, space
    new._mass = new._embedding = None
    new._conflicts, new._touched, new._goals = conflicts, touched, goals
    new._contents, new._keys, new._dropped = contents, keys, dropped
    return new


def _unheld(index: dict, name: Any, entry: Any) -> None:
    """Take ``entry`` out of ``index[name]``, and ``name`` out once empty."""
    held = index[name]
    if len(held) == 1:
        del index[name]
    else:
        index[name] = tuple(e for e in held if e != entry)


def _held(index: dict, name: Any, entry: Any) -> None:
    """Put ``entry`` into ``index[name]``, which stays ascending."""
    held = index.get(name, ())
    index[name] = (*held, entry) if not held or held[-1] < entry else tuple(sorted((*held, entry)))


def _spliced(kept: np.ndarray, slot: np.ndarray, at: np.ndarray, start: int) -> np.ndarray:
    """A put's index: ``kept`` at the kept rows' places ``slot``, and the put
    rows, numbered on from ``start``, at their places ``at``."""
    index = np.empty(len(slot), np.intp)
    index[slot], index[at] = kept, np.arange(start, start + len(at))
    return index


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
_NO_KEYS: frozenset[str] = frozenset()
# The epistemic vacuum, which every constructed state is derived from.
_VACUUM = _state(0.0, _Rows.built(()), _arange(0), _NO_ROWS, None, None, (), _NO_KEYS, None,
                 None, None, ())
# Each distinct sector set a fragment was made with -> the kept set and its
# code, in order of first use; codes never change, so states share it.
_SECTOR_SETS: dict[frozenset[str], tuple[frozenset[str], int]] = {}


# The fields of a put row that its record is filled from, in ``_records``' order.
_RECORD_FIELDS = operator.attrgetter("id", "created_at", "anchor", "persistence", "sectors")


def _records(ids: Sequence[int], created_at: Sequence[float], anchors: Sequence[float],
             persistences: Sequence[float], sectors: Sequence[frozenset[str]]) -> np.ndarray:
    """A new table of records from these columns, with no decay factor."""
    table = np.zeros(len(ids), _ROW)
    table["id"], table["created_at"] = ids, created_at
    table["anchor"], table["persistence"] = anchors, persistences
    table["sectors"] = [_SECTOR_SETS[s][1] for s in sectors]
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


@dataclasses.dataclass(frozen=True, eq=False)
class Entries:
    """Rows of vectors at ``dim`` held as their filled cells: entry row
    ``r``'s cells are ``cells[offsets[r]:offsets[r + 1]]``, ascending, and
    its values are ``values[offsets[r]:offsets[r + 1]]`` beside them; every
    other cell of the row is ``+0.0``."""

    cells: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    dim: int

    @property
    def rows(self) -> int:
        return len(self.offsets) - 1

    def lengths(self) -> np.ndarray:
        """Each entry row's number of filled cells."""
        return self.offsets[1:] - self.offsets[:-1]

    def positions(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the entries of ``rows``, row after row in that
        order, and each of those rows' number of entries."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        ends = lengths.cumsum()
        total = int(ends[-1]) if len(ends) else 0
        return (starts - ends + lengths).repeat(lengths) + np.arange(total), lengths

    def take(self, rows: np.ndarray) -> "Entries":
        """New entries of ``rows``, in that order: entry row ``k`` is ``rows[k]``."""
        at, lengths = self.positions(rows)
        offsets = np.zeros(len(rows) + 1, np.intp)
        np.cumsum(lengths, out=offsets[1:])
        return Entries(self.cells[at], self.values[at], offsets, self.dim)

    def extended(self, other: "Entries") -> "Entries":
        """New read-only entries: these rows, then ``other``'s."""
        return Entries(
            _frozen(np.concatenate((self.cells, other.cells))),
            _frozen(np.concatenate((self.values, other.values))),
            _frozen(np.concatenate((self.offsets, other.offsets[1:] + self.offsets[-1]))),
            self.dim,
        )

    def dense(self) -> np.ndarray:
        """A new C-ordered matrix of the rows, one row per entry row."""
        matrix = np.zeros((self.rows, self.dim))
        matrix[np.arange(self.rows).repeat(self.lengths()), self.cells] = self.values
        return matrix


def embed_state(state: BeliefState, dim: int) -> np.ndarray:
    """Mass-weighted mean of fragment vectors, L2-normalized.

    Weights are anchor * persistence so faded content bends the geometry
    less.  The vacuum embeds to the zero vector.  If every weight is zero in
    a non-vacuum state, the unweighted mean is used so the unit-norm
    invariant still holds.  The state keeps the result for this ``dim``: the
    array is read-only and is returned, uncopied, by every later call with
    the same ``dim``.  The arithmetic is ``embed_weighted``'s, over the
    state's pair (entries, index).
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


def embed_weighted(entries: Entries, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The unit vector along the sum of entry rows ``rows[k]`` weighted by
    ``weights[k]``: the one embedding arithmetic, of ``embed_state`` and of
    the exact re-reads of ``geometry.realign``.

    Only positive weights count; when none is positive, the rows are summed
    unweighted.  The positive-weight rows' entries are gathered in row
    order, each value times its row's weight, and one ``bincount`` adds
    them into their cells.  It adds a cell's terms in input order, row
    after row, as ``acc += w * v`` over the rows does (and as a dense
    matrix summed over axis 0 does): a row without the cell would add
    ``w * 0.0 = +0.0``, which moves no bit of a non-negative sum, and a
    cell no row fills stays ``+0.0``.  So the sum has the per-fragment
    loop's bits.  A pairwise sum of a cell's terms (``np.sum`` along them,
    or ``w @ V``) would not.  A zero sum stays zero.
    """
    positive = weights > 0.0
    if positive.any():
        rows, weights = rows[positive], weights[positive]
    else:
        weights = np.ones(len(rows))
    at, lengths = entries.positions(rows)
    terms = entries.values[at] * weights.repeat(lengths)
    acc = np.bincount(entries.cells[at], weights=terms, minlength=entries.dim)
    norm = float(np.linalg.norm(acc))
    if norm < TINY_NORM and acc.any():
        # The squares of the entries are subnormal and the norm loses
        # digits: bring the largest entry to 1 first.
        acc = acc / np.abs(acc).max()
        norm = float(np.linalg.norm(acc))
    if norm > 0.0:
        acc = acc / norm
    return acc


def embed_rows(token_lists: Sequence[Sequence[str]], dim: int) -> Entries:
    """Each token list's unit bag-of-words vector, as the read-only entries
    of one row per list (an empty list's row has none: it is zero).  No
    dense matrix is filled.

    A token's cell at ``dim`` is ``token_cell``'s, hashed once per process
    and kept in ``_CELLS``.  One sort of ``row * dim + cell`` over every
    token gives each row's distinct cells, ascending, and their counts, so
    the cell order depends on no hash seed.  A row's squared norm is the
    sum of its counts squared; those are integers, and every partial sum is
    exact while that sum is below 2**53, which holds for any row of fewer
    than about 9.4e7 tokens; so ``sqrt`` of it is the norm, in any order of
    addition, and equal token multisets give bit-equal rows, whatever the
    token order.  Each value is its count divided by the norm, the value a
    dense row holds in that cell.
    """
    flat = list(chain.from_iterable(token_lists))
    cell_of = _CELLS.setdefault(dim, {})
    for token in set(flat).difference(cell_of):
        cell_of[token] = token_cell(token, dim)
    n = len(token_lists)
    keys = np.arange(0, n * dim, dim).repeat([len(t) for t in token_lists])
    keys += np.fromiter(map(cell_of.__getitem__, flat), np.intp, len(flat))
    keys.sort()
    first = np.ones(len(keys), bool)  # each distinct key's first place
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    counts = (np.append(starts[1:], len(keys)) - starts).astype(float)
    keys = keys[starts]
    owner = keys // dim
    norms = np.sqrt(np.bincount(owner, weights=counts * counts, minlength=n))
    offsets = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=offsets[1:])
    return Entries(
        _frozen(keys % dim), _frozen(np.divide(counts, norms[owner], out=counts)),
        _frozen(offsets), dim)


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
    these groups instead of every pair; a state's key index is made of them.
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
    "Entries",
    "Fragment",
    "IdAllocator",
    "ORIGINS",
    "POLARITIES",
    "TINY_NORM",
    "activation_density",
    "admit",
    "check_fields",
    "embed_rows",
    "embed_state",
    "embed_weighted",
    "first_conflict",
    "key_groups",
    "ordered_sum",
    "token_cell",
    "tokenize",
]
