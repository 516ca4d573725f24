"""Every way a fragment is made goes through the one constructor.

``Fragment(...)``, ``Fragment.replace``, ``simulator.fragment_from_spec``
and ``BeliefState.fragment`` must each give the fragment the dataclass's
generated constructor gave (``reference.DataclassFragment``): the same
fields, tokens and content key, the instance dict filled in the same order,
or the same exception.  Every fragment's dict shares one key table, and
equal sector sets are one object.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefsim import simulator
from beliefsim.config import default_config
from beliefsim.core import ANCHOR_MAX, POLARITIES, BeliefState, Fragment
from beliefsim.simulator import fragment_from_spec

from conftest import KEYS, SECTORS, texts
from reference import DataclassFragment

SECTOR_SETS = st.frozensets(st.sampled_from(SECTORS), min_size=1, max_size=3)

# Values every check accepts, by field; key, polarity and members are drawn
# together in ``field_values``.
VALID = {
    "id": st.integers(1, 99),
    "text": texts(),
    "sectors": SECTOR_SETS,
    "level": st.integers(0, 4),
    "anchor": st.one_of(st.floats(0.0, 20.0), st.just(ANCHOR_MAX)),
    "persistence": st.floats(0.0, 1.0),
    "created_at": st.floats(0.0, 50.0),
    "origin": st.sampled_from(("observed", "elaborated", "retrieved", "meta")),
}
# Valid and invalid values of every field.
ANY = {
    "id": st.integers(-2, 99),
    "text": st.one_of(texts(), st.sampled_from(("", "!!", "Pump, STEADY!", 5))),
    "sectors": st.one_of(SECTOR_SETS, st.just(frozenset())),
    "level": st.one_of(st.integers(-1, 4), st.just("x")),
    "anchor": st.one_of(
        st.floats(-1.0, 20.0), st.sampled_from((ANCHOR_MAX, 1e101, math.inf, math.nan, None))),
    "persistence": st.one_of(st.floats(-0.5, 1.5), st.just(math.nan)),
    "created_at": st.floats(0.0, 50.0),
    "origin": st.sampled_from(("observed", "retrieved", "abstracted", "meta", "bogus")),
    "key": st.sampled_from((None,) + KEYS),
    "polarity": st.sampled_from((None, "+", "-", "?")),
    "members": st.sampled_from((None, (), (1, 2))),
}
REQUIRED = ("id", "text", "sectors")
# Any fields, a required one perhaps missing, and perhaps a name that is no field.
LOOSE = st.fixed_dictionaries({}, optional={**ANY, "colour": st.just("red")})


@st.composite
def field_values(draw):
    """Keyword arguments of a construction: now and then ``LOOSE`` ones;
    else the required fields and some others, all valid or any mix of valid
    and invalid values."""
    if draw(st.integers(0, 9)) == 0:
        return draw(LOOSE)
    pool = draw(st.sampled_from((VALID, ANY)))
    kwargs = draw(st.fixed_dictionaries(
        {name: pool[name] for name in REQUIRED},
        optional={name: s for name, s in pool.items() if name not in REQUIRED},
    ))
    if pool is ANY:
        return kwargs
    if draw(st.booleans()):
        kwargs["key"] = draw(st.sampled_from(KEYS))
        kwargs["polarity"] = draw(st.sampled_from(POLARITIES))
    if draw(st.booleans()):
        kwargs["origin"] = "abstracted"
        kwargs["members"] = tuple(draw(st.lists(st.integers(1, 99), min_size=1, max_size=3)))
    return kwargs


SPEC_VALUES = {
    "text": st.one_of(texts(), st.sampled_from(("!!", 5))),
    "sector": st.one_of(st.sampled_from(SECTORS), st.just(["perc"])),
    "sectors": st.one_of(st.lists(st.sampled_from(SECTORS), max_size=3), st.just(5)),
    "level": st.one_of(st.integers(-1, 3), st.sampled_from(("2", "x", 1.5, None))),
    "anchor": st.one_of(st.floats(-1.0, 20.0), st.sampled_from(("2.5", "x", math.nan, 1e101))),
    "persistence": st.one_of(st.floats(-0.5, 1.5), st.just("x")),
    "key": st.sampled_from(KEYS + (5,)),
    "polarity": st.sampled_from(("+", "-", "?")),
    "name": st.just("n"),
}


def _outcome(make):
    try:
        return make()
    except Exception as exc:  # the exception is what is compared
        return exc


def _assert_same(got, want) -> None:
    """``got`` is the oracle's fragment ``want``, or fails as it did."""
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        if isinstance(want, ValueError):
            assert str(got) == str(want)
        return
    assert isinstance(got, Fragment), got
    for f in dataclasses.fields(Fragment):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.tokens == want.tokens
    # The eleven fields, then the tokens, then the content key's slot.
    assert list(vars(got)) == list(vars(want))
    assert got.content_key() == want.content_key()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kwargs=field_values(),
    positional=st.booleans(),
    base=field_values(),
    chain=st.lists(
        st.tuples(
            st.one_of(
                st.fixed_dictionaries({}, optional=VALID),
                st.fixed_dictionaries({}, optional=ANY),
                LOOSE,
            ),
            st.booleans(),
        ),
        max_size=5,
    ),
    spec=st.fixed_dictionaries(
        {"text": SPEC_VALUES["text"]},
        optional={name: s for name, s in SPEC_VALUES.items() if name != "text"},
    ),
    fragment_id=st.integers(1, 99),
    clock=st.floats(0.0, 50.0),
)
@example(
    kwargs={"id": 1, "text": "pump", "sectors": frozenset({"perc"}), "colour": "red"},
    positional=False, base={}, chain=[], spec={"text": "pump"}, fragment_id=1, clock=0.0,
)
def test_every_construction_gives_the_dataclass_constructors_fragment(
    kwargs, positional, base, chain, spec, fragment_id, clock
):
    """``Fragment(...)``, each copy of a ``replace`` chain and
    ``fragment_from_spec`` give the fields, tokens, dict order and content
    key of the dataclass-built fragment, or its exception type (and its
    message, for a ValueError); a chain may derive the content key of a
    copy before copying it."""
    args = ()
    if positional and kwargs.keys() >= set(REQUIRED):
        kwargs = dict(kwargs)
        args = tuple(kwargs.pop(name) for name in REQUIRED)
    _assert_same(_outcome(lambda: Fragment(*args, **kwargs)),
                 _outcome(lambda: DataclassFragment(*args, **kwargs)))

    frag, ref = _outcome(lambda: Fragment(**base)), _outcome(lambda: DataclassFragment(**base))
    _assert_same(frag, ref)
    if isinstance(frag, Fragment):
        for overrides, keyed in chain:
            if keyed:
                frag.content_key()
                ref.content_key()
            got = _outcome(lambda: frag.replace(**overrides))
            want = _outcome(lambda: dataclasses.replace(ref, **overrides))
            _assert_same(got, want)
            if isinstance(got, Fragment):
                frag, ref = got, want

    got = _outcome(lambda: fragment_from_spec(spec, fragment_id, clock))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "Fragment", DataclassFragment)
        want = _outcome(lambda: fragment_from_spec(spec, fragment_id, clock))
    _assert_same(got, want)


def test_every_construction_path_fills_one_dict_size_and_shares_sector_sets():
    """``Fragment(...)``, ``replace``, ``fragment_from_spec`` and
    ``state.fragment(i)`` give instance dicts of one size, one key table
    shared; a dict filled by ``update`` is larger.  Equal sector sets, made
    apart, are one object."""
    made = Fragment(1, "pump steady", frozenset(["task", "perc"]), anchor=2.0)
    copy = made.replace(persistence=0.5, text="valve open")
    spec = fragment_from_spec({"text": "seal tight", "sectors": ["perc", "task"]}, 2, 0.0)
    state = BeliefState((made, spec), 0.0)
    as_is = state.fragment(1)
    decayed = state.decayed(1.0, default_config(), 1.0).fragment(0)
    keyed = Fragment(3, "red light", frozenset({"perc", "task"}))
    keyed.content_key()
    unshared = object.__new__(Fragment)
    unshared.__dict__.update(**vars(made))
    frags = (made, copy, spec, as_is, decayed, keyed)
    assert as_is is spec and decayed.persistence < 1.0
    # Sizes are read in one pass: a shared key table's share of a size may
    # move as fragments are made.
    sizes = [sys.getsizeof(vars(f)) for f in (*frags, unshared)]
    assert len(set(sizes[:-1])) == 1, sizes
    assert sizes[-1] > sizes[0], sizes
    assert all(f.sectors is made.sectors for f in frags)
