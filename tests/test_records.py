"""The record classes keep their named-tuple surface: fields, defaults,
repr, equality with the plain tuple, unpacking and validation. The expected
values are those the records gave as `typing.NamedTuple` classes. `DiffSet`
is a `frozenset`, not a named tuple; like the records, it has no instance
``__dict__``."""

from fractions import Fraction

import pytest

from tilediff.diffset import (
    AuditReport,
    AxesCheck,
    DiffSet,
    LatticeSpan,
    axes_subset,
    difference_set,
    impossibility_audit,
    lattice_span,
)
from tilediff.model import BoxUnion, TileConfig
from tilediff.search import SearchReport, SearchSpec, run_search
from tilediff.topology import Step

FIELDS = {
    TileConfig: (("n", "translates"), {}),
    BoxUnion: (("boxes",), {}),
    AxesCheck: (("on_axes", "witness"), {"witness": None}),
    LatticeSpan: (("rank", "basis", "index"), {}),
    AuditReport: (("stage", "witness", "witness_pairs", "detail"), {}),
    SearchSpec: (
        ("n", "bound", "engine", "symmetry", "budget", "jobs", "witnesses"),
        {"engine": "pruned", "symmetry": False, "budget": 2_000_000, "jobs": 1, "witnesses": False},
    ),
    SearchReport: (
        ("spec", "configs_enumerated", "nodes_visited", "valid_found", "witness_counts",
         "witness_records", "valid_configs", "wall_time"),
        {},
    ),
    Step: (("kind", "i", "j", "forward"), {}),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_and_defaults(cls):
    fields, defaults = FIELDS[cls]
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert issubclass(cls, tuple)


@pytest.mark.parametrize("cls", [*FIELDS, DiffSet], ids=lambda cls: cls.__name__)
def test_instances_carry_no_dict(cls):
    assert "__dict__" not in dir(cls)


def _values():
    config = TileConfig.uniform(2)
    ds = difference_set(config)
    spec = SearchSpec(n=2, bound=1)
    return [
        config,
        BoxUnion.of((0, 0, 1, 1)),
        axes_subset(ds),
        AxesCheck(True),
        lattice_span(ds),
        impossibility_audit(config),
        spec,
        run_search(spec)._replace(wall_time=0.5),
        Step("h", 1, 2, True),
    ]


REPRS = [
    "TileConfig(n=2, translates=((0, 0), (0, 0), (0, 0), (0, 0)))",
    "BoxUnion(boxes=((Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), Fraction(1, 1)),))",
    "AxesCheck(on_axes=False, witness=(-1, -1))",
    "AxesCheck(on_axes=True, witness=None)",
    "LatticeSpan(rank=2, basis=((1, 0), (0, 1)), index=1)",
    "AuditReport(stage='axes', witness=(-1, -1), witness_pairs=(((0, 0), (1, 1), (-1, -1)),), "
    "detail='off-axes vector (-1, -1) in difference set')",
    "SearchSpec(n=2, bound=1, engine='pruned', symmetry=False, budget=2000000, jobs=1, "
    "witnesses=False)",
    "SearchReport(spec=SearchSpec(n=2, bound=1, engine='pruned', symmetry=False, "
    "budget=2000000, jobs=1, witnesses=False), configs_enumerated=0, nodes_visited=0, "
    "valid_found=0, witness_counts=(((-1, -1), 1),), witness_records=(), valid_configs=(), "
    "wall_time=0.5)",
    "Step(kind='h', i=1, j=2, forward=True)",
]


def test_repr():
    for value, expected in zip(_values(), REPRS):
        assert repr(value) == expected


def test_equal_to_the_plain_tuple_and_unpack():
    for value in _values():
        plain = tuple(value)
        assert type(plain) is tuple and len(plain) == len(type(value)._fields)
        assert value == plain
        assert hash(value) == hash(plain)
    n, translates = TileConfig.uniform(2)
    assert (n, translates) == (2, ((0, 0),) * 4)
    on_axes, witness = AxesCheck(False, (-1, 2))
    assert (on_axes, witness) == (False, (-1, 2))
    kind, i, j, forward = Step("v", 0, 3, False)
    assert (kind, i, j, forward) == ("v", 0, 3, False)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 0, "bound": 1}, "non-positive n"),
    ({"n": 1, "bound": -1}, "negative bound"),
    ({"n": 1, "bound": 1, "engine": "x"}, "unknown engine 'x'"),
    ({"n": 1, "bound": 1, "budget": 0}, "budget and jobs must be positive"),
    ({"n": 1, "bound": 1, "jobs": 0}, "budget and jobs must be positive"),
])
def test_search_spec_validation(kwargs, message):
    with pytest.raises(ValueError) as raised:
        SearchSpec(**kwargs)
    assert str(raised.value) == message
    # _replace and _make check the fields as the constructor does.
    with pytest.raises(ValueError) as raised:
        SearchSpec(2, 1)._replace(**kwargs)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        SearchSpec._make((SearchSpec(2, 1)._asdict() | kwargs).values())
    assert str(raised.value) == message


@pytest.mark.parametrize("n, translates, message", [
    (0, (), "non-positive n"),
    (2, ((0, 0),) * 3, "wrong cell count"),
    (-1, (), "non-positive n; wrong cell count"),
])
def test_tile_config_validation(n, translates, message):
    with pytest.raises(ValueError) as raised:
        TileConfig(n, translates)
    assert str(raised.value) == f"invalid config: {message}"
    with pytest.raises(ValueError):
        TileConfig(n=n, translates=translates)
    with pytest.raises(ValueError) as raised:
        TileConfig.uniform(2)._replace(n=n, translates=translates)
    assert str(raised.value) == f"invalid config: {message}"
    with pytest.raises(ValueError):
        TileConfig._make((n, translates))


def test_search_spec_positional_and_replace():
    assert SearchSpec(2, 1, "plain", True, 50, 3, True) == SearchSpec(
        n=2, bound=1, engine="plain", symmetry=True, budget=50, jobs=3, witnesses=True
    )
    assert SearchSpec(2, 1)._replace(bound=3) == SearchSpec(2, 3)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'bound'"):
        SearchSpec(1)


def test_box_union_validation():
    with pytest.raises(ValueError) as raised:
        BoxUnion(())
    assert str(raised.value) == "empty box union"
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(ValueError) as raised:
        BoxUnion(((one, zero, zero, one),))
    assert str(raised.value) == "inverted box (1,0,0,1)"
    with pytest.raises(ValueError, match="^empty box union$"):
        BoxUnion.of((0, 0, 1, 1))._replace(boxes=())
    with pytest.raises(ValueError, match=r"^inverted box \(1,0,0,1\)$"):
        BoxUnion._make([((one, zero, zero, one),)])


def test_diffset_equality_and_hash_by_closure():
    # A DiffSet holds its whole symmetric closure, so two are equal, and
    # hash alike, exactly when their closures are the same vectors.
    closure = DiffSet([(1, 0), (0, 0), (-1, 0)])
    same = DiffSet(frozenset({(-1, 0), (0, 0), (1, 0)}))
    assert closure == same and not closure != same
    assert hash(closure) == hash(same)
    assert closure != DiffSet(frozenset({(1, 0)}))
    assert closure != DiffSet({(0, -1), (0, 0), (0, 1)})
    assert closure != (frozenset({(-1, 0), (0, 0), (1, 0)}),)
    assert len({closure, same}) == 1


def test_records_are_read_only():
    with pytest.raises(AttributeError):
        difference_set(TileConfig.uniform(2)).x = 1
    with pytest.raises(AttributeError):
        TileConfig.uniform(2).n = 3
    with pytest.raises(AttributeError):
        SearchSpec(2, 1).n = 3
