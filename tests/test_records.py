"""``records.decode``'s rule, checked on a record that uses every kind of annotation
it decodes: a value of the right JSON type is converted, any other is refused
with a message naming its key path."""

import enum
from dataclasses import dataclass

import pytest

from measground.errors import ConfigInvalid, DomainError, SchemaViolation
from measground.records import RenderParams, decode


class Color(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class Inner:
    n: int


@dataclass(frozen=True)
class Outer:
    name: str
    gain: float
    flag: bool = False
    note: str | None = None
    gains: tuple[float, ...] = ()
    pair: tuple[int, str] = (0, "")
    inner: Inner = Inner(0)
    color: Color = Color.RED
    counts: dict[Color, int] | None = None
    raw: dict | None = None


@pytest.mark.parametrize("obj, expected", [
    ({"name": "a", "gain": 2}, Outer("a", 2.0)),
    ({"name": "a", "gain": 0.5, "flag": True, "note": None, "gains": [1, 2.5], "pair": [3, "b"],
      "inner": {"n": 4}, "color": "red", "counts": {"red": 1}, "raw": {"k": [1, None]}},
     Outer("a", 0.5, True, None, (1.0, 2.5), (3, "b"), Inner(4), Color.RED, {Color.RED: 1},
           {"k": [1, None]})),
])
def test_values_of_the_right_type_are_decoded(obj, expected):
    decoded = decode(Outer, obj, "outer")
    assert decoded == expected
    assert type(decoded.gain) is float and all(type(g) is float for g in decoded.gains)


@pytest.mark.parametrize("obj, message", [
    ({"name": 5, "gain": 1.0}, "outer.name: expected str, got 5"),
    ({"name": "a", "gain": "1"}, "outer.gain: expected float, got '1'"),
    ({"name": "a", "gain": True}, "outer.gain: expected float, got True"),
    ({"name": "a", "gain": 10 ** 400}, "outer.gain: expected float, got 1"),
    ({"name": "a", "gain": 1.0, "flag": 1}, "outer.flag: expected bool, got 1"),
    ({"name": "a", "gain": 1.0, "gains": 5}, "outer.gains: expected tuple[float, ...], got 5"),
    ({"name": "a", "gain": 1.0, "gains": [1, None]}, "outer.gains: expected tuple[float, ...]"),
    ({"name": "a", "gain": 1.0, "pair": [1]}, "outer.pair: expected tuple[int, str], got [1]"),
    ({"name": "a", "gain": 1.0, "inner": {"n": True}}, "outer.inner.n: expected int, got True"),
    ({"name": "a", "gain": 1.0, "inner": {}}, "outer.inner: missing key 'n'"),
    ({"name": "a", "gain": 1.0, "inner": 3}, "outer.inner: expected Inner, got 3"),
    ({"name": "a", "gain": 1.0, "color": "blue"}, "outer.color: expected Color, got 'blue'"),
    ({"name": "a", "gain": 1.0, "counts": {"blue": 1}}, "outer.counts: expected dict[Color, int] | None"),
    ({"name": "a"}, "outer: missing key 'gain'"),
    ({"name": "a", "gain": 1.0, "extra": 1, "more": 2}, "outer: unknown keys ['extra', 'more']"),
    (["a", 1.0], "outer: expected Outer, got ['a', 1.0]"),
    ({"name": "a", "gain": 1.0, "raw": [1]}, "outer.raw: expected dict | None, got [1]"),
])
def test_values_of_the_wrong_type_are_refused(obj, message):
    with pytest.raises(ConfigInvalid) as refused:
        decode(Outer, obj, "outer", ConfigInvalid)
    assert str(refused.value).startswith(message)


def test_a_constructor_check_is_refused_as_the_readers_error():
    params = {"exposure_gain": 0}
    with pytest.raises(SchemaViolation, match="header: exposure_gain must be finite and > 0"):
        decode(RenderParams, params, "header")
    with pytest.raises(DomainError):
        RenderParams(**params)
