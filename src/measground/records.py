"""Records the text stages share with the numeric ones, without numpy, and
``decode`` and ``encode``, the one reader and the one writer of a JSON record.

Capture metadata and refs, render parameters, and the readers of the plane
and render headers live here, so annotate, aggregate, filter, balance,
split, verify-split, eval and report never import numpy. ``capture``,
``measxyz`` and ``isp`` import these names from here and export them as
before.

Every record the program writes as JSON (capture sidecars, Meas.-XYZ plane
and render headers, lost-signal summaries and residual headers, refs,
candidates, samples, the benchmark manifest, the disjointness and metrics
reports, and the config that ``run.json`` hashes)
goes through ``encode``, whose output ``decode`` reads back; the reader and
the writer are built together from the record's field annotations, so a
record's on-disk form is decided once.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import operator
import re
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Annotated

from . import formats
from .errors import DomainError, IoFailure, MalformedSidecar, MeasgroundError, SchemaViolation, SingularMatrix

if TYPE_CHECKING:
    import numpy as np

    from .capture import RawCapture


# --- the JSON record codec --------------------------------------------------------
#
# ``decode`` is the one way parsed JSON becomes a record, and ``encode``, its
# inverse, the one way a record becomes JSON; ``_codec`` builds the reader and
# the writer of an annotation together. The rule, read from the annotations:
# str, int and bool take only their own JSON type (a bool is no int), and a str
# no lone surrogate, which a JSON escape can make and UTF-8 cannot hold; float
# takes an int or a finite float and gives a float; a bare ``dict`` takes any
# object, as parsed; and each is written as it is. ``X | None``, the one union
# form, also takes null, and None is written as null, except in a field whose
# metadata sets ``_OMIT_IF_NONE``, which is then left out. ``tuple[T, ...]``
# takes a list, and a fixed tuple a list of its length; a tuple is written as a
# list. A record dataclass takes an object without unknown keys, and a key it
# lacks takes the field's default or is refused; it is written as an object. An
# Enum is read and written as its value, and ``dict[K, V]`` as an object whose
# keys are K's. ``Annotated[T, Range(lo, hi)]``, or ``Positive``,
# ``NonNegative``, ``Unit`` or ``OpenUnit`` for the range, takes only numbers in
# it, each of a tuple's. A float that is not finite (``NaN``, ``Infinity``,
# ``1e999``) or outside the range reads ``<where>.<field>: value <v> out of range``.

_OMIT_IF_NONE = "omit_if_none"


class Range(typing.NamedTuple):
    """A numeric field's bound, lo <= value <= hi. The default ends are the largest
    finite floats, so no range holds NaN or an infinity."""

    lo: float = -sys.float_info.max
    hi: float = sys.float_info.max


Positive = Range(math.ulp(0.0))  # the least float above 0
NonNegative = Range(0.0)
Unit = Range(0.0, 1.0)
OpenUnit = Range(math.ulp(0.0), math.nextafter(1.0, 0.0))


class _Mismatch(Exception):
    """A JSON value that does not fit the hint its reader was built for."""


class _Refused(Exception):
    """A record refused below the decoded value; args: the key path to it, and why."""


def _hint_name(hint) -> str:
    """``hint`` as a reader writes it: float, str | None, dict[CapabilityDimension, int]."""
    return re.sub(r"\b(?:\w+\.)+", "", hint.__name__ if isinstance(hint, type) else str(hint))


def _number(value) -> float:
    if type(value) is float:
        if not math.isfinite(value):
            raise _Refused("", f"value {value!r} out of range")
        return value
    if type(value) is not int:
        raise _Mismatch
    try:
        return float(value)
    except OverflowError:
        raise _Mismatch from None


def _same(value):
    return value


@functools.cache
def _codec(hint):
    """(from_json, to_json) for ``hint``, built once per hint: from_json returns a
    parsed JSON value as ``hint`` or raises _Mismatch, and to_json returns a
    ``hint`` value as JSON, or is None where the value is written as it is."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return _number, None
    if hint in (str, int, bool, dict):
        def from_json(value):
            if type(value) is not hint:
                raise _Mismatch
            if hint is str and not value.isascii() and formats.LONE_SURROGATE.search(value):
                raise _Refused("", f"value {value!r} holds a lone surrogate, which UTF-8 cannot hold")
            return value
        return from_json, None
    if origin is types.UnionType:
        if len(args) != 2 or type(None) not in args:
            raise TypeError(f"no JSON codec for {hint!r}: X | None is the one union")
        ((convert, item),) = (_codec(arg) for arg in args if arg is not type(None))
        return (lambda value: None if value is None else convert(value),
                (lambda value: None if value is None else item(value)) if item else None)
    if origin is tuple and args[-1] is Ellipsis:
        convert, item = _codec(args[0])

        def from_json(value):
            if type(value) is not list:
                raise _Mismatch
            return tuple(map(convert, value))
        return from_json, (lambda value: list(map(item, value))) if item else list
    if origin is tuple:
        converts, items = zip(*map(_codec, args))

        def from_json(value):
            if type(value) is not list or len(value) != len(converts):
                raise _Mismatch
            return tuple(convert(v) for convert, v in zip(converts, value))
        if not any(items):
            return from_json, list
        items = [item or _same for item in items]
        return from_json, lambda value: [item(v) for item, v in zip(items, value)]
    if origin is dict:
        (key, key_out), (convert, item) = map(_codec, args)

        def from_json(value):
            if type(value) is not dict:
                raise _Mismatch
            return {key(k): convert(v) for k, v in value.items()}
        key_out, item = key_out or _same, item or _same
        return from_json, lambda value: {key_out(k): item(v) for k, v in value.items()}
    if isinstance(hint, enum.EnumMeta):
        def from_json(value):
            try:
                return hint(value)
            except (TypeError, ValueError):
                raise _Mismatch from None
        return from_json, operator.attrgetter("value")
    if dataclasses.is_dataclass(hint):
        return _record_codec(hint)
    raise TypeError(f"no JSON codec for {hint!r}")


def _record_codec(cls):
    """The codec of a record dataclass: each field's value by its annotation."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    specs = [(f.name, *_codec(hints[f.name]), _hint_name(hints[f.name]),
              f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
             for f in fields]
    names = frozenset(f.name for f in fields)
    converted = tuple((name, item) for name, _, item, *_ in specs if item)
    omitted = tuple(f.name for f in fields if f.metadata.get(_OMIT_IF_NONE))
    bounds = _bounds(cls)

    def from_json(value):
        if type(value) is not dict:
            raise _Mismatch
        if not names.issuperset(value):
            raise _Refused("", f"unknown keys {sorted(value.keys() - names)}")
        kwargs = {}
        for name, convert, _, expected, required in specs:
            if name in value:
                item = value[name]
                try:
                    kwargs[name] = convert(item)
                except _Mismatch:
                    raise _Refused(f".{name}", f"expected {expected}, got {item!r}") from None
                except _Refused as inner:
                    path, reason = inner.args
                    raise _Refused(f".{name}{path}", reason) from None
            elif required:
                raise _Refused("", f"missing key {name!r}")
        _check_ranges(bounds, kwargs)
        return cls(**kwargs)

    def to_json(record):
        out = dict(vars(record))  # a record's instance dict holds its fields and nothing else
        for name, item in converted:
            out[name] = item(out[name])
        for name in omitted:
            if out[name] is None:
                del out[name]
        return out
    return from_json, to_json


def decode(hint, value, where: str, error: type[MeasgroundError] = SchemaViolation):
    """``value``, parsed JSON, as ``hint`` by the rule above: a record dataclass,
    or a field annotation such as ``str`` or ``tuple[float, ...]``.

    A value that does not fit raises ``error`` naming ``where`` and the key
    path below it, as ``config.gain: expected float, got 'abc'``; so does a
    record whose constructor refuses its values.
    """
    try:
        return _codec(hint)[0](value)
    except _Mismatch:
        raise error(f"{where}: expected {_hint_name(hint)}, got {value!r}") from None
    except _Refused as exc:
        path, reason = exc.args
        raise error(f"{where}{path}: {reason}") from None
    except MeasgroundError as exc:  # an invariant the record's constructor checks
        raise error(f"{where}: {exc}") from exc


def encode(record) -> dict:
    """``record`` as the JSON object that ``decode(type(record), ...)`` reads back,
    by the rule above."""
    return _codec(type(record))[1](record)


@functools.cache
def _bounds(cls) -> tuple[tuple[str, float, float, bool], ...]:
    """(field, lo, hi, whether a tuple) for each field of the record ``cls`` that declares a range."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((name, *hint.__metadata__[0], typing.get_origin(hint.__origin__) is tuple)
                 for name, hint in hints.items() if typing.get_origin(hint) is typing.Annotated)


def _check_ranges(bounds, values: dict) -> None:
    """Refuse the first number in ``values``, a record's fields by name, outside its range."""
    for name, lo, hi, many in bounds:
        if name not in values:  # a field left to its default
            continue
        value = values[name]
        try:
            if many:
                for item in value:
                    if not lo <= item <= hi:
                        raise _Refused(f".{name}", f"value {item!r} out of range")
            elif not lo <= value <= hi:
                raise _Refused(f".{name}", f"value {value!r} out of range")
        except TypeError:  # not a number, or not a tuple of numbers
            raise _Refused(f".{name}", f"value {value!r} out of range") from None


def _adopt(cls, **fields):
    """The record of ``cls`` with these fields, over arrays the package made and no
    one else holds: built without the copies of ``__init__``, then checked and
    frozen by the ``_freeze`` that its ``__post_init__`` also calls."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    record._freeze()
    return record


def check_bounds(record, error: type[MeasgroundError]) -> None:
    """``decode``'s range check, for the ``__post_init__`` of a record built by hand."""
    try:
        _check_ranges(_bounds(type(record)), vars(record))
    except _Refused as exc:
        path, reason = exc.args
        raise error(f"{path[1:]}: {reason}") from None


@dataclass(frozen=True)
class CameraMetadata:
    """Capture context: sensitivity, shutter, aperture plus grouping ids."""

    iso: Annotated[float, Positive]
    exposure_time: Annotated[float, Positive]
    aperture: Annotated[float, Positive]
    device_id: str
    scene_id: str | None = dataclasses.field(default=None, metadata={_OMIT_IF_NONE: True})
    session_id: str | None = dataclasses.field(default=None, metadata={_OMIT_IF_NONE: True})

    def __post_init__(self):
        check_bounds(self, MalformedSidecar)
        if not self.device_id:
            raise MalformedSidecar("metadata.device_id must be non-empty")


@dataclass(frozen=True)
class CaptureRef:
    """Lightweight handle for split/verify work: ids and paths, no pixels."""

    capture_id: str
    raw_path: str = ""
    bundle_path: str = ""
    scene_id: str | None = None
    device_id: str | None = None
    session_id: str | None = None

    @classmethod
    def from_capture(cls, capture: RawCapture, bundle_path: str = "") -> "CaptureRef":
        return cls(
            capture_id=capture.capture_id,
            raw_path=capture.raw_path,
            bundle_path=bundle_path,
            scene_id=capture.metadata.scene_id,
            device_id=capture.metadata.device_id,
            session_id=capture.metadata.session_id,
        )

    def to_dict(self) -> dict:
        return encode(self)


# --- Meas.-XYZ plane headers ------------------------------------------------------

@dataclass(frozen=True)
class MeasXyzHeader:
    """A Meas.-XYZ plane's <stem>.json, as measxyz.save_meas_xyz writes it."""

    capture_id: str
    metadata: CameraMetadata
    range: tuple[float, float]
    height: Annotated[int, Positive]
    width: Annotated[int, Positive]
    channels: int

    @property
    def shape(self) -> tuple[int, int, int]:
        """The shape of the plane's sample array."""
        return (self.height, self.width, self.channels)


def read_meas_xyz_header(stem: Path) -> MeasXyzHeader:
    """The header of the plane pair at ``stem``, without reading its samples.

    The .f32 size is checked against the header's shape by ``stat``.
    """
    header_path = Path(str(stem) + ".json")
    data_path = Path(str(stem) + ".f32")
    if not header_path.exists() or not data_path.exists():
        raise IoFailure(f"{stem}: missing .f32/.json plane pair")
    header = decode(MeasXyzHeader, formats.read_json(header_path), f"{header_path}: plane header")
    if data_path.stat().st_size != 4 * math.prod(header.shape):
        raise IoFailure(f"{stem}: plane payload does not match header dimensions")
    return header


# --- lost-signal reports ----------------------------------------------------------

@dataclass(frozen=True)
class LostSignalSummary:
    """A lost-signal report's <id>_summary.json, as lost_signal.emit_report writes it."""

    capture_id: str
    exposure_gain: float
    clipped_fraction: float
    p99_original: float
    p99_recovered: float
    tau: float
    bits: int


@dataclass(frozen=True)
class ResidualHeader:
    """A lost-signal residual plane's <id>_residual.json: the residual's range and shape."""

    capture_id: str
    range: tuple[float, float]
    height: int
    width: int
    channels: int


# --- render parameters ------------------------------------------------------------

SRGB_PIECEWISE = "SRGB_PIECEWISE"
IDENTITY = "IDENTITY"

# XYZ (D65) -> linear sRGB, standard constants to 7 decimals.
XYZ_TO_LINEAR_SRGB_D65 = (
    (3.2404542, -1.5371385, -0.4985314),
    (-0.9692660, 1.8760108, 0.0415560),
    (0.0556434, -0.2040259, 1.0572252),
)

DEFAULT_BRACKET = (0.5, 1.0, 2.0, 4.0)
DEFAULT_TAU = 2.0 / 255.0  # lost-signal residual threshold: two 8-bit steps
DEFAULT_BINS = 32  # lost-signal residual histogram bins
DEFAULT_SCORE_FLOOR = 0.5  # the least sample score filter and balance keep
DEFAULT_PLACEHOLDER_PATTERNS = ("i cannot", "unable to", "as an ai", "no answer", "")

MIN_RENDER_MATRIX_DET = 1e-12


def _det3(m) -> float:
    """Determinant of a 3x3 matrix given as rows, by cofactor expansion."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


_Row3 = tuple[float, float, float]
Matrix3x3 = tuple[_Row3, _Row3, _Row3]


def _finite_3x3(value, name: str, error: type[MeasgroundError]) -> tuple[tuple[float, ...], ...]:
    """``value``'s rows as floats, or ``error`` naming the field ``name`` unless it is a finite 3x3."""
    try:
        rows = tuple(tuple(float(v) for v in row) for row in value)
    except (TypeError, ValueError):
        rows = ()
    if (len(rows) != 3 or any(len(row) != 3 for row in rows)
            or not all(math.isfinite(v) for row in rows for v in row)):
        raise error(f"{name} must be a finite 3x3 matrix")
    return rows


@dataclass(frozen=True)
class RenderParams:
    """Configuration of one proxy render."""

    exposure_gain: Annotated[float, Positive]
    bit_depth: Annotated[int, Range(1, 16)] = 8
    xyz_to_linear_srgb: Matrix3x3 = XYZ_TO_LINEAR_SRGB_D65
    transfer: str = SRGB_PIECEWISE
    quantize: bool = True

    def __post_init__(self):
        object.__setattr__(self, "exposure_gain", float(self.exposure_gain))
        object.__setattr__(self, "bit_depth", int(self.bit_depth))
        check_bounds(self, DomainError)
        if self.transfer not in (SRGB_PIECEWISE, IDENTITY):
            raise DomainError(f"unknown transfer {self.transfer!r}")
        matrix = _finite_3x3(self.xyz_to_linear_srgb, "xyz_to_linear_srgb", SingularMatrix)
        # NaN (an overflowing expansion) counts as singular
        if not abs(_det3(matrix)) > MIN_RENDER_MATRIX_DET:
            raise SingularMatrix("xyz_to_linear_srgb is singular")
        object.__setattr__(self, "xyz_to_linear_srgb", matrix)

    @property
    def matrix(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.xyz_to_linear_srgb, dtype=np.float64)

    @property
    def max_code(self) -> int:
        return (1 << self.bit_depth) - 1


@dataclass(frozen=True)
class RenderHeader:
    """A render's <stem>.json, as isp.save_rendered writes it."""

    capture_id: str
    params: RenderParams


def read_render_header(stem: Path) -> tuple[str, RenderParams]:
    """The capture id and render parameters from the <stem>.json header.

    Every check RenderParams makes applies; a failed one names the file.
    """
    path = Path(str(stem) + ".json")
    header = decode(RenderHeader, formats.read_json(path), f"{path}: render header")
    return header.capture_id, header.params
