"""Records the text stages share with the numeric ones, without numpy, and
``decode``, the one reader of a JSON record.

Capture metadata and refs, render parameters, and the readers of the plane
and render headers live here, so annotate, aggregate, filter, balance,
split, verify-split, eval and report never import numpy. ``capture``,
``measxyz`` and ``isp`` import these names from here and export them as
before.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import re
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .errors import DomainError, MalformedSidecar, MeasgroundError, SchemaViolation, SingularMatrix

if TYPE_CHECKING:
    import numpy as np

    from .capture import RawCapture


# --- the JSON record decoder ------------------------------------------------------
#
# ``decode`` is the one way parsed JSON becomes a record. The rule, read from
# the annotations: str, int and bool take only their own JSON type (a bool is
# no int); float takes an int or a float and gives a float; ``X | None`` also
# takes null; ``tuple[T, ...]`` takes a list, and a fixed tuple a list of its
# length; a record dataclass takes an object without unknown keys, and a key
# it lacks takes the field's default or is refused; an Enum takes its value;
# ``dict[K, V]`` takes an object whose keys decode as K; and a bare ``dict``
# takes any object, as parsed.

class _Mismatch(Exception):
    """A JSON value that does not fit the hint its converter was built for."""


class _Refused(Exception):
    """A record refused below the decoded value; args: the key path to it, and why."""


def _hint_name(hint) -> str:
    """``hint`` as a reader writes it: float, str | None, dict[CapabilityDimension, int]."""
    return re.sub(r"\b(?:\w+\.)+", "", hint.__name__ if isinstance(hint, type) else str(hint))


def _number(value) -> float:
    if type(value) is float:
        return value
    if type(value) is not int:
        raise _Mismatch
    try:
        return float(value)
    except OverflowError:
        raise _Mismatch from None


@functools.cache
def _converter(hint):
    """The function that returns a parsed JSON value as ``hint`` or raises _Mismatch;
    built once per hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return _number
    if hint in (str, int, bool, dict, type(None)):
        def convert(value):
            if type(value) is not hint:
                raise _Mismatch
            return value
    elif origin is types.UnionType:
        options = tuple(map(_converter, args))

        def convert(value):
            for option in options:
                try:
                    return option(value)
                except _Mismatch:
                    pass
            raise _Mismatch
    elif origin is tuple and args[-1] is Ellipsis:
        item = _converter(args[0])

        def convert(value):
            if type(value) is not list:
                raise _Mismatch
            return tuple(map(item, value))
    elif origin is tuple:
        items = tuple(map(_converter, args))

        def convert(value):
            if type(value) is not list or len(value) != len(items):
                raise _Mismatch
            return tuple(item(v) for item, v in zip(items, value))
    elif origin is dict:
        key, item = map(_converter, args)

        def convert(value):
            if type(value) is not dict:
                raise _Mismatch
            return {key(k): item(v) for k, v in value.items()}
    elif isinstance(hint, enum.EnumMeta):
        def convert(value):
            try:
                return hint(value)
            except (TypeError, ValueError):
                raise _Mismatch from None
    elif dataclasses.is_dataclass(hint):
        return _record_converter(hint)
    else:
        raise TypeError(f"no JSON decoding for {hint!r}")
    return convert


def _record_converter(cls):
    """The converter of a record dataclass: each field's value by its annotation."""
    hints = typing.get_type_hints(cls)
    specs = [(f.name, _converter(hints[f.name]), _hint_name(hints[f.name]),
              f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
             for f in dataclasses.fields(cls)]
    names = frozenset(name for name, *_ in specs)

    def convert(value):
        if type(value) is not dict:
            raise _Mismatch
        if not names.issuperset(value):
            raise _Refused("", f"unknown keys {sorted(value.keys() - names)}")
        kwargs = {}
        for name, convert_field, expected, required in specs:
            if name in value:
                item = value[name]
                try:
                    kwargs[name] = convert_field(item)
                except _Mismatch:
                    raise _Refused(f".{name}", f"expected {expected}, got {item!r}") from None
                except _Refused as inner:
                    path, reason = inner.args
                    raise _Refused(f".{name}{path}", reason) from None
            elif required:
                raise _Refused("", f"missing key {name!r}")
        return cls(**kwargs)
    return convert


def decode(hint, value, where: str, error: type[MeasgroundError] = SchemaViolation):
    """``value``, parsed JSON, as ``hint`` by the rule above: a record dataclass,
    or a field annotation such as ``str`` or ``tuple[float, ...]``.

    A value that does not fit raises ``error`` naming ``where`` and the key
    path below it, as ``config.gain: expected float, got 'abc'``; so does a
    record whose constructor refuses its values.
    """
    try:
        return _converter(hint)(value)
    except _Mismatch:
        raise error(f"{where}: expected {_hint_name(hint)}, got {value!r}") from None
    except _Refused as exc:
        path, reason = exc.args
        raise error(f"{where}{path}: {reason}") from None
    except MeasgroundError as exc:  # an invariant the record's constructor checks
        raise error(f"{where}: {exc}") from exc


def _positive_finite(value, name: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise MalformedSidecar(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise MalformedSidecar(f"{name} must be finite and > 0, got {value}")
    return value


@dataclass(frozen=True)
class CameraMetadata:
    """Capture context: sensitivity, shutter, aperture plus grouping ids."""

    iso: float
    exposure_time: float
    aperture: float
    device_id: str
    scene_id: str | None = None
    session_id: str | None = None

    def __post_init__(self):
        _positive_finite(self.iso, "metadata.iso")
        _positive_finite(self.exposure_time, "metadata.exposure_time")
        _positive_finite(self.aperture, "metadata.aperture")
        if not self.device_id:
            raise MalformedSidecar("metadata.device_id must be non-empty")

    def to_dict(self) -> dict:
        out = {
            "iso": self.iso,
            "exposure_time": self.exposure_time,
            "aperture": self.aperture,
            "device_id": self.device_id,
        }
        if self.scene_id is not None:
            out["scene_id"] = self.scene_id
        if self.session_id is not None:
            out["session_id"] = self.session_id
        return out


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
        return {
            "capture_id": self.capture_id,
            "raw_path": self.raw_path,
            "bundle_path": self.bundle_path,
            "scene_id": self.scene_id,
            "device_id": self.device_id,
            "session_id": self.session_id,
        }


# --- Meas.-XYZ plane headers ------------------------------------------------------

@dataclass(frozen=True)
class _MeasXyzHeader:
    """A Meas.-XYZ plane's <stem>.json, as measxyz.save_meas_xyz writes it."""

    capture_id: str
    metadata: CameraMetadata
    range: tuple[float, float]
    height: int
    width: int
    channels: int


def meas_xyz_header_fields(stem: Path, header: dict) -> tuple[str, CameraMetadata]:
    """The capture id and metadata of a plane header that ``stem``'s pair holds."""
    decoded = decode(_MeasXyzHeader, header, f"{stem}.json: plane header")
    return decoded.capture_id, decoded.metadata


def read_meas_xyz_header(stem: Path) -> tuple[str, CameraMetadata]:
    """The capture id and metadata of a plane pair, without reading its samples.

    The header is checked as load_meas_xyz checks it, and the .f32 size
    against the header dimensions.
    """
    header, _ = formats.read_plane_header(stem)
    return meas_xyz_header_fields(stem, header)


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

MIN_RENDER_MATRIX_DET = 1e-12


def _det3(m) -> float:
    """Determinant of a 3x3 matrix given as rows, by cofactor expansion."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


_Row3 = tuple[float, float, float]
Matrix3x3 = tuple[_Row3, _Row3, _Row3]


def _finite_3x3(value) -> tuple[tuple[float, ...], ...]:
    try:
        rows = tuple(tuple(float(v) for v in row) for row in value)
    except (TypeError, ValueError):
        rows = ()
    if (len(rows) != 3 or any(len(row) != 3 for row in rows)
            or not all(math.isfinite(v) for row in rows for v in row)):
        raise SingularMatrix("xyz_to_linear_srgb must be a finite 3x3 matrix")
    return rows


@dataclass(frozen=True)
class RenderParams:
    """Configuration of one proxy render."""

    exposure_gain: float
    bit_depth: int = 8
    xyz_to_linear_srgb: Matrix3x3 = XYZ_TO_LINEAR_SRGB_D65
    transfer: str = SRGB_PIECEWISE
    quantize: bool = True

    def __post_init__(self):
        gain = float(self.exposure_gain)
        if not math.isfinite(gain) or gain <= 0:
            raise DomainError(f"exposure_gain must be finite and > 0, got {gain}")
        object.__setattr__(self, "exposure_gain", gain)
        if not (1 <= int(self.bit_depth) <= 16):
            raise DomainError(f"bit_depth must be in [1, 16], got {self.bit_depth}")
        object.__setattr__(self, "bit_depth", int(self.bit_depth))
        if self.transfer not in (SRGB_PIECEWISE, IDENTITY):
            raise DomainError(f"unknown transfer {self.transfer!r}")
        matrix = _finite_3x3(self.xyz_to_linear_srgb)
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

    def to_dict(self) -> dict:
        return {
            "exposure_gain": self.exposure_gain,
            "bit_depth": self.bit_depth,
            "xyz_to_linear_srgb": [list(row) for row in self.xyz_to_linear_srgb],
            "transfer": self.transfer,
            "quantize": self.quantize,
        }


@dataclass(frozen=True)
class _RenderHeader:
    """A render's <stem>.json, as isp.save_rendered writes it."""

    capture_id: str
    params: RenderParams


def read_render_header(stem: Path) -> tuple[str, RenderParams]:
    """The capture id and render parameters from the <stem>.json header.

    Every check RenderParams makes applies; a failed one names the file.
    """
    path = Path(str(stem) + ".json")
    header = decode(_RenderHeader, formats.read_json(path), f"{path}: render header")
    return header.capture_id, header.params
