"""Records the text stages share with the numeric ones, without numpy.

Capture metadata and refs, render parameters, and the readers of the plane
and render headers live here, so annotate, aggregate, filter, balance,
split, verify-split, eval and report never import numpy. ``capture``,
``measxyz`` and ``isp`` import these names from here and export them as
before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .errors import DomainError, MalformedSidecar, SchemaViolation, SingularMatrix

if TYPE_CHECKING:
    import numpy as np

    from .capture import RawCapture

_METADATA_KEYS = {"iso", "exposure_time", "aperture", "device_id", "scene_id", "session_id"}


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

    @classmethod
    def from_dict(cls, obj: dict) -> "CameraMetadata":
        if not isinstance(obj, dict):
            raise MalformedSidecar("metadata must be an object")
        unknown = set(obj) - _METADATA_KEYS
        if unknown:
            raise MalformedSidecar(f"unknown metadata keys: {sorted(unknown)}")
        for key in ("iso", "exposure_time", "aperture", "device_id"):
            if key not in obj:
                raise MalformedSidecar(f"metadata.{key} is required")
        return cls(
            iso=float(obj["iso"]),
            exposure_time=float(obj["exposure_time"]),
            aperture=float(obj["aperture"]),
            device_id=str(obj["device_id"]),
            scene_id=obj.get("scene_id"),
            session_id=obj.get("session_id"),
        )


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

    @classmethod
    def from_dict(cls, obj: dict) -> "CaptureRef":
        return cls(
            capture_id=str(obj["capture_id"]),
            raw_path=str(obj.get("raw_path") or ""),
            bundle_path=str(obj.get("bundle_path") or ""),
            scene_id=obj.get("scene_id"),
            device_id=obj.get("device_id"),
            session_id=obj.get("session_id"),
        )


# --- Meas.-XYZ plane headers ------------------------------------------------------

def meas_xyz_header_fields(stem: Path, header: dict) -> tuple[str, CameraMetadata]:
    """The capture id and metadata of a plane header that ``stem``'s pair holds."""
    try:
        metadata = CameraMetadata.from_dict(header["metadata"])
        return header["capture_id"], metadata
    except KeyError as exc:
        raise SchemaViolation(f"{stem}.json: plane header lacks {exc}") from exc
    except (TypeError, ValueError, MalformedSidecar) as exc:
        raise SchemaViolation(f"{stem}.json: invalid plane header metadata ({exc})") from exc


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
    xyz_to_linear_srgb: tuple = XYZ_TO_LINEAR_SRGB_D65
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

    @classmethod
    def from_dict(cls, obj: dict) -> "RenderParams":
        return cls(
            exposure_gain=obj["exposure_gain"],
            bit_depth=obj.get("bit_depth", 8),
            xyz_to_linear_srgb=obj.get("xyz_to_linear_srgb", XYZ_TO_LINEAR_SRGB_D65),
            transfer=obj.get("transfer", SRGB_PIECEWISE),
            quantize=obj.get("quantize", True),
        )


def read_render_header(stem: Path) -> tuple[str, RenderParams]:
    """The capture id and render parameters from the <stem>.json header.

    Every check RenderParams makes applies; a failed one names the file.
    """
    path = Path(str(stem) + ".json")
    header = formats.read_json(path)
    try:
        return header["capture_id"], RenderParams.from_dict(header["params"])
    except (KeyError, TypeError, ValueError, SingularMatrix) as exc:
        raise SchemaViolation(
            f"{path}: render header needs capture_id and valid params ({exc!r})"
        ) from exc
