"""RAW capture data model and the on-disk capture bundle format.

A bundle is a directory holding ``mosaic.pgm`` (binary P5, maxval 65535,
big-endian samples) and a strict ``capture.json`` sidecar. Round-trips are
bit-exact: mosaic codes and every sidecar numeric survive save/load
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import formats
from .errors import (
    DimensionMismatch,
    InvalidSpec,
    IoFailure,
    MalformedSidecar,
    MissingFile,
    SchemaViolation,
)
# CameraMetadata and CaptureRef live in records, without numpy; they stay importable from here.
from .records import CameraMetadata, CaptureRef, Matrix3x3, _positive_finite, decode, encode

CFA_PATTERNS = ("RGGB", "BGGR", "GRBG", "GBRG")
MIN_CAM_TO_XYZ_DET = 1e-9

MOSAIC_NAME = "mosaic.pgm"
SIDECAR_NAME = "capture.json"

# The sidecar's keys and what each holds, by records.decode's rule: RawCapture's
# fields but the mosaic. black_level may be one number for every CFA site.
_SIDECAR = {
    "capture_id": str,
    "cfa_pattern": str,
    "black_level": float | tuple[float, float, float, float],
    "white_level": float,
    "wb_gains": tuple[float, float, float],
    "cam_to_xyz": Matrix3x3,
    "metadata": CameraMetadata,
    "raw_path": str,
}
_SIDECAR_NUMBERS = ("black_level", "white_level", "wb_gains", "cam_to_xyz")


@dataclass(frozen=True)
class RawCapture:
    """A CFA mosaic plus the calibration needed to reach linear XYZ.

    ``black_level`` holds one value per CFA site in raster order of the 2x2
    tile. Mosaic codes above ``white_level`` are legal (sensors clip) and are
    treated as saturated downstream.
    """

    capture_id: str
    mosaic: np.ndarray
    cfa_pattern: str
    black_level: tuple[float, float, float, float]
    white_level: float
    wb_gains: tuple[float, float, float]
    cam_to_xyz: np.ndarray
    metadata: CameraMetadata
    raw_path: str

    def __post_init__(self):
        if not self.capture_id:
            raise MalformedSidecar("capture_id must be non-empty")
        if self.cfa_pattern not in CFA_PATTERNS:
            raise MalformedSidecar(f"unknown cfa_pattern {self.cfa_pattern!r}")
        mosaic = np.array(self.mosaic, dtype=np.uint16)
        object.__setattr__(self, "mosaic", mosaic)
        if mosaic.ndim != 2 or mosaic.shape[0] % 2 or mosaic.shape[1] % 2:
            raise DimensionMismatch(
                f"mosaic must be 2-D with even dimensions, got {mosaic.shape}"
            )
        mosaic.setflags(write=False)
        try:
            black = tuple(float(b) for b in self.black_level)
            white = float(self.white_level)
        except (TypeError, ValueError):
            raise MalformedSidecar("black_level/white_level must be numeric") from None
        if len(black) != 4:
            raise MalformedSidecar("black_level must have 4 entries")
        for b in black:
            if not math.isfinite(b) or b < 0:
                raise MalformedSidecar(f"black_level entries must be finite and >= 0, got {b}")
        object.__setattr__(self, "black_level", black)
        if not math.isfinite(white) or white <= max(black) or white > 65535:
            raise MalformedSidecar(
                f"white_level must exceed every black level and fit 16 bits, got {white}"
            )
        object.__setattr__(self, "white_level", white)
        gains = tuple(_positive_finite(g, "wb_gains") for g in self.wb_gains)
        if len(gains) != 3:
            raise MalformedSidecar("wb_gains must have 3 entries")
        object.__setattr__(self, "wb_gains", gains)
        matrix = np.array(self.cam_to_xyz, dtype=np.float64)
        if matrix.shape != (3, 3) or not np.all(np.isfinite(matrix)):
            raise MalformedSidecar("cam_to_xyz must be a finite 3x3 matrix")
        if abs(np.linalg.det(matrix)) <= MIN_CAM_TO_XYZ_DET:
            raise MalformedSidecar("cam_to_xyz is singular")
        matrix.setflags(write=False)
        object.__setattr__(self, "cam_to_xyz", matrix)

    @property
    def height(self) -> int:
        return self.mosaic.shape[0]

    @property
    def width(self) -> int:
        return self.mosaic.shape[1]

    def sidecar_dict(self) -> dict:
        return {
            "capture_id": self.capture_id,
            "cfa_pattern": self.cfa_pattern,
            "black_level": list(self.black_level),
            "white_level": self.white_level,
            "wb_gains": list(self.wb_gains),
            "cam_to_xyz": [[float(v) for v in row] for row in self.cam_to_xyz],
            "metadata": encode(self.metadata),
            "raw_path": self.raw_path,
        }


# --- bundle IO -----------------------------------------------------------------

def read_bundle_sidecar(path: Path) -> dict:
    """The bundle's sidecar, decoded into RawCapture's arguments but the mosaic;
    both bundle files must exist."""
    path = Path(path)
    mosaic_path = path / MOSAIC_NAME
    sidecar_path = path / SIDECAR_NAME
    if not mosaic_path.exists():
        raise MissingFile(str(mosaic_path))
    try:
        sidecar = formats.read_json(sidecar_path)
    except SchemaViolation as exc:
        raise MalformedSidecar(str(exc)) from exc
    if not isinstance(sidecar, dict):
        raise MalformedSidecar(f"{sidecar_path}: expected a JSON object")
    unknown = sidecar.keys() - _SIDECAR
    if unknown:
        raise MalformedSidecar(f"{sidecar_path}: unknown keys {sorted(unknown)}")
    missing = _SIDECAR.keys() - sidecar
    if missing:
        raise MalformedSidecar(f"{sidecar_path}: missing keys {sorted(missing)}")
    for key, hint in _SIDECAR.items():
        what = " must hold JSON numbers" if key in _SIDECAR_NUMBERS else ""
        sidecar[key] = decode(hint, sidecar[key], f"{sidecar_path}: {key}{what}", MalformedSidecar)
    if isinstance(sidecar["black_level"], float):
        sidecar["black_level"] = (sidecar["black_level"],) * 4  # one per CFA site
    return sidecar


def load_capture_bundle(path: Path, sidecar: dict | None = None) -> RawCapture:
    """Load and validate a capture bundle directory.

    ``sidecar`` is the bundle's ``read_bundle_sidecar`` result when the
    caller has read it already, so the sidecar is not read again.
    """
    path = Path(path)
    mosaic_path = path / MOSAIC_NAME
    sidecar_path = path / SIDECAR_NAME
    if sidecar is None:
        sidecar = read_bundle_sidecar(path)
    mosaic = formats.read_pgm16(mosaic_path)
    if mosaic.shape[0] % 2 or mosaic.shape[1] % 2:
        raise DimensionMismatch(f"{mosaic_path}: odd mosaic dimensions {mosaic.shape}")

    try:
        return RawCapture(mosaic=mosaic, **sidecar)
    except MalformedSidecar as exc:
        raise MalformedSidecar(f"{sidecar_path}: {exc}") from exc


def save_capture_bundle(capture: RawCapture, path: Path) -> None:
    """Write a bundle such that ``load_capture_bundle`` reproduces it exactly."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    formats.write_pgm16(path / MOSAIC_NAME, capture.mosaic)
    formats.write_json(path / SIDECAR_NAME, capture.sidecar_dict())


# --- synthetic captures ----------------------------------------------------------

@dataclass(frozen=True)
class ScenePatch:
    """Axis-aligned rectangle whose radiance is background * gain."""

    top: int
    left: int
    height: int
    width: int
    gain: float


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Analytic scene: flat background with rectangular patches plus noise.

    ``background`` and patch radiances are fractions of the sensor dynamic
    range; ``noise_sigma`` is Gaussian noise in the same units.
    """

    height: int = 64
    width: int = 64
    background: float = 0.25
    patches: tuple[ScenePatch, ...] = ()
    noise_sigma: float = 0.0
    cfa_pattern: str = "RGGB"
    black_level: tuple[float, float, float, float] = (64.0, 64.0, 64.0, 64.0)
    white_level: float = 1023.0
    wb_gains: tuple[float, float, float] = (1.0, 1.0, 1.0)
    cam_to_xyz: Matrix3x3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    metadata: CameraMetadata = field(
        default_factory=lambda: CameraMetadata(
            iso=100.0, exposure_time=1 / 60, aperture=4.0, device_id="synth-cam"
        )
    )

    def __post_init__(self):
        if self.height <= 0 or self.width <= 0 or self.height % 2 or self.width % 2:
            raise InvalidSpec(f"scene dimensions must be positive and even, got {self.height}x{self.width}")
        if not (0 <= self.background):
            raise InvalidSpec("background must be >= 0")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be >= 0")
        for p in self.patches:
            if p.height <= 0 or p.width <= 0:
                raise InvalidSpec(f"patch has non-positive size: {p}")
            if p.top < 0 or p.left < 0 or p.top + p.height > self.height or p.left + p.width > self.width:
                raise InvalidSpec(f"patch out of bounds: {p}")
            if p.gain <= 0:
                raise InvalidSpec(f"patch gain must be > 0: {p}")


@dataclass(frozen=True)
class SyntheticCapture:
    """A generated capture together with its analytically known linear scene."""

    capture: RawCapture
    scene: np.ndarray  # (H, W) radiance in fractions of dynamic range


def scene_radiance(spec: SyntheticSceneSpec) -> np.ndarray:
    scene = np.full((spec.height, spec.width), spec.background, dtype=np.float64)
    for p in spec.patches:
        scene[p.top:p.top + p.height, p.left:p.left + p.width] *= p.gain
    return scene


def synth_capture(spec: SyntheticSceneSpec, seed: int, capture_id: str = "synth-0000") -> SyntheticCapture:
    """Deterministically render ``spec`` into mosaic codes.

    Codes are ``black + radiance * (white - black) + noise`` rounded to the
    nearest integer and clipped to 16 bits, so radiances chosen as exact
    multiples of 1/(white - black) survive quantization exactly.
    """
    scene = scene_radiance(spec)
    rng = np.random.default_rng(seed)
    black_map = _black_site_map(spec.black_level, spec.height, spec.width)
    span = spec.white_level - black_map
    codes = black_map + scene * span
    if spec.noise_sigma > 0:
        codes = codes + rng.normal(0.0, spec.noise_sigma, scene.shape) * span
    codes = np.clip(np.floor(codes + 0.5), 0, 65535).astype(np.uint16)
    capture = RawCapture(
        capture_id=capture_id,
        mosaic=codes,
        cfa_pattern=spec.cfa_pattern,
        black_level=spec.black_level,
        white_level=spec.white_level,
        wb_gains=spec.wb_gains,
        cam_to_xyz=np.asarray(spec.cam_to_xyz, dtype=np.float64),
        metadata=spec.metadata,
        raw_path=f"synthetic://{capture_id}",
    )
    return SyntheticCapture(capture=capture, scene=scene)


def with_metadata(spec: SyntheticSceneSpec, metadata: CameraMetadata) -> SyntheticSceneSpec:
    return replace(spec, metadata=metadata)


def _black_site_map(black_level, height: int, width: int) -> np.ndarray:
    """Per-pixel black level from the 4 per-site values (tile raster order)."""
    tile = np.asarray(black_level, dtype=np.float64).reshape(2, 2)
    reps = (height // 2, width // 2)
    return np.tile(tile, reps)
