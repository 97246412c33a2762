"""RAW capture data model and the on-disk capture bundle format.

A bundle is a directory holding ``mosaic.pgm`` (binary P5, maxval 65535,
big-endian samples) and a strict ``capture.json`` sidecar. Round-trips are
bit-exact: mosaic codes and every sidecar numeric survive save/load
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Annotated

import numpy as np

from . import formats
from .errors import (
    DegenerateCalibration,
    DimensionMismatch,
    InvalidSpec,
    IoFailure,
    MalformedMosaic,
    MalformedSidecar,
    MissingFile,
    SchemaViolation,
)
# CameraMetadata and CaptureRef live in records, without numpy; they stay importable from here.
from .records import (CameraMetadata, CaptureRef, Matrix3x3, NonNegative, Positive, Range, _adopt, _det3,
                      _finite_3x3, check_bounds, decode, encode)

CFA_PATTERNS = ("RGGB", "BGGR", "GRBG", "GBRG")
# The calibration fields of a sidecar, a capture and a synthetic scene.
BlackLevels = Annotated[tuple[float, float, float, float], NonNegative]  # one per CFA site
WhiteLevel = Annotated[float, Range(0, 65535)]
WbGains = Annotated[tuple[float, float, float], Positive]
MIN_CAM_TO_XYZ_DET = 1e-9

MOSAIC_NAME = "mosaic.pgm"
SIDECAR_NAME = "capture.json"


@dataclass(frozen=True)
class Sidecar:
    """A bundle's capture.json: RawCapture's fields but the mosaic. ``__post_init__`` is
    the one calibration rule, which each capture passes once, where it enters: the
    decode of a bundle's sidecar, the spec of a synthetic capture, or a RawCapture's own."""

    capture_id: str
    cfa_pattern: str
    black_level: BlackLevels
    white_level: WhiteLevel
    wb_gains: WbGains
    cam_to_xyz: Matrix3x3
    metadata: CameraMetadata
    raw_path: str

    def __post_init__(self):
        from .measxyz import white_scale  # the scale the Meas.-XYZ pass divides by

        if not self.capture_id:
            raise MalformedSidecar("capture_id must be non-empty")
        if self.cfa_pattern not in CFA_PATTERNS:
            raise MalformedSidecar(f"unknown cfa_pattern {self.cfa_pattern!r}")
        check_bounds(self, MalformedSidecar)  # so each value below is a number
        if len(self.black_level) != 4 or len(self.wb_gains) != 3:
            raise MalformedSidecar("black_level must have 4 entries and wb_gains 3")
        if not self.white_level > max(self.black_level):
            raise MalformedSidecar(f"white_level must exceed every black level, got {self.white_level}")
        # NaN (an overflowing expansion) counts as singular
        if not abs(_det3(_finite_3x3(self.cam_to_xyz, "cam_to_xyz", MalformedSidecar))) > MIN_CAM_TO_XYZ_DET:
            raise MalformedSidecar("cam_to_xyz is singular")
        if not 1e-12 < white_scale(self) < np.inf:
            raise DegenerateCalibration("the white-balanced white maps to no finite positive XYZ value")


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
    black_level: BlackLevels
    white_level: WhiteLevel
    wb_gains: WbGains
    cam_to_xyz: np.ndarray
    metadata: CameraMetadata
    raw_path: str

    def __post_init__(self):
        Sidecar(**{f.name: getattr(self, f.name) for f in fields(Sidecar)})  # the calibration rule
        # A copy, so the capture is independent of the caller's array.
        object.__setattr__(self, "mosaic",
                           formats.uint16_codes(self.mosaic, formats.PGM_MAXVAL, "mosaic codes", MalformedMosaic))
        self._freeze()

    def _freeze(self) -> None:
        """Check the shape of a uint16 mosaic, then freeze the capture: the mosaic and
        the matrix read-only, the calibration as floats. Sidecar's rule has passed it."""
        shape = self.mosaic.shape
        if len(shape) != 2 or 0 in shape or shape[0] % 2 or shape[1] % 2:
            raise DimensionMismatch(f"mosaic must be 2-D with even, nonzero dimensions, got {shape}")
        self.mosaic.setflags(write=False)
        object.__setattr__(self, "black_level", tuple(map(float, self.black_level)))
        object.__setattr__(self, "white_level", float(self.white_level))
        object.__setattr__(self, "wb_gains", tuple(map(float, self.wb_gains)))
        matrix = np.array(self.cam_to_xyz, dtype=np.float64)
        matrix.setflags(write=False)
        object.__setattr__(self, "cam_to_xyz", matrix)

    @property
    def height(self) -> int:
        return self.mosaic.shape[0]

    @property
    def width(self) -> int:
        return self.mosaic.shape[1]


# --- bundle IO -----------------------------------------------------------------

def read_bundle_sidecar(path: Path) -> Sidecar:
    """The bundle's sidecar; both bundle files must exist. A single black level
    is read as the black level of every CFA site."""
    path = Path(path)
    mosaic_path = path / MOSAIC_NAME
    sidecar_path = path / SIDECAR_NAME
    if not mosaic_path.exists():
        raise MissingFile(str(mosaic_path))
    try:
        sidecar = formats.read_json(sidecar_path)
    except SchemaViolation as exc:
        raise MalformedSidecar(str(exc)) from exc
    if isinstance(sidecar, dict) and type(sidecar.get("black_level")) in (int, float):
        sidecar["black_level"] = [sidecar["black_level"]] * 4
    return decode(Sidecar, sidecar, f"{sidecar_path}: sidecar", MalformedSidecar)


def load_capture_bundle(path: Path, sidecar: Sidecar | None = None) -> RawCapture:
    """Load and validate a capture bundle directory.

    ``sidecar`` is the bundle's ``read_bundle_sidecar`` result when the
    caller has read it already, so the sidecar is not read again.
    """
    path = Path(path)
    mosaic_path = path / MOSAIC_NAME
    if sidecar is None:
        sidecar = read_bundle_sidecar(path)
    mosaic = formats.read_pgm16(mosaic_path)
    try:  # the capture adopts the array just read, so the mosaic is held once
        return _adopt(RawCapture, mosaic=mosaic, **vars(sidecar))
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{mosaic_path}: {exc}") from exc


def save_capture_bundle(capture: RawCapture, path: Path) -> None:
    """Write a bundle such that ``load_capture_bundle`` reproduces it exactly."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    formats.write_pnm(path / MOSAIC_NAME, capture.mosaic, formats.PGM_MAXVAL)
    sidecar = {f.name: getattr(capture, f.name) for f in fields(Sidecar)}
    sidecar["cam_to_xyz"] = tuple(map(tuple, capture.cam_to_xyz.tolist()))
    formats.write_json(path / SIDECAR_NAME, encode(Sidecar(**sidecar)))


# --- synthetic captures ----------------------------------------------------------

@dataclass(frozen=True)
class ScenePatch:
    """Axis-aligned rectangle whose radiance is background * gain."""

    top: int
    left: int
    height: Annotated[int, Positive]
    width: Annotated[int, Positive]
    gain: Annotated[float, Positive]


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Analytic scene: flat background with rectangular patches plus noise.

    ``background`` and patch radiances are fractions of the sensor dynamic
    range; ``noise_sigma`` is Gaussian noise in the same units.
    """

    height: Annotated[int, Positive] = 64
    width: Annotated[int, Positive] = 64
    background: Annotated[float, NonNegative] = 0.25
    patches: tuple[ScenePatch, ...] = ()
    noise_sigma: Annotated[float, NonNegative] = 0.0
    cfa_pattern: str = "RGGB"
    black_level: BlackLevels = (64.0, 64.0, 64.0, 64.0)
    white_level: WhiteLevel = 1023.0
    wb_gains: WbGains = (1.0, 1.0, 1.0)
    cam_to_xyz: Matrix3x3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    metadata: CameraMetadata = field(
        default_factory=lambda: CameraMetadata(
            iso=100.0, exposure_time=1 / 60, aperture=4.0, device_id="synth-cam"
        )
    )

    def __post_init__(self):
        check_bounds(self, InvalidSpec)
        if self.height % 2 or self.width % 2:
            raise InvalidSpec(f"scene dimensions must be even, got {self.height}x{self.width}")
        for p in self.patches:
            check_bounds(p, InvalidSpec)
            if p.top < 0 or p.left < 0 or p.top + p.height > self.height or p.left + p.width > self.width:
                raise InvalidSpec(f"patch out of bounds: {p}")


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

    Codes are ``(black + radiance * (white - black)) + noise * (white - black)``
    rounded to the nearest integer and clipped to 16 bits, so radiances
    chosen as exact multiples of 1/(white - black) survive quantization
    exactly.

    The codes are computed in the even-row stripes of the Meas.-XYZ pass, in
    two stripe-sized float64 buffers. Each stripe's noise is drawn from the
    capture's one generator in row order: chunked draws from one generator
    continue one stream, so the values are those of one whole-frame draw.
    """
    from .measxyz import _site_rows, _stripe_step

    sidecar = Sidecar(capture_id=capture_id, cfa_pattern=spec.cfa_pattern, black_level=spec.black_level,
                      white_level=spec.white_level, wb_gains=spec.wb_gains, cam_to_xyz=spec.cam_to_xyz,
                      metadata=spec.metadata, raw_path=f"synthetic://{capture_id}")
    scene = scene_radiance(spec)
    rng = np.random.default_rng(seed)
    height, width = scene.shape
    step = _stripe_step(width)
    # every stripe starts on an even row, so its row pairs broadcast against the site rows
    black, span = _site_rows(spec, width)
    codes = np.empty((height, width), dtype=np.uint16)
    rows = min(step, height)
    stripe, noise = np.empty((rows // 2, 2, width)), np.empty((rows // 2, 2, width))
    for top in range(0, height, step):
        pairs = min(step, height - top) // 2
        out = stripe[:pairs]
        np.multiply(scene[top:top + 2 * pairs].reshape(pairs, 2, width), span, out=out)
        out += black
        if spec.noise_sigma > 0:
            # rng.normal(0, sigma) is 0 + sigma * z; the sign of a zero it
            # would fix is lost at the + 0.5 below
            draw = rng.standard_normal(out=noise[:pairs])
            draw *= spec.noise_sigma
            draw *= span
            out += draw
        out += 0.5
        np.floor(out, out=out)
        np.clip(out, 0, 65535, out=out)
        np.copyto(codes[top:top + 2 * pairs], out.reshape(-1, width), casting="unsafe")
    # the codes just computed, adopted without a copy
    return SyntheticCapture(capture=_adopt(RawCapture, mosaic=codes, **vars(sidecar)), scene=scene)

