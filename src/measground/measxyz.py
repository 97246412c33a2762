"""RAW capture to measurement-domain linear XYZ.

The pipeline is: per-site black/white normalization, bilinear demosaic,
white-balance gains, camera-to-XYZ matrixing, clamping of negative values,
and division by the fixed scale of a full-scale white-balanced white pixel
so that a sensor-saturated neutral surface lands at the top of [0, 1].
Every stage is linear below the clamps, so outputs scale with exposure
until saturation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .capture import CameraMetadata, RawCapture, _black_site_map
from .errors import DegenerateCalibration, DomainError, SchemaViolation, ShapeMismatch

log = logging.getLogger(__name__)

# Per-color boolean masks are derived from the 2x2 tile of each CFA pattern;
# index 0/1/2 = R/G/B.
_CFA_TILES = {
    "RGGB": ((0, 1), (1, 2)),
    "BGGR": ((2, 1), (1, 0)),
    "GRBG": ((1, 0), (2, 1)),
    "GBRG": ((1, 2), (0, 1)),
}


@dataclass(frozen=True)
class MeasXyzImage:
    """Dense linear three-channel observation in [0, 1]."""

    data: np.ndarray
    capture_id: str
    metadata: CameraMetadata

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ShapeMismatch(f"MeasXyzImage data must be (H, W, 3), got {data.shape}")
        if not np.all(np.isfinite(data)):
            raise DomainError("MeasXyzImage data must be finite")
        if data.size and (data.min() < 0.0 or data.max() > 1.0):
            raise DomainError("MeasXyzImage data must lie in [0, 1]")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def normalize_mosaic(capture: RawCapture) -> np.ndarray:
    """Map sensor codes to [0, 1]: (code - black_site) / (white - black_site)."""
    black = _black_site_map(capture.black_level, capture.height, capture.width)
    span = capture.white_level - black
    if np.any(span <= 0):
        raise DegenerateCalibration("white_level must exceed every black level")
    out = (capture.mosaic.astype(np.float64) - black) / span
    saturated = int(np.count_nonzero(out > 1.0))
    if saturated:
        log.debug("%s: %d saturated mosaic codes clamped", capture.capture_id, saturated)
    return np.clip(out, 0.0, 1.0)


def cfa_masks(cfa_pattern: str, height: int, width: int) -> np.ndarray:
    """(3, H, W) boolean masks marking R/G/B sites of the pattern."""
    tile = np.asarray(_CFA_TILES[cfa_pattern])
    colors = np.tile(tile, (height // 2, width // 2))
    return np.stack([colors == c for c in range(3)])


def _window_sum(padded: np.ndarray) -> np.ndarray:
    """Sum of each 3x3 neighborhood of the pre-padded array."""
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    out = np.zeros((h, w), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            out += padded[di:di + h, dj:dj + w]
    return out


def demosaic_bilinear(norm_mosaic: np.ndarray, cfa_pattern: str) -> np.ndarray:
    """Fill each missing color with the mean of same-color 3x3 neighbors.

    Borders are mirror-padded without repeating the edge row/column, which
    preserves CFA parity; present colors pass through unchanged.
    """
    mosaic = np.asarray(norm_mosaic, dtype=np.float64)
    height, width = mosaic.shape
    masks = cfa_masks(cfa_pattern, height, width)
    padded_mosaic = np.pad(mosaic, 1, mode="reflect")
    channels = []
    for mask in masks:
        padded_mask = np.pad(mask.astype(np.float64), 1, mode="reflect")
        num = _window_sum(padded_mosaic * padded_mask)
        den = _window_sum(padded_mask)
        channels.append(np.where(mask, mosaic, num / den))
    return np.stack(channels, axis=-1)


def white_scale(capture: RawCapture) -> float:
    """Largest XYZ component of a full-scale white-balanced white pixel."""
    xyz_white = capture.cam_to_xyz @ np.asarray(capture.wb_gains)
    scale = float(xyz_white.max())
    if scale <= 1e-12:
        raise DegenerateCalibration("white pixel maps to a non-positive XYZ value")
    return scale


def meas_xyz_transform(capture: RawCapture) -> MeasXyzImage:
    """Full observation operator: capture -> normalized linear XYZ image."""
    rgb = demosaic_bilinear(normalize_mosaic(capture), capture.cfa_pattern)
    rgb = rgb * np.asarray(capture.wb_gains)
    xyz = np.einsum("ij,hwj->hwi", capture.cam_to_xyz, rgb)
    negative = int(np.count_nonzero(xyz < 0.0))
    if negative:
        log.debug("%s: %d negative XYZ values clamped to 0", capture.capture_id, negative)
    xyz = np.clip(xyz, 0.0, None) / white_scale(capture)
    return MeasXyzImage(
        data=np.clip(xyz, 0.0, 1.0),
        capture_id=capture.capture_id,
        metadata=capture.metadata,
    )


# --- inspection export -----------------------------------------------------------

def save_meas_xyz(image: MeasXyzImage, stem: Path) -> None:
    """Write the image as a float32 plane pair (<stem>.f32 + <stem>.json)."""
    header = {
        "capture_id": image.capture_id,
        "range": [0, 1],
        "metadata": image.metadata.to_dict(),
    }
    formats.write_plane(stem, image.data, header)


def load_meas_xyz(stem: Path) -> MeasXyzImage:
    data, header = formats.read_plane(stem)
    try:
        metadata = CameraMetadata.from_dict(header["metadata"])
        return MeasXyzImage(data=data, capture_id=header["capture_id"], metadata=metadata)
    except KeyError as exc:
        raise SchemaViolation(f"{stem}.json: plane header lacks {exc}") from exc


def peek_capture_id(stem: Path) -> str:
    """Read only the header of a plane pair (cheap existence/id check)."""
    return formats.read_json(Path(str(stem) + ".json"))["capture_id"]
