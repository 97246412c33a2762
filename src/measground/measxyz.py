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
from .capture import RawCapture, _black_site_map
from .errors import DegenerateCalibration, DomainError, ShapeMismatch
from .records import CameraMetadata, meas_xyz_header_fields, read_meas_xyz_header

log = logging.getLogger(__name__)

# Per-color boolean masks are derived from the 2x2 tile of each CFA pattern;
# index 0/1/2 = R/G/B.
_CFA_TILES = {
    "RGGB": ((0, 1), (1, 2)),
    "BGGR": ((2, 1), (1, 0)),
    "GRBG": ((1, 0), (2, 1)),
    "GBRG": ((1, 2), (0, 1)),
}


def _frozen_plane(data: np.ndarray) -> np.ndarray:
    """``data`` made read-only, once its shape and range are checked."""
    if data.ndim != 3 or data.shape[2] != 3:
        raise ShapeMismatch(f"MeasXyzImage data must be (H, W, 3), got {data.shape}")
    # NaN fails both comparisons, so one min/max pass covers the common
    # case; the finiteness scan only runs to word the error.
    if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):
        if not np.all(np.isfinite(data)):
            raise DomainError("MeasXyzImage data must be finite")
        raise DomainError("MeasXyzImage data must lie in [0, 1]")
    data.setflags(write=False)
    return data


@dataclass(frozen=True)
class MeasXyzImage:
    """Dense linear three-channel observation in [0, 1]."""

    data: np.ndarray
    capture_id: str
    metadata: CameraMetadata

    def __post_init__(self):
        # A copy, so the image is independent of the caller's array.
        object.__setattr__(self, "data", _frozen_plane(np.array(self.data, dtype=np.float64)))

    @classmethod
    def _adopt(cls, data: np.ndarray, capture_id: str, metadata: CameraMetadata) -> "MeasXyzImage":
        """An image over a float64 array no one else holds, checked and frozen without a copy."""
        image = object.__new__(cls)
        object.__setattr__(image, "data", _frozen_plane(data))
        object.__setattr__(image, "capture_id", capture_id)
        object.__setattr__(image, "metadata", metadata)
        return image

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


def demosaic_bilinear(norm_mosaic: np.ndarray, cfa_pattern: str) -> np.ndarray:
    """Fill each missing color with the mean of same-color 3x3 neighbors.

    Borders are mirror-padded without repeating the edge row/column, which
    preserves CFA parity; present colors pass through unchanged.

    Because parity is preserved, every site of one 2x2 tile position sees the
    same neighbor layout: each missing color is the sum of its neighbors, taken
    in raster (row, column) order of the 3x3 window, over a constant count.
    """
    mosaic = np.asarray(norm_mosaic, dtype=np.float64)
    height, width = mosaic.shape
    tile = _CFA_TILES[cfa_pattern]
    padded = np.pad(mosaic, 1, mode="reflect")
    out = np.empty((height, width, 3), dtype=np.float64)
    for pi in range(2):
        for pj in range(2):
            site = out[pi::2, pj::2]
            own = tile[pi][pj]
            site[..., own] = mosaic[pi::2, pj::2]
            for color in range(3):
                if color == own:
                    continue
                # padded[pi + di] mirrors mosaic row pi + di - 1, of parity pi + di + 1
                taps = [
                    padded[pi + di:pi + di + height:2, pj + dj:pj + dj + width:2]
                    for di in range(3)
                    for dj in range(3)
                    if tile[(pi + di + 1) % 2][(pj + dj + 1) % 2] == color
                ]
                total = taps[0] + taps[1]
                for tap in taps[2:]:
                    total += tap
                total /= len(taps)
                site[..., color] = total
    return out


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
    rgb *= np.asarray(capture.wb_gains)
    xyz = np.einsum("ij,hwj->hwi", capture.cam_to_xyz, rgb)
    del rgb  # freed before the clamps allocate their masks
    negative = int(np.count_nonzero(xyz < 0.0))
    if negative:
        log.debug("%s: %d negative XYZ values clamped to 0", capture.capture_id, negative)
    np.clip(xyz, 0.0, None, out=xyz)
    xyz /= white_scale(capture)
    np.clip(xyz, 0.0, 1.0, out=xyz)
    return MeasXyzImage._adopt(xyz, capture.capture_id, capture.metadata)


# --- inspection export -----------------------------------------------------------

def save_meas_xyz(image: MeasXyzImage, stem: Path) -> None:
    """Write the image as a float32 plane pair (<stem>.f32 + <stem>.json)."""
    header = {
        "capture_id": image.capture_id,
        "range": [0, 1],
        "metadata": image.metadata.to_dict(),
    }
    formats.write_plane(stem, image.data, header)


def load_meas_xyz(stem: Path, header: tuple[dict, tuple[int, ...]] | None = None) -> MeasXyzImage:
    """The image saved at ``stem``; ``header`` is as ``formats.read_plane`` takes it."""
    data, header = formats.read_plane(stem, header)
    capture_id, metadata = meas_xyz_header_fields(stem, header)
    return MeasXyzImage._adopt(data, capture_id, metadata)


def peek_capture_id(stem: Path) -> str:
    """The capture id of a plane pair, from its header alone."""
    return read_meas_xyz_header(stem)[0]
