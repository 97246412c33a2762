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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .capture import RawCapture
from .errors import DegenerateCalibration, DomainError, ShapeMismatch
from .records import CameraMetadata, MeasXyzHeader, encode, read_meas_xyz_header

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
    """Dense linear three-channel observation in [0, 1].

    ``data`` is float64 when the image is computed or constructed, and the
    stored float32 samples when it is loaded from a plane pair; the passes
    over it widen one row stripe at a time.
    """

    data: np.ndarray
    capture_id: str
    metadata: CameraMetadata

    def __post_init__(self):
        # A copy, so the image is independent of the caller's array.
        object.__setattr__(self, "data", _frozen_plane(np.array(self.data, dtype=np.float64)))

    @classmethod
    def _adopt(cls, data: np.ndarray, capture_id: str, metadata: CameraMetadata) -> "MeasXyzImage":
        """An image over an array no one else holds, checked and frozen without a copy."""
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


# Rows per stripe of the Meas.-XYZ, render and analysis passes hold about this
# many pixels, so a stripe's float64 temporaries (0.75 MiB each) stay in cache.
_STRIPE_PIXELS = 1 << 15


class _StripeWorkspace:
    """Named, grow-only buffers for the stripe temporaries of the Meas.-XYZ,
    render and analysis passes.

    ``take`` hands out a C-contiguous view of a name's buffer, grown only when
    a larger stripe asks for more than it holds, so a workspace held across
    captures stops allocating once it has seen the largest stripe. A view
    holds whatever the name's last user left there, and the next take of the
    name hands out the same memory. A pass called without a workspace makes
    its own, dropped when the call returns; the CLI's image stages hold one
    per process.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < nbytes:
            buffer = self._buffers[name] = np.empty(nbytes, dtype=np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)


def _apply_matrix(matrix: np.ndarray, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write matrix @ x into ``out``, bit for bit as np.einsum("ij,hwj->hwi") computes it.

    ``x`` holds the three input channels along its first axis and ``out`` one
    channel per matrix row; ``scratch`` holds two float64 arrays of the
    channel shape, and none of the three may overlap another. Each output is
    einsum's accumulator 0 + ((x0 m0 + x2 m2) + x1 m1), the 0 included, so a
    sum of negative zeros comes out +0 as einsum's does. BLAS (x @ M.T) sums
    in another order and differs in the last bit. Like einsum it is silent
    on overflow and on inf - inf.
    """
    total, term = scratch
    with np.errstate(all="ignore"):
        for row, dest in zip(matrix, out):
            np.multiply(x[0], row[0], out=total)
            total += np.multiply(x[2], row[2], out=term)
            total += np.multiply(x[1], row[1], out=term)
            np.add(total, 0.0, out=dest)


def _site_rows(capture: RawCapture, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The black level and the white - black span along an even and an odd mosaic
    row, as (2, width) arrays."""
    black = np.tile(np.asarray(capture.black_level, dtype=np.float64).reshape(2, 2), (1, width // 2))
    return black, capture.white_level - black


def _normalize(codes: np.ndarray, black: np.ndarray, span: np.ndarray, out: np.ndarray, own,
               flags: np.ndarray | None) -> int:
    """Write clip((codes - black) / span, 0, 1) into ``out``, with black[p] and
    span[p] along the rows p, p + 2, ...; return how many values of
    ``out[own]`` the clip brought down from above 1, found in the bool
    ``flags`` of ``out[own]``'s shape, or 0 when ``flags`` is None."""
    for parity in range(2):
        rows = out[parity::2]
        np.subtract(codes[parity::2], black[parity], out=rows)
        np.divide(rows, span[parity], out=rows)
    saturated = 0 if flags is None else int(np.count_nonzero(np.greater(out[own], 1.0, out=flags)))
    np.clip(out, 0.0, 1.0, out=out)
    return saturated


def _log_saturated(capture: RawCapture, saturated: int) -> None:
    if saturated:
        log.debug("%s: %d saturated mosaic codes clamped", capture.capture_id, saturated)


def normalize_mosaic(capture: RawCapture) -> np.ndarray:
    """Map sensor codes to [0, 1]: (code - black_site) / (white - black_site)."""
    black, span = _site_rows(capture, capture.width)
    out = np.empty(capture.mosaic.shape)
    # the clamped codes are counted only to be logged
    flags = np.empty(capture.mosaic.shape, dtype=bool) if log.isEnabledFor(logging.DEBUG) else None
    _log_saturated(capture, _normalize(capture.mosaic, black, span, out, ..., flags))
    return out


def _demosaic_padded(padded: np.ndarray, tile, out: np.ndarray, workspace: _StripeWorkspace) -> None:
    """Write the demosaic of ``padded``'s interior into ``out``, which holds the
    R, G and B planes, (H, W) each, along its first axis; the neighbor sums
    take their buffer from ``workspace``.

    ``padded`` is the mosaic with one row and column more on each side, its
    interior starting on the CFA tile's first row and column. Each site of
    one 2x2 tile position sees the same neighbor layout: each missing color
    is the sum of its neighbors, taken in raster (row, column) order of the
    3x3 window, over a constant count; present colors pass through.
    """
    height, width = out.shape[1:]
    # the sums accumulate in a contiguous buffer, faster than in ``out``'s strided sites
    sums = workspace.take("demosaic sums", ((height + 1) // 2, (width + 1) // 2))
    for pi in range(2):
        for pj in range(2):
            sites = out[:, pi::2, pj::2]
            total = sums[:sites.shape[1], :sites.shape[2]]
            own = tile[pi][pj]
            sites[own] = padded[1 + pi:1 + pi + height:2, 1 + pj:1 + pj + width:2]
            for color in range(3):
                if color == own:
                    continue
                # padded[pi + di] is mosaic row pi + di - 1, of parity pi + di + 1
                taps = [
                    padded[pi + di:pi + di + height:2, pj + dj:pj + dj + width:2]
                    for di in range(3)
                    for dj in range(3)
                    if tile[(pi + di + 1) % 2][(pj + dj + 1) % 2] == color
                ]
                np.add(taps[0], taps[1], out=total)
                for tap in taps[2:]:
                    total += tap
                np.divide(total, len(taps), out=sites[color])


def demosaic_bilinear(norm_mosaic: np.ndarray, cfa_pattern: str) -> np.ndarray:
    """Fill each missing color with the mean of same-color 3x3 neighbors.

    Borders are mirror-padded without repeating the edge row/column, which
    preserves CFA parity; present colors pass through unchanged.
    """
    mosaic = np.asarray(norm_mosaic, dtype=np.float64)
    out = np.empty(mosaic.shape + (3,))
    _demosaic_padded(np.pad(mosaic, 1, mode="reflect"), _CFA_TILES[cfa_pattern], np.moveaxis(out, -1, 0),
                     _StripeWorkspace())
    return out


def white_scale(capture: RawCapture) -> float:
    """Largest XYZ component of a full-scale white-balanced white pixel."""
    xyz_white = capture.cam_to_xyz @ np.asarray(capture.wb_gains)
    scale = float(xyz_white.max())
    if scale <= 1e-12:
        raise DegenerateCalibration("white pixel maps to a non-positive XYZ value")
    return scale


def _stripe_step(width: int) -> int:
    """Rows per Meas.-XYZ stripe: about _STRIPE_PIXELS pixels, and even, so every
    stripe starts on the CFA tile's and the black level's first row."""
    return max(2, _STRIPE_PIXELS // max(1, width) // 2 * 2)


def meas_xyz_transform(capture: RawCapture, *, workspace: _StripeWorkspace | None = None) -> MeasXyzImage:
    """Full observation operator: capture -> normalized linear XYZ image.

    One pass over row stripes: each stripe is normalized with a one-row halo
    above and below, mirrored only at the frame edges as
    demosaic_bilinear's padding mirrors them, then demosaiced, white
    balanced, matrixed, clamped and scaled into the output, bit for bit as
    the whole frame would be. Every stripe-sized temporary comes from
    ``workspace``, or from one made for this call when it is None.
    """
    if workspace is None:
        workspace = _StripeWorkspace()
    height, width = capture.mosaic.shape
    step = _stripe_step(width)
    rows = min(step, height)
    # row i of a padded stripe is mosaic row top + i - 1, of parity i + 1
    black, span = (site[::-1] for site in _site_rows(capture, width))
    scale = white_scale(capture)
    gains = np.asarray(capture.wb_gains).reshape(3, 1, 1)
    tile = _CFA_TILES[capture.cfa_pattern]
    codes = workspace.take("mosaic rows", (rows + 2, width), capture.mosaic.dtype)
    padded = workspace.take("padded mosaic", (rows + 2, width + 2))
    # the R, G, B planes: the matrix reads contiguous planes faster than
    # interleaved channels
    rgb = workspace.take("rgb planes", (3, rows, width))
    scratch = workspace.take("matrix sums", (2, rows, width))
    over = workspace.take("saturated flags", (rows, width), bool)
    under = workspace.take("negative flags", (rows, width, 3), bool)
    xyz = np.empty((height, width, 3))
    debug = log.isEnabledFor(logging.DEBUG)  # the clamped values are counted only to be logged
    saturated = negative = 0
    for top in range(0, height, step):
        count = min(step, height - top)
        # the stripe's rows and its halo, mirrored at the frame edges
        source = np.arange(top - 1, top + count + 1)
        source[0] = abs(source[0])
        if source[-1] == height:
            source[-1] = height - 2
        # the indices are in range; mode="clip" only skips the bounds check
        mosaic_rows = np.take(capture.mosaic, source, axis=0, out=codes[:count + 2], mode="clip")
        stripe = padded[:count + 2]
        saturated += _normalize(mosaic_rows, black, span, stripe[:, 1:-1], slice(1, -1),
                                over[:count] if debug else None)
        stripe[:, 0] = stripe[:, 2]
        stripe[:, -1] = stripe[:, -3]
        linear = rgb[:, :count]
        _demosaic_padded(stripe, tile, linear, workspace)
        linear *= gains
        out = xyz[top:top + count]
        _apply_matrix(capture.cam_to_xyz, linear, np.moveaxis(out, -1, 0), scratch[:, :count])
        if debug:
            negative += int(np.count_nonzero(np.less(out, 0.0, out=under[:count])))
        np.clip(out, 0.0, None, out=out)
        out /= scale
        np.clip(out, 0.0, 1.0, out=out)
    _log_saturated(capture, saturated)
    if negative:
        log.debug("%s: %d negative XYZ values clamped to 0", capture.capture_id, negative)
    return MeasXyzImage._adopt(xyz, capture.capture_id, capture.metadata)


# --- inspection export -----------------------------------------------------------

def save_meas_xyz(image: MeasXyzImage, stem: Path) -> None:
    """Write the image as a float32 plane pair (<stem>.f32 + <stem>.json)."""
    # the range as integers, so it stays written as [0, 1]
    header = MeasXyzHeader(image.capture_id, image.metadata, (0, 1), *image.data.shape)
    formats.write_plane(stem, image.data, encode(header))


def load_meas_xyz(stem: Path, header: MeasXyzHeader | None = None) -> MeasXyzImage:
    """The image saved at ``stem``; ``header`` is its ``read_meas_xyz_header`` result
    when the caller has read it already, so the header is not read again."""
    if header is None:
        header = read_meas_xyz_header(stem)
    return MeasXyzImage._adopt(formats.read_plane(stem, header.shape), header.capture_id, header.metadata)
