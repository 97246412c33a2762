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
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import formats
from .errors import DomainError, ShapeMismatch
from .records import CameraMetadata, MeasXyzHeader, _adopt, encode, read_meas_xyz_header

if TYPE_CHECKING:  # the bracket and lost-signal stages run without capture
    from .capture import RawCapture

log = logging.getLogger(__name__)

# Per-color boolean masks are derived from the 2x2 tile of each CFA pattern;
# index 0/1/2 = R/G/B.
_CFA_TILES = {
    "RGGB": ((0, 1), (1, 2)),
    "BGGR": ((2, 1), (1, 0)),
    "GRBG": ((1, 0), (2, 1)),
    "GBRG": ((1, 2), (0, 1)),
}


def _check_unit_range(data: np.ndarray, what: str) -> None:
    """Refuse ``data`` unless every value lies in [0, 1], naming it ``what``:
    the package's one [0, 1] check, of images, renders and transfer curves."""
    # NaN fails both comparisons, so one min/max pass covers the common
    # case; the finiteness scan only runs to word the error.
    if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):
        if not np.all(np.isfinite(data)):
            raise DomainError(f"{what} must be finite")
        raise DomainError(f"{what} must lie in [0, 1]")


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
        object.__setattr__(self, "data", np.array(self.data, dtype=np.float64))
        self._freeze()

    def _freeze(self) -> None:
        """Check ``data``'s shape and range, then make it read-only."""
        if self.data.ndim != 3 or self.data.shape[2] != 3:
            raise ShapeMismatch(f"MeasXyzImage data must be (H, W, 3), got {self.data.shape}")
        _check_unit_range(self.data, "MeasXyzImage data")
        self.data.setflags(write=False)

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
    name hands out the same memory. Each thread holds one, from _workspace.
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


# Holds each thread's stripe workspace; see _workspace.
_thread = threading.local()


def _workspace() -> _StripeWorkspace:
    """This thread's stripe workspace, made on its first pass and held for
    every later one, so its buffers grow to the largest stripe the thread
    has seen and are not allocated again."""
    workspace = getattr(_thread, "workspace", None)
    if workspace is None:
        workspace = _thread.workspace = _StripeWorkspace()
    return workspace


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


def _site_rows(calibration, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The black level and the white - black span along an even and an odd mosaic
    row, as (2, width) arrays, of a capture's or a synthetic scene spec's calibration."""
    black = np.tile(np.asarray(calibration.black_level, dtype=np.float64).reshape(2, 2), (1, width // 2))
    return black, calibration.white_level - black


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


def _demosaic_padded(padded: np.ndarray, tile, out: np.ndarray, sums: np.ndarray) -> None:
    """Write the demosaic of ``padded``'s interior into ``out``, which holds the
    R, G and B planes, (H, W) each, along its first axis; the neighbor sums
    accumulate in ``sums``, of at least ((H + 1) // 2, (W + 1) // 2).

    ``padded`` is the mosaic with one row and column more on each side, its
    interior starting on the CFA tile's first row and column. Each site of
    one 2x2 tile position sees the same neighbor layout: each missing color
    is the sum of its neighbors, taken in raster (row, column) order of the
    3x3 window, over a constant count; present colors pass through.
    """
    height, width = out.shape[1:]
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
    sums = np.empty(((mosaic.shape[0] + 1) // 2, (mosaic.shape[1] + 1) // 2))
    _demosaic_padded(np.pad(mosaic, 1, mode="reflect"), _CFA_TILES[cfa_pattern], np.moveaxis(out, -1, 0), sums)
    return out


def white_scale(calibration) -> float:
    """Largest XYZ component of a full-scale white-balanced white pixel, of a capture's
    or a sidecar's calibration; capture.Sidecar's rule refuses one not finite and positive."""
    matrix, gains = (np.asarray(value, dtype=np.float64) for value in (calibration.cam_to_xyz, calibration.wb_gains))
    with np.errstate(over="ignore", invalid="ignore"):  # the rule refuses a white that overflows
        return float((matrix @ gains).max())


def _stripe_step(width: int) -> int:
    """Rows per stripe of every pass: about _STRIPE_PIXELS pixels, and even, so
    every stripe starts on the CFA tile's and the black level's first row."""
    return max(2, _STRIPE_PIXELS // max(1, width) // 2 * 2)


def _meas_xyz_pass(capture: RawCapture, sink) -> None:
    """The observation operator in one pass over row stripes.

    Each stripe is normalized with a one-row halo above and below, mirrored
    only at the frame edges as demosaic_bilinear's padding mirrors them,
    then demosaiced, white balanced, matrixed, clamped and scaled, bit for
    bit as the whole frame would be. ``sink(rows, xyz)`` then receives the
    stripe's rows, a slice, and its (rows, W, 3) float64 values, in row
    order, in a buffer the next stripe overwrites. Every stripe-sized
    temporary comes from the thread's workspace.
    """
    height, width = capture.mosaic.shape
    step = _stripe_step(width)
    rows = min(step, height)
    # row i of a padded stripe is mosaic row top + i - 1, of parity i + 1
    black, span = (site[::-1] for site in _site_rows(capture, width))
    scale = white_scale(capture)
    gains = np.asarray(capture.wb_gains).reshape(3, 1, 1)
    tile = _CFA_TILES[capture.cfa_pattern]
    workspace = _workspace()
    codes = workspace.take("mosaic rows", (rows + 2, width), capture.mosaic.dtype)
    padded = workspace.take("padded mosaic", (rows + 2, width + 2))
    # the R, G, B planes: the matrix reads contiguous planes faster than
    # interleaved channels
    rgb = workspace.take("rgb planes", (3, rows, width))
    # the demosaic's sums accumulate in a contiguous buffer, faster than in
    # the planes' strided sites
    sums = workspace.take("demosaic sums", ((rows + 1) // 2, (width + 1) // 2))
    scratch = workspace.take("matrix sums", (2, rows, width))
    over = workspace.take("saturated flags", (rows, width), bool)
    under = workspace.take("negative flags", (rows, width, 3), bool)
    xyz = workspace.take("xyz stripe", (rows, width, 3))
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
        _demosaic_padded(stripe, tile, linear, sums)
        linear *= gains
        out = xyz[:count]
        _apply_matrix(capture.cam_to_xyz, linear, np.moveaxis(out, -1, 0), scratch[:, :count])
        if debug:
            negative += int(np.count_nonzero(np.less(out, 0.0, out=under[:count])))
        np.clip(out, 0.0, None, out=out)
        out /= scale
        np.clip(out, 0.0, 1.0, out=out)
        sink(slice(top, top + count), out)
    _log_saturated(capture, saturated)
    if negative:
        log.debug("%s: %d negative XYZ values clamped to 0", capture.capture_id, negative)


def meas_xyz_transform(capture: RawCapture) -> MeasXyzImage:
    """Full observation operator: capture -> normalized linear XYZ image."""
    xyz = np.empty(capture.mosaic.shape + (3,))
    # an array's __setitem__ is the sink that fills it
    _meas_xyz_pass(capture, xyz.__setitem__)
    return _adopt(MeasXyzImage, data=xyz, capture_id=capture.capture_id, metadata=capture.metadata)


# --- inspection export -----------------------------------------------------------

def _plane_header(capture_id: str, metadata: CameraMetadata, shape: tuple[int, int, int]) -> dict:
    # the range as integers, so it stays written as [0, 1]
    return encode(MeasXyzHeader(capture_id, metadata, (0, 1), *shape))


def save_meas_xyz(image: MeasXyzImage, stem: Path) -> None:
    """Write the image as a float32 plane pair (<stem>.f32 + <stem>.json)."""
    formats.write_plane(stem, image.data, _plane_header(image.capture_id, image.metadata, image.data.shape))


def write_meas_xyz(capture: RawCapture, stem: Path) -> None:
    """Write the plane pair ``save_meas_xyz(meas_xyz_transform(capture), stem)``
    writes, holding a stripe of the image and not the whole frame.

    Each stripe's float32 rows are appended to <stem>.f32 once the stripe
    passes the image's range check; <stem>.json follows the last row.
    """
    shape = capture.mosaic.shape + (3,)
    with formats.open_plane(stem, shape, _plane_header(capture.capture_id, capture.metadata, shape)) as append:
        def checked_append(rows: slice, xyz: np.ndarray) -> None:
            _check_unit_range(xyz, "MeasXyzImage data")
            append(xyz)

        _meas_xyz_pass(capture, checked_append)


def load_meas_xyz(stem: Path, header: MeasXyzHeader | None = None) -> MeasXyzImage:
    """The image saved at ``stem``; ``header`` is its ``read_meas_xyz_header`` result
    when the caller has read it already, so the header is not read again."""
    if header is None:
        header = read_meas_xyz_header(stem)
    return _adopt(MeasXyzImage, data=formats.read_plane(stem, header.shape), capture_id=header.capture_id,
                  metadata=header.metadata)
