"""Inverse rendering and the unrecoverable residual.

Rendering with exposure gain e clips every linear value above 1, so the best
possible inverse recovers at most 1/e on clipped channels; the residual map
and its statistics quantify exactly that loss, separated from quantization
noise by a threshold tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .errors import DomainError, ShapeMismatch
from .isp import (
    IDENTITY,
    RenderedRgb,
    RenderParams,
    _lookup_buffers,
    _render_pass,
    _stripe_shape,
    srgb_eotf,
)
from .measxyz import MeasXyzImage, _apply_matrix, _workspace
from .records import DEFAULT_BINS, DEFAULT_TAU, LostSignalSummary, ResidualHeader, _adopt, encode


@dataclass(frozen=True)
class LostSignalReport:
    """Per-pixel luminance residual plus summary statistics.

    ``histogram`` rows are (bin_lo, bin_hi, count) over the residual with
    equal-width bins on [0, max residual]; counts sum to the pixel count.
    A zero-residual image degenerates to a single (0, 0, N) bin.
    """

    residual_map: np.ndarray
    lost_mask: np.ndarray
    clipped_fraction: float
    p99_original: float
    p99_recovered: float
    histogram: tuple[tuple[float, float, int], ...]
    tau: float
    capture_id: str = ""
    exposure_gain: float = 1.0
    bits: int = 8

    def __post_init__(self):
        # Copies, so the report is independent of the caller's arrays.
        object.__setattr__(self, "residual_map", np.array(self.residual_map, dtype=np.float64))
        object.__setattr__(self, "lost_mask", np.array(self.lost_mask, dtype=bool))
        self._freeze()

    def _freeze(self) -> None:
        residual, mask = self.residual_map, self.lost_mask
        if residual.ndim != 2 or residual.shape != mask.shape:
            raise ShapeMismatch("residual_map and lost_mask must be (H, W) arrays of one shape")
        if not 0.0 <= self.clipped_fraction <= 1.0:
            raise DomainError(f"clipped_fraction outside [0, 1]: {self.clipped_fraction}")
        if sum(count for _, _, count in self.histogram) != residual.size:
            raise DomainError("histogram counts must sum to the pixel count")
        residual.setflags(write=False)
        mask.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _dequantize_table(bits: int, transfer: str) -> np.ndarray:
    """Linear value of each code: transfer^-1(code / (2^bits - 1))."""
    encoded = np.arange(1 << bits, dtype=np.float64) / ((1 << bits) - 1)
    table = srgb_eotf(encoded) if transfer != IDENTITY else encoded
    table.setflags(write=False)
    return table


def invert_render(rendered: RenderedRgb) -> np.ndarray:
    """Best-effort inverse of render_proxy; values may leave [0, 1].

    Dequantize, invert the transfer, undo the color matrix, divide by the
    exposure gain. Clipping is the one stage with no inverse, so recovered
    values floor out at 1/gain wherever the forward pass clipped.
    """
    params = rendered.params
    if params.quantize:
        linear = _dequantize_table(params.bit_depth, params.transfer)[rendered.codes]
    else:
        encoded = rendered.codes.astype(np.float64)
        linear = srgb_eotf(encoded) if params.transfer != IDENTITY else encoded
    xyz = np.empty(linear.shape)
    _apply_matrix(np.linalg.inv(params.matrix), np.moveaxis(linear, -1, 0), np.moveaxis(xyz, -1, 0),
                  np.empty((2,) + linear.shape[:-1]))
    xyz /= params.exposure_gain
    return xyz


def nearest_rank_percentile(values: np.ndarray, percent: float) -> float:
    """Nearest-rank percentile (no interpolation) for cross-platform stability."""
    values = np.asarray(values)
    # one copy, partitioned in place; float32 stays float32, as widening is
    # exact and keeps the order
    return _partitioned_rank(np.array(values, dtype=np.float32 if values.dtype == np.float32 else np.float64),
                             percent)


def _partitioned_rank(values: np.ndarray, percent: float) -> float:
    """``nearest_rank_percentile`` of a C-contiguous float array, which it reorders."""
    flat = values.reshape(-1)
    if flat.size == 0:
        raise DomainError("percentile of empty array")
    rank = max(1, int(np.ceil(percent / 100.0 * flat.size)))
    flat.partition(rank - 1)
    return float(flat[rank - 1])


# Residual values binned per pass: the index buffer is 512 KiB, whatever the frame.
_HISTOGRAM_BLOCK = 1 << 16


def residual_histogram(residual: np.ndarray, bins: int) -> tuple[tuple[float, float, int], ...]:
    flat = np.asarray(residual, dtype=np.float64).reshape(-1)
    top = float(flat.max()) if flat.size else 0.0
    if top == 0.0:
        return ((0.0, 0.0, int(flat.size)),)
    width = top / bins
    # one index buffer for every block; the quotient is cast into it by
    # truncation toward zero, as astype(np.int64) casts
    index = np.empty(min(flat.size, _HISTOGRAM_BLOCK), dtype=np.int64)
    counts = np.zeros(bins, dtype=np.int64)
    for start in range(0, flat.size, _HISTOGRAM_BLOCK):
        block = flat[start:start + _HISTOGRAM_BLOCK]
        idx = index[:block.size]
        np.divide(block, width, out=idx, casting="unsafe")
        np.minimum(idx, bins - 1, out=idx)
        counts += np.bincount(idx, minlength=bins)
    return tuple(
        (float(i * width), float((i + 1) * width), int(counts[i])) for i in range(bins)
    )


def lost_signal_residual(
    z: MeasXyzImage,
    recovered: np.ndarray,
    forward_clip_mask: np.ndarray,
    tau: float = DEFAULT_TAU,
    bins: int = DEFAULT_BINS,
    *,
    capture_id: str | None = None,
    exposure_gain: float = 1.0,
    bits: int = 8,
) -> LostSignalReport:
    """Compare the original observation with its recovery after rendering."""
    recovered = np.asarray(recovered)
    if recovered.shape != z.data.shape:
        raise ShapeMismatch(
            f"recovered shape {recovered.shape} != original {z.data.shape}"
        )
    forward_clip_mask = np.asarray(forward_clip_mask, dtype=bool)
    if forward_clip_mask.shape != z.data.shape[:2]:
        raise ShapeMismatch("clip mask shape does not match the image")
    # Y is the second XYZ channel, widened alone; the report reorders this copy of it
    y_rec = np.array(recovered[..., 1], dtype=np.float64, order="C")
    return _luminance_report(z, y_rec, forward_clip_mask, tau, bins,
                             capture_id=capture_id, exposure_gain=exposure_gain, bits=bits)


def _luminance_report(
    z: MeasXyzImage,
    y_rec: np.ndarray,
    forward_clip_mask: np.ndarray,
    tau: float,
    bins: int,
    *,
    capture_id: str | None,
    exposure_gain: float,
    bits: int,
) -> LostSignalReport:
    """The report from the recovered luminance and the forward clip mask.

    The caller gives up ``y_rec``, a C-contiguous float64 array: its
    percentile reorders it in place once the residual is taken, and it is
    dropped before Y's percentile makes its copy.
    """
    if not tau > 0:  # so NaN fails
        raise DomainError("tau must be > 0")
    if not bins >= 2:
        raise DomainError("bins must be >= 2")

    y_orig = z.data[..., 1]  # the stored Y, widened by the subtraction alone
    residual = np.subtract(y_orig, y_rec, dtype=np.float64)
    np.abs(residual, out=residual)
    p99_recovered = _partitioned_rank(y_rec, 99.0)
    del y_rec
    return _adopt(
        LostSignalReport,
        residual_map=residual,
        lost_mask=residual > tau,
        clipped_fraction=float(np.count_nonzero(forward_clip_mask)) / forward_clip_mask.size,
        p99_original=nearest_rank_percentile(y_orig, 99.0),
        p99_recovered=p99_recovered,
        histogram=residual_histogram(residual, bins),
        tau=float(tau),
        capture_id=capture_id if capture_id is not None else z.capture_id,
        exposure_gain=float(exposure_gain),
        bits=int(bits),
    )


def _recovered_luminance(z: MeasXyzImage, params: RenderParams) -> tuple[np.ndarray, np.ndarray]:
    """Y of ``invert_render(render_proxy(z, params))`` and the (H, W) mask of
    pixels whose pre-clip linear RGB exceeds 1 in any channel, bit for bit,
    from a sink of the render's one pass, whose buffers come from the
    thread's workspace.

    Only the Y row of the inverse is computed, by the kernel invert_render
    uses, then divided by the gain.
    """
    y_row = np.linalg.inv(params.matrix)[1:2]
    table = _dequantize_table(params.bit_depth, params.transfer) if params.quantize else None
    y_rec = np.empty(z.data.shape[:2])
    clipped = np.empty(z.data.shape[:2], dtype=bool)
    shape = _stripe_shape(z)
    workspace = _workspace()
    over = workspace.take("clip flags", shape[:2], bool)
    # the render's lookup buffers are free while the sink runs: the dequantized
    # R, G, B planes take its product buffer, their codes as indices its index
    # buffer, and _apply_matrix's sums its step buffer
    products, steps, indices, _ = _lookup_buffers(workspace, math.prod(shape))
    planes = products.reshape((3,) + shape[:2])
    sums = steps[:2 * shape[0] * shape[1]].reshape((2,) + shape[:2])

    def invert(rows, encoded, v, e):
        count = v.shape[0]
        top = np.ldexp(1.0, -e)  # 2^e * v > 1
        mask = clipped[rows]
        np.greater(v[..., 0], top, out=mask)
        for c in (1, 2):
            mask |= np.greater(v[..., c], top, out=over[:count])
        if table is not None:
            linear = planes[:, :count]
            # np.take would convert each channel's codes into a fresh intp array
            index = indices[:v.size // 3].reshape(v.shape[:2])
            for c in range(3):
                np.copyto(index, encoded[..., c])
                np.take(table, index, out=linear[c], mode="clip")
        else:
            linear = np.moveaxis(srgb_eotf(encoded) if params.transfer != IDENTITY else encoded, -1, 0)
        y = y_rec[rows]
        _apply_matrix(y_row, linear, y[np.newaxis], sums[:, :count])
        y /= params.exposure_gain

    _render_pass(z, [params], [invert])
    return y_rec, clipped


def analyze_render(
    z: MeasXyzImage, params: RenderParams, tau: float = DEFAULT_TAU, bins: int = DEFAULT_BINS,
) -> LostSignalReport:
    """Render, invert, and measure the residual, the render and inverse in one
    pass over row stripes."""
    y_rec, clipped = _recovered_luminance(z, params)
    return _luminance_report(z, y_rec, clipped, tau, bins, capture_id=None,
                             exposure_gain=params.exposure_gain, bits=params.bit_depth)


def emit_report(report: LostSignalReport, out_dir: Path) -> None:
    """Materialize the report: residual plane, mask PGM, histogram CSV, summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report.capture_id or "report"
    residual = report.residual_map
    # the range starts at an integer 0, so it stays written as 0
    header = ResidualHeader(report.capture_id, (0, float(residual.max()) if residual.size else 0.0),
                            *residual.shape, 1)
    formats.write_plane(out_dir / f"{name}_residual", residual, encode(header))
    formats.write_pnm(out_dir / f"{name}_lost_mask.pgm", report.lost_mask.view(np.uint8) * 255, 255)
    lines = ["bin_lo,bin_hi,count"]
    lines += [f"{lo!r},{hi!r},{count}" for lo, hi, count in report.histogram]
    formats.write_text(out_dir / f"{name}_histogram.csv", "\n".join(lines) + "\n")
    summary = LostSignalSummary(report.capture_id, report.exposure_gain, report.clipped_fraction,
                                report.p99_original, report.p99_recovered, report.tau, report.bits)
    formats.write_json(out_dir / f"{name}_summary.json", encode(summary))
