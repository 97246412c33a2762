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
    _code_dtype,
    _linear_stripes,
    _lookup_buffers,
    _stripe_codes,
    _stripe_shape,
    srgb_eotf,
)
from .measxyz import MeasXyzImage
from .records import DEFAULT_TAU


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
        residual = np.array(self.residual_map, dtype=np.float64)
        mask = np.array(self.lost_mask, dtype=bool)
        if residual.shape != mask.shape:
            raise ShapeMismatch("residual_map and lost_mask shapes differ")
        if not 0.0 <= self.clipped_fraction <= 1.0:
            raise DomainError(f"clipped_fraction outside [0, 1]: {self.clipped_fraction}")
        if sum(count for _, _, count in self.histogram) != residual.size:
            raise DomainError("histogram counts must sum to the pixel count")
        residual.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "residual_map", residual)
        object.__setattr__(self, "lost_mask", mask)

    def summary_dict(self) -> dict:
        return {
            "capture_id": self.capture_id,
            "exposure_gain": self.exposure_gain,
            "clipped_fraction": self.clipped_fraction,
            "p99_original": self.p99_original,
            "p99_recovered": self.p99_recovered,
            "tau": self.tau,
            "bits": self.bits,
        }


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
    inverse = np.linalg.inv(params.matrix)
    xyz = np.einsum("ij,hwj->hwi", inverse, linear)
    xyz /= params.exposure_gain
    return xyz


def luminance(xyz: np.ndarray) -> np.ndarray:
    """Y is the second XYZ channel."""
    return np.asarray(xyz, dtype=np.float64)[..., 1]


def nearest_rank_percentile(values: np.ndarray, percent: float) -> float:
    """Nearest-rank percentile (no interpolation) for cross-platform stability."""
    flat = np.array(values, dtype=np.float64).ravel()  # one copy, partitioned in place
    if flat.size == 0:
        raise DomainError("percentile of empty array")
    rank = max(1, int(np.ceil(percent / 100.0 * flat.size)))
    flat.partition(rank - 1)
    return float(flat[rank - 1])


def residual_histogram(residual: np.ndarray, bins: int) -> tuple[tuple[float, float, int], ...]:
    flat = np.asarray(residual, dtype=np.float64).ravel()
    top = float(flat.max()) if flat.size else 0.0
    if top == 0.0:
        return ((0.0, 0.0, int(flat.size)),)
    width = top / bins
    idx = np.minimum((flat / width).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return tuple(
        (float(i * width), float((i + 1) * width), int(counts[i])) for i in range(bins)
    )


def lost_signal_residual(
    z: MeasXyzImage,
    recovered: np.ndarray,
    forward_clip_mask: np.ndarray,
    tau: float = DEFAULT_TAU,
    bins: int = 32,
    *,
    capture_id: str | None = None,
    exposure_gain: float = 1.0,
    bits: int = 8,
) -> LostSignalReport:
    """Compare the original observation with its recovery after rendering."""
    recovered = np.asarray(recovered, dtype=np.float64)
    if recovered.shape != z.data.shape:
        raise ShapeMismatch(
            f"recovered shape {recovered.shape} != original {z.data.shape}"
        )
    forward_clip_mask = np.asarray(forward_clip_mask, dtype=bool)
    if forward_clip_mask.shape != z.data.shape[:2]:
        raise ShapeMismatch("clip mask shape does not match the image")
    return _luminance_report(z, luminance(recovered), forward_clip_mask, tau, bins,
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
    """The report from the recovered luminance and the forward clip mask."""
    if tau <= 0:
        raise DomainError("tau must be > 0")
    if bins < 2:
        raise DomainError("bins must be >= 2")

    y_orig = luminance(z.data)
    residual = np.subtract(y_orig, y_rec)
    np.abs(residual, out=residual)
    return LostSignalReport(
        residual_map=residual,
        lost_mask=residual > tau,
        clipped_fraction=float(np.count_nonzero(forward_clip_mask)) / forward_clip_mask.size,
        p99_original=nearest_rank_percentile(y_orig, 99.0),
        p99_recovered=nearest_rank_percentile(y_rec, 99.0),
        histogram=residual_histogram(residual, bins),
        tau=float(tau),
        capture_id=capture_id if capture_id is not None else z.capture_id,
        exposure_gain=float(exposure_gain),
        bits=int(bits),
    )


def _recovered_luminance(z: MeasXyzImage, params: RenderParams) -> tuple[np.ndarray, np.ndarray]:
    """Y of ``invert_render(render_proxy(z, params))`` and ``clip_mask(z, params)``,
    bit for bit, in one pass over row stripes.

    Only the Y row of the inverse is computed, in einsum's summation order:
    (p0 m0 + p2 m2) + p1 m1, then divided by the gain.
    """
    y_row = np.linalg.inv(params.matrix)[1]
    table = _dequantize_table(params.bit_depth, params.transfer) if params.quantize else None
    y_rec = np.empty(z.data.shape[:2])
    clipped = np.empty(z.data.shape[:2], dtype=bool)
    shape = _stripe_shape(z)
    lookup = _lookup_buffers(math.prod(shape))
    codes = np.empty(shape, dtype=_code_dtype(params))
    # the dequantized R, G, B planes share the lookup's float buffer, which
    # is free once a stripe's codes are written
    planes = lookup[0].reshape((3,) + shape[:2])
    for rows, _, v, k in _linear_stripes(z, [params]):
        count = v.shape[0]
        top = np.ldexp(1.0, -k)  # 2^k * v > 1
        mask = clipped[rows]
        np.greater(v[..., 0], top, out=mask)
        mask |= v[..., 1] > top
        mask |= v[..., 2] > top
        encoded = codes[:count]
        _stripe_codes(v, k, params, encoded, lookup)
        if table is not None:
            linear = planes[:, :count]
            for c in range(3):
                np.take(table, encoded[..., c], out=linear[c], mode="clip")
        else:
            linear = np.moveaxis(srgb_eotf(encoded) if params.transfer != IDENTITY else encoded, -1, 0)
        y = y_rec[rows]
        np.multiply(linear[0], y_row[0], out=y)
        y += np.multiply(linear[2], y_row[2], out=linear[2])
        y += np.multiply(linear[1], y_row[1], out=linear[1])
        y /= params.exposure_gain
    return y_rec, clipped


def analyze_render(
    z: MeasXyzImage, params: RenderParams, tau: float = DEFAULT_TAU, bins: int = 32
) -> LostSignalReport:
    """Render, invert, and measure the residual, the render and inverse in one
    pass over row stripes whose buffers are gone before the report is built."""
    y_rec, clipped = _recovered_luminance(z, params)
    return _luminance_report(z, y_rec, clipped, tau, bins, capture_id=None,
                             exposure_gain=params.exposure_gain, bits=params.bit_depth)


def emit_report(report: LostSignalReport, out_dir: Path) -> None:
    """Materialize the report: residual plane, mask PGM, histogram CSV, summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report.capture_id or "report"
    formats.write_plane(
        out_dir / f"{name}_residual",
        report.residual_map,
        {"capture_id": report.capture_id, "range": [0, float(report.residual_map.max()) if report.residual_map.size else 0.0]},
    )
    formats.write_pgm8(out_dir / f"{name}_lost_mask.pgm", report.lost_mask.astype(np.uint8) * 255)
    lines = ["bin_lo,bin_hi,count"]
    lines += [f"{lo!r},{hi!r},{count}" for lo, hi, count in report.histogram]
    (out_dir / f"{name}_histogram.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    formats.write_json(out_dir / f"{name}_summary.json", report.summary_dict())
