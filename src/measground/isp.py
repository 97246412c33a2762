"""Exposure-conditioned proxy renderer: gain, color matrix, clip, transfer,
quantization. The render path is deliberately minimal so it can be inverted
analytically; companion helpers expose the clip mask the loss analysis needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .errors import DomainError, EmptyBracket, IoFailure, SchemaViolation, SingularMatrix
from .measxyz import MeasXyzImage

SRGB_PIECEWISE = "SRGB_PIECEWISE"
IDENTITY = "IDENTITY"

# Standard sRGB transfer constants (piecewise definition).
SRGB_LINEAR_THRESHOLD = 0.0031308
SRGB_ENCODED_THRESHOLD = 0.04045
SRGB_LINEAR_SLOPE = 12.92
SRGB_GAMMA = 2.4
SRGB_A = 0.055

# XYZ (D65) -> linear sRGB, standard constants to 7 decimals.
XYZ_TO_LINEAR_SRGB_D65 = (
    (3.2404542, -1.5371385, -0.4985314),
    (-0.9692660, 1.8760108, 0.0415560),
    (0.0556434, -0.2040259, 1.0572252),
)


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
        matrix = np.asarray(self.xyz_to_linear_srgb, dtype=np.float64)
        if matrix.shape != (3, 3) or not np.all(np.isfinite(matrix)):
            raise SingularMatrix("xyz_to_linear_srgb must be a finite 3x3 matrix")
        if abs(np.linalg.det(matrix)) <= 1e-12:
            raise SingularMatrix("xyz_to_linear_srgb is singular")
        object.__setattr__(
            self, "xyz_to_linear_srgb", tuple(tuple(float(v) for v in row) for row in matrix)
        )

    @property
    def matrix(self) -> np.ndarray:
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
            xyz_to_linear_srgb=tuple(tuple(row) for row in obj.get("xyz_to_linear_srgb", XYZ_TO_LINEAR_SRGB_D65)),
            transfer=obj.get("transfer", SRGB_PIECEWISE),
            quantize=obj.get("quantize", True),
        )


@dataclass(frozen=True)
class RenderedRgb:
    """Render output: integer codes when quantized, floats in [0, 1] otherwise."""

    codes: np.ndarray
    params: RenderParams
    capture_id: str

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 3 or codes.shape[2] != 3:
            raise DomainError(f"codes must be (H, W, 3), got {codes.shape}")
        if self.params.quantize:
            codes = codes.astype(np.uint16)
            if codes.size and codes.max() > self.params.max_code:
                raise DomainError("quantized codes exceed 2^bit_depth - 1")
        else:
            codes = codes.astype(np.float64)
            if codes.size and (codes.min() < 0.0 or codes.max() > 1.0):
                raise DomainError("unquantized codes must lie in [0, 1]")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)


def _check_unit_domain(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)) or (v.size and (v.min() < 0.0 or v.max() > 1.0)):
        raise DomainError("value outside [0, 1]")
    return v


def srgb_oetf(v):
    """Linear [0,1] -> encoded [0,1], standard sRGB piecewise curve.

    The top endpoint is pinned so oetf(1.0) == 1.0 exactly (the float64
    evaluation of 1.055 - 0.055 falls one ulp short).
    """
    arr = _check_unit_domain(v)
    out = np.where(
        arr <= SRGB_LINEAR_THRESHOLD,
        SRGB_LINEAR_SLOPE * arr,
        (1 + SRGB_A) * np.power(arr, 1.0 / SRGB_GAMMA) - SRGB_A,
    )
    out = np.where(arr >= 1.0, 1.0, out)
    if np.isscalar(v) or np.ndim(v) == 0:
        return float(out)
    return out


def srgb_eotf(u):
    """Encoded [0,1] -> linear [0,1], inverse of srgb_oetf."""
    arr = _check_unit_domain(u)
    out = np.where(
        arr <= SRGB_ENCODED_THRESHOLD,
        arr / SRGB_LINEAR_SLOPE,
        np.power((arr + SRGB_A) / (1 + SRGB_A), SRGB_GAMMA),
    )
    out = np.where(arr >= 1.0, 1.0, out)
    if np.isscalar(u) or np.ndim(u) == 0:
        return float(out)
    return out


def quantize(v, bits: int):
    """Encoded [0,1] -> integer codes, round half away from zero."""
    if not (1 <= bits <= 16):
        raise DomainError(f"bits must be in [1, 16], got {bits}")
    arr = _check_unit_domain(v)
    codes = np.floor(arr * ((1 << bits) - 1) + 0.5).astype(np.uint16)
    if np.isscalar(v) or np.ndim(v) == 0:
        return int(codes)
    return codes


def linear_rgb(z: MeasXyzImage, params: RenderParams) -> np.ndarray:
    """Pre-clip linear RGB of the render: matrix @ (gain * xyz)."""
    return np.einsum("ij,hwj->hwi", params.matrix, params.exposure_gain * z.data)


def clip_mask(z: MeasXyzImage, params: RenderParams) -> np.ndarray:
    """(H, W) mask of pixels with any channel clipped at the top (value > 1)."""
    return top_clipped(linear_rgb(z, params))


def top_clipped(rgb: np.ndarray) -> np.ndarray:
    """(H, W) mask of linear RGB pixels with any channel above 1."""
    return np.any(rgb > 1.0, axis=-1)


# Code-table buckets are 2^-(bits + 5) wide. sRGB's steepest slope is 12.92,
# so adjacent thresholds lie at least 1 / (12.92 * (2^bits - 1)) apart, more
# than one bucket.
_BUCKET_EXTRA_BITS = 5


@functools.lru_cache(maxsize=None)
def _code_thresholds(bits: int, transfer: str) -> np.ndarray:
    """t[c - 1] is the smallest float64 v with quantize(transfer(v), bits) >= c.

    Found for c = 1 .. 2^bits - 1 at once by bisection over the bit patterns
    of float64 in [0, 1], which sort like their values.
    """
    targets = np.arange(1, 1 << bits, dtype=np.int64)
    lo = np.zeros(targets.size, dtype=np.int64)  # code(0.0) == 0 < c
    hi = np.full(targets.size, np.float64(1.0).view(np.int64))  # code(1.0) == max >= c
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        v = mid.view(np.float64)
        encoded = srgb_oetf(v) if transfer == SRGB_PIECEWISE else v
        reached = quantize(encoded, bits) >= targets
        hi = np.where(reached, mid, hi)
        lo = np.where(reached, lo, mid)
    thresholds = hi.view(np.float64)
    thresholds.setflags(write=False)
    return thresholds


@functools.lru_cache(maxsize=None)
def _code_table(bits: int, transfer: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-bucket (base code, threshold): code(v) = base[b] + (v >= step[b]).

    Bucket b covers [b, b + 1) * 2^-(bits + 5); the last bucket also takes
    1.0, and values outside [0, 1] fall in the end buckets.
    """
    shift = bits + _BUCKET_EXTRA_BITS
    thresholds = _code_thresholds(bits, transfer)
    buckets = np.minimum(np.ldexp(thresholds, shift).astype(np.int64), (1 << shift) - 1)
    if np.any(np.diff(buckets) == 0):
        raise RuntimeError(f"two code thresholds share a bucket (bits={bits}, {transfer})")
    base = np.searchsorted(buckets, np.arange(1 << shift), side="left").astype(np.uint16)
    step = np.full(1 << shift, np.nan)  # nothing compares >= NaN, not even inf
    step[buckets] = thresholds
    base.setflags(write=False)
    step.setflags(write=False)
    return base, step


# Elements per pass of the table lookup: a pass's temporaries stay in cache
# and peak memory stays at the output codes.
_LOOKUP_CHUNK = 1 << 16


def _table_codes(rgb: np.ndarray, bits: int, transfer: str) -> np.ndarray:
    """quantize(transfer(clip(rgb))) through the exact threshold table."""
    base, step = _code_table(bits, transfer)
    shift = bits + _BUCKET_EXTRA_BITS
    flat = np.ascontiguousarray(rgb).reshape(-1)
    codes = np.empty(flat.size, dtype=np.uint16)
    for start in range(0, flat.size, _LOOKUP_CHUNK):
        v = flat[start:start + _LOOKUP_CHUNK]
        if np.isnan(v).any():
            raise DomainError("value outside [0, 1]")
        index = np.ldexp(v, shift)
        np.clip(index, 0, base.size - 1, out=index)
        index = index.astype(np.intp)
        out = codes[start:start + _LOOKUP_CHUNK]
        np.take(base, index, out=out)
        out += v >= np.take(step, index)
    return codes.reshape(rgb.shape)


def render_linear(rgb: np.ndarray, params: RenderParams, capture_id: str) -> RenderedRgb:
    """Render pre-clip linear RGB (``linear_rgb``'s output) to a proxy."""
    if params.quantize:
        codes = _table_codes(rgb, params.bit_depth, params.transfer)
    else:
        codes = np.clip(rgb, 0.0, 1.0)
        if params.transfer == SRGB_PIECEWISE:
            codes = srgb_oetf(codes)
    return RenderedRgb(codes=codes, params=params, capture_id=capture_id)


def render_proxy(z: MeasXyzImage, params: RenderParams) -> RenderedRgb:
    return render_linear(linear_rgb(z, params), params, z.capture_id)


DEFAULT_BRACKET = (0.5, 1.0, 2.0, 4.0)


def make_bracket(z: MeasXyzImage, exposures=DEFAULT_BRACKET, **param_overrides) -> list[RenderedRgb]:
    """Render one proxy per exposure gain, in the order given."""
    exposures = list(exposures)
    if not exposures:
        raise EmptyBracket("exposure list must be non-empty")
    return [
        render_proxy(z, RenderParams(exposure_gain=e, **param_overrides))
        for e in exposures
    ]


# --- PPM export --------------------------------------------------------------------

def save_rendered(rendered: RenderedRgb, stem: Path) -> None:
    """Write quantized output as <stem>.ppm plus a <stem>.json params header."""
    if not rendered.params.quantize:
        raise IoFailure("only quantized renders can be exported as PPM")
    formats.write_ppm(Path(str(stem) + ".ppm"), rendered.codes, rendered.params.max_code)
    formats.write_json(
        Path(str(stem) + ".json"),
        {"capture_id": rendered.capture_id, "params": rendered.params.to_dict()},
    )


def read_render_header(stem: Path) -> tuple[str, RenderParams]:
    """The capture id and render parameters from the <stem>.json header."""
    path = Path(str(stem) + ".json")
    header = formats.read_json(path)
    try:
        return header["capture_id"], RenderParams.from_dict(header["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(
            f"{path}: render header needs capture_id and params ({exc!r})"
        ) from exc


def load_rendered(stem: Path) -> RenderedRgb:
    codes, maxval = formats.read_ppm(Path(str(stem) + ".ppm"))
    capture_id, params = read_render_header(stem)
    if maxval != params.max_code:
        raise IoFailure(f"{stem}: PPM maxval {maxval} disagrees with bit_depth {params.bit_depth}")
    return RenderedRgb(codes=codes, params=params, capture_id=capture_id)
