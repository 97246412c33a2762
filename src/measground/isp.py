"""Exposure-conditioned proxy renderer: gain, color matrix, clip, transfer,
quantization. The render path is deliberately minimal so it can be inverted
analytically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .errors import DomainError, EmptyBracket, IoFailure
from .measxyz import _STRIPE_PIXELS, MeasXyzImage, _apply_matrix, _StripeWorkspace
# The render parameters and their header reader live in records, without numpy.
from .records import (
    DEFAULT_BRACKET,
    IDENTITY,
    SRGB_PIECEWISE,
    XYZ_TO_LINEAR_SRGB_D65,
    RenderParams,
    _RenderHeader,
    encode,
)

# Standard sRGB transfer constants (piecewise definition).
SRGB_LINEAR_THRESHOLD = 0.0031308
SRGB_ENCODED_THRESHOLD = 0.04045
SRGB_LINEAR_SLOPE = 12.92
SRGB_GAMMA = 2.4
SRGB_A = 0.055


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

    @classmethod
    def _adopt(cls, codes: np.ndarray, params: RenderParams, capture_id: str) -> "RenderedRgb":
        """A render over codes the render pass made and no one else holds:
        in range by construction, so frozen without a copy or a check."""
        rendered = object.__new__(cls)
        codes.setflags(write=False)
        object.__setattr__(rendered, "codes", codes)
        object.__setattr__(rendered, "params", params)
        object.__setattr__(rendered, "capture_id", capture_id)
        return rendered


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


def _lookup_buffers(workspace: _StripeWorkspace, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float, index and flag temporaries of _table_codes for ``size`` values."""
    return (workspace.take("lookup values", (size,)), workspace.take("lookup indices", (size,), np.intp),
            workspace.take("lookup flags", (size,), bool))


def _table_codes(v: np.ndarray, k: int, bits: int, transfer: str, out: np.ndarray,
                 buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
    """Write quantize(transfer(clip(2^k * v))) into ``out`` through the exact threshold table.

    ``out`` is a contiguous uint16 array of ``v``'s shape, and ``buffers``
    come from _lookup_buffers of at least ``v.size``. The scaling goes into
    the bucket index, v * 2^(shift + k), and into the comparison,
    v >= step * 2^-k, which is exact for thresholds in [2^-21, 1] and
    |k| <= 64. (A product with a power of two rounds as ldexp does.)
    """
    base, step = _code_table(bits, transfer)
    flat = v.reshape(-1)
    real, index, flag = (buffer[:flat.size] for buffer in buffers)
    if np.isnan(flat, out=flag).any():
        raise DomainError("value outside [0, 1]")
    np.multiply(flat, 2.0 ** (bits + _BUCKET_EXTRA_BITS + k), out=real)
    np.clip(real, 0, base.size - 1, out=real)
    np.copyto(index, real, casting="unsafe")  # truncates, as astype does
    codes = out.reshape(-1)
    # the indices are in range; mode="clip" only skips the bounds check
    np.take(base, index, out=codes, mode="clip")
    np.take(step, index, out=real, mode="clip")
    if k:
        np.multiply(real, 2.0 ** -k, out=real)
    np.greater_equal(flat, real, out=flag)
    codes += flag


# A quantized gain 2^k, k in this range, reads its codes from the stripe's
# gain-1 product v: for matrix entries below _SHARED_MATRIX_BOUND no product
# or sum can overflow, so 2^k * v is the product at gain 2^k bit for bit
# except where underflow touches values far below the first code threshold.
_SHARED_EXPONENTS = range(-64, 65)
_SHARED_MATRIX_BOUND = 2.0 ** 900


def _shared_exponent(params: RenderParams) -> int | None:
    """k when ``params``' codes can be read from the gain-1 product as 2^k * v."""
    mantissa, exponent = math.frexp(params.exposure_gain)
    if (params.quantize and mantissa == 0.5 and exponent - 1 in _SHARED_EXPONENTS
            and max(abs(m) for row in params.xyz_to_linear_srgb for m in row) < _SHARED_MATRIX_BOUND):
        return exponent - 1
    return None


def _stripe_shape(z: MeasXyzImage) -> tuple[int, int, int]:
    """The shape of ``z``'s row stripes: as many rows as hold about _STRIPE_PIXELS pixels."""
    height, width = z.data.shape[:2]
    return min(max(1, _STRIPE_PIXELS // max(1, width)), height), width, 3


def _linear_stripes(z: MeasXyzImage, params_seq, scratch: np.ndarray, workspace: _StripeWorkspace):
    """Yield (rows, i, v, k) per row stripe of ``z`` and params_seq[i]: 2^k * v
    is the stripe's pre-clip linear RGB at that gain, matrix @ (gain * xyz).

    ``scratch`` is a float64 buffer of two stripe planes for _apply_matrix,
    which the caller may use between yields.

    Power-of-two quantized gains share one gain-1 product; any other render
    takes the formula on the stripe. Each stripe is first copied into float64
    X, Y and Z planes, which widens a float32 plane and lets the matrix read
    contiguous planes. ``v`` lives in a buffer the next stripe overwrites,
    and every stripe buffer comes from ``workspace``: a caller that holds one
    across captures allocates them once, not on every capture.
    """
    exponents = [_shared_exponent(params) for params in params_seq]
    shape = _stripe_shape(z)
    planes = workspace.take("xyz planes", (3,) + shape[:2])  # the stripe's X, Y and Z
    product = workspace.take("gain-1 product", shape)
    scratch = scratch[:2 * shape[0] * shape[1]].reshape((2,) + shape[:2])
    if None in exponents:
        # matrix @ (gain * xyz), gain * xyz
        formula, scaled = workspace.take("formula", shape), workspace.take("scaled planes", planes.shape)
    for top in range(0, z.data.shape[0], max(1, shape[0])):
        rows = slice(top, top + shape[0])
        block = z.data[rows]
        count = block.shape[0]
        xyz = planes[:, :count]
        np.copyto(xyz, np.moveaxis(block, -1, 0))
        shared = None  # the matrix whose gain-1 product ``product`` holds
        for i, (params, k) in enumerate(zip(params_seq, exponents)):
            if k is None:
                np.multiply(params.exposure_gain, xyz, out=scaled[:, :count])
                _apply_matrix(params.matrix, scaled[:, :count], np.moveaxis(formula[:count], -1, 0),
                              scratch[:, :count])
                yield rows, i, formula[:count], 0
                continue
            if shared != params.xyz_to_linear_srgb:
                _apply_matrix(params.matrix, xyz, np.moveaxis(product[:count], -1, 0), scratch[:, :count])
                shared = params.xyz_to_linear_srgb
            yield rows, i, product[:count], k


def _stripe_codes(v: np.ndarray, k: int, params: RenderParams, out: np.ndarray, lookup) -> None:
    """Write the render of pre-clip linear RGB 2^k * v into the contiguous ``out``."""
    if params.quantize:
        _table_codes(v, k, params.bit_depth, params.transfer, out, lookup)
        return
    encoded = np.clip(v, 0.0, 1.0)  # k is 0 off the shared path
    out[...] = srgb_oetf(encoded) if params.transfer == SRGB_PIECEWISE else encoded


def _code_dtype(params: RenderParams):
    return np.uint16 if params.quantize else np.float64


def _render_pass(z: MeasXyzImage, params_seq, workspace: _StripeWorkspace) -> list[RenderedRgb]:
    """Render ``z`` under every params in one pass over its row stripes."""
    outs = [np.empty(z.data.shape, dtype=_code_dtype(params)) for params in params_seq]
    lookup = _lookup_buffers(workspace, math.prod(_stripe_shape(z)))
    # the lookup's float buffer is free while a stripe's product is computed
    for rows, i, v, k in _linear_stripes(z, params_seq, lookup[0], workspace):
        _stripe_codes(v, k, params_seq[i], outs[i][rows], lookup)
    return [RenderedRgb._adopt(out, params, z.capture_id) for out, params in zip(outs, params_seq)]


def render_proxy(z: MeasXyzImage, params: RenderParams) -> RenderedRgb:
    return _render_pass(z, [params], _StripeWorkspace())[0]


def make_bracket(z: MeasXyzImage, exposures=DEFAULT_BRACKET, *, workspace: _StripeWorkspace | None = None,
                 **param_overrides) -> list[RenderedRgb]:
    """Render one proxy per exposure gain, in the order given, in one pass.

    The stripe buffers come from ``workspace``, or from one made for this
    call when it is None.
    """
    exposures = list(exposures)
    if not exposures:
        raise EmptyBracket("exposure list must be non-empty")
    return _render_pass(z, [RenderParams(exposure_gain=e, **param_overrides) for e in exposures],
                        _StripeWorkspace() if workspace is None else workspace)


# --- PPM export --------------------------------------------------------------------

def save_rendered(rendered: RenderedRgb, stem: Path) -> None:
    """Write quantized output as <stem>.ppm plus a <stem>.json params header."""
    if not rendered.params.quantize:
        raise IoFailure("only quantized renders can be exported as PPM")
    formats.write_ppm(Path(str(stem) + ".ppm"), rendered.codes, rendered.params.max_code)
    header = _RenderHeader(rendered.capture_id, rendered.params)
    formats.write_json(Path(str(stem) + ".json"), encode(header))
