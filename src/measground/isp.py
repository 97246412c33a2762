"""Exposure-conditioned proxy renderer: gain, color matrix, clip, transfer,
quantization. The render path is deliberately minimal so it can be inverted
analytically.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .errors import DomainError, EmptyBracket, IoFailure
from .measxyz import MeasXyzImage, _apply_matrix, _check_unit_range, _StripeWorkspace, _stripe_step, _workspace
# The render parameters and their header reader live in records, without numpy.
from .records import (
    DEFAULT_BRACKET,
    IDENTITY,
    SRGB_PIECEWISE,
    XYZ_TO_LINEAR_SRGB_D65,
    RenderHeader,
    RenderParams,
    _adopt,
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
        # A copy, so the render is independent of the caller's array, with its
        # range checked here: the render pass makes codes in range.
        if self.params.quantize:
            codes = formats.uint16_codes(self.codes, self.params.max_code, "quantized codes", DomainError)
        else:
            codes = np.array(self.codes, dtype=np.float64)
            _check_unit_range(codes, "unquantized codes")
        object.__setattr__(self, "codes", codes)
        self._freeze()

    def _freeze(self) -> None:
        """Check the codes' shape, then make them read-only."""
        if self.codes.ndim != 3 or self.codes.shape[2] != 3:
            raise DomainError(f"codes must be (H, W, 3), got {self.codes.shape}")
        self.codes.setflags(write=False)


def _check_unit_domain(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    _check_unit_range(v, "value")
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


# A window's bucket index has at most this many bits, so no window table
# holds more than 2^16 entries (640 KiB); a gain alone reads the code table.
_WINDOW_INDEX_BITS = 16


@functools.lru_cache(maxsize=None)
def _window_table(bits: int, transfer: str, offset: int, span: int) -> tuple[np.ndarray, np.ndarray]:
    """The code table of the gain ``offset`` octaves below the top of a window
    ``span`` octaves wide, indexed by the window's bucket index F. Callers
    pass all four arguments, so the cache builds each table once.

    At span 0 it is the code table proper, per bucket (base code, scaled
    threshold): with s = bits + 5, code(v) = base[b] + (v * 2^s >= step[b]).
    Bucket b covers [b, b + 1) * 2^-s; the last bucket also takes 1.0, and
    values outside [0, 1] fall in the end buckets. ``step`` holds the
    threshold in the bucket times 2^s, or NaN where none is: nothing
    compares >= NaN, not even inf.

    In a wider window the gain's own bucket is F >> offset, clamped to the
    last bucket, and its scaled thresholds take the factor 2^offset, so its
    code is base[F] + (r >= step[F]) for r = v * 2^(s + top exponent).
    """
    if span == 0:
        shift = bits + _BUCKET_EXTRA_BITS
        thresholds = _code_thresholds(bits, transfer)
        buckets = np.minimum(np.ldexp(thresholds, shift).astype(np.int64), (1 << shift) - 1)
        if np.any(np.diff(buckets) == 0):
            raise RuntimeError(f"two code thresholds share a bucket (bits={bits}, {transfer})")
        base = np.searchsorted(buckets, np.arange(1 << shift), side="left").astype(np.uint16)
        step = np.full(1 << shift, np.nan)
        step[buckets] = np.ldexp(thresholds, shift)
    else:
        base, step = _window_table(bits, transfer, 0, 0)
        buckets = np.minimum(np.arange(base.size << span) >> offset, base.size - 1)
        base, step = base[buckets], np.ldexp(step[buckets], offset)
    base.setflags(write=False)
    step.setflags(write=False)
    return base, step


def _lookup_buffers(workspace: _StripeWorkspace, size: int) -> tuple[np.ndarray, ...]:
    """The product, step, index and flag temporaries of _window_codes for ``size`` values."""
    return (workspace.take("lookup products", (size,)), workspace.take("lookup steps", (size,)),
            workspace.take("lookup indices", (size,), np.intp), workspace.take("lookup flags", (size,), bool))


def _window_codes(v: np.ndarray, window: _Window, params: RenderParams, outs, lookup) -> None:
    """Write each member's render of the stripe into the contiguous ``outs``, in
    the order of ``window.members``; ``params`` is any member's.

    2^window.k * v is the pre-clip linear RGB at the window's top gain, and
    ``lookup`` comes from _lookup_buffers of at least ``v.size``. One product
    r = v * 2^(s + k), s = bits + 5, gives every member's bucket index
    F = trunc(clip(r)) and its comparison r >= step[F]. For v >= 0,
    F >> offset is the member's own bucket floor(v * 2^(s + k - offset)),
    and the product and the scaled thresholds are exact for thresholds in
    [2^-21, 1] and k in _SHARED_EXPONENTS: a product with a power of two
    rounds as ldexp does, and one that leaves the normal range is far from
    every threshold.
    """
    if not params.quantize:  # a window of one, with k 0
        encoded = np.clip(v, 0.0, 1.0)
        outs[0][...] = srgb_oetf(encoded) if params.transfer == SRGB_PIECEWISE else encoded
        return
    flat = v.reshape(-1)
    product, step, index, flag = (buffer[:flat.size] for buffer in lookup)
    if np.isnan(flat, out=flag).any():
        raise DomainError("value outside [0, 1]")
    shift = params.bit_depth + _BUCKET_EXTRA_BITS
    np.multiply(flat, 2.0 ** (shift + window.k), out=product)
    np.clip(product, 0, 2.0 ** (shift + window.span) - 1, out=step)
    np.copyto(index, step, casting="unsafe")  # truncates, as astype does
    for offset, out in zip(window.offsets, outs):
        base, steps = _window_table(params.bit_depth, params.transfer, offset, window.span)
        codes = out.reshape(-1)
        # the indices are in range; mode="clip" only skips the bounds check
        np.take(base, index, out=codes, mode="clip")
        np.take(steps, index, out=step, mode="clip")
        np.greater_equal(product, step, out=flag)
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


@dataclass(frozen=True)
class _Window:
    """Renders of one pass whose codes come from one bucket index per stripe.

    ``members`` are positions in the pass's params and ``offsets`` their
    exponents' distances below the window's top exponent ``k``, which lies
    ``span`` octaves above its lowest. The window reads the stripe's product
    v = matrix @ (gain * xyz) at ``gain``, and 2^k * v is the pre-clip linear
    RGB at its top gain: a window of power-of-two gains reads gain 1.0, and
    any other window holds one render, with k 0, that reads its own gain.
    """

    members: tuple[int, ...]
    offsets: tuple[int, ...]
    k: int
    span: int
    gain: float


def _windows(params_seq) -> list[_Window]:
    """The windows of a pass over ``params_seq``.

    Quantized power-of-two gains with one matrix, bit depth and transfer
    share a window while their exponents lie within
    16 - (bits + 5) octaves of its lowest, so 0.5, 1, 2 and 4 make one
    8-bit window and from 11 bits each exponent is a window of its own.
    Every other render is a window of one.
    """
    windows, groups = [], {}
    for i, params in enumerate(params_seq):
        k = _shared_exponent(params)
        if k is None:
            windows.append(_Window((i,), (0,), 0, 0, params.exposure_gain))
        else:
            key = (params.xyz_to_linear_srgb, params.bit_depth, params.transfer)
            groups.setdefault(key, []).append((k, i))
    for (_, bits, _), members in groups.items():
        widest = max(0, _WINDOW_INDEX_BITS - bits - _BUCKET_EXTRA_BITS)
        members.sort()
        while members:
            count = sum(k <= members[0][0] + widest for k, _ in members)
            window, members = members[:count], members[count:]
            top = window[-1][0]
            windows.append(_Window(tuple(i for _, i in window), tuple(top - k for k, _ in window),
                                   top, top - window[0][0], 1.0))
    return windows


def _stripe_shape(z: MeasXyzImage) -> tuple[int, int, int]:
    """The shape of ``z``'s row stripes: _stripe_step's rows, or the frame's when fewer."""
    height, width = z.data.shape[:2]
    return min(_stripe_step(width), height), width, 3


def _code_dtype(params: RenderParams):
    return np.uint16 if params.quantize else np.float64


def _render_pass(z: MeasXyzImage, params_seq, sinks) -> None:
    """Render ``z`` under every params in one pass over its row stripes.

    ``sinks[i](rows, codes, v, e)`` receives the rows, a slice, and the codes
    of each stripe of the render under ``params_seq[i]``, in row order, in a
    buffer the next stripe overwrites; 2^e * v is the stripe's pre-clip
    linear RGB at that render's gain, in a buffer the next product
    overwrites. The buffers of _lookup_buffers are free while a sink runs.

    Windows with one matrix and gain read one product per stripe. Each
    stripe is first copied into float64 X, Y and Z planes, which widens a
    float32 plane and lets the matrix read contiguous planes; a gain other
    than 1 scales them into a second set first. Every stripe buffer comes
    from the thread's workspace, so a thread allocates them once, not on
    every capture.
    """
    products = {}  # (matrix, gain) -> the windows that read that product
    for window in _windows(params_seq):
        key = (params_seq[window.members[0]].xyz_to_linear_srgb, window.gain)
        products.setdefault(key, []).append(window)
    shape = _stripe_shape(z)
    workspace = _workspace()
    codes = [workspace.take(f"codes {i}", shape, _code_dtype(params)) for i, params in enumerate(params_seq)]
    lookup = _lookup_buffers(workspace, math.prod(shape))
    planes = workspace.take("xyz planes", (3,) + shape[:2])  # the stripe's X, Y and Z
    product = workspace.take("product", shape)
    # the lookup's product buffer is free while a stripe's product is computed
    scratch = lookup[0][:2 * shape[0] * shape[1]].reshape((2,) + shape[:2])
    if any(gain != 1.0 for _, gain in products):
        scaled = workspace.take("scaled planes", planes.shape)  # gain * xyz
    for top in range(0, z.data.shape[0], max(1, shape[0])):
        rows = slice(top, top + shape[0])
        block = z.data[rows]
        count = block.shape[0]
        xyz = planes[:, :count]
        np.copyto(xyz, np.moveaxis(block, -1, 0))
        for (matrix, gain), windows in products.items():
            x = xyz if gain == 1.0 else np.multiply(gain, xyz, out=scaled[:, :count])
            v = product[:count]
            _apply_matrix(np.asarray(matrix), x, np.moveaxis(v, -1, 0), scratch[:, :count])
            for window in windows:
                outs = [codes[i][:count] for i in window.members]
                _window_codes(v, window, params_seq[window.members[0]], outs, lookup)
                for i, offset, out in zip(window.members, window.offsets, outs):
                    sinks[i](rows, out, v, window.k - offset)


def _rendered(z: MeasXyzImage, params_seq) -> list[RenderedRgb]:
    """The renders of ``z`` under every params, from one pass into whole-frame arrays."""
    outs = [np.empty(z.data.shape, dtype=_code_dtype(params)) for params in params_seq]
    sinks = [lambda rows, codes, v, e, out=out: out.__setitem__(rows, codes) for out in outs]
    _render_pass(z, params_seq, sinks)
    return [_adopt(RenderedRgb, codes=out, params=params, capture_id=z.capture_id)
            for out, params in zip(outs, params_seq)]


def render_proxy(z: MeasXyzImage, params: RenderParams) -> RenderedRgb:
    return _rendered(z, [params])[0]


def _bracket_params(exposures, param_overrides: dict) -> list[RenderParams]:
    exposures = list(exposures)
    if not exposures:
        raise EmptyBracket("exposure list must be non-empty")
    return [RenderParams(exposure_gain=e, **param_overrides) for e in exposures]


def make_bracket(z: MeasXyzImage, exposures=DEFAULT_BRACKET, **param_overrides) -> list[RenderedRgb]:
    """Render one proxy per exposure gain, in the order given, in one pass."""
    return _rendered(z, _bracket_params(exposures, param_overrides))


# --- PPM export --------------------------------------------------------------------

def _require_quantized(params: RenderParams) -> None:
    if not params.quantize:
        raise IoFailure("only quantized renders can be exported as PPM")


def _write_render_header(stem: Path, capture_id: str, params: RenderParams) -> None:
    formats.write_json(Path(str(stem) + ".json"), encode(RenderHeader(capture_id, params)))


def save_rendered(rendered: RenderedRgb, stem: Path) -> None:
    """Write quantized output as <stem>.ppm plus a <stem>.json params header."""
    _require_quantized(rendered.params)
    formats.write_pnm(Path(str(stem) + ".ppm"), rendered.codes, rendered.params.max_code)
    _write_render_header(stem, rendered.capture_id, rendered.params)


def save_bracket(z: MeasXyzImage, stems, exposures=DEFAULT_BRACKET, **param_overrides) -> None:
    """Write the renders ``make_bracket`` returns, each as ``save_rendered``
    writes it at the stem of the same position, holding a stripe of each
    render and not the whole frame.

    The one pass appends each stripe's codes to every open <stem>.ppm, whose
    header the frame's shape fixes; the <stem>.json headers follow once
    every PPM is written.
    """
    params_seq = _bracket_params(exposures, param_overrides)
    for params in params_seq:
        _require_quantized(params)
    stems = list(stems)
    with contextlib.ExitStack() as files:
        sinks = []
        for stem, params in zip(stems, params_seq, strict=True):
            append = files.enter_context(formats.open_pnm(Path(str(stem) + ".ppm"), z.data.shape,
                                                          params.max_code))
            sinks.append(lambda rows, codes, v, e, append=append: append(codes))
        _render_pass(z, params_seq, sinks)
    for stem, params in zip(stems, params_seq):
        _write_render_header(stem, z.capture_id, params)
