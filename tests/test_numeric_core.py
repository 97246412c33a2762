"""The numeric kernels against the formula-path implementations they replaced.

Each oracle below is the earlier vectorized kernel, kept verbatim in intent:
a 3x3 window-sum demosaic over per-color masks, the clip / transfer /
quantize render, the formula dequantization, and the sorting percentile.
The fast kernels must agree bit for bit (np.array_equal), since written
planes, PPMs and summaries are promised byte-identical.
"""

from __future__ import annotations

import json
import logging
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from measground import isp, lost_signal, measxyz
from measground.capture import RawCapture
from measground.errors import DomainError
from measground.isp import IDENTITY, SRGB_PIECEWISE, XYZ_TO_LINEAR_SRGB_D65, RenderParams
from measground.lost_signal import (
    analyze_render,
    invert_render,
    lost_signal_residual,
    nearest_rank_percentile,
)
from measground.measxyz import (
    MeasXyzImage,
    _apply_matrix,
    demosaic_bilinear,
    load_meas_xyz,
    meas_xyz_transform,
    normalize_mosaic,
    save_meas_xyz,
    white_scale,
)

from conftest import make_capture, make_image, make_metadata, oracle_clip_mask, oracle_linear_rgb, summary_fields

PATTERNS = ("RGGB", "BGGR", "GRBG", "GBRG")
TRANSFERS = (SRGB_PIECEWISE, IDENTITY)

# --- oracles -------------------------------------------------------------------------

_CFA_TILES = {
    "RGGB": ((0, 1), (1, 2)),
    "BGGR": ((2, 1), (1, 0)),
    "GRBG": ((1, 0), (2, 1)),
    "GBRG": ((1, 2), (0, 1)),
}


def _cfa_masks(cfa_pattern: str, height: int, width: int) -> np.ndarray:
    tile = np.asarray(_CFA_TILES[cfa_pattern])
    colors = np.tile(tile, (height // 2, width // 2))
    return np.stack([colors == c for c in range(3)])


def _window_sum(padded: np.ndarray) -> np.ndarray:
    h, w = padded.shape[0] - 2, padded.shape[1] - 2
    out = np.zeros((h, w), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            out += padded[di:di + h, dj:dj + w]
    return out


def oracle_demosaic(mosaic: np.ndarray, cfa_pattern: str) -> np.ndarray:
    mosaic = np.asarray(mosaic, dtype=np.float64)
    height, width = mosaic.shape
    padded_mosaic = np.pad(mosaic, 1, mode="reflect")
    channels = []
    for mask in _cfa_masks(cfa_pattern, height, width):
        padded_mask = np.pad(mask.astype(np.float64), 1, mode="reflect")
        num = _window_sum(padded_mosaic * padded_mask)
        den = _window_sum(padded_mask)
        channels.append(np.where(mask, mosaic, num / den))
    return np.stack(channels, axis=-1)


def oracle_normalize(capture: RawCapture) -> tuple[np.ndarray, int]:
    """The normalized mosaic and its count of codes above white."""
    black = np.tile(np.asarray(capture.black_level).reshape(2, 2),
                    (capture.height // 2, capture.width // 2))
    norm = (capture.mosaic.astype(np.float64) - black) / (capture.white_level - black)
    return np.clip(norm, 0.0, 1.0), int(np.count_nonzero(norm > 1.0))


def oracle_meas_xyz(capture: RawCapture) -> tuple[np.ndarray, int, int]:
    """The whole-frame Meas.-XYZ image and its counts of saturated codes and negative XYZ values."""
    norm, saturated = oracle_normalize(capture)
    rgb = oracle_demosaic(norm, capture.cfa_pattern)
    rgb = rgb * np.asarray(capture.wb_gains)
    xyz = np.einsum("ij,hwj->hwi", capture.cam_to_xyz, rgb)
    negative = int(np.count_nonzero(xyz < 0.0))
    xyz = np.clip(xyz, 0.0, None) / white_scale(capture)
    return np.clip(xyz, 0.0, 1.0), saturated, negative


def oracle_codes(v: np.ndarray, bits: int, transfer: str) -> np.ndarray:
    rgb = np.clip(v, 0.0, 1.0)
    encoded = isp.srgb_oetf(rgb) if transfer == SRGB_PIECEWISE else rgb
    return isp.quantize(encoded, bits)


def oracle_render(z: MeasXyzImage, params: RenderParams) -> np.ndarray:
    rgb = np.clip(oracle_linear_rgb(z, params), 0.0, 1.0)
    encoded = isp.srgb_oetf(rgb) if params.transfer == SRGB_PIECEWISE else rgb
    return isp.quantize(encoded, params.bit_depth) if params.quantize else encoded


def oracle_invert(rendered: isp.RenderedRgb) -> np.ndarray:
    params = rendered.params
    if params.quantize:
        encoded = rendered.codes.astype(np.float64) / params.max_code
    else:
        encoded = rendered.codes.astype(np.float64)
    linear = isp.srgb_eotf(encoded) if params.transfer != IDENTITY else encoded
    xyz = np.einsum("ij,hwj->hwi", np.linalg.inv(params.matrix), linear)
    return xyz / params.exposure_gain


def oracle_percentile(values: np.ndarray, percent: float) -> float:
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    rank = max(1, int(np.ceil(percent / 100.0 * flat.size)))
    return float(flat[rank - 1])


# --- demosaic and the Meas.-XYZ transform ----------------------------------------------

@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("shape", [(2, 2), (4, 6), (6, 10), (8, 8)])
def test_demosaic_matches_window_sum(pattern, shape):
    rng = np.random.default_rng([PATTERNS.index(pattern), *shape])
    mosaic = rng.uniform(0.0, 1.0, shape)
    mosaic[rng.uniform(size=shape) < 0.2] = 0.0
    mosaic[rng.uniform(size=shape) < 0.2] = 1.0
    assert np.array_equal(demosaic_bilinear(mosaic, pattern), oracle_demosaic(mosaic, pattern))


@pytest.mark.parametrize("seed", range(8))
def test_meas_xyz_transform_matches_formula(seed):
    capture = make_capture(seed, height=12, width=16)
    assert np.array_equal(meas_xyz_transform(capture).data, oracle_meas_xyz(capture)[0])


@pytest.fixture
def measxyz_log():
    """The records measxyz logs, at every level, whatever handlers the CLI set up."""
    records = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = records.append
    level = measxyz.log.level
    measxyz.log.addHandler(handler)
    measxyz.log.setLevel(logging.DEBUG)
    yield records
    measxyz.log.removeHandler(handler)
    measxyz.log.setLevel(level)


def _logged_counts(records) -> tuple[int, int]:
    """The saturated-code and negative-XYZ counts meas_xyz_transform logged, summed."""
    counts = {"saturated": 0, "negative": 0}
    for record in records:
        number, what = record.getMessage().split(": ", 1)[1].split(" ", 2)[:2]
        counts[what] += int(number)
    return counts["saturated"], counts["negative"]


def _saturating_capture(pattern: str, height: int, width: int, seed: int) -> RawCapture:
    """A capture with codes above white and a matrix row that goes negative on most pixels."""
    capture = make_capture(seed, height=height, width=width)
    mosaic = capture.mosaic.copy()
    mosaic[0, -1] = mosaic[-1, 0] = 65535
    return make_capture(seed, height=height, width=width, cfa_pattern=pattern, mosaic=mosaic,
                        white_level=60000.0,
                        cam_to_xyz=((0.2, -1.0, 0.1), (0.3, 0.6, 0.1), (0.0, 0.1, 0.9)))


_FULL_STRIPE = measxyz._stripe_step(3000)


# (height, width, _STRIPE_PIXELS): heights are even, so the frames one tile
# row (two mosaic rows) short of a stripe of 6 rows, one stripe, one tile
# row over, and two stripes and a tile row; stripe sizes that round down to
# an even row count and up to 2 rows; 2-row and 2-column frames; and frames
# at the unpatched stripe size.
_MEAS_XYZ_SHAPES = [
    (4, 10, 60), (6, 10, 60), (8, 10, 60), (14, 10, 60),
    (8, 10, 70), (6, 10, 10),
    (2, 10, 60), (2, 64, 6 * 64), (12, 2, 12), (2, 2, 12), (10, 2, 1),
    (_FULL_STRIPE - 2, 3000, None), (_FULL_STRIPE, 3000, None), (_FULL_STRIPE + 2, 3000, None),
]


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("height, width, stripe_pixels", _MEAS_XYZ_SHAPES)
def test_striped_meas_xyz_matches_whole_frame(pattern, height, width, stripe_pixels,
                                              monkeypatch, measxyz_log):
    if stripe_pixels is not None:
        monkeypatch.setattr(measxyz, "_STRIPE_PIXELS", stripe_pixels)
    capture = _saturating_capture(pattern, height, width, seed=height + width)
    expected, saturated, negative = oracle_meas_xyz(capture)
    assert saturated and negative
    image = meas_xyz_transform(capture)
    assert np.array_equal(image.data, expected)
    # halo rows are normalized twice but counted once
    assert _logged_counts(measxyz_log) == (saturated, negative)

    measxyz_log.clear()
    norm, saturated = oracle_normalize(capture)
    assert np.array_equal(normalize_mosaic(capture), norm)
    assert _logged_counts(measxyz_log) == (saturated, 0)


def test_meas_xyz_image_errors_keep_their_wording():
    for value, message in ((np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
                           (1.5, r"lie in \[0, 1\]"), (-0.5, r"lie in \[0, 1\]")):
        data = np.full((2, 2, 3), 0.5)
        data[1, 0, 2] = value
        with pytest.raises(DomainError, match=message):
            MeasXyzImage(data=data, capture_id="x", metadata=make_metadata(0))


# --- the render code table ----------------------------------------------------------------

@pytest.mark.parametrize("transfer", TRANSFERS)
@pytest.mark.parametrize("bits", range(1, 17))
def test_code_table_matches_formula(bits, transfer):
    thresholds = isp._code_thresholds(bits, transfer)
    codes = np.arange(1, 1 << bits)
    assert np.all(np.diff(thresholds) > 0)
    # each threshold is the first float64 reaching its code
    below = np.nextafter(thresholds, -np.inf)
    assert np.all(oracle_codes(thresholds, bits, transfer) >= codes)
    assert np.all(oracle_codes(below, bits, transfer) < codes)

    rng = np.random.default_rng(bits)
    values = np.concatenate([
        thresholds, below, np.nextafter(thresholds, np.inf),
        rng.uniform(-0.5, 1.5, 20_000),
        [0.0, -0.0, 1.0, -1e-300, 5e-324, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
         1e300, -1e300, np.inf, -np.inf],
    ])
    for exponents in ([0], [-4], [3], [-1, 0, 1, 2], [2, -3, 0]):
        # every gain of a window reads the one product; 2^k * values leaves
        # the normal range only far from every threshold, and there rounds as
        # the product with 2^k does
        for k, codes in zip(exponents, table_codes(values, bits, transfer, exponents)):
            assert np.array_equal(codes, oracle_codes(np.ldexp(values, k), bits, transfer)), (exponents, k)


def table_codes(values: np.ndarray, bits: int, transfer: str, exponents=(0,)) -> list[np.ndarray]:
    """The codes of 2^k * values for each k in ``exponents``, read through the
    windows a render pass at those gains makes."""
    params = [RenderParams(exposure_gain=2.0 ** k, bit_depth=bits, transfer=transfer) for k in exponents]
    codes = [np.empty(values.shape, dtype=np.uint16) for _ in exponents]
    lookup = isp._lookup_buffers(measxyz._StripeWorkspace(), values.size)
    for window in isp._windows(params):
        isp._window_codes(values, window, params[window.members[0]], [codes[i] for i in window.members], lookup)
    return codes


def test_code_table_rejects_nan():
    for exponents in ([0], [2], [-1, 2]):
        with pytest.raises(DomainError):
            table_codes(np.array([0.5, np.nan]), 8, SRGB_PIECEWISE, exponents)


def _bright_image(seed: int, shape=(14, 18)) -> MeasXyzImage:
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, shape + (3,)) ** 3
    data[: shape[0] // 3] = rng.uniform(0.5, 1.0, (shape[0] // 3, shape[1], 3))
    data[1, 1] = 0.0
    data[2, 2] = 1.0
    return make_image(data, capture_id=f"img-{seed}", seed=seed)


PARAMS = [
    RenderParams(exposure_gain=g, bit_depth=b, transfer=t, quantize=q)
    for g, b, t, q in [
        (0.5, 8, SRGB_PIECEWISE, True), (2.0, 8, SRGB_PIECEWISE, True),
        (4.0, 8, IDENTITY, True), (1.0, 1, SRGB_PIECEWISE, True),
        (1.5, 10, SRGB_PIECEWISE, True), (3.0, 16, IDENTITY, True),
        (2.0, 12, SRGB_PIECEWISE, False), (0.75, 8, IDENTITY, False),
    ]
]


def _params_id(p: RenderParams) -> str:
    return f"e{p.exposure_gain}-b{p.bit_depth}-{p.transfer}-q{p.quantize}"


@pytest.mark.parametrize("params", PARAMS, ids=_params_id)
def test_render_proxy_matches_formula(params):
    z = _bright_image(int(params.exposure_gain * 8) + params.bit_depth)
    assert np.array_equal(isp.render_proxy(z, params).codes, oracle_render(z, params))


# --- inversion and analysis ------------------------------------------------------------------

@pytest.mark.parametrize("transfer", TRANSFERS)
@pytest.mark.parametrize("bits", [1, 2, 8, 10, 16])
def test_eotf_table_matches_formula(bits, transfer):
    max_code = (1 << bits) - 1
    table = lost_signal._dequantize_table(bits, transfer)
    encoded = np.arange(max_code + 1).astype(np.float64) / max_code
    expected = isp.srgb_eotf(encoded) if transfer == SRGB_PIECEWISE else encoded
    assert np.array_equal(table, expected)

    rng = np.random.default_rng(bits)
    codes = rng.integers(0, max_code + 1, (6, 7, 3))
    codes[0, 0] = (0, max_code, max_code // 2)
    params = RenderParams(exposure_gain=1.7, bit_depth=bits, transfer=transfer)
    rendered = isp.RenderedRgb(codes=codes, params=params, capture_id="x")
    assert np.array_equal(invert_render(rendered), oracle_invert(rendered))


def _assert_analysis_matches(z: MeasXyzImage, params: RenderParams) -> None:
    rendered = isp.RenderedRgb(codes=oracle_render(z, params), params=params,
                               capture_id=z.capture_id)
    expected = lost_signal_residual(
        z, oracle_invert(rendered), oracle_clip_mask(z, params), tau=0.01, bins=7,
        exposure_gain=params.exposure_gain, bits=params.bit_depth,
    )
    report = analyze_render(z, params, tau=0.01, bins=7)
    assert np.array_equal(report.residual_map, expected.residual_map), params
    assert np.array_equal(report.lost_mask, expected.lost_mask), params
    assert report.histogram == expected.histogram, params
    assert summary_fields(report) == summary_fields(expected), params


@pytest.mark.parametrize("params", PARAMS, ids=_params_id)
def test_analyze_render_matches_three_step_path(params):
    _assert_analysis_matches(_bright_image(int(params.exposure_gain * 8) + params.bit_depth), params)


# --- the striped render and analysis pass ----------------------------------------------

_LOW, _HIGH = isp._SHARED_EXPONENTS[0], isp._SHARED_EXPONENTS[-1]
# Every power of two in [1/16, 16], the ends of the shared range and one step
# beyond each, and gains that take the formula path.
GAINS = ([2.0 ** k for k in range(-4, 5)]
         + [2.0 ** k for k in (_LOW, _LOW - 1, _HIGH, _HIGH + 1)]
         + [3.0, 0.3, float(np.nextafter(2.0, 3.0))])

# Pixels whose linear RGB goes above 1 and below 0, and tiny and subnormal
# values alone or beside ordinary ones.
_SPECIAL_PIXELS = [
    (0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (0.0, 0.0, 0.0),
    (5e-324, 1e-310, 2.2250738585072014e-308), (0.3, 5e-324, 0.7),
    (1e-310, 0.2, 1e-320), (1e-300, 0.0, 5e-324), (0.5, 5e-324, 1.0),
]


def _edge_image(shape: tuple[int, int], seed: int) -> MeasXyzImage:
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, shape + (3,)) ** 3
    flat = data.reshape(-1, 3)
    count = min(len(flat), len(_SPECIAL_PIXELS))
    flat[rng.choice(len(flat), count, replace=False)] = _SPECIAL_PIXELS[:count]
    return make_image(data, capture_id=f"edge-{seed}", seed=seed)


@pytest.mark.parametrize("quantize", [True, False])
@pytest.mark.parametrize("transfer", TRANSFERS)
@pytest.mark.parametrize("bits", [1, 8, 12, 16])
def test_striped_pass_matches_whole_frame_oracles(bits, transfer, quantize, monkeypatch):
    # stripes of 4 rows, the last one of 3
    monkeypatch.setattr(measxyz, "_STRIPE_PIXELS", 4 * 37)
    z = _edge_image((23, 37), seed=bits)
    overrides = dict(bit_depth=bits, transfer=transfer, quantize=quantize)
    bracket = isp.make_bracket(z, GAINS, **overrides)
    for gain, rendered in zip(GAINS, bracket):
        params = RenderParams(exposure_gain=gain, **overrides)
        expected = oracle_render(z, params)
        assert np.array_equal(rendered.codes, expected), gain
        assert np.array_equal(isp.render_proxy(z, params).codes, expected), gain
        _assert_analysis_matches(z, params)


# One window at 8 bits, several at every depth, and power-of-two gains
# unsorted among formula-path ones.
WINDOW_BRACKETS = [
    [0.5, 1.0, 2.0, 4.0],
    [2.0 ** k for k in range(-6, 7)],
    [4.0, 0.5, 3.0, 1.0, float(np.nextafter(2.0, 3.0))],
]
_IDENTITY_MATRIX = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _threshold_image(bits: int, transfer: str, gains) -> MeasXyzImage:
    """Samples whose products at each gain fall at, just below and just above
    the code thresholds (a sample of 2048 of them from 12 bits), with zeros,
    ones and subnormals, in rows of 37 pixels."""
    thresholds = isp._code_thresholds(bits, transfer)
    rng = np.random.default_rng(bits)
    if thresholds.size > 2048:
        thresholds = np.sort(rng.choice(thresholds, 2048, replace=False))
    values = [np.array([0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324, 1e-310, 2.2250738585072014e-308])]
    for gain in gains:
        at = thresholds / gain
        values += [at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)]
    values = np.concatenate(values)
    values = rng.permutation(values[values <= 1.0])
    width = 37
    values = np.concatenate([values, np.zeros(-values.size % (3 * width))])
    return make_image(values.reshape(-1, width, 3), capture_id=f"thresholds-{bits}")


@pytest.mark.parametrize("gains", WINDOW_BRACKETS, ids=["one-window", "windows", "mixed"])
@pytest.mark.parametrize("transfer", TRANSFERS)
@pytest.mark.parametrize("bits", [1, 8, 11, 12, 16])
def test_windowed_bracket_matches_the_oracles(bits, transfer, gains, monkeypatch):
    """Through the identity matrix the products hit the thresholds; through
    the default one they also go negative and above 1. Stripes of 4 rows
    leave a short last stripe."""
    monkeypatch.setattr(measxyz, "_STRIPE_PIXELS", 4 * 37)
    z = _threshold_image(bits, transfer, gains)
    for matrix in (_IDENTITY_MATRIX, XYZ_TO_LINEAR_SRGB_D65):
        overrides = dict(bit_depth=bits, transfer=transfer, xyz_to_linear_srgb=matrix)
        for gain, rendered in zip(gains, isp.make_bracket(z, gains, **overrides)):
            params = RenderParams(exposure_gain=gain, **overrides)
            assert np.array_equal(rendered.codes, oracle_render(z, params)), (gain, matrix)
            _assert_analysis_matches(z, params)


@pytest.mark.parametrize("bits", range(1, 17))
def test_windows_keep_their_tables_within_2_to_the_16(bits):
    gains = WINDOW_BRACKETS[1] + WINDOW_BRACKETS[2]
    params = [RenderParams(exposure_gain=gain, bit_depth=bits) for gain in gains]
    windows = isp._windows(params)
    assert sorted(i for window in windows for i in window.members) == list(range(len(gains)))
    widest = max(0, 16 - (bits + 5))
    for window in windows:
        assert window.span <= widest
        if window.span:
            assert isp._window_table(bits, SRGB_PIECEWISE, 0, window.span)[0].size <= 1 << 16
    # 0.5 to 4 is one window at 8 bits; from 11 bits each exponent is its own
    shared = [window for window in windows if window.gain == 1.0]
    assert len(shared) == (len(range(-6, 7)) if bits >= 11 else -(-13 // (widest + 1)))
    if bits == 8:
        assert len(isp._windows([RenderParams(exposure_gain=gain) for gain in WINDOW_BRACKETS[0]])) == 1


@pytest.mark.parametrize("params_seq, products", [
    ([RenderParams(3.0)] * 2, 1),
    ([RenderParams(1.0, quantize=False), RenderParams(2.0)], 1),
    ([RenderParams(gain) for gain in isp.DEFAULT_BRACKET], 1),
    ([RenderParams(1.5), RenderParams(2.0)], 2),
], ids=["one-gain-twice", "unquantized-gain-1-and-gain-2", "default-bracket", "gains-1.5-and-2"])
def test_windows_with_one_matrix_and_gain_read_one_product(params_seq, products, monkeypatch):
    calls = []
    apply_matrix = isp._apply_matrix
    monkeypatch.setattr(isp, "_apply_matrix", lambda *args: calls.append(args) or apply_matrix(*args))
    z = _bright_image(5)  # one stripe
    assert isp._stripe_shape(z)[0] == z.data.shape[0]
    rendered = isp._rendered(z, params_seq)
    assert len(calls) == products
    for render, params in zip(rendered, params_seq):
        assert np.array_equal(render.codes, oracle_render(z, params))


_WIDTH = 3000
_STRIPE_ROWS = measxyz._STRIPE_PIXELS // _WIDTH


@pytest.mark.parametrize("shape", [
    (1, 1), (1, _WIDTH), (_STRIPE_ROWS - 1, _WIDTH), (_STRIPE_ROWS, _WIDTH),
    (_STRIPE_ROWS + 1, _WIDTH), (3, 4 * measxyz._STRIPE_PIXELS // 3),
])
def test_striped_pass_matches_at_stripe_edges(shape):
    z = _edge_image(shape, seed=shape[0])
    gains = [0.5, 1.0, 1.5, 2.0, 4.0, 3.0]
    for rendered in isp.make_bracket(z, gains):
        assert np.array_equal(rendered.codes, oracle_render(z, rendered.params))
    for params in (RenderParams(exposure_gain=2.0, quantize=False),
                   RenderParams(exposure_gain=0.25, bit_depth=16, transfer=IDENTITY),
                   RenderParams(exposure_gain=1.5, bit_depth=12)):
        assert np.array_equal(isp.render_proxy(z, params).codes, oracle_render(z, params))
    for gain in (2.0, 1.5):
        _assert_analysis_matches(z, RenderParams(exposure_gain=gain))


def _image_with_nan() -> MeasXyzImage:
    """An image the constructor would refuse: one NaN sample."""
    z = make_image(np.full((5, 6, 3), 0.25))
    data = z.data.copy()
    data[3, 4, 1] = np.nan
    object.__setattr__(z, "data", data)
    return z


@pytest.mark.parametrize("transfer, quantize", [
    (SRGB_PIECEWISE, True), (IDENTITY, True), (SRGB_PIECEWISE, False),
])
def test_nan_raises_at_every_gain(transfer, quantize):
    z = _image_with_nan()
    for gain in GAINS:
        params = RenderParams(exposure_gain=gain, transfer=transfer, quantize=quantize)
        with pytest.raises(DomainError):
            oracle_render(z, params)
        with pytest.raises(DomainError):
            isp.render_proxy(z, params)
        with pytest.raises(DomainError):
            isp.make_bracket(z, [1.0, gain], transfer=transfer, quantize=quantize)
        with pytest.raises(DomainError):
            analyze_render(z, params)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("matrix", [
    ((1e308, -1e308, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),  # beyond the shared bound
    ((2.0 ** 899, -(2.0 ** 899), 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),  # within it
])
def test_huge_matrix_entries_match_the_formula(matrix):
    z = _edge_image((4, 5), seed=7)
    for gain in (1.0, 2.0, 4.0, 2.0 ** _HIGH, 0.5):
        params = RenderParams(exposure_gain=gain, xyz_to_linear_srgb=matrix)
        try:
            expected = oracle_render(z, params)
        except DomainError:  # inf - inf in the product
            with pytest.raises(DomainError):
                isp.render_proxy(z, params)
            continue
        assert np.array_equal(isp.render_proxy(z, params).codes, expected), gain


@pytest.mark.parametrize("size", [1, 2, 7, 100, 1001])
def test_partition_percentile_matches_sort(size):
    rng = np.random.default_rng(size)
    values = rng.integers(-5, 6, size).astype(np.float64) * rng.uniform(0.9, 1.1)
    values[: size // 3] = rng.uniform(-1.0, 1.0, size // 3)
    for percent in (0.0, 0.1, 1.0, 33.3, 50.0, 99.0, 99.9, 100.0):
        got = nearest_rank_percentile(values, percent)
        assert got == oracle_percentile(values, percent)
        assert np.float64(got).tobytes() == np.float64(oracle_percentile(values, percent)).tobytes()


# --- the 3x3 kernel ------------------------------------------------------------------------

def _kernel_product(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[:-1] + (len(matrix),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silent, as einsum is
        _apply_matrix(matrix, np.moveaxis(x, -1, 0), np.moveaxis(out, -1, 0),
                      np.empty((2,) + x.shape[:-1]))
    return out


_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                   np.inf, -np.inf, np.nan, 1e308, -1e308, 1.0, -1.0]

_KERNEL_MATRICES = [
    np.asarray(XYZ_TO_LINEAR_SRGB_D65),
    np.linalg.inv(XYZ_TO_LINEAR_SRGB_D65),
    np.linalg.inv(XYZ_TO_LINEAR_SRGB_D65)[1:2],  # the analysis' Y row alone
    np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -0.0], [-1.0, 0.0, 5e-324]]),
    np.array([[1e308, -1e308, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[2.0 ** 899, -(2.0 ** 899), 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
]


@pytest.mark.parametrize("matrix", range(len(_KERNEL_MATRICES)))
def test_matrix_kernel_matches_einsum_bit_for_bit(matrix):
    matrix = _KERNEL_MATRICES[matrix]
    rng = np.random.default_rng(len(matrix) + int(abs(matrix).max() > 1e300))
    ordinary = rng.normal(size=(9, 31, 3)) * 10.0 ** rng.integers(-3, 4, (9, 31, 3))
    scaled = rng.normal(size=(4, 5, 3)) * 10.0 ** rng.integers(-310, 309, (4, 5, 3))
    # every triple of special values, as one row of pixels
    special = np.array(np.meshgrid(*[_SPECIAL_VALUES] * 3, indexing="ij")).reshape(3, 1, -1).T
    for x in (ordinary, scaled, special.transpose(1, 0, 2).copy(), ordinary[:1, :1]):
        got, expected = _kernel_product(matrix, x), np.einsum("ij,hwj->hwi", matrix, x)
        assert got.tobytes() == expected.tobytes()


# --- loaded float32 planes and peak memory ------------------------------------------------

def _saved_plane(tmp_path, shape, seed: int = 3):
    """The stem of a plane pair saved from a random image of ``shape``."""
    rng = np.random.default_rng(seed)
    data = rng.uniform(0.0, 1.0, shape + (3,)) ** 2
    data[: shape[0] // 4] = 1.0
    save_meas_xyz(make_image(data, capture_id="plane"), tmp_path / "plane")
    return tmp_path / "plane"


def _traced_peak(fn):
    """fn()'s result and the peak bytes it allocated, all of it alive at the peak or not."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loaded_planes_stay_float32_and_render_as_their_widening(tmp_path):
    stem = _saved_plane(tmp_path, (23, 37))
    loaded = load_meas_xyz(stem)
    assert loaded.data.dtype == np.float32
    widened = make_image(loaded.data.astype(np.float64), capture_id="plane")
    gains = [0.5, 1.0, 2.0, 4.0, 3.0]
    for a, b in zip(isp.make_bracket(loaded, gains), isp.make_bracket(widened, gains)):
        assert np.array_equal(a.codes, b.codes)
    for params in (RenderParams(exposure_gain=2.0), RenderParams(exposure_gain=1.5, quantize=False)):
        a, b = analyze_render(loaded, params), analyze_render(widened, params)
        assert np.array_equal(a.residual_map, b.residual_map)
        assert summary_fields(a) == summary_fields(b) and a.histogram == b.histogram


def test_the_report_of_a_loaded_plane_matches_its_widened_formula(tmp_path):
    """The residual and the original p99 are taken from the float32 Y as
    from its float64 widening."""
    data = np.random.default_rng(4).uniform(0.0, 1.0, (29, 31, 3)) ** 2
    save_meas_xyz(make_image(data, capture_id="plane"), tmp_path / "plane")
    loaded = load_meas_xyz(tmp_path / "plane")
    widened = make_image(loaded.data.astype(np.float64), capture_id="plane")
    params = RenderParams(exposure_gain=2.0)
    rendered = isp.RenderedRgb(codes=oracle_render(widened, params), params=params, capture_id="plane")
    y_orig = widened.data[..., 1]
    report = analyze_render(loaded, params)
    assert np.array_equal(report.residual_map, np.abs(y_orig - oracle_invert(rendered)[..., 1]))
    assert report.p99_original == oracle_percentile(y_orig, 99.0) < 1.0


_PEAK_SHAPE = (1024, 1024)
_PIXELS = _PEAK_SHAPE[0] * _PEAK_SHAPE[1]


def test_meas_xyz_transform_peaks_below_a_whole_frame_temporary():
    capture = make_capture(5, *_PEAK_SHAPE)
    image, peak = _traced_peak(lambda: meas_xyz_transform(capture))
    # the output and stripe-sized buffers; one whole-frame float64 channel
    # more (a normalized mosaic, its padding or a channel of the RGB) is over
    assert peak < image.data.nbytes + 8 * _PIXELS


def test_bracket_of_a_loaded_plane_peaks_below_its_float64_copy(tmp_path):
    stem = _saved_plane(tmp_path, _PEAK_SHAPE)
    bracket, peak = _traced_peak(lambda: isp.make_bracket(load_meas_xyz(stem)))
    codes = sum(rendered.codes.nbytes for rendered in bracket)
    # the float32 plane (12 B/px), the codes and stripe-sized buffers; a
    # float64 copy of the plane (24 B/px) in place of the float32 one is over
    assert peak < codes + 24 * _PIXELS


def test_analysis_of_a_loaded_plane_peaks_below_its_float64_copy(tmp_path):
    stem = _saved_plane(tmp_path, _PEAK_SHAPE)
    _, peak = _traced_peak(lambda: analyze_render(load_meas_xyz(stem), RenderParams(exposure_gain=2.0)))
    # the float32 plane (12 B/px); recovered Y, the clip and lost masks, the
    # residual, Y widened and one percentile copy (34 B/px); and stripe-sized
    # buffers. A float64 plane in its place (24 B/px, with Y a view of it)
    # comes to 50 B/px, and luminance widening the whole plane to 62.
    assert peak < (12 + 34 + 2) * _PIXELS


# --- image stages whose peak grows with the frame only by what they hold ----------------

# One width, so the stripes and every row-block buffer are the same size at
# both heights, and the traced peaks differ only by what grows with the frame.
_STAGE_WIDTH = 512
_STAGE_HEIGHTS = (256, 1024)


def _stage_peak(root, monkeypatch, stage: str, height: int) -> int:
    """The traced peak of one image stage over one capture of ``height`` rows
    under ``root``, run serially, with a stripe workspace of its own."""
    from measground import cli

    monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
    monkeypatch.setattr(measxyz, "_thread", threading.local())
    spec = {"height": height, "width": _STAGE_WIDTH, "background": 0.25, "noise_sigma": 0.01,
            "patches": [{"top": 40, "left": 16, "height": height - 80, "width": 100, "gain": 3.5}]}
    root.mkdir()
    (root / "scene.json").write_text(json.dumps(spec))
    argv = {
        "synth": ["synth", "--count", "1", "--seed", "1", "--scene", root / "scene.json"],
        "measxyz": ["measxyz", "--input", root / "synth" / "captures.json"],
        "bracket": ["bracket", "--input", root / "measxyz"],
    }
    # the stages before this one, untraced
    for name in list(argv)[:list(argv).index(stage)]:
        assert cli.main([*map(str, argv[name]), "--out", str(root / name)]) == 0
    status, peak = _traced_peak(lambda: cli.main([*map(str, argv[stage]), "--out", str(root / stage)]))
    assert status == 0
    return peak


@pytest.mark.parametrize("stage, held", [
    # the float64 scene synth_capture returns (8 B/px) and the uint16 mosaic
    # (2 B/px); the whole-frame formula's float64 black map, span, noise and
    # their sums come to more than 60 B/px
    pytest.param("synth", 8 + 2, id="synth"),
    # the uint16 mosaic (2 B/px); a float64 (H, W, 3) image is 24 B/px
    pytest.param("measxyz", 2, id="measxyz"),
    # the loaded float32 plane (12 B/px); four renders' uint16 codes held
    # until they are saved are another 24 B/px
    pytest.param("bracket", 12, id="bracket"),
])
def test_an_image_stage_peak_grows_with_the_frame_only_by_what_it_holds(tmp_path, monkeypatch, stage, held):
    _stage_peak(tmp_path / "warm-up", monkeypatch, stage, _STAGE_HEIGHTS[0])  # the code tables
    small, large = (_stage_peak(tmp_path / str(height), monkeypatch, stage, height)
                    for height in _STAGE_HEIGHTS)
    # the bytes the peak gains per pixel the frame gains, one to spare
    growth = (large - small) / ((_STAGE_HEIGHTS[1] - _STAGE_HEIGHTS[0]) * _STAGE_WIDTH)
    assert growth < held + 1, growth


# --- the stripe workspace each thread holds across captures --------------------------------

def _poison_the_workspace() -> None:
    """Set every byte the thread's workspace holds to 0xFF (NaN as float64), so
    a stale read shows in the next call's output."""
    for buffer in measxyz._workspace()._buffers.values():
        buffer.fill(0xFF)


def _fresh(call):
    """call()'s result and the stripe workspace it ran on, made for it, as on
    a thread's first pass."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measxyz, "_thread", threading.local())
        return call(), measxyz._workspace()


def _assert_reports_equal(a, b) -> None:
    assert np.array_equal(a.residual_map, b.residual_map)
    assert np.array_equal(a.lost_mask, b.lost_mask)
    assert a.histogram == b.histogram and summary_fields(a) == summary_fields(b)


# (height, width, pattern) at stripes of 60 pixels: the frames grow and shrink
# in both dimensions, and include 2-row frames and frames wider than a stripe
_REUSE_SEQUENCE = [
    (8, 10, "RGGB"), (2, 10, "BGGR"), (14, 12, "GRBG"), (4, 64, "GBRG"), (2, 2, "RGGB"),
    (20, 6, "BGGR"), (6, 70, "GRBG"), (2, 62, "GBRG"), (10, 10, "RGGB"),
]
_REUSE_GAINS = [0.5, 1.0, 2.0, 3.0, 0.3]


def test_a_held_workspace_gives_every_capture_a_fresh_calls_output(monkeypatch):
    monkeypatch.setattr(measxyz, "_STRIPE_PIXELS", 60)
    monkeypatch.setattr(measxyz, "_thread", threading.local())  # held across the sequence
    for index, (height, width, pattern) in enumerate(_REUSE_SEQUENCE):
        capture = _saturating_capture(pattern, height, width, seed=index)
        z, _ = _fresh(lambda: meas_xyz_transform(capture))
        _poison_the_workspace()
        assert np.array_equal(meas_xyz_transform(capture).data, z.data)
        for quantize in (True, False):
            fresh, _ = _fresh(lambda: isp.make_bracket(z, _REUSE_GAINS, quantize=quantize))
            _poison_the_workspace()
            for a, b in zip(isp.make_bracket(z, _REUSE_GAINS, quantize=quantize), fresh):
                assert np.array_equal(a.codes, b.codes), (index, a.params)
        for params in (RenderParams(exposure_gain=2.0), RenderParams(exposure_gain=1.5),
                       RenderParams(exposure_gain=2.0, quantize=False)):
            fresh, _ = _fresh(lambda: analyze_render(z, params))
            _poison_the_workspace()
            _assert_reports_equal(analyze_render(z, params), fresh)


def test_the_analysis_takes_the_buffers_of_its_render_and_its_clip_flags():
    # the inverse reuses the render pass's lookup buffers, so on a fresh
    # workspace it adds only the clip flags to a one-gain bracket's names
    z = make_image(np.random.default_rng(9).uniform(0, 1, (64, 48, 3)))
    _, bracket = _fresh(lambda: isp.make_bracket(z, [2.0]))
    _, analysis = _fresh(lambda: analyze_render(z, RenderParams(exposure_gain=2.0)))
    assert analysis._buffers.keys() == bracket._buffers.keys() | {"clip flags"}


def test_each_thread_holds_a_workspace_of_its_own(monkeypatch):
    # stripes of 2 rows, so the two threads' passes interleave
    monkeypatch.setattr(measxyz, "_STRIPE_PIXELS", 2 * 48)
    z = make_image(np.random.default_rng(10).uniform(0, 1, (64, 48, 3)))
    params = RenderParams(exposure_gain=2.0)
    serial, _ = _fresh(lambda: analyze_render(z, params))
    start = threading.Barrier(2)
    results = [None, None]

    def run(index):
        start.wait()
        results[index] = analyze_render(z, params), measxyz._workspace()

    threads = [threading.Thread(target=run, args=(index,)) for index in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    (first, first_workspace), (second, second_workspace) = results
    assert first_workspace is not second_workspace
    assert measxyz._workspace() not in (first_workspace, second_workspace)
    _assert_reports_equal(first, serial)
    _assert_reports_equal(second, serial)


def test_a_held_workspace_allocates_no_stripe_buffer_again(monkeypatch):
    # 256 x 256: two stripes of 128 rows, whose smallest buffer, one bool per
    # pixel, is 32 KiB. NumPy's ufunc loops buffer up to 64 KiB per operand
    # at the default size; a small one keeps that out of the count.
    shape = (256, 256)
    pixels = shape[0] * shape[1]
    margin = 3 * measxyz._STRIPE_PIXELS // 4
    params = RenderParams(exposure_gain=2.0)
    monkeypatch.setattr(measxyz, "_thread", threading.local())
    z = meas_xyz_transform(make_capture(1, *shape))
    isp.make_bracket(z)
    analyze_render(z, params)
    workspace = measxyz._workspace()
    held = dict(workspace._buffers)

    stripe_pass_peak = []
    luminance_report = lost_signal._luminance_report

    def report_after_the_stripe_pass(*args, **kwargs):
        stripe_pass_peak.append(tracemalloc.get_traced_memory()[1])
        return luminance_report(*args, **kwargs)

    monkeypatch.setattr(lost_signal, "_luminance_report", report_after_the_stripe_pass)
    capture = make_capture(2, *shape)
    bufsize = np.setbufsize(64)
    try:
        image, peak = _traced_peak(lambda: meas_xyz_transform(capture))
        assert peak < image.data.nbytes + margin
        bracket, peak = _traced_peak(lambda: isp.make_bracket(image))
        assert peak < sum(rendered.codes.nbytes for rendered in bracket) + margin
        _, peak = _traced_peak(lambda: analyze_render(image, params))
    finally:
        np.setbufsize(bufsize)
    # the stripe pass: recovered Y and the clip mask (9 B/px); the report:
    # those, the residual, the lost mask and a percentile copy or the
    # histogram's bin indices (26 B/px)
    assert stripe_pass_peak[0] < 9 * pixels + margin
    assert peak < 26 * pixels + margin
    assert measxyz._workspace() is workspace
    assert workspace._buffers.keys() == held.keys()
    assert all(workspace._buffers[name] is buffer for name, buffer in held.items())
