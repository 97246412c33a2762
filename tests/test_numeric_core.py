"""The numeric kernels against the formula-path implementations they replaced.

Each oracle below is the earlier vectorized kernel, kept verbatim in intent:
a 3x3 window-sum demosaic over per-color masks, the clip / transfer /
quantize render, the formula dequantization, and the sorting percentile.
The fast kernels must agree bit for bit (np.array_equal), since written
planes, PPMs and summaries are promised byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from measground import isp, lost_signal
from measground.capture import RawCapture
from measground.errors import DomainError
from measground.isp import IDENTITY, SRGB_PIECEWISE, RenderParams
from measground.lost_signal import (
    analyze_render,
    invert_render,
    lost_signal_residual,
    nearest_rank_percentile,
)
from measground.measxyz import (
    MeasXyzImage,
    demosaic_bilinear,
    meas_xyz_transform,
    normalize_mosaic,
    white_scale,
)

from conftest import make_capture, make_image, make_metadata

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


def oracle_meas_xyz(capture: RawCapture) -> np.ndarray:
    rgb = oracle_demosaic(normalize_mosaic(capture), capture.cfa_pattern)
    rgb = rgb * np.asarray(capture.wb_gains)
    xyz = np.einsum("ij,hwj->hwi", capture.cam_to_xyz, rgb)
    xyz = np.clip(xyz, 0.0, None) / white_scale(capture)
    return np.clip(xyz, 0.0, 1.0)


def oracle_codes(v: np.ndarray, bits: int, transfer: str) -> np.ndarray:
    rgb = np.clip(v, 0.0, 1.0)
    encoded = isp.srgb_oetf(rgb) if transfer == SRGB_PIECEWISE else rgb
    return isp.quantize(encoded, bits)


def oracle_render(z: MeasXyzImage, params: RenderParams) -> np.ndarray:
    rgb = np.clip(isp.linear_rgb(z, params), 0.0, 1.0)
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
    assert np.array_equal(meas_xyz_transform(capture).data, oracle_meas_xyz(capture))


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
    for k in (0, -4, 3):
        # 2^k * ldexp(values, -k) is values again wherever a code depends on it
        scaled = np.ldexp(values, -k)
        assert np.array_equal(table_codes(scaled, bits, transfer, k),
                              oracle_codes(np.ldexp(scaled, k), bits, transfer)), k


def table_codes(values: np.ndarray, bits: int, transfer: str, k: int = 0) -> np.ndarray:
    codes = np.empty(values.shape, dtype=np.uint16)
    isp._table_codes(values, k, bits, transfer, codes, isp._lookup_buffers(values.size))
    return codes


def test_code_table_rejects_nan():
    for k in (0, 2):
        with pytest.raises(DomainError):
            table_codes(np.array([0.5, np.nan]), 8, SRGB_PIECEWISE, k)


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
        z, oracle_invert(rendered), isp.clip_mask(z, params), tau=0.01, bins=7,
        exposure_gain=params.exposure_gain, bits=params.bit_depth,
    )
    report = analyze_render(z, params, tau=0.01, bins=7)
    assert np.array_equal(report.residual_map, expected.residual_map), params
    assert np.array_equal(report.lost_mask, expected.lost_mask), params
    assert report.histogram == expected.histogram, params
    assert report.summary_dict() == expected.summary_dict(), params


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
    monkeypatch.setattr(isp, "_STRIPE_PIXELS", 4 * 37)
    z = _edge_image((23, 37), seed=bits)
    overrides = dict(bit_depth=bits, transfer=transfer, quantize=quantize)
    bracket = isp.make_bracket(z, GAINS, **overrides)
    for gain, rendered in zip(GAINS, bracket):
        params = RenderParams(exposure_gain=gain, **overrides)
        expected = oracle_render(z, params)
        assert np.array_equal(rendered.codes, expected), gain
        assert np.array_equal(isp.render_proxy(z, params).codes, expected), gain
        _assert_analysis_matches(z, params)


_WIDTH = 3000
_STRIPE_ROWS = isp._STRIPE_PIXELS // _WIDTH


@pytest.mark.parametrize("shape", [
    (1, 1), (1, _WIDTH), (_STRIPE_ROWS - 1, _WIDTH), (_STRIPE_ROWS, _WIDTH),
    (_STRIPE_ROWS + 1, _WIDTH), (3, 4 * isp._STRIPE_PIXELS // 3),
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
