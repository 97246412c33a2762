import json
import math
import tracemalloc

import numpy as np
import pytest

from measground.errors import DomainError, ShapeMismatch
from measground.isp import IDENTITY, RenderParams, render_proxy
from measground.lost_signal import (
    LostSignalReport,
    analyze_render,
    emit_report,
    invert_render,
    lost_signal_residual,
    nearest_rank_percentile,
    residual_histogram,
)

from conftest import make_image, summary_fields

# Inline inverse transfer for the interval-propagation oracle; written from
# the standard constants, independent of the package implementation.

def _eotf_ref(u: float) -> float:
    if u <= 0.04045:
        return u / 12.92
    return math.pow((u + 0.055) / 1.055, 2.4)


def _no_clip_image(seed: int, shape=(16, 16), gain: float = 1.2):
    """(z, params) whose pre-clip RGB lies strictly inside (0, 1)."""
    rng = np.random.default_rng(seed)
    params = RenderParams(exposure_gain=gain)
    rgb_target = rng.uniform(0.01, 0.9, shape + (3,))
    inv = np.linalg.inv(params.matrix)
    z_data = np.einsum("ij,hwj->hwi", inv, rgb_target) / gain
    assert z_data.min() >= 0.0 and z_data.max() <= 1.0
    return make_image(z_data, capture_id=f"noclip-{seed}"), params


class TestInvertRender:
    def test_identity_pipeline_inverts_exactly(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 1.0, (6, 6, 3))
        z = make_image(data)
        params = RenderParams(exposure_gain=1.0, xyz_to_linear_srgb=np.eye(3),
                              transfer=IDENTITY, quantize=False)
        recovered = invert_render(render_proxy(z, params))
        assert np.array_equal(recovered, data)

    def test_clipped_luminance_caps_at_inverse_gain(self):
        z = make_image(np.full((4, 4, 3), 0.96))
        params = RenderParams(exposure_gain=5.0, xyz_to_linear_srgb=np.eye(3),
                              quantize=False)
        recovered = invert_render(render_proxy(z, params))
        assert recovered[..., 1] == pytest.approx(0.2, abs=1e-9)

    def test_transfer_matrix_round_trip(self):
        z, params = _no_clip_image(1)
        params = RenderParams(exposure_gain=params.exposure_gain, quantize=False)
        recovered = invert_render(render_proxy(z, params))
        assert np.abs(recovered - z.data).max() < 1e-6

    def test_quantized_error_within_interval_bound(self):
        z, _ = _no_clip_image(2, gain=1.0)
        params = RenderParams(exposure_gain=1.0, bit_depth=8, quantize=True)
        rendered = render_proxy(z, params)
        recovered = invert_render(rendered)
        inv = np.abs(np.linalg.inv(params.matrix))
        codes = np.asarray(rendered.codes, dtype=np.float64)
        half = 0.5 / 255.0
        lo = np.maximum(codes / 255.0 - half, 0.0)
        hi = np.minimum(codes / 255.0 + half, 1.0)
        mid = codes / 255.0
        widen = np.vectorize(
            lambda m, l, h: max(_eotf_ref(m) - _eotf_ref(l), _eotf_ref(h) - _eotf_ref(m))
        )
        channel_bound = widen(mid, lo, hi)
        pixel_bound = np.einsum("ij,hwj->hwi", inv, channel_bound) / params.exposure_gain
        assert np.all(np.abs(recovered - z.data) <= pixel_bound + 1e-15)


class TestResidualReport:
    def test_perfect_recovery(self):
        z = make_image(np.random.default_rng(0).uniform(0, 1, (4, 4, 3)))
        report = lost_signal_residual(z, z.data.copy(), np.zeros((4, 4), bool))
        assert np.all(report.residual_map == 0.0)
        assert not report.lost_mask.any()
        assert report.clipped_fraction == 0.0
        assert report.histogram == ((0.0, 0.0, 16),)

    def test_known_clip_fraction_and_residual(self):
        # 10% of pixels at Y=0.9 clip under gain 2; recovered Y = 0.5
        data = np.full((10, 10, 3), 0.1)
        data[0, :, :] = 0.9
        z = make_image(data)
        params = RenderParams(exposure_gain=2.0, xyz_to_linear_srgb=np.eye(3),
                              quantize=False)
        report = analyze_render(z, params)
        assert report.clipped_fraction == 0.10
        clipped = data[..., 1] > 0.5
        assert np.allclose(report.residual_map[clipped], 0.4, atol=1e-12)
        assert np.allclose(report.residual_map[~clipped], 0.0, atol=1e-12)

    def test_mask_residual_consistency(self):
        z, params = _no_clip_image(3, gain=2.0)
        report = analyze_render(z, params, tau=1e-3)
        assert np.array_equal(report.lost_mask, report.residual_map > 1e-3)

    def test_histogram_counts_sum(self):
        z, _ = _no_clip_image(4)
        params = RenderParams(exposure_gain=3.0)
        report = analyze_render(z, params, bins=7)
        assert sum(c for _, _, c in report.histogram) == z.data[..., 0].size
        assert len(report.histogram) == 7

    def test_monotone_loss_in_gain(self):
        rng = np.random.default_rng(5)
        data = rng.uniform(0.0, 1.0, (8, 8, 3))
        z = make_image(data)
        masses = []
        for gain in [0.5, 1.0, 2.0, 4.0, 8.0]:
            params = RenderParams(exposure_gain=gain, xyz_to_linear_srgb=np.eye(3),
                                  quantize=False)
            masses.append(analyze_render(z, params).residual_map.sum())
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_clip_floor_bounds_p99(self):
        # >1% of pixels clip at the top: recovered p99 cannot exceed 1/e
        data = np.full((10, 10, 3), 0.2)
        data[:2, :, :] = 0.95
        z = make_image(data)
        params = RenderParams(exposure_gain=4.0, xyz_to_linear_srgb=np.eye(3),
                              quantize=False)
        report = analyze_render(z, params)
        assert report.p99_recovered <= 0.25 + 1e-12

    def test_shape_mismatch(self):
        z = make_image(np.zeros((4, 4, 3)))
        with pytest.raises(ShapeMismatch):
            lost_signal_residual(z, np.zeros((2, 2, 3)), np.zeros((4, 4), bool))

    def test_the_callers_recovered_array_is_left_in_order(self):
        z = make_image(np.random.default_rng(6).uniform(0, 1, (8, 8, 3)))
        recovered = np.random.default_rng(7).uniform(0, 1, (8, 8, 3))
        before = recovered.copy()
        report = lost_signal_residual(z, recovered, np.zeros((8, 8), bool))
        assert np.array_equal(recovered, before)
        assert report.p99_recovered == nearest_rank_percentile(before[..., 1], 99.0)

    def test_tau_and_bins_validation(self):
        z = make_image(np.zeros((4, 4, 3)))
        with pytest.raises(DomainError):
            lost_signal_residual(z, z.data, np.zeros((4, 4), bool), tau=0.0)
        with pytest.raises(DomainError):
            lost_signal_residual(z, z.data, np.zeros((4, 4), bool), bins=1)


class TestNearestRank:
    def test_matches_definition(self):
        values = np.arange(1, 101, dtype=float)
        assert nearest_rank_percentile(values, 99.0) == 99.0
        assert nearest_rank_percentile(values, 50.0) == 50.0
        assert nearest_rank_percentile(np.array([3.0]), 99.0) == 3.0

    def test_no_interpolation(self):
        values = np.array([0.0, 10.0])
        assert nearest_rank_percentile(values, 99.0) == 10.0
        assert nearest_rank_percentile(values, 40.0) == 0.0


def oracle_residual_histogram(residual: np.ndarray, bins: int) -> tuple:
    """The histogram formula with three full-size temporaries, kept as the oracle."""
    flat = np.asarray(residual, dtype=np.float64).ravel()
    top = float(flat.max()) if flat.size else 0.0
    if top == 0.0:
        return ((0.0, 0.0, int(flat.size)),)
    width = top / bins
    idx = np.minimum((flat / width).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return tuple((float(i * width), float((i + 1) * width), int(counts[i])) for i in range(bins))


class TestResidualHistogram:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("bins", [2, 7, 32])
    def test_matches_the_three_temporary_formula(self, seed, bins):
        rng = np.random.default_rng(seed)
        residual = rng.uniform(0, rng.uniform(1e-6, 3.0), (13, 17))
        # values on bin edges, the top value and zeros
        residual.flat[:bins + 1] = np.arange(bins + 1) * (residual.max() / bins)
        residual.flat[-3:] = 0.0
        assert residual_histogram(residual, bins) == oracle_residual_histogram(residual, bins)

    def test_zero_and_empty_residuals(self):
        for residual in (np.zeros((3, 4)), np.zeros((0, 5))):
            assert residual_histogram(residual, 4) == oracle_residual_histogram(residual, 4)

    def test_a_large_frame_is_binned_block_by_block(self):
        # 3 MP, not a whole number of blocks; a whole-frame int64 index array
        # alone would take 22.9 MiB
        residual = np.random.default_rng(8).uniform(0.0, 0.6, (1500, 2000))
        residual[0, :33] = np.arange(33) * (residual.max() / 32)
        tracemalloc.start()
        try:
            histogram = residual_histogram(residual, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert histogram == oracle_residual_histogram(residual, 32)


class TestReportArrays:
    def _fields(self, residual):
        return dict(clipped_fraction=0.0, p99_original=0.0, p99_recovered=0.0,
                    histogram=residual_histogram(residual, 2), tau=0.01)

    def test_a_report_built_directly_copies_its_arrays(self):
        residual = np.array([[0.0, 0.5], [0.25, 0.0]])
        mask = residual > 0.1
        report = LostSignalReport(residual_map=residual, lost_mask=mask, **self._fields(residual))
        residual[0, 0] = 1.0
        mask[0, 0] = True
        assert report.residual_map[0, 0] == 0.0 and not report.lost_mask[0, 0]
        assert not report.residual_map.flags.writeable and not report.lost_mask.flags.writeable

    def test_an_adopted_report_keeps_its_arrays_and_every_check(self):
        residual = np.array([[0.0, 0.5], [0.25, 0.0]])
        mask = residual > 0.1
        fields = dict(self._fields(residual), capture_id="c", exposure_gain=2.0, bits=8)
        report = LostSignalReport._adopt(residual_map=residual, lost_mask=mask, **fields)
        assert report.residual_map is residual and report.lost_mask is mask
        assert not residual.flags.writeable and not mask.flags.writeable
        assert report.capture_id == "c"
        with pytest.raises(ShapeMismatch):
            LostSignalReport._adopt(residual_map=np.zeros((2, 2)), lost_mask=np.zeros((2, 3), bool),
                                    **fields)
        with pytest.raises(ShapeMismatch):  # a residual plane is one luminance channel
            LostSignalReport(residual_map=np.zeros((1, 2, 2)), lost_mask=np.zeros((1, 2, 2), bool),
                             **dict(fields, histogram=((0.0, 0.0, 4),)))
        with pytest.raises(DomainError):
            LostSignalReport._adopt(residual_map=np.zeros((2, 2)), lost_mask=np.zeros((2, 2), bool),
                                    **dict(fields, clipped_fraction=1.5))
        with pytest.raises(DomainError):
            LostSignalReport._adopt(residual_map=np.zeros((3, 2)), lost_mask=np.zeros((3, 2), bool),
                                    **fields)


class TestEmitReport:
    def _report(self):
        z = make_image(np.random.default_rng(1).uniform(0, 1, (6, 6, 3)), capture_id="emit-1")
        params = RenderParams(exposure_gain=2.0)
        return analyze_render(z, params, bins=5)

    def test_files_written_and_consistent(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        summary = json.loads((tmp_path / "emit-1_summary.json").read_text())
        assert summary == summary_fields(report)
        csv_lines = (tmp_path / "emit-1_histogram.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "bin_lo,bin_hi,count"
        assert len(csv_lines) - 1 == len(report.histogram)
        assert (tmp_path / "emit-1_lost_mask.pgm").exists()
        assert (tmp_path / "emit-1_residual.f32").exists()

    def test_zero_residual_report(self, tmp_path):
        z = make_image(np.random.default_rng(0).uniform(0, 1, (4, 4, 3)), capture_id="zero-1")
        report = lost_signal_residual(z, z.data.copy(), np.zeros((4, 4), bool),
                                      capture_id="zero-1")
        emit_report(report, tmp_path)
        csv_lines = (tmp_path / "zero-1_histogram.csv").read_text().strip().splitlines()
        assert len(csv_lines) - 1 == 1  # degenerate single-bin histogram
        mask_bytes = (tmp_path / "zero-1_lost_mask.pgm").read_bytes()
        assert mask_bytes.endswith(b"\x00" * 16)

    def test_summary_reparses_to_identical_numbers(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        summary = json.loads((tmp_path / "emit-1_summary.json").read_text())
        assert summary["clipped_fraction"] == report.clipped_fraction
        assert summary["p99_original"] == report.p99_original
        assert summary["p99_recovered"] == report.p99_recovered


def test_report_invariant_checks():
    with pytest.raises(DomainError):
        LostSignalReport(
            residual_map=np.zeros((2, 2)), lost_mask=np.zeros((2, 2), bool),
            clipped_fraction=1.5, p99_original=0.0, p99_recovered=0.0,
            histogram=((0.0, 0.0, 4),), tau=0.01,
        )
    with pytest.raises(DomainError):
        LostSignalReport(
            residual_map=np.zeros((2, 2)), lost_mask=np.zeros((2, 2), bool),
            clipped_fraction=0.0, p99_original=0.0, p99_recovered=0.0,
            histogram=((0.0, 0.0, 3),), tau=0.01,
        )
