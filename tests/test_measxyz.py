import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import measxyz as measxyz_mod
from measground.capture import RawCapture, SyntheticSceneSpec, synth_capture
from measground.errors import DomainError, IoFailure, SchemaViolation
from measground.measxyz import (
    MeasXyzImage,
    demosaic_bilinear,
    load_meas_xyz,
    meas_xyz_transform,
    normalize_mosaic,
    save_meas_xyz,
    white_scale,
    write_meas_xyz,
)
from measground.records import _adopt, read_meas_xyz_header

from conftest import make_capture, make_metadata

# Independent reference demosaic: per-pixel loops with explicit mirror
# indexing (edge row/column not repeated), used to pin the vectorized
# implementation.

_TILES = {
    "RGGB": ((0, 1), (1, 2)),
    "BGGR": ((2, 1), (1, 0)),
    "GRBG": ((1, 0), (2, 1)),
    "GBRG": ((1, 2), (0, 1)),
}


def _reflect(i: int, n: int) -> int:
    if i < 0:
        return -i
    if i >= n:
        return 2 * n - 2 - i
    return i


def reference_demosaic(mosaic: np.ndarray, pattern: str) -> np.ndarray:
    tile = _TILES[pattern]
    h, w = mosaic.shape
    out = np.zeros((h, w, 3))
    for i in range(h):
        for j in range(w):
            for c in range(3):
                if tile[i % 2][j % 2] == c:
                    out[i, j, c] = mosaic[i, j]
                    continue
                values = []
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        ri, rj = _reflect(i + di, h), _reflect(j + dj, w)
                        if tile[ri % 2][rj % 2] == c:
                            values.append(mosaic[ri, rj])
                out[i, j, c] = sum(values) / len(values)
    return out


class TestNormalize:
    def test_black_maps_to_zero(self):
        capture = make_capture(0, height=2, width=2,
                               mosaic=np.full((2, 2), 64, dtype=np.uint16),
                               black_level=(64.0,) * 4, white_level=1023.0)
        assert np.all(normalize_mosaic(capture) == 0.0)

    def test_white_maps_to_one(self):
        capture = make_capture(0, height=2, width=2,
                               mosaic=np.full((2, 2), 1023, dtype=np.uint16),
                               black_level=(64.0,) * 4, white_level=1023.0)
        assert np.all(normalize_mosaic(capture) == 1.0)

    def test_direct_arithmetic(self):
        capture = make_capture(0, height=2, width=2,
                               mosaic=np.full((2, 2), 543, dtype=np.uint16),
                               black_level=(64.0,) * 4, white_level=1023.0)
        assert normalize_mosaic(capture)[0, 0] == (543 - 64) / (1023 - 64)

    def test_per_site_black_levels(self):
        capture = make_capture(0, height=2, width=2,
                               mosaic=np.full((2, 2), 500, dtype=np.uint16),
                               black_level=(0.0, 100.0, 200.0, 300.0),
                               white_level=1000.0)
        norm = normalize_mosaic(capture)
        assert norm[0, 0] == 0.5
        assert norm[0, 1] == (500 - 100) / 900
        assert norm[1, 0] == (500 - 200) / 800
        assert norm[1, 1] == (500 - 300) / 700

    def test_saturated_codes_clamp(self):
        capture = make_capture(0, height=2, width=2,
                               mosaic=np.full((2, 2), 2000, dtype=np.uint16),
                               black_level=(64.0,) * 4, white_level=1023.0)
        assert np.all(normalize_mosaic(capture) == 1.0)


class TestDemosaic:
    def test_constant_passthrough(self):
        out = demosaic_bilinear(np.full((6, 6), 0.37), "GRBG")
        assert np.abs(out - 0.37).max() < 1e-15

    @pytest.mark.parametrize("pattern", ["RGGB", "BGGR", "GRBG", "GBRG"])
    def test_periodic_red_tile(self, pattern):
        mosaic = np.zeros((8, 8))
        r_pos = {(i, j) for i in range(2) for j in range(2) if _TILES[pattern][i][j] == 0}
        for i, j in r_pos:
            mosaic[i::2, j::2] = 1.0
        out = demosaic_bilinear(mosaic, pattern)
        assert np.all(out[..., 0] == 1.0)
        assert np.all(out[..., 1] == 0.0)
        assert np.all(out[..., 2] == 0.0)

    @pytest.mark.parametrize("pattern", ["RGGB", "BGGR", "GRBG", "GBRG"])
    def test_matches_reference_on_random_mosaics(self, pattern):
        rng = np.random.default_rng(hash(pattern) % 2**32)
        for shape in [(2, 2), (4, 6), (8, 8)]:
            mosaic = rng.uniform(0.0, 1.0, shape)
            expected = reference_demosaic(mosaic, pattern)
            np.testing.assert_allclose(
                demosaic_bilinear(mosaic, pattern), expected, rtol=0, atol=1e-14
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.01, 1.0))
    def test_linearity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        mosaic = rng.uniform(0.0, 1.0, (6, 6))
        base = demosaic_bilinear(mosaic, "RGGB")
        scaled = demosaic_bilinear(alpha * mosaic, "RGGB")
        np.testing.assert_allclose(scaled, alpha * base, rtol=0, atol=1e-12)


class TestTransform:
    def test_black_capture_maps_to_zero(self):
        capture = make_capture(0, height=4, width=4,
                               mosaic=np.full((4, 4), 64, dtype=np.uint16),
                               black_level=(64.0,) * 4, white_level=1023.0)
        image = meas_xyz_transform(capture)
        assert np.all(image.data == 0.0)

    def test_identity_constant_half(self):
        # black 63, white 1023: code 543 -> exactly 0.5; S = 1 for the
        # identity matrix with unit gains
        capture = make_capture(0, height=4, width=4,
                               mosaic=np.full((4, 4), 543, dtype=np.uint16),
                               black_level=(63.0,) * 4, white_level=1023.0,
                               wb_gains=(1.0, 1.0, 1.0), cam_to_xyz=np.eye(3))
        image = meas_xyz_transform(capture)
        assert white_scale(capture) == 1.0
        assert np.all(image.data == 0.5)

    def test_white_scale_uses_max_channel(self):
        capture = make_capture(0, wb_gains=(2.0, 1.0, 1.5), cam_to_xyz=np.eye(3))
        assert white_scale(capture) == 2.0

    def test_pre_saturation_linearity(self):
        rng = np.random.default_rng(5)
        base_codes = (64 + rng.uniform(0.0, 0.45, (8, 8)) * 959).astype(np.uint16)
        scaled_codes = (64 + (base_codes - 64) * 2.0).astype(np.uint16)
        common = dict(height=8, width=8, black_level=(64.0,) * 4, white_level=1023.0,
                      wb_gains=(1.0, 1.0, 1.0), cam_to_xyz=np.eye(3))
        z1 = meas_xyz_transform(make_capture(0, mosaic=base_codes, **common))
        z2 = meas_xyz_transform(make_capture(0, mosaic=scaled_codes, **common))
        np.testing.assert_allclose(z2.data, 2.0 * z1.data, rtol=0, atol=1e-9)

    def test_output_range_property(self):
        for seed in range(25):
            image = meas_xyz_transform(make_capture(seed))
            assert image.data.min() >= 0.0
            assert image.data.max() <= 1.0
            assert np.all(np.isfinite(image.data))

    def test_determinism(self):
        capture = make_capture(9)
        a = meas_xyz_transform(capture)
        b = meas_xyz_transform(capture)
        assert np.array_equal(a.data, b.data)

    def test_neutral_axis_preserved(self):
        spec = SyntheticSceneSpec(height=8, width=8, background=0.4)
        capture = synth_capture(spec, seed=1).capture
        image = meas_xyz_transform(capture)
        assert np.abs(image.data[..., 0] - image.data[..., 1]).max() < 1e-9
        assert np.abs(image.data[..., 1] - image.data[..., 2]).max() < 1e-9

    def test_metadata_carried_through(self):
        capture = make_capture(3)
        image = meas_xyz_transform(capture)
        assert image.metadata == capture.metadata
        assert image.capture_id == capture.capture_id


class TestPlaneExport:
    def test_round_trip_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 1.0, (4, 4, 3)).astype(np.float32).astype(np.float64)
        image = MeasXyzImage(data=data, capture_id="x-1", metadata=make_metadata(1))
        save_meas_xyz(image, tmp_path / "x-1")
        loaded = load_meas_xyz(tmp_path / "x-1")
        assert np.array_equal(loaded.data, image.data)
        assert loaded.capture_id == "x-1"
        assert loaded.metadata == image.metadata

    def test_reexport_is_byte_identical(self, tmp_path):
        capture = make_capture(11)
        image = meas_xyz_transform(capture)
        save_meas_xyz(image, tmp_path / "a")
        loaded = load_meas_xyz(tmp_path / "a")
        save_meas_xyz(loaded, tmp_path / "b")
        assert (tmp_path / "a.f32").read_bytes() == (tmp_path / "b.f32").read_bytes()

    def test_header_reader_checks_size_without_reading_samples(self, tmp_path):
        image = MeasXyzImage(data=np.zeros((2, 4, 3)), capture_id="x-2", metadata=make_metadata(2))
        save_meas_xyz(image, tmp_path / "x-2")
        header = read_meas_xyz_header(tmp_path / "x-2")
        assert (header.capture_id, header.metadata, header.shape) == ("x-2", image.metadata, (2, 4, 3))
        with (tmp_path / "x-2.f32").open("ab") as fh:
            fh.write(b"\0")
        for reader in (read_meas_xyz_header, load_meas_xyz):
            with pytest.raises(IoFailure, match="does not match header dimensions"):
                reader(tmp_path / "x-2")

    def test_load_with_a_header_read_earlier_reads_no_header(self, tmp_path):
        image = MeasXyzImage(data=np.full((2, 4, 3), 0.25), capture_id="x-4", metadata=make_metadata(4))
        save_meas_xyz(image, tmp_path / "x-4")
        header = read_meas_xyz_header(tmp_path / "x-4")
        (tmp_path / "x-4.json").unlink()
        loaded = load_meas_xyz(tmp_path / "x-4", header)
        assert np.array_equal(loaded.data, image.data)
        assert (loaded.capture_id, loaded.metadata) == ("x-4", image.metadata)

    def test_header_reader_names_missing_key(self, tmp_path):
        image = MeasXyzImage(data=np.zeros((2, 2, 3)), capture_id="x-3", metadata=make_metadata(3))
        save_meas_xyz(image, tmp_path / "x-3")
        header = json.loads((tmp_path / "x-3.json").read_text())
        del header["capture_id"]
        (tmp_path / "x-3.json").write_text(json.dumps(header))
        for reader in (read_meas_xyz_header, load_meas_xyz):
            with pytest.raises(SchemaViolation, match="plane header: missing key 'capture_id'"):
                reader(tmp_path / "x-3")

    @pytest.mark.parametrize("height", [2, 30, 32, 34, 98])
    def test_streamed_pair_is_the_saved_transform(self, tmp_path, monkeypatch, height):
        """At stripes of 32 rows (16 pixel columns), the pair written stripe by
        stripe holds the bytes save_meas_xyz writes for the transformed image."""
        monkeypatch.setattr(measxyz_mod, "_STRIPE_PIXELS", 32 * 16)
        capture = make_capture(height, height=height, width=16)
        write_meas_xyz(capture, tmp_path / "streamed")
        save_meas_xyz(meas_xyz_transform(capture), tmp_path / "saved")
        for suffix in (".f32", ".json"):
            assert (tmp_path / f"streamed{suffix}").read_bytes() == (tmp_path / f"saved{suffix}").read_bytes()

    def test_streamed_pair_refuses_a_nan_stripe_and_leaves_no_file(self, tmp_path):
        # inf - inf in the matrix product: every value is NaN, refused before a row is
        # written. The capture is adopted, past the calibration rule, which refuses the
        # white when BLAS sums its first row to NaN and not to -inf
        matrix = np.array([[1e308, -1e308, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        capture = _adopt(RawCapture, **vars(make_capture(1, height=4, width=4))
                         | dict(wb_gains=(4.0, 4.0, 1.0), cam_to_xyz=matrix))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError, match="must be finite"):
            write_meas_xyz(capture, tmp_path / "x")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            MeasXyzImage(data=np.full((2, 2, 3), 1.5), capture_id="x",
                         metadata=make_metadata(0))


class TestImageOwnership:
    """A library caller's array is copied and left alone; the package's own
    constructors hand over the arrays they built, with no copy."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """The arrays the shape/range check receives, in order."""
        arrays = []
        freeze = MeasXyzImage._freeze
        monkeypatch.setattr(MeasXyzImage, "_freeze", lambda image: arrays.append(image.data) or freeze(image))
        return arrays

    def test_caller_array_is_copied_frozen_and_checked_once(self, checked):
        data = np.full((2, 3, 3), 0.25)
        image = MeasXyzImage(data=data, capture_id="x", metadata=make_metadata(0))
        assert len(checked) == 1
        assert not image.data.flags.writeable
        assert data.flags.writeable
        data[0, 0, 0] = 0.75
        assert image.data[0, 0, 0] == 0.25

    def test_load_holds_the_plane_once(self, tmp_path, checked):
        rng = np.random.default_rng(1)
        image = MeasXyzImage(data=rng.uniform(0.0, 1.0, (128, 128, 3)), capture_id="x",
                             metadata=make_metadata(0))
        save_meas_xyz(image, tmp_path / "x")
        checked.clear()
        tracemalloc.start()
        try:
            loaded = load_meas_xyz(tmp_path / "x")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the plane is the float32 file bytes, read once; a copy of them, or
        # their float64 widening, would take the peak to twice their size or more
        assert loaded.data.dtype == np.float32
        assert peak < 1.25 * loaded.data.nbytes
        assert [a is loaded.data for a in checked] == [True]
        assert not loaded.data.flags.writeable

    def test_transform_checks_its_own_array_once(self, checked):
        image = meas_xyz_transform(make_capture(3))
        assert [a is image.data for a in checked] == [True]
        assert not image.data.flags.writeable
