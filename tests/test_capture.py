import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground.capture import (
    CameraMetadata,
    ScenePatch,
    SyntheticSceneSpec,
    load_capture_bundle,
    read_bundle_sidecar,
    save_capture_bundle,
    synth_capture,
)
from measground.errors import (
    DimensionMismatch,
    InvalidSpec,
    MalformedMosaic,
    MalformedSidecar,
    MissingFile,
)
from measground.measxyz import demosaic_bilinear, normalize_mosaic

from conftest import make_capture


def _assert_captures_equal(a, b):
    assert a.capture_id == b.capture_id
    assert np.array_equal(a.mosaic, b.mosaic)
    assert a.cfa_pattern == b.cfa_pattern
    assert a.black_level == b.black_level
    assert a.white_level == b.white_level
    assert a.wb_gains == b.wb_gains
    assert np.array_equal(a.cam_to_xyz, b.cam_to_xyz)
    assert a.metadata == b.metadata
    assert a.raw_path == b.raw_path


class TestBundleRoundTrip:
    def test_written_fields_load_back(self, tmp_path):
        capture = make_capture(
            1, height=4, width=4,
            black_level=(64.0, 64.0, 64.0, 64.0), white_level=1023.0,
            cfa_pattern="RGGB",
        )
        save_capture_bundle(capture, tmp_path / "b")
        loaded = load_capture_bundle(tmp_path / "b")
        _assert_captures_equal(capture, loaded)

    def test_load_with_a_sidecar_read_earlier_reads_no_sidecar(self, tmp_path):
        capture = make_capture(4, height=4, width=6)
        save_capture_bundle(capture, tmp_path / "b")
        sidecar = read_bundle_sidecar(tmp_path / "b")
        (tmp_path / "b" / "capture.json").unlink()
        _assert_captures_equal(capture, load_capture_bundle(tmp_path / "b", sidecar))

    def test_boundary_code_survives(self, tmp_path):
        mosaic = np.full((2, 2), 65535, dtype=np.uint16)
        capture = make_capture(2, height=2, width=2, mosaic=mosaic)
        save_capture_bundle(capture, tmp_path / "b")
        assert load_capture_bundle(tmp_path / "b").mosaic.max() == 65535

    def test_matrix_entry_full_precision(self, tmp_path):
        matrix = np.eye(3)
        matrix[0, 1] = -0.1234567
        capture = make_capture(3, cam_to_xyz=matrix)
        save_capture_bundle(capture, tmp_path / "b")
        loaded = load_capture_bundle(tmp_path / "b")
        assert loaded.cam_to_xyz[0, 1] == -0.1234567

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_identity_property(self, seed, tmp_path_factory):
        capture = make_capture(seed)
        path = tmp_path_factory.mktemp("bundle")
        save_capture_bundle(capture, path / "b")
        _assert_captures_equal(capture, load_capture_bundle(path / "b"))


class TestBundleValidation:
    def _write_valid(self, tmp_path):
        save_capture_bundle(make_capture(7), tmp_path / "b")
        return tmp_path / "b"

    def _mutate_sidecar(self, bundle, fn):
        sidecar = json.loads((bundle / "capture.json").read_text())
        fn(sidecar)
        (bundle / "capture.json").write_text(json.dumps(sidecar))

    def test_missing_mosaic(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        (bundle / "mosaic.pgm").unlink()
        with pytest.raises(MissingFile):
            load_capture_bundle(bundle)

    def test_missing_sidecar(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        (bundle / "capture.json").unlink()
        with pytest.raises(MissingFile):
            load_capture_bundle(bundle)

    def test_zero_iso_rejected(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        self._mutate_sidecar(bundle, lambda s: s["metadata"].update(iso=0))
        with pytest.raises(MalformedSidecar):
            load_capture_bundle(bundle)

    def test_singular_matrix_rejected(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        self._mutate_sidecar(bundle, lambda s: s.update(cam_to_xyz=[[0.0] * 3] * 3))
        with pytest.raises(MalformedSidecar):
            load_capture_bundle(bundle)

    def test_unknown_cfa_rejected(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        self._mutate_sidecar(bundle, lambda s: s.update(cfa_pattern="XYZW"))
        with pytest.raises(MalformedSidecar):
            load_capture_bundle(bundle)

    def test_unknown_key_rejected(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        self._mutate_sidecar(bundle, lambda s: s.update(lens="50mm"))
        with pytest.raises(MalformedSidecar):
            load_capture_bundle(bundle)

    def test_white_not_above_black_rejected(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        self._mutate_sidecar(bundle, lambda s: s.update(black_level=500, white_level=400))
        with pytest.raises(MalformedSidecar):
            load_capture_bundle(bundle)

    def test_scalar_black_level_expands(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        self._mutate_sidecar(bundle, lambda s: s.update(black_level=32))
        assert load_capture_bundle(bundle).black_level == (32.0,) * 4

    def test_truncated_pgm_rejected(self, tmp_path):
        bundle = self._write_valid(tmp_path)
        raw = (bundle / "mosaic.pgm").read_bytes()
        (bundle / "mosaic.pgm").write_bytes(raw[:-3])
        with pytest.raises(MalformedMosaic):
            load_capture_bundle(bundle)

    def test_odd_dimensions_rejected(self, tmp_path):
        bundle = tmp_path / "b"
        bundle.mkdir()
        header = b"P5\n3 2\n65535\n"
        (bundle / "mosaic.pgm").write_bytes(header + b"\x00" * 12)
        sidecar = make_capture(7).sidecar_dict()
        (bundle / "capture.json").write_text(json.dumps(sidecar))
        with pytest.raises(DimensionMismatch):
            load_capture_bundle(bundle)


class TestSynthCapture:
    def test_flat_scene_demosaics_to_level(self):
        spec = SyntheticSceneSpec(height=8, width=8, background=0.5, white_level=1024.0,
                                  black_level=(64.0,) * 4)
        synthetic = synth_capture(spec, seed=0)
        norm = normalize_mosaic(synthetic.capture)
        rgb = demosaic_bilinear(norm, "RGGB")
        assert np.abs(rgb - 0.5).max() < 1e-6

    def test_determinism(self):
        spec = SyntheticSceneSpec(noise_sigma=0.01)
        a = synth_capture(spec, seed=42)
        b = synth_capture(spec, seed=42)
        assert np.array_equal(a.capture.mosaic, b.capture.mosaic)
        assert np.array_equal(a.scene, b.scene)

    def test_different_seeds_differ(self):
        spec = SyntheticSceneSpec(noise_sigma=0.01)
        a = synth_capture(spec, seed=1)
        b = synth_capture(spec, seed=2)
        assert not np.array_equal(a.capture.mosaic, b.capture.mosaic)

    def test_patch_scales_background(self):
        patch = ScenePatch(top=2, left=2, height=4, width=4, gain=3.0)
        spec = SyntheticSceneSpec(height=8, width=8, background=0.2, patches=(patch,))
        synthetic = synth_capture(spec, seed=0)
        assert synthetic.scene[3, 3] == pytest.approx(0.6)
        assert synthetic.scene[0, 0] == pytest.approx(0.2)

    def test_bright_patch_saturates_codes(self):
        # patch radiance 3 * 0.5 > 1: codes clip at the sensor ceiling
        patch = ScenePatch(top=0, left=0, height=2, width=2, gain=3.0)
        spec = SyntheticSceneSpec(height=4, width=4, background=0.5,
                                  white_level=1023.0, black_level=(64.0,) * 4,
                                  patches=(patch,))
        synthetic = synth_capture(spec, seed=0)
        norm = normalize_mosaic(synthetic.capture)
        assert norm[0, 0] == 1.0

    def test_patch_out_of_bounds(self):
        patch = ScenePatch(top=6, left=0, height=4, width=4, gain=2.0)
        with pytest.raises(InvalidSpec):
            SyntheticSceneSpec(height=8, width=8, patches=(patch,))


def test_metadata_requires_positive_fields():
    with pytest.raises(MalformedSidecar):
        CameraMetadata(iso=0.0, exposure_time=0.01, aperture=2.8, device_id="d")
    with pytest.raises(MalformedSidecar):
        CameraMetadata(iso=100.0, exposure_time=0.01, aperture=2.8, device_id="")


def test_mosaic_is_immutable():
    capture = make_capture(0)
    with pytest.raises(ValueError):
        capture.mosaic[0, 0] = 1
