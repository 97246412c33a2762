import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import formats
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
    DegenerateCalibration,
    DimensionMismatch,
    InvalidSpec,
    MalformedMosaic,
    MalformedSidecar,
    MissingFile,
)
from measground.measxyz import _stripe_step, demosaic_bilinear, normalize_mosaic

from conftest import make_capture, oracle_synth_mosaic


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

    @pytest.mark.parametrize("key, numeric_string", [
        ("black_level", lambda black: [str(b) for b in black]),
        ("black_level", lambda black: str(black[0])),
        ("wb_gains", lambda wb: [str(wb[0])] + wb[1:]),
        ("white_level", str),
        ("cam_to_xyz", lambda m: [m[0], [m[1][0], str(m[1][1]), m[1][2]], m[2]]),
        ("wb_gains", lambda wb: [True] + wb[1:]),
    ], ids=["black_level", "scalar_black_level", "wb_gains", "white_level", "cam_to_xyz",
            "wb_gains_bool"])
    def test_numeric_that_is_not_a_json_number_rejected(self, tmp_path, key, numeric_string):
        """float() would read each of these values; the sidecar holds JSON numbers only."""
        bundle = self._write_valid(tmp_path)
        self._mutate_sidecar(bundle, lambda s: s.update({key: numeric_string(s[key])}))
        with pytest.raises(MalformedSidecar, match=f"capture.json: sidecar.{key}: expected "):
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
        bundle = self._write_valid(tmp_path)
        header = b"P5\n3 2\n65535\n"
        (bundle / "mosaic.pgm").write_bytes(header + b"\x00" * 12)
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


_SYNTH_WIDTH = 256
_SYNTH_STEP = _stripe_step(_SYNTH_WIDTH)  # the rows of a Meas.-XYZ stripe, 128


def _edge_crossing_spec(height: int, noise_sigma: float) -> SyntheticSceneSpec:
    """A scene whose patches cross every stripe edge at odd and even rows and
    whose codes clip at 0 and at 65535; the black level differs per CFA site."""
    patches = [ScenePatch(top=0, left=3, height=1, width=9, gain=300.0),  # above 65535
               ScenePatch(top=height - 1, left=200, height=1, width=50, gain=0.001)]
    for edge in range(_SYNTH_STEP, height, _SYNTH_STEP):
        patches += [ScenePatch(top=edge - 3, left=10, height=min(6, height - edge + 3), width=100, gain=3.5),
                    ScenePatch(top=edge - 2, left=120, height=3, width=7, gain=0.002)]
    return SyntheticSceneSpec(height=height, width=_SYNTH_WIDTH, background=0.25, patches=tuple(patches),
                              noise_sigma=noise_sigma, black_level=(0.0, 2.5, 64.0, 60.0), white_level=1000.5)


class TestStripedSynth:
    """The striped mosaic is the whole-frame formula's, bit for bit: each stripe's
    noise continues the one generator's stream."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("height", [2, _SYNTH_STEP - 2, _SYNTH_STEP, _SYNTH_STEP + 2, 3 * _SYNTH_STEP + 2])
    def test_mosaic_is_the_whole_frame_formulas(self, height, noise_sigma, seed):
        spec = _edge_crossing_spec(height, noise_sigma)
        synthetic = synth_capture(spec, seed=seed)
        expected = oracle_synth_mosaic(spec, seed)
        assert np.array_equal(synthetic.capture.mosaic, expected)
        if height > 2:  # both clips are reached
            assert expected.max() == 65535 and (noise_sigma < 0.3 or expected.min() == 0)
        assert synthetic.scene.shape == (height, _SYNTH_WIDTH)


def test_metadata_requires_positive_fields():
    with pytest.raises(MalformedSidecar):
        CameraMetadata(iso=0.0, exposure_time=0.01, aperture=2.8, device_id="d")
    with pytest.raises(MalformedSidecar):
        CameraMetadata(iso=100.0, exposure_time=0.01, aperture=2.8, device_id="")


def test_mosaic_is_immutable():
    capture = make_capture(0)
    with pytest.raises(ValueError):
        capture.mosaic[0, 0] = 1


@pytest.mark.parametrize("mosaic", [
    [[0, 0], [70000, 0]], [[0, 0], [-1, 0]], [[0, 0], [-1.0, 0]], [[0, 0], [2.7, 0]],
    [[0, 0], [np.nan, 0]], [[0, 0], [np.inf, 0]],
], ids=["70000", "-1", "-1.0", "2.7", "nan", "inf"])
def test_a_mosaic_code_that_is_not_a_16_bit_integer_is_refused(mosaic):
    """uint16 would wrap 70000 to 4464 and -1 to 65535, and truncate 2.7 to 2."""
    with pytest.raises(MalformedMosaic, match=r"mosaic codes must be integers in \[0, 65535\]"):
        make_capture(0, mosaic=np.array(mosaic))


def test_integer_mosaic_codes_of_any_dtype_are_kept():
    for mosaic in ([[0, 65535], [2, 3]], [[0.0, 65535.0], [2.0, 3.0]], np.array([[0, 65535], [2, 3]], ">u2")):
        capture = make_capture(0, mosaic=mosaic)
        assert capture.mosaic.dtype == np.uint16
        assert capture.mosaic.tolist() == [[0, 65535], [2, 3]]


@pytest.mark.parametrize("overrides, named", [
    (dict(black_level=(1.0, 2.0, 3.0)), "black_level must have 4 entries"),
    (dict(cam_to_xyz=np.where(np.eye(3) == 1, np.nan, 0.0)), "cam_to_xyz must be a finite 3x3 matrix"),
    (dict(cam_to_xyz=np.diag([np.inf, 1.0, 1.0])), "cam_to_xyz must be a finite 3x3 matrix"),
    # the cofactor expansion overflows to inf - inf
    (dict(cam_to_xyz=np.array([[1e200, 1e200, 0.0], [1e200, 1e200, 0.0], [0.0, 0.0, 1.0]])),
     "cam_to_xyz is singular"),
], ids=["three_black_levels", "nan_matrix", "inf_matrix", "nan_determinant"])
def test_a_capture_refuses_malformed_calibration(overrides, named):
    with pytest.raises(MalformedSidecar, match=named):
        make_capture(0, **overrides)


@pytest.mark.parametrize("overrides", [
    dict(cam_to_xyz=-np.eye(3)),
    dict(cam_to_xyz=np.diag([1e308, 1.0, 1.0]), wb_gains=(4.0, 1.0, 1.0)),
    dict(cam_to_xyz=-np.eye(3), mosaic=np.zeros((3, 3), np.uint16)),
], ids=["white_below_zero", "infinite_white", "before_the_mosaic_shape"])
def test_a_capture_refuses_a_white_that_maps_to_no_finite_positive_value(overrides):
    with pytest.raises(DegenerateCalibration, match="white maps to no finite positive XYZ value"):
        make_capture(0, **overrides)


# --- the mosaic, held once ----------------------------------------------------------------

_PEAK_SHAPE = (1024, 1024)
_PIXELS = _PEAK_SHAPE[0] * _PEAK_SHAPE[1]


def _traced_peak(fn):
    """fn()'s result and the peak bytes it allocated, all of it alive at the peak or not."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bundle_load_peaks_at_one_mosaic(tmp_path, monkeypatch):
    save_capture_bundle(make_capture(6, *_PEAK_SHAPE), tmp_path / "b")
    read = []
    read_pgm16 = formats.read_pgm16
    monkeypatch.setattr(formats, "read_pgm16", lambda path: read.append(read_pgm16(path)) or read[-1])
    capture, peak = _traced_peak(lambda: load_capture_bundle(tmp_path / "b"))
    # the capture adopts the array read from the file, which is the file's
    # bytes (2 B/px); the bytes beside their conversion, or a copy of the
    # mosaic for the capture, would take the peak to 4 B/px
    assert [np.shares_memory(capture.mosaic, mosaic) for mosaic in read] == [True]
    assert not capture.mosaic.flags.writeable
    assert peak <= 2.25 * _PIXELS, peak / _PIXELS


def test_synth_capture_peaks_without_a_mosaic_copy():
    spec = SyntheticSceneSpec(height=_PEAK_SHAPE[0], width=_PEAK_SHAPE[1], noise_sigma=0.01,
                              patches=(ScenePatch(top=100, left=200, height=300, width=400, gain=3.5),))
    synth_capture(SyntheticSceneSpec(), seed=1)  # the first call imports measxyz: untraced
    synthetic, peak = _traced_peak(lambda: synth_capture(spec, seed=1))
    # the float64 scene (8 B/px), the uint16 codes the capture adopts (2 B/px)
    # and two stripe buffers; a copy of the codes for the capture is 2 B/px more
    assert synthetic.capture.mosaic.dtype == np.uint16
    assert peak <= 11.0 * _PIXELS, peak / _PIXELS
