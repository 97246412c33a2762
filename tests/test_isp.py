import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import isp, measxyz
from measground.bracketsup import read_proxy
from measground.errors import DomainError, EmptyBracket, SingularMatrix
from measground.isp import (
    IDENTITY,
    SRGB_LINEAR_THRESHOLD,
    RenderedRgb,
    RenderParams,
    make_bracket,
    quantize,
    render_proxy,
    save_bracket,
    save_rendered,
    srgb_eotf,
    srgb_oetf,
)
from measground.lost_signal import analyze_render
from measground.measxyz import MeasXyzImage
from measground.records import read_render_header

from conftest import make_image, make_metadata, oracle_clip_mask, oracle_decode_ppm, oracle_encode_ppm


class TestTransfer:
    def test_fixed_points(self):
        assert srgb_oetf(0.0) == 0.0
        assert srgb_oetf(1.0) == 1.0
        assert srgb_eotf(0.0) == 0.0
        assert srgb_eotf(1.0) == 1.0

    def test_half_against_high_precision(self):
        # independent evaluation of 1.055 * 0.5**(1/2.4) - 0.055
        with mpmath.workdps(50):
            expected = mpmath.mpf("1.055") * mpmath.power(
                mpmath.mpf("0.5"), 1 / mpmath.mpf("2.4")
            ) - mpmath.mpf("0.055")
        assert srgb_oetf(0.5) == pytest.approx(0.735357, abs=1e-5)
        assert srgb_oetf(0.5) == pytest.approx(float(expected), abs=1e-12)

    def test_continuity_at_threshold(self):
        t = SRGB_LINEAR_THRESHOLD
        linear = 12.92 * t
        power = 1.055 * t ** (1 / 2.4) - 0.055
        assert abs(linear - power) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            srgb_oetf(-0.1)
        with pytest.raises(DomainError):
            srgb_oetf(1.1)
        with pytest.raises(DomainError):
            srgb_eotf(2.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_strictly_increasing(self, a, b):
        if a == b:
            return
        lo, hi = sorted((a, b))
        assert srgb_oetf(lo) < srgb_oetf(hi)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_round_trip(self, v):
        assert srgb_eotf(srgb_oetf(v)) == pytest.approx(v, abs=1e-9)


class TestQuantize:
    def test_full_scale(self):
        assert quantize(1.0, 8) == 255
        assert quantize(0.0, 8) == 0

    def test_derived_code(self):
        assert quantize(0.735357, 8) == 188

    def test_half_away_from_zero(self):
        # 0.5/255 sits exactly on a rounding boundary; half-away gives 1
        assert quantize(0.5 / 255, 8) == 1
        assert quantize(1.5 / 255, 8) == 2

    def test_bit_depths(self):
        assert quantize(1.0, 1) == 1
        assert quantize(1.0, 16) == 65535

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 16))
    def test_nondecreasing(self, a, b, bits):
        lo, hi = sorted((a, b))
        assert quantize(lo, bits) <= quantize(hi, bits)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            quantize(1.2, 8)


class TestRenderParams:
    def test_rejects_nonpositive_gain(self):
        with pytest.raises(DomainError):
            RenderParams(exposure_gain=0.0)

    def test_rejects_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            RenderParams(exposure_gain=1.0, xyz_to_linear_srgb=np.zeros((3, 3)))

    @pytest.mark.parametrize("matrix", [
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.5, 0.7, 0.9]],  # row 3 = row 1 + row 2
        [[1e-5, 0, 0], [0, 1e-5, 0], [0, 0, 1e-5]],  # determinant 1e-15
    ])
    def test_rejects_rank_deficient_matrix(self, matrix):
        assert abs(np.linalg.det(np.array(matrix))) <= 1e-12
        with pytest.raises(SingularMatrix):
            RenderParams(exposure_gain=1.0, xyz_to_linear_srgb=matrix)

    def test_rejects_bad_bit_depth(self):
        with pytest.raises(DomainError):
            RenderParams(exposure_gain=1.0, bit_depth=17)


class TestRenderProxy:
    def test_zero_image_renders_zero(self):
        z = make_image(np.zeros((4, 4, 3)))
        for params in (RenderParams(0.5), RenderParams(4.0, transfer=IDENTITY, quantize=False)):
            rendered = render_proxy(z, params)
            assert np.all(np.asarray(rendered.codes) == 0)

    def test_clip_to_full_scale(self):
        z = make_image(np.full((2, 2, 3), 0.3))
        params = RenderParams(exposure_gain=5.0, xyz_to_linear_srgb=np.eye(3))
        rendered = render_proxy(z, params)
        assert np.all(rendered.codes == 255)

    def test_identity_pipeline_is_passthrough(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 1.0, (4, 4, 3))
        z = make_image(data)
        params = RenderParams(exposure_gain=1.0, xyz_to_linear_srgb=np.eye(3),
                              transfer=IDENTITY, quantize=False)
        rendered = render_proxy(z, params)
        assert np.array_equal(rendered.codes, data)

    def test_clip_dominance(self):
        rng = np.random.default_rng(1)
        data = rng.uniform(0.0, 1.0, (6, 6, 3))
        z = make_image(data)
        params = RenderParams(exposure_gain=3.0, xyz_to_linear_srgb=np.eye(3))
        rendered = render_proxy(z, params)
        hit = 3.0 * data >= 1.0
        assert np.all(np.asarray(rendered.codes)[hit] == 255)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        z = make_image(rng.uniform(0.0, 1.0, (8, 8, 3)))
        params = RenderParams(exposure_gain=1.7)
        a = render_proxy(z, params)
        b = render_proxy(z, params)
        assert np.array_equal(a.codes, b.codes)


class TestBracket:
    def test_singleton(self):
        z = make_image(np.random.default_rng(0).uniform(0, 1, (4, 4, 3)))
        bracket = make_bracket(z, [1.0])
        single = render_proxy(z, RenderParams(exposure_gain=1.0))
        assert len(bracket) == 1
        assert np.array_equal(bracket[0].codes, single.codes)

    def test_empty_rejected(self):
        z = make_image(np.zeros((2, 2, 3)))
        with pytest.raises(EmptyBracket):
            make_bracket(z, [])

    def test_linearity_below_clip(self):
        rng = np.random.default_rng(3)
        z = make_image(rng.uniform(0.0, 0.4, (4, 4, 3)))
        a, b = make_bracket(z, [0.5, 2.0], transfer=IDENTITY, quantize=False,
                            xyz_to_linear_srgb=np.eye(3))
        assert np.array_equal(np.asarray(b.codes), 4.0 * np.asarray(a.codes))

    def test_clip_count_monotone_in_gain(self):
        rng = np.random.default_rng(4)
        z = make_image(rng.uniform(0.0, 1.0, (8, 8, 3)))
        exposures = [0.5, 1.0, 2.0, 4.0, 8.0]
        # brute-force count: pixels with any channel above 1 before clipping
        counts = [
            int(np.count_nonzero(np.any(e * z.data > 1.0, axis=-1)))
            for e in exposures
        ]
        params = [RenderParams(e, xyz_to_linear_srgb=np.eye(3)) for e in exposures]
        mask_counts = [int(np.count_nonzero(oracle_clip_mask(z, p))) for p in params]
        assert mask_counts == counts
        # the analysis's clipped fraction counts the same pixels
        assert [round(analyze_render(z, p).clipped_fraction * z.data[..., 0].size) for p in params] == counts
        assert all(a <= b for a, b in zip(mask_counts, mask_counts[1:]))

    def test_shared_capture_id_and_order(self):
        z = make_image(np.zeros((2, 2, 3)), capture_id="cap-7")
        bracket = make_bracket(z, [2.0, 0.5])
        assert [r.params.exposure_gain for r in bracket] == [2.0, 0.5]
        assert all(r.capture_id == "cap-7" for r in bracket)


class TestPpmRoundTrip:
    @pytest.mark.parametrize("bits", [1, 8, 12, 16])
    def test_round_trip_exact(self, tmp_path, bits):
        rng = np.random.default_rng(bits)
        z = MeasXyzImage(rng.uniform(0, 1, (4, 6, 3)), "rt", make_metadata(0))
        rendered = render_proxy(z, RenderParams(exposure_gain=1.3, bit_depth=bits))
        save_rendered(rendered, tmp_path / "r")
        proxy = read_proxy(tmp_path / "r")
        assert proxy.ppm == oracle_encode_ppm(rendered.codes, rendered.params.max_code)
        assert np.array_equal(oracle_decode_ppm(proxy.ppm)[0], rendered.codes)
        assert read_render_header(tmp_path / "r") == ("rt", rendered.params)
        assert (proxy.capture_id, proxy.exposure_gain) == ("rt", 1.3)

    @pytest.mark.parametrize("height", [1, 4, 5, 6, 11])
    @pytest.mark.parametrize("bits", [8, 12])
    def test_streamed_bracket_is_the_saved_bracket(self, tmp_path, monkeypatch, height, bits):
        """At stripes of 4 rows, save_bracket writes the files save_rendered
        writes for make_bracket's renders, gains of one window and of several."""
        monkeypatch.setattr(measxyz, "_STRIPE_PIXELS", 5 * 7)
        z = MeasXyzImage(np.random.default_rng(height).uniform(0, 1, (height, 7, 3)) ** 2, "sb",
                         make_metadata(0))
        gains = [0.5, 1.0, 1.5, 2.0, 4.0, 3.0]
        stems = [tmp_path / f"streamed-{i}" for i in range(len(gains))]
        save_bracket(z, stems, gains, bit_depth=bits)
        for stem, rendered in zip(stems, make_bracket(z, gains, bit_depth=bits)):
            save_rendered(rendered, tmp_path / "saved")
            for suffix in (".ppm", ".json"):
                assert Path(f"{stem}{suffix}").read_bytes() == (tmp_path / f"saved{suffix}").read_bytes()

    def test_streamed_bracket_refuses_unquantized_renders_and_a_stem_count_apart(self, tmp_path):
        from measground.errors import IoFailure

        z = MeasXyzImage(np.zeros((2, 2, 3)), "rt", make_metadata(0))
        with pytest.raises(IoFailure, match="only quantized"):
            save_bracket(z, [tmp_path / "a"], [1.0], quantize=False)
        with pytest.raises(ValueError):
            save_bracket(z, [tmp_path / "a"], [1.0, 2.0])
        with pytest.raises(EmptyBracket):
            save_bracket(z, [], [])
        assert list(tmp_path.iterdir()) == []

    def test_unquantized_rejected(self, tmp_path):
        z = MeasXyzImage(np.zeros((2, 2, 3)), "rt", make_metadata(0))
        rendered = render_proxy(z, RenderParams(exposure_gain=1.0, quantize=False))
        from measground.errors import IoFailure

        with pytest.raises(IoFailure):
            save_rendered(rendered, tmp_path / "r")


class TestRenderedCodes:
    """A RenderedRgb built from given codes holds them only if they are what a render makes."""

    @pytest.mark.parametrize("code", [2.7, -65535, -1, 256, np.nan], ids=["2.7", "-65535", "-1", "256", "nan"])
    def test_quantized_codes_that_are_not_integers_in_range_are_refused(self, code):
        """uint16 would truncate 2.7 to 2 and wrap -65535 to 1, which is below 255."""
        codes = np.zeros((1, 2, 3), dtype=np.asarray(code).dtype)
        codes[0, 1, 2] = code
        with pytest.raises(DomainError, match=r"quantized codes must be integers in \[0, 255\]"):
            RenderedRgb(codes, RenderParams(exposure_gain=1.0), "x")

    def test_integer_codes_in_range_are_kept(self):
        for codes in ([[[0, 255, 7]]], [[[0.0, 255.0, 7.0]]], np.array([[[0, 255, 7]]], np.uint16)):
            rendered = RenderedRgb(codes, RenderParams(exposure_gain=1.0), "x")
            assert rendered.codes.dtype == np.uint16 and rendered.codes.tolist() == [[[0, 255, 7]]]

    @pytest.mark.parametrize("value, named", [
        (np.nan, "unquantized codes must be finite"),
        (np.inf, "unquantized codes must be finite"),
        (1.5, r"unquantized codes must lie in \[0, 1\]"),
        (-0.5, r"unquantized codes must lie in \[0, 1\]"),
    ], ids=["nan", "inf", "1.5", "-0.5"])
    def test_unquantized_codes_outside_the_unit_range_are_refused(self, value, named):
        with pytest.raises(DomainError, match=named):
            RenderedRgb([[[value, 0.5, 0.5]]], RenderParams(exposure_gain=1.0, quantize=False), "x")

    @pytest.mark.parametrize("fn", [srgb_oetf, srgb_eotf, lambda v: quantize(v, 8)], ids=["oetf", "eotf", "quantize"])
    def test_the_transfer_curves_name_the_rule_they_refuse(self, fn):
        with pytest.raises(DomainError, match="value must be finite"):
            fn(np.array([0.5, np.nan]))
        with pytest.raises(DomainError, match=r"value must lie in \[0, 1\]"):
            fn(1.25)
