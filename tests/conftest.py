from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from measground.capture import CameraMetadata, RawCapture
from measground.isp import RenderParams
from measground.measxyz import MeasXyzImage
from measground.records import LostSignalSummary


def make_metadata(seed: int = 0, **overrides) -> CameraMetadata:
    rng = np.random.default_rng(seed)
    fields = dict(
        iso=float(rng.uniform(50, 6400)),
        exposure_time=float(rng.uniform(1 / 8000, 1.0)),
        aperture=float(rng.uniform(1.0, 22.0)),
        device_id=f"device-{seed % 7}",
        scene_id=f"scene-{seed % 5}",
        session_id=f"session-{seed % 3}",
    )
    fields.update(overrides)
    return CameraMetadata(**fields)


def make_capture(seed: int = 0, height: int | None = None, width: int | None = None, **overrides) -> RawCapture:
    rng = np.random.default_rng(seed)
    h = height if height is not None else 2 * int(rng.integers(1, 5))
    w = width if width is not None else 2 * int(rng.integers(1, 5))
    black = tuple(float(b) for b in rng.uniform(0.0, 200.0, 4))

    def draw_matrix():
        matrix = rng.normal(0.0, 0.4, (3, 3)) + np.eye(3)
        while abs(np.linalg.det(matrix)) < 1e-3:
            matrix = rng.normal(0.0, 0.4, (3, 3)) + np.eye(3)
        return matrix

    matrix = draw_matrix()
    fields = dict(
        capture_id=f"cap-{seed:06d}",
        mosaic=rng.integers(0, 65536, (h, w)).astype(np.uint16),
        cfa_pattern=("RGGB", "BGGR", "GRBG", "GBRG")[seed % 4],
        black_level=black,
        white_level=float(rng.uniform(max(black) + 1.0, 65535.0)),
        wb_gains=tuple(float(g) for g in rng.uniform(0.5, 2.5, 3)),
        cam_to_xyz=matrix,
        metadata=make_metadata(seed),
        raw_path=f"/raw/{seed:06d}.dng",
    )
    # the calibration rule refuses a white that a random matrix maps to no positive
    # value; the matrix is redrawn after every other draw, so each other seed keeps its capture
    while not (fields["cam_to_xyz"] @ np.asarray(fields["wb_gains"])).max() > 1e-12:
        fields["cam_to_xyz"] = draw_matrix()
    fields.update(overrides)
    return RawCapture(**fields)


def make_image(data: np.ndarray, capture_id: str = "img-0", seed: int = 0) -> MeasXyzImage:
    return MeasXyzImage(data=data, capture_id=capture_id, metadata=make_metadata(seed))


def summary_fields(report) -> dict:
    """The fields of a lost-signal report that its summary record holds."""
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(LostSignalSummary)}


# --- whole-frame synthetic mosaic oracle ---------------------------------------------
# The mosaic codes of a synthetic scene as synth_capture computed them over the
# whole frame, before the striped pass: its codes must match them bit for bit.

def oracle_synth_mosaic(spec, seed: int) -> np.ndarray:
    """clip(floor((black + scene * span) + noise * span + 0.5), 0, 65535) as uint16."""
    scene = np.full((spec.height, spec.width), spec.background, dtype=np.float64)
    for p in spec.patches:
        scene[p.top:p.top + p.height, p.left:p.left + p.width] *= p.gain
    rng = np.random.default_rng(seed)
    tile = np.asarray(spec.black_level, dtype=np.float64).reshape(2, 2)
    black_map = np.tile(tile, (spec.height // 2, spec.width // 2))
    span = spec.white_level - black_map
    codes = black_map + scene * span
    if spec.noise_sigma > 0:
        codes = codes + rng.normal(0.0, spec.noise_sigma, scene.shape) * span
    return np.clip(np.floor(codes + 0.5), 0, 65535).astype(np.uint16)


# --- whole-frame render and PPM oracles ---------------------------------------------
# The render's pre-clip linear RGB and top-clip mask over a whole frame, as the
# numeric core computed them before the striped pass, and a plain P6 encoder and
# decoder. The striped render and analysis, the PPM files written and the PPM
# bytes sent to the annotator must match them bit for bit.

def oracle_linear_rgb(z: MeasXyzImage, params: RenderParams) -> np.ndarray:
    """Pre-clip linear RGB of the render: matrix @ (gain * xyz)."""
    return np.einsum("ij,hwj->hwi", params.matrix, params.exposure_gain * z.data)


def oracle_top_clipped(rgb: np.ndarray) -> np.ndarray:
    """(H, W) mask of linear RGB pixels with any channel above 1."""
    return np.any(rgb > 1.0, axis=-1)


def oracle_clip_mask(z: MeasXyzImage, params: RenderParams) -> np.ndarray:
    """(H, W) mask of pixels with any channel clipped at the top (value > 1)."""
    return oracle_top_clipped(oracle_linear_rgb(z, params))


def oracle_encode_ppm(codes: np.ndarray, maxval: int) -> bytes:
    """Integer (H, W, 3) codes as binary P6 bytes with the given maxval, one
    byte per sample up to maxval 255 and two big-endian bytes above."""
    codes = np.asarray(codes)
    assert codes.ndim == 3 and codes.shape[2] == 3
    height, width = codes.shape[:2]
    header = f"P6\n{width} {height}\n{maxval}\n".encode("ascii")
    return header + codes.astype(">u2" if maxval > 255 else np.uint8).tobytes()


def oracle_decode_ppm(ppm: bytes) -> tuple[np.ndarray, int]:
    """The uint16 (H, W, 3) samples and maxval of P6 bytes in ``oracle_encode_ppm``'s header form."""
    magic, size, maxval, payload = ppm.split(b"\n", 3)
    assert magic == b"P6"
    width, height = (int(n) for n in size.split())
    dtype = ">u2" if int(maxval) > 255 else np.uint8
    return np.frombuffer(payload, dtype=dtype).reshape(height, width, 3).astype(np.uint16), int(maxval)


@pytest.fixture
def metadata():
    return make_metadata(0)
