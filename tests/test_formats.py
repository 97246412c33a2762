"""Every writer in ``formats`` writes the bytes of the formula it replaced,
``header + payload.astype(...).tobytes()``, kept here as the oracle, whatever
the memory layout of its input; a failed write raises IoFailure naming the
path; and the mask, mosaic and render files the pipeline writes keep their
bytes."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import capture, formats, isp, lost_signal
from measground.errors import IoFailure, MalformedMosaic, SchemaViolation
from measground.records import RenderParams

from conftest import make_capture, oracle_encode_ppm


def oracle_pgm(data: np.ndarray, maxval: int) -> bytes:
    data = np.asarray(data)
    height, width = data.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    return header + data.astype(">u2" if maxval > 255 else np.uint8).tobytes()


def oracle_plane(data: np.ndarray) -> bytes:
    return np.asarray(data, dtype=np.float64).astype("<f4", order="C").tobytes()


def _layouts(array: np.ndarray):
    """``array`` in C order, Fortran order and as the transpose of a C array."""
    transposed = np.ascontiguousarray(np.swapaxes(array, 0, 1)).swapaxes(0, 1)
    assert not transposed.flags.c_contiguous or array.shape[0] == 1
    fortran = np.asfortranarray(array)
    assert not fortran.flags.c_contiguous
    return {"c": array, "fortran": fortran, "transposed": transposed}


LAYOUTS = ["c", "fortran", "transposed"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_pgm16(tmp_path, layout):
    data = np.random.default_rng(0).integers(0, 65536, (5, 7)).astype(np.uint16)
    data = _layouts(data)[layout]
    formats.write_pnm(tmp_path / "m.pgm", data, 65535)
    assert (tmp_path / "m.pgm").read_bytes() == oracle_pgm(data, 65535)
    assert np.array_equal(formats.read_pgm16(tmp_path / "m.pgm"), data)


@pytest.mark.parametrize("header", [b"P5\n7 5\n65535\n", b"P5  7 5 65535\n", b"P5\n# c\n7 5 65535\n"],
                         ids=["odd", "even", "comment"])
def test_pgm16_samples_at_any_header_length_are_read_in_place(tmp_path, header):
    data = np.random.default_rng(1).integers(0, 65536, (5, 7)).astype(np.uint16)
    (tmp_path / "m.pgm").write_bytes(header + data.astype(">u2").tobytes())
    mosaic = formats.read_pgm16(tmp_path / "m.pgm")
    assert np.array_equal(mosaic, data) and mosaic.dtype == np.uint16
    # moved to an even offset, not copied: the array is a view of the file's buffer
    assert mosaic.flags.aligned and not mosaic.flags.owndata


@pytest.mark.parametrize("layout", LAYOUTS)
def test_pgm8(tmp_path, layout):
    data = (np.random.default_rng(1).uniform(0, 1, (6, 3)) > 0.5).astype(np.uint8) * 255
    data = _layouts(data)[layout]
    formats.write_pnm(tmp_path / "m.pgm", data, 255)
    assert (tmp_path / "m.pgm").read_bytes() == oracle_pgm(data, 255)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("maxval, dtype", [(255, np.uint8), (255, np.uint16), (4095, np.uint16),
                                           (65535, np.uint16)])
def test_ppm(tmp_path, layout, maxval, dtype):
    codes = np.random.default_rng(maxval).integers(0, maxval + 1, (4, 5, 3)).astype(dtype)
    codes = _layouts(codes)[layout]
    formats.write_pnm(tmp_path / "p.ppm", codes, maxval)
    written = (tmp_path / "p.ppm").read_bytes()
    assert written == oracle_encode_ppm(codes, maxval)
    assert formats.read_ppm_bytes(tmp_path / "p.ppm") == (written, maxval)


# --- the PNM files the pipeline writes, pinned to their bytes ----------------------

def _mask(tmp_path):
    """A lost-signal mask: P5, maxval 255, 255 where the residual exceeds tau."""
    residual = np.array([[0.0, 0.5, 0.25], [0.05, 0.0, 1.0]])
    report = lost_signal.LostSignalReport(
        residual_map=residual, lost_mask=residual > 0.1, clipped_fraction=0.0, p99_original=1.0,
        p99_recovered=1.0, histogram=lost_signal.residual_histogram(residual, 2), tau=0.1, capture_id="c")
    lost_signal.emit_report(report, tmp_path)
    return tmp_path / "c_lost_mask.pgm", b"P5\n3 2\n255\n\x00\xff\xff\x00\x00\xff"


def _mosaic(tmp_path):
    """A capture mosaic: P5, maxval 65535, two big-endian bytes per sample."""
    mosaic = np.array([[0, 1, 256, 65535], [0x1234, 2, 3, 4]], np.uint16)
    capture.save_capture_bundle(make_capture(0, mosaic=mosaic), tmp_path / "b")
    return tmp_path / "b" / "mosaic.pgm", (b"P5\n4 2\n65535\n"
                                           b"\x00\x00\x00\x01\x01\x00\xff\xff\x12\x34\x00\x02\x00\x03\x00\x04")


def _render(bits, codes, expected):
    """A render: P6, maxval 2^bits - 1, one byte per sample up to 8 bits, two above."""
    def write(tmp_path):
        params = RenderParams(exposure_gain=2.0, bit_depth=bits)
        isp.save_rendered(isp.RenderedRgb(np.array(codes, np.uint16), params, "c"), tmp_path / "c_e2")
        return tmp_path / "c_e2.ppm", expected
    write.__name__ = f"_render{bits}"
    return write


@pytest.mark.parametrize("write", [
    _mask, _mosaic,
    _render(8, [[[0, 1, 2], [253, 254, 255]]], b"P6\n2 1\n255\n\x00\x01\x02\xfd\xfe\xff"),
    _render(16, [[[0, 1, 65535]], [[256, 0x1234, 1000]]],
            b"P6\n1 2\n65535\n\x00\x00\x00\x01\xff\xff\x01\x00\x12\x34\x03\xe8"),
], ids=lambda write: write.__name__.lstrip("_"))
def test_written_pnm_files_keep_their_bytes(tmp_path, write):
    path, expected = write(tmp_path)
    assert path.read_bytes() == expected


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", [(5, 6), (5, 6, 3)])
def test_plane(tmp_path, layout, shape):
    data = _layouts(np.random.default_rng(2).uniform(-1, 1, shape))[layout]
    channels = 1 if len(shape) == 2 else shape[2]
    header = {"capture_id": "x", "height": shape[0], "width": shape[1], "channels": channels}
    formats.write_plane(tmp_path / "x", data, header)
    assert (tmp_path / "x.f32").read_bytes() == oracle_plane(data)
    assert (tmp_path / "x.json").read_text() == json.dumps(header, sort_keys=True) + "\n"
    loaded = formats.read_plane(tmp_path / "x", shape)
    assert np.array_equal(loaded, data.astype(np.float32).astype(np.float64))
    assert loaded.dtype == np.float32 and not loaded.flags.writeable


@pytest.mark.parametrize("change", ["short", "long"])
def test_plane_payload_of_another_size_is_refused(tmp_path, change):
    formats.write_plane(tmp_path / "x", np.zeros((2, 3)), {})
    payload = (tmp_path / "x.f32").read_bytes()
    (tmp_path / "x.f32").write_bytes(payload[:-1] if change == "short" else payload + b"\0")
    with pytest.raises(IoFailure, match="plane payload does not match header dimensions"):
        formats.read_plane(tmp_path / "x", (2, 3))


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", [(5, 6), (5, 6, 3)])
# one block for the whole plane; blocks of two rows, the last of one; a row per block
@pytest.mark.parametrize("dtype, block_values", [(np.float32, None), (np.float64, 40), (np.float32, 40),
                                                 (np.float64, 1), (np.float32, 1)])
def test_plane_blocks_write_the_whole_frame_bytes(tmp_path, layout, shape, dtype, block_values, monkeypatch):
    if block_values is not None:
        monkeypatch.setattr(formats, "_PLANE_BLOCK_VALUES", block_values)
    data = _layouts(np.random.default_rng(2).uniform(-1, 1, shape).astype(dtype))[layout]
    formats.write_plane(tmp_path / "x", data, {})
    assert (tmp_path / "x.f32").read_bytes() == oracle_plane(data)


def test_plane_from_float32_and_ints(tmp_path):
    for data in (np.random.default_rng(3).uniform(0, 1, (3, 4)).astype(np.float32),
                 np.arange(12, dtype=np.int64).reshape(3, 4) * 1_000_003):
        formats.write_plane(tmp_path / "x", data, {})
        assert (tmp_path / "x.f32").read_bytes() == oracle_plane(data)


def test_plane_write_peaks_below_its_float32_copy(tmp_path):
    data = np.random.default_rng(4).uniform(0, 1, (1024, 1024, 3))
    tracemalloc.start()
    try:
        formats.write_plane(tmp_path / "x", data, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of rows is 256 KiB; a whole-frame float32 copy is 12 MiB
    assert peak < data.size * 4 // 8
    assert (tmp_path / "x.f32").read_bytes() == oracle_plane(data)


def test_pnm_write_peaks_below_its_uint8_copy(tmp_path):
    codes = np.random.default_rng(5).integers(0, 256, (1024, 1024, 3)).astype(np.uint16)
    tracemalloc.start()
    try:
        formats.write_pnm(tmp_path / "x.ppm", codes, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of rows is 64 KiB; a whole-frame uint8 copy is 3 MiB
    assert peak < codes.size // 8
    assert (tmp_path / "x.ppm").read_bytes() == oracle_encode_ppm(codes, 255)


# a PNM is (H, W) or (H, W, 3), a plane 2-D or 3-D
@pytest.mark.parametrize("writer, data", [
    (formats.write_pnm, np.zeros(4, np.uint8)),
    (formats.write_pnm, np.zeros((2, 2, 1), np.uint16)),
    (formats.write_pnm, np.zeros((2, 2, 4), np.uint8)),
    (formats.write_pnm, np.zeros((2, 2, 3, 1), np.uint8)),
    (formats.write_plane, np.zeros(4)),
])
def test_a_wrongly_shaped_array_is_refused_naming_the_path(tmp_path, writer, data):
    path = tmp_path / "artifact"
    with pytest.raises(IoFailure, match=re.escape(str(path))):
        writer(path, data, {formats.write_pnm: 255, formats.write_plane: {}}[writer])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape, maxval", [((5, 3), 65535), ((5, 3, 3), 255), ((5, 3, 3), 4095)])
def test_rows_appended_to_an_open_pnm_are_the_written_bytes(tmp_path, shape, maxval):
    samples = np.random.default_rng(1).integers(0, maxval + 1, shape).astype(np.uint16)
    with formats.open_pnm(tmp_path / "streamed", shape, maxval) as append:
        for rows in (slice(0, 2), slice(2, 3), slice(3, 5)):
            append(samples[rows])
    formats.write_pnm(tmp_path / "whole", samples, maxval)
    assert (tmp_path / "streamed").read_bytes() == (tmp_path / "whole").read_bytes()


@pytest.mark.parametrize("opener", [
    lambda path: formats.open_pnm(path, (4, 3, 3), 255),
    lambda path: formats.open_plane(path, (4, 3, 3), {"a": 1}),
], ids=["pnm", "plane"])
def test_an_open_array_file_refuses_a_row_count_apart_and_leaves_no_file(tmp_path, opener):
    with pytest.raises(IoFailure, match="27 samples written, the header declares 36"):
        with opener(tmp_path / "x") as append:
            append(np.zeros((3, 3, 3)))
    with pytest.raises(KeyError), opener(tmp_path / "x") as append:  # the caller fails with the file open
        append(np.zeros((1, 3, 3)))
        raise KeyError("caller")
    assert list(tmp_path.iterdir()) == []


def test_json_jsonl_and_text(tmp_path):
    obj = {"b": [1, 2.5, None], "a": "é ✓"}
    formats.write_json(tmp_path / "o.json", obj)
    assert (tmp_path / "o.json").read_bytes() == (
        json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8")
    rows = [obj, {"z": 1}, {}]
    assert formats.write_jsonl(tmp_path / "r.jsonl", iter(rows)) is None
    assert (tmp_path / "r.jsonl").read_bytes() == "".join(
        json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows).encode("utf-8")
    formats.write_jsonl(tmp_path / "empty.jsonl", [])
    assert (tmp_path / "empty.jsonl").read_bytes() == b""
    formats.write_text(tmp_path / "t.txt", "a,b\nμ\n")
    assert (tmp_path / "t.txt").read_bytes() == "a,b\nμ\n".encode("utf-8")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_a_value_json_cannot_hold_is_refused_naming_the_path(tmp_path, value):
    with pytest.raises(SchemaViolation, match=re.escape(f"{tmp_path / 'o.json'}: Out of range float")):
        formats.write_json(tmp_path / "o.json", {"gain": value})
    assert not (tmp_path / "o.json").exists()
    with pytest.raises(SchemaViolation, match=re.escape(f"{tmp_path / 'r.jsonl'}: Out of range float")):
        formats.write_jsonl(tmp_path / "r.jsonl", [{"gain": 1.0}, {"gain": [value]}])
    # the row written before the refused one is not left behind
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError):
        formats.dump_json(value)


def test_a_str_utf8_cannot_hold_is_refused_naming_the_path(tmp_path):
    with pytest.raises(SchemaViolation, match=re.escape(f"{tmp_path / 'o.json'}: cannot write as UTF-8")):
        formats.write_json(tmp_path / "o.json", {"answer": "x\ud800"})
    assert list(tmp_path.iterdir()) == []


def test_text_that_is_not_utf8_is_refused_naming_the_file_and_line(tmp_path):
    (tmp_path / "o.json").write_bytes(b'{"a": "\xc3"}')
    with pytest.raises(SchemaViolation, match=re.escape(f"{tmp_path / 'o.json'}: invalid UTF-8 (invalid "
                                                        "continuation byte at byte 7)")):
        formats.read_json(tmp_path / "o.json")
    (tmp_path / "r.jsonl").write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(SchemaViolation, match=re.escape(f"{tmp_path / 'r.jsonl'}:2: invalid UTF-8")):
        formats.read_jsonl(tmp_path / "r.jsonl")
    # a surrogate pair escaped in JSON is one character; lines still end at \r as at \n
    (tmp_path / "r.jsonl").write_bytes('{"a": "\\ud83d\\ude00"}\r{"a": "é"}\n'.encode())
    assert formats.read_jsonl(tmp_path / "r.jsonl") == [{"a": "\U0001f600"}, {"a": "é"}]


def oracle_read_pnm_header(raw: bytes, magic: bytes):
    """(width, height, maxval, data offset) of a PNM header, or None where it is
    malformed: the byte-by-byte tokenizer the header regex replaced."""
    if not raw.startswith(magic):
        return None
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(raw):
            return None
        ch = raw[pos:pos + 1]
        if ch == b"#":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                return None
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            token = raw[pos:end]
            if not token.isdigit():
                return None
            fields.append(int(token))
            pos = end
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        return None
    return (*fields, pos + 1)


def _header(raw: bytes, magic: bytes):
    try:
        return formats._read_pnm_header(raw, magic, "x.pnm")
    except MalformedMosaic:
        return None


@settings(max_examples=400, deadline=None)
@given(body=st.lists(st.sampled_from([b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"#", b"# c",
                                      b"0", b"7", b"12", b"255", b"a", b"-", b"\xa0", b"P6"]),
                     max_size=14).map(b"".join))
def test_header_regex_accepts_what_the_tokenizer_accepted(body):
    for raw in (b"P6" + body, b"P6\n" + body, b"P6 4 3\n" + body, b"P5" + body):
        assert _header(raw, b"P6") == oracle_read_pnm_header(raw, b"P6"), raw


@pytest.mark.parametrize("raw", [b"P6\n4 3\n255\n", b"P6 # c\n4\t3 #\n\n255 ", b"P64 3 255\n",
                                 b"P6\n4 3\n255", b"P6\n4 3#c\n255\n", b"P6\n4 3 x\n",
                                 b"P6\n4 3\n# c", b"P5\n4 3\n255\n", b"P6\n4 3\n255#\n"])
def test_header_examples(raw):
    assert _header(raw, b"P6") == oracle_read_pnm_header(raw, b"P6")


# keyed by what is written: a 16-bit and an 8-bit PGM and a PPM go through write_pnm
WRITERS = {
    "write_pgm16": lambda path: formats.write_pnm(path, np.zeros((2, 2), np.uint16), 65535),
    "write_pgm8": lambda path: formats.write_pnm(path, np.zeros((2, 2), np.uint8), 255),
    "write_ppm": lambda path: formats.write_pnm(path, np.zeros((2, 2, 3), np.uint8), 255),
    "write_plane": lambda path: formats.write_plane(path, np.zeros((2, 2)), {}),
    "write_json": lambda path: formats.write_json(path, {"a": 1}),
    "write_jsonl": lambda path: formats.write_jsonl(path, [{"a": 1}]),
    "write_text": lambda path: formats.write_text(path, "a\n"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_into_a_missing_directory_names_the_path(tmp_path, writer):
    path = tmp_path / "missing" / "artifact"
    with pytest.raises(IoFailure, match=re.escape(str(path))):
        WRITERS[writer](path)
    assert not (tmp_path / "missing").exists()


def test_list_stems_matches_the_glob_it_replaced(tmp_path):
    """One listing, sorted as stems: the same paths, in the same order, as the
    ``glob("*.json")`` and ``exists()`` expression, whose glob keeps dot names
    and whose ``exists()`` counts directories."""
    files = ["a_e1", "a_e1_e1", "a-b", "a", "é", "z", ".hidden", "only_json"]
    for stem in files:
        (tmp_path / f"{stem}.json").touch()
        if stem != "only_json":
            (tmp_path / f"{stem}.ppm").touch()
    for name in ("dir_json.json", "dir_ppm.ppm", ".json", ".ppm", "x.f32"):
        (tmp_path / name).mkdir()
    (tmp_path / "dir_json.ppm").touch()
    (tmp_path / "dir_ppm.json").touch()
    (tmp_path / "x.json").touch()

    def glob_stems(suffix):
        return sorted(p.with_suffix("") for p in tmp_path.glob("*.json") if p.with_suffix(suffix).exists())

    for suffix in (".ppm", ".f32"):
        assert formats.list_stems(tmp_path, suffix) == glob_stems(suffix)
    assert [p.name for p in formats.list_stems(tmp_path, ".ppm")] == [
        ".hidden", "a", "a-b", "a_e1", "a_e1_e1", "dir_json", "dir_ppm", "z", "é"]
