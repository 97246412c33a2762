"""Every writer in ``formats`` writes the bytes of the formula it replaced,
``header + payload.astype(...).tobytes()``, kept here as the oracle, whatever
the memory layout of its input; and a failed write raises IoFailure naming
the path."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import formats
from measground.errors import IoFailure, MalformedMosaic

from conftest import oracle_encode_ppm


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
    formats.write_pgm16(tmp_path / "m.pgm", data)
    assert (tmp_path / "m.pgm").read_bytes() == oracle_pgm(data, 65535)
    assert np.array_equal(formats.read_pgm16(tmp_path / "m.pgm"), data)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_pgm8(tmp_path, layout):
    data = (np.random.default_rng(1).uniform(0, 1, (6, 3)) > 0.5).astype(np.uint8) * 255
    data = _layouts(data)[layout]
    formats.write_pgm8(tmp_path / "m.pgm", data)
    assert (tmp_path / "m.pgm").read_bytes() == oracle_pgm(data, 255)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("maxval, dtype", [(255, np.uint8), (255, np.uint16), (4095, np.uint16),
                                           (65535, np.uint16)])
def test_ppm(tmp_path, layout, maxval, dtype):
    codes = np.random.default_rng(maxval).integers(0, maxval + 1, (4, 5, 3)).astype(dtype)
    codes = _layouts(codes)[layout]
    formats.write_ppm(tmp_path / "p.ppm", codes, maxval)
    written = (tmp_path / "p.ppm").read_bytes()
    assert written == oracle_encode_ppm(codes, maxval)
    assert formats.read_ppm_bytes(tmp_path / "p.ppm") == (written, maxval)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", [(5, 6), (5, 6, 3)])
def test_plane(tmp_path, layout, shape):
    data = _layouts(np.random.default_rng(2).uniform(-1, 1, shape))[layout]
    formats.write_plane(tmp_path / "x", data, {"capture_id": "x"})
    assert (tmp_path / "x.f32").read_bytes() == oracle_plane(data)
    channels = 1 if len(shape) == 2 else shape[2]
    assert json.loads((tmp_path / "x.json").read_text()) == {
        "capture_id": "x", "height": shape[0], "width": shape[1], "channels": channels}
    loaded, _ = formats.read_plane(tmp_path / "x")
    assert np.array_equal(loaded, data.astype(np.float32).astype(np.float64))


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


@pytest.mark.parametrize("writer, data", [
    (formats.write_pgm16, np.zeros((2, 2, 3), np.uint16)),
    (formats.write_pgm8, np.zeros((2, 2, 3), np.uint8)),
    (formats.write_pgm8, np.zeros(4, np.uint8)),
    (formats.write_ppm, np.zeros((2, 2), np.uint8)),
    (formats.write_plane, np.zeros(4)),
])
def test_a_wrongly_shaped_array_is_refused_naming_the_path(tmp_path, writer, data):
    path = tmp_path / "artifact"
    args = {formats.write_ppm: (255,), formats.write_plane: ({},)}.get(writer, ())
    with pytest.raises(IoFailure, match=re.escape(str(path))):
        writer(path, data, *args)
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


WRITERS = {
    "write_pgm16": lambda path: formats.write_pgm16(path, np.zeros((2, 2), np.uint16)),
    "write_pgm8": lambda path: formats.write_pgm8(path, np.zeros((2, 2), np.uint8)),
    "write_ppm": lambda path: formats.write_ppm(path, np.zeros((2, 2, 3), np.uint8), 255),
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
