"""Low-level file formats: binary PGM/PPM, float32 plane files, JSON, JSONL.

All writers are deterministic byte-for-byte for identical inputs; JSON is
emitted as UTF-8 with sorted keys and no whitespace surprises so manifests
can be compared byte-wise across runs. Every writer goes through
``_opened``, the package's one file open for writing; the PNM and plane
writers take rows in order, so a pass can write a frame stripe by stripe.
The JSON readers turn
malformed content into SchemaViolation naming the file (and line, for JSONL).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import IoFailure, MalformedMosaic, MissingFile, SchemaViolation

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that handle samples: the JSON
# codec and the header readers serve the text stages, which never load it.

PGM_MAXVAL = 65535


# Width, height and maxval after the magic: decimal tokens, each ended by one
# whitespace byte and each preceded by any whitespace and #-to-newline comments.
_PNM_FIELDS = re.compile(rb"(?:\s|#[^\n]*\n)*(\d+)\s" * 3)


def _read_pnm_header(raw: bytes, magic: bytes, path: Path) -> tuple[int, int, int, int]:
    """Parse a binary PNM header; returns (width, height, maxval, data_offset)."""
    if not raw.startswith(magic):
        raise MalformedMosaic(f"{path}: expected {magic.decode()} magic")
    match = _PNM_FIELDS.match(raw, len(magic))
    if match is None:
        raise MalformedMosaic(f"{path}: header needs decimal width, height and maxval, "
                              "each followed by whitespace")
    width, height, maxval = map(int, match.groups())
    return width, height, maxval, match.end()


def read_pgm16(path: Path) -> np.ndarray:
    """Read a binary P5 PGM with maxval 65535 into a uint16 (H, W) array over the
    file's bytes, read into one buffer and put in the host's order in place."""
    import numpy as np

    with open(path, "rb") as fh:
        raw = bytearray(os.fstat(fh.fileno()).st_size)
        del raw[fh.readinto(raw):]
    width, height, maxval, offset = _read_pnm_header(raw, b"P5", Path(path))
    if maxval != PGM_MAXVAL:
        raise MalformedMosaic(f"{path}: maxval {maxval}, expected {PGM_MAXVAL}")
    expected = width * height * 2
    if len(raw) - offset != expected:
        raise MalformedMosaic(
            f"{path}: payload is {len(raw) - offset} bytes, header implies {expected}"
        )
    if offset % 2:  # uint16 reads at an odd address are many times slower
        octets = np.frombuffer(raw, dtype=np.uint8)
        octets[offset - 1:-1] = octets[offset:]  # one overlapping move, without a copy
        offset -= 1
    codes = np.frombuffer(raw, dtype=">u2", count=width * height, offset=offset).reshape(height, width)
    return codes.byteswap(inplace=True).view(codes.dtype.newbyteorder())


def uint16_codes(samples, maxval: int, what: str, error) -> np.ndarray:
    """A uint16 copy of ``samples``, refused with ``error`` unless each is an integer in
    [0, maxval]; uint16 samples are copied unscanned when maxval is PGM_MAXVAL."""
    import numpy as np

    samples = np.asarray(samples)
    # a wrapped, truncated or non-finite sample differs from its cast
    with np.errstate(invalid="ignore"):
        codes = np.array(samples, dtype=np.uint16)
    if ((samples.dtype != np.uint16 and not np.array_equal(codes, samples))
            or (maxval < PGM_MAXVAL and codes.size and codes.max() > maxval)):
        raise error(f"{what} must be integers in [0, {maxval}]")
    return codes


def _pnm_header(magic: str, width: int, height: int, maxval: int) -> bytes:
    """The binary PNM header every PNM writer writes: magic, size and maxval on three lines."""
    return f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii")


@contextlib.contextmanager
def _opened(path: Path):
    """``path`` open for writing, as a function that writes one chunk: bytes as
    they are, str as UTF-8, and C-contiguous arrays through the buffer
    protocol, without a bytes copy. The package's one open for writing; an
    OSError becomes IoFailure naming the path, and a str that UTF-8 cannot
    hold SchemaViolation; a write that fails, or whose caller fails while it
    is open, leaves no file behind."""
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    try:
        with fh:
            yield lambda chunk: fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(path)
        if isinstance(exc, OSError):
            raise IoFailure(f"{path}: {exc}") from exc
        if isinstance(exc, UnicodeEncodeError):  # a lone surrogate
            raise SchemaViolation(f"{path}: cannot write as UTF-8 ({exc.reason})") from exc
        raise


def _write(path: Path, chunks) -> None:
    """Write ``chunks`` to ``path`` in order, through ``_opened``."""
    with _opened(path) as write:
        for chunk in chunks:
            write(chunk)


# Samples per block of an array file's conversion (256 KiB of float32).
_PLANE_BLOCK_VALUES = 1 << 16


def _blocks(data: np.ndarray, dtype):
    """``data`` cast to ``dtype`` in C order, as ``astype`` casts it, one block of
    rows at a time, each converted into the same buffer once the last was written."""
    import numpy as np

    rows = max(1, _PLANE_BLOCK_VALUES // max(1, math.prod(data.shape[1:])))
    buffer = np.empty((min(rows, data.shape[0]),) + data.shape[1:], dtype=dtype)
    for top in range(0, data.shape[0], rows):
        block = data[top:top + rows]
        out = buffer[:block.shape[0]]
        np.copyto(out, block, casting="unsafe")
        yield out


def write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8."""
    _write(path, [text])


@contextlib.contextmanager
def _rows_file(path: Path, header: bytes, shape: tuple[int, ...], dtype):
    """``path`` open with ``header`` written, as a function that appends rows of
    an array of ``shape`` cast to ``dtype`` by ``_blocks``. The rows come in
    order; a sample count other than the shape's is refused when it closes."""
    written = 0
    with _opened(path) as write:
        write(header)

        def append(rows: np.ndarray) -> None:
            nonlocal written
            for block in _blocks(rows, dtype):
                write(block)
            written += rows.size

        yield append
        if written != math.prod(shape):
            raise IoFailure(f"{path}: {written} samples written, the header declares {math.prod(shape)}")


def open_pnm(path: Path, shape: tuple[int, ...], maxval: int):
    """A binary PNM of integer samples of ``shape`` with the given maxval, open
    with its header written, as a context manager that gives a function
    appending rows in order: P5 for (H, W), P6 for (H, W, 3); one byte per
    sample up to maxval 255, two big-endian bytes above."""
    if len(shape) not in (2, 3) or tuple(shape[2:]) not in ((), (3,)):
        raise IoFailure(f"{path}: PNM data must be (H, W) or (H, W, 3), got shape {tuple(shape)}")
    header = _pnm_header("P5" if len(shape) == 2 else "P6", shape[1], shape[0], maxval)
    return _rows_file(path, header, shape, ">u2" if maxval > 255 else "u1")


def write_pnm(path: Path, samples: np.ndarray, maxval: int) -> None:
    """Write integer samples as ``open_pnm`` does, all at once."""
    import numpy as np

    samples = np.asarray(samples)
    with open_pnm(path, samples.shape, maxval) as append:
        append(samples)


def _exceeds(raw: bytes, offset: int, maxval: int) -> bool:
    """Whether the PPM samples that start at ``raw[offset]`` hold one above ``maxval``."""
    if maxval == 255 or maxval >= PGM_MAXVAL:
        return False
    if maxval < 255:
        return bool(raw[offset:].translate(None, bytes(range(maxval + 1))))
    if maxval & 0xFF == 0xFF:
        # a two-byte sample exceeds 2^k - 1 exactly when its high byte does
        return bool(raw[offset::2].translate(None, bytes(range((maxval >> 8) + 1))))
    import numpy as np

    return int(np.frombuffer(raw, dtype=">u2", offset=offset).max(initial=0)) > maxval


def read_ppm_bytes(path: Path) -> tuple[bytes, int]:
    """A binary P6 PPM as ``write_pnm`` writes it, and its maxval.

    Samples are one byte for maxval < 256, two big-endian bytes otherwise,
    per the PPM convention. They are kept as stored, once their size is
    checked and none is found above maxval; only a header that is not in
    ``_pnm_header``'s form is rewritten. No array is built. A zero width or
    height is refused.
    """
    raw = Path(path).read_bytes()
    width, height, maxval, offset = _read_pnm_header(raw, b"P6", Path(path))
    if not width or not height:
        raise MalformedMosaic(f"{path}: width and height must be nonzero, got {width}x{height}")
    expected = width * height * 3 * (2 if maxval > 255 else 1)
    if len(raw) - offset != expected:
        raise MalformedMosaic(
            f"{path}: payload is {len(raw) - offset} bytes, header implies {expected}"
        )
    if _exceeds(raw, offset, maxval):
        raise MalformedMosaic(f"{path}: a sample exceeds maxval {maxval}")
    header = _pnm_header("P6", width, height, maxval)
    if raw[:offset] != header:
        raw = header + raw[offset:]
    return raw, maxval


# --- float planes -------------------------------------------------------------
#
# A "plane file" is a pair: <stem>.f32 holding little-endian float32 samples in
# C order, and <stem>.json describing it. Values are stored at float32
# precision; loading is exact with respect to the stored bytes.

@contextlib.contextmanager
def open_plane(stem: Path, shape: tuple[int, ...], header: dict):
    """<stem>.f32 open for the rows of a plane of ``shape``, as a function that
    appends float64 rows in order as float32; ``header``, an encoded record
    that holds the shape, is written as <stem>.json once the last row is."""
    if len(shape) not in (2, 3):
        raise IoFailure(f"{stem}: plane data must be 2-D or 3-D")
    with _rows_file(Path(str(stem) + ".f32"), b"", shape, "<f4") as append:
        yield append
    write_json(Path(str(stem) + ".json"), header)


def write_plane(stem: Path, data: np.ndarray, header: dict) -> None:
    """Write ``data`` as ``open_plane`` does, all at once."""
    import numpy as np

    data = np.asarray(data, dtype=np.float64)
    with open_plane(stem, data.shape, header) as append:
        append(data)


def read_plane(stem: Path, shape: tuple[int, ...]) -> np.ndarray:
    """The stored float32 samples of a plane pair, read-only, in ``shape``, the
    shape its header declares."""
    import numpy as np

    data = np.empty(shape, dtype="<f4")
    with open(str(stem) + ".f32", "rb") as fh:  # read straight into the array, without a bytes copy
        if os.fstat(fh.fileno()).st_size != data.nbytes or fh.readinto(data) != data.nbytes:
            raise IoFailure(f"{stem}: plane payload does not match header dimensions")
    data.setflags(write=False)
    return data


# --- JSON / JSONL --------------------------------------------------------------

def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, allow_nan=False)


def _json_line(obj, path: Path) -> str:
    try:
        return dump_json(obj) + "\n"
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise SchemaViolation(f"{path}: {exc}") from exc


def write_json(path: Path, obj) -> None:
    _write(path, [_json_line(obj, path)])


def write_jsonl(path: Path, rows) -> None:
    """Write one JSON object per line, each row streamed as it is dumped."""
    _write(path, (_json_line(row, path) for row in rows))


def read_text(path: Path) -> str:
    """Read a UTF-8 text file: MissingFile if absent, SchemaViolation if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise MissingFile(str(path)) from exc
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid UTF-8 ({exc.reason} at byte {exc.start})") from exc


# A lone surrogate, which UTF-8 cannot hold: a JSON string can escape one, and
# read_jsonl reads each byte that is not UTF-8 as one. ASCII text holds none.
LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def loads(text: str):
    """``json.loads``, raising JSONDecodeError also where the input is nested too
    deeply to parse, on which json.loads raises RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None


def parse_json(text: str, path: Path):
    """Parse one JSON document read from ``path``: SchemaViolation if invalid."""
    try:
        return loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON ({exc.msg})") from exc


def read_json(path: Path):
    """Read one JSON document: MissingFile if absent, SchemaViolation if invalid."""
    return parse_json(read_text(path), path)


def parse_jsonl(lines, path: Path, parse=None) -> list:
    """Parse the lines of a JSONL file of objects, skipping blank lines, mapped by ``parse``.

    A line that is not UTF-8, a row that is not a JSON object, or one that
    ``parse`` rejects with KeyError or SchemaViolation (``records.decode``'s
    error), raises SchemaViolation naming the file line.
    """
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii() and LONE_SURROGATE.search(line):
                raise SchemaViolation("invalid UTF-8")
            row = loads(line)
            if not isinstance(row, dict):
                raise SchemaViolation("expected a JSON object")
            rows.append(row if parse is None else parse(row))
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        except KeyError as exc:
            raise SchemaViolation(f"{path}:{lineno}: missing key {exc}") from exc
        except SchemaViolation as exc:
            raise SchemaViolation(f"{path}:{lineno}: {exc}") from exc
    return rows


def read_jsonl(path: Path, parse=None) -> list:
    """Read a JSONL file through ``parse_jsonl``; IO errors pass through unchanged."""
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_jsonl(fh, path, parse)


def load_manifest_entries(path: Path, parse=None) -> list:
    """Load rows from a refs JSON list or any JSONL manifest, mapped by ``parse``.

    A row ``parse`` refuses with SchemaViolation raises SchemaViolation
    naming the file and the row: ``path:line`` in JSONL, ``path: [index]``
    in a list.
    """
    text = read_text(path)
    if not text.lstrip().startswith("["):
        return parse_jsonl(text.split("\n"), path, parse)
    rows = parse_json(text, path)
    if not isinstance(rows, list):
        raise SchemaViolation(f"{path}: expected a JSON list")
    if parse is None:
        return rows
    parsed = []
    for index, row in enumerate(rows):
        try:
            parsed.append(parse(row))
        except SchemaViolation as exc:
            raise SchemaViolation(f"{path}: [{index}]: {exc}") from exc
    return parsed


def list_stems(root: Path, suffix: str) -> list[Path]:
    """Sorted stems under ``root`` that have both ``<stem>.json`` and ``<stem><suffix>``."""
    root = Path(root)
    if not root.exists():
        raise MissingFile(str(root))
    # One listing. As for a Path, a bare ``.json`` is a name with no suffix; the stems
    # sort as strings, ``a`` before ``a-b``, as the paths did (the names would not).
    names = set(os.listdir(root))
    stems = sorted(name[:-5] for name in names
                   if name.endswith(".json") and len(name) > 5 and name[:-5] + suffix in names)
    return [root / stem for stem in stems]
