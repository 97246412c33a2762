"""Low-level file formats: binary PGM/PPM, float32 plane files, JSON, JSONL.

All writers are deterministic byte-for-byte for identical inputs; JSON is
emitted as UTF-8 with sorted keys and no whitespace surprises so manifests
can be compared byte-wise across runs. The JSON readers turn malformed
content into SchemaViolation naming the file (and line, for JSONL).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    IoFailure,
    MalformedMosaic,
    MalformedResponse,
    MalformedSidecar,
    MalformedVerdict,
    MissingFile,
    SchemaViolation,
)

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that handle samples: the JSON
# codec and the header readers serve the text stages, which never load it.

PGM_MAXVAL = 65535


def _read_pnm_header(raw: bytes, magic: bytes, path: Path) -> tuple[int, int, int, int]:
    """Parse a binary PNM header; returns (width, height, maxval, data_offset)."""
    if not raw.startswith(magic):
        raise MalformedMosaic(f"{path}: expected {magic.decode()} magic")
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(raw):
            raise MalformedMosaic(f"{path}: truncated header")
        ch = raw[pos:pos + 1]
        if ch == b"#":
            nl = raw.find(b"\n", pos)
            if nl < 0:
                raise MalformedMosaic(f"{path}: unterminated comment")
            pos = nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end:end + 1].isspace():
                end += 1
            token = raw[pos:end]
            if not token.isdigit():
                raise MalformedMosaic(f"{path}: non-numeric header token {token!r}")
            fields.append(int(token))
            pos = end
    if pos >= len(raw) or not raw[pos:pos + 1].isspace():
        raise MalformedMosaic(f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    return width, height, maxval, pos


def read_pgm16(path: Path) -> np.ndarray:
    """Read a binary P5 PGM with maxval 65535 into a uint16 (H, W) array."""
    import numpy as np

    raw = Path(path).read_bytes()
    width, height, maxval, offset = _read_pnm_header(raw, b"P5", Path(path))
    if maxval != PGM_MAXVAL:
        raise MalformedMosaic(f"{path}: maxval {maxval}, expected {PGM_MAXVAL}")
    expected = width * height * 2
    payload = raw[offset:]
    if len(payload) != expected:
        raise MalformedMosaic(
            f"{path}: payload is {len(payload)} bytes, header implies {expected}"
        )
    data = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    return data.astype(np.uint16)


def write_pgm16(path: Path, data: np.ndarray) -> None:
    """Write a uint16 (H, W) array as binary P5 with maxval 65535."""
    import numpy as np

    data = np.asarray(data)
    if data.ndim != 2:
        raise IoFailure(f"{path}: PGM data must be 2-D, got shape {data.shape}")
    height, width = data.shape
    header = f"P5\n{width} {height}\n{PGM_MAXVAL}\n".encode("ascii")
    try:
        Path(path).write_bytes(header + data.astype(">u2").tobytes())
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def write_pgm8(path: Path, data: np.ndarray) -> None:
    """Write a uint8 (H, W) array as binary P5 with maxval 255 (masks)."""
    import numpy as np

    data = np.asarray(data, dtype=np.uint8)
    height, width = data.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + data.tobytes())
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def _read_ppm_raw(path: Path) -> tuple[bytes, int, int, int, int]:
    """A binary P6 PPM's bytes, checked for their size: (raw, width, height, maxval, offset).

    Samples are one byte for maxval < 256, two big-endian bytes otherwise,
    per the PPM convention.
    """
    raw = Path(path).read_bytes()
    width, height, maxval, offset = _read_pnm_header(raw, b"P6", Path(path))
    expected = width * height * 3 * (2 if maxval > 255 else 1)
    if len(raw) - offset != expected:
        raise MalformedMosaic(
            f"{path}: payload is {len(raw) - offset} bytes, header implies {expected}"
        )
    return raw, width, height, maxval, offset


def read_ppm(path: Path) -> tuple[np.ndarray, int]:
    """Read a binary P6 PPM; returns (uint16 (H, W, 3) array, maxval)."""
    import numpy as np

    raw, width, height, maxval, offset = _read_ppm_raw(path)
    dtype = ">u2" if maxval > 255 else np.uint8
    data = np.frombuffer(raw, dtype=dtype, offset=offset).reshape(height, width, 3)
    return data.astype(np.uint16), maxval


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
    """A binary P6 PPM as ``encode_ppm(*read_ppm(path))`` encodes it, and its maxval.

    The samples are kept as stored, once their size is checked and none is
    found above maxval; only a header that is not in ``encode_ppm``'s form
    is rewritten. No array is built.
    """
    raw, width, height, maxval, offset = _read_ppm_raw(path)
    if _exceeds(raw, offset, maxval):
        raise MalformedMosaic(f"{path}: a sample exceeds maxval {maxval}")
    header = f"P6\n{width} {height}\n{maxval}\n".encode("ascii")
    if raw[:offset] != header:
        raw = header + raw[offset:]
    return raw, maxval


def encode_ppm(codes: np.ndarray, maxval: int) -> bytes:
    """Encode integer (H, W, 3) codes as binary P6 bytes with the given maxval."""
    import numpy as np

    codes = np.asarray(codes)
    if codes.ndim != 3 or codes.shape[2] != 3:
        raise IoFailure(f"PPM data must be (H, W, 3), got {codes.shape}")
    height, width = codes.shape[:2]
    header = f"P6\n{width} {height}\n{maxval}\n".encode("ascii")
    return header + codes.astype(">u2" if maxval > 255 else np.uint8).tobytes()


def write_ppm(path: Path, codes: np.ndarray, maxval: int) -> None:
    try:
        Path(path).write_bytes(encode_ppm(codes, maxval))
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


# --- float planes -------------------------------------------------------------
#
# A "plane file" is a pair: <stem>.f32 holding little-endian float32 samples in
# C order, and <stem>.json describing it. Values are stored at float32
# precision; loading is exact with respect to the stored bytes.

def write_plane(stem: Path, data: np.ndarray, header: dict) -> None:
    import numpy as np

    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        channels = 1
    elif data.ndim == 3:
        channels = data.shape[2]
    else:
        raise IoFailure(f"{stem}: plane data must be 2-D or 3-D")
    full = dict(header)
    full.update(height=int(data.shape[0]), width=int(data.shape[1]), channels=channels)
    try:
        Path(str(stem) + ".f32").write_bytes(data.astype("<f4").tobytes())
        write_json(Path(str(stem) + ".json"), full)
    except OSError as exc:
        raise IoFailure(f"{stem}: {exc}") from exc


def read_plane_header(stem: Path) -> tuple[dict, tuple[int, ...]]:
    """The header of a plane pair and the array shape it declares.

    The .f32 size is checked against that shape by ``stat``, so the samples
    are not read.
    """
    header_path = Path(str(stem) + ".json")
    data_path = Path(str(stem) + ".f32")
    if not header_path.exists() or not data_path.exists():
        raise IoFailure(f"{stem}: missing .f32/.json plane pair")
    header = read_json(header_path)
    try:
        height, width, channels = (int(header[k]) for k in ("height", "width", "channels"))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation(
            f"{header_path}: plane header needs integer height, width and channels"
        ) from exc
    if data_path.stat().st_size != height * width * channels * 4:
        raise IoFailure(f"{stem}: plane payload does not match header dimensions")
    shape = (height, width) if channels == 1 else (height, width, channels)
    return header, shape


def read_plane(stem: Path, header: tuple[dict, tuple[int, ...]] | None = None
               ) -> tuple[np.ndarray, dict]:
    """The samples of a plane pair as float64, and its header.

    ``header`` is the pair's ``read_plane_header`` result when the caller
    has read it already, so the header is not read again.
    """
    import numpy as np

    header, shape = read_plane_header(stem) if header is None else header
    raw = Path(str(stem) + ".f32").read_bytes()
    if len(raw) != 4 * math.prod(shape):
        raise IoFailure(f"{stem}: plane payload does not match header dimensions")
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64), header


# --- JSON / JSONL --------------------------------------------------------------

def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def write_json(path: Path, obj) -> None:
    try:
        Path(path).write_text(dump_json(obj) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def write_jsonl(path: Path, rows) -> int:
    n = 0
    try:
        with Path(path).open("w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(dump_json(row) + "\n")
                n += 1
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    return n


def read_text(path: Path) -> str:
    """Read a UTF-8 text file: MissingFile if absent."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise MissingFile(str(path)) from exc


def parse_json(text: str, path: Path):
    """Parse one JSON document read from ``path``: SchemaViolation if invalid."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON ({exc.msg})") from exc


def read_json(path: Path):
    """Read one JSON document: MissingFile if absent, SchemaViolation if invalid."""
    return parse_json(read_text(path), path)


def parse_jsonl(lines, path: Path, parse=None) -> list:
    """Parse the lines of a JSONL file of objects, skipping blank lines, mapped by ``parse``.

    A row that is not a JSON object, or that ``parse`` rejects with KeyError,
    TypeError, ValueError, SchemaViolation or MalformedSidecar (a row's
    capture metadata), raises SchemaViolation naming the file line; MalformedResponse and MalformedVerdict keep their type and
    gain the file line.
    """
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            if not isinstance(row, dict):
                raise SchemaViolation("expected a JSON object")
            rows.append(row if parse is None else parse(row))
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        except KeyError as exc:
            raise SchemaViolation(f"{path}:{lineno}: missing key {exc}") from exc
        except (TypeError, ValueError, SchemaViolation, MalformedSidecar) as exc:
            raise SchemaViolation(f"{path}:{lineno}: {exc}") from exc
        except (MalformedResponse, MalformedVerdict) as exc:
            raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return rows


def read_jsonl(path: Path, parse=None) -> list:
    """Read a JSONL file through ``parse_jsonl``; IO errors pass through unchanged."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_jsonl(fh, path, parse)


def list_stems(root: Path, suffix: str) -> list[Path]:
    """Sorted stems under ``root`` that have both ``<stem>.json`` and ``<stem><suffix>``."""
    root = Path(root)
    if not root.exists():
        raise MissingFile(str(root))
    return sorted(p.with_suffix("") for p in root.glob("*.json") if p.with_suffix(suffix).exists())
