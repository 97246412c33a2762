"""Held-out benchmark construction: grouped capture-level splits, leakage
verification, and the 14-way capability taxonomy.

Splitting happens on capture ids before any paired view is materialized.
Captures sharing a scene or session id are kept on one side of the split
unconditionally; device separation is attempted first and relaxed (with a
warning) when a device's captures are too numerous to split at the
requested fraction, mirroring "where metadata permit" semantics. The
verifier therefore fails on scene/session/id/path overlap and only warns
on shared devices.
"""

from __future__ import annotations

import enum
import logging
import random
import re
from dataclasses import dataclass
from pathlib import Path

from . import formats
from .bracketsup import TrainingSample
from .errors import DegenerateSplit, DomainError, MissingFile, SchemaViolation
from .records import CameraMetadata, CaptureRef, decode, encode

log = logging.getLogger(__name__)


class CapabilityDimension(enum.Enum):
    CAG = "CAG"  # chromatic attribute grounding
    NG = "NG"    # numerosity grounding
    DSG = "DSG"  # descriptive scene grounding
    HER = "HER"  # HDR evidence recovery
    LER = "LER"  # low-illumination evidence recovery
    STR = "STR"  # scene text recognition
    GVG = "GVG"  # general visual grounding
    CVR = "CVR"  # compositional visual reasoning
    SRU = "SRU"  # spatial relation understanding
    MSQ = "MSQ"  # manner and state queries
    EAQ = "EAQ"  # entity and attribute queries
    DS = "DS"    # discriminative selection
    AEI = "AEI"  # agent and entity identification
    BVV = "BVV"  # binary visual verification


@dataclass(frozen=True)
class BenchmarkExample:
    """One evaluation item with both observation views materialized."""

    capture_id: str
    meas_xyz_path: str
    rgb_proxy_path: str
    question: str
    reference_answer: str
    dimension: CapabilityDimension
    metadata: CameraMetadata


# --- grouped holdout split -----------------------------------------------------

def _components(refs: list[CaptureRef], keys: tuple[str, ...]) -> list[list[int]]:
    """Connected components linking captures that share any id in ``keys``."""
    parent = list(range(len(refs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for key in keys:
        by_value: dict[str, int] = {}
        for idx, ref in enumerate(refs):
            value = getattr(ref, key)
            if not value:
                continue
            if value in by_value:
                union(by_value[value], idx)
            else:
                by_value[value] = idx
    groups: dict[int, list[int]] = {}
    for idx in range(len(refs)):
        groups.setdefault(find(idx), []).append(idx)
    return list(groups.values())


def _group_label(refs: list[CaptureRef], group: list[int]) -> str:
    ids = sorted(refs[i].capture_id for i in group)
    head = ", ".join(ids[:4])
    return f"{{{head}{', ...' if len(ids) > 4 else ''}}} ({len(ids)} captures)"


def holdout_split(
    refs: list[CaptureRef], bench_fraction: float, seed: int
) -> tuple[list[str], list[str]]:
    """Partition capture ids into (train, bench) without splitting groups.

    Raises DegenerateSplit when a group is too large to leave room for a
    training side at the requested fraction.
    """
    if not refs:
        raise DomainError("cannot split an empty capture list")
    if not (0.0 < bench_fraction < 1.0):
        raise DomainError(f"bench_fraction must lie in (0, 1), got {bench_fraction}")
    ids = [r.capture_id for r in refs]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate capture_id in split input")

    total = len(refs)
    limit = (1.0 - bench_fraction) * total
    groups = _components(refs, ("scene_id", "session_id", "device_id"))
    if max(len(g) for g in groups) > limit:
        log.warning("device grouping infeasible at fraction %.3f; relaxing device separation", bench_fraction)
        groups = _components(refs, ("scene_id", "session_id"))
    blocking = max(groups, key=len)
    if len(blocking) > limit:
        raise DegenerateSplit(
            f"group {_group_label(refs, blocking)} holds more than "
            f"{1 - bench_fraction:.3f} of {total} captures"
        )
    if all(r.scene_id is None and r.session_id is None for r in refs):
        log.warning("no scene/session ids present; splitting at capture level")

    groups.sort(key=lambda g: min(refs[i].capture_id for i in g))
    rng = random.Random(seed)
    rng.shuffle(groups)

    target = int(bench_fraction * total + 0.5)
    target = max(1, min(target, total - 1))
    bench_idx: list[int] = []
    for group in groups:
        if len(bench_idx) + len(group) <= target:
            bench_idx.extend(group)
    if not bench_idx:
        smallest = min(groups, key=lambda g: (len(g), min(refs[i].capture_id for i in g)))
        bench_idx = list(smallest)

    bench_set = set(bench_idx)
    train_ids = sorted(refs[i].capture_id for i in range(total) if i not in bench_set)
    bench_ids = sorted(refs[i].capture_id for i in bench_set)
    return train_ids, bench_ids


# --- disjointness verification ----------------------------------------------------

_FAIL_KEYS = ("capture_id", "raw_path", "scene_id", "session_id")
_WARN_KEYS = ("device_id",)


@dataclass(frozen=True)
class DisjointnessReport:
    status: str  # PASS | WARN | FAIL
    intersections: dict

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


_NESTED_KEYS = ("scene_id", "session_id", "device_id")
_ID, _METADATA = str | None, dict | None


def _entry_fields(entry) -> dict:
    """Flatten a manifest row to the id fields relevant for leakage checks.

    Each id is a string or null; scene, session and device ids absent from
    the row are read from its metadata object. A value of another JSON type
    raises SchemaViolation naming its key.
    """
    if type(entry) is not dict:
        raise SchemaViolation("expected a JSON object")
    meta = decode(_METADATA, entry.get("metadata"), "metadata") or {}
    fields = {}
    for key in _FAIL_KEYS + _WARN_KEYS:
        where, value = key, entry.get(key)
        if key in _NESTED_KEYS and key not in entry:
            where, value = f"metadata.{key}", meta.get(key)
        # null is valid, and skipping it spares the union's failed str try
        fields[key] = None if value is None else decode(_ID, value, where)
    return fields


def verify_disjointness(train_entries: list[dict], bench_entries: list[dict]) -> DisjointnessReport:
    """Report id/path/group overlap between two manifests.

    PASS means every tracked key is disjoint. A shared device_id alone is a
    WARN because device separation is conditional on the metadata allowing
    it; any other overlap is a FAIL.
    """
    return _disjointness([_entry_fields(e) for e in train_entries],
                         [_entry_fields(e) for e in bench_entries])


def _disjointness(train: list[dict], bench: list[dict]) -> DisjointnessReport:
    """verify_disjointness over rows already flattened by _entry_fields."""
    intersections: dict[str, list] = {}
    for key in _FAIL_KEYS + _WARN_KEYS:
        left = {e[key] for e in train if e[key]}
        right = {e[key] for e in bench if e[key]}
        intersections[key] = sorted(left & right)
    if any(intersections[k] for k in _FAIL_KEYS):
        status = "FAIL"
    elif any(intersections[k] for k in _WARN_KEYS):
        status = "WARN"
    else:
        status = "PASS"
    return DisjointnessReport(status=status, intersections=intersections)


def load_manifest_entries(path: Path, parse=None) -> list:
    """Load rows from a refs JSON list or any JSONL manifest, mapped by ``parse``.

    A row ``parse`` refuses with SchemaViolation raises SchemaViolation
    naming the file and the row: ``path:line`` in JSONL, ``path: [index]``
    in a list.
    """
    text = formats.read_text(path)
    if not text.lstrip().startswith("["):
        return formats.parse_jsonl(text.split("\n"), path, parse)
    rows = formats.parse_json(text, path)
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


# --- capability tagging ---------------------------------------------------------

_COLOR_QUERY_WORDS = ("color", "colour")
_CHOICE_MARKERS = (" or ", "which of")
_POSITION_PHRASES = (
    "left of", "right of", "above", "below", "behind", "in front of",
    "next to", "on top of", "under", "between",
)
_TEXT_READING_WORDS = ("word", "words", "text", "read", "written", "says", "letters", "sign")


def tag_capability(
    question: str,
    answer: str = "",
    override: CapabilityDimension | None = None,
) -> CapabilityDimension:
    """First-match keyword tagging; an explicit override always wins."""
    if not question.strip():
        raise DomainError("question must be non-empty")
    if override is not None:
        return override
    q = " ".join(question.lower().split())
    words = set(re.findall(r"[a-z]+", q))
    a = " ".join(answer.lower().split())
    if "how many" in q or "count of" in q:
        return CapabilityDimension.NG
    if words & set(_COLOR_QUERY_WORDS):
        return CapabilityDimension.CAG
    if a in ("yes", "no"):
        return CapabilityDimension.BVV
    if any(marker in q for marker in _CHOICE_MARKERS):
        return CapabilityDimension.DS
    if any(phrase in q for phrase in _POSITION_PHRASES):
        return CapabilityDimension.SRU
    if words & set(_TEXT_READING_WORDS):
        return CapabilityDimension.STR
    return CapabilityDimension.GVG


# --- benchmark manifest -----------------------------------------------------------

def make_benchmark_examples(
    samples: list[TrainingSample],
    proxy_paths: dict[str, str],
    overrides: dict[str, CapabilityDimension] | None = None,
) -> list[BenchmarkExample]:
    """Turn held-out training samples into benchmark items.

    ``proxy_paths`` maps capture_id to the matched RGB view; both views must
    exist on disk.
    """
    overrides = overrides or {}
    examples = []
    for sample in samples:
        proxy = proxy_paths.get(sample.capture_id)
        if proxy is None:
            raise MissingFile(f"no RGB proxy registered for {sample.capture_id}")
        if not Path(proxy).exists():
            raise MissingFile(proxy)
        if not Path(sample.meas_xyz_path + ".f32").exists():
            raise MissingFile(sample.meas_xyz_path + ".f32")
        examples.append(
            BenchmarkExample(
                capture_id=sample.capture_id,
                meas_xyz_path=sample.meas_xyz_path,
                rgb_proxy_path=proxy,
                question=sample.record.question,
                reference_answer=sample.record.answer,
                dimension=tag_capability(
                    sample.record.question,
                    sample.record.answer,
                    overrides.get(sample.capture_id),
                ),
                metadata=sample.metadata,
            )
        )
    return examples


def write_benchmark(path: Path, examples: list[BenchmarkExample]) -> None:
    formats.write_jsonl(path, map(encode, examples))


def read_benchmark(path: Path) -> list[BenchmarkExample]:
    return formats.read_jsonl(path, lambda row: decode(BenchmarkExample, row, "example"))
