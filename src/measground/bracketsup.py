"""Exposure-bracketed supervision aggregation.

Proxies rendered at several gains are sent to an annotator; the candidates
they return are consolidated into one instruction record per question, with
a score boost when the same answer shows up under at least two different
exposures. Supervision attaches to the measurement-domain image only; no
training sample ever references a proxy artifact.
"""

from __future__ import annotations

import base64
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from . import formats
from .errors import (
    AnnotatorUnavailable,
    EmptyInput,
    MalformedResponse,
    MissingMeasXyz,
    SchemaViolation,
)
from .records import CameraMetadata, read_meas_xyz_header, read_render_header

if TYPE_CHECKING:
    from .capture import RawCapture
    from .isp import RenderedRgb

log = logging.getLogger(__name__)

AGREEMENT_BOOST = 0.1

_CANDIDATE_KEYS = ("question", "answer", "score", "question_type", "template_id")


def normalize_answer(text: str) -> str:
    """Lowercase + whitespace collapse; the agreement equivalence."""
    return " ".join(text.lower().split())


def question_key(text: str) -> str:
    """Grouping key: lowercase, punctuation stripped, whitespace collapsed."""
    stripped = re.sub(r"[^\w\s]", "", text.lower())
    return " ".join(stripped.split())


@dataclass(frozen=True)
class CandidateRecord:
    """One annotator proposal, stamped with the proxy exposure it came from."""

    question: str
    answer: str
    score: float
    exposure_gain: float
    question_type: str
    template_id: str
    source_prefix: str = ""

    def __post_init__(self):
        if not self.question.strip() or not self.answer.strip():
            raise MalformedResponse("candidate question/answer must be non-empty")
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise MalformedResponse(f"candidate score outside [0, 1]: {self.score}")
        if self.exposure_gain <= 0:
            raise MalformedResponse("candidate exposure_gain must be > 0")

    def to_dict(self, capture_id: str) -> dict:
        """One candidates.jsonl row: the record plus the capture it came from."""
        return {
            "capture_id": capture_id,
            "question": self.question,
            "answer": self.answer,
            "score": self.score,
            "exposure_gain": self.exposure_gain,
            "question_type": self.question_type,
            "template_id": self.template_id,
            "source_prefix": self.source_prefix,
        }

    @classmethod
    def from_row(cls, row: dict) -> tuple[str, "CandidateRecord"]:
        """Parse one candidates.jsonl row into (capture_id, record)."""
        return str(row["capture_id"]), cls(
            question=str(row["question"]),
            answer=str(row["answer"]),
            score=float(row["score"]),
            exposure_gain=float(row["exposure_gain"]),
            question_type=str(row.get("question_type", "")),
            template_id=str(row.get("template_id", "")),
            source_prefix=str(row.get("source_prefix", "")),
        )


@dataclass(frozen=True)
class InstructionRecord:
    """Aggregated supervision for one question, carrying its exposure provenance."""

    question: str
    answer: str
    score: float
    question_type: str
    template_id: str
    source_prefix: str
    provenance: tuple[float, ...]

    def __post_init__(self):
        if not self.question.strip() or not self.answer.strip():
            raise SchemaViolation("record question/answer must be non-empty")
        if not (0.0 <= self.score <= 1.0):
            raise SchemaViolation(f"record score outside [0, 1]: {self.score}")
        if not self.provenance:
            raise SchemaViolation("record provenance must be non-empty")
        object.__setattr__(self, "provenance", tuple(float(e) for e in self.provenance))

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "answer": self.answer,
            "score": self.score,
            "question_type": self.question_type,
            "template_id": self.template_id,
            "source_prefix": self.source_prefix,
            "provenance": list(self.provenance),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "InstructionRecord":
        return cls(
            question=str(obj["question"]),
            answer=str(obj["answer"]),
            score=float(obj["score"]),
            question_type=str(obj.get("question_type", "")),
            template_id=str(obj.get("template_id", "")),
            source_prefix=str(obj.get("source_prefix", "")),
            provenance=tuple(obj["provenance"]),
        )


@dataclass(frozen=True)
class TrainingSample:
    """An instruction record attached to a measurement-domain observation."""

    capture_id: str
    meas_xyz_path: str
    record: InstructionRecord
    metadata: CameraMetadata

    def to_dict(self) -> dict:
        return {
            "capture_id": self.capture_id,
            "meas_xyz_path": self.meas_xyz_path,
            "record": self.record.to_dict(),
            "metadata": self.metadata.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainingSample":
        return cls(
            capture_id=str(obj["capture_id"]),
            meas_xyz_path=str(obj["meas_xyz_path"]),
            record=InstructionRecord.from_dict(obj["record"]),
            metadata=CameraMetadata.from_dict(obj["metadata"]),
        )


# --- proxies ---------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedProxy:
    """A rendered proxy as the annotator receives it: binary P6 bytes.

    ``ppm`` is empty for an unquantized render, which has no PPM form.
    """

    capture_id: str
    exposure_gain: float
    ppm: bytes

    @classmethod
    def from_rendered(cls, proxy: RenderedRgb) -> "EncodedProxy":
        ppm = formats.encode_ppm(proxy.codes, proxy.params.max_code) if proxy.params.quantize else b""
        return cls(proxy.capture_id, proxy.params.exposure_gain, ppm)


def read_proxy(stem: Path) -> EncodedProxy:
    """The proxy ``isp.save_rendered`` wrote at ``stem``, encoded as ``from_rendered`` encodes
    ``isp.load_rendered(stem)``, without decoding its samples.

    The .ppm's maxval must be the render header's ``max_code``, and no
    sample may exceed it.
    """
    ppm_path = Path(str(stem) + ".ppm")
    ppm, maxval = formats.read_ppm_bytes(ppm_path)
    capture_id, params = read_render_header(stem)
    if not params.quantize:
        raise SchemaViolation(f"{stem}.json: a render saved as .ppm must be quantized")
    if maxval != params.max_code:
        raise SchemaViolation(
            f"{ppm_path}: PPM maxval {maxval} disagrees with bit_depth {params.bit_depth} "
            f"in {stem}.json"
        )
    return EncodedProxy(capture_id, params.exposure_gain, ppm)


# --- annotator clients ---------------------------------------------------------

class MockAnnotatorClient:
    """Deterministic client backed by a transcript JSONL keyed by
    (capture_id, exposure_gain). An entry may carry ``fail_times`` to script
    transient failures before the candidates are served."""

    def __init__(self, transcript_path: Path):
        self._entries: dict[tuple[str, float], dict] = {}
        self._remaining_failures: dict[tuple[str, float], int] = {}
        self.calls = 0

        def parse(row):
            key = (str(row["capture_id"]), float(row["exposure_gain"]))
            return key, row, int(row.get("fail_times", 0))

        for key, row, fail_times in formats.read_jsonl(transcript_path, parse):
            self._entries[key] = row
            self._remaining_failures[key] = fail_times

    def fetch(self, capture_id: str, exposure_gain: float, image_ppm: bytes) -> list[dict]:
        self.calls += 1
        key = (capture_id, float(exposure_gain))
        entry = self._entries.get(key)
        if entry is None:
            log.warning("no transcript entry for %s @ e=%s", capture_id, exposure_gain)
            return []
        if self._remaining_failures.get(key, 0) > 0:
            self._remaining_failures[key] -= 1
            raise AnnotatorUnavailable(f"scripted failure for {key}")
        candidates = entry.get("candidates")
        if not isinstance(candidates, list):
            raise MalformedResponse(f"transcript entry for {key} lacks a candidates list")
        return candidates


class HttpAnnotatorClient:
    """POSTs {capture_id, exposure_gain, image: base64 PPM} and expects
    {"candidates": [{question, answer, score, question_type, template_id}]}."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def fetch(self, capture_id: str, exposure_gain: float, image_ppm: bytes) -> list[dict]:
        import requests

        payload = {
            "capture_id": capture_id,
            "exposure_gain": exposure_gain,
            "image": base64.b64encode(image_ppm).decode("ascii"),
        }
        try:
            response = requests.post(self.endpoint, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise AnnotatorUnavailable(f"{self.endpoint}: {exc}") from exc
        if response.status_code != 200:
            raise AnnotatorUnavailable(f"{self.endpoint}: HTTP {response.status_code}")
        try:
            body = response.json()
        except ValueError as exc:
            raise MalformedResponse(f"{self.endpoint}: non-JSON response") from exc
        if not isinstance(body, dict) or not isinstance(body.get("candidates"), list):
            raise MalformedResponse(f"{self.endpoint}: missing candidates list")
        return body["candidates"]


def annotate(
    proxy: EncodedProxy | RenderedRgb,
    client,
    source_prefix: str = "",
    max_retries: int = 3,
) -> list[CandidateRecord]:
    """Fetch candidates for one proxy, retrying transient failures.

    Malformed responses are logged and yield no candidates; individually
    malformed candidates are dropped while the rest are kept.
    """
    if not isinstance(proxy, EncodedProxy):
        proxy = EncodedProxy.from_rendered(proxy)
    gain = proxy.exposure_gain
    retries = 0
    while True:
        try:
            raw = client.fetch(proxy.capture_id, gain, proxy.ppm)
            break
        except AnnotatorUnavailable:
            if retries >= max_retries:
                raise
            retries += 1
            log.info("annotator retry %d for %s @ e=%s", retries, proxy.capture_id, gain)
        except MalformedResponse as exc:
            log.warning("malformed annotator response skipped: %s", exc)
            return []
    if retries:
        log.info("annotator succeeded after %d retries for %s @ e=%s", retries, proxy.capture_id, gain)

    records = []
    for item in raw:
        if not isinstance(item, dict) or not all(k in item for k in _CANDIDATE_KEYS):
            log.warning("malformed candidate skipped: %r", item)
            continue
        try:
            records.append(
                CandidateRecord(
                    question=str(item["question"]),
                    answer=str(item["answer"]),
                    score=float(item["score"]),
                    exposure_gain=gain,
                    question_type=str(item["question_type"]),
                    template_id=str(item["template_id"]),
                    source_prefix=source_prefix,
                )
            )
        except (MalformedResponse, TypeError, ValueError) as exc:
            log.warning("invalid candidate skipped (%s): %r", exc, item)
    return records


# --- aggregation -----------------------------------------------------------------

def _exposures_of(item) -> tuple[float, ...]:
    if isinstance(item, InstructionRecord):
        return item.provenance
    return (item.exposure_gain,)


def aggregate(candidates) -> list[InstructionRecord]:
    """Consolidate candidates into one record per question group.

    Grouping is by normalized question; within a group, an answer earns a
    +0.1 score boost (capped at 1.0) when at least two candidates produced
    it under at least two distinct exposures. The highest boosted score
    wins, ties resolved by exposure closest to 1.0 and then lexicographic
    answer. Provenance collects every exposure seen in the group, which
    makes the operation idempotent: re-aggregating the output is a no-op.

    Accepts CandidateRecord or InstructionRecord items (the latter carry
    their provenance through).
    """
    items = list(candidates)
    if not items:
        raise EmptyInput("aggregate requires at least one candidate")

    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(question_key(item.question), []).append(item)

    records = []
    for key, members in groups.items():
        by_answer: dict[str, list] = {}
        for item in members:
            by_answer.setdefault(normalize_answer(item.answer), []).append(item)
        boosted_answers = {
            answer
            for answer, holders in by_answer.items()
            if len(holders) >= 2
            and len({e for h in holders for e in _exposures_of(h)}) >= 2
        }

        def boosted_score(item) -> float:
            if normalize_answer(item.answer) in boosted_answers:
                return min(1.0, item.score + AGREEMENT_BOOST)
            return item.score

        winner = min(
            members,
            key=lambda item: (
                -boosted_score(item),
                min(abs(e - 1.0) for e in _exposures_of(item)),
                item.answer,
                item.question_type,
                item.template_id,
                item.source_prefix,
                min(_exposures_of(item)),
            ),
        )
        provenance = tuple(sorted({e for item in members for e in _exposures_of(item)}))
        records.append(
            InstructionRecord(
                question=winner.question,
                answer=winner.answer,
                score=boosted_score(winner),
                question_type=winner.question_type,
                template_id=winner.template_id,
                source_prefix=winner.source_prefix,
                provenance=provenance,
            )
        )
    records.sort(key=lambda r: (-r.score, question_key(r.question), r.answer))
    return records


# --- sample construction ------------------------------------------------------------

def build_samples(
    capture: RawCapture, records: list[InstructionRecord], meas_xyz_stem: Path
) -> list[TrainingSample]:
    """Attach records to the capture's materialized Meas.-XYZ observation."""
    stem = Path(meas_xyz_stem)
    header_path = Path(str(stem) + ".json")
    if not header_path.exists() or not Path(str(stem) + ".f32").exists():
        raise MissingMeasXyz(f"no Meas.-XYZ plane pair at {stem}")
    return _attach(capture.capture_id, read_meas_xyz_header(stem)[0], capture.metadata, records, stem)


def samples_for_stem(
    capture_id: str, records: list[InstructionRecord], meas_xyz_stem: Path
) -> list[TrainingSample]:
    """Attach records to the plane pair at ``meas_xyz_stem``, reading its header once.

    The header must hold ``capture_id``; its metadata goes on every sample.
    """
    stem = Path(meas_xyz_stem)
    stored_id, metadata = read_meas_xyz_header(stem)
    return _attach(capture_id, stored_id, metadata, records, stem)


def _attach(
    capture_id: str,
    stored_id: str,
    metadata: CameraMetadata,
    records: list[InstructionRecord],
    stem: Path,
) -> list[TrainingSample]:
    if stored_id != capture_id:
        raise MissingMeasXyz(
            f"{stem} holds capture {stored_id!r}, expected {capture_id!r}"
        )
    return [
        TrainingSample(
            capture_id=capture_id,
            meas_xyz_path=str(stem),
            record=record,
            metadata=metadata,
        )
        for record in records
    ]


def write_samples(path: Path, samples: list[TrainingSample]) -> int:
    return formats.write_jsonl(path, (s.to_dict() for s in samples))


def read_samples(path: Path) -> list[TrainingSample]:
    return formats.read_jsonl(path, TrainingSample.from_dict)
