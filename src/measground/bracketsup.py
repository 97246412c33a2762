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

from . import formats, remote
from .errors import (
    AnnotatorUnavailable,
    EmptyInput,
    MalformedResponse,
    MissingMeasXyz,
    SchemaViolation,
)
from .records import CameraMetadata, decode, encode, read_meas_xyz_header, read_render_header

log = logging.getLogger(__name__)

AGREEMENT_BOOST = 0.1


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


@dataclass(frozen=True)
class TrainingSample:
    """An instruction record attached to a measurement-domain observation."""

    capture_id: str
    meas_xyz_path: str
    record: InstructionRecord
    metadata: CameraMetadata


# --- proxies ---------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedProxy:
    """A rendered proxy as the annotator receives it: binary P6 bytes."""

    capture_id: str
    exposure_gain: float
    ppm: bytes


def read_proxy(stem: Path) -> EncodedProxy:
    """The proxy ``isp.save_rendered`` wrote at ``stem``, its .ppm bytes as
    ``formats.write_ppm`` wrote the render's codes, without decoding its samples.

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
            key = (decode(str, row["capture_id"], "capture_id"),
                   decode(float, row["exposure_gain"], "exposure_gain"))
            return key, row, decode(int, row.get("fail_times", 0), "fail_times")

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

    def __init__(self, endpoint: str):
        self.endpoint = endpoint

    def fetch(self, capture_id: str, exposure_gain: float, image_ppm: bytes) -> list[dict]:
        payload = {
            "capture_id": capture_id,
            "exposure_gain": exposure_gain,
            "image": base64.b64encode(image_ppm).decode("ascii"),
        }
        body = remote.post_json(self.endpoint, payload, AnnotatorUnavailable, MalformedResponse)
        if not isinstance(body.get("candidates"), list):
            raise MalformedResponse(f"{self.endpoint}: missing candidates list")
        return body["candidates"]


def annotate(proxy: EncodedProxy, client, source_prefix: str = "") -> list[CandidateRecord]:
    """Fetch candidates for one proxy, retrying transient failures as ``remote`` does.

    Malformed responses are logged and yield no candidates; individually
    malformed candidates are dropped while the rest are kept. A candidate is
    the five wire keys, decoded with the proxy's gain and ``source_prefix``.
    """
    gain = proxy.exposure_gain
    try:
        raw = remote.with_retries(lambda: client.fetch(proxy.capture_id, gain, proxy.ppm),
                                  AnnotatorUnavailable, f"annotator {proxy.capture_id} @ e={gain}")
    except MalformedResponse as exc:
        log.warning("malformed annotator response skipped: %s", exc)
        return []

    stamp = {"exposure_gain": gain, "source_prefix": source_prefix}
    records = []
    for item in raw:
        try:
            records.append(decode(CandidateRecord, {**item, **stamp} if isinstance(item, dict) else item,
                                  "candidate", MalformedResponse))
        except MalformedResponse as exc:
            log.warning("malformed candidate skipped (%s): %r", exc, item)
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

def samples_for_stem(
    capture_id: str, records: list[InstructionRecord], meas_xyz_stem: Path
) -> list[TrainingSample]:
    """Attach records to the plane pair at ``meas_xyz_stem``, reading its header once.

    The header must hold ``capture_id``; its metadata goes on every sample.
    """
    stem = Path(meas_xyz_stem)
    stored_id, metadata = read_meas_xyz_header(stem)
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


def write_samples(path: Path, samples: list[TrainingSample]) -> None:
    formats.write_jsonl(path, map(encode, samples))


def read_samples(path: Path) -> list[TrainingSample]:
    return formats.read_jsonl(path, lambda row: decode(TrainingSample, row, "sample"))
