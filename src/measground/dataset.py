"""Quality filtering and balancing of training samples into a manifest.

The balance pass is a greedy sweep in descending score (ties shuffled by
seed) with hard per-source/per-type/per-template caps and duplicate
(capture, question) suppression; it stops at the target size and flags a
shortfall instead of erroring when the pool runs dry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .bracketsup import TrainingSample, normalize_answer, question_key, write_samples
from .errors import DomainError
from .formats import write_json
from .records import DEFAULT_PLACEHOLDER_PATTERNS, DEFAULT_SCORE_FLOOR


@dataclass(frozen=True)
class BalanceCaps:
    per_source: int
    per_type: int
    per_template: int


@dataclass(frozen=True)
class DatasetManifest:
    samples: tuple[TrainingSample, ...]
    stats: dict
    score_floor: float
    target_size: int

    def __post_init__(self):
        if len(self.samples) > self.target_size:
            raise DomainError("manifest exceeds target size")
        if any(s.record.score < self.score_floor for s in self.samples):
            raise DomainError("manifest contains samples below the score floor")
        object.__setattr__(self, "samples", tuple(self.samples))


def score_filter(samples: list[TrainingSample], floor: float) -> list[TrainingSample]:
    """Keep samples whose record score is at least ``floor``; stable order."""
    if not (0.0 <= floor <= 1.0):
        raise DomainError(f"score floor must lie in [0, 1], got {floor}")
    return [s for s in samples if s.record.score >= floor]


def remove_placeholders(
    samples: list[TrainingSample],
    patterns=DEFAULT_PLACEHOLDER_PATTERNS,
) -> tuple[list[TrainingSample], int]:
    """Drop samples whose normalized answer matches a placeholder pattern.

    Matching is case-insensitive substring, except the empty pattern which
    matches only answers that are empty after normalization. Returns
    (kept, dropped_count).
    """
    patterns = [p.lower() for p in patterns]
    if not patterns:
        raise DomainError("pattern list must be non-empty")
    kept = []
    dropped = 0
    for sample in samples:
        answer = normalize_answer(sample.record.answer)
        hit = any((p == "" and answer == "") or (p != "" and p in answer) for p in patterns)
        if hit:
            dropped += 1
        else:
            kept.append(sample)
    return kept, dropped


def balance(
    samples: list[TrainingSample],
    caps: BalanceCaps,
    target_size: int,
    seed: int,
    score_floor: float = 0.0,
) -> DatasetManifest:
    """Greedy cap-constrained selection in descending score order."""
    if not target_size > 0:  # so NaN fails
        raise DomainError("target_size must be positive")
    pool = score_filter(list(samples), score_floor)
    rng = random.Random(seed)
    rng.shuffle(pool)  # seeded tie order; the sort below is stable
    pool.sort(key=lambda s: -s.record.score)

    by_source: dict[str, int] = {}
    by_type: dict[str, int] = {}
    by_template: dict[str, int] = {}
    seen_questions: set[tuple[str, str]] = set()
    accepted: list[TrainingSample] = []
    for sample in pool:
        if len(accepted) >= target_size:
            break
        record = sample.record
        dedup_key = (sample.capture_id, question_key(record.question))
        if dedup_key in seen_questions:
            continue
        if by_source.get(record.source_prefix, 0) >= caps.per_source:
            continue
        if by_type.get(record.question_type, 0) >= caps.per_type:
            continue
        if by_template.get(record.template_id, 0) >= caps.per_template:
            continue
        accepted.append(sample)
        seen_questions.add(dedup_key)
        by_source[record.source_prefix] = by_source.get(record.source_prefix, 0) + 1
        by_type[record.question_type] = by_type.get(record.question_type, 0) + 1
        by_template[record.template_id] = by_template.get(record.template_id, 0) + 1

    stats = {
        "input_total": len(samples),
        "kept": len(accepted),
        "dropped": len(samples) - len(accepted),
        "shortfall": len(accepted) < target_size,
        "target_size": target_size,
        "seed": seed,
        "caps": {
            "per_source": caps.per_source,
            "per_type": caps.per_type,
            "per_template": caps.per_template,
        },
        "counts": {
            "source_prefix": dict(sorted(by_source.items())),
            "question_type": dict(sorted(by_type.items())),
            "template_id": dict(sorted(by_template.items())),
        },
    }
    return DatasetManifest(
        samples=tuple(accepted), stats=stats, score_floor=score_floor, target_size=target_size
    )


def export_manifest(manifest: DatasetManifest, path: Path) -> None:
    """Write samples as JSONL plus a sibling <stem>.stats.json."""
    path = Path(path)
    write_samples(path, list(manifest.samples))
    write_json(
        path.with_name(path.stem + ".stats.json"),
        {
            "stats": manifest.stats,
            "score_floor": manifest.score_floor,
            "target_size": manifest.target_size,
        },
    )
