"""BLEU, ROUGE-L, a judge-client contract, and per-dimension reports.

The BLEU variant is pinned: BLEU-4 with modified n-gram precisions,
add-one smoothing when a higher-order precision has zero matches, and
brevity penalty min(1, exp(1 - r/c)) against the reference closest in
length. Tokenization lowercases, splits on whitespace/punctuation, and
treats CJK code points as single tokens.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, or_
from pathlib import Path
from typing import Annotated

from . import formats, remote
from .benchmark import BenchmarkExample, CapabilityDimension
from .bracketsup import normalize_answer
from .errors import JudgeUnavailable, MalformedVerdict, ManifestMismatch, SchemaViolation
from .records import NonNegative, Positive, Unit, decode

_CJK_RANGES = (
    (0x3040, 0x30FF),    # kana
    (0x3400, 0x4DBF),    # CJK extension A
    (0x4E00, 0x9FFF),    # CJK unified
    (0xF900, 0xFAFF),    # CJK compatibility
)
_CJK = "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _CJK_RANGES)
# one CJK code point, or a run of non-CJK alphanumerics: \w is str.isalnum plus "_"
_TOKEN = re.compile(f"[{_CJK}]|[^\\W_{_CJK}]+")


def tokenize(text: str) -> list[str]:
    """Lowercase; alphanumeric runs are tokens; CJK code points stand alone."""
    return _TOKEN.findall(text.lower())


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: list[str], references: list[list[str]]) -> float:
    """Sentence BLEU-4 of a token list against one or more references."""
    if not references or any(not r for r in references):
        raise ManifestMismatch("BLEU requires non-empty references")
    if not candidate:
        return 0.0
    c_len = len(candidate)
    r_len = min((len(r) for r in references), key=lambda n: (abs(n - c_len), n))

    log_sum = 0.0
    for n in range(1, 5):
        cand_counts = _ngrams(candidate, n)
        total = sum(cand_counts.values())
        # | keeps each n-gram's largest reference count, & clips the candidate's to it
        matched = sum((cand_counts & reduce(or_, (_ngrams(r, n) for r in references))).values())
        if matched == 0:
            if n == 1:
                return 0.0
            precision = (matched + 1.0) / (total + 1.0)  # add-one smoothing
        else:
            precision = matched / total
        log_sum += math.log(precision)
    brevity = min(1.0, math.exp(1.0 - r_len / c_len))
    return brevity * math.exp(log_sum / 4.0)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for x in a:
        current = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def rouge_l(candidate: list[str], reference: list[str]) -> float:
    """LCS-based F-measure with beta = 1."""
    if not reference:
        raise ManifestMismatch("ROUGE-L requires a non-empty reference")
    if not candidate:
        return 0.0
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 2.0 * precision * recall / (precision + recall)


# --- judge clients ------------------------------------------------------------------

class ExactMatchJudge:
    """Offline fallback: correct iff prediction equals reference up to
    case and whitespace."""

    def verdict(self, question: str, reference: str, prediction: str) -> bool:
        return normalize_answer(reference) == normalize_answer(prediction)


class TranscriptJudge(ExactMatchJudge):
    """Scripted verdicts from a JSONL transcript keyed by
    (question, reference, prediction); unknown triples fall back to exact
    matching so partial transcripts stay usable."""

    def __init__(self, transcript_path: Path):
        def parse(row):
            verdict = row.get("verdict")
            if verdict not in ("correct", "incorrect"):
                raise SchemaViolation(f"transcript verdict must be correct/incorrect, got {verdict!r}")
            key = tuple(decode(str, row[k], k) for k in ("question", "reference", "prediction"))
            return key, verdict == "correct"

        self._verdicts: dict[tuple[str, str, str], bool] = dict(
            formats.read_jsonl(transcript_path, parse)
        )

    def verdict(self, question: str, reference: str, prediction: str) -> bool:
        key = (question, reference, prediction)
        if key in self._verdicts:
            return self._verdicts[key]
        return super().verdict(question, reference, prediction)


class HttpJudgeClient:
    """POSTs {question, reference, prediction}; expects {"verdict": "correct"|"incorrect"}."""

    def __init__(self, endpoint: str):
        self.endpoint = endpoint

    def verdict(self, question: str, reference: str, prediction: str) -> bool:
        payload = {"question": question, "reference": reference, "prediction": prediction}
        verdict = remote.post_json(self.endpoint, payload, JudgeUnavailable, MalformedVerdict).get("verdict")
        if verdict not in ("correct", "incorrect"):
            raise MalformedVerdict(f"{self.endpoint}: verdict must be correct/incorrect, got {verdict!r}")
        return verdict == "correct"


def judge(question: str, reference: str, prediction: str, client) -> bool:
    """Client verdict, retrying transient unavailability as ``remote`` does."""
    return bool(remote.with_retries(lambda: client.verdict(question, reference, prediction),
                                    JudgeUnavailable, "judge"))


# --- evaluation ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricTriple:
    bleu: Annotated[float, Unit]
    rouge_l: Annotated[float, Unit]
    judge_accuracy: Annotated[float, Unit]  # fraction; rendered as percent


@dataclass(frozen=True)
class MetricReport:
    overall: MetricTriple
    per_dimension: dict[CapabilityDimension, MetricTriple]
    counts: dict[CapabilityDimension, int]
    total: Annotated[int, Positive]
    missing_predictions: Annotated[int, NonNegative]

    def __post_init__(self):
        if self.per_dimension.keys() != self.counts.keys():
            raise ManifestMismatch("per_dimension and counts name different dimensions")
        for dimension, count in self.counts.items():
            if count < 1:
                raise ManifestMismatch(f"counts.{dimension.value}: value {count!r} out of range")
        if sum(self.counts.values()) != self.total:
            raise ManifestMismatch(f"counts sum to {sum(self.counts.values())}, not to total {self.total}")
        if self.missing_predictions > self.total:
            raise ManifestMismatch(f"missing_predictions {self.missing_predictions} exceeds total {self.total}")


def evaluate_run(
    predictions: dict[tuple[str, str], str],
    manifest: list[BenchmarkExample],
    judge_client=None,
) -> MetricReport:
    """Score predictions against a benchmark manifest.

    ``predictions`` maps (capture_id, question) to the predicted answer.
    Missing predictions are scored as empty strings (wrong) and counted;
    predictions that match no manifest example raise ManifestMismatch.
    """
    if judge_client is None:
        judge_client = ExactMatchJudge()
    known = {(e.capture_id, e.question) for e in manifest}
    extra = set(predictions) - known
    if extra:
        raise ManifestMismatch(f"predictions for unknown examples: {sorted(extra)[:5]}")

    if not manifest:
        raise ManifestMismatch("benchmark manifest is empty")
    # per dimension, in first-seen order: one (bleu, rouge_l, correct) row per example
    table: dict[CapabilityDimension, list[tuple[float, float, float]]] = {}
    missing = 0
    for example in sorted(manifest, key=lambda e: (e.capture_id, e.question)):
        prediction = predictions.get((example.capture_id, example.question))
        if prediction is None:
            missing += 1
            prediction = ""
        ref_tokens = tokenize(example.reference_answer)
        pred_tokens = tokenize(prediction)
        b = bleu(pred_tokens, [ref_tokens]) if ref_tokens else 0.0
        r = rouge_l(pred_tokens, ref_tokens) if ref_tokens else 0.0
        # an empty prediction is counted wrong without consulting the judge
        correct = prediction != "" and judge(example.question, example.reference_answer, prediction,
                                             judge_client)
        table.setdefault(example.dimension, []).append((b, r, float(correct)))

    # left-to-right sums (not sum(), which compensates from Python 3.12), so every float
    # of metrics.json stays the same: rows in example order, then dimension sums in table order
    sums = {dim: [reduce(add, column, 0.0) for column in zip(*rows)] for dim, rows in table.items()}
    overall = [reduce(add, column, 0.0) for column in zip(*sums.values())]
    return MetricReport(
        overall=MetricTriple(*(s / len(manifest) for s in overall)),
        per_dimension={dim: MetricTriple(*(s / len(table[dim]) for s in sums[dim])) for dim in table},
        counts={dim: len(rows) for dim, rows in table.items()},
        total=len(manifest),
        missing_predictions=missing,
    )


def render_table(report: MetricReport) -> str:
    """Aligned-column text table: one capability row plus an overall row."""
    header = f"{'Capability':<12} {'N':>6} {'BLEU':>8} {'ROUGE-L':>8} {'Judge %':>8}"
    rows = [header, "-" * len(header)]
    for dim in sorted(report.per_dimension, key=lambda d: d.value):
        triple = report.per_dimension[dim]
        rows.append(
            f"{dim.value:<12} {report.counts[dim]:>6} {triple.bleu:>8.4f} "
            f"{triple.rouge_l:>8.4f} {100.0 * triple.judge_accuracy:>8.2f}"
        )
    rows.append("-" * len(header))
    o = report.overall
    rows.append(
        f"{'OVERALL':<12} {report.total:>6} {o.bleu:>8.4f} {o.rouge_l:>8.4f} "
        f"{100.0 * o.judge_accuracy:>8.2f}"
    )
    return "\n".join(rows)
