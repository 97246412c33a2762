import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground.bracketsup import InstructionRecord, TrainingSample, read_samples
from measground.dataset import (
    BalanceCaps,
    balance,
    export_manifest,
    remove_placeholders,
    score_filter,
)
from measground.errors import DomainError, SchemaViolation
from measground.formats import read_json

from conftest import make_metadata


def _sample(i: int, score: float = 0.5, answer: str = "fine", source: str = "src-a",
            qtype: str = "type-a", template: str = "tpl-a", capture: str | None = None):
    record = InstructionRecord(
        question=f"Question {i}?", answer=answer, score=score,
        question_type=qtype, template_id=template, source_prefix=source,
        provenance=(1.0,),
    )
    return TrainingSample(
        capture_id=capture or f"cap-{i:05d}",
        meas_xyz_path=f"/data/meas/cap-{i:05d}",
        record=record,
        metadata=make_metadata(i % 11),
    )


class TestScoreFilter:
    def test_zero_floor_is_identity(self):
        samples = [_sample(i, score=s) for i, s in enumerate([0.1, 0.9])]
        assert score_filter(samples, 0.0) == samples

    def test_boundary_floor(self):
        samples = [_sample(0, score=1.0), _sample(1, score=0.999)]
        assert score_filter(samples, 1.0) == [samples[0]]
        with pytest.raises(DomainError):
            score_filter(samples, 1.0 + 1e-9)

    def test_hand_counted(self):
        samples = [_sample(i, score=s) for i, s in enumerate([0.3, 0.5, 0.9])]
        kept = score_filter(samples, 0.5)
        assert [s.record.score for s in kept] == [0.5, 0.9]


class TestRemovePlaceholders:
    def test_pattern_hit(self):
        samples = [_sample(0, answer="I cannot see the image")]
        kept, dropped = remove_placeholders(samples)
        assert kept == [] and dropped == 1

    def test_plain_answer_kept(self):
        samples = [_sample(0, answer="BLACK")]
        kept, dropped = remove_placeholders(samples)
        assert len(kept) == 1 and dropped == 0

    def test_hand_counted_batch(self):
        answers = ["fine"] * 7 + ["unable to tell", "As an AI model...", "no answer here"]
        samples = [_sample(i, answer=a) for i, a in enumerate(answers)]
        kept, dropped = remove_placeholders(samples)
        assert len(kept) == 7 and dropped == 3

    def test_custom_patterns(self):
        samples = [_sample(0, answer="whatever"), _sample(1, answer="SKIP this")]
        kept, dropped = remove_placeholders(samples, patterns=("skip",))
        assert len(kept) == 1 and dropped == 1

    def test_filters_remove_but_never_mutate(self):
        samples = [_sample(i, score=0.2 + 0.2 * i) for i in range(4)]
        for survivor in score_filter(samples, 0.5):
            assert any(survivor is original for original in samples)
        kept, _ = remove_placeholders(samples)
        for survivor in kept:
            assert any(survivor is original for original in samples)


class TestBalance:
    def test_template_cap_with_shortfall(self):
        samples = [_sample(i, template="tpl-only") for i in range(5)]
        caps = BalanceCaps(per_source=100, per_type=100, per_template=2)
        manifest = balance(samples, caps, target_size=5, seed=0)
        assert len(manifest.samples) == 2
        assert manifest.stats["shortfall"] is True

    def test_generous_caps_identity_up_to_order(self):
        samples = [_sample(i, score=0.1 * (i % 10)) for i in range(20)]
        caps = BalanceCaps(per_source=100, per_type=100, per_template=100)
        manifest = balance(samples, caps, target_size=50, seed=3)
        assert sorted(s.capture_id for s in manifest.samples) == sorted(
            s.capture_id for s in samples
        )

    @pytest.mark.parametrize("target_size", [0, -1, math.nan])
    def test_target_size_must_be_positive(self, target_size):
        caps = BalanceCaps(per_source=10, per_type=10, per_template=10)
        with pytest.raises(DomainError, match="target_size must be positive"):
            balance([_sample(0)], caps, target_size=target_size, seed=0)

    def test_same_seed_identical(self):
        samples = [_sample(i, score=0.5) for i in range(30)]
        caps = BalanceCaps(per_source=10, per_type=10, per_template=10)
        a = balance(samples, caps, target_size=10, seed=7)
        b = balance(samples, caps, target_size=10, seed=7)
        assert a.samples == b.samples

    def test_descending_score_priority(self):
        samples = [_sample(i, score=s) for i, s in enumerate([0.2, 0.9, 0.5])]
        caps = BalanceCaps(per_source=100, per_type=100, per_template=100)
        manifest = balance(samples, caps, target_size=2, seed=0)
        assert [s.record.score for s in manifest.samples] == [0.9, 0.5]

    def test_duplicate_question_suppressed(self):
        a = _sample(0, capture="cap-x")
        b = _sample(0, capture="cap-x", score=0.9)
        caps = BalanceCaps(per_source=10, per_type=10, per_template=10)
        manifest = balance([a, b], caps, target_size=10, seed=0)
        assert len(manifest.samples) == 1
        assert manifest.samples[0].record.score == 0.9

    def test_score_floor_enforced(self):
        samples = [_sample(i, score=s) for i, s in enumerate([0.2, 0.8])]
        caps = BalanceCaps(per_source=10, per_type=10, per_template=10)
        manifest = balance(samples, caps, target_size=10, seed=0, score_floor=0.5)
        assert [s.record.score for s in manifest.samples] == [0.8]
        assert manifest.score_floor == 0.5

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), target=st.integers(1, 40),
           cap=st.integers(1, 8))
    def test_caps_and_size_hold(self, seed, target, cap):
        rng = np.random.default_rng(seed)
        samples = [
            _sample(
                i,
                score=float(rng.uniform(0, 1)),
                source=f"src-{rng.integers(3)}",
                qtype=f"type-{rng.integers(3)}",
                template=f"tpl-{rng.integers(4)}",
            )
            for i in range(40)
        ]
        caps = BalanceCaps(per_source=cap, per_type=cap, per_template=cap)
        manifest = balance(samples, caps, target_size=target, seed=seed)
        assert len(manifest.samples) <= target
        for key, mapping in manifest.stats["counts"].items():
            assert all(v <= cap for v in mapping.values()), key


class TestManifestIo:
    def _manifest(self, n=4):
        samples = [_sample(i, score=0.25 * (i % 4)) for i in range(n)]
        caps = BalanceCaps(per_source=100, per_type=100, per_template=100)
        return balance(samples, caps, target_size=100, seed=1)

    def test_round_trip(self, tmp_path):
        manifest = self._manifest()
        export_manifest(manifest, tmp_path / "m.jsonl")
        assert tuple(read_samples(tmp_path / "m.jsonl")) == manifest.samples
        assert read_json(tmp_path / "m.stats.json") == {
            "stats": manifest.stats,
            "score_floor": manifest.score_floor,
            "target_size": manifest.target_size,
        }

    def test_corrupted_line_names_line_number(self, tmp_path):
        manifest = self._manifest()
        export_manifest(manifest, tmp_path / "m.jsonl")
        lines = (tmp_path / "m.jsonl").read_text().splitlines()
        lines[2] = lines[2][:-5]
        (tmp_path / "m.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation, match="m.jsonl:3"):
            read_samples(tmp_path / "m.jsonl")

    def test_empty_manifest_round_trips(self, tmp_path):
        samples = []
        caps = BalanceCaps(per_source=1, per_type=1, per_template=1)
        manifest = balance(samples, caps, target_size=1, seed=0)
        export_manifest(manifest, tmp_path / "m.jsonl")
        assert read_samples(tmp_path / "m.jsonl") == []
        assert read_json(tmp_path / "m.stats.json")["stats"]["shortfall"] is True

    def test_byte_identical_across_runs(self, tmp_path):
        samples = [_sample(i, score=0.5) for i in range(25)]
        caps = BalanceCaps(per_source=9, per_type=9, per_template=9)
        for name in ("a", "b"):
            manifest = balance(samples, caps, target_size=8, seed=123)
            export_manifest(manifest, tmp_path / f"{name}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.stats.json").read_bytes() == (tmp_path / "b.stats.json").read_bytes()
