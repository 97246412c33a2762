import json

import numpy as np
import pytest

from measground.benchmark import (
    CapabilityDimension,
    holdout_split,
    make_benchmark_examples,
    read_benchmark,
    tag_capability,
    verify_disjointness,
    write_benchmark,
)
from measground.bracketsup import InstructionRecord, TrainingSample
from measground.capture import CaptureRef
from measground.errors import DegenerateSplit, DomainError, MissingFile, SchemaViolation
from measground.formats import load_manifest_entries

from conftest import make_metadata


def _ref(i: int, scene=None, device=None, session=None):
    return CaptureRef(
        capture_id=f"cap-{i:04d}",
        raw_path=f"/raw/{i:04d}.dng",
        scene_id=scene,
        device_id=device,
        session_id=session,
    )


class TestHoldoutSplit:
    def test_ungrouped_exact_partition(self):
        refs = [_ref(i) for i in range(10)]
        train, bench = holdout_split(refs, 0.2, seed=0)
        assert len(bench) == 2 and len(train) == 8
        assert set(train) | set(bench) == {r.capture_id for r in refs}
        assert set(train) & set(bench) == set()

    def test_two_scenes_split_whole(self):
        refs = [_ref(i, scene=f"scene-{i // 5}") for i in range(10)]
        train, bench = holdout_split(refs, 0.5, seed=1)
        scenes_train = {int(c.split("-")[1]) // 5 for c in train}
        scenes_bench = {int(c.split("-")[1]) // 5 for c in bench}
        assert len(train) == 5 and len(bench) == 5
        assert scenes_train.isdisjoint(scenes_bench)

    def test_same_seed_identical(self):
        refs = [_ref(i, scene=f"s-{i % 4}") for i in range(20)]
        assert holdout_split(refs, 0.25, seed=9) == holdout_split(refs, 0.25, seed=9)

    def test_degenerate_single_group(self):
        refs = [_ref(i, scene="only-scene") for i in range(6)]
        with pytest.raises(DegenerateSplit, match="only-scene|cap-0000"):
            holdout_split(refs, 0.5, seed=0)

    def test_session_links_respected(self):
        refs = [_ref(i, session=f"sess-{i // 2}") for i in range(8)]
        train, bench = holdout_split(refs, 0.25, seed=3)
        sessions = lambda ids: {int(c.split("-")[1]) // 2 for c in ids}
        assert sessions(train).isdisjoint(sessions(bench))

    def test_device_relaxed_when_infeasible(self):
        # every capture shares one device: device grouping is impossible but
        # the capture-level split must still succeed
        refs = [_ref(i, device="the-one-camera") for i in range(10)]
        train, bench = holdout_split(refs, 0.2, seed=0)
        assert len(bench) == 2

    def test_device_respected_when_feasible(self):
        refs = [_ref(i, device=f"dev-{i // 5}") for i in range(20)]
        train, bench = holdout_split(refs, 0.25, seed=5)
        devices = lambda ids: {int(c.split("-")[1]) // 5 for c in ids}
        assert devices(train).isdisjoint(devices(bench))

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            holdout_split([_ref(0)], 0.0, seed=0)

    def test_smallest_group_is_the_bench_when_no_group_fits_the_target(self):
        # scenes of 4, 3 and 3 captures; a bench of 1 capture fits none of them,
        # and of the two smallest the one with the first capture id is taken
        refs = [_ref(i, scene=("a", "b", "c")[(i >= 4) + (i >= 7)]) for i in range(10)]
        for seed in range(5):
            train, bench = holdout_split(refs, 0.1, seed=seed)
            assert bench == ["cap-0004", "cap-0005", "cap-0006"]
            assert len(train) == 7

    def test_empty_and_duplicate_inputs_are_refused(self):
        with pytest.raises(DomainError, match="empty capture list"):
            holdout_split([], 0.5, seed=0)
        with pytest.raises(DomainError, match="duplicate capture_id"):
            holdout_split([_ref(0), _ref(1), _ref(0)], 0.5, seed=0)

    def test_partition_property_random_corpora(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            refs = [
                _ref(i, scene=f"s-{rng.integers(6)}" if rng.random() < 0.8 else None)
                for i in range(int(rng.integers(8, 40)))
            ]
            try:
                train, bench = holdout_split(refs, 0.25, seed=trial)
            except DegenerateSplit:
                continue
            ids = {r.capture_id for r in refs}
            assert set(train) | set(bench) == ids
            assert set(train) & set(bench) == set()
            assert bench and train


class TestVerifyDisjointness:
    def test_disjoint_passes(self):
        train = [_ref(i, scene=f"s-{i}").to_dict() for i in range(4)]
        bench = [_ref(i + 10, scene=f"s-{i + 10}").to_dict() for i in range(2)]
        report = verify_disjointness(train, bench)
        assert report.status == "PASS"
        assert all(not v for v in report.intersections.values())

    def test_shared_raw_path_fails(self):
        train = [_ref(0).to_dict()]
        bench = [dict(_ref(1).to_dict(), raw_path="/raw/0000.dng")]
        report = verify_disjointness(train, bench)
        assert report.status == "FAIL"
        assert report.intersections["raw_path"] == ["/raw/0000.dng"]

    def test_shared_capture_id_fails(self):
        entries = [_ref(0).to_dict()]
        report = verify_disjointness(entries, entries)
        assert report.status == "FAIL"
        assert report.intersections["capture_id"] == ["cap-0000"]

    def test_shared_device_only_warns(self):
        train = [_ref(0, device="cam-1").to_dict()]
        bench = [_ref(1, device="cam-1").to_dict()]
        report = verify_disjointness(train, bench)
        assert report.status == "WARN"
        assert report.intersections["device_id"] == ["cam-1"]

    def test_metadata_nested_ids_are_flattened(self):
        sample = {
            "capture_id": "cap-a",
            "metadata": {"scene_id": "shared-scene", "device_id": "d1"},
        }
        bench = {
            "capture_id": "cap-b",
            "metadata": {"scene_id": "shared-scene", "device_id": "d2"},
        }
        report = verify_disjointness([sample], [bench])
        assert report.status == "FAIL"
        assert report.intersections["scene_id"] == ["shared-scene"]


class TestTagCapability:
    def test_counting_question(self):
        assert tag_capability("How many cars are visible?") == CapabilityDimension.NG

    def test_paper_text_reading_example(self):
        question = "What is the word on the first line of the yellow sign?"
        assert tag_capability(question, "BLACK") == CapabilityDimension.STR

    def test_override_wins(self):
        assert tag_capability("anything", override=CapabilityDimension.LER) == CapabilityDimension.LER

    def test_color_question(self):
        assert tag_capability("What color is the car?") == CapabilityDimension.CAG

    def test_yes_no_answer(self):
        assert tag_capability("Is there a dog?", "Yes") == CapabilityDimension.BVV

    def test_choice(self):
        assert tag_capability("Is it a cat or a dog?", "cat") == CapabilityDimension.DS

    def test_spatial(self):
        assert tag_capability("What is left of the lamp?") == CapabilityDimension.SRU

    def test_fallback_general(self):
        assert tag_capability("Describe the weather") == CapabilityDimension.GVG

    def test_totality_over_random_strings(self):
        rng = np.random.default_rng(0)
        vocab = ["what", "is", "the", "red", "word", "above", "or", "how", "many", "dog"]
        for _ in range(200):
            words = rng.choice(vocab, size=rng.integers(1, 7))
            dim = tag_capability(" ".join(words), "maybe")
            assert isinstance(dim, CapabilityDimension)

    def test_empty_question_rejected(self):
        with pytest.raises(DomainError):
            tag_capability("  ")


class TestBenchmarkManifest:
    def _sample(self, tmp_path, i):
        stem = tmp_path / f"cap-{i}"
        stem.with_suffix(".f32")
        (tmp_path / f"cap-{i}.f32").write_bytes(b"\x00" * 4)
        (tmp_path / f"cap-{i}.json").write_text("{}")
        record = InstructionRecord(
            question=f"How many lights in image {i}?", answer="two", score=0.9,
            question_type="count", template_id="t", source_prefix="synth",
            provenance=(1.0,),
        )
        return TrainingSample(
            capture_id=f"cap-{i}", meas_xyz_path=str(stem), record=record,
            metadata=make_metadata(i),
        )

    def test_examples_and_round_trip(self, tmp_path):
        samples = [self._sample(tmp_path, i) for i in range(3)]
        proxies = {}
        for i in range(3):
            path = tmp_path / f"cap-{i}.ppm"
            path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
            proxies[f"cap-{i}"] = str(path)
        examples = make_benchmark_examples(samples, proxies)
        assert all(e.dimension == CapabilityDimension.NG for e in examples)
        write_benchmark(tmp_path / "bench.jsonl", examples)
        assert read_benchmark(tmp_path / "bench.jsonl") == examples

    def test_missing_proxy_rejected(self, tmp_path):
        samples = [self._sample(tmp_path, 0)]
        with pytest.raises(MissingFile):
            make_benchmark_examples(samples, {})

    def test_corrupt_manifest_line(self, tmp_path):
        (tmp_path / "bench.jsonl").write_text('{"capture_id": "x"}\n')
        with pytest.raises(SchemaViolation, match=":1"):
            read_benchmark(tmp_path / "bench.jsonl")


def test_load_manifest_entries_sniffs_formats(tmp_path):
    refs = [_ref(0).to_dict()]
    (tmp_path / "refs.json").write_text(json.dumps(refs))
    (tmp_path / "rows.jsonl").write_text(json.dumps(refs[0]) + "\n")
    assert load_manifest_entries(tmp_path / "refs.json") == refs
    assert load_manifest_entries(tmp_path / "rows.jsonl") == refs
    with pytest.raises(MissingFile):
        load_manifest_entries(tmp_path / "absent.json")
