import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import bracketsup, formats, remote
from measground.bracketsup import (
    CandidateRecord,
    EncodedProxy,
    HttpAnnotatorClient,
    InstructionRecord,
    MockAnnotatorClient,
    TrainingSample,
    aggregate,
    annotate,
    normalize_answer,
    question_key,
    read_proxy,
    read_samples,
    samples_for_stem,
    write_samples,
)
from measground.capture import SyntheticSceneSpec, synth_capture
from measground.errors import AnnotatorUnavailable, EmptyInput, IoFailure, MalformedMosaic, MissingMeasXyz
from measground.isp import RenderParams, render_proxy, save_rendered
from measground.measxyz import meas_xyz_transform, save_meas_xyz

from conftest import make_image, oracle_decode_ppm, oracle_encode_ppm


def _proxy(capture_id="cap-a", gain=1.0):
    z = make_image(np.random.default_rng(0).uniform(0, 1, (4, 4, 3)), capture_id=capture_id)
    rendered = render_proxy(z, RenderParams(exposure_gain=gain))
    return EncodedProxy(capture_id, gain, oracle_encode_ppm(rendered.codes, rendered.params.max_code))


def _write_transcript(path, entries):
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    return path


def _candidate(question="What color is the sign?", answer="red", score=0.5,
               gain=1.0, qtype="color", template="t1", source="synth"):
    return CandidateRecord(question=question, answer=answer, score=score,
                           exposure_gain=gain, question_type=qtype,
                           template_id=template, source_prefix=source)


class TestMockAnnotate:
    def test_fixed_candidates(self, tmp_path):
        transcript = _write_transcript(tmp_path / "t.jsonl", [{
            "capture_id": "cap-a", "exposure_gain": 1.0,
            "candidates": [
                {"question": "Q?", "answer": "A", "score": 0.9,
                 "question_type": "qt", "template_id": "t"},
            ],
        }])
        client = MockAnnotatorClient(transcript)
        records = annotate(_proxy(), client, source_prefix="synth")
        assert len(records) == 1
        assert records[0].answer == "A"
        assert records[0].exposure_gain == 1.0
        assert records[0].source_prefix == "synth"

    def test_empty_answer_dropped_others_kept(self, tmp_path):
        transcript = _write_transcript(tmp_path / "t.jsonl", [{
            "capture_id": "cap-a", "exposure_gain": 1.0,
            "candidates": [
                {"question": "Q?", "answer": "  ", "score": 0.9,
                 "question_type": "qt", "template_id": "t"},
                {"question": "Q?", "answer": "kept", "score": 0.8,
                 "question_type": "qt", "template_id": "t"},
            ],
        }])
        records = annotate(_proxy(), MockAnnotatorClient(transcript))
        assert [r.answer for r in records] == ["kept"]

    def test_timeout_twice_then_success(self, tmp_path):
        transcript = _write_transcript(tmp_path / "t.jsonl", [{
            "capture_id": "cap-a", "exposure_gain": 1.0, "fail_times": 2,
            "candidates": [
                {"question": "Q?", "answer": "A", "score": 0.9,
                 "question_type": "qt", "template_id": "t"},
            ],
        }])
        client = MockAnnotatorClient(transcript)
        records = annotate(_proxy(), client)
        assert len(records) == 1
        assert client.calls == 3  # first call plus 2 retries

    def test_gives_up_after_max_retries(self, tmp_path):
        transcript = _write_transcript(tmp_path / "t.jsonl", [{
            "capture_id": "cap-a", "exposure_gain": 1.0, "fail_times": 10,
            "candidates": [],
        }])
        client = MockAnnotatorClient(transcript)
        with pytest.raises(AnnotatorUnavailable):
            annotate(_proxy(), client)
        assert client.calls == 1 + remote.MAX_RETRIES

    def test_malformed_candidate_skipped(self, tmp_path):
        transcript = _write_transcript(tmp_path / "t.jsonl", [{
            "capture_id": "cap-a", "exposure_gain": 1.0,
            "candidates": [
                {"question": "Q?"},  # missing keys
                {"question": "Q?", "answer": "ok", "score": 2.0,
                 "question_type": "qt", "template_id": "t"},  # bad score
                {"question": "Q?", "answer": "good", "score": 0.5,
                 "question_type": "qt", "template_id": "t"},
            ],
        }])
        records = annotate(_proxy(), MockAnnotatorClient(transcript))
        assert [r.answer for r in records] == ["good"]

    @pytest.mark.parametrize("key, value", [("question", 5), ("template_id", None)])
    def test_candidate_of_the_wrong_json_type_skipped_and_logged(self, tmp_path, monkeypatch,
                                                                 key, value):
        good = {"question": "Q?", "answer": "A", "score": 0.9, "question_type": "qt",
                "template_id": "t"}
        transcript = _write_transcript(tmp_path / "t.jsonl", [{
            "capture_id": "cap-a", "exposure_gain": 1.0,
            "candidates": [dict(good, **{key: value}), dict(good, answer="kept")],
        }])
        warnings = []
        monkeypatch.setattr(bracketsup.log, "warning", lambda msg, *args: warnings.append(msg % args))
        records = annotate(_proxy(), MockAnnotatorClient(transcript))
        assert [r.answer for r in records] == ["kept"]
        assert len(warnings) == 1 and f"candidate.{key}: expected " in warnings[0]


class _RecordingClient:
    """Serves no candidates and keeps the bytes each fetch was sent."""

    def __init__(self):
        self.images = []

    def fetch(self, capture_id, exposure_gain, image_ppm):
        self.images.append(image_ppm)
        return []


class TestReadProxy:
    @pytest.mark.parametrize("bits", [8, 12])
    def test_annotator_bytes_equal_the_decode_encode_round_trip(self, tmp_path, bits):
        z = make_image(np.random.default_rng(bits).uniform(0, 1, (5, 7, 3)), capture_id="cap-b")
        rendered = render_proxy(z, RenderParams(exposure_gain=2.0, bit_depth=bits))
        save_rendered(rendered, tmp_path / "p")
        proxy = read_proxy(tmp_path / "p")
        assert (proxy.capture_id, proxy.exposure_gain) == ("cap-b", 2.0)
        client = _RecordingClient()
        annotate(proxy, client)
        expected = oracle_encode_ppm(*oracle_decode_ppm((tmp_path / "p.ppm").read_bytes()))
        assert client.images == [expected]
        assert expected == oracle_encode_ppm(rendered.codes, rendered.params.max_code)

    def test_header_comment_is_dropped(self, tmp_path):
        z = make_image(np.random.default_rng(0).uniform(0, 1, (2, 3, 3)))
        save_rendered(render_proxy(z, RenderParams(exposure_gain=1.0, bit_depth=10)), tmp_path / "p")
        ppm = tmp_path / "p.ppm"
        expected = oracle_encode_ppm(*oracle_decode_ppm(ppm.read_bytes()))
        ppm.write_bytes(ppm.read_bytes().replace(b"P6\n", b"P6 # a comment\n", 1))
        assert read_proxy(tmp_path / "p").ppm == expected

    @pytest.mark.parametrize("maxval", [127, 1023, 1000])
    def test_sample_above_maxval_is_refused(self, tmp_path, maxval):
        width = 2 if maxval > 255 else 1

        def write(samples):
            (tmp_path / "x.ppm").write_bytes(f"P6\n1 1\n{maxval}\n".encode()
                                             + b"".join(v.to_bytes(width, "big") for v in samples))

        write([0, maxval, maxval])
        assert formats.read_ppm_bytes(tmp_path / "x.ppm")[1] == maxval
        write([0, maxval + 1, maxval])
        with pytest.raises(MalformedMosaic, match="x.ppm: a sample exceeds maxval"):
            formats.read_ppm_bytes(tmp_path / "x.ppm")


def _counted(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


class _AnnotatorHandler(BaseHTTPRequestHandler):
    script = []
    seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(body)
        status, payload = type(self).script.pop(0)
        blob = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_annotator():
    server = HTTPServer(("127.0.0.1", 0), _AnnotatorHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _AnnotatorHandler.script = []
    _AnnotatorHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}/annotate", _AnnotatorHandler
    server.shutdown()
    server.server_close()


class TestHttpAnnotator:
    def test_wire_contract(self, http_annotator):
        endpoint, handler = http_annotator
        handler.script.append((200, {"candidates": [
            {"question": "Q?", "answer": "A", "score": 0.7,
             "question_type": "qt", "template_id": "t"},
        ]}))
        proxy = _proxy(gain=2.0)
        records = annotate(proxy, HttpAnnotatorClient(endpoint))
        assert len(records) == 1
        sent = handler.seen[0]
        assert sent["capture_id"] == "cap-a"
        assert sent["exposure_gain"] == 2.0
        assert base64.b64decode(sent["image"]).startswith(b"P6")

    def test_server_error_retried_then_success(self, http_annotator):
        endpoint, handler = http_annotator
        handler.script.append((500, {}))
        handler.script.append((200, {"candidates": []}))
        assert annotate(_proxy(), HttpAnnotatorClient(endpoint)) == []
        assert len(handler.seen) == 2

    def test_malformed_response_logged_and_skipped(self, http_annotator):
        endpoint, handler = http_annotator
        handler.script.append((200, {"unexpected": True}))
        assert annotate(_proxy(), HttpAnnotatorClient(endpoint)) == []

    def test_client_error_is_not_retried(self, http_annotator):
        endpoint, handler = http_annotator
        handler.script.extend([(400, {})] * 4)
        with pytest.raises(IoFailure, match="HTTP 400"):
            annotate(_proxy(), HttpAnnotatorClient(endpoint))
        assert len(handler.seen) == 1

    def test_rate_limit_retried_then_success(self, http_annotator):
        endpoint, handler = http_annotator
        handler.script.append((429, {}))
        handler.script.append((200, {"candidates": []}))
        assert annotate(_proxy(), HttpAnnotatorClient(endpoint)) == []
        assert len(handler.seen) == 2

    def test_scheme_less_endpoint_fails_after_one_attempt(self, http_annotator, monkeypatch):
        endpoint, handler = http_annotator
        calls = []
        client = HttpAnnotatorClient(endpoint.removeprefix("http://"))
        monkeypatch.setattr(client, "fetch", _counted(client.fetch, calls))
        with pytest.raises(IoFailure, match="127.0.0.1"):
            annotate(_proxy(), client)
        assert len(calls) == 1
        assert handler.seen == []

    def test_unreachable_endpoint_is_retried(self, monkeypatch):
        calls = []
        client = HttpAnnotatorClient("http://127.0.0.1:9/annotate")
        monkeypatch.setattr(client, "fetch", _counted(client.fetch, calls))
        with pytest.raises(AnnotatorUnavailable):
            annotate(_proxy(), client)
        assert len(calls) == 1 + remote.MAX_RETRIES


class TestAggregate:
    def test_singleton_identity(self):
        candidate = _candidate(score=0.4, gain=2.0)
        (record,) = aggregate([candidate])
        assert record.question == candidate.question
        assert record.answer == candidate.answer
        assert record.score == candidate.score
        assert record.provenance == (2.0,)

    def test_two_exposure_agreement_boost(self):
        c1 = _candidate(score=0.6, gain=0.5)
        c2 = _candidate(score=0.7, gain=2.0)
        (record,) = aggregate([c1, c2])
        assert record.score == pytest.approx(0.8)
        assert record.provenance == (0.5, 2.0)

    def test_same_exposure_no_boost(self):
        c1 = _candidate(score=0.6, gain=1.0)
        c2 = _candidate(score=0.7, gain=1.0)
        (record,) = aggregate([c1, c2])
        assert record.score == pytest.approx(0.7)

    def test_distinct_questions_independent(self):
        c1 = _candidate(question="How many cars?", score=0.3)
        c2 = _candidate(question="What color is the sign?", score=0.9)
        records = aggregate([c1, c2])
        assert len(records) == 2
        assert records[0].score == 0.9  # sorted descending

    def test_question_key_normalization_groups(self):
        c1 = _candidate(question="What color is the sign?", score=0.5, gain=0.5)
        c2 = _candidate(question="what   COLOR is the sign", score=0.6, gain=2.0)
        records = aggregate([c1, c2])
        assert len(records) == 1

    def test_boost_caps_at_one(self):
        c1 = _candidate(score=0.95, gain=0.5)
        c2 = _candidate(score=0.99, gain=2.0)
        (record,) = aggregate([c1, c2])
        assert record.score == 1.0

    def test_tie_breaks_prefer_exposure_near_one(self):
        c1 = _candidate(answer="far", score=0.5, gain=4.0)
        c2 = _candidate(answer="near", score=0.5, gain=1.0)
        (record,) = aggregate([c1, c2])
        assert record.answer == "near"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            aggregate([])

    def test_idempotence_on_worked_example(self):
        once = aggregate([_candidate(score=0.6, gain=0.5), _candidate(score=0.7, gain=2.0)])
        twice = aggregate(once)
        assert twice == once


def _pool_strategy():
    questions = st.sampled_from(["What color is it?", "How many?", "Where is the cat"])
    answers = st.sampled_from(["red", "Blue", "two", "left"])
    gains = st.sampled_from([0.5, 1.0, 2.0, 4.0])
    scores = st.floats(0.0, 1.0).map(lambda s: round(s, 3))
    candidate = st.builds(
        lambda q, a, s, g: _candidate(question=q, answer=a, score=s, gain=g),
        questions, answers, scores, gains,
    )
    return st.lists(candidate, min_size=1, max_size=12)


class TestAggregateProperties:
    @settings(max_examples=80, deadline=None)
    @given(pool=_pool_strategy(), seed=st.integers(0, 1000))
    def test_permutation_invariance(self, pool, seed):
        import random

        shuffled = list(pool)
        random.Random(seed).shuffle(shuffled)
        assert aggregate(shuffled) == aggregate(pool)

    @settings(max_examples=80, deadline=None)
    @given(pool=_pool_strategy())
    def test_idempotence(self, pool):
        once = aggregate(pool)
        assert aggregate(once) == once

    @settings(max_examples=80, deadline=None)
    @given(pool=_pool_strategy(), gain=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           score=st.floats(0.0, 1.0))
    def test_agreement_monotonicity(self, pool, gain, score):
        before = aggregate(pool)
        target = before[0]
        agreeing = _candidate(question=target.question, answer=target.answer,
                              score=round(score, 3), gain=gain)
        after = aggregate(list(pool) + [agreeing])
        key = question_key(target.question)
        winner_after = next(r for r in after if question_key(r.question) == key)
        assert winner_after.score >= target.score - 1e-12


class TestBuildSamples:
    def _materialize(self, tmp_path):
        spec = SyntheticSceneSpec(height=8, width=8)
        capture = synth_capture(spec, seed=0, capture_id="cap-z").capture
        image = meas_xyz_transform(capture)
        save_meas_xyz(image, tmp_path / "cap-z")
        return capture

    def test_three_records_three_samples(self, tmp_path):
        capture = self._materialize(tmp_path)
        records = [
            InstructionRecord(question=f"Q{i}?", answer="A", score=0.5,
                              question_type="qt", template_id="t",
                              source_prefix="synth", provenance=(1.0,))
            for i in range(3)
        ]
        samples = samples_for_stem("cap-z", records, tmp_path / "cap-z")
        assert len(samples) == 3
        assert all(s.meas_xyz_path == str(tmp_path / "cap-z") for s in samples)
        assert all(s.metadata == capture.metadata for s in samples)

    def test_empty_records(self, tmp_path):
        self._materialize(tmp_path)
        assert samples_for_stem("cap-z", [], tmp_path / "cap-z") == []

    def test_capture_id_mismatch_rejected(self, tmp_path):
        self._materialize(tmp_path)
        with pytest.raises(MissingMeasXyz):
            samples_for_stem("different-id", [], tmp_path / "cap-z")

    def test_samples_for_stem_reads_the_header_once(self, tmp_path, monkeypatch):
        capture = self._materialize(tmp_path)
        record = InstructionRecord(question="Q?", answer="A", score=0.5,
                                   question_type="qt", template_id="t",
                                   source_prefix="synth", provenance=(1.0,))
        reads = []
        read_json = formats.read_json
        monkeypatch.setattr(formats, "read_json", lambda path: reads.append(path) or read_json(path))
        samples = samples_for_stem("cap-z", [record], tmp_path / "cap-z")
        assert reads == [tmp_path / "cap-z.json"]
        assert samples == [TrainingSample("cap-z", str(tmp_path / "cap-z"), record, capture.metadata)]

    def test_samples_for_stem_without_plane_pair_is_an_io_failure(self, tmp_path):
        self._materialize(tmp_path)
        with pytest.raises(IoFailure):
            samples_for_stem("other", [], tmp_path / "other")

    def test_serialization_never_references_proxies(self, tmp_path):
        capture = self._materialize(tmp_path)
        record = InstructionRecord(question="Q?", answer="A", score=0.5,
                                   question_type="qt", template_id="t",
                                   source_prefix="synth", provenance=(0.5, 2.0))
        samples = samples_for_stem("cap-z", [record], tmp_path / "cap-z")
        assert samples[0].metadata == capture.metadata
        write_samples(tmp_path / "samples.jsonl", samples)
        text = (tmp_path / "samples.jsonl").read_text()
        assert ".ppm" not in text
        row = json.loads(text.splitlines()[0])
        assert set(row) == {"capture_id", "meas_xyz_path", "record", "metadata"}
        loaded = read_samples(tmp_path / "samples.jsonl")
        assert loaded == samples


def test_answer_normalization():
    assert normalize_answer("  Red   CAR ") == "red car"
    assert question_key("What, color?!") == "what color"
