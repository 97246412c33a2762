import itertools
import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import remote
from measground.benchmark import BenchmarkExample, CapabilityDimension
from measground.errors import (
    IoFailure,
    JudgeUnavailable,
    MalformedVerdict,
    ManifestMismatch,
    SchemaViolation,
)
from measground.metrics import (
    _CJK_RANGES,
    ExactMatchJudge,
    HttpJudgeClient,
    MetricReport,
    MetricTriple,
    TranscriptJudge,
    bleu,
    evaluate_run,
    judge,
    render_table,
    rouge_l,
    tokenize,
)
from measground.records import decode, encode

from conftest import make_metadata

# Brute-force LCS oracle: enumerate all subsequences of both sequences and
# take the longest common one. Exponential, fine at these lengths.

def _subsequences(seq):
    out = set()
    for r in range(len(seq) + 1):
        out.update(itertools.combinations(seq, r))
    return out


def lcs_brute_force(a, b) -> int:
    common = _subsequences(tuple(a)) & _subsequences(tuple(b))
    return max(len(s) for s in common)


def rouge_oracle(candidate, reference) -> float:
    if not candidate:
        return 0.0
    lcs = lcs_brute_force(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return 2 * p * r / (p + r)


# The character loop the tokenizer's regular expression replaced, kept as its oracle.

def _is_cjk(ch: str) -> bool:
    code = ord(ch)
    return any(lo <= code <= hi for lo, hi in _CJK_RANGES)


def tokenize_oracle(text: str) -> list[str]:
    tokens: list[str] = []
    current = []
    for ch in text.lower():
        if _is_cjk(ch):
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        elif ch.isalnum():
            current.append(ch)
        else:
            if current:
                tokens.append("".join(current))
                current = []
    if current:
        tokens.append("".join(current))
    return tokens


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("The CAT, sat-down!") == ["the", "cat", "sat", "down"]

    def test_cjk_per_code_point(self):
        assert tokenize("黑色 BLACK") == ["黑", "色", "black"]

    def test_mixed_digits(self):
        assert tokenize("room 42?") == ["room", "42"]

    def test_underscore_splits(self):
        assert tokenize("snake_case __x_") == ["snake", "case", "x"]

    # each range's two ends, and the code points next to them
    @pytest.mark.parametrize("code", [end + step for ends in _CJK_RANGES for end in ends for step in (-1, 0, 1)],
                             ids=hex)
    def test_cjk_range_ends_match_the_loop(self, code):
        text = f"a{chr(code)}b {chr(code)}{chr(code)} 1{chr(code)}"
        assert tokenize(text) == tokenize_oracle(text)

    @settings(max_examples=2000, deadline=None)
    @given(text=st.text())
    def test_matches_the_loop(self, text):
        assert tokenize(text) == tokenize_oracle(text)

    @pytest.mark.parametrize("text", ["İstanbul", "e\u0301t\u00e9", "x\U0001d7d8y \U00020000\U0001f600"])
    def test_case_folding_combining_marks_and_astral_code_points_match_the_loop(self, text):
        assert tokenize(text) == tokenize_oracle(text)


class TestBleu:
    def test_identical_is_one(self):
        tokens = "a b c d e".split()
        assert bleu(tokens, [tokens]) == 1.0

    def test_short_identical_is_one(self):
        assert bleu(["hi"], [["hi"]]) == 1.0

    def test_no_overlap_is_zero(self):
        assert bleu("a b".split(), ["c d".split()]) == 0.0

    def test_empty_candidate_is_zero(self):
        assert bleu([], ["a b".split()]) == 0.0

    def test_hand_trace_the_cat_sat(self):
        value = bleu("the cat sat".split(), ["the cat sat down".split()])
        assert value == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)

    def test_hand_trace_repeated_token_clipping(self):
        # p1 = 1/3 (clip "the" at 1), p2 = 1/3 smoothed, p3 = 1/2 smoothed,
        # p4 = 1 smoothed; BP = 1 since candidate is longer than reference
        value = bleu("the the the".split(), ["the cat".split()])
        expected = (1 / 3 * 1 / 3 * 1 / 2 * 1.0) ** 0.25
        assert value == pytest.approx(expected, abs=1e-12)

    def test_multiple_references_use_closest_length(self):
        value = bleu("a b c".split(), ["a b c".split(), "a b c d e".split()])
        assert value == 1.0

    def test_brevity_penalty(self):
        value = bleu(["x"], [["x", "y", "z"]])
        assert value == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_requires_reference(self):
        with pytest.raises(ManifestMismatch):
            bleu(["a"], [])


class TestRougeL:
    def test_identical(self):
        assert rouge_l("a b".split(), "a b".split()) == 1.0

    def test_disjoint(self):
        assert rouge_l("a b".split(), "c d".split()) == 0.0

    def test_hand_trace(self):
        assert rouge_l("a b c d".split(), "a c d".split()) == pytest.approx(6 / 7)

    def test_empty_candidate(self):
        assert rouge_l([], ["a"]) == 0.0

    def test_exhaustive_small_alphabet_against_brute_force(self):
        # all pairs up to length 4 here; the acceptance suite covers length 6
        alphabet = ("a", "b", "c")
        seqs = [()]
        for n in range(1, 5):
            seqs.extend(itertools.product(alphabet, repeat=n))
        refs = [s for s in seqs if s]
        for cand in seqs:
            for ref in refs:
                assert rouge_l(list(cand), list(ref)) == pytest.approx(
                    rouge_oracle(cand, ref), abs=1e-12
                )


class TestJudges:
    def test_exact_match_normalizes(self):
        client = ExactMatchJudge()
        assert judge("q", "Two  Cars", "two cars", client) is True
        assert judge("q", "two", "three", client) is False

    def test_transcript_verdicts(self, tmp_path):
        path = tmp_path / "judge.jsonl"
        path.write_text(json.dumps({
            "question": "q1", "reference": "r", "prediction": "p", "verdict": "correct",
        }) + "\n")
        client = TranscriptJudge(path)
        assert judge("q1", "r", "p", client) is True
        assert judge("q2", "r", "different", client) is False  # fallback exact

    def test_transcript_rejects_bad_verdict(self, tmp_path):
        path = tmp_path / "judge.jsonl"
        path.write_text(json.dumps({
            "question": "q", "reference": "r", "prediction": "p", "verdict": "maybe",
        }) + "\n")
        with pytest.raises(SchemaViolation, match="judge.jsonl:1"):
            TranscriptJudge(path)


class _JudgeHandler(BaseHTTPRequestHandler):
    script = []

    def do_POST(self):
        json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, payload = type(self).script.pop(0)
        blob = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def log_message(self, *args):
        pass


@pytest.fixture
def judge_server():
    server = HTTPServer(("127.0.0.1", 0), _JudgeHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _JudgeHandler.script = []
    yield f"http://127.0.0.1:{server.server_port}/judge", _JudgeHandler
    server.shutdown()
    server.server_close()


class TestHttpJudge:
    def test_correct_verdict(self, judge_server):
        endpoint, handler = judge_server
        handler.script.append((200, {"verdict": "correct"}))
        assert judge("q", "r", "p", HttpJudgeClient(endpoint)) is True

    def test_retry_on_server_error(self, judge_server):
        endpoint, handler = judge_server
        handler.script.append((500, {}))
        handler.script.append((200, {"verdict": "incorrect"}))
        assert judge("q", "r", "p", HttpJudgeClient(endpoint)) is False

    def test_gives_up(self, judge_server):
        endpoint, handler = judge_server
        handler.script.extend([(500, {})] * (1 + remote.MAX_RETRIES))
        with pytest.raises(JudgeUnavailable):
            judge("q", "r", "p", HttpJudgeClient(endpoint))
        assert handler.script == []

    def test_client_error_is_not_retried(self, judge_server):
        endpoint, handler = judge_server
        handler.script.extend([(404, {})] * 4)
        with pytest.raises(IoFailure, match="HTTP 404"):
            judge("q", "r", "p", HttpJudgeClient(endpoint))
        assert len(handler.script) == 3

    def test_rate_limit_and_timeout_statuses_are_retried(self, judge_server):
        endpoint, handler = judge_server
        handler.script.extend([(429, {}), (408, {}), (200, {"verdict": "correct"})])
        assert judge("q", "r", "p", HttpJudgeClient(endpoint)) is True
        assert handler.script == []

    def test_non_json_body_is_malformed_not_retried(self, judge_server):
        endpoint, handler = judge_server
        handler.script.extend([(200, b"not json")] * 2)
        with pytest.raises(MalformedVerdict, match="non-JSON"):
            judge("q", "r", "p", HttpJudgeClient(endpoint))
        assert len(handler.script) == 1

    def test_a_body_nested_too_deeply_is_malformed_not_retried(self, judge_server):
        endpoint, handler = judge_server
        handler.script.extend([(200, b"[" * 200_000)] * 2)
        with pytest.raises(MalformedVerdict, match="non-JSON"):
            judge("q", "r", "p", HttpJudgeClient(endpoint))
        assert len(handler.script) == 1

    def test_malformed_verdict(self, judge_server):
        endpoint, handler = judge_server
        handler.script.append((200, {"verdict": "sure"}))
        with pytest.raises(MalformedVerdict):
            judge("q", "r", "p", HttpJudgeClient(endpoint))


def _example(i, dimension, question=None, answer="two cars"):
    return BenchmarkExample(
        capture_id=f"cap-{i}",
        meas_xyz_path=f"/meas/cap-{i}",
        rgb_proxy_path=f"/rgb/cap-{i}.ppm",
        question=question or f"Question {i}?",
        reference_answer=answer,
        dimension=dimension,
        metadata=make_metadata(i),
    )


def _documented_order_report(predictions, manifest):
    """The report ``evaluate_run`` documents, summed left to right: each dimension's
    rows in (capture_id, question) order, then the dimension sums in first-seen order."""
    sums, counts, missing = {}, {}, 0
    for e in sorted(manifest, key=lambda e: (e.capture_id, e.question)):
        prediction = predictions.get((e.capture_id, e.question))
        if prediction is None:
            missing += 1
            prediction = ""
        ref, pred = tokenize(e.reference_answer), tokenize(prediction)
        row = (bleu(pred, [ref]) if ref else 0.0, rouge_l(pred, ref) if ref else 0.0,
               1.0 if prediction and ExactMatchJudge().verdict(e.question, e.reference_answer, prediction)
               else 0.0)
        bucket = sums.setdefault(e.dimension, [0.0, 0.0, 0.0])
        for k in range(3):
            bucket[k] += row[k]
        counts[e.dimension] = counts.get(e.dimension, 0) + 1
    overall = [0.0, 0.0, 0.0]
    for bucket in sums.values():
        for k in range(3):
            overall[k] += bucket[k]
    return MetricReport(
        overall=MetricTriple(*(s / len(manifest) for s in overall)),
        per_dimension={dim: MetricTriple(*(s / counts[dim] for s in bucket)) for dim, bucket in sums.items()},
        counts=counts, total=len(manifest), missing_predictions=missing)


class TestEvaluateRun:
    def test_perfect_predictions(self):
        manifest = [_example(i, CapabilityDimension.NG) for i in range(3)]
        predictions = {(e.capture_id, e.question): e.reference_answer for e in manifest}
        report = evaluate_run(predictions, manifest)
        assert report.overall.bleu == 1.0
        assert report.overall.rouge_l == 1.0
        assert report.overall.judge_accuracy == 1.0
        assert report.missing_predictions == 0

    def test_all_missing_predictions(self):
        manifest = [_example(i, CapabilityDimension.GVG) for i in range(4)]
        report = evaluate_run({}, manifest)
        assert report.overall.bleu == 0.0
        assert report.overall.rouge_l == 0.0
        assert report.overall.judge_accuracy == 0.0
        assert report.missing_predictions == 4

    def test_two_dimension_aggregates_match_hand_means(self):
        ng = [_example(i, CapabilityDimension.NG, answer="two") for i in range(2)]
        cag = [_example(i + 10, CapabilityDimension.CAG, answer="red") for i in range(2)]
        manifest = ng + cag
        predictions = {
            (ng[0].capture_id, ng[0].question): "two",     # exact
            (ng[1].capture_id, ng[1].question): "blue",    # wrong
            (cag[0].capture_id, cag[0].question): "red",   # exact
            (cag[1].capture_id, cag[1].question): "red",   # exact
        }
        report = evaluate_run(predictions, manifest)
        assert report.per_dimension[CapabilityDimension.NG].judge_accuracy == 0.5
        assert report.per_dimension[CapabilityDimension.CAG].judge_accuracy == 1.0
        assert report.overall.judge_accuracy == 0.75
        assert report.counts[CapabilityDimension.NG] == 2

    def test_weighted_average_reproduces_overall(self):
        manifest = [
            _example(i, (CapabilityDimension.NG, CapabilityDimension.STR, CapabilityDimension.GVG)[i % 3],
                     answer=("two", "stop", "a dog sits")[i % 3])
            for i in range(9)
        ]
        predictions = {
            (e.capture_id, e.question): e.reference_answer if i % 2 else "nope"
            for i, e in enumerate(manifest)
        }
        report = evaluate_run(predictions, manifest)
        for field in ("bleu", "rouge_l", "judge_accuracy"):
            weighted = sum(
                getattr(report.per_dimension[d], field) * report.counts[d]
                for d in report.per_dimension
            ) / report.total
            assert weighted == pytest.approx(getattr(report.overall, field), abs=1e-9)

    def test_unknown_prediction_rejected(self):
        manifest = [_example(0, CapabilityDimension.NG)]
        with pytest.raises(ManifestMismatch):
            evaluate_run({("ghost", "Q?"): "x"}, manifest)

    def test_prediction_order_is_irrelevant(self):
        manifest = [_example(i, CapabilityDimension.NG) for i in range(4)]
        items = [((e.capture_id, e.question), e.reference_answer if i % 2 else "wrong")
                 for i, e in enumerate(manifest)]
        forward = evaluate_run(dict(items), manifest)
        backward = evaluate_run(dict(reversed(items)), manifest)
        assert forward == backward

    def test_sums_in_example_then_first_seen_dimension_order(self):
        # first seen in (capture_id, question) order: GVG, STR, NG, CAG, the reverse of enum order;
        # GVG's BLEU and ROUGE-L sums, and the overall BLEU sum, change in the last bit in another order
        rows = [  # dimension, reference, prediction (None: missing)
            (CapabilityDimension.GVG, "a dog sits on the mat", "the dog sat on a mat"),
            (CapabilityDimension.STR, "停车 STOP", "停 stop now"),
            (CapabilityDimension.NG, "two cars", None),
            (CapabilityDimension.CAG, "!!!", "red"),
            (CapabilityDimension.GVG, "a red car near the gate", "a red car by the gate"),
            (CapabilityDimension.STR, "出口 exit", "出口"),
            (CapabilityDimension.NG, "three birds", "three birds"),
            (CapabilityDimension.CAG, "deep blue 蓝色", "blue 蓝"),
            (CapabilityDimension.GVG, "two people walk", "people walk"),
            (CapabilityDimension.STR, "!!!", None),
        ]
        manifest = [_example(i, dim, answer=ref) for i, (dim, ref, _) in enumerate(rows)]
        predictions = {(e.capture_id, e.question): pred
                       for e, (_, _, pred) in zip(manifest, rows) if pred is not None}
        report = evaluate_run(predictions, manifest)
        expected = _documented_order_report(predictions, manifest)
        assert report == expected
        assert list(report.per_dimension) == list(report.counts) == list(expected.counts) == [
            CapabilityDimension.GVG, CapabilityDimension.STR, CapabilityDimension.NG, CapabilityDimension.CAG]
        assert (report.total, report.missing_predictions) == (10, 2)

    def test_report_round_trip_and_table(self):
        manifest = [_example(i, CapabilityDimension.NG) for i in range(2)]
        predictions = {(e.capture_id, e.question): e.reference_answer for e in manifest}
        report = evaluate_run(predictions, manifest)
        round_tripped = decode(MetricReport, json.loads(json.dumps(encode(report))), "report")
        assert round_tripped == report
        table = render_table(report)
        assert "OVERALL" in table and "NG" in table and "100.00" in table
