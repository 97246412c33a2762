"""``records.decode``'s rule, checked on a record that uses every kind of annotation
it decodes: a value of the right JSON type is converted, any other is refused
with a message naming its key path. ``records.encode``, its inverse, writes the
bytes the hand-written writers it replaced wrote, and every record it writes
decodes back to itself."""

import dataclasses
import enum
import json
import math
import re
import typing
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from measground import benchmark, bracketsup, capture, cli, formats, isp, lost_signal, measxyz, metrics, probe, records
from measground.benchmark import CapabilityDimension
from measground.errors import ConfigInvalid, DomainError, SchemaViolation
from measground.records import CameraMetadata, CaptureRef, RenderParams, decode


class Color(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class Inner:
    n: int


@dataclass(frozen=True)
class Outer:
    name: str
    gain: float
    flag: bool = False
    note: str | None = None
    gains: tuple[float, ...] = ()
    pair: tuple[int, str] = (0, "")
    inner: Inner = Inner(0)
    color: Color = Color.RED
    counts: dict[Color, int] | None = None
    raw: dict | None = None


@pytest.mark.parametrize("obj, expected", [
    ({"name": "a", "gain": 2}, Outer("a", 2.0)),
    ({"name": "a", "gain": 0.5, "flag": True, "note": None, "gains": [1, 2.5], "pair": [3, "b"],
      "inner": {"n": 4}, "color": "red", "counts": {"red": 1}, "raw": {"k": [1, None]}},
     Outer("a", 0.5, True, None, (1.0, 2.5), (3, "b"), Inner(4), Color.RED, {Color.RED: 1},
           {"k": [1, None]})),
])
def test_values_of_the_right_type_are_decoded(obj, expected):
    decoded = decode(Outer, obj, "outer")
    assert decoded == expected
    assert type(decoded.gain) is float and all(type(g) is float for g in decoded.gains)


@pytest.mark.parametrize("obj, message", [
    ({"name": 5, "gain": 1.0}, "outer.name: expected str, got 5"),
    ({"name": "a", "gain": "1"}, "outer.gain: expected float, got '1'"),
    ({"name": "a", "gain": True}, "outer.gain: expected float, got True"),
    ({"name": "a", "gain": 10 ** 400}, "outer.gain: expected float, got 1"),
    ({"name": "a", "gain": 1.0, "flag": 1}, "outer.flag: expected bool, got 1"),
    ({"name": "a", "gain": 1.0, "gains": 5}, "outer.gains: expected tuple[float, ...], got 5"),
    ({"name": "a", "gain": 1.0, "gains": [1, None]}, "outer.gains: expected tuple[float, ...]"),
    ({"name": "a", "gain": 1.0, "pair": [1]}, "outer.pair: expected tuple[int, str], got [1]"),
    ({"name": "a", "gain": 1.0, "inner": {"n": True}}, "outer.inner.n: expected int, got True"),
    ({"name": "a", "gain": 1.0, "inner": {}}, "outer.inner: missing key 'n'"),
    ({"name": "a", "gain": 1.0, "inner": 3}, "outer.inner: expected Inner, got 3"),
    ({"name": "a", "gain": 1.0, "color": "blue"}, "outer.color: expected Color, got 'blue'"),
    ({"name": "a", "gain": 1.0, "counts": {"blue": 1}}, "outer.counts: expected dict[Color, int] | None"),
    ({"name": "a"}, "outer: missing key 'gain'"),
    ({"name": "a", "gain": 1.0, "extra": 1, "more": 2}, "outer: unknown keys ['extra', 'more']"),
    (["a", 1.0], "outer: expected Outer, got ['a', 1.0]"),
    ({"name": "a", "gain": 1.0, "raw": [1]}, "outer.raw: expected dict | None, got [1]"),
    ({"name": "x\ud800", "gain": 1.0}, "outer.name: value 'x\\ud800' holds a lone surrogate"),
    ({"name": "a", "gain": 1.0, "pair": [1, "\udfff"]}, "outer.pair: value '\\udfff' holds a lone surrogate"),
])
def test_values_of_the_wrong_type_are_refused(obj, message):
    with pytest.raises(ConfigInvalid) as refused:
        decode(Outer, obj, "outer", ConfigInvalid)
    assert str(refused.value).startswith(message)


def test_a_constructor_check_is_refused_as_the_readers_error():
    params = {"exposure_gain": 0}
    with pytest.raises(SchemaViolation, match=r"^header\.exposure_gain: value 0\.0 out of range$"):
        decode(RenderParams, params, "header")
    with pytest.raises(DomainError, match=r"^exposure_gain: value 0\.0 out of range$"):
        RenderParams(**params)
    with pytest.raises(SchemaViolation, match="^header: unknown transfer 'GAMMA'$"):
        decode(RenderParams, {"exposure_gain": 1, "transfer": "GAMMA"}, "header")


# --- encoding: the bytes the writers write ------------------------------------------
#
# Each writer below writes one record, and its output is pinned to the bytes
# the hand-written ``to_dict`` methods wrote before ``records.encode`` replaced
# them, so a sidecar, header, sample, manifest or report does not change.

META = CameraMetadata(iso=100.0, exposure_time=0.01, aperture=2.8, device_id="cam-é",
                      scene_id="scène-1", session_id="s-1")
META_WITHOUT_IDS = CameraMetadata(iso=200, exposure_time=0.5, aperture=4.0, device_id="cam-1")
RECORD = bracketsup.InstructionRecord(question="How many 猫?", answer="two", score=0.85,
                                      question_type="count", template_id="t1", source_prefix="src",
                                      provenance=(1.0, 2.0))
META_JSON = ('{"aperture": 2.8, "device_id": "cam-é", "exposure_time": 0.01, "iso": 100.0, '
             '"scene_id": "scène-1", "session_id": "s-1"}')


def _example(capture_id, dimension, answer="red"):
    return benchmark.BenchmarkExample(capture_id=capture_id, meas_xyz_path=f"m/{capture_id}",
                                      rgb_proxy_path=f"r/{capture_id}_e1.ppm", question="What colour?",
                                      reference_answer=answer, dimension=dimension, metadata=META_WITHOUT_IDS)


def _samples_file(tmp_path):
    """A sample with metadata ids: TrainingSample, InstructionRecord, CameraMetadata."""
    sample = bracketsup.TrainingSample(capture_id="c-1", meas_xyz_path="m/c-1", record=RECORD, metadata=META)
    bracketsup.write_samples(tmp_path / "samples.jsonl", [sample])
    return tmp_path / "samples.jsonl", (
        '{"capture_id": "c-1", "meas_xyz_path": "m/c-1", "metadata": ' + META_JSON + ', "record": '
        '{"answer": "two", "provenance": [1.0, 2.0], "question": "How many 猫?", "question_type": "count", '
        '"score": 0.85, "source_prefix": "src", "template_id": "t1"}}\n')


def _manifest_file(tmp_path):
    """An example without metadata ids: BenchmarkExample, its dimension, CameraMetadata."""
    benchmark.write_benchmark(tmp_path / "bench.jsonl", [_example("c-1", CapabilityDimension.CAG)])
    return tmp_path / "bench.jsonl", (
        '{"capture_id": "c-1", "dimension": "CAG", "meas_xyz_path": "m/c-1", "metadata": '
        '{"aperture": 4.0, "device_id": "cam-1", "exposure_time": 0.5, "iso": 200}, '
        '"question": "What colour?", "reference_answer": "red", "rgb_proxy_path": "r/c-1_e1.ppm"}\n')


def _refs_file(tmp_path):
    """A capture ref with null ids."""
    formats.write_json(tmp_path / "refs.json", [CaptureRef(capture_id="c-1", raw_path="/raw/c-1.dng").to_dict()])
    return tmp_path / "refs.json", (
        '[{"bundle_path": "", "capture_id": "c-1", "device_id": null, "raw_path": "/raw/c-1.dng", '
        '"scene_id": null, "session_id": null}]\n')


def _save_proxy(tmp_path):
    codes = np.zeros((1, 1, 3), dtype=np.uint16)
    isp.save_rendered(isp.RenderedRgb(codes, RenderParams(exposure_gain=2, bit_depth=10), "c-1"),
                      tmp_path / "proxies" / "c-1_e2")


def _sidecar_file(metadata, metadata_json):
    """A bundle's capture.json: every RawCapture field but the mosaic."""
    def write(tmp_path):
        raw = capture.RawCapture(
            capture_id="c-1", mosaic=np.zeros((2, 2), np.uint16), cfa_pattern="GRBG",
            black_level=(64, 64.5, 64, 64), white_level=1023, wb_gains=(2, 1.0, 1.5),
            cam_to_xyz=np.array([[0.5, 0.25, 0], [0, 1, 0], [0, 0.125, 2]]), metadata=metadata,
            raw_path="/raw/c-1.dng")
        capture.save_capture_bundle(raw, tmp_path / "b")
        return tmp_path / "b" / "capture.json", (
            '{"black_level": [64.0, 64.5, 64.0, 64.0], "cam_to_xyz": [[0.5, 0.25, 0.0], [0.0, 1.0, 0.0], '
            '[0.0, 0.125, 2.0]], "capture_id": "c-1", "cfa_pattern": "GRBG", "metadata": ' + metadata_json
            + ', "raw_path": "/raw/c-1.dng", "wb_gains": [2.0, 1.0, 1.5], "white_level": 1023.0}\n')
    write.__name__ = "_sidecar_" + ("with_ids" if metadata.scene_id else "without_ids")
    return write


def _plane_header_file(tmp_path):
    """A Meas.-XYZ plane header: its capture id, metadata, range and shape."""
    image = measxyz.MeasXyzImage(data=np.zeros((2, 4, 3)), capture_id="c-1", metadata=META)
    measxyz.save_meas_xyz(image, tmp_path / "c-1")
    return tmp_path / "c-1.json", (
        '{"capture_id": "c-1", "channels": 3, "height": 2, "metadata": ' + META_JSON
        + ', "range": [0, 1], "width": 4}\n')


def _lost_signal_report(tmp_path):
    """A lost-signal report over a 2x3 residual, emitted under tmp_path."""
    residual = np.array([[0.0, 0.5, 0.25], [0.125, 0.0, 0.75]])
    report = lost_signal.LostSignalReport(
        residual_map=residual, lost_mask=residual > 0.2, clipped_fraction=1 / 3, p99_original=0.875,
        p99_recovered=0.5, histogram=lost_signal.residual_histogram(residual, 2), tau=0.2,
        capture_id="c-é", exposure_gain=2.0, bits=10)
    lost_signal.emit_report(report, tmp_path)


def _summary_file(tmp_path):
    """A lost-signal summary: LostSignalSummary."""
    _lost_signal_report(tmp_path)
    return tmp_path / "c-é_summary.json", (
        '{"bits": 10, "capture_id": "c-é", "clipped_fraction": 0.3333333333333333, "exposure_gain": 2.0, '
        '"p99_original": 0.875, "p99_recovered": 0.5, "tau": 0.2}\n')


def _residual_header_file(tmp_path):
    """A lost-signal residual plane header: ResidualHeader, its range and shape."""
    _lost_signal_report(tmp_path)
    return tmp_path / "c-é_residual.json", (
        '{"capture_id": "c-é", "channels": 1, "height": 2, "range": [0, 0.75], "width": 3}\n')


def _render_header_file(tmp_path):
    """A render header: RenderHeader and RenderParams."""
    (tmp_path / "proxies").mkdir()
    _save_proxy(tmp_path)
    return tmp_path / "proxies" / "c-1_e2.json", (
        '{"capture_id": "c-1", "params": {"bit_depth": 10, "exposure_gain": 2.0, "quantize": true, '
        '"transfer": "SRGB_PIECEWISE", "xyz_to_linear_srgb": [[3.2404542, -1.5371385, -0.4985314], '
        '[-0.969266, 1.8760108, 0.041556], [0.0556434, -0.2040259, 1.0572252]]}}\n')


def _candidates_file(tmp_path):
    """A candidates row: the capture id and a CandidateRecord, as annotate writes it."""
    (tmp_path / "proxies").mkdir()
    _save_proxy(tmp_path)
    candidate = {"question": "How many 猫?", "answer": "two", "score": 0.75,
                 "question_type": "count", "template_id": "t1"}
    (tmp_path / "t.jsonl").write_text(json.dumps(
        {"capture_id": "c-1", "exposure_gain": 2.0, "candidates": [candidate]}) + "\n")
    assert cli.main(["annotate", "--proxies", str(tmp_path / "proxies"), "--mock-annotator",
                     str(tmp_path / "t.jsonl"), "--source-prefix", "src", "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / "candidates.jsonl", (
        '{"answer": "two", "capture_id": "c-1", "exposure_gain": 2.0, "question": "How many 猫?", '
        '"question_type": "count", "score": 0.75, "source_prefix": "src", "template_id": "t1"}\n')


def _metrics_file(tmp_path):
    """An eval report over two dimensions: MetricReport, MetricTriple, dimension keys."""
    benchmark.write_benchmark(tmp_path / "bench.jsonl", [
        _example("c-1", CapabilityDimension.NG, "two"), _example("c-2", CapabilityDimension.NG, "one"),
        _example("c-3", CapabilityDimension.CAG)])
    (tmp_path / "preds.jsonl").write_text(
        '{"capture_id": "c-1", "question": "What colour?", "prediction": "two"}\n'
        '{"capture_id": "c-3", "question": "What colour?", "prediction": "blue"}\n')
    assert cli.main(["eval", "--bench", str(tmp_path / "bench.jsonl"), "--predictions",
                     str(tmp_path / "preds.jsonl"), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / "metrics.json", (
        '{"counts": {"CAG": 1, "NG": 2}, "missing_predictions": 1, "overall": {"bleu": 0.3333333333333333, '
        '"judge_accuracy": 0.3333333333333333, "rouge_l": 0.3333333333333333}, "per_dimension": '
        '{"CAG": {"bleu": 0.0, "judge_accuracy": 0.0, "rouge_l": 0.0}, "NG": {"bleu": 0.5, '
        '"judge_accuracy": 0.5, "rouge_l": 0.5}}, "total": 3}\n')


def _disjointness_file(tmp_path):
    """A failed verify-split: DisjointnessReport and its intersections."""
    for name, device in (("train", "cam-1"), ("bench", "cam-2")):
        formats.write_json(tmp_path / f"{name}.json",
                           [CaptureRef(capture_id="c-ü", device_id=device).to_dict()])
    assert cli.main(["verify-split", "--train", str(tmp_path / "train.json"), "--bench",
                     str(tmp_path / "bench.json"), "--out", str(tmp_path / "out")]) == 1
    return tmp_path / "out" / "disjointness.json", (
        '{"intersections": {"capture_id": ["c-ü"], "device_id": [], "raw_path": [], "scene_id": [], '
        '"session_id": []}, "status": "FAIL"}\n')


@pytest.mark.parametrize("write", [
    _samples_file, _manifest_file, _refs_file, _render_header_file, _candidates_file, _metrics_file,
    _disjointness_file, _sidecar_file(META, META_JSON),
    _sidecar_file(META_WITHOUT_IDS, '{"aperture": 4.0, "device_id": "cam-1", "exposure_time": 0.5, "iso": 200}'),
    _plane_header_file, _summary_file, _residual_header_file,
], ids=lambda write: write.__name__.lstrip("_"))
def test_written_records_keep_their_bytes(tmp_path, write):
    path, expected = write(tmp_path)
    assert path.read_bytes().decode("utf-8") == expected


def test_default_config_hash_is_unchanged():
    assert cli._config_hash(cli.RunConfig()) == (
        "4fd1346589cc0e6da014b438be7023eb260eaa7313637af5583c9dc7ca921157")


# --- decoding: every number in its field's range ---------------------------------------
#
# Each record that ``decode`` reads, walked from its type hints: every float,
# and every int with a declared bound, in tuples, dict values and nested
# records. Set to NaN, inf, -inf and -1 in turn, each is refused naming its
# field path, or accepted where its bound holds the value, so a field added
# later is covered without a change here.

def _number_leaves(hint, value, keys=(), path="", bound=None):
    """(keys to the number in ``value``, the path ``decode`` names, its range, its type)
    for each float, and each int with a range, read from ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:  # a range holds each number of a tuple
        yield from _number_leaves(args[0], value, keys, path, hint.__metadata__[0])
    elif hint is float or (hint is int and bound):
        yield keys, path, bound or records.Range(), hint
    elif origin is tuple:
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        for index, (item, v) in enumerate(zip(items, value)):
            yield from _number_leaves(item, v, (*keys, index), path, bound)
    elif origin is dict:
        for key, v in value.items():
            yield from _number_leaves(args[1], v, (*keys, key), path)
    elif dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint, include_extras=True)
        for f in dataclasses.fields(hint):
            if f.name in value:
                yield from _number_leaves(hints[f.name], value[f.name], (*keys, f.name), f"{path}.{f.name}")


def _with(value, keys, leaf):
    """A copy of the JSON ``value`` with the item at ``keys`` set to ``leaf``."""
    if not keys:
        return leaf
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[keys[0]] = _with(value[keys[0]], keys[1:], leaf)
    return copy


_TRIPLE = metrics.MetricTriple(bleu=0.5, rouge_l=0.5, judge_accuracy=0.5)
_DECODED = [
    cli.RunConfig(),
    capture.Sidecar(capture_id="c-1", cfa_pattern="RGGB", black_level=(64.0,) * 4, white_level=1023.0,
                    wb_gains=(2.0, 1.0, 1.5), cam_to_xyz=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                    metadata=META, raw_path="/raw/c-1.dng"),
    META,
    records.MeasXyzHeader(capture_id="c-1", metadata=META, range=(0.0, 1.0), height=2, width=2, channels=3),
    records.RenderHeader(capture_id="c-1", params=RenderParams(exposure_gain=2.0)),
    records.LostSignalSummary(capture_id="c-1", exposure_gain=2.0, clipped_fraction=0.1, p99_original=0.5,
                              p99_recovered=0.6, tau=records.DEFAULT_TAU, bits=8),
    records.ResidualHeader(capture_id="c-1", range=(0.0, 0.5), height=2, width=2, channels=1),
    bracketsup.CandidateRecord(question="q?", answer="a", score=0.5, exposure_gain=2.0,
                               question_type="qt", template_id="t"),
    bracketsup.TrainingSample(capture_id="c-1", meas_xyz_path="m/c-1", record=RECORD, metadata=META),
    _example("c-1", CapabilityDimension.CAG),
    metrics.MetricReport(overall=_TRIPLE, per_dimension={CapabilityDimension.NG: _TRIPLE},
                         counts={CapabilityDimension.NG: 1}, total=1, missing_predictions=0),
    capture.SyntheticSceneSpec(patches=(capture.ScenePatch(top=0, left=0, height=2, width=2, gain=2.0),)),
    probe.ProbeConfig(),
]


@pytest.mark.parametrize("record", _DECODED, ids=lambda record: type(record).__name__)
def test_every_number_is_refused_outside_its_range_naming_its_field(record):
    cls, value = type(record), json.loads(formats.dump_json(records.encode(record)))
    leaves = list(_number_leaves(cls, value))
    assert leaves
    for keys, path, bound, kind in leaves:
        for leaf in (math.nan, math.inf, -math.inf, -1.0) if kind is float else (-1,):
            changed = _with(value, keys, leaf)
            if bound.lo <= leaf <= bound.hi:
                decode(cls, changed, "record")
                continue
            with pytest.raises(SchemaViolation) as refused:
                decode(cls, changed, "record")
            assert str(refused.value) == f"record{path}: value {leaf!r} out of range"


# --- encoding: every record decodes back to itself ------------------------------------

_text = st.text(max_size=8)
_words = st.text(min_size=1, max_size=8).filter(str.strip)
_positive = st.floats(min_value=1e-6, max_value=1e6)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_unit = st.floats(min_value=0.0, max_value=1.0)
_dimensions = st.sampled_from(CapabilityDimension)

_metadata = st.builds(CameraMetadata, iso=_positive, exposure_time=_positive, aperture=_positive,
                      device_id=_words, scene_id=st.none() | _text, session_id=st.none() | _text)
_refs = st.builds(CaptureRef, capture_id=_text, raw_path=_text, bundle_path=_text,
                  scene_id=st.none() | _text, device_id=st.none() | _text, session_id=st.none() | _text)
_params = st.builds(RenderParams, exposure_gain=_positive, bit_depth=st.integers(1, 16),
                    xyz_to_linear_srgb=st.sampled_from([records.XYZ_TO_LINEAR_SRGB_D65,
                                                        ((1, 0, 0), (0, 1, 0), (0, 0, 1))]),
                    transfer=st.sampled_from([records.SRGB_PIECEWISE, records.IDENTITY]),
                    quantize=st.booleans())
_instruction = st.builds(bracketsup.InstructionRecord, question=_words, answer=_words, score=_unit,
                         question_type=_text, template_id=_text, source_prefix=_text,
                         provenance=st.lists(_positive, min_size=1, max_size=4).map(tuple))
_triples = st.builds(metrics.MetricTriple, bleu=_unit, rouge_l=_unit, judge_accuracy=_unit)


def _report(per_dimension):
    def report(counts):
        total = sum(counts.values())
        return st.builds(metrics.MetricReport, overall=_triples, per_dimension=st.just(per_dimension),
                         counts=st.just(counts), total=st.just(total),
                         missing_predictions=st.integers(0, total))
    return st.fixed_dictionaries({dim: st.integers(1, 99) for dim in per_dimension}).flatmap(report)


# Calibrations the rule accepts: white above black, and a diagonally dominant
# matrix, whose determinant is at least 0.5 ** 3 and whose white is at least half
# the largest gain.
_cam_to_xyz = st.tuples(*[st.tuples(*[st.floats(1.0, 4.0) if j == i else st.floats(-0.25, 0.25)
                                      for j in range(3)]) for i in range(3)])

_RECORDS = {
    CameraMetadata: _metadata,
    CaptureRef: _refs,
    capture.Sidecar: st.builds(
        capture.Sidecar, capture_id=_words, cfa_pattern=st.sampled_from(capture.CFA_PATTERNS),
        black_level=st.tuples(*[st.floats(min_value=0.0, max_value=30000.0)] * 4),
        white_level=st.floats(min_value=30001.0, max_value=65535.0),
        wb_gains=st.tuples(_positive, _positive, _positive),
        cam_to_xyz=_cam_to_xyz, metadata=_metadata, raw_path=_text),
    records.MeasXyzHeader: st.builds(
        records.MeasXyzHeader, capture_id=_text, metadata=_metadata, range=st.tuples(_finite, _finite),
        height=st.integers(1, 99), width=st.integers(1, 99), channels=st.integers(1, 3)),
    RenderParams: _params,
    records.RenderHeader: st.builds(records.RenderHeader, capture_id=_text, params=_params),
    records.LostSignalSummary: st.builds(
        records.LostSignalSummary, capture_id=_text, exposure_gain=_positive, clipped_fraction=_unit,
        p99_original=_finite, p99_recovered=_finite, tau=_positive, bits=st.integers(1, 16)),
    records.ResidualHeader: st.builds(
        records.ResidualHeader, capture_id=_text, range=st.tuples(st.just(0), _finite),
        height=st.integers(0, 99), width=st.integers(0, 99), channels=st.just(1)),
    bracketsup.CandidateRecord: st.builds(
        bracketsup.CandidateRecord, question=_words, answer=_words, score=_unit, exposure_gain=_positive,
        question_type=_text, template_id=_text, source_prefix=_text),
    bracketsup.InstructionRecord: _instruction,
    bracketsup.TrainingSample: st.builds(bracketsup.TrainingSample, capture_id=_text, meas_xyz_path=_text,
                                         record=_instruction, metadata=_metadata),
    benchmark.BenchmarkExample: st.builds(
        benchmark.BenchmarkExample, capture_id=_text, meas_xyz_path=_text, rgb_proxy_path=_text,
        question=_text, reference_answer=_text, dimension=_dimensions, metadata=_metadata),
    benchmark.DisjointnessReport: st.builds(
        benchmark.DisjointnessReport, status=st.sampled_from(["PASS", "WARN", "FAIL"]),
        intersections=st.dictionaries(_text, st.lists(_text, max_size=3), max_size=5)),
    metrics.MetricTriple: _triples,
    metrics.MetricReport: st.dictionaries(_dimensions, _triples, min_size=1, max_size=4).flatmap(_report),
    cli.RunConfig: st.builds(cli.RunConfig, gain=_positive, exposures=st.lists(_positive, max_size=4).map(tuple),
                             placeholder_patterns=st.lists(_text, max_size=3).map(tuple),
                             mock_judge=st.none() | _text, seed=st.integers(0, 2**31)),
}


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encoded_records_decode_back(cls, data):
    record = data.draw(_RECORDS[cls])
    assert decode(cls, json.loads(formats.dump_json(records.encode(record))), "record") == record


def test_absent_ids_are_left_out_of_metadata_but_written_as_null_in_refs():
    assert "scene_id" not in records.encode(META_WITHOUT_IDS)
    assert records.encode(CaptureRef(capture_id="c-1"))["scene_id"] is None


@pytest.mark.parametrize("hint", [int | str, str | int | None], ids=["int_or_str", "str_or_int_or_none"])
def test_a_union_other_than_x_or_none_is_refused_naming_the_hint(hint):
    with pytest.raises(TypeError, match=re.escape(repr(hint))):
        decode(hint, 1, "value")
    record = dataclasses.make_dataclass("Either", [("id", hint)], frozen=True)
    with pytest.raises(TypeError, match=re.escape(repr(hint))):
        records.encode(record(1))
