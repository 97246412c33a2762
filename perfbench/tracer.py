"""Tracing from outside the package, and the per-layer metrics derived from it.

``Recorder`` runs inside a stage process. It wraps every public function of
the measured modules, plus a few methods whose calls are counted, and records
one span per call: name, start, end and parent span. Names other modules
imported from a wrapped module (``from .isp import render_proxy``) are
rebound to the same wrapper. Spans stay in memory and are written out once,
when ``cli.main`` returns.

``summarize`` runs in the benchmark process. It turns the span files of one
traced stage chain into self times, call counts and the derived per-layer
metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

MODULES = ("formats", "capture", "measxyz", "isp", "lost_signal",
           "bracketsup", "dataset", "benchmark", "metrics")

# Methods whose calls carry a counter: image constructions, and the fetches
# and verdicts of the annotator and judge clients the benchmark uses.
METHODS = {
    "measxyz": (("MeasXyzImage", "__post_init__"),),
    "bracketsup": (("MockAnnotatorClient", "fetch"),),
    "metrics": (("ExactMatchJudge", "verdict"),),
}
FETCH = "bracketsup.MockAnnotatorClient.fetch"
VERDICT = "metrics.ExactMatchJudge.verdict"

# tracemalloc runs only around these calls, so it slows nothing else.
PEAK_MEMORY = ("measxyz.meas_xyz_transform", "isp.make_bracket", "lost_signal.analyze_render")

MAIN = "cli.main"


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _stem_sizes(*suffixes):
    return lambda args, result: sum(_size(str(args[0]) + s) for s in suffixes)


def _path_size(args, result) -> int:
    return _size(args[0])


def _pixels(array) -> int:
    return int(array.shape[0]) * int(array.shape[1])


# name -> (counter, function of (args, result) giving the amount to add)
COUNTERS = {
    "formats.write_plane": ("bytes_written", _stem_sizes(".f32")),  # header counted by write_json
    "formats.write_json": ("bytes_written", _path_size),
    "formats.write_jsonl": ("bytes_written", _path_size),
    "formats.write_ppm": ("bytes_written", _path_size),
    "formats.write_pgm16": ("bytes_written", _path_size),
    "formats.write_pgm8": ("bytes_written", _path_size),
    "formats.read_pgm16": ("bytes_read", _path_size),
    "formats.read_ppm": ("bytes_read", _path_size),
    "formats.read_jsonl": ("bytes_read", _path_size),
    "formats.read_plane": ("bytes_read", _stem_sizes(".f32", ".json")),
    "measxyz.demosaic_bilinear": ("pixels", lambda args, result: _pixels(args[0])),
    "isp.render_proxy": ("pixels", lambda args, result: _pixels(args[0].data)),
    FETCH: ("served", lambda args, result: len(result)),
    "bracketsup.annotate": ("kept", lambda args, result: len(result)),
    "bracketsup.aggregate": ("records", lambda args, result: len(result)),
    "dataset.balance": ("accepted", lambda args, result: len(result.samples)),
}
# Input sizes are read before the call: an iterator argument is consumed by it.
INPUT_COUNTERS = {
    "bracketsup.aggregate": ("candidates", lambda args: len(args[0])),
    "dataset.balance": ("offered", lambda args: len(args[0])),
}


class Recorder:
    """Span recorder for one stage process (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counters: dict[str, float] = {}
        self.raised: dict[str, int] = {}
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        input_counter = INPUT_COUNTERS.get(name)
        peak = name in PEAK_MEMORY
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if input_counter is not None:
                key, measure = input_counter
                self._count(f"{name}:{key}", measure(args))
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0)
            stack.append(index)
            if peak:
                tracemalloc.start()
            self.start.append(time.monotonic_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                key = f"{name}:{type(exc).__name__}"
                self.raised[key] = self.raised.get(key, 0) + 1
                raise
            finally:
                self.end[index] = time.monotonic_ns()
                stack.pop()
                if peak:
                    used = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), used)
            if counter is not None:
                key, measure = counter
                self._count(f"{name}:{key}", measure(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and listed methods of every measured module."""
        replaced = {}
        for short in MODULES:
            module = importlib.import_module(f"measground.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    replaced[obj] = self.wrap(f"{short}.{attr}", obj)
            for cls_name, method in METHODS.get(short, ()):
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(f"{short}.{cls_name}.{method}", getattr(cls, method)))
        for module_name, module in list(sys.modules.items()):
            if module_name == "measground" or module_name.startswith("measground."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, attr, replaced[obj])

    def call_main(self, main, argv) -> int:
        return self.wrap(MAIN, main)(argv)

    def dump(self, path: str) -> None:
        record = {
            "names": self.names, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "counters": self.counters,
            "raised": self.raised, "peak_bytes": self.peak_bytes,
        }
        Path(path).write_text(json.dumps(record), encoding="utf-8")


# --- benchmark side --------------------------------------------------------------------

def _fn_metrics(*qualified):
    out = []
    for name in qualified:
        out += [(f"{name}.ms", "ms", "lower"), (f"{name}.calls", "count", "lower")]
    return out


def _module_fns(module, *names):
    return _fn_metrics(*(f"{module}.{n}" for n in names))


# (name, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = (
    [("cli.startup_ms", "ms", "lower"), ("cli.main.ms", "ms", "lower"),
     ("cli.exit_ms", "ms", "lower")]
    + _module_fns("formats", "read_pgm16", "write_plane", "read_plane", "encode_ppm",
                  "write_ppm", "read_ppm", "write_json", "write_jsonl", "read_jsonl")
    + [("formats.bytes_written", "bytes", "lower"), ("formats.bytes_read", "bytes", "lower")]
    + _module_fns("capture", "load_capture_bundle")
    + _module_fns("measxyz", "meas_xyz_transform", "normalize_mosaic", "demosaic_bilinear",
                  "save_meas_xyz", "load_meas_xyz", "peek_capture_id")
    + [("measxyz.MeasXyzImage.constructions", "count", "lower"),
       ("measxyz.demosaic_bilinear.mp_per_s", "MP/s", "higher"),
       ("measxyz.meas_xyz_transform.peak_mib", "MiB", "lower")]
    + _module_fns("isp", "make_bracket", "render_proxy", "linear_rgb", "clip_mask", "srgb_oetf",
                  "srgb_eotf", "quantize", "save_rendered", "load_rendered")
    + [("isp.linear_rgb.calls_per_capture", "count", "lower"),
       ("isp.render_proxy.mp_per_s", "MP/s", "higher"),
       ("isp.make_bracket.peak_mib", "MiB", "lower")]
    + _module_fns("lost_signal", "analyze_render", "invert_render", "lost_signal_residual",
                  "nearest_rank_percentile", "residual_histogram", "emit_report")
    + [("lost_signal.analyze_render.peak_mib", "MiB", "lower")]
    + _module_fns("bracketsup", "annotate", "aggregate", "samples_for_stem", "read_samples",
                  "write_samples")
    + [("bracketsup.annotate.fetches", "count", "lower"),
       ("bracketsup.annotate.retries", "count", "lower"),
       ("bracketsup.annotate.kept_ratio", "ratio", "higher"),
       ("bracketsup.aggregate.records_per_candidate", "ratio", "lower")]
    + _module_fns("dataset", "score_filter", "remove_placeholders", "balance", "export_manifest")
    + [("dataset.balance.accept_ratio", "ratio", "higher")]
    + _module_fns("benchmark", "holdout_split", "make_benchmark_examples", "verify_disjointness",
                  "load_manifest_entries", "read_benchmark", "write_benchmark")
    + [("benchmark.tag_capability.calls", "count", "lower")]
    + _module_fns("metrics", "evaluate_run", "tokenize", "bleu", "rouge_l", "judge")
    + [("metrics.judge.retries", "count", "lower"),
       ("trace.overhead_ms", "ms", "lower")]
)

_TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest reported percentile with at least ten samples beyond it."""
    for p in _TAIL_PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            return p
    return 50.0


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def summarize(stage_traces: list[dict], captures: int) -> tuple[dict, dict]:
    """Per-layer metrics and per-function latency detail for one traced chain.

    Each entry of ``stage_traces`` is a span file plus ``spawn_ns`` and
    ``exit_ns`` taken by the benchmark around the stage process.
    """
    self_ns: dict[str, int] = {}
    durations: dict[str, list] = {}
    counters: dict[str, float] = {}
    raised: dict[str, int] = {}
    peak: dict[str, int] = {}
    startup = exit_ = 0
    for trace in stage_traces:
        names = trace["names"]
        name = np.asarray(trace["name"], dtype=np.int64)
        parent = np.asarray(trace["parent"], dtype=np.int64)
        dur = np.asarray(trace["end"], dtype=np.int64) - np.asarray(trace["start"], dtype=np.int64)
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child_ns.astype(np.int64)
        own_by_name = np.bincount(name, weights=own, minlength=len(names))
        for i, fn in enumerate(names):
            self_ns[fn] = self_ns.get(fn, 0) + int(own_by_name[i])
            durations.setdefault(fn, []).extend(dur[name == i].tolist())
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in trace["raised"].items():
            raised[key] = raised.get(key, 0) + value
        for key, value in trace["peak_bytes"].items():
            peak[key] = max(peak.get(key, 0), value)
        main = names.index(MAIN)
        main_spans = np.flatnonzero(name == main)
        startup += int(trace["start"][main_spans[0]]) - trace["spawn_ns"]
        exit_ += trace["exit_ns"] - int(trace["end"][main_spans[-1]])

    def ms(fn):
        return self_ns.get(fn, 0) / 1e6

    def calls(fn):
        return len(durations.get(fn, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    def mp_per_s(fn):
        seconds = sum(durations.get(fn, ())) / 1e9
        return ratio(counters.get(f"{fn}:pixels", 0) / 1e6, seconds)

    derived = {
        "cli.startup_ms": startup / 1e6,
        "cli.exit_ms": exit_ / 1e6,
        "formats.bytes_written": sum(v for k, v in counters.items() if k.endswith(":bytes_written")),
        "formats.bytes_read": sum(v for k, v in counters.items() if k.endswith(":bytes_read")),
        "measxyz.MeasXyzImage.constructions": calls("measxyz.MeasXyzImage.__post_init__"),
        "measxyz.demosaic_bilinear.mp_per_s": mp_per_s("measxyz.demosaic_bilinear"),
        "measxyz.meas_xyz_transform.peak_mib": peak.get("measxyz.meas_xyz_transform", 0) / 2**20,
        "isp.linear_rgb.calls_per_capture": ratio(calls("isp.linear_rgb"), captures),
        "isp.render_proxy.mp_per_s": mp_per_s("isp.render_proxy"),
        "isp.make_bracket.peak_mib": peak.get("isp.make_bracket", 0) / 2**20,
        "lost_signal.analyze_render.peak_mib": peak.get("lost_signal.analyze_render", 0) / 2**20,
        "bracketsup.annotate.fetches": calls(FETCH),
        "bracketsup.annotate.retries": raised.get(f"{FETCH}:AnnotatorUnavailable", 0),
        "bracketsup.annotate.kept_ratio": ratio(
            counters.get("bracketsup.annotate:kept", 0), counters.get(f"{FETCH}:served", 0)),
        "bracketsup.aggregate.records_per_candidate": ratio(
            counters.get("bracketsup.aggregate:records", 0),
            counters.get("bracketsup.aggregate:candidates", 0)),
        "dataset.balance.accept_ratio": ratio(
            counters.get("dataset.balance:accepted", 0), counters.get("dataset.balance:offered", 0)),
        "benchmark.tag_capability.calls": calls("benchmark.tag_capability"),
        "metrics.judge.retries": raised.get(f"{VERDICT}:JudgeUnavailable", 0),
    }
    layers = {}
    for metric, unit, _ in LAYER_METRICS:
        if metric in derived:
            value = derived[metric]
        elif metric.endswith(".ms"):
            value = ms(metric[:-3])
        elif metric.endswith(".calls"):
            value = calls(metric[:-6])
        else:
            continue  # filled in by the caller (trace.overhead_ms)
        layers[metric] = float(value)

    latency = {}
    for fn in sorted(durations):
        values = sorted(durations[fn])
        if not values:
            continue
        tail = tail_percentile(len(values))
        latency[fn] = {
            "calls": len(values),
            "self_ms": self_ns[fn] / 1e6,
            "p50_us": percentile(values, 50.0) / 1e3,
            f"p{tail:g}_us": percentile(values, tail) / 1e3,
        }
    return layers, latency
