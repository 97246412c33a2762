"""Batch command-line surface.

One subcommand per pipeline stage; every stage is runnable on its own given
only its declared inputs, writes all artifacts under --out, and records a
run.json with the resolved-config hash and per-stage counts. Identical
config + seeds give byte-identical data outputs; timestamps exist only in
run.json. Logging is line-oriented JSON on stderr, controlled by
MEASGROUND_LOG={info,debug}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, benchmark, bracketsup, dataset, formats, lost_signal, metrics
from . import capture as capture_mod
from . import isp, measxyz, probe
from .errors import (
    AnnotatorUnavailable,
    ConfigInvalid,
    IoFailure,
    JudgeUnavailable,
    MeasgroundError,
    MissingFile,
    SchemaViolation,
)

log = logging.getLogger("measground")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

_IO_ERRORS = (IoFailure, MissingFile, AnnotatorUnavailable, JudgeUnavailable, OSError)


class _JsonLogHandler(logging.Handler):
    def emit(self, record):
        payload = {"level": record.levelname.lower(), "event": record.getMessage(), "logger": record.name}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _setup_logging() -> None:
    level = logging.DEBUG if os.environ.get("MEASGROUND_LOG", "info") == "debug" else logging.INFO
    root = logging.getLogger("measground")
    root.setLevel(level)
    root.handlers = [_JsonLogHandler()]
    root.propagate = False


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


# --- configuration ---------------------------------------------------------------

@dataclass
class RunConfig:
    """Resolved settings shared by the subcommands; flags win over the file."""

    gain: float = 1.0
    bit_depth: int = 8
    quantize: bool = True
    transfer: str = isp.SRGB_PIECEWISE
    exposures: tuple[float, ...] = isp.DEFAULT_BRACKET
    tau: float = lost_signal.DEFAULT_TAU
    bins: int = 32
    floor: float = dataset.DEFAULT_SCORE_FLOOR
    placeholder_patterns: tuple[str, ...] = dataset.DEFAULT_PLACEHOLDER_PATTERNS
    per_source_cap: int = 1_000_000
    per_type_cap: int = 1_000_000
    per_template_cap: int = 1_000_000
    target: int = 1000
    fraction: float = 0.2
    seed: int = 0
    source_prefix: str = ""
    annotator_endpoint: str | None = None
    judge_endpoint: str | None = None
    mock_annotator: str | None = None
    mock_judge: str | None = None
    probe_config: str | None = None

    def validate(self) -> None:
        checks = [
            ("gain", self.gain > 0),
            ("bit_depth", 1 <= self.bit_depth <= 16),
            ("tau", self.tau > 0),
            ("bins", self.bins >= 2),
            ("floor", 0.0 <= self.floor <= 1.0),
            ("target", self.target > 0),
            ("fraction", 0.0 < self.fraction < 1.0),
            ("exposures", bool(self.exposures) and all(e > 0 for e in self.exposures)),
            ("per_source_cap", self.per_source_cap > 0),
            ("per_type_cap", self.per_type_cap > 0),
            ("per_template_cap", self.per_template_cap > 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigInvalid(f"config.{name}: value {getattr(self, name)!r} out of range")
        for name in ("mock_annotator", "mock_judge", "probe_config"):
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise ConfigInvalid(f"config.{name}: path {value!r} does not exist")

    def to_dict(self) -> dict:
        out = {}
        for item in fields(self):
            value = getattr(self, item.name)
            out[item.name] = list(value) if isinstance(value, tuple) else value
        return out


def load_config(path: str | None, overrides: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    values: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigInvalid(f"config: cannot read {path} ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config: {path} is not valid JSON ({exc.msg})") from exc
        if not isinstance(raw, dict):
            raise ConfigInvalid("config: top level must be a JSON object")
        unknown = set(raw) - known
        if unknown:
            raise ConfigInvalid(f"config: unknown keys {sorted(unknown)}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None and k in known})
    for key in ("exposures", "placeholder_patterns"):
        if key in values and isinstance(values[key], list):
            values[key] = tuple(values[key])
    config = RunConfig(**values)
    config.validate()
    return config


def _config_hash(config: RunConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_run_record(out_dir: Path, subcommand: str, config: RunConfig, counts: dict, started: float) -> None:
    record = {
        "subcommand": subcommand,
        "config_hash": _config_hash(config),
        "versions": {"measground": __version__, "numpy": np.__version__},
        "counts": counts,
        "started_at": started,
        "finished_at": time.time(),
    }
    formats.write_json(out_dir / "run.json", record)


# --- shared helpers ----------------------------------------------------------------

def _gain_tag(gain: float) -> str:
    return f"{gain:g}".replace(".", "p")


def _load_refs(path: Path) -> list[capture_mod.CaptureRef]:
    rows = benchmark.load_manifest_entries(path)
    try:
        return [capture_mod.CaptureRef.from_dict(row) for row in rows]
    except (KeyError, TypeError) as exc:
        raise SchemaViolation(f"{path}: invalid capture ref ({exc!r})") from exc


def _iter_bundle_dirs(root: Path) -> list[Path]:
    root = Path(root)
    if not root.exists():
        raise MissingFile(str(root))
    if (root / capture_mod.SIDECAR_NAME).exists():
        return [root]
    return sorted(p.parent for p in root.glob(f"*/{capture_mod.SIDECAR_NAME}"))


def _capture_paths(refs_or_root: Path) -> list[Path]:
    """Bundle directories from either a refs JSON or a bundles root."""
    path = Path(refs_or_root)
    if path.is_file():
        return [Path(r.bundle_path) for r in _load_refs(path)]
    return _iter_bundle_dirs(path)


def _annotator_client(config: RunConfig):
    if config.mock_annotator:
        return bracketsup.MockAnnotatorClient(Path(config.mock_annotator))
    if config.annotator_endpoint:
        return bracketsup.HttpAnnotatorClient(config.annotator_endpoint)
    raise ConfigInvalid("config.mock_annotator or config.annotator_endpoint is required")


def _judge_client(config: RunConfig):
    if config.mock_judge:
        return metrics.TranscriptJudge(Path(config.mock_judge))
    if config.judge_endpoint:
        return metrics.HttpJudgeClient(config.judge_endpoint)
    return metrics.ExactMatchJudge()


# --- subcommand implementations ------------------------------------------------------
#
# Each handler takes (args, config, out), where ``out`` is the --out directory
# (created by main) or None, and returns (run.json counts, exit status).

def _cmd_synth(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    if args.scene:
        try:
            spec_obj = json.loads(Path(args.scene).read_text(encoding="utf-8"))
            base_spec = capture_mod.SyntheticSceneSpec.from_dict(spec_obj)
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise ConfigInvalid(f"config.scene: {args.scene}: {exc}") from exc
    else:
        base_spec = capture_mod.SyntheticSceneSpec()
    isos = (100.0, 200.0, 400.0, 800.0, 1600.0)
    exposures = (1 / 15, 1 / 30, 1 / 60, 1 / 125)
    apertures = (1.8, 2.8, 4.0, 5.6)
    refs = []
    for i in range(args.count):
        group = i // max(1, args.group_size)
        metadata = capture_mod.CameraMetadata(
            iso=isos[i % len(isos)],
            exposure_time=exposures[i % len(exposures)],
            aperture=apertures[i % len(apertures)],
            device_id=f"camera-{group % max(1, args.devices)}",
            scene_id=f"scene-{group:04d}",
            session_id=f"session-{group:04d}",
        )
        spec = capture_mod.with_metadata(base_spec, metadata)
        capture_id = f"synth-{i:04d}"
        synthetic = capture_mod.synth_capture(spec, seed=config.seed + i, capture_id=capture_id)
        bundle_dir = out / "bundles" / capture_id
        capture_mod.save_capture_bundle(synthetic.capture, bundle_dir)
        refs.append(capture_mod.CaptureRef.from_capture(synthetic.capture, str(bundle_dir)).to_dict())
    formats.write_json(out / "captures.json", refs)
    return {"captures": len(refs)}, EXIT_OK


def _cmd_ingest(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    refs = []
    for bundle_dir in _iter_bundle_dirs(Path(args.input)):
        loaded = capture_mod.load_capture_bundle(bundle_dir)
        refs.append(capture_mod.CaptureRef.from_capture(loaded, str(bundle_dir)).to_dict())
    formats.write_json(out / "captures.json", refs)
    return {"captures": len(refs)}, EXIT_OK


def _cmd_measxyz(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    n = 0
    for bundle_dir in _capture_paths(Path(args.input)):
        loaded = capture_mod.load_capture_bundle(bundle_dir)
        image = measxyz.meas_xyz_transform(loaded)
        measxyz.save_meas_xyz(image, out / image.capture_id)
        n += 1
    return {"images": n}, EXIT_OK


def _render_params(config: RunConfig, gain: float) -> isp.RenderParams:
    return isp.RenderParams(
        exposure_gain=gain,
        bit_depth=config.bit_depth,
        transfer=config.transfer,
        quantize=config.quantize,
    )


def _render_gains(measxyz_dir: Path, config: RunConfig, out: Path, gains) -> int:
    """Render every Meas.-XYZ plane at each gain, saving each render before the next."""
    n = 0
    for stem in formats.list_stems(measxyz_dir, ".f32"):
        image = measxyz.load_meas_xyz(stem)
        for gain in gains:
            rendered = isp.render_proxy(image, _render_params(config, gain))
            isp.save_rendered(rendered, out / f"{image.capture_id}_e{_gain_tag(gain)}")
            n += 1
    return n


def _cmd_render(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    n = _render_gains(Path(args.input), config, out, (config.gain,))
    return {"renders": n, "gain": config.gain}, EXIT_OK


def _cmd_bracket(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    n = _render_gains(Path(args.input), config, out, config.exposures)
    return {"renders": n, "exposures": list(config.exposures)}, EXIT_OK


def _cmd_lost_signal(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    if args.gain is None:
        raise ConfigInvalid("config.gain: lost-signal requires an explicit --gain")
    params = _render_params(config, config.gain)
    n = 0
    for stem in formats.list_stems(Path(args.input), ".f32"):
        image = measxyz.load_meas_xyz(stem)
        report = lost_signal.analyze_render(image, params, tau=config.tau, bins=config.bins)
        lost_signal.emit_report(report, out)
        n += 1
    return {"reports": n, "gain": config.gain}, EXIT_OK


def _cmd_annotate(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    client = _annotator_client(config)
    stems = formats.list_stems(Path(args.proxies), ".ppm")
    rows = []
    for stem in stems:
        rendered = isp.load_rendered(stem)
        candidates = bracketsup.annotate(rendered, client, source_prefix=config.source_prefix)
        rows.extend(candidate.to_dict(rendered.capture_id) for candidate in candidates)
    formats.write_jsonl(out / "candidates.jsonl", rows)
    return {"proxies": len(stems), "candidates": len(rows)}, EXIT_OK


def _cmd_aggregate(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    by_capture: dict[str, list[bracketsup.CandidateRecord]] = {}
    candidates = formats.read_jsonl(Path(args.candidates), bracketsup.CandidateRecord.from_row)
    for capture_id, candidate in candidates:
        by_capture.setdefault(capture_id, []).append(candidate)
    samples: list[bracketsup.TrainingSample] = []
    n_records = 0
    for capture_id in sorted(by_capture):
        records = bracketsup.aggregate(by_capture[capture_id])
        n_records += len(records)
        stem = Path(args.measxyz) / capture_id
        _, metadata = measxyz.read_meas_xyz_header(stem)
        samples.extend(bracketsup.samples_for_stem(capture_id, metadata, records, stem))
    bracketsup.write_samples(out / "samples.jsonl", samples)
    return {"captures": len(by_capture), "records": n_records, "samples": len(samples)}, EXIT_OK


def _cmd_filter(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    samples = bracketsup.read_samples(Path(args.input))
    scored = dataset.score_filter(samples, config.floor)
    kept, dropped_placeholder = dataset.remove_placeholders(scored, config.placeholder_patterns)
    bracketsup.write_samples(out / "filtered.jsonl", kept)
    return {
        "input": len(samples),
        "kept": len(kept),
        "dropped_score": len(samples) - len(scored),
        "dropped_placeholder": dropped_placeholder,
    }, EXIT_OK


def _cmd_balance(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    samples = bracketsup.read_samples(Path(args.input))
    caps = dataset.BalanceCaps(
        per_source=config.per_source_cap,
        per_type=config.per_type_cap,
        per_template=config.per_template_cap,
    )
    manifest = dataset.balance(samples, caps, config.target, config.seed,
                               score_floor=config.floor)
    dataset.export_manifest(manifest, out / "manifest.jsonl")
    return dict(manifest.stats), EXIT_OK


def _cmd_split(args, config: RunConfig, out: Path) -> tuple[dict, int]:
    refs = _load_refs(Path(args.captures))
    train_ids, bench_ids = benchmark.holdout_split(refs, config.fraction, config.seed)
    by_id = {r.capture_id: r for r in refs}
    for name, ids in (("train_refs.json", train_ids), ("bench_refs.json", bench_ids)):
        formats.write_json(out / name, [by_id[i].to_dict() for i in ids])
    counts = {"train": len(train_ids), "bench": len(bench_ids)}

    if args.samples:
        samples = bracketsup.read_samples(Path(args.samples))
        bench_set = set(bench_ids)
        train_samples = [s for s in samples if s.capture_id not in bench_set]
        bench_samples = [s for s in samples if s.capture_id in bench_set]
        bracketsup.write_samples(out / "train_samples.jsonl", train_samples)
        proxy_paths = {}
        if args.proxies:
            proxy_paths = _proxy_lookup(Path(args.proxies), bench_set)
        examples = benchmark.make_benchmark_examples(bench_samples, proxy_paths)
        benchmark.write_benchmark(out / "bench_manifest.jsonl", examples)
        counts.update({"train_samples": len(train_samples), "bench_examples": len(examples)})
    return counts, EXIT_OK


def _proxy_lookup(proxies_dir: Path, capture_ids: set[str]) -> dict[str, str]:
    """Pick one rendered view per capture, preferring the gain closest to 1."""
    best: dict[str, tuple[tuple[float, float], str]] = {}
    for stem in formats.list_stems(proxies_dir, ".ppm"):
        capture_id, params = isp.read_render_header(stem)
        if capture_id not in capture_ids:
            continue
        gain = params.exposure_gain
        rank = (abs(gain - 1.0), gain)
        if capture_id not in best or rank < best[capture_id][0]:
            best[capture_id] = (rank, str(stem) + ".ppm")
    return {cid: path for cid, (_, path) in best.items()}


def _cmd_verify_split(args, config: RunConfig, out: Path | None) -> tuple[dict, int]:
    train_rows = benchmark.load_manifest_entries(Path(args.train))
    bench_rows = benchmark.load_manifest_entries(Path(args.bench))
    report = benchmark.verify_disjointness(train_rows, bench_rows)
    if out is not None:
        formats.write_json(out / "disjointness.json", report.to_dict())
    print(json.dumps(report.to_dict(), sort_keys=True))
    status = EXIT_OK if report.status in ("PASS", "WARN") else EXIT_VALIDATION
    return {"status": report.status}, status


def _cmd_eval(args, config: RunConfig, out: Path | None) -> tuple[dict, int]:
    manifest = benchmark.read_benchmark(Path(args.bench))
    predictions: dict[tuple[str, str], str] = dict(formats.read_jsonl(
        Path(args.predictions),
        lambda row: ((str(row["capture_id"]), str(row["question"])), str(row["prediction"])),
    ))
    report = metrics.evaluate_run(predictions, manifest, _judge_client(config))
    table = metrics.render_table(report)
    print(table)
    if out is not None:
        formats.write_json(out / "metrics.json", report.to_dict())
        (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    return {"examples": report.total, "missing_predictions": report.missing_predictions}, EXIT_OK


GRAD_CHECK_THRESHOLD = 1e-4


def _cmd_condition_check(args, config: RunConfig, out: Path | None) -> tuple[dict, int]:
    if config.probe_config:
        probe_config = probe.ProbeConfig.from_file(Path(config.probe_config))
    else:
        probe_config = probe.ProbeConfig(seed=config.seed)
    stack = probe_config.build()
    rng = np.random.default_rng(probe_config.seed)
    h0 = rng.normal(0.0, 1.0, stack.hidden_dim)
    mvec = rng.normal(0.0, 1.0, 3)
    error = probe.grad_check(stack, h0, mvec)
    passed = error < GRAD_CHECK_THRESHOLD
    result = {
        "max_relative_error": error,
        "threshold": GRAD_CHECK_THRESHOLD,
        "depth": stack.depth,
        "hidden_dim": stack.hidden_dim,
        "inject_layers": list(stack.inject_layers),
        "status": "PASS" if passed else "FAIL",
    }
    print(json.dumps(result, sort_keys=True))
    if out is not None:
        formats.write_json(out / "condition_check.json", result)
    return result, EXIT_OK if passed else EXIT_VALIDATION


def _cmd_report(args, config: RunConfig, out: Path | None) -> tuple[dict, int]:
    obj = formats.read_json(Path(args.input))
    try:
        report = metrics.report_from_dict(obj)
    except (AttributeError, TypeError, KeyError, ValueError) as exc:
        raise SchemaViolation(f"{args.input}: not a metrics report ({exc})") from exc
    table = metrics.render_table(report)
    print(table)
    if out is not None:
        (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    return {"examples": report.total}, EXIT_OK


# --- argument parsing -----------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="measground", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")

    def stage(name: str, run, summary: str, out_required: bool = True) -> _Parser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("--config", default=None, help="JSON run config; flags override")
        p.add_argument("--out", required=out_required, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--gain", type=float, default=None)
        p.add_argument("--exposures", default=None, help="comma-separated gains")
        p.add_argument("--mock-annotator", dest="mock_annotator", default=None)
        p.add_argument("--mock-judge", dest="mock_judge", default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--bins", type=int, default=None)
        p.add_argument("--floor", type=float, default=None)
        p.add_argument("--target", type=int, default=None)
        p.add_argument("--fraction", type=float, default=None)
        return p

    p = stage("synth", _cmd_synth, "generate synthetic capture bundles")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--scene", default=None, help="scene spec JSON")
    p.add_argument("--group-size", type=int, default=1)
    p.add_argument("--devices", type=int, default=5)

    p = stage("ingest", _cmd_ingest, "validate bundles and index captures")
    p.add_argument("--input", required=True, help="bundles root")

    p = stage("measxyz", _cmd_measxyz, "compute Meas.-XYZ observations")
    p.add_argument("--input", required=True, help="bundles root or captures.json")

    p = stage("render", _cmd_render, "render proxies at one gain")
    p.add_argument("--input", required=True, help="measxyz directory")

    p = stage("bracket", _cmd_bracket, "render the exposure bracket")
    p.add_argument("--input", required=True, help="measxyz directory")

    p = stage("lost-signal", _cmd_lost_signal, "invert renders and report residuals")
    p.add_argument("--input", required=True, help="measxyz directory")

    p = stage("annotate", _cmd_annotate, "collect candidates over rendered proxies")
    p.add_argument("--proxies", required=True, help="render/bracket output directory")
    p.add_argument("--source-prefix", dest="source_prefix", default=None)

    p = stage("aggregate", _cmd_aggregate, "aggregate candidates into samples")
    p.add_argument("--candidates", required=True, help="candidates.jsonl")
    p.add_argument("--measxyz", required=True, help="measxyz directory")

    p = stage("filter", _cmd_filter, "score floor + placeholder filtering")
    p.add_argument("--input", required=True, help="samples.jsonl")

    p = stage("balance", _cmd_balance, "balance samples into a manifest")
    p.add_argument("--input", required=True, help="filtered samples.jsonl")
    p.add_argument("--cap-source", dest="per_source_cap", type=int, default=None)
    p.add_argument("--cap-type", dest="per_type_cap", type=int, default=None)
    p.add_argument("--cap-template", dest="per_template_cap", type=int, default=None)

    p = stage("split", _cmd_split, "grouped capture-level holdout split")
    p.add_argument("--captures", required=True, help="captures.json refs")
    p.add_argument("--samples", default=None, help="optional samples manifest to partition")
    p.add_argument("--proxies", default=None, help="render dir for benchmark RGB views")

    p = stage("verify-split", _cmd_verify_split, "check train/bench disjointness",
              out_required=False)
    p.add_argument("--train", required=True)
    p.add_argument("--bench", required=True)

    p = stage("eval", _cmd_eval, "score predictions against a benchmark", out_required=False)
    p.add_argument("--bench", required=True, help="bench_manifest.jsonl")
    p.add_argument("--predictions", required=True, help="predictions JSONL")

    p = stage("condition-check", _cmd_condition_check, "gradient-check the conditioning probe",
              out_required=False)
    p.add_argument("--probe-config", dest="probe_config", default=None)

    p = stage("report", _cmd_report, "render a metrics JSON as a text table", out_required=False)
    p.add_argument("--input", required=True, help="metrics.json")

    return parser


def _overrides_from_args(args) -> dict:
    """Every parsed flag; load_config keeps the RunConfig fields that were given."""
    overrides = dict(vars(args), exposures=None)
    if args.exposures:
        try:
            overrides["exposures"] = tuple(float(v) for v in args.exposures.split(","))
        except ValueError:
            raise ConfigInvalid(f"config.exposures: cannot parse {args.exposures!r}") from None
    return overrides


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    if not args.subcommand:
        print(parser.format_usage(), file=sys.stderr)
        return EXIT_VALIDATION

    started = time.time()
    out = Path(args.out) if args.out else None
    try:
        config = load_config(args.config, _overrides_from_args(args))
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        counts, status = args.run(args, config, out)
        if out is not None:
            _write_run_record(out, args.subcommand, config, counts, started)
        log.info("%s finished: %s", args.subcommand, json.dumps(counts, sort_keys=True))
        return status
    except _IO_ERRORS as exc:
        log.error("%s failed (io/remote): %s", args.subcommand, exc)
        return EXIT_IO
    except MeasgroundError as exc:
        log.error("%s failed (validation): %s", args.subcommand, exc)
        return EXIT_VALIDATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
