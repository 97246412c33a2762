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
import contextlib
import gc
import hashlib
import json
import logging
import os
import sys
import threading
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Annotated

# The layer modules (benchmark, bracketsup, dataset, metrics), the numeric ones
# (capture, measxyz, isp, lost_signal, probe) and numpy are imported inside the
# handlers that use them, so a stage compiles and loads only what it runs.
from . import __version__, formats, records
from .errors import (
    AnnotatorUnavailable,
    ConfigInvalid,
    DomainError,
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
        payload = {"level": record.levelname.lower(), "event": record.getMessage(), "logger": record.name,
                   **getattr(record, "fields", {})}
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
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


# --- configuration ---------------------------------------------------------------

@dataclass
class RunConfig:
    """Resolved settings shared by the subcommands; flags win over the file."""

    gain: Annotated[float, records.Positive] = 1.0
    bit_depth: Annotated[int, records.Range(1, 16)] = 8
    quantize: bool = True
    transfer: str = records.SRGB_PIECEWISE
    exposures: Annotated[tuple[float, ...], records.Positive] = records.DEFAULT_BRACKET
    tau: Annotated[float, records.Positive] = records.DEFAULT_TAU
    bins: Annotated[int, records.Range(2)] = 32
    floor: Annotated[float, records.Unit] = records.DEFAULT_SCORE_FLOOR
    placeholder_patterns: tuple[str, ...] = records.DEFAULT_PLACEHOLDER_PATTERNS
    per_source_cap: Annotated[int, records.Positive] = 1_000_000
    per_type_cap: Annotated[int, records.Positive] = 1_000_000
    per_template_cap: Annotated[int, records.Positive] = 1_000_000
    target: Annotated[int, records.Positive] = 1000
    fraction: Annotated[float, records.OpenUnit] = 0.2
    seed: int = 0
    source_prefix: str = ""
    annotator_endpoint: str | None = None
    judge_endpoint: str | None = None
    mock_annotator: str | None = None
    mock_judge: str | None = None
    probe_config: str | None = None

    def validate(self) -> None:
        """The checks across fields and on the file system; ``decode`` checks each value's bound."""
        if not self.exposures:
            raise ConfigInvalid(f"config.exposures: value {self.exposures!r} out of range")
        tagged: dict[str, float] = {}
        for gain in self.exposures:
            tag = _gain_tag(gain)
            if tag in tagged:
                raise ConfigInvalid(f"config.exposures: gains {tagged[tag]!r} and {gain!r} "
                                    f"would both write the *_e{tag} renders")
            tagged[tag] = gain
        for name in ("mock_annotator", "mock_judge", "probe_config"):
            value = getattr(self, name)
            if value is not None and not Path(value).exists():
                raise ConfigInvalid(f"config.{name}: path {value!r} does not exist")


def load_config(path: str | None, overrides: dict) -> RunConfig:
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
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = records.decode(RunConfig, values, "config", ConfigInvalid)
    config.validate()
    return config


def _config_hash(config: RunConfig) -> str:
    blob = json.dumps(records.encode(config), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write_run_record(out_dir: Path, subcommand: str, config: RunConfig, counts: dict,
                      started: float, workers: int) -> None:
    versions = {"measground": __version__}
    numpy = sys.modules.get("numpy")
    if numpy is not None:  # the text stages never load it
        versions["numpy"] = numpy.__version__
    record = {
        "subcommand": subcommand,
        "config_hash": _config_hash(config),
        "versions": versions,
        "counts": counts,
        "workers": workers,
        "started_at": started,
        "finished_at": time.time(),
    }
    formats.write_json(out_dir / "run.json", record)


# --- per-capture work ----------------------------------------------------------------

def _available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _freeze_heap() -> None:
    """Move every object alive now out of the collector's reach, once per process.

    Called before the workers fork, their collections leave the inherited heap,
    and its pages, alone; called once the stage has run, the interpreter's exit
    collections skip the import-time objects. Garbage cycles alive at the freeze
    are never collected: a stage process frees them when it exits.
    """
    if gc.get_freeze_count() == 0:
        gc.freeze()


def _exit_with(parent_pid: int) -> None:
    """End this worker once the process that forked it is gone.

    A worker of a killed stage process would otherwise run the rest of its
    captures and write into a pipe no one reads.
    """
    def watch():
        while os.getppid() == parent_pid:
            time.sleep(0.5)
        os._exit(EXIT_IO)

    threading.Thread(target=watch, daemon=True).start()


def _portable(exc: Exception) -> Exception:
    """``exc``, or when it does not survive a pickle round trip, its type name
    and message in the error class that gives the same exit code."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        kind = IoFailure if isinstance(exc, _IO_ERRORS) else \
            MeasgroundError if isinstance(exc, MeasgroundError) else RuntimeError
        return kind(f"{type(exc).__name__}: {exc}")


def _run_share(fn, items: list, first: int, step: int, pipe: int, parent_pid: int) -> None:
    """A forked worker's life: run items first, first + step, ... in order until
    one fails, send [(index, ok, value or error)] through ``pipe`` and exit.
    A worker that cannot send its results exits non-zero."""
    import pickle

    status = EXIT_IO
    try:
        _exit_with(parent_pid)
        results = []
        for index in range(first, len(items), step):
            try:
                results.append((index, True, fn(items[index])))
            except Exception as exc:
                results.append((index, False, _portable(exc)))
                break
        with os.fdopen(pipe, "wb") as out:
            pickle.dump(results, out)
        status = EXIT_OK
    finally:
        with contextlib.suppress(Exception):
            sys.stdout.flush()
            sys.stderr.flush()
        os._exit(status)


def _fork_share(fn, items: list, first: int, step: int, parent_pid: int) -> tuple[int, int]:
    """Fork a worker for items first, first + step, ...: its pid and the read
    end of the pipe its results come through."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        os.close(read_end)
        _run_share(fn, items, first, step, write_end, parent_pid)
    os.close(write_end)
    return pid, read_end


class _CapturePool:
    """Maps a per-capture function over a stage's items, one forked worker per CPU.

    It uses N = min(available CPUs, items) workers, and runs in this process
    when N is one, when the platform cannot fork, or when other threads run
    here (a forked child holds only the calling thread). Worker w runs items
    w, w + N, ... in order and stops at its first failure. Each call writes
    its own capture's artifacts and returns a small value, so the files are
    the same for any worker count. Results come back in input order; the
    first item to fail in that order raises its error once every worker has
    ended, so no file is left half-written.
    """

    def __init__(self):
        self.workers = 1

    def map(self, fn, items: list) -> list:
        workers = min(_available_cpus(), len(items))
        if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
            return [fn(item) for item in items]
        # Imported here, as the text stages never fork.
        import pickle
        import signal

        self.workers = workers
        # a child would write out again whatever this process holds unflushed
        sys.stdout.flush()
        sys.stderr.flush()
        _freeze_heap()
        parent_pid = os.getpid()
        children: list[tuple[int, int]] = []  # the running workers: pid, read end of their pipe
        results: dict[int, tuple[bool, object]] = {}
        abrupt = False
        try:
            for worker in range(workers):
                children.append(_fork_share(fn, items, worker, workers, parent_pid))
            while children:
                pid, read_end = children[0]
                with open(read_end, "rb", closefd=False) as pipe:
                    payload = pipe.read()
                _, status = os.waitpid(pid, 0)
                del children[0]
                os.close(read_end)
                if status or not payload:
                    abrupt = True
                else:
                    results.update((index, (ok, value)) for index, ok, value in pickle.loads(payload))
        except BaseException:
            # a worker reaped just before the interruption is gone already
            for pid, _ in children:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            for pid, read_end in children:
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                os.close(read_end)
            raise
        if abrupt:
            raise IoFailure("a worker process ended abruptly")
        failures = [index for index, (ok, _) in results.items() if not ok]
        if failures:
            raise results[min(failures)][1]
        return [results[index][1] for index in range(len(items))]


# Holds each thread's stripe workspace; see _stage_workspace.
_stage_state = threading.local()


def _stage_workspace():
    """This thread's stripe workspace, held for every capture it runs.

    A forked worker builds its own on its first capture, so the buffers grow
    to the stripes that worker sees and are not allocated again per capture.
    """
    workspace = getattr(_stage_state, "workspace", None)
    if workspace is None:
        from .measxyz import _StripeWorkspace

        workspace = _stage_state.workspace = _StripeWorkspace()
    return workspace


def _refuse_duplicate_ids(inputs) -> None:
    """Refuse two inputs, given as (path, capture id), whose outputs would share names."""
    seen: dict[str, Path] = {}
    for path, capture_id in inputs:
        if capture_id in seen:
            raise DomainError(f"duplicate capture_id {capture_id!r}: {seen[capture_id]} and {path}")
        seen[capture_id] = path


# --- shared helpers ----------------------------------------------------------------

def _gain_tag(gain: float) -> str:
    return f"{gain:g}".replace(".", "p")


def _load_refs(path: Path) -> list[records.CaptureRef]:
    from . import benchmark

    rows = benchmark.load_manifest_entries(path)
    return [records.decode(records.CaptureRef, row, f"{path}: refs[{i}]") for i, row in enumerate(rows)]


def _iter_bundle_dirs(root: Path) -> list[Path]:
    from . import capture as capture_mod

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
    from . import bracketsup

    if config.mock_annotator:
        return bracketsup.MockAnnotatorClient(Path(config.mock_annotator))
    if config.annotator_endpoint:
        return bracketsup.HttpAnnotatorClient(config.annotator_endpoint)
    raise ConfigInvalid("config.mock_annotator or config.annotator_endpoint is required")


def _judge_client(config: RunConfig):
    from . import metrics

    if config.mock_judge:
        return metrics.TranscriptJudge(Path(config.mock_judge))
    if config.judge_endpoint:
        return metrics.HttpJudgeClient(config.judge_endpoint)
    return metrics.ExactMatchJudge()


# --- subcommand implementations ------------------------------------------------------
#
# Each handler takes (args, config, out, pool), where ``out`` is the --out
# directory (created by main) or None and ``pool`` maps per-capture work, and
# returns (run.json counts, exit status).

def _synth_one(index: int, base_spec, seed: int, group_size: int, devices: int,
               out: Path) -> dict:
    """Write synthetic capture ``index``'s bundle; returns its capture ref."""
    from . import capture as capture_mod

    isos = (100.0, 200.0, 400.0, 800.0, 1600.0)
    exposures = (1 / 15, 1 / 30, 1 / 60, 1 / 125)
    apertures = (1.8, 2.8, 4.0, 5.6)
    group = index // max(1, group_size)
    metadata = capture_mod.CameraMetadata(
        iso=isos[index % len(isos)],
        exposure_time=exposures[index % len(exposures)],
        aperture=apertures[index % len(apertures)],
        device_id=f"camera-{group % max(1, devices)}",
        scene_id=f"scene-{group:04d}",
        session_id=f"session-{group:04d}",
    )
    spec = replace(base_spec, metadata=metadata)
    capture_id = f"synth-{index:04d}"
    synthetic = capture_mod.synth_capture(spec, seed=seed + index, capture_id=capture_id)
    bundle_dir = out / "bundles" / capture_id
    capture_mod.save_capture_bundle(synthetic.capture, bundle_dir)
    return records.encode(records.CaptureRef.from_capture(synthetic.capture, str(bundle_dir)))


def _cmd_synth(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import capture as capture_mod

    if args.scene:
        base_spec = records.decode(capture_mod.SyntheticSceneSpec, formats.read_json(Path(args.scene)),
                                   f"{args.scene}: config.scene", ConfigInvalid)
    else:
        base_spec = capture_mod.SyntheticSceneSpec()
    synth_one = partial(_synth_one, base_spec=base_spec, seed=config.seed,
                        group_size=args.group_size, devices=args.devices, out=out)
    refs = pool.map(synth_one, list(range(args.count)))
    formats.write_json(out / "captures.json", refs)
    return {"captures": len(refs)}, EXIT_OK


def _ingest_one(bundle_dir: Path) -> dict:
    """Load and validate one bundle; returns its capture ref."""
    from . import capture as capture_mod

    loaded = capture_mod.load_capture_bundle(bundle_dir)
    return records.encode(records.CaptureRef.from_capture(loaded, str(bundle_dir)))


def _cmd_ingest(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import capture as capture_mod

    refs = pool.map(_ingest_one, _iter_bundle_dirs(Path(args.input)))
    _refuse_duplicate_ids(
        (Path(ref["bundle_path"]) / capture_mod.SIDECAR_NAME, ref["capture_id"]) for ref in refs
    )
    formats.write_json(out / "captures.json", refs)
    return {"captures": len(refs)}, EXIT_OK


def _measxyz_one(bundle: tuple[Path, object], out: Path) -> None:
    """Transform one bundle, given with the sidecar record the stage process read."""
    from . import capture as capture_mod
    from . import measxyz

    image = measxyz.meas_xyz_transform(capture_mod.load_capture_bundle(*bundle), workspace=_stage_workspace())
    measxyz.save_meas_xyz(image, out / image.capture_id)


def _cmd_measxyz(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import capture as capture_mod
    from . import measxyz  # noqa: F401  (loaded once here, before the workers fork)

    bundles = [(bundle, capture_mod.read_bundle_sidecar(bundle))
               for bundle in _capture_paths(Path(args.input))]
    _refuse_duplicate_ids((bundle / capture_mod.SIDECAR_NAME, sidecar.capture_id) for bundle, sidecar in bundles)
    pool.map(partial(_measxyz_one, out=out), bundles)
    return {"images": len(bundles)}, EXIT_OK


def _plane_stems(measxyz_dir: Path) -> list[tuple[Path, records.MeasXyzHeader]]:
    """The Meas.-XYZ plane pairs under ``measxyz_dir`` with their headers, refused if
    two hold one capture. The workers load each pair with the header read here."""
    planes = [(stem, records.read_meas_xyz_header(stem))
              for stem in formats.list_stems(measxyz_dir, ".f32")]
    _refuse_duplicate_ids((Path(f"{stem}.json"), header.capture_id) for stem, header in planes)
    return planes


def _bracket_one(plane: tuple[Path, records.MeasXyzHeader], config: RunConfig, out: Path) -> None:
    """Render one plane at every gain of the bracket in one pass, then save each render."""
    from . import isp, measxyz

    image = measxyz.load_meas_xyz(*plane)
    gains = config.exposures
    renders = isp.make_bracket(image, gains, workspace=_stage_workspace(), bit_depth=config.bit_depth,
                               transfer=config.transfer, quantize=config.quantize)
    for gain, rendered in zip(gains, renders):
        isp.save_rendered(rendered, out / f"{image.capture_id}_e{_gain_tag(gain)}")


def _cmd_bracket(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    if not config.quantize:  # a render file holds integer codes
        raise ConfigInvalid("config.quantize: bracket writes quantized renders only")
    from . import isp  # noqa: F401  (loaded once here, before the workers fork)

    planes = _plane_stems(Path(args.input))
    pool.map(partial(_bracket_one, config=config, out=out), planes)
    return {"renders": len(planes) * len(config.exposures), "exposures": list(config.exposures)}, EXIT_OK


def _lost_signal_one(plane: tuple[Path, records.MeasXyzHeader], config: RunConfig, out: Path) -> None:
    from . import lost_signal, measxyz

    image = measxyz.load_meas_xyz(*plane)
    params = records.RenderParams(exposure_gain=config.gain, bit_depth=config.bit_depth,
                                  transfer=config.transfer, quantize=config.quantize)
    report = lost_signal.analyze_render(image, params, tau=config.tau, bins=config.bins,
                                        workspace=_stage_workspace())
    lost_signal.emit_report(report, out)


def _cmd_lost_signal(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import lost_signal  # noqa: F401  (loaded once here, before the workers fork)

    planes = _plane_stems(Path(args.input))
    pool.map(partial(_lost_signal_one, config=config, out=out), planes)
    return {"reports": len(planes), "gain": config.gain}, EXIT_OK


def _cmd_annotate(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import bracketsup

    client = _annotator_client(config)
    stems = formats.list_stems(Path(args.proxies), ".ppm")
    rows = []
    for stem in stems:
        proxy = bracketsup.read_proxy(stem)
        candidates = bracketsup.annotate(proxy, client, source_prefix=config.source_prefix)
        rows.extend({"capture_id": proxy.capture_id, **records.encode(candidate)} for candidate in candidates)
    formats.write_jsonl(out / "candidates.jsonl", rows)
    return {"proxies": len(stems), "candidates": len(rows)}, EXIT_OK


def _cmd_aggregate(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import bracketsup

    def candidate_row(row: dict) -> tuple[str, bracketsup.CandidateRecord]:
        """One candidates.jsonl row: its capture id and the candidate."""
        capture_id = records.decode(str, row.pop("capture_id"), "candidate.capture_id")
        return capture_id, records.decode(bracketsup.CandidateRecord, row, "candidate")

    by_capture: dict[str, list[bracketsup.CandidateRecord]] = {}
    for capture_id, candidate in formats.read_jsonl(Path(args.candidates), candidate_row):
        by_capture.setdefault(capture_id, []).append(candidate)
    samples: list[bracketsup.TrainingSample] = []
    n_records = 0
    for capture_id in sorted(by_capture):
        aggregated = bracketsup.aggregate(by_capture[capture_id])
        n_records += len(aggregated)
        samples.extend(bracketsup.samples_for_stem(capture_id, aggregated, Path(args.measxyz) / capture_id))
    bracketsup.write_samples(out / "samples.jsonl", samples)
    return {"captures": len(by_capture), "records": n_records, "samples": len(samples)}, EXIT_OK


def _cmd_filter(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import bracketsup, dataset

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


def _cmd_balance(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    from . import bracketsup, dataset

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


def _cmd_split(args, config: RunConfig, out: Path, pool: _CapturePool) -> tuple[dict, int]:
    if bool(args.samples) != bool(args.proxies):  # the benchmark examples need both
        raise ConfigInvalid("split: --samples and --proxies are given together or not at all")
    from . import benchmark, bracketsup

    refs = _load_refs(Path(args.captures))
    train_ids, bench_ids = benchmark.holdout_split(refs, config.fraction, config.seed)
    by_id = {r.capture_id: r for r in refs}
    for name, ids in (("train_refs.json", train_ids), ("bench_refs.json", bench_ids)):
        formats.write_json(out / name, [records.encode(by_id[i]) for i in ids])
    counts = {"train": len(train_ids), "bench": len(bench_ids)}

    if args.samples:
        samples = bracketsup.read_samples(Path(args.samples))
        bench_set = set(bench_ids)
        train_samples = [s for s in samples if s.capture_id not in bench_set]
        bench_samples = [s for s in samples if s.capture_id in bench_set]
        bracketsup.write_samples(out / "train_samples.jsonl", train_samples)
        proxy_paths = _proxy_lookup(Path(args.proxies), bench_set)
        examples = benchmark.make_benchmark_examples(bench_samples, proxy_paths)
        benchmark.write_benchmark(out / "bench_manifest.jsonl", examples)
        counts.update({"train_samples": len(train_samples), "bench_examples": len(examples)})
    return counts, EXIT_OK


def _proxy_lookup(proxies_dir: Path, capture_ids: set[str]) -> dict[str, str]:
    """Pick one rendered view per capture, preferring the gain closest to 1."""
    best: dict[str, tuple[tuple[float, float], str]] = {}
    for stem in formats.list_stems(proxies_dir, ".ppm"):
        capture_id, params = records.read_render_header(stem)
        if capture_id not in capture_ids:
            continue
        gain = params.exposure_gain
        rank = (abs(gain - 1.0), gain)
        if capture_id not in best or rank < best[capture_id][0]:
            best[capture_id] = (rank, str(stem) + ".ppm")
    return {cid: path for cid, (_, path) in best.items()}


def _cmd_verify_split(args, config: RunConfig, out: Path | None, pool: _CapturePool) -> tuple[dict, int]:
    from . import benchmark

    train, bench = (benchmark.load_manifest_entries(Path(path), benchmark._entry_fields)
                    for path in (args.train, args.bench))
    report = benchmark._disjointness(train, bench)
    result = records.encode(report)
    if out is not None:
        formats.write_json(out / "disjointness.json", result)
    print(formats.dump_json(result))
    status = EXIT_OK if report.status in ("PASS", "WARN") else EXIT_VALIDATION
    return {"status": report.status}, status


def _read_predictions(path: Path) -> dict[tuple[str, str], str]:
    """The predictions file as {(capture_id, question): prediction}, each a JSON
    string. A second row for one key is refused, naming its line."""
    predictions = {}

    def add(row: dict) -> None:
        capture_id, question, prediction = (records.decode(str, row[key], key)
                                            for key in ("capture_id", "question", "prediction"))
        if (capture_id, question) in predictions:
            raise SchemaViolation(f"second prediction for capture_id {capture_id!r}, question {question!r}")
        predictions[capture_id, question] = prediction

    formats.read_jsonl(path, add)
    return predictions


def _cmd_eval(args, config: RunConfig, out: Path | None, pool: _CapturePool) -> tuple[dict, int]:
    from . import benchmark, metrics

    manifest = benchmark.read_benchmark(Path(args.bench))
    predictions = _read_predictions(Path(args.predictions))
    report = metrics.evaluate_run(predictions, manifest, _judge_client(config))
    table = metrics.render_table(report)
    print(table)
    if out is not None:
        formats.write_json(out / "metrics.json", records.encode(report))
        formats.write_text(out / "report.txt", table + "\n")
    return {"examples": report.total, "missing_predictions": report.missing_predictions}, EXIT_OK


GRAD_CHECK_THRESHOLD = 1e-4


def _cmd_condition_check(args, config: RunConfig, out: Path | None, pool: _CapturePool) -> tuple[dict, int]:
    import numpy as np

    from . import probe

    probe_config = probe.ProbeConfig()
    if config.probe_config:
        probe_config = probe.ProbeConfig.from_file(Path(config.probe_config))
    stack = probe_config.build(config.seed)
    rng = np.random.default_rng(config.seed)
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
    print(formats.dump_json(result))
    if out is not None:
        formats.write_json(out / "condition_check.json", result)
    return result, EXIT_OK if passed else EXIT_VALIDATION


def _cmd_report(args, config: RunConfig, out: Path | None, pool: _CapturePool) -> tuple[dict, int]:
    from . import metrics

    report = records.decode(metrics.MetricReport, formats.read_json(Path(args.input)),
                            f"{args.input}: report")
    table = metrics.render_table(report)
    print(table)
    if out is not None:
        formats.write_text(out / "report.txt", table + "\n")
    return {"examples": report.total}, EXIT_OK


# --- argument parsing -----------------------------------------------------------------

def _gains(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# The setting flags by the RunConfig field each one sets: (type, help), and the
# flag's name where it is not the field's. A stage takes those it reads.
_SETTING_FLAGS = {
    "seed": (int, "random seed"),
    "gain": (float, "exposure gain"),
    "exposures": (_gains, "comma-separated bracket gains"),
    "mock_annotator": (str, "annotator transcript JSONL, used in place of an endpoint"),
    "mock_judge": (str, "judge transcript JSONL, used in place of an endpoint"),
    "tau": (float, "residual threshold of the lost-signal mask"),
    "bins": (int, "residual histogram bins"),
    "floor": (float, "minimum sample score"),
    "target": (int, "manifest size"),
    "fraction": (float, "share of capture groups held out for the benchmark"),
    "per_source_cap": (int, "most manifest samples per source prefix", "--cap-source"),
    "per_type_cap": (int, "most manifest samples per question type", "--cap-type"),
    "per_template_cap": (int, "most manifest samples per template", "--cap-template"),
    "source_prefix": (str, "source prefix recorded on every candidate"),
    "probe_config": (str, "probe config JSON"),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="measground", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def stage(name: str, run, summary: str, settings: str = "", out_required: bool = True) -> _Parser:
        fields = settings.split()
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, parser=p, settings=fields)
        p.add_argument("--config", default=None, help="JSON run config; flags override")
        p.add_argument("--out", required=out_required, default=None, help="output directory")
        for field in fields:
            kind, text, *flag = _SETTING_FLAGS[field]
            p.add_argument(*flag or ["--" + field.replace("_", "-")], dest=field, type=kind, help=text)
        return p

    p = stage("synth", _cmd_synth, "generate synthetic capture bundles", "seed")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--scene", default=None, help="scene spec JSON")
    p.add_argument("--group-size", type=int, default=1)
    p.add_argument("--devices", type=int, default=5)

    p = stage("ingest", _cmd_ingest, "validate bundles and index captures")
    p.add_argument("--input", required=True, help="bundles root")

    p = stage("measxyz", _cmd_measxyz, "compute Meas.-XYZ observations")
    p.add_argument("--input", required=True, help="bundles root or captures.json")

    p = stage("bracket", _cmd_bracket, "render the exposure bracket", "exposures")
    p.add_argument("--input", required=True, help="measxyz directory")

    p = stage("lost-signal", _cmd_lost_signal, "invert renders and report residuals", "gain tau bins")
    p.add_argument("--input", required=True, help="measxyz directory")

    p = stage("annotate", _cmd_annotate, "collect candidates over rendered proxies",
              "mock_annotator source_prefix")
    p.add_argument("--proxies", required=True, help="bracket output directory")

    p = stage("aggregate", _cmd_aggregate, "aggregate candidates into samples")
    p.add_argument("--candidates", required=True, help="candidates.jsonl")
    p.add_argument("--measxyz", required=True, help="measxyz directory")

    p = stage("filter", _cmd_filter, "score floor + placeholder filtering", "floor")
    p.add_argument("--input", required=True, help="samples.jsonl")

    p = stage("balance", _cmd_balance, "balance samples into a manifest",
              "floor target seed per_source_cap per_type_cap per_template_cap")
    p.add_argument("--input", required=True, help="filtered samples.jsonl")

    p = stage("split", _cmd_split, "grouped capture-level holdout split", "fraction seed")
    p.add_argument("--captures", required=True, help="captures.json refs")
    p.add_argument("--samples", default=None, help="samples manifest to partition; needs --proxies")
    p.add_argument("--proxies", default=None, help="bracket directory for benchmark RGB views; needs --samples")

    p = stage("verify-split", _cmd_verify_split, "check train/bench disjointness",
              out_required=False)
    p.add_argument("--train", required=True)
    p.add_argument("--bench", required=True)

    p = stage("eval", _cmd_eval, "score predictions against a benchmark", "mock_judge",
              out_required=False)
    p.add_argument("--bench", required=True, help="bench_manifest.jsonl")
    p.add_argument("--predictions", required=True, help="predictions JSONL")

    stage("condition-check", _cmd_condition_check, "gradient-check the conditioning probe",
          "seed probe_config", out_required=False)

    p = stage("report", _cmd_report, "render a metrics JSON as a text table", out_required=False)
    p.add_argument("--input", required=True, help="metrics.json")

    return parser


def main(argv=None) -> int:
    _setup_logging()
    try:
        args, unknown = _build_parser().parse_known_args(argv)
        if unknown:  # reported by the subcommand's parser, so its usage is the one shown
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    except _UsageError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION

    started = time.time()
    out = Path(args.out) if args.out else None
    made: list[Path] = []  # the directories made on the way to --out, deepest last
    try:
        config = load_config(args.config, {field: getattr(args, field) for field in args.settings})
        if out is not None:
            for directory in (*reversed(out.parents), out):
                if not directory.exists():
                    directory.mkdir()
                    made.append(directory)
        pool = _CapturePool()
        counts, status = args.run(args, config, out, pool)
        if out is not None:
            _write_run_record(out, args.subcommand, config, counts, started, pool.workers)
        log.info("finished", extra={"fields": {"stage": args.subcommand, "counts": counts}})
        return status
    except _IO_ERRORS as exc:
        log.error("%s failed (io/remote): %s", args.subcommand, exc)
        return EXIT_IO
    except MeasgroundError as exc:
        log.error("%s failed (validation): %s", args.subcommand, exc)
        return EXIT_VALIDATION
    finally:
        # a failed stage leaves none of them empty; rmdir refuses a directory with files
        with contextlib.suppress(OSError):
            for directory in reversed(made):
                directory.rmdir()
        _freeze_heap()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
