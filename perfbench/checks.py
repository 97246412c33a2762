"""Output checks, planted predictions and the determinism digest.

The checks read the artifacts with plain numpy and json, not through the
package under test, and compare them with what the generated inputs imply:
the scene's analytic radiance for the image stages and the counts fixed by
construction for the supervision and benchmark stages. A chain whose outputs
fail a check counts as failed, never as fast.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import BACKGROUND, GAINS, LOST_SIGNAL_GAIN, NOISE_SIGMA, Expected, Patch

# Every artifact below is promised byte-identical for identical config and seeds.
DIGEST_GLOBS = ("bracket/*.ppm", "lost/*_summary.json", "aggregate/samples.jsonl",
                "balance/manifest.jsonl", "split/bench_manifest.jsonl", "eval/metrics.json")

PIXEL_TOLERANCE = 10 * NOISE_SIGMA
QUANTIZATION = 1 / 959      # code step of the synthetic sensor (white 1023, black 64)
RECOVERY_TOLERANCE = 1e-5   # float32 storage of the residual plane
INTERIOR_MARGIN = 2         # bilinear demosaic mixes values one pixel across an edge


def _written(directory: Path, pattern: str) -> int:
    """Files matching ``pattern`` that hold data; emptied leftovers of earlier chains do not count."""
    return sum(1 for path in directory.glob(pattern) if path.stat().st_size > 0)


def _lines(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for line in fh if line.strip())


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _read_plane(stem: Path) -> np.ndarray:
    header = _json(Path(f"{stem}.json"))
    data = np.fromfile(f"{stem}.f32", dtype="<f4")
    shape = (header["height"], header["width"])
    return data.reshape(shape + ((header["channels"],) if header["channels"] > 1 else ()))


def _interior(patch: Patch, margin: int) -> tuple[slice, slice]:
    return (slice(patch.top + margin, patch.top + patch.height - margin),
            slice(patch.left + margin, patch.left + patch.width - margin))


def _check_image(work: Path, capture_id: str, expected: Expected) -> dict[str, list[str]]:
    """Meas.-XYZ flats, the gain-2 clip area and the 1/gain recovery floor, by stage."""
    problems: dict[str, list[str]] = {}
    xyz = _read_plane(work / "measxyz" / capture_id)
    bright, dark = expected.patches
    background = np.ones(xyz.shape[:2], dtype=bool)
    m = INTERIOR_MARGIN + 1
    background[:m, :] = background[-m:, :] = False
    background[:, :m] = background[:, -m:] = False
    for patch in expected.patches:
        background[max(0, patch.top - m):patch.top + patch.height + m,
                   max(0, patch.left - m):patch.left + patch.width + m] = False
    regions = (
        ("background", xyz[background], BACKGROUND),
        ("bright patch", xyz[_interior(bright, INTERIOR_MARGIN)].reshape(-1, 3),
         min(1.0, BACKGROUND * bright.gain)),
        ("dark patch", xyz[_interior(dark, INTERIOR_MARGIN)].reshape(-1, 3), BACKGROUND * dark.gain),
    )
    for label, values, level in regions:
        # Demosaic averages up to four samples, so about n/4 of them are independent.
        mean_tolerance = QUANTIZATION / 2 + 5 * NOISE_SIGMA / np.sqrt(len(values) / 4)
        mean_error = float(np.abs(values.mean(axis=0) - level).max())
        pixel_error = float(np.abs(values - level).max())
        if mean_error > mean_tolerance or pixel_error > PIXEL_TOLERANCE:
            problems.setdefault("measxyz", []).append(f"{capture_id}: {label} deviates from {level} "
                            f"(mean {mean_error:.2e}, pixel {pixel_error:.2e})")

    summary = _json(work / "lost" / f"{capture_id}_summary.json")
    pixels = xyz.shape[0] * xyz.shape[1]
    clipped = round(summary["clipped_fraction"] * pixels)
    inner = (bright.height - 2) * (bright.width - 2)
    outer = (bright.height + 2) * (bright.width + 2)
    if not inner <= clipped <= outer:
        problems.setdefault("lost-signal", []).append(f"{capture_id}: {clipped} clipped pixels at gain {LOST_SIGNAL_GAIN}, "
                        f"bright patch implies {inner}..{outer}")
    residual = _read_plane(work / "lost" / f"{capture_id}_residual")
    region = _interior(bright, INTERIOR_MARGIN)
    recovered = xyz[region][..., 1].astype(np.float64) - residual[region]
    floor_error = float(np.abs(recovered - 1.0 / LOST_SIGNAL_GAIN).max())
    if floor_error > RECOVERY_TOLERANCE:
        problems.setdefault("lost-signal", []).append(f"{capture_id}: recovered luminance on the clipped interior is "
                        f"{floor_error:.2e} away from 1/gain")
    return problems


def check_chain(work: Path, expected: Expected, planted: dict) -> tuple[dict, int]:
    """Check every stage's outputs; return ({stage: [problems]}, failed proxies)."""
    problems: dict[str, list[str]] = {}

    def expect(stage: str, label: str, actual, wanted) -> None:
        if actual != wanted:
            problems.setdefault(stage, []).append(f"{label}: got {actual}, expected {wanted}")

    capture_ids = [f"synth-{i:04d}" for i in range(expected.captures)]
    expect("measxyz", "planes", _written(work / "measxyz", "*.f32"), expected.captures)
    expect("bracket", "renders", _written(work / "bracket", "*.ppm"), expected.proxies)
    expect("lost-signal", "summaries", _written(work / "lost", "*_summary.json"), expected.captures)
    if "measxyz" not in problems and "lost-signal" not in problems:
        for capture_id in capture_ids:
            for stage, found in _check_image(work, capture_id, expected).items():
                problems.setdefault(stage, []).extend(found)

    served = set()
    rows = 0
    with (work / "annotate" / "candidates.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            served.add((row["capture_id"], float(row["exposure_gain"])))
            rows += 1
    failed_proxies = sum(1 for c in capture_ids for g in GAINS if (c, g) not in served)
    expect("annotate", "candidates", rows, expected.valid_candidates)
    expect("annotate", "proxies without candidates", failed_proxies, 0)
    expect("aggregate", "samples", _lines(work / "aggregate" / "samples.jsonl"), expected.records)
    counts = _json(work / "filter" / "run.json")["counts"]
    expect("filter", "kept", counts["kept"], expected.filtered)
    expect("filter", "dropped_score", counts["dropped_score"], expected.dropped_score)
    expect("filter", "dropped_placeholder", counts["dropped_placeholder"], expected.dropped_placeholder)
    expect("filter", "filtered.jsonl rows", _lines(work / "filter" / "filtered.jsonl"), expected.filtered)
    expect("balance", "manifest rows", _lines(work / "balance" / "manifest.jsonl"), expected.balanced)

    bench_refs = {r["capture_id"] for r in _json(work / "split" / "bench_refs.json")}
    expect("split", "bench captures", len(bench_refs), expected.bench_captures)
    train = _lines(work / "split" / "train_samples.jsonl")
    expect("split", "train + bench rows", train + planted["total"], expected.balanced)
    expect("split", "bench rows outside bench captures",
           sum(1 for c in planted["capture_ids"] if c not in bench_refs), 0)
    expect("verify-split", "status", _json(work / "verify" / "disjointness.json")["status"], "PASS")

    report = _json(work / "eval" / "metrics.json")
    expect("eval", "total", report["total"], planted["total"])
    expect("eval", "missing_predictions", report["missing_predictions"], 0)
    accuracy = report["overall"]["judge_accuracy"]
    wanted = planted["correct"] / planted["total"] if planted["total"] else 0.0
    if abs(accuracy - wanted) > 1e-12:
        expect("eval", "judge_accuracy", accuracy, wanted)
    return problems, failed_proxies


def plant_predictions(work: Path, seed: int) -> dict:
    """Write predictions for the bench manifest: about half exact, the rest scrambled."""
    capture_ids = []
    correct = 0
    with (work / "split" / "bench_manifest.jsonl").open(encoding="utf-8") as src, \
            (work / "predictions.jsonl").open("w", encoding="utf-8") as dst:
        for line in src:
            example = json.loads(line)
            reference = example["reference_answer"]
            key = f"{seed}\0{example['capture_id']}\0{example['question']}".encode("utf-8")
            if hashlib.sha256(key).digest()[0] % 2 == 0:
                prediction = reference
                correct += 1
            else:  # an extra word keeps it wrong even when the reversal is a palindrome
                prediction = " ".join(reversed(reference.split())) + " perhaps"
            capture_ids.append(example["capture_id"])
            dst.write(json.dumps({"capture_id": example["capture_id"],
                                  "question": example["question"],
                                  "prediction": prediction}, ensure_ascii=False) + "\n")
    return {"total": len(capture_ids), "correct": correct, "capture_ids": capture_ids}


def digest(work: Path) -> str:
    """SHA-256 over the artifacts promised byte-identical, in path order."""
    sha = hashlib.sha256()
    paths = sorted(p for pattern in DIGEST_GLOBS for p in work.glob(pattern))
    for path in paths:
        sha.update(path.relative_to(work).as_posix().encode("utf-8") + b"\0")
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                sha.update(block)
        sha.update(b"\0")
    return sha.hexdigest()
