"""Workload definitions and seeded input generation.

Each workload is a set of capture bundles (written by the `measground synth`
stage) plus an annotator transcript. Everything is derived from the seed the
benchmark receives; the program under test only ever sees the generated files.
Counts that the output checks rely on (candidates, records, filtered and
balanced samples) are fixed by construction, so they are the same for every
seed and are computed here without running the pipeline.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

GAINS = (0.5, 1.0, 2.0, 4.0)
LOST_SIGNAL_GAIN = 2.0
SCORE_FLOOR = 0.5
BENCH_FRACTION = 0.2
DEVICES = 5

BACKGROUND = 0.25
BRIGHT_GAIN = 3.5
DARK_GAIN = 0.05
NOISE_SIGMA = 0.002


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    height: int
    width: int
    captures: int
    group_size: int
    shared_questions: int      # asked at every gain with one (case-varied) answer
    single_questions: int      # asked at one gain only, per proxy
    answer_tokens: tuple[int, int]
    cjk_share: float           # share of answer tokens drawn from CJK words
    low_score_share: float     # share of single questions scored below the floor
    placeholder_share: float   # share of gain-0.5 single questions with placeholder answers
    malformed_share: float     # share of proxies that also serve one malformed candidate
    fail_share: float          # share of proxies scripted with fail_times: 1
    templates: int
    template_cap_share: float  # per-template cap as a share of the mean template size
    stresses: tuple[str, ...] = field(default=())
    bypasses: tuple[str, ...] = field(default=())

    @property
    def pixels_per_capture(self) -> int:
        return self.height * self.width

    @property
    def proxies(self) -> int:
        return self.captures * len(GAINS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hdr-large",
            why="2 RGGB captures of 3 MP with clipped and crushed patches: numeric kernels "
                "(demosaic, matrix, transfer, inverse, sort) and large plane/PPM writes dominate; "
                "peak memory is large",
            height=1500, width=2000, captures=2, group_size=1,
            shared_questions=2, single_questions=2, answer_tokens=(1, 4), cjk_share=0.0,
            low_score_share=0.25, placeholder_share=0.5, malformed_share=0.5,
            fail_share=0.0, templates=4, template_cap_share=0.8,
            stresses=("measxyz", "isp", "lost_signal", "formats.planes", "formats.ppm"),
            bypasses=("per-item overhead",),
        ),
        Workload(
            name="corpus-small",
            why="300 captures of 96x128: per-process and per-item costs (start-up, imports, "
                "bundle parsing, small file opens, JSON) dominate; scripted transient failures "
                "exercise retries",
            height=96, width=128, captures=300, group_size=2,
            shared_questions=2, single_questions=1, answer_tokens=(1, 4), cjk_share=0.0,
            low_score_share=0.2, placeholder_share=0.3, malformed_share=0.1,
            fail_share=0.05, templates=6, template_cap_share=0.9,
            stresses=("cli", "capture", "formats.small-files", "formats.json"),
            bypasses=("large numeric kernels",),
        ),
        Workload(
            name="supervision-dense",
            why="200 captures of 32x32, ~60 candidates per proxy with long CJK-mixed answers: "
                "text and JSONL layers (bracketsup, dataset, benchmark, metrics) do the work; "
                "numeric layers do little",
            height=32, width=32, captures=200, group_size=2,
            shared_questions=45, single_questions=15, answer_tokens=(10, 40), cjk_share=0.2,
            low_score_share=0.2, placeholder_share=0.3, malformed_share=0.1,
            fail_share=0.02, templates=12, template_cap_share=0.8,
            stresses=("bracketsup", "dataset", "benchmark", "metrics", "formats.jsonl"),
            bypasses=("numeric kernels (32x32 images)",),
        ),
    )
}


def smoke_variant(workload: Workload) -> Workload:
    """A miniature of a workload with the same shape of inputs."""
    return replace(
        workload,
        height=min(workload.height, 64),
        width=min(workload.width, 96),
        captures=min(workload.captures, 10),
        shared_questions=min(workload.shared_questions, 3),
        single_questions=min(workload.single_questions, 2),
    )


# --- scene ----------------------------------------------------------------------

@dataclass(frozen=True)
class Patch:
    top: int
    left: int
    height: int
    width: int
    gain: float

    def as_spec(self) -> dict:
        return {"top": self.top, "left": self.left, "height": self.height,
                "width": self.width, "gain": self.gain}


def scene_patches(workload: Workload, rng: random.Random) -> tuple[Patch, Patch]:
    """A bright patch in the upper-left half and a dark one in the lower-right half."""
    h, w = workload.height, workload.width
    ph, pw = h // 4, w // 4
    bright = Patch(rng.randrange(h // 8, h // 2 - ph), rng.randrange(w // 8, w // 2 - pw),
                   ph, pw, BRIGHT_GAIN)
    dark = Patch(rng.randrange(h // 2, h - ph - h // 16), rng.randrange(w // 2, w - pw - w // 16),
                 ph, pw, DARK_GAIN)
    return bright, dark


# --- transcript --------------------------------------------------------------------

_WORDS = (
    "red", "green", "blue", "white", "black", "bright", "dark", "window", "street", "lamp",
    "tree", "car", "sky", "cloud", "door", "wall", "sign", "shadow", "light", "roof",
    "person", "bicycle", "table", "chair", "glass", "metal", "stone", "river", "bridge",
    "left", "right", "behind", "front", "small", "large", "two", "three", "four", "five",
    "open", "closed", "near", "far", "top", "bottom", "corner", "centre", "edge", "line",
)
_CJK_WORDS = ("红色", "天空", "建筑", "汽车", "窗户", "树木", "街道", "灯光", "阴影", "桥梁")
_QUESTION_FORMS = (
    ("count", "How many {a} are visible near the {b}"),
    ("color", "What color is the {a} next to the {b}"),
    ("verify", "Is there a {a} in this picture of the {b}"),
    ("choice", "Which of these is brighter, the {a} or the {b}"),
    ("spatial", "What is left of the {a} beside the {b}"),
    ("text", "What does the sign on the {a} say about the {b}"),
    ("describe", "Describe the {a} and the {b}"),
)
_PLACEHOLDERS = ("I cannot see enough detail", "Unable to tell from this image",
                 "No answer is possible here")


@dataclass
class Expected:
    """Counts the pipeline must produce for the generated inputs."""

    captures: int
    proxies: int
    served_candidates: int
    valid_candidates: int
    records: int
    dropped_score: int
    dropped_placeholder: int
    filtered: int
    template_cap: int
    balanced: int
    bench_captures: int
    scripted_failures: int
    malformed_candidates: int
    patches: tuple[Patch, Patch]

    def to_dict(self) -> dict:
        out = dict(vars(self))
        out["patches"] = [p.as_spec() for p in self.patches]
        return out


def _answer(rng: random.Random, workload: Workload) -> str:
    lo, hi = workload.answer_tokens
    tokens = [
        rng.choice(_CJK_WORDS) if rng.random() < workload.cjk_share else rng.choice(_WORDS)
        for _ in range(rng.randint(lo, hi))
    ]
    return " ".join(tokens)


def _question(rng: random.Random, label: str) -> tuple[str, str]:
    qtype, form = _QUESTION_FORMS[rng.randrange(len(_QUESTION_FORMS))]
    text = form.format(a=rng.choice(_WORDS), b=rng.choice(_WORDS))
    return f"{text} ({label})?", qtype


def _fixed_share(rng: random.Random, n: int, share: float) -> set[int]:
    """Exactly round(share * n) indices out of n, chosen by the seed."""
    return set(rng.sample(range(n), int(round(share * n))))


def _malformed(rng: random.Random, question: str) -> object:
    kind = rng.randrange(4)
    if kind == 0:
        return {"question": question, "score": 0.9, "question_type": "describe", "template_id": "tpl-0"}
    if kind == 1:
        return {"question": question, "answer": "   ", "score": 0.9,
                "question_type": "describe", "template_id": "tpl-0"}
    if kind == 2:
        return {"question": question, "answer": "sky", "score": 1.7,
                "question_type": "describe", "template_id": "tpl-0"}
    return "not a candidate"


def write_transcript(workload: Workload, seed: int, path: Path) -> dict:
    """Write the mock-annotator transcript; return its expected counts."""
    rng = random.Random(f"transcript:{workload.name}:{seed}")
    n_single = workload.proxies * workload.single_questions
    low = _fixed_share(rng, n_single, workload.low_score_share)
    gain_half_singles = [i for i in range(n_single)
                         if (i // workload.single_questions) % len(GAINS) == 0 and i not in low]
    placeholder = set(rng.sample(gain_half_singles,
                                 int(round(workload.placeholder_share * len(gain_half_singles)))))
    malformed = _fixed_share(rng, workload.proxies, workload.malformed_share)
    failing = _fixed_share(rng, workload.proxies, workload.fail_share)

    per_template = [0] * workload.templates
    served = valid = records = dropped_score = dropped_placeholder = 0
    rows = []
    for c in range(workload.captures):
        capture_id = f"synth-{c:04d}"
        shared = []
        for k in range(workload.shared_questions):
            question, qtype = _question(rng, f"s{k}")
            template = k % workload.templates
            shared.append((question, qtype, template, _answer(rng, workload)))
            per_template[template] += 1  # boosted score >= 0.55 always passes the floor
        records += len(shared)
        for g, gain in enumerate(GAINS):
            proxy = c * len(GAINS) + g
            candidates = []
            for question, qtype, template, answer in shared:
                variant = answer.upper() if g == 1 else (answer + " " if g == 2 else answer)
                candidates.append({
                    "question": question, "answer": variant,
                    "score": round(rng.uniform(0.45, 0.9), 4),
                    "question_type": qtype, "template_id": f"tpl-{template}",
                })
            for j in range(workload.single_questions):
                index = proxy * workload.single_questions + j
                question, qtype = _question(rng, f"g{g}q{j}")
                template = (workload.shared_questions + index) % workload.templates
                if index in low:
                    score = round(rng.uniform(0.2, 0.45), 4)
                    dropped_score += 1
                else:
                    score = round(rng.uniform(0.55, 0.95), 4)
                    if index in placeholder:
                        dropped_placeholder += 1
                    else:
                        per_template[template] += 1
                answer = rng.choice(_PLACEHOLDERS) if index in placeholder else _answer(rng, workload)
                candidates.append({
                    "question": question, "answer": answer, "score": score,
                    "question_type": qtype, "template_id": f"tpl-{template}",
                })
                records += 1
            valid += len(candidates)
            if proxy in malformed:
                at = rng.randrange(len(candidates) + 1)
                candidates.insert(at, _malformed(rng, candidates[0]["question"]))
            served += len(candidates)
            row = {"capture_id": capture_id, "exposure_gain": gain, "candidates": candidates}
            if proxy in failing:
                row["fail_times"] = 1
            rows.append(row)

    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")

    filtered = records - dropped_score - dropped_placeholder
    cap = max(1, int(workload.template_cap_share * filtered / workload.templates))
    return {
        "served_candidates": served,
        "valid_candidates": valid,
        "records": records,
        "dropped_score": dropped_score,
        "dropped_placeholder": dropped_placeholder,
        "filtered": filtered,
        "template_cap": cap,
        "balanced": sum(min(n, cap) for n in per_template),
        "scripted_failures": len(failing),
        "malformed_candidates": len(malformed),
    }


def bench_captures(workload: Workload) -> int:
    """Captures the grouped split holds out: whole devices, as many as the fraction allows.

    Synth assigns devices round-robin over scene groups, so every device holds
    the same number of captures and device separation is always feasible here.
    """
    devices = min(DEVICES, -(-workload.captures // workload.group_size))
    per_device = workload.captures // devices
    target = max(1, min(int(BENCH_FRACTION * workload.captures + 0.5), workload.captures - 1))
    return max(1, target // per_device) * per_device


@contextmanager
def in_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def generate(workload: Workload, seed: int, work: Path, cli_main) -> Expected:
    """Write bundles and transcript under ``work`` (the stage working directory).

    ``cli_main`` is ``measground.cli.main``; bundles are written by the synth
    stage with paths relative to ``work`` so every artifact is independent of
    where the checkout lives. Files left from an earlier set-up are
    overwritten in place.
    """
    rng = random.Random(f"scene:{workload.name}:{seed}")
    patches = scene_patches(workload, rng)
    spec = {
        "height": workload.height, "width": workload.width,
        "background": BACKGROUND, "noise_sigma": NOISE_SIGMA,
        "patches": [p.as_spec() for p in patches],
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / "scene.json").write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")
    with in_directory(work):
        status = cli_main([
            "synth", "--out", "synth", "--count", str(workload.captures), "--seed", str(seed),
            "--scene", "scene.json", "--group-size", str(workload.group_size),
            "--devices", str(DEVICES),
        ])
    if status != 0:
        raise RuntimeError(f"synth stage exited with {status}")
    counts = write_transcript(workload, seed, work / "transcript.jsonl")
    return Expected(
        captures=workload.captures,
        proxies=workload.proxies,
        bench_captures=bench_captures(workload),
        patches=patches,
        **counts,
    )
