"""The text stages start without numpy or importlib.metadata, each stage loads only
the modules its subcommand runs and freezes its heap once, and the lazy package
still exports every name."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import measground
from measground.cli import main

from test_cli import _simple_candidates, _write_predictions, _write_transcript

SRC = str(Path(measground.__file__).resolve().parents[1])

# Runs one CLI stage in this process, as on two CPUs, then reports its status
# and which slow imports it loaded.
_STAGE = textwrap.dedent("""
    import json, sys
    from measground import cli
    cli._available_cpus = lambda: 2
    status = cli.main(sys.argv[1:])
    print(json.dumps({"status": status, "numpy": "numpy" in sys.modules,
                      "metadata": "importlib.metadata" in sys.modules,
                      "requests": "requests" in sys.modules,
                      "process pools": sorted({"multiprocessing", "concurrent.futures"} & set(sys.modules))}))
""")

# Runs one CLI stage in this process, as on two CPUs, then reports which of the
# package's modules it loaded; --help ends main with SystemExit.
_LOADED = textwrap.dedent("""
    import json, sys
    from measground import cli
    cli._available_cpus = lambda: 2
    try:
        status = cli.main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
    print(json.dumps({"status": status, "numpy": "numpy" in sys.modules,
                      "modules": sorted(name.partition(".")[2] for name in sys.modules
                                        if name.startswith("measground."))}))
""")

_LAYERS = {"benchmark", "bracketsup", "dataset", "metrics", "remote"}
_NUMERIC = {"capture", "measxyz", "isp", "lost_signal", "probe"}

_PACKAGE = textwrap.dedent("""
    import json, sys
    import measground
    after_import = "numpy" in sys.modules
    unresolved = [name for name in measground.__all__ if getattr(measground, name, None) is None]
    star = {}
    exec("from measground import *", star)
    print(json.dumps({
        "after_import": after_import,
        "unresolved": unresolved,
        "star_missing": sorted(set(measground.__all__) - set(star)),
        "submodule": measground.isp.__name__,
    }))
""")


def _python(code, *argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True,
                          text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def images(tmp_path_factory):
    """synth -> measxyz -> bracket, the inputs of the text stages."""
    root = tmp_path_factory.mktemp("startup")
    assert main(["synth", "--out", str(root / "synth"), "--count", "4", "--seed", "2",
                 "--devices", "4"]) == 0
    assert main(["measxyz", "--input", str(root / "synth" / "captures.json"),
                 "--out", str(root / "measxyz")]) == 0
    assert main(["bracket", "--input", str(root / "measxyz"), "--exposures", "0.5,1.0",
                 "--out", str(root / "bracket")]) == 0
    _write_transcript(root / "transcript.jsonl", [f"synth-{i:04d}" for i in range(4)],
                      [0.5, 1.0], _simple_candidates)
    return root


def test_text_stages_never_import_numpy(images):
    chain = [
        ("annotate", "--proxies", "bracket", "--mock-annotator", "transcript.jsonl",
         "--out", "annotate"),
        ("aggregate", "--candidates", "annotate/candidates.jsonl", "--measxyz", "measxyz",
         "--out", "aggregate"),
        ("filter", "--input", "aggregate/samples.jsonl", "--floor", "0.5", "--out", "filter"),
        ("balance", "--input", "filter/filtered.jsonl", "--target", "100", "--out", "balance"),
        ("split", "--captures", "synth/captures.json", "--samples", "balance/manifest.jsonl",
         "--proxies", "bracket", "--fraction", "0.5", "--out", "split"),
        ("verify-split", "--train", "split/train_samples.jsonl", "--bench",
         "split/bench_manifest.jsonl", "--out", "verify"),
        ("eval", "--bench", "split/bench_manifest.jsonl", "--predictions", "predictions.jsonl",
         "--out", "eval"),
        ("eval", "--bench", "split/bench_manifest.jsonl", "--predictions", "predictions.jsonl",
         "--mock-judge", "judge.jsonl", "--out", "eval-mock-judge"),
        ("report", "--input", "eval/metrics.json"),
    ]
    (images / "judge.jsonl").write_text(json.dumps(
        {"question": "q", "reference": "r", "prediction": "p", "verdict": "correct"}) + "\n")
    for argv in chain:
        if argv[0] == "eval":
            _write_predictions(images / "split" / "bench_manifest.jsonl", images / "predictions.jsonl")
        result = _python(_STAGE, *argv, cwd=images)
        assert result == {"status": 0, "numpy": False, "metadata": False, "requests": False,
                          "process pools": []}, argv
    run = json.loads((images / "split" / "run.json").read_text())
    assert "numpy" not in run["versions"]
    assert run["counts"]["bench_examples"] > 0
    # an image stage loads numpy, and records its version; its two workers are
    # forked without a process pool module
    result = _python(_STAGE, "bracket", "--input", "measxyz", "--exposures", "1", "--out", "bracket-1",
                     cwd=images)
    assert result["numpy"] and result["process pools"] == []
    run = json.loads((images / "bracket-1" / "run.json").read_text())
    assert run["versions"]["numpy"] == np.__version__ and run["workers"] == 2


def test_records_resolve_without_numpy():
    """The numpy-free records are exported from ``records``, so resolving them loads no numpy."""
    result = _python(textwrap.dedent("""
        import json, sys
        import measground
        names = [measground.CameraMetadata, measground.CaptureRef, measground.RenderParams]
        print(json.dumps({"module": names[-1].__module__, "numpy": "numpy" in sys.modules}))
    """))
    assert result == {"module": "measground.records", "numpy": False}


def test_lazy_package_exports():
    result = _python(_PACKAGE)
    assert result == {"after_import": False, "unresolved": [], "star_missing": [],
                      "submodule": "measground.isp"}


@pytest.mark.parametrize("argv, unused", [
    pytest.param(("bracket", "--input", "measxyz", "--exposures", "1,2", "--out", "bracket-loaded"),
                 _LAYERS, id="bracket"),
    pytest.param(("lost-signal", "--input", "measxyz", "--gain", "2", "--out", "lost-loaded"),
                 _LAYERS, id="lost-signal"),
    pytest.param(("annotate", "--proxies", "bracket", "--mock-annotator", "transcript.jsonl",
                  "--out", "annotate-loaded"), {"benchmark", "dataset", "metrics"}, id="annotate"),
    pytest.param(("aggregate", "--candidates", "candidates/candidates.jsonl", "--measxyz", "measxyz",
                  "--out", "aggregate-loaded"), {"benchmark", "dataset", "metrics"}, id="aggregate"),
])
def test_a_stage_loads_only_the_modules_it_runs(images, argv, unused):
    if argv[0] == "aggregate" and not (images / "candidates").exists():
        assert main(["annotate", "--proxies", str(images / "bracket"), "--mock-annotator",
                     str(images / "transcript.jsonl"), "--out", str(images / "candidates")]) == 0
    result = _python(_LOADED, *argv, cwd=images)
    assert result["status"] == 0
    assert not unused & set(result["modules"]), argv


@pytest.mark.parametrize("stage", ["bracket", "lost-signal", "annotate", "split", "eval"])
def test_a_stage_help_loads_no_layer_and_no_numpy(stage):
    result = _python(_LOADED, stage, "--help")
    assert result["status"] == 0 and not result["numpy"]
    assert not (_LAYERS | _NUMERIC) & set(result["modules"]), result["modules"]


_TWICE = textwrap.dedent("""
    import gc, json, sys
    from measground import cli
    frozen = []
    for _ in range(2):
        status = cli.main(sys.argv[1:])
        frozen.append(gc.get_freeze_count())
    print(json.dumps({"status": status, "frozen": frozen}))
""")

# Maps gc.get_freeze_count over two items on two forked workers.
_WORKERS = textwrap.dedent("""
    import gc, json
    from measground import cli
    cli._available_cpus = lambda: 2
    pool = cli._CapturePool()
    print(json.dumps({"workers": pool.map(lambda item: gc.get_freeze_count(), [0, 1]),
                      "parent": gc.get_freeze_count()}))
""")


def test_the_heap_is_frozen_once_per_process(tmp_path):
    triple = {"bleu": 0.5, "rouge_l": 0.5, "judge_accuracy": 0.5}
    (tmp_path / "metrics.json").write_text(json.dumps({
        "overall": triple, "per_dimension": {"NG": triple}, "counts": {"NG": 1},
        "total": 1, "missing_predictions": 0}))
    result = _python(_TWICE, "report", "--input", "metrics.json", cwd=tmp_path)
    first, second = result["frozen"]
    # the second call freezes nothing more; frozen objects it drops, such as the
    # first call's log handler, are still freed by their reference counts
    assert result["status"] == 0 and 0 < second <= first
    # the workers fork from a frozen heap
    result = _python(_WORKERS)
    assert result["parent"] > 0 and len(result["workers"]) == 2 and min(result["workers"]) > 0
