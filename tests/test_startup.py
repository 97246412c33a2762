"""The text stages start without numpy or importlib.metadata, and the lazy package
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

# Runs one CLI stage in this process, then reports its status and whether numpy was loaded.
_STAGE = textwrap.dedent("""
    import json, sys
    from measground import cli
    status = cli.main(sys.argv[1:])
    print(json.dumps({"status": status, "numpy": "numpy" in sys.modules,
                      "metadata": "importlib.metadata" in sys.modules}))
""")

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
        ("report", "--input", "eval/metrics.json"),
    ]
    for argv in chain:
        if argv[0] == "eval":
            _write_predictions(images / "split" / "bench_manifest.jsonl", images / "predictions.jsonl")
        result = _python(_STAGE, *argv, cwd=images)
        assert result == {"status": 0, "numpy": False, "metadata": False}, argv[0]
    run = json.loads((images / "split" / "run.json").read_text())
    assert run["versions"]["numpy"] == np.__version__
    assert run["counts"]["bench_examples"] > 0


def test_lazy_package_exports():
    result = _python(_PACKAGE)
    assert result == {"after_import": False, "unresolved": [], "star_missing": [],
                      "submodule": "measground.isp"}
