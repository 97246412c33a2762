import argparse
import dataclasses
import functools
import json
import operator
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import measground
from measground import cli
from measground.cli import main
from measground.errors import DomainError, IoFailure
from measground.isp import XYZ_TO_LINEAR_SRGB_D65

from conftest import oracle_encode_ppm, oracle_linear_rgb, oracle_top_clipped
from test_measxyz import reference_demosaic


def _write_transcript(path, capture_ids, exposures, candidates_for):
    with open(path, "w") as fh:
        for cid in capture_ids:
            for gain in exposures:
                fh.write(json.dumps({
                    "capture_id": cid,
                    "exposure_gain": gain,
                    "candidates": candidates_for(cid, gain),
                }) + "\n")
    return path


def _run_cli(*argv):
    """Run the CLI as its own process, importing this checkout's package."""
    src = str(Path(measground.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "measground.cli", *map(str, argv)],
        capture_output=True, text=True, env=env,
    )


def _write_predictions(bench_path, path):
    """One exact prediction per benchmark example."""
    with open(path, "w") as fh:
        for line in Path(bench_path).read_text().splitlines():
            row = json.loads(line)
            fh.write(json.dumps({
                "capture_id": row["capture_id"], "question": row["question"],
                "prediction": row["reference_answer"],
            }) + "\n")
    return path


def _simple_candidates(cid, gain):
    return [
        {"question": "How many lights are on?", "answer": "two", "score": 0.8,
         "question_type": "count", "template_id": "tpl-count"},
        {"question": "What is the word on the sign?", "answer": f"WORD-{cid[-2:]}",
         "score": 0.7, "question_type": "ocr", "template_id": "tpl-ocr"},
    ]


def _error_event(capsys) -> str:
    """The event of the one JSON log line, an error, that the stage wrote to stderr."""
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["level"] for e in events] == ["error"]
    return events[0]["event"]


class TestBasics:
    def test_unknown_subcommand_exits_1_with_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in _error_event(capsys).lower()

    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "usage" in _error_event(capsys).lower()

    def test_an_unknown_flag_exits_1_with_usage(self, tmp_path, capsys):
        assert main(["measxyz", "--input", str(tmp_path), "--bogus", "1", "--out", str(tmp_path / "o")]) == 1
        event = _error_event(capsys)
        assert "unrecognized arguments: --bogus 1" in event and "usage" in event
        assert not (tmp_path / "o").exists()

    def test_config_unknown_key_exits_1(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"bogus_key": 1}')
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    def test_config_out_of_range_exits_1(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"fraction": 1.5}')
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("stage, config", [
        ("synth", {"gain": "abc"}),
        ("synth", {"exposures": 5}),
        ("synth", {"exposures": [1, True]}),
        ("synth", {"seed": "x"}),
        ("synth", {"gain": True}),
        ("lost-signal", {"bins": 2.5}),
        ("lost-signal", {"quantize": "no"}),
        ("lost-signal", {"bit_depth": 8.5}),
    ])
    def test_config_of_the_wrong_json_type_exits_1(self, tmp_path, stage, config):
        (tmp_path / "c.json").write_text(json.dumps(config))
        inputs = ["--input", tmp_path, "--gain", "2"] if stage == "lost-signal" else []
        proc = _run_cli(stage, "--config", tmp_path / "c.json", *inputs, "--out", tmp_path / "o")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        events = [json.loads(line) for line in proc.stderr.splitlines()]
        assert [e["level"] for e in events] == ["error"]
        assert f"config.{next(iter(config))}: expected " in events[0]["event"]

    @pytest.mark.parametrize("text, named", [
        (None, "config: cannot read "),
        ("{bad", "c.json is not valid JSON ("),
        ("[1]", "config: top level must be a JSON object"),
        ("[" * 200_000, "c.json is not valid JSON ("),
    ], ids=["missing", "not_json", "list", "nested_too_deeply"])
    def test_a_config_file_that_is_not_a_json_object_exits_1_and_leaves_no_out(self, tmp_path, capsys,
                                                                                 text, named):
        config = tmp_path / "c.json"
        if text is not None:
            config.write_text(text)
        assert main(["synth", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert named in _error_event(capsys)
        assert not (tmp_path / "o").exists()

    def test_config_int_for_a_float_field_is_accepted(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text('{"gain": 2, "exposures": [1, 2], "tau": 1}')
        assert main(["synth", "--config", str(config), "--count", "1", "--out", str(tmp_path / "o")]) == 0

    def test_entry_point_subprocess(self):
        proc = _run_cli("condition-check", "--seed", "3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "PASS"


# Each subcommand's own input flags, and the setting flags (RunConfig fields)
# its stage reads. Every subcommand also takes --config and --out.
FLAGS = {
    "synth": ("--count --scene --group-size --devices", "--seed"),
    "ingest": ("--input", ""),
    "measxyz": ("--input", ""),
    "bracket": ("--input", "--exposures"),
    "lost-signal": ("--input", "--gain --tau --bins"),
    "annotate": ("--proxies", "--mock-annotator --source-prefix"),
    "aggregate": ("--candidates --measxyz", ""),
    "filter": ("--input", "--floor"),
    "balance": ("--input", "--floor --target --seed --cap-source --cap-type --cap-template"),
    "split": ("--captures --samples --proxies", "--fraction --seed"),
    "verify-split": ("--train --bench", ""),
    "eval": ("--bench --predictions", "--mock-judge"),
    "condition-check": ("", "--seed --probe-config"),
    "report": ("--input", ""),
}

TOP_LEVEL_HELP = """\
usage: measground [-h]
                  {synth,ingest,measxyz,bracket,lost-signal,annotate,aggregate,filter,balance,split,verify-split,eval,condition-check,report}
                  ...

Batch command-line surface. One subcommand per pipeline stage; every stage is
runnable on its own given only its declared inputs, writes all artifacts under
--out, and records a run.json with the resolved-config hash and per-stage
counts. Identical config + seeds give byte-identical data outputs; timestamps
exist only in run.json. Logging is line-oriented JSON on stderr, controlled by
MEASGROUND_LOG={info,debug}.

positional arguments:
  {synth,ingest,measxyz,bracket,lost-signal,annotate,aggregate,filter,balance,split,verify-split,eval,condition-check,report}
    synth               generate synthetic capture bundles
    ingest              validate bundles and index captures
    measxyz             compute Meas.-XYZ observations
    bracket             render the exposure bracket
    lost-signal         invert renders and report residuals
    annotate            collect candidates over rendered proxies
    aggregate           aggregate candidates into samples
    filter              score floor + placeholder filtering
    balance             balance samples into a manifest
    split               grouped capture-level holdout split
    verify-split        check train/bench disjointness
    eval                score predictions against a benchmark
    condition-check     gradient-check the conditioning probe
    report              render a metrics JSON as a text table

options:
  -h, --help            show this help message and exit
"""


def _help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


class TestFlagSurface:
    """Each subcommand takes the setting flags its stage reads, and no other."""

    def test_top_level_help_is_plain_text(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert _help_text(capsys, "--help") == TOP_LEVEL_HELP

    @pytest.mark.parametrize("subcommand", FLAGS)
    def test_help_lists_exactly_the_flags_of_its_stage(self, capsys, subcommand):
        text = _help_text(capsys, subcommand, "--help")
        inputs, settings = FLAGS[subcommand]
        listed = re.findall(r"^  (-[-\w]+)", text.split("options:", 1)[1], re.MULTILINE)
        assert sorted(listed) == sorted(["-h", "--config", "--out", *inputs.split(), *settings.split()])

    def test_the_readme_table_names_the_registered_setting_flags(self):
        """README's `| subcommand | setting flags |` rows name every subcommand once,
        each with the setting flags its parser registers."""
        readme = Path(measground.__file__).resolve().parents[2] / "README.md"
        rows = readme.read_text(encoding="utf-8").split("| subcommand | setting flags |\n|---|---|\n", 1)[1]
        documented = {}
        for row in rows.split("\n\n", 1)[0].splitlines():
            names, flags = row.strip("|").split("|")
            for name in re.findall(r"`([-\w]+)`", names):
                assert name not in documented, name
                documented[name] = sorted(re.findall(r"--[-\w]+", flags))
        subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        registered = {name: sorted(a.option_strings[0] for a in parser._actions if a.dest in cli._SETTING_FLAGS)
                      for name, parser in subparsers.choices.items()}
        assert documented == registered

    def test_every_flag_that_sets_a_config_field_comes_from_the_setting_table(self):
        """A parser action whose dest is a RunConfig field is registered from
        ``_SETTING_FLAGS``: the table's flag name, type and help, and no default."""
        config_fields = {f.name for f in dataclasses.fields(cli.RunConfig)}

        def from_table(action) -> bool:
            if action.dest not in cli._SETTING_FLAGS:
                return False
            kind, text, *flag = cli._SETTING_FLAGS[action.dest]
            return (action.option_strings == (flag or ["--" + action.dest.replace("_", "-")])
                    and (action.type, action.help, action.default) == (kind, text, None))

        subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        outside = [f"{name} {action.option_strings[0]}" for name, parser in subparsers.choices.items()
                   for action in parser._actions if action.dest in config_fields and not from_table(action)]
        assert outside == []

    @pytest.fixture
    def measxyz(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1"]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        return tmp_path

    @pytest.mark.parametrize("argv, flag", [
        (["bracket", "--input", "m", "--gain", "3"], "--gain"),
        (["measxyz", "--input", "s/captures.json", "--seed", "1"], "--seed"),
    ])
    def test_a_setting_flag_its_stage_does_not_read_is_refused(self, measxyz, capsys, monkeypatch,
                                                               argv, flag):
        monkeypatch.chdir(measxyz)
        capsys.readouterr()
        assert main([*argv, "--out", "out"]) == 1
        event = _error_event(capsys)
        assert f"unrecognized arguments: {flag} " in event
        assert f"usage: measground {argv[0]} " in event
        assert not (measxyz / "out").exists()

    def test_the_last_log_line_is_a_finished_event(self, tmp_path):
        proc = _run_cli("synth", "--count", "2", "--out", tmp_path / "s")
        assert proc.returncode == 0, proc.stderr
        event = json.loads(proc.stderr.splitlines()[-1])
        run = json.loads((tmp_path / "s" / "run.json").read_text())
        assert event == {"level": "info", "logger": "measground", "event": "finished",
                         "stage": "synth", "counts": run["counts"]}
        assert run["counts"] == {"captures": 2}


class TestFailedStageOutput:
    """A stage that fails removes the --out it made while it is still empty, and
    keeps one that holds files or that was there before."""

    @pytest.fixture
    def measxyz(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "2"]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        return tmp_path

    def test_missing_input_leaves_no_out(self, tmp_path, capsys):
        assert main(["measxyz", "--input", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")]) == 2
        assert "nowhere" in _error_event(capsys)
        assert not (tmp_path / "o").exists()

    def test_missing_input_leaves_none_of_the_parents_it_made(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert main(["measxyz", "--input", str(tmp_path / "nowhere"), "--out", str(out)]) == 2
        assert not (tmp_path / "a").exists()

    def test_a_parent_that_was_there_is_kept(self, tmp_path):
        (tmp_path / "a").mkdir()
        out = tmp_path / "a" / "b" / "c"
        assert main(["measxyz", "--input", str(tmp_path / "nowhere"), "--out", str(out)]) == 2
        assert list((tmp_path / "a").iterdir()) == []

    def test_an_out_that_was_there_is_kept(self, tmp_path):
        (tmp_path / "o").mkdir()
        assert main(["measxyz", "--input", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")]) == 2
        assert (tmp_path / "o").is_dir()

    def test_an_out_with_partial_files_is_kept(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "2"]) == 0
        mosaic = tmp_path / "s" / "bundles" / "synth-0001" / "mosaic.pgm"
        mosaic.write_bytes(mosaic.read_bytes()[:-100])
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["synth-0000.f32", "synth-0000.json"]

    def test_a_sidecar_that_breaks_the_calibration_rule_leaves_no_out(self, tmp_path, capsys):
        # the sidecars are read before any worker forks, so the first bundle's plane is not written
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "2"]) == 0
        sidecar = tmp_path / "s" / "bundles" / "synth-0001" / "capture.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "white_level": 10}))
        capsys.readouterr()
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "synth-0001/capture.json: sidecar: white_level must exceed every black level, got 10.0" \
            in _error_event(capsys)
        assert not (tmp_path / "o").exists()

    def test_lost_signal_takes_unquantized_renders(self, measxyz):
        (measxyz / "c.json").write_text('{"quantize": false}')
        assert main(["lost-signal", "--input", str(measxyz / "m"), "--config", str(measxyz / "c.json"),
                     "--gain", "2", "--out", str(measxyz / "l")]) == 0
        assert (measxyz / "l" / "synth-0000_summary.json").exists()


class TestIngest:
    def test_indexes_valid_bundles(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "3",
                     "--seed", "0"]) == 0
        assert main(["ingest", "--input", str(tmp_path / "s" / "bundles"),
                     "--out", str(tmp_path / "i")]) == 0
        refs = json.loads((tmp_path / "i" / "captures.json").read_text())
        assert [r["capture_id"] for r in refs] == [f"synth-{i:04d}" for i in range(3)]

    def test_malformed_bundle_exits_1(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1",
                     "--seed", "0"]) == 0
        sidecar = tmp_path / "s" / "bundles" / "synth-0000" / "capture.json"
        obj = json.loads(sidecar.read_text())
        obj["metadata"]["iso"] = -1
        sidecar.write_text(json.dumps(obj))
        assert main(["ingest", "--input", str(tmp_path / "s" / "bundles"),
                     "--out", str(tmp_path / "i")]) == 1

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "i")]) == 2

    def test_unreachable_annotator_exits_2(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1",
                     "--seed", "0"]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["bracket", "--input", str(tmp_path / "m"), "--exposures", "1.0",
                     "--out", str(tmp_path / "r")]) == 0
        config = tmp_path / "c.json"
        config.write_text('{"annotator_endpoint": "http://127.0.0.1:9/none"}')
        assert main(["annotate", "--proxies", str(tmp_path / "r"),
                     "--config", str(config),
                     "--out", str(tmp_path / "a")]) == 2

    def test_unsendable_annotator_endpoint_exits_2_with_one_log_line(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1", "--seed", "0"]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["bracket", "--input", str(tmp_path / "m"), "--exposures", "1.0",
                     "--out", str(tmp_path / "r")]) == 0
        (tmp_path / "c.json").write_text('{"annotator_endpoint": "localhost:9/x"}')
        proc = _run_cli("annotate", "--proxies", tmp_path / "r", "--config", tmp_path / "c.json",
                        "--out", tmp_path / "a")
        assert proc.returncode == 2, proc.stderr
        events = [json.loads(line) for line in proc.stderr.splitlines()]
        assert [e["level"] for e in events] == ["error"]
        assert "localhost:9/x" in events[0]["event"]


    @pytest.mark.parametrize("stage, written", [
        ("ingest", ["captures.json", "run.json"]),
        ("measxyz", ["run.json", "synth-0001.f32", "synth-0001.json"]),
    ])
    def test_an_input_of_one_bundle_reads_that_bundle(self, tmp_path, stage, written):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "2", "--seed", "0"]) == 0
        assert main([stage, "--input", str(tmp_path / "s" / "bundles" / "synth-0001"),
                     "--out", str(tmp_path / "o")]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == written
        if stage == "ingest":
            refs = json.loads((tmp_path / "o" / "captures.json").read_text())
            assert [r["capture_id"] for r in refs] == ["synth-0001"]


class TestSynth:
    def test_writes_bundles_and_refs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--count", "4", "--seed", "5"]) == 0
        refs = json.loads((out / "captures.json").read_text())
        assert len(refs) == 4
        assert (out / "bundles" / "synth-0000" / "mosaic.pgm").exists()
        run = json.loads((out / "run.json").read_text())
        assert run["subcommand"] == "synth"
        assert run["counts"]["captures"] == 4
        assert len(run["config_hash"]) == 64
        assert run["workers"] == 2

    def test_deterministic_bundles(self, tmp_path, monkeypatch):
        for name, cpus in (("a", 1), ("b", 2)):
            monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
            assert main(["synth", "--out", str(tmp_path / name), "--count", "2",
                         "--seed", "9"]) == 0
        for rel in ("bundles/synth-0000/mosaic.pgm", "bundles/synth-0000/capture.json"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


class TestLostSignalAnalytic:
    def _scene(self, tmp_path, background, patches=()):
        spec = {
            "height": 16, "width": 16, "background": background,
            "noise_sigma": 0.0, "black_level": [64.0, 64.0, 64.0, 64.0],
            "white_level": 1023.0, "patches": list(patches),
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(spec))
        return path

    def _run_pipeline(self, tmp_path, scene, gain):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1",
                     "--seed", "0", "--scene", str(scene)]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["bracket", "--input", str(tmp_path / "m"),
                     "--exposures", str(gain), "--out", str(tmp_path / "r")]) == 0
        assert main(["lost-signal", "--input", str(tmp_path / "m"),
                     "--gain", str(gain), "--out", str(tmp_path / "l")]) == 0
        return json.loads((tmp_path / "l" / "synth-0000_summary.json").read_text())

    def test_flat_scene_fully_clipped(self, tmp_path):
        # level 768/959 = 0.80..., gain 2: every pixel exceeds 1/e
        scene = self._scene(tmp_path, 768 / 959)
        summary = self._run_pipeline(tmp_path, scene, gain=2.0)
        assert summary["clipped_fraction"] == 1.0
        assert summary["exposure_gain"] == 2.0

    def test_flat_scene_unclipped(self, tmp_path):
        scene = self._scene(tmp_path, 192 / 959)
        summary = self._run_pipeline(tmp_path, scene, gain=2.0)
        assert summary["clipped_fraction"] == 0.0

    def test_patch_scene_matches_independent_clip_algebra(self, tmp_path):
        # background 192/959 (code 256), patch x4 = 768/959 (code 832);
        # the expected fraction comes from the reference demosaic applied to
        # the analytically known mosaic, not from the pipeline under test
        patch = {"top": 4, "left": 4, "height": 8, "width": 6, "gain": 4.0}
        scene = self._scene(tmp_path, 192 / 959, patches=[patch])
        summary = self._run_pipeline(tmp_path, scene, gain=2.0)

        radiance = np.full((16, 16), 192 / 959)
        radiance[4:12, 4:10] *= 4.0
        codes = np.floor(64.0 + radiance * 959.0 + 0.5)
        norm = (codes - 64.0) / 959.0
        expected_xyz = reference_demosaic(norm, "RGGB")
        # a pixel clips when any rendered channel exceeds 1 before the clamp;
        # the render applies the documented D65 matrix after the gain
        matrix = np.asarray(XYZ_TO_LINEAR_SRGB_D65)
        expected_rgb = np.einsum("ij,hwj->hwi", matrix, 2.0 * expected_xyz)
        expected_fraction = float(np.mean(np.any(expected_rgb > 1.0, axis=-1)))
        assert 0.0 < expected_fraction < 1.0
        assert summary["clipped_fraction"] == expected_fraction

    def test_lost_signal_reads_gain_from_the_config(self, tmp_path):
        """The gain may come from --config; the files match --gain's."""
        scene = self._scene(tmp_path, 0.5)
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1",
                     "--seed", "0", "--scene", str(scene)]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        (tmp_path / "c.json").write_text('{"gain": 2}')
        assert main(["lost-signal", "--input", str(tmp_path / "m"), "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "from-config")]) == 0
        assert main(["lost-signal", "--input", str(tmp_path / "m"), "--gain", "2",
                     "--out", str(tmp_path / "from-flag")]) == 0
        names = sorted(p.name for p in (tmp_path / "from-flag").iterdir() if p.name != "run.json")
        assert "synth-0000_summary.json" in names
        assert names == sorted(p.name for p in (tmp_path / "from-config").iterdir() if p.name != "run.json")
        for name in names:
            assert (tmp_path / "from-config" / name).read_bytes() == (tmp_path / "from-flag" / name).read_bytes()


class TestPipelineStages:
    @pytest.fixture
    def staged(self, tmp_path):
        """synth -> measxyz -> bracket -> annotate -> aggregate outputs."""
        root = tmp_path
        assert main(["synth", "--out", str(root / "synth"), "--count", "6",
                     "--seed", "1", "--group-size", "2", "--devices", "3"]) == 0
        assert main(["measxyz", "--input", str(root / "synth" / "captures.json"),
                     "--out", str(root / "measxyz")]) == 0
        assert main(["bracket", "--input", str(root / "measxyz"),
                     "--exposures", "0.5,1.0,2.0",
                     "--out", str(root / "bracket")]) == 0
        capture_ids = [f"synth-{i:04d}" for i in range(6)]
        transcript = _write_transcript(root / "transcript.jsonl", capture_ids,
                                       [0.5, 1.0, 2.0], _simple_candidates)
        assert main(["annotate", "--proxies", str(root / "bracket"),
                     "--mock-annotator", str(transcript),
                     "--out", str(root / "annotate")]) == 0
        assert main(["aggregate", "--candidates", str(root / "annotate" / "candidates.jsonl"),
                     "--measxyz", str(root / "measxyz"),
                     "--out", str(root / "aggregate")]) == 0
        return root

    def test_bracket_outputs_one_ppm_per_exposure(self, staged):
        ppms = list((staged / "bracket").glob("*.ppm"))
        assert len(ppms) == 6 * 3

    def test_aggregate_boosts_cross_exposure_agreement(self, staged):
        samples = [json.loads(line) for line in
                   (staged / "aggregate" / "samples.jsonl").read_text().splitlines()]
        assert len(samples) == 6 * 2  # two question groups per capture
        counts = {s["record"]["question"]: s["record"]["score"] for s in samples[:2]}
        # same answer across three exposures: 0.8 + 0.1 boost
        assert counts["How many lights are on?"] == pytest.approx(0.9)
        sample = samples[0]
        assert sorted(sample["record"]["provenance"]) == [0.5, 1.0, 2.0]

    def test_filter_balance_split_verify_eval(self, staged, capsys):
        root = staged
        assert main(["filter", "--input", str(root / "aggregate" / "samples.jsonl"),
                     "--floor", "0.5", "--out", str(root / "filter")]) == 0
        assert main(["balance", "--input", str(root / "filter" / "filtered.jsonl"),
                     "--target", "200", "--seed", "3",
                     "--out", str(root / "balance")]) == 0
        assert main(["split", "--captures", str(root / "synth" / "captures.json"),
                     "--samples", str(root / "balance" / "manifest.jsonl"),
                     "--proxies", str(root / "bracket"),
                     "--fraction", "0.34", "--seed", "4",
                     "--out", str(root / "split")]) == 0
        assert main(["verify-split",
                     "--train", str(root / "split" / "train_samples.jsonl"),
                     "--bench", str(root / "split" / "bench_manifest.jsonl"),
                     "--out", str(root / "verify")]) == 0
        report = json.loads((root / "verify" / "disjointness.json").read_text())
        assert report["status"] == "PASS"

        assert (root / "split" / "bench_manifest.jsonl").read_text()
        _write_predictions(root / "split" / "bench_manifest.jsonl", root / "preds.jsonl")
        capsys.readouterr()
        assert main(["eval", "--bench", str(root / "split" / "bench_manifest.jsonl"),
                     "--predictions", str(root / "preds.jsonl"),
                     "--out", str(root / "eval")]) == 0
        metrics_obj = json.loads((root / "eval" / "metrics.json").read_text())
        assert metrics_obj["overall"]["judge_accuracy"] == 1.0
        assert metrics_obj["overall"]["bleu"] == 1.0
        assert "OVERALL" in capsys.readouterr().out

        assert main(["report", "--input", str(root / "eval" / "metrics.json")]) == 0

    @pytest.mark.parametrize("given", [["--samples", "aggregate/samples.jsonl"], ["--proxies", "bracket"]])
    def test_split_refuses_samples_or_proxies_alone(self, staged, capsys, monkeypatch, given):
        """The benchmark examples need both: one alone is refused before anything is written."""
        monkeypatch.chdir(staged)
        capsys.readouterr()
        assert main(["split", "--captures", "synth/captures.json", *given, "--out", "split"]) == 1
        event = _error_event(capsys)
        assert "--samples" in event and "--proxies" in event
        assert not (staged / "split").exists()

    def test_eval_with_mock_judge_transcript(self, staged, capsys):
        root = staged
        assert main(["filter", "--input", str(root / "aggregate" / "samples.jsonl"),
                     "--floor", "0.5", "--out", str(root / "filter")]) == 0
        assert main(["balance", "--input", str(root / "filter" / "filtered.jsonl"),
                     "--target", "200", "--seed", "3",
                     "--out", str(root / "balance")]) == 0
        assert main(["split", "--captures", str(root / "synth" / "captures.json"),
                     "--samples", str(root / "balance" / "manifest.jsonl"),
                     "--proxies", str(root / "bracket"),
                     "--fraction", "0.34", "--seed", "4",
                     "--out", str(root / "split")]) == 0
        bench = [json.loads(line) for line in
                 (root / "split" / "bench_manifest.jsonl").read_text().splitlines()]
        # a transcript that overrides one correct-looking answer to incorrect
        first = bench[0]
        with open(root / "judge.jsonl", "w") as fh:
            fh.write(json.dumps({
                "question": first["question"], "reference": first["reference_answer"],
                "prediction": first["reference_answer"], "verdict": "incorrect",
            }) + "\n")
        _write_predictions(root / "split" / "bench_manifest.jsonl", root / "preds.jsonl")
        assert main(["eval", "--bench", str(root / "split" / "bench_manifest.jsonl"),
                     "--predictions", str(root / "preds.jsonl"),
                     "--mock-judge", str(root / "judge.jsonl"),
                     "--out", str(root / "eval2")]) == 0
        metrics_obj = json.loads((root / "eval2" / "metrics.json").read_text())
        assert metrics_obj["overall"]["judge_accuracy"] < 1.0
        assert metrics_obj["overall"]["bleu"] == 1.0

    def test_verify_split_fails_on_overlap(self, staged, capsys):
        root = staged
        refs = str(root / "synth" / "captures.json")
        code = main(["verify-split", "--train", refs, "--bench", refs])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "synth-0000" in out

    def test_stage_reruns_are_byte_identical(self, staged, monkeypatch):
        """Every data-writing stage, run twice on the same inputs into fresh
        directories, writes the same files with the same bytes (run.json aside).
        The first run has one CPU, the second two: per-capture stages run
        serially, then on two workers."""
        root = staged

        def rerun(stage, *argv):
            outs = [root / "rerun" / f"{stage}-{i}" for i in (1, 2)]
            for cpus, out in enumerate(outs, start=1):
                monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
                assert main([stage, *map(str, argv), "--out", str(out)]) == 0
            names = [sorted(p.relative_to(out) for p in out.rglob("*")
                            if p.is_file() and p.name != "run.json") for out in outs]
            assert names[0] and names[0] == names[1]
            for rel in names[0]:
                assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), (stage, rel)
            workers = [json.loads((out / "run.json").read_text())["workers"] for out in outs]
            assert workers == ([1, 2] if stage in per_capture else [1, 1]), stage
            return outs[0]

        per_capture = {"measxyz", "bracket", "lost-signal"}

        measxyz = rerun("measxyz", "--input", root / "synth" / "captures.json")
        bracket = rerun("bracket", "--input", measxyz, "--exposures", "0.5,1.0,2.0")
        rerun("lost-signal", "--input", measxyz, "--gain", "2.0")
        annotate = rerun("annotate", "--proxies", bracket, "--mock-annotator", root / "transcript.jsonl")
        aggregate = rerun("aggregate", "--candidates", annotate / "candidates.jsonl", "--measxyz", measxyz)
        filtered = rerun("filter", "--input", aggregate / "samples.jsonl", "--floor", "0.5")
        balanced = rerun("balance", "--input", filtered / "filtered.jsonl", "--target", "200", "--seed", "3")
        split = rerun("split", "--captures", root / "synth" / "captures.json",
                      "--samples", balanced / "manifest.jsonl", "--proxies", bracket,
                      "--fraction", "0.34", "--seed", "4")
        preds = _write_predictions(split / "bench_manifest.jsonl", root / "preds.jsonl")
        rerun("eval", "--bench", split / "bench_manifest.jsonl", "--predictions", preds)


class TestTextStageFiles:
    def test_report_writes_the_table_it_prints(self, tmp_path, capsys):
        triple = {"bleu": 0.5, "rouge_l": 0.25, "judge_accuracy": 1.0}
        (tmp_path / "metrics.json").write_text(json.dumps({
            "overall": triple, "per_dimension": {"NG": triple}, "counts": {"NG": 1},
            "total": 1, "missing_predictions": 0}))
        capsys.readouterr()
        assert main(["report", "--input", str(tmp_path / "metrics.json"), "--out", str(tmp_path / "d")]) == 0
        printed = capsys.readouterr().out
        assert "OVERALL" in printed
        assert (tmp_path / "d" / "report.txt").read_text() == printed

    def test_verify_split_names_a_refused_row_of_a_refs_list_by_its_index(self, tmp_path, capsys):
        (tmp_path / "train.json").write_text(json.dumps([{"capture_id": "a"}, {"capture_id": [1]}]))
        (tmp_path / "bench.jsonl").write_text(json.dumps({"capture_id": "b"}) + "\n")
        assert main(["verify-split", "--train", str(tmp_path / "train.json"),
                     "--bench", str(tmp_path / "bench.jsonl")]) == 1
        assert "train.json: [1]: capture_id: expected str | None, got [1]" in _error_event(capsys)


class TestStripedPassFiles:
    """The one-pass bracket and analysis write the files of the per-gain,
    whole-frame path: captures of several stripes, a clipping and a dark patch."""

    @pytest.fixture(scope="class")
    def measxyz(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("striped")
        spec = {
            "height": 700, "width": 96, "background": 0.25, "noise_sigma": 0.002,
            "patches": [{"top": 100, "left": 10, "height": 400, "width": 40, "gain": 3.5},
                        {"top": 520, "left": 50, "height": 150, "width": 40, "gain": 0.05}],
        }
        (root / "scene.json").write_text(json.dumps(spec))
        assert main(["synth", "--out", str(root / "s"), "--count", "3", "--seed", "5",
                     "--scene", str(root / "scene.json")]) == 0
        assert main(["measxyz", "--input", str(root / "s" / "captures.json"),
                     "--out", str(root / "m")]) == 0
        return root / "m"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bracket_writes_the_single_gain_renders(self, measxyz, tmp_path, monkeypatch, cpus):
        """Each one-gain bracket writes the bytes of that gain's render in the five-gain
        bracket, whose one pass shares the gain-1 product among the power-of-two gains."""
        from measground import isp
        from measground.measxyz import load_meas_xyz

        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        gains = ["0.5", "1", "1.5", "2", "4"]
        bracket = tmp_path / "bracket"
        assert main(["bracket", "--input", str(measxyz), "--exposures", ",".join(gains),
                     "--out", str(bracket)]) == 0
        assert len(list(bracket.glob("*.ppm"))) == 3 * len(gains)
        images = [load_meas_xyz(plane.with_suffix("")) for plane in sorted(measxyz.glob("*.f32"))]
        for gain in gains:
            single = tmp_path / f"bracket-{gain}"
            assert main(["bracket", "--input", str(measxyz), "--exposures", gain,
                         "--out", str(single)]) == 0
            names = sorted(p.name for p in single.iterdir() if p.name != "run.json")
            assert len(names) == 3 * 2
            for name in names:
                assert (single / name).read_bytes() == (bracket / name).read_bytes(), name
            # and the whole-frame formula's bytes
            params = isp.RenderParams(exposure_gain=float(gain))
            for z in images:
                rgb = np.clip(oracle_linear_rgb(z, params), 0.0, 1.0)
                codes = isp.quantize(isp.srgb_oetf(rgb), params.bit_depth)
                tag = gain.replace(".", "p")
                assert (single / f"{z.capture_id}_e{tag}.ppm").read_bytes() == \
                    oracle_encode_ppm(codes, params.max_code)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_measxyz_streams_the_files_of_the_transform_and_save(self, measxyz, tmp_path, monkeypatch, cpus):
        """Each stripe is written as it is done, into the bytes save_meas_xyz
        writes for the whole image meas_xyz_transform returns."""
        from measground.capture import load_capture_bundle
        from measground.measxyz import meas_xyz_transform, save_meas_xyz

        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        out = tmp_path / "m"
        assert main(["measxyz", "--input", str(measxyz.parent / "s" / "captures.json"), "--out", str(out)]) == 0
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        for bundle in sorted((measxyz.parent / "s" / "bundles").iterdir()):
            image = meas_xyz_transform(load_capture_bundle(bundle))
            save_meas_xyz(image, oracle / image.capture_id)
        names = sorted(p.name for p in oracle.iterdir())
        assert len(names) == 3 * 2
        assert names == sorted(p.name for p in out.iterdir() if p.name != "run.json")
        for name in names:
            assert (oracle / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("bit_depth", [8, 12])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bracket_streams_the_files_of_make_bracket_and_save_rendered(self, measxyz, tmp_path, monkeypatch,
                                                                         cpus, bit_depth):
        """Each render's stripes are appended to its open PPM, one byte per
        sample at 8 bits and two at 12, as save_rendered writes make_bracket's
        whole-frame renders."""
        from measground import isp
        from measground.measxyz import load_meas_xyz

        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        (tmp_path / "config.json").write_text(json.dumps({"bit_depth": bit_depth}))
        gains = [0.5, 1.0, 1.5, 2.0, 4.0]
        out = tmp_path / "bracket"
        assert main(["bracket", "--input", str(measxyz), "--config", str(tmp_path / "config.json"),
                     "--exposures", ",".join(map(str, gains)), "--out", str(out)]) == 0
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        for plane in sorted(measxyz.glob("*.f32")):
            z = load_meas_xyz(plane.with_suffix(""))
            for gain, rendered in zip(gains, isp.make_bracket(z, gains, bit_depth=bit_depth)):
                isp.save_rendered(rendered, oracle / f"{z.capture_id}_e{cli._gain_tag(gain)}")
        names = sorted(p.name for p in oracle.iterdir())
        assert len(names) == 3 * len(gains) * 2
        assert names == sorted(p.name for p in out.iterdir() if p.name != "run.json")
        for name in names:
            assert (oracle / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("gain", ["2", "1.5"])
    def test_lost_signal_writes_the_three_step_files(self, measxyz, tmp_path, gain):
        from measground import isp, lost_signal
        from measground.measxyz import load_meas_xyz

        out = tmp_path / "lost"
        assert main(["lost-signal", "--input", str(measxyz), "--gain", gain,
                     "--out", str(out)]) == 0
        oracle = tmp_path / "oracle"
        params = isp.RenderParams(exposure_gain=float(gain))
        for plane in sorted(measxyz.glob("*.f32")):
            z = load_meas_xyz(plane.with_suffix(""))
            rgb = oracle_linear_rgb(z, params)
            codes = isp.quantize(isp.srgb_oetf(np.clip(rgb, 0.0, 1.0)), params.bit_depth)
            rendered = isp.RenderedRgb(codes=codes, params=params, capture_id=z.capture_id)
            report = lost_signal.lost_signal_residual(
                z, lost_signal.invert_render(rendered), oracle_top_clipped(rgb),
                exposure_gain=params.exposure_gain, bits=params.bit_depth)
            lost_signal.emit_report(report, oracle)
        names = sorted(p.name for p in oracle.iterdir())
        assert len(names) == 3 * 5
        assert names == sorted(p.name for p in out.iterdir() if p.name != "run.json")
        for name in names:
            assert (oracle / name).read_bytes() == (out / name).read_bytes(), name


def _drop_key(path, key):
    obj = json.loads(path.read_text())
    del obj[key]
    path.write_text(json.dumps(obj))


def _plane_header_without_height(root):
    _drop_key(root / "m" / "synth-0000.json", "height")
    return ["bracket", "--input", root / "m", "--exposures", "1.0", "--out", root / "out"], "synth-0000.json"


def _set_iso(path, iso):
    obj = json.loads(path.read_text())
    obj["metadata"]["iso"] = iso
    path.write_text(json.dumps(obj))


def _plane_header_with_non_numeric_iso(root):
    _set_iso(root / "m" / "synth-0000.json", "fast")
    return ["bracket", "--input", root / "m", "--exposures", "1.0", "--out", root / "out"], "synth-0000.json"


def _sidecar_with_non_numeric_iso(root):
    _set_iso(root / "s" / "bundles" / "synth-0000" / "capture.json", "fast")
    return ["ingest", "--input", root / "s" / "bundles", "--out", root / "out"], \
        "synth-0000/capture.json"


def _sidecar_of_a_list(root):
    (root / "s" / "bundles" / "synth-0000" / "capture.json").write_text("[]")
    return ["ingest", "--input", root / "s" / "bundles", "--out", root / "out"], \
        "synth-0000/capture.json: sidecar: expected Sidecar, got []"


def _sidecar_with(key, value, stage):
    """``stage`` over the fixture's bundles, one sidecar field set to a value of the wrong JSON type."""
    def case(root):
        path = root / "s" / "bundles" / "synth-0000" / "capture.json"
        obj = json.loads(path.read_text())
        obj[key] = value(obj[key])
        path.write_text(json.dumps(obj))
        return [stage, "--input", root / "s" / "bundles", "--out", root / "out"], \
            "synth-0000/capture.json"
    case.__name__ = f"_{stage}_sidecar_with_non_numeric_{key}"
    return case


_NEGATIVE_IDENTITY = [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]
_NO_POSITIVE_WHITE = "the white-balanced white maps to no finite positive XYZ value"


def _sidecar_with_a_white_below_zero(root):
    path = root / "s" / "bundles" / "synth-0000" / "capture.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "cam_to_xyz": _NEGATIVE_IDENTITY}))
    return ["ingest", "--input", root / "s" / "bundles", "--out", root / "out"], \
        f"synth-0000/capture.json: sidecar: {_NO_POSITIVE_WHITE}"


def _render_header_not_json(root):
    (root / "r" / "synth-0000_e1.json").write_text("{not json")
    return ["annotate", "--proxies", root / "r", "--mock-annotator", root / "t.jsonl",
            "--out", root / "out"], "synth-0000_e1.json"


def _render_header_of_a_list(root):
    (root / "r" / "synth-0000_e1.json").write_text("[]")
    return _annotate_argv(root), "synth-0000_e1.json: render header: expected RenderHeader, got []"


def _render_header_without_params(root):
    _drop_key(root / "r" / "synth-0000_e1.json", "params")
    return ["annotate", "--proxies", root / "r", "--mock-annotator", root / "t.jsonl",
            "--out", root / "out"], "synth-0000_e1.json"


def _refs_row_without_capture_id(root):
    refs = json.loads((root / "s" / "captures.json").read_text())
    del refs[0]["capture_id"]
    (root / "refs.json").write_text(json.dumps(refs))
    return ["split", "--captures", root / "refs.json", "--out", root / "out"], "refs.json"


def _annotator_row_without_capture_id(root):
    (root / "t.jsonl").write_text(json.dumps({"exposure_gain": 1.0, "candidates": []}) + "\n")
    return ["annotate", "--proxies", root / "r", "--mock-annotator", root / "t.jsonl",
            "--out", root / "out"], "t.jsonl:1:"


def _judge_row_without_question(root):
    (root / "bench.jsonl").write_text("")
    (root / "preds.jsonl").write_text("")
    (root / "judge.jsonl").write_text(json.dumps(
        {"reference": "a", "prediction": "a", "verdict": "correct"}) + "\n")
    return ["eval", "--bench", root / "bench.jsonl", "--predictions", root / "preds.jsonl",
            "--mock-judge", root / "judge.jsonl"], "judge.jsonl:1:"


def _candidate_score_above_one(root):
    (root / "c.jsonl").write_text(json.dumps(
        {"capture_id": "synth-0000", "question": "q?", "answer": "a", "score": 2.0,
         "exposure_gain": 1.0}) + "\n")
    return ["aggregate", "--candidates", root / "c.jsonl", "--measxyz", root / "m",
            "--out", root / "out"], "c.jsonl:1:"


def _judge_row_without_verdict(root):
    (root / "bench.jsonl").write_text("")
    (root / "preds.jsonl").write_text("")
    (root / "judge.jsonl").write_text(json.dumps(
        {"question": "q?", "reference": "a", "prediction": "a"}) + "\n")
    return ["eval", "--bench", root / "bench.jsonl", "--predictions", root / "preds.jsonl",
            "--mock-judge", root / "judge.jsonl"], "judge.jsonl:1:"


def _sample_row_after_blank_lines(root):
    (root / "rows.jsonl").write_text('\n\n{"capture_id": "synth-0000"}\n')
    return ["filter", "--input", root / "rows.jsonl", "--out", root / "out"], "rows.jsonl:3:"


def _mosaic_truncated_in_third_of_four_bundles(root):
    assert main(["synth", "--out", str(root / "s4"), "--count", "4", "--seed", "0"]) == 0
    mosaic = root / "s4" / "bundles" / "synth-0002" / "mosaic.pgm"
    mosaic.write_bytes(mosaic.read_bytes()[:-100])
    return ["measxyz", "--input", root / "s4" / "captures.json", "--out", root / "out"], \
        "synth-0002/mosaic.pgm"


def _sample_row(**record):
    """A samples.jsonl row that filter reads, its record's fields updated."""
    metadata = {"iso": 100.0, "exposure_time": 0.01, "aperture": 2.0, "device_id": "camera-0"}
    return {"capture_id": "synth-0000", "meas_xyz_path": "m/synth-0000", "metadata": metadata,
            "record": {"question": "q?", "answer": "a", "score": 0.9, "question_type": "qt",
                       "template_id": "t", "source_prefix": "", "provenance": [1.0], **record}}


def _sample_row_with_negative_iso(root):
    row = _sample_row()
    row["metadata"]["iso"] = -1
    (root / "rows.jsonl").write_text(json.dumps(row) + "\n")
    return ["filter", "--input", root / "rows.jsonl", "--out", root / "out"], "rows.jsonl:1:"


def _sample_row_with_string_provenance(root):
    (root / "rows.jsonl").write_text(json.dumps(_sample_row(provenance=["1"])) + "\n")
    return ["filter", "--input", root / "rows.jsonl", "--out", root / "out"], \
        "rows.jsonl:1: sample.record.provenance: expected tuple[float, ...]"


def _sidecar_metadata_with(key, value):
    """ingest over the fixture's bundles, one metadata field of the sidecar set to ``value``,
    which the type of the field does not admit."""
    def case(root):
        path = root / "s" / "bundles" / "synth-0000" / "capture.json"
        obj = json.loads(path.read_text())
        obj["metadata"][key] = value
        path.write_text(json.dumps(obj))
        return ["ingest", "--input", root / "s" / "bundles", "--out", root / "out"], \
            f"synth-0000/capture.json: sidecar.metadata.{key}: expected "
    case.__name__ = f"_sidecar_metadata_{key}_of_{type(value).__name__}"
    return case


def _annotate_over_render_header(**params):
    """annotate over the fixture's render, its header params updated to values of the wrong type."""
    def case(root):
        header_path = root / "r" / "synth-0000_e1.json"
        header = json.loads(header_path.read_text())
        header["params"].update(params)
        header_path.write_text(json.dumps(header))
        return _annotate_argv(root), "synth-0000_e1.json: render header.params."
    case.__name__ = "_render_header_with_" + "_".join(f"{k}_{v}" for k, v in params.items())
    return case


def _candidate_row_with_string_score(root):
    (root / "c.jsonl").write_text(json.dumps(
        {"capture_id": "synth-0000", "question": "q?", "answer": "a", "score": "0.9",
         "exposure_gain": 1.0, "question_type": "qt", "template_id": "t",
         "source_prefix": ""}) + "\n")
    return ["aggregate", "--candidates", root / "c.jsonl", "--measxyz", root / "m",
            "--out", root / "out"], "c.jsonl:1: candidate.score: expected float"


def _bench_row(**fields):
    """A bench_manifest.jsonl row, its fields updated."""
    metadata = {"iso": 100.0, "exposure_time": 0.01, "aperture": 2.0, "device_id": "camera-0"}
    return {"capture_id": "synth-0000", "meas_xyz_path": "m/synth-0000",
            "rgb_proxy_path": "r/synth-0000_e1.ppm", "question": "How many?",
            "reference_answer": "None", "dimension": "NG", "metadata": metadata, **fields}


def _bench_row_with_null_reference(root):
    (root / "bench.jsonl").write_text(json.dumps(_bench_row(reference_answer=None)) + "\n")
    (root / "preds.jsonl").write_text("")
    return ["eval", "--bench", root / "bench.jsonl", "--predictions", root / "preds.jsonl"], \
        "bench.jsonl:1: example.reference_answer: expected str, got None"


def _prediction_row_with_null_prediction(root):
    (root / "bench.jsonl").write_text(json.dumps(_bench_row()) + "\n")
    (root / "preds.jsonl").write_text(json.dumps(
        {"capture_id": "synth-0000", "question": "How many?", "prediction": None}) + "\n")
    return ["eval", "--bench", root / "bench.jsonl", "--predictions", root / "preds.jsonl"], \
        "preds.jsonl:1: prediction: expected str, got None"


def _prediction_row_twice(root):
    (root / "bench.jsonl").write_text(json.dumps(_bench_row()) + "\n")
    row = {"capture_id": "synth-0000", "question": "How many?", "prediction": "two"}
    (root / "preds.jsonl").write_text(json.dumps(row) + "\n" + json.dumps(dict(row, prediction="None")) + "\n")
    return ["eval", "--bench", root / "bench.jsonl", "--predictions", root / "preds.jsonl"], \
        "preds.jsonl:2: second prediction for capture_id 'synth-0000', question 'How many?'"


def _metrics_report(named, **fields):
    """report over a metrics.json of one NG example, its fields updated."""
    def case(root):
        triple = {"bleu": 0.5, "rouge_l": 0.5, "judge_accuracy": 0.5}
        report = {"overall": triple, "per_dimension": {"NG": triple}, "counts": {"NG": 1},
                  "total": 1, "missing_predictions": 0, **fields}
        (root / "metrics.json").write_text(json.dumps(report))
        return ["report", "--input", root / "metrics.json"], f"metrics.json: report{named}"
    case.__name__ = "_metrics_report_with_" + "_".join(fields)
    return case


def _refs_row_with_integer_capture_id(root):
    refs = json.loads((root / "s" / "captures.json").read_text())
    refs[0]["capture_id"] = 5
    (root / "refs.json").write_text(json.dumps(refs))
    return ["split", "--captures", root / "refs.json", "--out", root / "out"], \
        "refs.json: refs[0].capture_id: expected str, got 5"


def _verify_split_row(named, **fields):
    """verify-split over a train file whose second row is a bench row, its fields updated."""
    def case(root):
        (root / "train.jsonl").write_text(json.dumps(_bench_row(capture_id="synth-0001")) + "\n"
                                          + json.dumps(_bench_row(**fields)) + "\n")
        (root / "bench.jsonl").write_text(json.dumps(_bench_row()) + "\n")
        return ["verify-split", "--train", root / "train.jsonl", "--bench", root / "bench.jsonl"], \
            f"train.jsonl:2: {named}"
    case.__name__ = "_verify_split_row_with_bad_" + named.split(":")[0].replace(".", "_")
    return case


def _train_file_nested_too_deeply(root):
    (root / "train.json").write_text("[" * 200_000)
    (root / "bench.jsonl").write_text("")
    return ["verify-split", "--train", root / "train.json", "--bench", root / "bench.jsonl"], \
        "train.json: invalid JSON (nested too deeply)"


def _bench_row_nested_too_deeply(root):
    (root / "train.json").write_text("[]")
    (root / "bench.jsonl").write_text('{"capture_id": ' + "[" * 200_000 + "\n")
    return ["verify-split", "--train", root / "train.json", "--bench", root / "bench.jsonl"], \
        "bench.jsonl:1: invalid JSON (nested too deeply)"


def _mosaic_of_size(stage, size):
    """A bundle whose mosaic header declares a zero dimension and no samples."""
    def case(root):
        (root / "s" / "bundles" / "synth-0000" / "mosaic.pgm").write_bytes(f"P5\n{size}\n65535\n".encode())
        inputs = {"ingest": root / "s" / "bundles", "measxyz": root / "s" / "captures.json"}
        return [stage, "--input", inputs[stage], "--out", root / "out"], "mosaic.pgm: mosaic must be 2-D"
    case.__name__ = f"_{stage}_over_a_mosaic_of_{size.replace(' ', 'x')}"
    return case


def _plane_of_size(stage, height, width):
    """A Meas.-XYZ plane whose header declares a zero dimension, over an empty .f32."""
    def case(root):
        header = json.loads((root / "m" / "synth-0000.json").read_text())
        header.update(height=height, width=width)
        (root / "m" / "synth-0000.json").write_text(json.dumps(header))
        (root / "m" / "synth-0000.f32").write_bytes(b"")
        return [stage, "--input", root / "m", "--out", root / "out"], "synth-0000.json: plane header."
    case.__name__ = f"_{stage.replace('-', '_')}_over_a_plane_of_{height}x{width}"
    return case


def _prediction_row_after_blank_lines(root):
    (root / "rows.jsonl").write_text('\n\n{"capture_id": "synth-0000"}\n')
    (root / "bench.jsonl").write_text("")
    return ["eval", "--bench", root / "bench.jsonl", "--predictions", root / "rows.jsonl"], "rows.jsonl:3:"


def _bracket_exposures(exposures):
    """bracket with two gains that share one file tag, so one render would overwrite the other."""
    def case(root):
        return ["bracket", "--input", root / "m", "--exposures", exposures,
                "--out", root / "out"], "*_e1 renders"
    case.__name__ = f"_exposures_{exposures.replace(',', '_')}_share_a_file_tag"
    return case


def _bracket_of_unquantized_renders(root):
    """bracket with quantize false in the config: a render file holds integer codes."""
    (root / "config.json").write_text('{"quantize": false}')
    return ["bracket", "--input", root / "m", "--config", root / "config.json", "--out", root / "out"], \
        "bracket failed (validation): config.quantize: bracket writes quantized renders only"


def _synth_with(*flags):
    """synth with a count flag below 1: a usage error, refused before --out is made."""
    def case(root):
        return ["synth", *flags, "--out", root / "out"], f"argument {flags[0]}: expected an integer of 1 or more"
    case.__name__ = "_synth_with" + "".join(flags).replace("-", "_")
    return case


# A UTF-16 byte-order mark, which UTF-8 refuses at byte 0.
_NOT_UTF8 = b"\xff\xfe{}\n"


def _candidates_not_utf8(root):
    row = {"capture_id": "synth-0000", "question": "q?", "answer": "a", "score": 0.9, "exposure_gain": 1.0,
           "question_type": "qt", "template_id": "t", "source_prefix": ""}
    (root / "c.jsonl").write_bytes(json.dumps(row).encode() + b"\n" + _NOT_UTF8)
    return ["aggregate", "--candidates", root / "c.jsonl", "--measxyz", root / "m",
            "--out", root / "out"], "c.jsonl:2: invalid UTF-8"


def _metrics_report_not_utf8(root):
    (root / "metrics.json").write_bytes(_NOT_UTF8)
    return ["report", "--input", root / "metrics.json"], "metrics.json: invalid UTF-8 (invalid start byte at byte 0)"


def _sidecar_not_utf8(root):
    (root / "s" / "bundles" / "synth-0000" / "capture.json").write_bytes(_NOT_UTF8)
    return ["ingest", "--input", root / "s" / "bundles", "--out", root / "out"], \
        "synth-0000/capture.json: invalid UTF-8"


def _config_not_utf8(root):
    (root / "config.json").write_bytes(_NOT_UTF8)
    return ["bracket", "--input", root / "m", "--config", root / "config.json", "--out", root / "out"], \
        "config.json is not valid UTF-8 (invalid start byte at byte 0)"


def _sample_row_with_lone_surrogate(root):
    (root / "rows.jsonl").write_text(json.dumps(_sample_row(answer="x\ud800")) + "\n")
    return ["filter", "--input", root / "rows.jsonl", "--out", root / "out"], \
        "rows.jsonl:1: sample.record.answer: value 'x\\ud800' holds a lone surrogate"


def _config_file(stage, option, text, name, named="config.json"):
    """``stage`` reading the config file that ``option`` names, holding ``text``."""
    def case(root):
        path = root / "config.json"
        path.write_text(text)
        return [stage, option, path, "--out", root / "out"], named
    case.__name__ = f"_{stage}_{name}"
    return case


def _split_over_render_header(root, **params):
    """split --proxies over the fixture's render, its header params updated."""
    header_path = root / "r" / "synth-0000_e1.json"
    header = json.loads(header_path.read_text())
    header["params"].update(params)
    header_path.write_text(json.dumps(header))
    refs = [{"capture_id": f"c{i}", "scene_id": f"scene-{i}", "session_id": f"session-{i}",
             "device_id": f"camera-{i}"} for i in range(4)]
    (root / "refs.json").write_text(json.dumps(refs))
    (root / "samples.jsonl").write_text("")
    return ["split", "--captures", root / "refs.json", "--samples", root / "samples.jsonl",
            "--proxies", root / "r", "--fraction", "0.5", "--out", root / "out"], "synth-0000_e1.json"


def _render_header_with_singular_matrix(root):
    return _split_over_render_header(root, xyz_to_linear_srgb=[[1, 2, 3], [2, 4, 6], [0, 0, 1]])


def _render_header_with_bit_depth_17(root):
    return _split_over_render_header(root, bit_depth=17)


def _render_header_with_unknown_transfer(root):
    return _split_over_render_header(root, transfer="GAMMA_2_2")


def _render_header_with_gain_0(root):
    return _split_over_render_header(root, exposure_gain=0)


def _annotate_argv(root):
    return ["annotate", "--proxies", root / "r", "--mock-annotator", root / "t.jsonl",
            "--out", root / "out"]


def _ppm_maxval_disagrees_with_render_header(root):
    header_path = root / "r" / "synth-0000_e1.json"
    header = json.loads(header_path.read_text())
    header["params"]["bit_depth"] = 7  # the .ppm's maxval stays 255
    header_path.write_text(json.dumps(header))
    return _annotate_argv(root), "synth-0000_e1.ppm"


def _ppm_payload_short(root):
    ppm = root / "r" / "synth-0000_e1.ppm"
    ppm.write_bytes(ppm.read_bytes()[:-3])
    return _annotate_argv(root), "synth-0000_e1.ppm"


def _ppm_16_bit_sample_above_maxval(root):
    header_path = root / "r" / "synth-0000_e1.json"
    header = json.loads(header_path.read_text())
    header["params"]["bit_depth"] = 12
    header_path.write_text(json.dumps(header))
    samples = [0, 4095, 17, 4096, 1, 2]  # 4096 exceeds maxval 4095
    (root / "r" / "synth-0000_e1.ppm").write_bytes(
        b"P6\n2 1\n4095\n" + b"".join(v.to_bytes(2, "big") for v in samples))
    return _annotate_argv(root), "synth-0000_e1.ppm"



def _ppm_of_size(size):
    """A render whose .ppm header declares a zero dimension and no samples."""
    def case(root):
        (root / "r" / "synth-0000_e1.ppm").write_bytes(f"P6 {size} 255\n".encode())
        return _annotate_argv(root), "synth-0000_e1.ppm: width and height must be nonzero"
    case.__name__ = f"_annotate_over_a_ppm_of_{size.replace(' ', 'x')}"
    return case


class TestMalformedInputs:
    """A malformed input exits 1 with one JSON log line naming the file (and
    the file line, for JSONL), never a traceback."""

    @pytest.fixture
    def rendered(self, tmp_path):
        """synth -> measxyz -> bracket at gain 1, plus a matching annotator transcript."""
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1", "--seed", "0"]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["bracket", "--input", str(tmp_path / "m"), "--exposures", "1.0",
                     "--out", str(tmp_path / "r")]) == 0
        _write_transcript(tmp_path / "t.jsonl", ["synth-0000"], [1.0], _simple_candidates)
        return tmp_path

    @pytest.mark.parametrize("case", [
        _plane_header_without_height,
        _plane_header_with_non_numeric_iso,
        _sidecar_with_non_numeric_iso,
        _sidecar_of_a_list,
        _sidecar_with("black_level", lambda black: ["x", 0, 0, 0], "ingest"),
        _sidecar_with("cam_to_xyz", lambda m: [m[0], [m[1][0], "x", m[1][2]], m[2]], "measxyz"),
        _sidecar_with("wb_gains", lambda wb: ["x", 1, 1], "ingest"),
        _sidecar_with("white_level", lambda white: "abc", "measxyz"),
        _render_header_not_json,
        _render_header_without_params,
        _render_header_of_a_list,
        _refs_row_without_capture_id,
        _annotator_row_without_capture_id,
        _judge_row_without_question,
        _candidate_score_above_one,
        _judge_row_without_verdict,
        _sample_row_after_blank_lines,
        _sample_row_with_negative_iso,
        _prediction_row_after_blank_lines,
        _train_file_nested_too_deeply,
        _bench_row_nested_too_deeply,
        _mosaic_truncated_in_third_of_four_bundles,
        _mosaic_of_size("ingest", "0 4"),
        _mosaic_of_size("measxyz", "0 4"),
        _mosaic_of_size("measxyz", "4 0"),
        _mosaic_of_size("measxyz", "0 0"),
        _plane_of_size("bracket", 0, 4),
        _plane_of_size("lost-signal", 4, 0),
        _render_header_with_singular_matrix,
        _render_header_with_bit_depth_17,
        _render_header_with_unknown_transfer,
        _render_header_with_gain_0,
        _ppm_maxval_disagrees_with_render_header,
        _ppm_payload_short,
        _ppm_16_bit_sample_above_maxval,
        _ppm_of_size("0 0"),
        _ppm_of_size("0 3"),
        _bracket_exposures("1,1"),
        _bracket_exposures("1.0000001,1.0000002"),
        _bracket_of_unquantized_renders,
        _synth_with("--count", "-2"),
        _synth_with("--count", "0"),
        _synth_with("--group-size", "-3", "--devices", "-1"),
        _synth_with("--devices", "0"),
        _config_file("condition-check", "--probe-config", "5", "probe_config_of_a_number"),
        _config_file("condition-check", "--probe-config", '{"depth": "x"}', "string_depth"),
        _config_file("condition-check", "--probe-config", '{"inject_layers": 5}',
                     "scalar_inject_layers"),
        _config_file("condition-check", "--probe-config", '{"depth": 2, "seed": 5}', "probe_seed",
                     "config.json: probe: unknown keys ['seed']"),
        _config_file("synth", "--scene", "[]", "scene_of_a_list"),
        _config_file("synth", "--scene", '{"white_level": "abc"}', "scene_with_string_white_level",
                     "config.json: config.scene.white_level: expected float, got 'abc'"),
        _config_file("synth", "--scene", '{"black_level": [1, 2]}', "scene_with_two_black_levels",
                     "config.json: config.scene.black_level: expected tuple[float, float, float, float]"),
        _config_file("synth", "--scene", '{"cam_to_xyz": [[1, 2], [3]]}', "scene_with_ragged_matrix",
                     "config.json: config.scene.cam_to_xyz: expected tuple[tuple[float, float, float], "),
        _config_file("synth", "--scene", json.dumps({"cam_to_xyz": _NEGATIVE_IDENTITY}),
                     "scene_with_a_white_below_zero", _NO_POSITIVE_WHITE),
        _sidecar_with_a_white_below_zero,
        _config_not_utf8,
        _sidecar_metadata_with("iso", "100"),
        _sidecar_metadata_with("exposure_time", True),
        _sidecar_metadata_with("device_id", 7),
        _sidecar_metadata_with("scene_id", 5),
        _annotate_over_render_header(quantize="no"),
        _annotate_over_render_header(bit_depth="8"),
        _candidate_row_with_string_score,
        _sample_row_with_string_provenance,
        _bench_row_with_null_reference,
        _prediction_row_with_null_prediction,
        _prediction_row_twice,
        _metrics_report(".overall.bleu: expected float, got 'x'",
                        overall={"bleu": "x", "rouge_l": 0.5, "judge_accuracy": 0.5}),
        _metrics_report(": per_dimension and counts name different dimensions", counts={}),
        _refs_row_with_integer_capture_id,
        _verify_split_row("capture_id: expected str | None, got [1]", capture_id=[1]),
        _verify_split_row("metadata: expected dict | None, got 5", metadata=5),
        _verify_split_row("metadata.scene_id: expected str | None, got 3",
                          metadata={"device_id": "camera-0", "scene_id": 3}),
        _verify_split_row("scene_id: value 'x\\ud800' holds a lone surrogate", scene_id="x\ud800"),
        _candidates_not_utf8,
        _metrics_report_not_utf8,
        _sidecar_not_utf8,
        _sample_row_with_lone_surrogate,
    ], ids=lambda case: case.__name__.lstrip("_"))
    def test_exits_1_with_one_json_log_line(self, rendered, case):
        argv, named = case(rendered)
        proc = _run_cli(*argv)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        events = [json.loads(line) for line in proc.stderr.splitlines()]
        assert [e["level"] for e in events] == ["error"]
        assert named in events[0]["event"]
        if argv[0] in ("bracket", "synth"):  # refused before a file is written: no --out is left
            assert not (rendered / "out").exists()
        # an --out that the stage made is removed while it is still empty
        assert not (rendered / "out").exists() or any((rendered / "out").iterdir())
        if argv[0] == "synth":  # the scene is refused before any bundle is written
            assert not (rendered / "out" / "bundles").exists()
        # no plane is left half-written
        for plane in (rendered / "out").rglob("*.f32"):
            header = json.loads(plane.with_suffix(".json").read_text())
            size = 4 * header["height"] * header["width"] * header["channels"]
            assert plane.stat().st_size == size, plane


class TestNonFiniteSettings:
    """An infinite gain, tau or exposure is refused where it enters, with one
    log line naming the setting or the file line, and no output."""

    @pytest.fixture
    def measxyz(self, tmp_path, monkeypatch):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "1"]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "captures.json"),
                     "--out", str(tmp_path / "m")]) == 0
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text('{"tau": Infinity}')
        return tmp_path

    @pytest.mark.parametrize("argv, named", [
        (["lost-signal", "--tau", "inf"], "config.tau: value inf out of range"),
        (["lost-signal", "--gain", "inf"], "config.gain: value inf out of range"),
        (["bracket", "--exposures", "1,inf"], "config.exposures: value inf out of range"),
        (["lost-signal", "--config", "config.json"], "config.tau: value inf out of range"),
    ], ids=["tau-flag", "gain-flag", "exposures-flag", "tau-in-config-file"])
    def test_a_setting_of_inf_is_refused_with_the_config(self, measxyz, capsys, argv, named):
        capsys.readouterr()
        assert main([argv[0], "--input", "m", *argv[1:], "--out", "out"]) == 1
        assert named in _error_event(capsys)
        assert not (measxyz / "out").exists()

    def test_a_candidate_with_an_infinite_gain_names_its_line(self, measxyz, capsys):
        row = {"capture_id": "synth-0000", "question": "q?", "answer": "a", "score": 0.5,
               "question_type": "qt", "template_id": "t"}
        (measxyz / "candidates.jsonl").write_text(
            "".join(json.dumps({**row, "exposure_gain": gain}) + "\n" for gain in (1.0, float("inf"))))
        capsys.readouterr()
        assert main(["aggregate", "--candidates", "candidates.jsonl", "--measxyz", "m", "--out", "out"]) == 1
        assert "candidates.jsonl:2: candidate.exposure_gain: value inf out of range" in _error_event(capsys)
        assert not (measxyz / "out").exists()


@pytest.mark.parametrize("cam_to_xyz, wb_gains", [
    ([[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1]], [1, 1, 1]),
    ([[1e308, -1e308, 0], [0, 1, 0], [0, 0, 1]], [4, 4, 1]),
], ids=["determinant_overflows", "white_overflows"])
def test_a_legal_extreme_calibration_logs_only_json_lines(tmp_path, capsys, cam_to_xyz, wb_gains):
    """A numpy warning would print a line that is not JSON; the suite makes each one an error."""
    (tmp_path / "scene.json").write_text(json.dumps({"cam_to_xyz": cam_to_xyz, "wb_gains": wb_gains}))
    synth, ingest, measxyz = (str(tmp_path / stage) for stage in ("synth", "ingest", "measxyz"))
    assert main(["synth", "--scene", str(tmp_path / "scene.json"), "--count", "2", "--out", synth]) == 0
    assert main(["ingest", "--input", f"{synth}/bundles", "--out", ingest]) == 0
    assert main(["measxyz", "--input", f"{ingest}/captures.json", "--out", measxyz]) == 0
    assert all(json.loads(line) for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("provenance", ["[Infinity, -1.0]", "[1e999, 2.0]"])
def test_a_sample_with_a_non_finite_provenance_is_refused(tmp_path, capsys, provenance):
    row = json.dumps(_sample_row(provenance=[0.0])).replace("[0.0]", provenance)
    (tmp_path / "rows.jsonl").write_text(row + "\n")
    assert main(["filter", "--input", str(tmp_path / "rows.jsonl"), "--out", str(tmp_path / "out")]) == 1
    assert "rows.jsonl:1: sample.record.provenance: value inf out of range" in _error_event(capsys)
    assert not (tmp_path / "out" / "filtered.jsonl").exists()


def test_a_metric_outside_zero_to_one_is_refused_by_report(tmp_path, capsys):
    argv, named = _metrics_report(".overall.bleu: value 1.5 out of range",
                                  overall={"bleu": 1.5, "rouge_l": 0.5, "judge_accuracy": 0.5})(tmp_path)
    assert main([*map(str, argv), "--out", str(tmp_path / "out")]) == 1
    assert f"{tmp_path}/{named}" in _error_event(capsys)
    assert not (tmp_path / "out" / "report.txt").exists()


@pytest.mark.parametrize("named, fields", [
    (": counts.NG: value -3 out of range", {"counts": {"NG": -3}, "total": 7, "missing_predictions": 9}),
    (": counts.NG: value 0 out of range", {"counts": {"NG": 0}}),
    (": counts sum to 2, not to total 3", {"counts": {"NG": 2}, "total": 3}),
    (": missing_predictions 2 exceeds total 1", {"missing_predictions": 2}),
], ids=["negative_count", "empty_dimension", "counts_short_of_total", "missing_beyond_total"])
def test_counts_that_do_not_add_up_to_total_are_refused_by_report(tmp_path, capsys, named, fields):
    argv, named = _metrics_report(named, **fields)(tmp_path)
    assert main([*map(str, argv), "--out", str(tmp_path / "out")]) == 1
    assert f"{tmp_path}/{named}" in _error_event(capsys)
    assert not (tmp_path / "out" / "report.txt").exists()


def test_a_value_json_cannot_hold_fails_the_write_naming_the_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_synth_one", lambda index, **_: {"capture_id": "c", "gain": float("nan")})
    assert main(["synth", "--count", "1", "--out", str(tmp_path / "out")]) == 1
    event = _error_event(capsys)
    assert event.startswith("synth failed (validation): ") and "captures.json: " in event
    assert not (tmp_path / "out" / "captures.json").exists()


class TestDuplicateCaptureIds:
    """Two inputs with one capture id would write the same outputs: the stage
    exits 1 before writing any, with one log line naming both inputs."""

    @pytest.fixture
    def corpus(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "s"), "--count", "2", "--seed", "0"]) == 0
        assert main(["measxyz", "--input", str(tmp_path / "s" / "bundles"),
                     "--out", str(tmp_path / "m")]) == 0
        return tmp_path

    def _copy_bundle(self, root):
        shutil.copytree(root / "s" / "bundles" / "synth-0001", root / "s" / "bundles" / "copy")
        return root / "s" / "bundles", "synth-0001/capture.json", "copy/capture.json"

    def _copy_plane(self, root):
        for suffix in (".json", ".f32"):
            shutil.copy(root / "m" / f"synth-0001{suffix}", root / "m" / f"copy{suffix}")
        return root / "m", "synth-0001.json", "copy.json"

    @pytest.mark.parametrize("stage, inputs, flags", [
        ("ingest", "_copy_bundle", []),
        ("measxyz", "_copy_bundle", []),
        ("bracket", "_copy_plane", ["--exposures", "1.0"]),
        ("bracket", "_copy_plane", []),
        ("lost-signal", "_copy_plane", ["--gain", "2.0"]),
    ])
    def test_exits_1_before_writing(self, corpus, capsys, stage, inputs, flags):
        source, first, second = getattr(self, inputs)(corpus)
        capsys.readouterr()
        out = corpus / "out"
        assert main([stage, "--input", str(source), *flags, "--out", str(out)]) == 1
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["level"] for e in events] == ["error"]
        assert "'synth-0001'" in events[0]["event"]
        assert first in events[0]["event"] and second in events[0]["event"]
        assert not out.exists()


def _worker_pid(item):
    return os.getpid()


def _fail_on_5_and_9(item):
    if item == 5:
        time.sleep(0.5)  # item 9 fails first in time, item 5 first in input order
    if item in (5, 9):
        raise DomainError(f"item {item}")
    return item


def _fail_on_4_and_7(slow, item):
    if item == slow:
        time.sleep(0.5)  # the other failure comes first in time
    if item in (4, 7):
        raise DomainError(f"item {item}")
    return item


class _HoldsALock(DomainError):
    """A capture error that pickle refuses: it holds a lock."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _NeedsTwoArguments(IoFailure):
    """A capture error that pickles but cannot be rebuilt from its message alone."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")


def _synth_fails_on_1(error, index, **settings):
    if index == 1:
        raise error("capture 1", "unreadable") if error is _NeedsTwoArguments else error("capture 1: unreadable")
    return {}


def _end_worker_process(parent_pid, item):
    if os.getpid() == parent_pid:
        raise RuntimeError("ran in the test process")
    os._exit(3)


class TestCapturePool:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)

    def test_results_in_input_order_from_worker_processes(self):
        pool = cli._CapturePool()
        assert pool.map(operator.neg, list(range(50))) == [-i for i in range(50)]
        assert pool.workers == 2
        assert os.getpid() not in pool.map(_worker_pid, list(range(4)))

    def test_one_item_runs_in_this_process(self):
        pool = cli._CapturePool()
        assert pool.map(_worker_pid, [0]) == [os.getpid()]
        assert pool.workers == 1

    def test_runs_in_this_process_while_another_thread_runs(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            pool = cli._CapturePool()
            assert pool.map(_worker_pid, list(range(4))) == [os.getpid()] * 4
            assert pool.workers == 1
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_first_failure_in_input_order_is_raised(self):
        with pytest.raises(DomainError, match="^item 5$"):
            cli._CapturePool().map(_fail_on_5_and_9, list(range(40)))

    @pytest.mark.parametrize("slow", [4, 7])
    def test_failures_in_both_workers_shares_raise_the_lower_index(self, slow):
        # worker 0 runs the even items and fails at 4, worker 1 the odd ones and fails at 7
        with pytest.raises(DomainError, match="^item 4$"):
            cli._CapturePool().map(functools.partial(_fail_on_4_and_7, slow), list(range(12)))

    @pytest.mark.parametrize("error, status", [(_HoldsALock, 1), (_NeedsTwoArguments, 2)])
    def test_a_worker_error_that_cannot_be_pickled_ends_the_stage_with_one_log_line(
            self, tmp_path, capsys, monkeypatch, error, status):
        monkeypatch.setattr(cli, "_synth_one", functools.partial(_synth_fails_on_1, error))
        assert main(["synth", "--count", "2", "--out", str(tmp_path / "s")]) == status
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert len(events) == 1 and events[0]["level"] == "error"
        assert f"{error.__name__}: capture 1: unreadable" in events[0]["event"]

    def test_a_worker_that_dies_is_an_io_failure(self):
        with pytest.raises(IoFailure, match="worker process ended abruptly"):
            cli._CapturePool().map(functools.partial(_end_worker_process, os.getpid()), [0, 1])

    def test_workers_end_with_a_killed_stage_process(self, tmp_path):
        """Workers of a stage process killed mid-map stop within a second,
        before the items they hold (2 s each) would finish."""
        script = tmp_path / "stage.py"
        script.write_text(textwrap.dedent(f"""
            import time
            from pathlib import Path
            from measground import cli

            def work(name):
                (Path({str(tmp_path)!r}) / (name + ".started")).touch()
                time.sleep(2)
                (Path({str(tmp_path)!r}) / (name + ".finished")).touch()

            if __name__ == "__main__":
                cli._available_cpus = lambda: 2
                cli._CapturePool().map(work, ["a", "b", "c", "d"])
        """))
        src = str(Path(measground.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=src))
        try:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.glob("*.started"))) < 2:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        time.sleep(3)
        assert list(tmp_path.glob("*.finished")) == []


    def test_an_interrupted_stage_process_ends_and_reaps_its_workers(self, tmp_path):
        script = tmp_path / "stage.py"
        script.write_text(textwrap.dedent(f"""
            import json, os, time
            from pathlib import Path
            from measground import cli

            def work(name):
                (Path({str(tmp_path)!r}) / f"{{os.getpid()}}.pid").touch()
                time.sleep(30)

            if __name__ == "__main__":
                cli._available_cpus = lambda: 2
                try:
                    cli._CapturePool().map(work, ["a", "b"])
                except KeyboardInterrupt:
                    pids = [int(p.stem) for p in Path({str(tmp_path)!r}).glob("*.pid")]
                    gone = []
                    for pid in pids:
                        try:
                            os.kill(pid, 0)
                        except ProcessLookupError:
                            gone.append(pid)
                    try:
                        os.waitpid(-1, os.WNOHANG)
                        children = True
                    except ChildProcessError:
                        children = False
                    print(json.dumps({{"workers": len(pids), "gone": len(gone), "children": children}}))
        """))
        src = str(Path(measground.__file__).resolve().parents[1])
        proc = subprocess.Popen([sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.PIPE, text=True)
        try:
            deadline = time.monotonic() + 30
            while len(list(tmp_path.glob("*.pid"))) < 2:
                assert time.monotonic() < deadline and proc.poll() is None
                time.sleep(0.05)
            started = time.monotonic()
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait(timeout=30)
        assert time.monotonic() - started < 10
        assert json.loads(out) == {"workers": 2, "gone": 2, "children": False}


class TestStdout:
    def test_verify_split_prints_the_text_it_writes(self, tmp_path, capsys):
        """A shared non-ASCII capture id fails the check; stdout holds it as the file does."""
        ref = {"capture_id": "café-0", "raw_path": "", "bundle_path": "", "scene_id": None,
               "device_id": None, "session_id": None}
        for name in ("train", "bench"):
            (tmp_path / f"{name}.json").write_text(json.dumps([ref]))
        assert main(["verify-split", "--train", str(tmp_path / "train.json"),
                     "--bench", str(tmp_path / "bench.json"), "--out", str(tmp_path / "out")]) == 1
        printed = capsys.readouterr().out
        assert '"capture_id": ["café-0"]' in printed
        assert printed == (tmp_path / "out" / "disjointness.json").read_text(encoding="utf-8")


class TestConditionCheck:
    def test_pass_and_artifacts(self, tmp_path, capsys):
        assert main(["condition-check", "--seed", "2", "--out", str(tmp_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["status"] == "PASS"
        assert printed["max_relative_error"] < 1e-4
        stored = json.loads((tmp_path / "condition_check.json").read_text())
        assert stored == printed

    def test_probe_config_file(self, tmp_path, capsys):
        config = tmp_path / "probe.json"
        config.write_text('{"depth": 2, "hidden_dim": 4}')
        assert main(["condition-check", "--probe-config", str(config), "--seed", "5"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["depth"] == 2

    def _max_relative_error(self, capsys, *argv) -> float:
        capsys.readouterr()
        assert main(["condition-check", *map(str, argv)]) == 0
        return json.loads(capsys.readouterr().out)["max_relative_error"]

    def test_a_probe_config_takes_the_run_seed(self, tmp_path, capsys):
        config = tmp_path / "probe.json"
        config.write_text('{"depth": 2, "hidden_dim": 3}')
        errors = {self._max_relative_error(capsys, "--probe-config", config, "--seed", seed) for seed in (0, 5)}
        assert len(errors) == 2

    def test_a_probe_config_of_defaults_is_the_default_probe(self, tmp_path, capsys):
        config = tmp_path / "probe.json"
        config.write_text("{}")
        assert self._max_relative_error(capsys, "--probe-config", config, "--seed", 3) == \
            self._max_relative_error(capsys, "--seed", 3)
