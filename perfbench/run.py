"""Benchmark of the measground batch pipeline, driven through its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-small --seed 1 --seconds 30 --trace 0

One run generates the workload's inputs from the seed, before every chain
and at least five times, to time set-up. It runs the stage chain back to
back, one Python process per stage, at least three times and until
``--seconds`` have been measured. This is a closed loop with one client, the
way a user's script runs the stages. After every chain the outputs are
checked and digested.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` each traced chain follows an untraced one and the
last line holds the per-layer metrics. Earlier lines hold a detail record:
environment, input properties, digest, per-stage times and per-call latency.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_FRACTION, GAINS, LOST_SIGNAL_GAIN, SCORE_FLOOR, WORKLOADS, Expected, Workload,
    generate, smoke_variant,
)

SETUP_RUNS = 5
MIN_CHAINS = 3
RUN_DEADLINE_S = 165.0  # the whole run must end within 180 s
STAGE_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
INPUTS = ("scene.json", "synth", "transcript.jsonl")

END_TO_END = (
    ("captures_per_s", "1/s"),
    ("image_stages_s", "s"),
    ("supervision_stages_s", "s"),
    ("benchmark_stages_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


@dataclass
class Stage:
    name: str
    group: str
    argv: list[str]


def chain(seed: int, expected: Expected) -> list[Stage]:
    """The README pipeline, with paths relative to the workload directory."""
    gains = ",".join(f"{g:g}" for g in GAINS)
    floor = str(SCORE_FLOOR)
    return [
        Stage("measxyz", "image", ["measxyz", "--input", "synth/captures.json", "--out", "measxyz"]),
        Stage("bracket", "image", ["bracket", "--input", "measxyz", "--exposures", gains,
                                   "--out", "bracket"]),
        Stage("lost-signal", "image", ["lost-signal", "--input", "measxyz",
                                       "--gain", f"{LOST_SIGNAL_GAIN:g}", "--out", "lost"]),
        Stage("annotate", "supervision", ["annotate", "--proxies", "bracket",
                                          "--mock-annotator", "transcript.jsonl", "--out", "annotate"]),
        Stage("aggregate", "supervision", ["aggregate", "--candidates", "annotate/candidates.jsonl",
                                           "--measxyz", "measxyz", "--out", "aggregate"]),
        Stage("filter", "supervision", ["filter", "--input", "aggregate/samples.jsonl",
                                        "--floor", floor, "--out", "filter"]),
        Stage("balance", "supervision", ["balance", "--input", "filter/filtered.jsonl",
                                         "--floor", floor, "--target", str(expected.records),
                                         "--seed", str(seed), "--cap-template",
                                         str(expected.template_cap), "--out", "balance"]),
        Stage("split", "benchmark", ["split", "--captures", "synth/captures.json",
                                     "--samples", "balance/manifest.jsonl", "--proxies", "bracket",
                                     "--fraction", str(BENCH_FRACTION), "--seed", str(seed),
                                     "--out", "split"]),
        Stage("verify-split", "benchmark", ["verify-split", "--train", "split/train_samples.jsonl",
                                            "--bench", "split/bench_manifest.jsonl", "--out", "verify"]),
        Stage("eval", "benchmark", ["eval", "--bench", "split/bench_manifest.jsonl",
                                    "--predictions", "predictions.jsonl", "--out", "eval"]),
    ]


# --- environment -------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pinned_env() -> dict:
    """Stage environment: one BLAS/OpenMP thread, default logging.

    One thread is within nproc on every machine, keeps idle pool threads from
    competing with the stage on a small host, and measures a later switch from
    einsum to BLAS matmul on the same footing on both commits.
    """
    env = dict(os.environ)
    env.update({var: str(STAGE_THREADS) for var in THREAD_VARS})
    env["MEASGROUND_LOG"] = "info"
    return env


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, env: dict) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((root / "src" / "measground").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": nproc(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


# --- running stages ----------------------------------------------------------------------

@dataclass
class StageRun:
    name: str
    group: str
    status: int
    wall_ns: int
    spawn_ns: int
    exit_ns: int
    maxrss_kib: int
    cpu_s: float
    stderr_tail: str = ""


@dataclass
class ChainRun:
    stages: list[StageRun] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    problems: dict = field(default_factory=dict)
    proxies: int = 0
    failed_proxies: int = 0
    digest: str = ""

    @property
    def wall_s(self) -> float:
        return sum(s.wall_ns for s in self.stages) / 1e9

    @property
    def ok(self) -> bool:
        return not self.problems and all(s.status == 0 for s in self.stages)


def empty_files(paths) -> None:
    """Truncate every regular file under ``paths`` to zero bytes, keeping it.

    The work tree is reused, never deleted, between chains and between runs.
    ext4 without a journal does not reuse a freed inode for a minute or
    more, and every new file scans past such inodes, so deleting a chain's
    few thousand outputs slowed every create of the next chains and runs.
    Emptied files keep their inodes, and the stages reopen them by name.
    """
    for path in paths:
        if path.is_file():
            os.truncate(path, 0)
        elif path.is_dir():
            for parent, _, names in os.walk(path):
                for name in names:
                    os.truncate(os.path.join(parent, name), 0)


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, deadline: float, tag: str):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = pinned_env()
        self.work = root / ".perfbench_work" / tag
        self.work.mkdir(parents=True, exist_ok=True)
        # One run at a time uses a work tree.
        self.lock = (self.work.parent / f"{tag}.lock").open("w")
        fcntl.flock(self.lock, fcntl.LOCK_EX)
        self.expected: Expected | None = None
        self.setup_s: list[float] = []

    # set-up

    def setup(self) -> None:
        """Generate the workload's inputs in place, timed."""
        from measground import cli

        empty_files([self.work / name for name in INPUTS])
        os.sync()
        started = time.perf_counter()
        self.expected = generate(self.workload, self.seed, self.work, cli.main)
        self.setup_s.append(time.perf_counter() - started)

    # one stage process

    def spawn(self, cmd: list[str], cwd: Path, stderr) -> tuple[int, int, int, object]:
        """Run one child to completion: (exit status, spawn ns, exit ns, rusage).

        wait4 blocks until the child ends, so the exit time is exact (a
        Popen.wait with a timeout polls with sleeps of up to 50 ms) and the
        rusage is the child's own.
        """
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        done = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        return proc.returncode, spawn, done, usage

    def run_stage(self, stage: Stage, trace_path: Path | None) -> StageRun:
        cmd = [sys.executable, str(HERE / "stage.py"), str(self.src),
               str(trace_path) if trace_path else "-", *stage.argv]
        log_path = self.work / f"{stage.name}.stderr"
        with log_path.open("wb") as err:
            status, spawn, done, usage = self.spawn(cmd, self.work, err)
        tail = ""
        if status != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        return StageRun(stage.name, stage.group, status, done - spawn, spawn, done,
                        usage.ru_maxrss, usage.ru_utime + usage.ru_stime, tail)

    def run_chain(self, traced: bool) -> ChainRun:
        empty_files([path for path in self.work.iterdir() if path.name not in INPUTS])
        os.sync()  # write back the previous chain's files before timing this one
        result = ChainRun()
        planted = None
        for stage in chain(self.seed, self.expected):
            if stage.name == "eval":
                planted = checks.plant_predictions(self.work, self.seed)
            trace_path = self.work / f"{stage.name}.trace.json" if traced else None
            run = self.run_stage(stage, trace_path)
            result.stages.append(run)
            if stage.name == "annotate":
                result.proxies = self.expected.proxies
            if run.status != 0:
                result.problems[stage.name] = [f"exit status {run.status}: {run.stderr_tail}"]
                return result
            if traced:
                trace = json.loads(trace_path.read_text(encoding="utf-8"))
                trace.update(spawn_ns=run.spawn_ns, exit_ns=run.exit_ns)
                result.traces.append(trace)
        try:
            result.problems, result.failed_proxies = checks.check_chain(
                self.work, self.expected, planted)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            result.problems = {"outputs": [f"unreadable output: {exc!r}"]}
        result.digest = checks.digest(self.work)
        return result

    def cleanup(self) -> None:
        """Empty the work tree for the next run and release it."""
        empty_files([self.work])
        self.lock.close()


# --- statistics and reporting --------------------------------------------------------------

def summary(values: list[float]) -> dict:
    ordered = sorted(values)
    tail = tracer.tail_percentile(len(ordered))
    return {"median": statistics.median(ordered), f"p{tail:g}": tracer.percentile(ordered, tail),
            "n": len(ordered)}


def input_properties(workload: Workload, expected: Expected) -> dict:
    bright = expected.patches[0]
    return {
        "why": workload.why,
        "pixels_per_capture": workload.pixels_per_capture,
        "captures": workload.captures,
        "proxies": workload.proxies,
        "candidates_per_proxy": expected.served_candidates / workload.proxies,
        "clipped_share_at_gain_2": bright.height * bright.width / workload.pixels_per_capture,
        "transient_failure_share": expected.scripted_failures / workload.proxies,
        "malformed_candidates": expected.malformed_candidates,
        "stresses": list(workload.stresses),
        "bypasses": list(workload.bypasses),
        "expected": expected.to_dict(),
    }


def accounting(chains: list[ChainRun]) -> tuple[int, int]:
    """(attempted, failed) operations: stage processes and annotated proxies.

    A stage fails on a non-zero exit or a failed output check; a proxy fails
    when it ends with no candidates.
    """
    attempted = failed = 0
    for run in chains:
        attempted += len(run.stages) + run.proxies
        failed_stages = {s.name for s in run.stages if s.status != 0} | set(run.problems)
        failed += len(failed_stages) + run.failed_proxies
    return attempted, failed


def measure(bench: Bench, seconds: float, traced: bool) -> tuple[list[ChainRun], list[ChainRun]]:
    """Set up, then run chains until ``seconds`` are measured. Returns (untraced, traced).

    Untraced, the inputs are generated again before every chain after the
    first, and at the end until there are SETUP_RUNS set-up times, so the
    set-up times are spread over the run like the chains. With tracing, set-up
    runs once and each untraced chain is followed by a traced one.
    """
    started = time.monotonic()
    bench.setup()
    untraced, traced_runs = [], []
    while True:
        run = bench.run_chain(traced=False)
        untraced.append(run)
        if run.ok and traced:
            run = bench.run_chain(traced=True)
            traced_runs.append(run)
        if not run.ok:
            break
        if time.monotonic() - started >= seconds and len(untraced) >= (1 if traced else MIN_CHAINS):
            break
        longest = max(r.wall_s for r in untraced + traced_runs) * (2 if traced else 1)
        if time.monotonic() + longest * 1.5 > bench.deadline:
            break
        if not traced:
            bench.setup()
    while (not traced and len(bench.setup_s) < SETUP_RUNS
           and time.monotonic() + 2 * max(bench.setup_s) < bench.deadline):
        bench.setup()
    return untraced, traced_runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a miniature of the workload (schema self-check)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    # A terminated run still stops its stage process and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "measground" / "cli.py").is_file():
        print("perfbench: ./src/measground not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    workload = WORKLOADS[args.workload]
    tag = workload.name
    if args.smoke:
        workload, tag = smoke_variant(workload), f"{tag}-smoke"
    bench = Bench(root, workload, args.seed, started + RUN_DEADLINE_S, tag)
    try:
        untraced, traced = measure(bench, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        # The set-up failed: nothing was measured.
        print(json.dumps({"workload": args.workload, "seed": args.seed, "problems": [repr(exc)]}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 0
    finally:
        bench.cleanup()

    expected = bench.expected
    chains = untraced + traced
    attempted, failed = accounting(chains)
    digests = sorted({run.digest for run in chains if run.ok})
    problems = [f"{stage}: {msg}" for run in chains for stage, msgs in run.problems.items()
                for msg in msgs]
    if len(digests) > 1:
        problems.append(f"outputs differ between repeated chains: {digests}")
    correct = not problems and failed == 0 and bool(digests)

    good = [run for run in untraced if run.ok]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(root, bench.env),
        "inputs": input_properties(workload, expected),
        "digest": digests[0] if len(digests) == 1 else None,
        "chains": {"untraced": len(untraced), "traced": len(traced)},
        "stage_s": {s.name: summary([r.stages[i].wall_ns / 1e9 for r in good])
                    for i, s in enumerate(good[0].stages)} if good else {},
        "problems": problems[:20],
        "chains_s": [{"wall": r.wall_s, "cpu": sum(stage.cpu_s for stage in r.stages),
                      "stages": [stage.wall_ns / 1e9 for stage in r.stages]} for r in chains],
    }

    metrics = {}
    if args.trace:
        ok_traced = [run for run in traced if run.ok]
        if ok_traced and good:
            per_chain = [tracer.summarize(run.traces, workload.captures) for run in ok_traced]
            layers = {name: statistics.median(p[0][name] for p in per_chain) for name in per_chain[0][0]}
            layers["trace.overhead_ms"] = 1e3 * (
                statistics.median(r.wall_s for r in ok_traced) - statistics.median(r.wall_s for r in good))
            last_layers, detail["latency"] = per_chain[-1]
            # Every nanosecond of a traced chain is startup, a span's self time or exit.
            detail["accounting"] = {
                "chain_ms": ok_traced[-1].wall_s * 1e3,
                "startup_ms": last_layers["cli.startup_ms"],
                "self_ms": sum(v["self_ms"] for v in detail["latency"].values()),
                "exit_ms": last_layers["cli.exit_ms"],
                "overhead_ms": layers["trace.overhead_ms"],
            }
            units = {name: unit for name, unit, _ in tracer.LAYER_METRICS}
            metrics = {name: {"value": layers[name], "unit": units[name]} for name, _, _ in tracer.LAYER_METRICS}
    elif good:
        # Contention on a shared host only adds time, and one stage ran 80%
        # slower in one chain than in the next. So each stage takes its fastest
        # time over the run's chains, as timeit does, before stages are summed.
        best = {stage.name: min(r.stages[i].wall_ns for r in good) / 1e9
                for i, stage in enumerate(good[0].stages)}

        def group_s(group: str) -> float:
            return sum(best[stage.name] for stage in good[0].stages if stage.group == group)

        values = {
            "captures_per_s": workload.captures / sum(best.values()),
            "image_stages_s": group_s("image"),
            "supervision_stages_s": group_s("supervision"),
            "benchmark_stages_s": group_s("benchmark"),
            "peak_rss_mib": statistics.median(max(s.maxrss_kib for s in r.stages) / 1024 for r in good),
            "setup_s": statistics.median(bench.setup_s),
        }
        detail["end_to_end"] = {"chains": len(good), "setup_s": summary(bench.setup_s),
                                "best_stage_s": best, "chain_s": summary([r.wall_s for r in good])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    if not metrics:
        correct = False

    print(json.dumps(detail, sort_keys=True, ensure_ascii=False))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
