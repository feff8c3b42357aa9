"""Run the ``geoscatt`` CLI stages in subprocesses, timed from outside.

One client, closed loop: each stage starts only after the previous one has
ended, with ``--threads 1`` and a BLAS pinned to one thread. A stage runs
either in a fresh process (``run_stage``: spawn to reaped exit, with the
child's own peak RSS from ``os.wait4``) or in a ``Worker``, a process kept
alive that runs one CLI command per request (request to reply), so that
many short passes fit in a run without the interpreter start of each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload

# Environment for every stage subprocess and for the benchmark itself.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "GEOSCATT_THREADS": "1"}

# A stage that runs longer than this is killed and the run fails.
STAGE_TIMEOUT_S = 150.0

# Folds of `cv`: fewer than the CLI default of 10, so that the k-fold
# cross-validation does not outweigh the rest of `head_s`.
CV_FOLDS = 5


class StageFailed(RuntimeError):
    pass


@dataclass
class StageRun:
    name: str
    seconds: float
    peak_rss_mb: float


def stage_commands(wl: Workload, wd: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The full pipeline in order, as (stage name, CLI arguments).

    The logistic head runs on the GGS features in every workload.
    """
    head = str(wd / "ggs.fmat")
    top_k = ["--top-k", str(wl.top_k)] if wl.top_k else []
    stages = [
        ("ingest", ["ingest", "--input", str(wd / "inputs.csv")]),
        ("featurize-gst", ["featurize-gst"]),
        ("featurize-2d", ["featurize-2d", "--k-select", str(wl.k_select)]),
        ("train-gin", ["train-gin"]),
        ("export-embeddings", ["export-embeddings"]),
        ("build-metagraph", ["build-metagraph", *top_k]),
        ("train-sage", ["train-sage"]),
        ("fit-head", ["fit-head", "--features", head]),
        ("evaluate", ["evaluate", "--features", head, "--head", str(wd / "head.json")]),
        ("cv", ["cv", "--features", head, "--k", str(CV_FOLDS)]),
        ("evaluate-sage", ["evaluate", "--sage"]),
    ]
    common = ["--workdir", str(wd), "--seed", str(seed), "--threads", "1",
              "--config", str(wd / "run.ini")]
    return [(name, args + common) for name, args in stages]


def prepare(wl: Workload, wd: Path) -> None:
    """Write the workload's input CSV and config into the work directory."""
    wd.mkdir(parents=True, exist_ok=True)
    with open(wd / "inputs.csv", "w", encoding="utf-8") as fh:
        fh.write("smiles,label\n")
        fh.writelines(f"{s},{label}\n" for s, label in wl.rows)
    (wd / "run.ini").write_text(wl.ini(), encoding="utf-8")


def stage_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(src)
    return env


def run_stage(name: str, args: list[str], env: dict[str, str], log: Path) -> StageRun:
    """Run one CLI stage to completion; raise StageFailed on a non-zero exit."""
    with open(log, "a", encoding="utf-8") as out:
        out.write(f"$ geoscatt {' '.join(args)}\n")
        out.flush()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "geoscatt.cli", *args],
                                stdout=out, stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise StageFailed(f"{name} exited with {proc.returncode}; see {log}")
    return StageRun(name, seconds, usage.ru_maxrss / 1024.0)


def run_round(commands, env, log: Path) -> list[StageRun]:
    return [run_stage(name, args, env, log) for name, args in commands]


class Worker:
    """A CLI process that serves one command per request (see worker.py)."""

    def __init__(self, env: dict[str, str], log: Path):
        self._log = open(log, "a", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            env=env, text=True)

    def run(self, name: str, args: list[str]) -> float:
        """Seconds from sending the command to its reply."""
        timer = threading.Timer(STAGE_TIMEOUT_S, self._proc.kill)
        timer.start()
        try:
            start = time.perf_counter()
            self._proc.stdin.write(json.dumps(args) + "\n")
            self._proc.stdin.flush()
            reply = self._proc.stdout.readline()
            seconds = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
        code = json.loads(reply)["code"] if reply else None
        if code != 0:
            raise StageFailed(f"{name} exited with {code} in the worker; see {self._log.name}")
        return seconds

    def run_round(self, commands) -> list[StageRun]:
        return [StageRun(name, self.run(name, args), 0.0) for name, args in commands]

    def close(self) -> None:
        try:
            self._proc.stdin.close()
        except BrokenPipeError:  # the worker is gone already
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
