"""Benchmark of the geoscatt pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload small-many --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
Every run makes its workload's inputs from the seed, ingests them once in a
fresh process (the set-up, timed from that process's spawn to its exit),
runs one reference pass of all CLI stages in fresh processes (peak RSS per
stage) and checks its outputs. Then, until ``--seconds`` after the set-up
have passed:

- ``--trace 0``: in a CLI worker process, the split-dependent stages for
  more data splits (the AUCs are means over them), then whole pipeline
  passes, each stage timed from outside; the end-to-end metrics.
- ``--trace 1``: passes in this process, alternately untraced and with
  every layer's public functions wrapped; the per-layer metrics.

Every pass must reproduce the reference artifacts byte for byte. The last
line of standard output is one JSON object: correct, attempted, failed
and metrics. The exit code is 0 only when the run completed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import pipeline

# Pin BLAS before numpy is imported here (checks and the traced run).
os.environ.update(pipeline.SINGLE_THREAD_ENV)

import workloads  # noqa: E402

WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

# The held-out AUCs are means over this many CLI seeds, that is data
# splits and model initializations: one split's AUC moves too much with
# the seed to guard quality on a few dozen molecules. Split 0 is the one
# every timed pass runs; the others rerun only the stages that depend on
# the split.
SPLITS = 8
SPLIT_STAGES = ("ingest", "build-metagraph", "train-sage", "fit-head", "evaluate",
                "evaluate-sage")


def end_to_end(wl, rounds, fresh, facts: dict,
               aucs: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics from the timed passes, with each stage's samples.

    Every timed stage and the whole pass are summarised by their fastest
    pass: contention from other tenants of the host only ever slows one.
    """
    stage = {s.name: [r[i].seconds for r in rounds] for i, s in enumerate(rounds[0])}
    fastest = {name: min(xs) for name, xs in stage.items()}
    pipeline_s = [sum(s.seconds for s in r) for r in rounds]
    metrics = {
        "setup_s": (fresh[0].seconds, "s"),
        "gst_mol_per_s": (facts["molecules"] / fastest["featurize-gst"], "mol/s"),
        "scat2d_img_per_s": (facts["images"] / fastest["featurize-2d"], "img/s"),
        "gin_train_mol_per_s": (facts["gin_train"] * wl.gin_epochs / fastest["train-gin"],
                                "mol.epoch/s"),
        "metagraph_s": (fastest["build-metagraph"], "s"),
        "sage_epoch_s": (fastest["train-sage"] / wl.sage_epochs, "s"),
        "head_s": (fastest["fit-head"] + fastest["evaluate"] + fastest["cv"], "s"),
        "pipeline_s": (min(pipeline_s), "s"),
        "peak_rss_mb": (max(s.peak_rss_mb for s in fresh), "MB"),
        "sage_auc": (sum(a["sage_auc"] for a in aucs) / len(aucs), "1"),
        "head_auc": (sum(a["head_auc"] for a in aucs) / len(aucs), "1"),
    }
    detail = {"stage_s": stage, "pipeline_s": pipeline_s}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "geoscatt" / "cli.py").is_file():
        print(f"error: no geoscatt sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    wl = workloads.build(args.workload, args.seed)
    wd = root / WORK_DIR / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    pipeline.prepare(wl, wd)
    env = pipeline.stage_env(src)
    commands = pipeline.stage_commands(wl, wd, 1000 * args.seed)
    log = wd / "stages.log"

    # set-up: one cold ingest in a fresh process
    fresh = [pipeline.run_stage(*commands[0], env, log)]
    window_end = time.perf_counter() + args.seconds
    fresh += pipeline.run_round(commands[1:], env, log)

    import checks  # noqa: E402  (imports numpy and the program)

    report = checks.check_all(wl, wd, args.seed)
    reference = checks.artifact_digest(wd)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    if args.trace:
        import tracer  # noqa: E402
        metrics, passes = tracer.per_layer(
            wl, commands, report.facts["molecules"], window_end, fresh,
            lambda: report.expect(checks.artifact_digest(wd) == reference,
                                  "a traced pass changed the artifacts"),
            out / f"trace-{wl.name}-s{args.seed}.json")
    else:
        rounds, took = [], []
        with pipeline.Worker(env, log) as worker:
            for i in range(1, SPLITS):
                split = dict(pipeline.stage_commands(wl, wd, 1000 * args.seed + i))
                for name in SPLIT_STAGES:
                    worker.run(name, split[name])
                checks.check_evaluations(wd, report)
            # Whole passes only: a pass starts when a typical one still fits.
            while not rounds or time.perf_counter() + statistics.median(took) < window_end:
                start = time.perf_counter()
                rounds.append(worker.run_round(commands))
                took.append(time.perf_counter() - start)
                report.expect(checks.artifact_digest(wd) == reference,
                              f"pass {len(rounds)} changed the artifacts")
        passes = SPLITS - 1 + len(rounds)
        metrics, detail = end_to_end(wl, rounds, fresh, report.facts, report.aucs)
        (out / f"detail-{wl.name}-s{args.seed}.json").write_text(
            json.dumps({"passes": len(rounds), **detail}, indent=1),
            encoding="utf-8")
    for line in report.failures:
        print(f"check failed: {line}", file=sys.stderr)
    shutil.rmtree(wd, ignore_errors=True)
    # the set-up, every pass and every extra split ingest every input once
    ingests = 1 + passes
    print(json.dumps({"correct": not report.failures,
                      "attempted": len(wl.rows) * ingests,
                      "failed": report.lost * ingests,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except pipeline.StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
