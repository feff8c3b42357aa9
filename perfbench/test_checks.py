"""Self-tests: every output check passes on real artifacts and fails on planted faults.

    python3 -m pytest -q perfbench/test_checks.py

One pipeline pass per workload makes the artifacts; each test copies them, plants
one wrong weight, column, count or row, and expects the matching check to
reject it.
"""

from __future__ import annotations

import csv
import shutil
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(scope="module", params=workloads.NAMES)
def artifacts(request, tmp_path_factory):
    wl = workloads.build(request.param, SEED)
    wd = tmp_path_factory.mktemp(request.param)
    pipeline.prepare(wl, wd)
    env = pipeline.stage_env(HERE.parent / "src")
    pipeline.run_round(pipeline.stage_commands(wl, wd, SEED), env, wd / "stages.log")
    return wl, wd


@pytest.fixture
def copy(artifacts, tmp_path):
    wl, wd = artifacts
    dst = tmp_path / "wd"
    shutil.copytree(wd, dst)
    return wl, dst


def failures(wl, wd) -> list[str]:
    return checks.check_all(wl, wd, SEED).failures


def rewrite_fmat(path: Path, change) -> None:
    """Apply ``change`` to the matrix in place, or store what it returns."""
    X = checks.read_fmat(path).copy()
    Y = change(X)
    X = X if Y is None else Y
    with open(path, "wb") as fh:
        fh.write(b"FMAT" + struct.pack("<BII", 1, *X.shape) + X.astype("<f8").tobytes())


def rewrite_csv(path: Path, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = change(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def assert_rejected(found: list[str], fragment: str) -> None:
    assert any(fragment in f for f in found), found


def test_clean_artifacts_pass(copy):
    wl, wd = copy
    assert failures(wl, wd) == []


def test_lost_row_rejected(copy):
    wl, wd = copy
    for name in ("records.csv", "manifest.csv"):
        rewrite_csv(wd / name, lambda rows: rows[:1] + rows[2:])
    assert_rejected(failures(wl, wd), "lost without cause")


def test_wrong_diffusion_column_rejected(copy):
    wl, wd = copy
    labels = checks.column_labels(wd / "ggs.columns.csv")
    col = labels.index("diff.m2.p1-2.f0")

    def bump(X):
        X[:, col] *= 1.001
    rewrite_fmat(wd / "ggs.fmat", bump)
    assert_rejected(failures(wl, wd), "diffusion coefficients differ")


def test_order_dependent_ggs_rejected(copy):
    wl, wd = copy
    col = checks.column_labels(wd / "ggs.columns.csv").index("hann.m0.f3")

    def bump(X):
        X[:, col] += 0.5
    rewrite_fmat(wd / "ggs.fmat", bump)
    assert_rejected(failures(wl, wd), "ggs.fmat row")


def test_order_dependent_embedding_rejected(copy):
    wl, wd = copy

    def bump(X):
        X[:, 3] *= 1.01
    rewrite_fmat(wd / "gin_embeddings.fmat", bump)
    assert_rejected(failures(wl, wd), "gin_embeddings.fmat row")


def test_wrong_weight_rejected(copy):
    wl, wd = copy

    def bump(W):
        i, j = np.argwhere(W > 0)[1]
        W[i, j] = W[j, i] = 0.9 * W[i, j]
    rewrite_fmat(wd / "metagraph_weights.fmat", bump)
    found = failures(wl, wd)
    assert_rejected(found, "differ from the")


def test_asymmetric_weight_rejected(copy):
    wl, wd = copy

    def bump(W):
        i, j = np.argwhere(W > 0)[0]
        W[i, j] *= 0.5
    rewrite_fmat(wd / "metagraph_weights.fmat", bump)
    assert_rejected(failures(wl, wd), "not symmetric")


def test_diagonal_weight_rejected(copy):
    wl, wd = copy

    def bump(W):
        W[2, 2] = 0.25
    rewrite_fmat(wd / "metagraph_weights.fmat", bump)
    assert_rejected(failures(wl, wd), "non-zero diagonal")


def test_unnormalized_weights_rejected(copy):
    wl, wd = copy

    def shrink(W):
        W *= 0.99
    rewrite_fmat(wd / "metagraph_weights.fmat", shrink)
    assert_rejected(failures(wl, wd), "not 1")


def test_dropped_top_k_weight_rejected(copy):
    wl, wd = copy
    if not wl.top_k:
        pytest.skip("dense meta-graph")

    def drop(W):
        j = int(np.argmax(W[0]))
        W[0, j] = W[j, 0] = 0.0
        W[:] = W / W.max()
    rewrite_fmat(wd / "metagraph_weights.fmat", drop)
    assert_rejected(failures(wl, wd), "top-k")


def test_missing_2d_column_rejected(copy):
    wl, wd = copy
    for name in ("scat2d.columns.csv", "scat2d.selected.csv"):
        rewrite_csv(wd / name, lambda rows: rows[:-1])
    rewrite_fmat(wd / "scat2d.fmat", lambda X: X[:, :-1])
    assert_rejected(failures(wl, wd), "not k=")


def test_wrong_2d_column_label_rejected(copy):
    wl, wd = copy

    def swap(rows):
        rows[1][1], rows[2][1] = rows[2][1], rows[1][1]
        return rows
    rewrite_csv(wd / "scat2d.columns.csv", swap)
    assert_rejected(failures(wl, wd), "not distinct columns of the cascade")


def test_negative_2d_coefficient_rejected(copy):
    wl, wd = copy
    labels = checks.column_labels(wd / "scat2d.columns.csv")
    col = next(i for i, lab in enumerate(labels) if not lab.startswith("m0."))

    def negate(X):
        X[0, col] = -abs(X[:, col]).max() - 1.0
    rewrite_fmat(wd / "scat2d.fmat", negate)
    assert_rejected(failures(wl, wd), "negative")


def test_wrong_positive_count_rejected(copy):
    wl, wd = copy

    def bump(rows):
        rows[1][0] = str(int(float(rows[1][0])) + 1)
        return rows
    rewrite_csv(wd / "eval_sage.csv", bump)
    assert_rejected(failures(wl, wd), "tp + fn")


def test_short_training_rejected(copy):
    wl, wd = copy
    rewrite_csv(wd / "sage_curve.csv", lambda rows: rows[:-1])
    assert_rejected(failures(wl, wd), "epochs run")


def test_changed_artifact_changes_digest(copy):
    wl, wd = copy
    before = checks.artifact_digest(wd)
    rewrite_csv(wd / "scat2d.selected.csv", lambda rows: rows[:1] + rows[2:] + rows[1:2])
    assert checks.artifact_digest(wd) != before
