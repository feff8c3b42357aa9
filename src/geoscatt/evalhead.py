"""Linear classifier head, binary metrics, and the k-fold CV driver.

The metric block follows the usual confusion-matrix definitions, with AUC
computed as the Mann-Whitney rank statistic (midranks on ties, so tied
pairs count one half). Zero-denominator rates return 0 and are flagged
rather than raising, keeping batch reports total.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateLabels, DegenerateSplit, EmptyInputError,
                     NoConvergence)


@dataclass
class MetricsReport:
    tp: int
    tn: int
    fp: int
    fn: int
    acc: float
    se: float
    sp: float
    f1: float
    mcc: float
    auc: float
    threshold: float
    flags: tuple[str, ...] = ()

    FIELDS = ("tp", "tn", "fp", "fn", "acc", "se", "sp", "f1", "mcc", "auc")

    def as_row(self) -> list[float]:
        return [getattr(self, f) for f in self.FIELDS]


def metrics(y_true, scores, threshold: float = 0.5) -> MetricsReport:
    """Confusion counts at the threshold plus ACC/SE/SP/F1/MCC and AUC.

    Predictions are positive when score >= threshold. AUC is NaN (with a
    flag) when only one class is present.
    """
    y = np.asarray(y_true, dtype=int)
    s = np.asarray(scores, dtype=float)
    if y.size == 0:
        raise EmptyInputError("metrics need at least one sample")
    if y.shape != s.shape:
        raise EmptyInputError(f"{y.shape} labels vs {s.shape} scores")

    pred = s >= threshold
    tp = int(np.sum(pred & (y == 1)))
    tn = int(np.sum(~pred & (y == 0)))
    fp = int(np.sum(pred & (y == 0)))
    fn = int(np.sum(~pred & (y == 1)))

    flags = []

    def ratio(num, den, name):
        if den == 0:
            flags.append(name)
            return 0.0
        return num / den

    acc = (tp + tn) / y.size
    se = ratio(tp, tp + fn, "se_zero_denominator")
    sp = ratio(tn, tn + fp, "sp_zero_denominator")
    f1 = ratio(2 * tp, 2 * tp + fp + fn, "f1_zero_denominator")

    mcc_den_sq = (tp + fn) * (tp + fp) * (tn + fn) * (tn + fp)
    if mcc_den_sq == 0:
        flags.append("mcc_zero_marginal")
        mcc = 0.0
    else:
        mcc = (tp * tn - fp * fn) / np.sqrt(mcc_den_sq)

    auc = auc_score(y, s)
    if np.isnan(auc):
        flags.append("auc_single_class")

    return MetricsReport(tp=tp, tn=tn, fp=fp, fn=fn, acc=acc, se=se, sp=sp,
                         f1=f1, mcc=float(mcc), auc=auc, threshold=threshold,
                         flags=tuple(flags))


def auc_score(y_true, scores) -> float:
    """Mann-Whitney AUC with midranks: ties between classes count 0.5."""
    y = np.asarray(y_true, dtype=int)
    s = np.asarray(scores, dtype=float)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _midranks(s)
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


# --- logistic head -----------------------------------------------------------

@dataclass
class LogRegConfig:
    max_iter: int = 100
    tol: float = 1e-6


@dataclass
class LogRegModel:
    """Weights on the original feature scale.

    ``newton_iters`` and ``grad_norm`` describe the fit that made the model
    (Newton steps taken, final gradient norm of the standardized objective);
    they are ``None`` for a model read back from ``head.json``.
    """

    weights: np.ndarray
    bias: float
    l2: float
    newton_iters: int | None = None
    grad_norm: float | None = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        z = np.asarray(X, dtype=float) @ self.weights + self.bias
        return _sigmoid(z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_logreg(X, y, l2: float = 1e-3,
               cfg: LogRegConfig | None = None) -> LogRegModel:
    """L2-regularized logistic regression by truncated Newton-CG.

    Columns are standardized internally (constant columns get weight zero)
    and the learned weights are mapped back to the original feature scale.
    The objective is the mean log-loss plus ``0.5 * l2 * |w|^2``; the bias
    is not regularized. Each Newton step solves ``H s = g`` over ``(w, b)``
    by conjugate gradients from Hessian-vector products alone (no Hessian
    is formed), to a residual below ``min(0.5, sqrt|g|) * |g|`` or at most
    ``f + 1`` products, as in Lin, Weng & Keerthi (2008), and is taken with
    Armijo backtracking in place of their trust region. Memory stays that
    of ``Z``. The fit ends when the gradient norm is below ``cfg.tol``;
    if ``cfg.max_iter`` Newton steps do not get there, ``NoConvergence`` is
    raised rather than a capped model returned.
    """
    cfg = cfg or LogRegConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(np.unique(y)) < 2:
        raise DegenerateLabels("logistic head needs both classes present")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    live = std > 0
    Z = np.zeros_like(X)
    Z[:, live] = (X[:, live] - mean[live]) / std[live]

    n, f = Z.shape
    theta = np.zeros(f + 1)  # (w, b)

    def loss_grad(theta):
        w, b = theta[:-1], theta[-1]
        z = Z @ w + b
        p = _sigmoid(z)
        # stable mean log-loss
        value = (np.mean(np.logaddexp(0.0, z) - y * z)
                 + 0.5 * l2 * float(w @ w))
        resid = (p - y) / n
        grad = np.append(Z.T @ resid + l2 * w, resid.sum())
        return value, grad, p

    value, grad, p = loss_grad(theta)
    gnorm = float(np.linalg.norm(grad))
    iters = 0
    while gnorm >= cfg.tol:
        if iters >= cfg.max_iter:
            raise NoConvergence(
                f"logistic head: gradient norm {gnorm:.3g} after {iters} "
                f"Newton steps, tolerance {cfg.tol:g}")
        s = _newton_cg(Z, p * (1.0 - p) / n, l2, grad, gnorm)
        slope = float(grad @ s)
        step = 1.0
        while step > 1e-16:
            theta_new = theta - step * s
            v_new, g_new, p_new = loss_grad(theta_new)
            if v_new <= value - 1e-4 * step * slope:
                break
            step *= 0.5
        theta, value, grad, p = theta_new, v_new, g_new, p_new
        gnorm = float(np.linalg.norm(grad))
        iters += 1

    w, b = theta[:-1], float(theta[-1])
    weights = np.zeros(f)
    weights[live] = w[live] / std[live]
    bias = b - float(np.sum(w[live] * mean[live] / std[live]))
    return LogRegModel(weights=weights, bias=bias, l2=l2,
                       newton_iters=iters, grad_norm=gnorm)


def _newton_cg(Z: np.ndarray, d: np.ndarray, l2: float, grad: np.ndarray,
               gnorm: float) -> np.ndarray:
    """Truncated CG for ``H s = grad``, H the Hessian over ``(w, b)``.

    ``H v = (Z^T u + l2 v_w, sum u)`` with ``u = d * (Z v_w + v_b)`` and
    ``d = p (1 - p) / n``. A direction of zero curvature, possible only at
    ``l2 = 0``, ends the solve early.
    """
    bound = min(0.5, np.sqrt(gnorm)) * gnorm
    s = np.zeros_like(grad)
    r = grad.copy()
    direction = r.copy()
    rr = float(r @ r)
    for _ in range(grad.size):
        if np.sqrt(rr) < bound:
            break
        u = d * (Z @ direction[:-1] + direction[-1])
        hd = np.append(Z.T @ u + l2 * direction[:-1], u.sum())
        curvature = float(direction @ hd)
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        s += alpha * direction
        r -= alpha * hd
        rr_new = float(r @ r)
        direction = r + (rr_new / rr) * direction
        rr = rr_new
    return s


# --- cross-validation ---------------------------------------------------------

@dataclass
class CVResult:
    reports: list[MetricsReport]
    mean: dict
    std: dict
    pooled_auc: float
    fold_of: np.ndarray = field(repr=False, default=None)
    models: list[LogRegModel] = field(repr=False, default_factory=list)


def stratified_folds(y: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Fold index per sample; class counts differ by at most one per fold.

    Each class deals its members round-robin, continuing from where the
    previous class stopped, so the per-class remainders land on different
    folds and total fold sizes also stay within one of each other.
    """
    y = np.asarray(y, dtype=int)
    if k < 2:
        raise DegenerateSplit(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(y.size, dtype=int)
    offset = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if idx.size < k:
            raise DegenerateSplit(
                f"class {cls} has {idx.size} samples, fewer than k={k}")
        idx = idx[rng.permutation(idx.size)]
        fold_of[idx] = (offset + np.arange(idx.size)) % k
        offset = (offset + idx.size) % k
    return fold_of


def kfold_cv(X, y, k: int = 10, seed: int = 0, l2: float = 1e-3,
             head_cfg: LogRegConfig | None = None,
             threshold: float = 0.5) -> CVResult:
    """Stratified k-fold CV of the logistic head over a feature matrix."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    fold_of = stratified_folds(y, k, seed)

    reports, models = [], []
    oof_scores = np.empty(y.size)
    for fold in range(k):
        hold = fold_of == fold
        model = fit_logreg(X[~hold], y[~hold], l2=l2, cfg=head_cfg)
        models.append(model)
        scores = model.predict_proba(X[hold])
        oof_scores[hold] = scores
        reports.append(metrics(y[hold], scores, threshold=threshold))

    mean, std = {}, {}
    for name in MetricsReport.FIELDS:
        vals = np.array([getattr(r, name) for r in reports], dtype=float)
        mean[name] = float(np.nanmean(vals))
        std[name] = float(np.nanstd(vals))
    pooled = auc_score(y, oof_scores)
    return CVResult(reports=reports, mean=mean, std=std,
                    pooled_auc=float(pooled), fold_of=fold_of, models=models)


def write_cv_csv(path, result: CVResult) -> None:
    """One row per fold plus mean/std/pooled aggregate rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold"] + list(MetricsReport.FIELDS))
        for i, rep in enumerate(result.reports):
            writer.writerow([i] + [f"{v:.17g}" for v in rep.as_row()])
        writer.writerow(["mean"] + [f"{result.mean[f]:.17g}"
                                    for f in MetricsReport.FIELDS])
        writer.writerow(["std"] + [f"{result.std[f]:.17g}"
                                   for f in MetricsReport.FIELDS])
        writer.writerow(["pooled_auc", f"{result.pooled_auc:.17g}"])


def format_report(rep: MetricsReport) -> str:
    lines = [
        f"  TP={rep.tp}  TN={rep.tn}  FP={rep.fp}  FN={rep.fn}"
        f"  (threshold {rep.threshold:g})",
        f"  ACC={rep.acc:.4f}  AUC={rep.auc:.4f}  SE={rep.se:.4f}"
        f"  SP={rep.sp:.4f}  F1={rep.f1:.4f}  MCC={rep.mcc:.4f}",
    ]
    if rep.flags:
        lines.append(f"  flags: {', '.join(rep.flags)}")
    return "\n".join(lines)
