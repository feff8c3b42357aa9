import numpy as np
import pytest

from corpus import generate
from geoscatt.errors import (DegenerateLabels, DegenerateSplit, EmptyInputError,
                             NoConvergence)
from geoscatt.evalhead import (
    LogRegConfig,
    auc_score,
    fit_logreg,
    kfold_cv,
    metrics,
    stratified_folds,
    write_cv_csv,
)
from geoscatt.gst import ggs_features
from geoscatt.ingest import preprocess
from geoscatt.smiles import parse_smiles


def scores_for_counts(tp, tn, fp, fn):
    """Labels and scores realizing exactly these confusion counts at 0.5."""
    y = [1] * tp + [0] * tn + [0] * fp + [1] * fn
    s = [0.9] * tp + [0.1] * tn + [0.9] * fp + [0.1] * fn
    return np.array(y), np.array(s)


def test_worked_example():
    y, s = scores_for_counts(tp=50, tn=40, fp=10, fn=0)
    rep = metrics(y, s)
    assert (rep.tp, rep.tn, rep.fp, rep.fn) == (50, 40, 10, 0)
    assert rep.acc == pytest.approx(0.9)
    assert rep.se == pytest.approx(1.0)
    assert rep.sp == pytest.approx(0.8)
    assert rep.f1 == pytest.approx(10 / 11)
    assert rep.mcc == pytest.approx(np.sqrt(2 / 3))


def test_auc_endpoints():
    assert metrics(np.array([0, 0, 1, 1]),
                   np.array([0.1, 0.2, 0.8, 0.9])).auc == 1.0
    assert metrics(np.array([0, 0, 1, 1]),
                   np.array([0.4, 0.4, 0.4, 0.4])).auc == 0.5


def test_zero_denominator_conventions():
    # no true negatives in the sample: SP's denominator vanishes
    rep = metrics(np.array([1, 1, 1]), np.array([0.9, 0.8, 0.2]))
    assert rep.sp == 0.0
    assert "sp_zero_denominator" in rep.flags
    assert "mcc_zero_marginal" in rep.flags
    # no true positives: SE's denominator vanishes
    rep = metrics(np.array([0, 0]), np.array([0.1, 0.9]))
    assert rep.se == 0.0
    assert "se_zero_denominator" in rep.flags
    # all-positive predictions on a mixed sample: SP is a plain zero
    rep = metrics(np.array([1, 1, 0, 0]), np.array([0.9, 0.8, 0.7, 0.6]))
    assert rep.sp == 0.0
    assert "sp_zero_denominator" not in rep.flags


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        metrics(np.array([]), np.array([]))


def brute_force_report(y, s, threshold):
    tp = tn = fp = fn = 0
    for yi, si in zip(y, s):
        pred = si >= threshold
        if yi == 1 and pred:
            tp += 1
        elif yi == 0 and not pred:
            tn += 1
        elif yi == 0 and pred:
            fp += 1
        else:
            fn += 1
    pairs = [(si, sj) for si, yi in zip(s, y) if yi == 1
             for sj, yj in zip(s, y) if yj == 0]
    if pairs:
        auc = float(np.mean([1.0 if a > b else (0.5 if a == b else 0.0)
                             for a, b in pairs]))
    else:
        auc = float("nan")
    return tp, tn, fp, fn, auc


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(19)
    for _ in range(250):
        n = int(rng.integers(2, 50))
        y = rng.integers(0, 2, n)
        s = np.round(rng.random(n), 2)  # coarse grid forces ties
        rep = metrics(y, s)
        tp, tn, fp, fn, auc = brute_force_report(y, s, 0.5)
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (tp, tn, fp, fn)
        total = tp + tn + fp + fn
        assert abs(rep.acc - (tp + tn) / total) < 1e-12
        if tp + fn:
            assert abs(rep.se - tp / (tp + fn)) < 1e-12
        if tn + fp:
            assert abs(rep.sp - tn / (tn + fp)) < 1e-12
        assert abs(rep.f1 - (2 * tp / (2 * tp + fp + fn)
                             if 2 * tp + fp + fn else 0.0)) < 1e-12
        if np.isnan(auc):
            assert np.isnan(rep.auc)
        else:
            assert abs(rep.auc - auc) < 1e-12


def test_mcc_flip_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(6, 40))
        y = rng.integers(0, 2, n)
        s = rng.choice([0.2, 0.3, 0.7, 0.8], n)  # keep clear of the threshold
        rep = metrics(y, s)
        flipped = metrics(1 - y, 1.0 - s)
        assert (flipped.tp, flipped.tn) == (rep.tn, rep.tp)
        assert (flipped.fp, flipped.fn) == (rep.fn, rep.fp)
        assert abs(abs(flipped.mcc) - abs(rep.mcc)) < 1e-12
        one_side = metrics(1 - y, s)
        assert abs(one_side.mcc + rep.mcc) < 1e-12


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(22)
    y = rng.integers(0, 2, 60)
    s = rng.random(60)
    base = auc_score(y, s)
    assert auc_score(y, np.exp(s)) == pytest.approx(base, abs=1e-12)
    assert auc_score(y, 5.0 * s - 3.0) == pytest.approx(base, abs=1e-12)
    assert auc_score(y, s ** 3) == pytest.approx(base, abs=1e-12)


def test_logreg_separable():
    X = np.concatenate([np.full(20, -2.0), np.full(20, 2.0)])[:, None]
    y = np.array([0] * 20 + [1] * 20)
    model = fit_logreg(X, y, l2=1e-3)
    assert (((model.predict_proba(X) >= 0.5).astype(int)) == y).all()


def test_logreg_strong_regularization_approaches_prior():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((300, 4))
    y = (rng.random(300) < 0.3).astype(int)
    model = fit_logreg(X, y, l2=100.0)
    assert np.max(np.abs(model.weights)) < 1e-3
    assert np.mean(model.predict_proba(X)) == pytest.approx(y.mean(), abs=0.01)


def test_logreg_constant_column_gets_zero_weight():
    rng = np.random.default_rng(24)
    X = np.column_stack([rng.standard_normal(80), np.full(80, 5.0)])
    y = (X[:, 0] > 0).astype(int)
    model = fit_logreg(X, y, l2=1e-3)
    assert model.weights[1] == 0.0


def test_logreg_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(25)
    X = rng.standard_normal((120, 6))
    y = (X @ rng.standard_normal(6) + 0.3 * rng.standard_normal(120) > 0)
    y = y.astype(int)
    l2 = 1e-2
    model = fit_logreg(X, y, l2=l2)

    # rebuild the internal standardized objective and probe it by FD
    mean, std = X.mean(axis=0), X.std(axis=0)
    Z = (X - mean) / std
    w_std = model.weights * std
    b_std = model.bias + float(np.sum(w_std * mean / std))

    def objective(w, b):
        z = Z @ w + b
        return float(np.mean(np.logaddexp(0.0, z) - y * z)
                     + 0.5 * l2 * (w @ w))

    h = 1e-6
    for j in range(6):
        up, down = w_std.copy(), w_std.copy()
        up[j] += h
        down[j] -= h
        fd = (objective(up, b_std) - objective(down, b_std)) / (2 * h)
        assert abs(fd) < 1e-5
    fd_b = (objective(w_std, b_std + h) - objective(w_std, b_std - h)) / (2 * h)
    assert abs(fd_b) < 1e-5


def standardized(X):
    mean, std = X.mean(axis=0), X.std(axis=0)
    live = std > 0
    Z = np.zeros_like(X)
    Z[:, live] = (X[:, live] - mean[live]) / std[live]
    return Z, mean, std, live


def full_gradient(X, y, model):
    """Gradient over (w, b) of the standardized objective at the model."""
    Z, mean, std, live = standardized(X)
    w = np.zeros(X.shape[1])
    w[live] = model.weights[live] * std[live]
    b = model.bias + float(np.sum(w[live] * mean[live] / std[live]))
    p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
    resid = (p - y) / len(y)
    return np.append(Z.T @ resid + model.l2 * w, resid.sum())


@pytest.fixture(scope="module")
def wide_problem():
    """GGS vectors of 100 corpus molecules: 100 rows, 595 collinear columns."""
    rows = generate(100, seed=108)
    X = np.array([ggs_features(preprocess(parse_smiles(s))).values
                  for s, _ in rows])
    return X, np.array([label for _, label in rows])


def test_logreg_wide_problem_reaches_tolerance(wide_problem):
    # the former gradient descent stopped at its cap here, gradient 2e-4
    X, y = wide_problem
    model = fit_logreg(X, y, l2=1e-3)
    grad = full_gradient(X, y, model)
    assert np.linalg.norm(grad) < 1e-6
    assert model.grad_norm == pytest.approx(np.linalg.norm(grad), rel=1e-6,
                                            abs=1e-12)
    assert model.newton_iters <= LogRegConfig().max_iter


def dense_newton(Z, y, l2):
    """Damped Newton on the (f+1) system, solved by np.linalg.solve."""
    n, f = Z.shape
    A = np.hstack([Z, np.ones((n, 1))])
    reg = np.full(f + 1, l2)
    reg[-1] = 0.0

    def objective(theta):
        z = A @ theta
        return float(np.mean(np.logaddexp(0.0, z) - y * z)
                     + 0.5 * np.sum(reg * theta * theta))

    theta = np.zeros(f + 1)
    for _ in range(200):
        p = 1.0 / (1.0 + np.exp(-(A @ theta)))
        grad = A.T @ (p - y) / n + reg * theta
        if np.linalg.norm(grad) < 1e-11:
            break
        hess = (A * (p * (1 - p) / n)[:, None]).T @ A + np.diag(reg)
        step = np.linalg.solve(hess, grad)
        t = 1.0
        while objective(theta - t * step) > objective(theta) and t > 1e-12:
            t *= 0.5
        theta = theta - t * step
    else:
        raise AssertionError("reference Newton did not converge")
    return theta


@pytest.mark.parametrize("l2", [1e-3, 1.0, 100.0])
def test_logreg_agrees_with_dense_newton(wide_problem, l2):
    X, y = wide_problem
    model = fit_logreg(X, y, l2=l2)
    Z, _, _, _ = standardized(X)
    theta = dense_newton(Z, y, l2)
    reference = 1.0 / (1.0 + np.exp(-(Z @ theta[:-1] + theta[-1])))
    assert np.max(np.abs(model.predict_proba(X) - reference)) < 1e-6


def test_logreg_iteration_cap_raises(wide_problem):
    X, y = wide_problem
    with pytest.raises(NoConvergence, match="1 Newton steps"):
        fit_logreg(X, y, l2=1e-3, cfg=LogRegConfig(max_iter=1))


def test_kfold_cv_keeps_fold_models(wide_problem):
    X, y = wide_problem
    result = kfold_cv(X, y, k=3, seed=2)
    assert len(result.models) == 3
    assert max(m.grad_norm for m in result.models) < LogRegConfig().tol


def test_logreg_single_class_rejected():
    with pytest.raises(DegenerateLabels):
        fit_logreg(np.ones((5, 2)), np.ones(5, dtype=int))


def test_stratified_fold_arithmetic():
    rng = np.random.default_rng(26)
    y = np.array([1] * 55 + [0] * 45)
    fold_of = stratified_folds(y, 10, seed=3)
    for fold in range(10):
        members = fold_of == fold
        assert members.sum() == 10
        assert abs(y[members].sum() - 5.5) <= 0.5  # 5 or 6 positives
    assert np.array_equal(fold_of, stratified_folds(y, 10, seed=3))


def test_kfold_cv_deterministic_and_exact():
    rng = np.random.default_rng(27)
    X = rng.standard_normal((100, 4))
    y = (X[:, 0] + 0.4 * rng.standard_normal(100) > 0).astype(int)
    a = kfold_cv(X, y, k=10, seed=5)
    b = kfold_cv(X, y, k=10, seed=5)
    assert np.array_equal(a.fold_of, b.fold_of)
    assert len(a.reports) == 10
    for ra, rb in zip(a.reports, b.reports):
        assert ra.as_row() == rb.as_row()
    assert a.mean["auc"] > 0.8


def test_leave_one_out_reports_pooled_auc(tmp_path):
    rng = np.random.default_rng(28)
    X = rng.standard_normal((20, 3))
    y = np.array([0, 1] * 10)
    k = 10  # 10 folds of 2 = one sample per class per fold
    result = kfold_cv(X, y, k=k, seed=1)
    # each single-class... here folds hold one of each class; shrink further:
    tiny = kfold_cv(X, y, k=10, seed=1)
    assert np.isfinite(tiny.pooled_auc)
    write_cv_csv(tmp_path / "cv.csv", result)
    text = (tmp_path / "cv.csv").read_text()
    assert text.count("\n") == k + 4  # header + folds + mean/std/pooled


def test_kfold_degenerate_split():
    X = np.zeros((6, 2))
    y = np.array([0, 0, 0, 0, 1, 1])
    with pytest.raises(DegenerateSplit):
        kfold_cv(X, y, k=3, seed=0)
