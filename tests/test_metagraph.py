import numpy as np
import pytest

from geoscatt import metagraph
from geoscatt.errors import DegenerateLabels, ShapeMismatch, ZeroVariance
from geoscatt.metagraph import (
    SageConfig,
    build_metagraph,
    init_sage,
    sage_forward,
    sage_grad_check,
    train_sage,
    _neighbor_mean,
)
from geoscatt.optim import FD_CHUNK


def reference_weights(S: np.ndarray) -> np.ndarray:
    """Independent recomputation straight from the four defining equations."""
    n = S.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cos = S[i] @ S[j] / (np.linalg.norm(S[i]) * np.linalg.norm(S[j]))
            d[i, j] = 1.0 - (cos + 1.0) / 2.0
    off = ~np.eye(n, dtype=bool)
    sigma = np.std(d[off])
    k = np.exp(-d ** 2 / (2 * sigma ** 2))
    np.fill_diagonal(k, 0.0)
    return k / k[off].max()


def test_weights_match_equation_oracle():
    rng = np.random.default_rng(1)
    S = rng.standard_normal((9, 6))
    mg = build_metagraph(S)
    assert np.max(np.abs(mg.weights - reference_weights(S))) < 1e-9


def test_identical_embeddings_get_weight_one():
    rng = np.random.default_rng(2)
    S = rng.standard_normal((6, 5))
    S[4] = S[1]
    mg = build_metagraph(S)
    assert mg.weights[1, 4] == 1.0
    assert mg.weights[4, 1] == 1.0


def test_orthogonal_and_antiparallel_distances():
    S = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],     # orthogonal to row 0
                  [-1.0, 0.0, 0.0],    # anti-parallel to row 0
                  [0.8, 0.6, 0.0]])
    mg = build_metagraph(S)
    # reconstruct the instance's sigma and check the orthogonal pair value
    n = 4
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cos = S[i] @ S[j] / (np.linalg.norm(S[i]) * np.linalg.norm(S[j]))
            d[i, j] = 1.0 - (cos + 1.0) / 2.0
    off = ~np.eye(n, dtype=bool)
    sigma = np.std(d[off])
    expected = np.exp(-0.25 / (2 * sigma ** 2)) / \
        np.exp(-(d[off].min() ** 2) / (2 * sigma ** 2))
    assert d[0, 1] == pytest.approx(0.5)          # orthogonal -> d = 1/2
    assert d[0, 2] == pytest.approx(1.0)          # anti-parallel -> d = 1
    assert d[0, 2] == d.max()                     # largest distance
    assert mg.weights[0, 1] == pytest.approx(expected, rel=1e-9)


def test_weight_matrix_invariants():
    rng = np.random.default_rng(3)
    S = rng.standard_normal((14, 8))
    mg = build_metagraph(S)
    W = mg.weights
    off = ~np.eye(14, dtype=bool)
    assert np.max(np.abs(W - W.T)) == 0.0
    assert W.min() >= 0.0 and W.max() <= 1.0
    assert W[off].max() == 1.0
    assert np.all(np.diag(W) == 0.0)


def test_kernel_scale_invariance():
    rng = np.random.default_rng(4)
    S = rng.standard_normal((10, 7))
    a = build_metagraph(S).weights
    b = build_metagraph(37.5 * S).weights
    assert np.max(np.abs(a - b)) < 1e-9


def test_zero_variance_raises():
    with pytest.raises(ZeroVariance):
        build_metagraph(np.array([[1.0, 0.0], [0.0, 1.0]]))  # single distance


def test_equal_weights_aggregate_to_plain_mean():
    rng = np.random.default_rng(5)
    H = rng.standard_normal((6, 4))
    W = np.ones((6, 6)) - np.eye(6)
    agg = _neighbor_mean(W, H, W.sum(axis=1, keepdims=True))
    for i in range(6):
        others = np.delete(H, i, axis=0).mean(axis=0)
        assert np.allclose(agg[i], others, atol=1e-12)


def test_identical_nodes_get_identical_logits():
    rng = np.random.default_rng(6)
    S = rng.standard_normal((5, 6))
    S[3] = S[0]
    mg = build_metagraph(S)
    p = init_sage(SageConfig(in_dim=6, hidden=8, embed=4, seed=0))
    logits = sage_forward(mg, p)
    assert np.allclose(logits[0], logits[3], atol=1e-12)


def test_forward_deterministic_without_dropout():
    rng = np.random.default_rng(7)
    mg = build_metagraph(rng.standard_normal((8, 5)))
    p = init_sage(SageConfig(in_dim=5, hidden=8, embed=4, seed=1))
    a = sage_forward(mg, p, dropout_active=False)
    b = sage_forward(mg, p, dropout_active=False)
    assert np.array_equal(a, b)


def test_relabeling_permutes_logits_rows():
    rng = np.random.default_rng(8)
    S = rng.standard_normal((9, 5))
    p = init_sage(SageConfig(in_dim=5, hidden=8, embed=4, seed=2))
    base = sage_forward(build_metagraph(S), p)
    perm = rng.permutation(9)
    permuted = sage_forward(build_metagraph(S[perm]), p)
    assert np.max(np.abs(permuted - base[perm])) < 1e-9


def test_sage_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    mg = build_metagraph(rng.standard_normal((8, 6)))
    labels = rng.integers(0, 2, 8)
    mask = np.array([True] * 5 + [False] * 3)
    p = init_sage(SageConfig(in_dim=6, hidden=10, embed=5, seed=3))
    assert sage_grad_check(mg, p, labels, mask) < 1e-6


def test_grad_check_rejects_a_wrong_entry(monkeypatch):
    rng = np.random.default_rng(9)
    mg = build_metagraph(rng.standard_normal((8, 6)))
    labels = rng.integers(0, 2, 8)
    mask = np.array([True] * 5 + [False] * 3)
    p = init_sage(SageConfig(in_dim=6, hidden=10, embed=5, seed=3))
    backward = metagraph._sage_backward
    entry = FD_CHUNK + 3  # outside the first chunk of w2
    assert entry < p.w2.size

    def planted(*args):
        grads = backward(*args)
        grads[2].reshape(-1)[entry] += 1.0
        return grads

    monkeypatch.setattr(metagraph, "_sage_backward", planted)
    assert sage_grad_check(mg, p, labels, mask) > 1e-2


def separable_metagraph(seed=10):
    rng = np.random.default_rng(seed)
    n = 40
    y = np.array([0] * 20 + [1] * 20)
    feats = rng.standard_normal((n, 10)) * 0.1
    feats[y == 1, :5] += 2.0
    feats[y == 0, 5:] += 2.0
    mg = build_metagraph(feats)
    train = np.zeros(n, bool)
    val = np.zeros(n, bool)
    test = np.zeros(n, bool)
    train[:14] = train[20:34] = True
    val[14:17] = val[34:37] = True
    test[17:20] = test[37:] = True
    mg.set_masks(train, val, test)
    return mg, y


def test_training_fits_block_structured_toy():
    mg, y = separable_metagraph()
    cfg = SageConfig(in_dim=10, hidden=16, embed=8, epochs=300, seed=4)
    params = train_sage(mg, y, cfg)
    logits = sage_forward(mg, params)
    train_acc = (logits.argmax(axis=1) == y)[mg.train_mask].mean()
    assert train_acc == 1.0


def test_training_deterministic_checkpoint():
    mg, y = separable_metagraph()
    cfg = SageConfig(in_dim=10, hidden=16, embed=8, epochs=60, seed=5)
    a = train_sage(mg, y, cfg)
    b = train_sage(mg, y, cfg)
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)


def test_patience_zero_returns_best_prefix_checkpoint():
    # flip the validation labels so validation loss turns upward early
    mg, y = separable_metagraph()
    y = y.copy()
    val_rows = np.flatnonzero(mg.val_mask)
    y[val_rows] = 1 - y[val_rows]
    cfg = SageConfig(in_dim=10, hidden=16, embed=8, epochs=500, seed=6,
                     patience=0)
    history = []
    params = train_sage(mg, y, cfg, history=history)
    val_losses = [h[2] for h in history]
    assert len(val_losses) < 500          # early stop actually fired
    # stops right after the first non-improvement ...
    assert np.argmin(val_losses) == len(val_losses) - 2
    # ... and returns the checkpoint with the best validation loss
    from geoscatt.metagraph import masked_cross_entropy
    returned_val = masked_cross_entropy(sage_forward(mg, params), y, mg.val_mask)
    assert returned_val == pytest.approx(min(val_losses), abs=1e-12)


def test_single_class_mask_rejected():
    mg, y = separable_metagraph()
    bad = np.zeros_like(y)
    with pytest.raises(DegenerateLabels):
        train_sage(mg, bad, SageConfig(in_dim=10, epochs=1))


def test_mask_validation():
    rng = np.random.default_rng(11)
    mg = build_metagraph(rng.standard_normal((6, 4)))
    with pytest.raises(ShapeMismatch):
        mg.set_masks(np.ones(6, bool), np.ones(6, bool), np.zeros(6, bool))


def test_sage_parameter_roundtrip(tmp_path):
    from geoscatt.metagraph import SageParams
    p = init_sage(SageConfig(in_dim=4, hidden=6, embed=3, seed=12))
    p.save(tmp_path / "sage.gprm")
    q = SageParams.load(tmp_path / "sage.gprm")
    for a, b in zip(p.tensors(), q.tensors()):
        assert np.array_equal(a, b)


def test_topk_sparsification_keeps_symmetry():
    from geoscatt.metagraph import sparsify_topk
    rng = np.random.default_rng(13)
    mg = build_metagraph(rng.standard_normal((12, 6)))
    sparse = sparsify_topk(mg, 3)
    W = sparse.weights
    assert np.max(np.abs(W - W.T)) == 0.0
    assert np.all(np.diag(W) == 0.0)
    # every row keeps at least its own top-3, at most 3 + incoming picks
    nnz = (W > 0).sum(axis=1)
    assert np.all(nnz >= 3) and np.all(nnz <= 11)
    # surviving entries are unchanged
    mask = W > 0
    assert np.array_equal(W[mask], mg.weights[mask])
    # the forward pass still runs on the sparse graph
    p = init_sage(SageConfig(in_dim=6, hidden=8, embed=4, seed=1))
    logits = sage_forward(sparse, p)
    assert np.all(np.isfinite(logits))


def reference_train_sage(mg, labels, cfg):
    """Training as a per-call epoch: every forward rebuilds [H, rownorm(W) H]
    and its row sums, and the eval forward is a separate pass."""
    from geoscatt.metagraph import masked_cross_entropy
    from geoscatt.optim import Adam

    def neighbor_mean(W, X):
        rowsum = W.sum(axis=1, keepdims=True)
        return (W @ X) / np.where(rowsum > 0, rowsum, 1.0)

    def forward(p, rng):
        H = mg.node_features
        agg0 = neighbor_mean(mg.weights, H)
        z1 = np.concatenate([H, agg0], axis=-1) @ p.w1 + p.b1
        r1 = np.maximum(z1, 0.0)
        scale = None
        dropped = r1
        if rng is not None and p.dropout > 0:
            scale = (rng.random(r1.shape) >= p.dropout) / (1.0 - p.dropout)
            dropped = r1 * scale
        agg1 = neighbor_mean(mg.weights, dropped)
        z2 = np.concatenate([dropped, agg1], axis=-1) @ p.w2 + p.b2
        return agg0, z1, scale, dropped, agg1, z2, z2 @ p.wc + p.bc

    def grads(p, rng):
        agg0, z1, scale, dropped, agg1, z2, logits = forward(p, rng)
        mask = mg.train_mask
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        dlogits = np.zeros_like(logits)
        dlogits[mask] = probs[mask]
        dlogits[mask, labels[mask]] -= 1.0
        dlogits /= int(mask.sum())
        d_z2 = dlogits @ p.wc.T
        d_cat2 = d_z2 @ p.w2.T
        hidden = dropped.shape[1]
        rowsum = mg.weights.sum(axis=1, keepdims=True)
        safe = np.where(rowsum > 0, rowsum, 1.0)
        d_dropped = (d_cat2[:, :hidden]
                     + mg.weights.T @ (d_cat2[:, hidden:] / safe))
        d_r1 = d_dropped * scale if scale is not None else d_dropped
        d_z1 = d_r1 * (z1 > 0)
        return [np.hstack([mg.node_features, agg0]).T @ d_z1, d_z1.sum(axis=0),
                np.hstack([dropped, agg1]).T @ d_z2, d_z2.sum(axis=0),
                z2.T @ dlogits, dlogits.sum(axis=0)]

    params = init_sage(cfg)
    tensors = params.tensors()
    opt = Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    best, best_val, stale, history = params.copy(), np.inf, 0, []
    for epoch in range(cfg.epochs):
        opt.step(tensors, grads(params, rng))
        logits = forward(params, None)[-1]
        train_loss = masked_cross_entropy(logits, labels, mg.train_mask)
        val_loss = masked_cross_entropy(logits, labels, mg.val_mask)
        history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val, best, stale = val_loss, params.copy(), 0
        else:
            stale += 1
            if stale > cfg.patience:
                break
    return best, history


def zero_row_metagraph():
    """A node without edges: its row sum is 0 and the guard divides by 1."""
    mg, y = separable_metagraph()
    W = mg.weights.copy()
    W[7, :] = 0.0
    W[:, 7] = 0.0
    out = metagraph.MetaGraph(node_features=mg.node_features, weights=W,
                              sigma_kernel=mg.sigma_kernel)
    out.set_masks(mg.train_mask, mg.val_mask, mg.test_mask)
    return out, y


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("graph", ["dense", "topk", "zero-row"])
def test_training_matches_per_call_epoch_bit_for_bit(graph, dropout):
    from geoscatt.metagraph import sparsify_topk
    mg, y = separable_metagraph()
    if graph == "topk":
        mg = sparsify_topk(mg, 3)
    elif graph == "zero-row":
        mg, y = zero_row_metagraph()
    assert graph != "zero-row" or mg.weights.sum(axis=1).min() == 0.0
    cfg = SageConfig(in_dim=10, hidden=16, embed=8, epochs=60, patience=8,
                     dropout=dropout, seed=14)
    history = []
    params = train_sage(mg, y, cfg, history=history)
    ref_params, ref_history = reference_train_sage(mg, y, cfg)
    assert history == ref_history
    for got, want in zip(params.tensors(), ref_params.tensors()):
        assert np.array_equal(got, want)


def test_node_features_aggregated_once_per_graph(monkeypatch):
    mg, y = separable_metagraph()
    calls = []  # per _neighbor_mean call: did it aggregate the node features?
    aggregate = metagraph._neighbor_mean

    def counted(W, X, safe):
        calls.append(X is mg.node_features)
        return aggregate(W, X, safe)

    monkeypatch.setattr(metagraph, "_neighbor_mean", counted)
    history = []
    train_sage(mg, y, SageConfig(in_dim=10, hidden=16, embed=8, epochs=12,
                                 seed=15), history=history)
    assert len(history) == 12
    assert calls.count(True) == 1
    assert len(calls) == 1 + 2 * len(history)

    calls.clear()
    p = init_sage(SageConfig(in_dim=10, hidden=16, embed=8, seed=15))
    sage_forward(mg, p)
    sage_forward(mg, p)
    assert calls == [True, False, True, False]
