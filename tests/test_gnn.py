import numpy as np
import pytest

from geoscatt import gnn
from geoscatt.errors import DegenerateLabels
from geoscatt.gnn import (
    EMBED_DIM,
    GIN_LAYER_DIMS,
    POOL_DIMS,
    GINParams,
    TrainConfig,
    cross_entropy,
    gin_forward,
    grad_check,
    init_gin,
    softmax,
    train_gin,
    _params_from_tensors,
)
from geoscatt.ingest import preprocess
from geoscatt.molgraph import Atom, Bond, MolecularGraph, permute
from geoscatt.optim import FD_CHUNK, Adam
from geoscatt.smiles import parse_smiles
from util import random_permutation

CHECK_SCALE = 0.08  # keeps logits O(1) so softmax gradients are informative


def identity_extended_params() -> GINParams:
    """Every affine map embeds its input unchanged into the first coords."""
    def embed(n_in, n_out):
        w = np.zeros((n_in, n_out))
        w[:min(n_in, n_out), :min(n_in, n_out)] = np.eye(min(n_in, n_out))
        return w, np.zeros(n_out)

    layers = []
    for n_in, n_hid, n_out in GIN_LAYER_DIMS:
        w1, b1 = embed(n_in, n_hid)
        w2, b2 = embed(n_hid, n_out)
        layers.append((w1, b1, w2, b2))
    p1, c1 = embed(POOL_DIMS[0], POOL_DIMS[1])
    p2, c2 = embed(POOL_DIMS[1], POOL_DIMS[2])
    hw, hb = embed(EMBED_DIM, 2)
    return GINParams(layers=layers, pool_proj=(p1, c1, p2, c2), head=(hw, hb))


def test_single_node_identity_maps_project_features():
    g = preprocess(parse_smiles("C"))
    emb, _ = gin_forward(g, identity_extended_params())
    # features are nonnegative, so the interleaved ReLUs are transparent
    assert np.allclose(emb[:7], g.node_features[0], atol=1e-12)
    assert np.allclose(emb[7:], 0.0)


def test_k2_pre_mlp_aggregation_arithmetic():
    x = np.array([1.0, 0.0, 3.0, 4.0, 0.0, 12.011, 4.0])
    g = MolecularGraph(atoms=[Atom(6), Atom(6)],
                       bonds=[Bond(0, 1, "single")]).finalize()
    for eps in (0.0, 0.3):
        agg = (1.0 + eps) * g.node_features + g.adjacency() @ g.node_features
        # both nodes share features x, so the update reads (2 + eps) x
        assert np.allclose(agg[0], (2.0 + eps) * g.node_features[0], atol=1e-12)
        assert np.allclose(agg[0], agg[1])


def test_embedding_permutation_invariance():
    rng = np.random.default_rng(2)
    p = init_gin(3, scale=CHECK_SCALE)
    for text in ("c1ccccc1O", "CC(C)CC#N", "O=[N+]([O-])c1ccc(N)cc1"):
        g = preprocess(parse_smiles(text))
        emb, _ = gin_forward(g, p)
        for _ in range(8):
            gp = permute(g, random_permutation(rng, g.n_atoms))
            emb_p, _ = gin_forward(gp, p)
            assert np.max(np.abs(emb_p - emb)) < 1e-9


def test_softmax_and_cross_entropy_basics():
    rng = np.random.default_rng(4)
    for _ in range(50):
        logits = rng.standard_normal(2) * rng.uniform(0.1, 30)
        probs = softmax(logits)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert cross_entropy(logits, 0) >= 0.0
        assert cross_entropy(logits, 1) >= 0.0


def test_gradients_match_finite_differences():
    mols = ["CCO", "c1ccccc1", "CC#N"]
    for i, text in enumerate(mols):
        g = preprocess(parse_smiles(text))
        p = init_gin(100 + i, scale=CHECK_SCALE)
        assert grad_check(p, g, i % 2) < 1e-6


def test_gradient_error_shrinks_with_h():
    g = preprocess(parse_smiles("c1ccccc1N"))
    p = init_gin(7, scale=CHECK_SCALE)
    errs = {h: grad_check(p, g, 1, h=h) for h in (1e-3, 1e-4, 1e-5)}
    # central differences: truncation term drops ~quadratically until
    # float roundoff takes over near h = 1e-5
    assert errs[1e-4] < errs[1e-3] / 4
    assert errs[1e-5] < errs[1e-3]
    assert errs[1e-5] < 1e-6


def test_grad_check_rejects_a_wrong_entry(monkeypatch):
    g = preprocess(parse_smiles("CCO"))
    p = init_gin(100, scale=CHECK_SCALE)
    backward = gnn._backward
    head_w = len(p.tensors()) - 2
    entry = FD_CHUNK + 3  # outside the first chunk of its tensor
    assert entry < p.tensors()[head_w].size

    def planted(*args):
        grads = backward(*args)
        grads[head_w].reshape(-1)[entry] += 1.0
        return grads

    monkeypatch.setattr(gnn, "_backward", planted)
    assert grad_check(p, g, 0) > 1e-2


def test_all_zero_parameters_stay_finite():
    g = preprocess(parse_smiles("CCO"))
    zeros = [np.zeros_like(t) for t in init_gin(0).tensors()]
    p = _params_from_tensors(zeros, "sum")
    emb, logits = gin_forward(g, p)
    assert np.all(np.isfinite(emb)) and np.all(np.isfinite(logits))
    assert np.isfinite(grad_check(p, g, 0))


def toy_dataset():
    """Linearly separable: class 1 molecules carry oxygen, class 0 none."""
    pos = ["CO", "CCO", "OCC(C)C", "CC(=O)C", "OCCO", "CC(=O)O",
           "OC(C)C", "CCOC", "CC(C)=O", "OCCCC"]
    neg = ["CC", "CCC", "CC(C)C", "CCCC", "CCN", "CC#N",
           "CNC", "CCCN", "NCCN", "CCCC(C)C"]
    graphs = [preprocess(parse_smiles(s)) for s in pos + neg]
    labels = [1] * len(pos) + [0] * len(neg)
    return graphs, labels


def test_training_fits_separable_toy_data():
    graphs, labels = toy_dataset()
    cfg = TrainConfig(lr=2e-3, epochs=200, seed=1, patience=200)
    history = []
    params = train_gin(graphs, labels, graphs, labels, cfg, history=history)
    final_train = min(h[1] for h in history)
    assert final_train < 0.1


def test_training_determinism_bitwise(tmp_path):
    graphs, labels = toy_dataset()
    cfg = TrainConfig(lr=1e-2, epochs=15, seed=9)
    a = train_gin(graphs, labels, graphs[:4], labels[:4], cfg)
    b = train_gin(graphs, labels, graphs[:4], labels[:4], cfg)
    pa, pb = tmp_path / "a.gprm", tmp_path / "b.gprm"
    a.save(pa)
    b.save(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_zero_learning_rate_freezes_parameters():
    graphs, labels = toy_dataset()
    cfg = TrainConfig(lr=0.0, epochs=5, seed=2)
    trained = train_gin(graphs, labels, graphs[:4], labels[:4], cfg)
    init = init_gin(2)
    for a, b in zip(trained.tensors(), init.tensors()):
        assert np.array_equal(a, b)


def test_single_class_training_rejected():
    graphs, _ = toy_dataset()
    with pytest.raises(DegenerateLabels):
        train_gin(graphs, [1] * len(graphs), graphs[:2], [1, 1],
                  TrainConfig(epochs=1))


def test_weight_decay_shrinks_parameters_without_data_gradient():
    p = init_gin(0, scale=0.1)
    tensors = p.tensors()
    opt = Adam(tensors, lr=1e-3, weight_decay=0.1)
    norms_before = [np.linalg.norm(t) for t in tensors]
    zero_grads = [np.zeros_like(t) for t in tensors]
    opt.step(tensors, zero_grads)
    for t, before in zip(tensors, norms_before):
        if before > 0:
            assert np.linalg.norm(t) < before


def test_parameter_file_roundtrip(tmp_path):
    p = init_gin(5)
    path = tmp_path / "gin.gprm"
    p.save(path)
    q = GINParams.load(path)
    for a, b in zip(p.tensors(), q.tensors()):
        assert np.array_equal(a, b)
