"""Graph Isomorphism Network for 128-dim molecule embeddings.

Fixed architecture: three message-passing layers, each updating node states
as MLP(h_v + sum of neighbor states) (GIN-0) with a two-affine MLP and
ReLU between (7->64->64, then 64->64->64 twice), sum or mean readout over
nodes, two post-pooling affine maps 64->128->128 with ReLU between, and a
128->2 classifier head. All gradients are hand-derived; ``grad_check``
verifies them against central finite differences, perturbing a chunk of
entries per batched forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, ShapeMismatch
from .fileio import read_tensors, write_tensors
from .molgraph import MolecularGraph
from .optim import Adam, check_gradients

GIN_LAYER_DIMS = ((7, 64, 64), (64, 64, 64), (64, 64, 64))
POOL_DIMS = (64, 128, 128)
N_CLASSES = 2
EMBED_DIM = POOL_DIMS[-1]

# tensor order in GINParams.tensors() and the GPRM file:
#   per layer k: W1_k, b1_k, W2_k, b2_k  (k = 1..3)
#   then P1, c1, P2, c2, then head C, d
N_TENSORS = 18


@dataclass
class GINParams:
    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    pool_proj: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    head: tuple[np.ndarray, np.ndarray]
    readout: str = "sum"  # sum | mean

    def tensors(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers:
            out.extend(layer)
        out.extend(self.pool_proj)
        out.extend(self.head)
        return out

    def copy(self) -> "GINParams":
        ts = [t.copy() for t in self.tensors()]
        return _params_from_tensors(ts, self.readout)

    def save(self, path) -> None:
        write_tensors(path, self.tensors())

    @classmethod
    def load(cls, path, readout="sum") -> "GINParams":
        return _params_from_tensors(read_tensors(path), readout)


def init_gin(seed: int, scale: float = 0.05, readout: str = "sum") -> GINParams:
    """Random initialization, deterministic per seed.

    The default std is deliberately small: node features are raw physical
    quantities (masses up to ~200) and the readout sums over atoms, so
    He-sized weights saturate the softmax before training starts.
    """
    rng = np.random.default_rng(seed)

    def affine(n_in, n_out):
        std = scale if scale is not None else np.sqrt(2.0 / n_in)
        return rng.normal(0.0, std, (n_in, n_out)), np.zeros(n_out)

    layers = []
    for n_in, n_hidden, n_out in GIN_LAYER_DIMS:
        w1, b1 = affine(n_in, n_hidden)
        w2, b2 = affine(n_hidden, n_out)
        layers.append((w1, b1, w2, b2))
    p1, c1 = affine(POOL_DIMS[0], POOL_DIMS[1])
    p2, c2 = affine(POOL_DIMS[1], POOL_DIMS[2])
    head_w, head_b = affine(EMBED_DIM, N_CLASSES)
    return GINParams(layers=layers, pool_proj=(p1, c1, p2, c2),
                     head=(head_w, head_b), readout=readout)


def _params_from_tensors(ts, readout) -> GINParams:
    if len(ts) != N_TENSORS:
        raise ShapeMismatch(f"expected {N_TENSORS} tensors, got {len(ts)}")
    layers = [tuple(ts[4 * k:4 * k + 4]) for k in range(3)]
    return GINParams(layers=layers, pool_proj=tuple(ts[12:16]),
                     head=tuple(ts[16:18]), readout=readout)


@dataclass
class _Forward:
    node_states: list[np.ndarray]   # h_0 .. h_3
    relu_inputs: list[np.ndarray]   # z1 per layer
    pooled: np.ndarray
    pool_relu_input: np.ndarray
    embedding: np.ndarray
    logits: np.ndarray


def _forward(g: MolecularGraph, p: GINParams) -> _Forward:
    """Forward pass of one molecule. Reductions run over the node axis
    counted from the end, so a tensor with leading batch axes evaluates a
    stack of parameter sets at once."""
    if g.node_features.shape[1] != GIN_LAYER_DIMS[0][0]:
        raise ShapeMismatch(
            f"expected {GIN_LAYER_DIMS[0][0]} node features, "
            f"got {g.node_features.shape[1]}")
    A = g.adjacency()

    h = g.node_features
    states = [h]
    relu_inputs = []
    for w1, b1, w2, b2 in p.layers:
        z1 = (h + A @ h) @ w1 + b1
        relu_inputs.append(z1)
        h = np.maximum(z1, 0.0) @ w2 + b2
        states.append(h)

    if p.readout == "mean":
        pooled = h.mean(axis=-2)
    else:
        pooled = h.sum(axis=-2)
    p1, c1, p2, c2 = p.pool_proj
    z_pool = pooled @ p1 + c1
    embedding = np.maximum(z_pool, 0.0) @ p2 + c2

    head_w, head_b = p.head
    logits = embedding @ head_w + head_b
    return _Forward(node_states=states, relu_inputs=relu_inputs,
                    pooled=pooled, pool_relu_input=z_pool,
                    embedding=embedding, logits=logits)


def gin_forward(g: MolecularGraph, p: GINParams) -> tuple[np.ndarray, np.ndarray]:
    """(128-dim embedding, 2 class logits) for one molecule."""
    fw = _forward(g, p)
    return fw.embedding, fw.logits


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, label: int):
    """Loss of one logit vector, or one loss per row of a stack of them."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return np.log(np.sum(np.exp(shifted), axis=-1)) - shifted[..., label]


def _backward(g: MolecularGraph, p: GINParams, fw: _Forward,
              label: int) -> list[np.ndarray]:
    """Gradient of the cross-entropy loss w.r.t. every tensor."""
    A = g.adjacency()
    n = g.n_atoms

    probs = softmax(fw.logits)
    dlogits = probs.copy()
    dlogits[label] -= 1.0

    head_w, _ = p.head
    d_head_w = np.outer(fw.embedding, dlogits)
    d_head_b = dlogits
    d_emb = head_w @ dlogits

    p1, c1, p2, c2 = p.pool_proj
    r_pool = np.maximum(fw.pool_relu_input, 0.0)
    d_p2 = np.outer(r_pool, d_emb)
    d_c2 = d_emb
    d_r_pool = p2 @ d_emb
    d_z_pool = d_r_pool * (fw.pool_relu_input > 0)
    d_p1 = np.outer(fw.pooled, d_z_pool)
    d_c1 = d_z_pool
    d_pooled = p1 @ d_z_pool

    if p.readout == "mean":
        dh = np.tile(d_pooled / n, (n, 1))
    else:
        dh = np.tile(d_pooled, (n, 1))

    layer_grads = []
    for k in (2, 1, 0):
        w1, b1, w2, b2 = p.layers[k]
        z1 = fw.relu_inputs[k]
        r = np.maximum(z1, 0.0)
        d_w2 = r.T @ dh
        d_b2 = dh.sum(axis=0)
        d_r = dh @ w2.T
        d_z1 = d_r * (z1 > 0)
        h_prev = fw.node_states[k]
        agg = h_prev + A @ h_prev
        d_w1 = agg.T @ d_z1
        d_b1 = d_z1.sum(axis=0)
        d_agg = d_z1 @ w1.T
        dh = d_agg + A.T @ d_agg
        layer_grads.append([d_w1, d_b1, d_w2, d_b2])

    grads = []
    for k in range(3):
        grads.extend(layer_grads[2 - k])
    grads.extend([d_p1, d_c1, d_p2, d_c2])
    grads.extend([d_head_w, d_head_b])
    return grads


def loss_and_grads(g: MolecularGraph, p: GINParams,
                   label: int) -> tuple[float, list[np.ndarray]]:
    fw = _forward(g, p)
    return cross_entropy(fw.logits, label), _backward(g, p, fw, label)


@dataclass
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 200
    seed: int = 0
    weight_decay: float = 0.0
    patience: int = 50
    readout: str = "sum"         # sum | mean, as in GINParams

    def __post_init__(self):
        if self.lr < 0:
            raise ShapeMismatch(f"learning rate must be >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ShapeMismatch(f"epochs must be >= 1, got {self.epochs}")


def dataset_loss(graphs: list[MolecularGraph], labels: list[int],
                 p: GINParams) -> float:
    total = 0.0
    for g, y in zip(graphs, labels):
        total += cross_entropy(_forward(g, p).logits, y)
    return total / len(graphs)


def train_gin(train: list[MolecularGraph], train_labels: list[int],
              val: list[MolecularGraph], val_labels: list[int],
              cfg: TrainConfig, history: list | None = None) -> GINParams:
    """Full-batch Adam on mean cross-entropy; returns the best-validation
    checkpoint."""
    if not train or not val:
        raise DegenerateLabels("both train and validation splits must be non-empty")
    if len(set(train_labels)) < 2:
        raise DegenerateLabels("training labels are single-class")

    params = init_gin(cfg.seed, readout=cfg.readout)
    tensors = params.tensors()
    opt = Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay)

    best = params.copy()
    best_val = np.inf
    stale = 0

    for epoch in range(cfg.epochs):
        grads = [np.zeros_like(t) for t in tensors]
        for g, y in zip(train, train_labels):
            _, gs = loss_and_grads(g, params, y)
            for acc, gr in zip(grads, gs):
                acc += gr
        for acc in grads:
            acc /= len(train)
        opt.step(tensors, grads)

        train_loss = dataset_loss(train, train_labels, params)
        val_loss = dataset_loss(val, val_labels, params)
        if history is not None:
            history.append((epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()
            stale = 0
        else:
            stale += 1
            if stale > cfg.patience:
                break
    return best


def embed_molecules(graphs: list[MolecularGraph], p: GINParams,
                    mapper=map) -> np.ndarray:
    rows = list(mapper(lambda g: _forward(g, p).embedding, graphs))
    return np.array(rows)


# --- gradient verification ---------------------------------------------------

def grad_check(p: GINParams, g: MolecularGraph, label: int,
               h: float = 1e-5, denom_floor: float = 1e-3) -> float:
    """Max relative error of the analytic gradient vs central differences.

    An entry is skipped when a ReLU input at or after the stage its tensor
    feeds (the three layers, then pooling) flips sign across +-h or lies
    within 1e-8 of zero at +h.
    """
    base = _forward(g, p)
    tensors = p.tensors()
    base_relu = base.relu_inputs + [base.pool_relu_input]

    def loss(ti, stack):
        # A singleton axis per copy keeps the pooled vector a 1 x d row, so
        # it rounds as in the unbatched pass; a per-node bias also needs a
        # node axis.
        node_bias = ti < 12 and stack.ndim == 2
        ts = list(tensors)
        ts[ti] = stack[:, None, None] if node_bias else stack[:, None]
        fw = _forward(g, _params_from_tensors(ts, p.readout))
        relu = (fw.relu_inputs + [fw.pool_relu_input])[ti // 4:]
        return cross_entropy(fw.logits, label)[:, 0], [
            np.broadcast_to(z, (len(stack), 1) + zb.shape)
            for z, zb in zip(relu, base_relu[ti // 4:])]

    def kinked(zu, zd):
        return ((zu > 0) != (zd > 0)) | (np.abs(zu) < 1e-8)

    return check_gradients(tensors, _backward(g, p, base, label), loss,
                           kinked, h, denom_floor)
