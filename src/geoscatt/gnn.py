"""Graph Isomorphism Network for 128-dim molecule embeddings.

Fixed architecture: three message-passing layers, each updating node states
as MLP((1 + eps) * h_v + sum of neighbor states) with a two-affine MLP and
ReLU between (7->64->64, then 64->64->64 twice), sum readout over nodes,
two post-pooling affine maps 64->128->128 with ReLU between, and a 128->2
classifier head. All gradients are hand-derived; ``grad_check`` verifies
them against central finite differences, layer-staged so a full sweep over
every parameter stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, ShapeMismatch
from .fileio import read_tensors, write_tensors
from .molgraph import MolecularGraph
from .optim import Adam

GIN_LAYER_DIMS = ((7, 64, 64), (64, 64, 64), (64, 64, 64))
POOL_DIMS = (64, 128, 128)
N_CLASSES = 2
EMBED_DIM = POOL_DIMS[-1]

# tensor order in GINParams.tensors() and the GPRM file:
#   per layer k: W1_k, b1_k, W2_k, b2_k  (k = 1..3)
#   then P1, c1, P2, c2, then head C, d
_STAGE_OF_TENSOR = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4]


@dataclass
class GINParams:
    layers: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    pool_proj: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    head: tuple[np.ndarray, np.ndarray]
    eps: tuple[float, ...] = (0.0, 0.0, 0.0)
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
        return _params_from_tensors(ts, self.eps, self.readout)

    def save(self, path) -> None:
        write_tensors(path, self.tensors())

    @classmethod
    def load(cls, path, eps=(0.0, 0.0, 0.0), readout="sum") -> "GINParams":
        return _params_from_tensors(read_tensors(path), eps, readout)


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


def _params_from_tensors(ts, eps, readout) -> GINParams:
    if len(ts) != len(_STAGE_OF_TENSOR):
        raise ShapeMismatch(f"expected {len(_STAGE_OF_TENSOR)} tensors, got {len(ts)}")
    layers = [tuple(ts[4 * k:4 * k + 4]) for k in range(3)]
    return GINParams(layers=layers, pool_proj=tuple(ts[12:16]),
                     head=tuple(ts[16:18]), eps=eps, readout=readout)


@dataclass
class _Forward:
    node_states: list[np.ndarray]   # h_0 .. h_3
    relu_inputs: list[np.ndarray]   # z1 per layer
    pooled: np.ndarray
    pool_relu_input: np.ndarray
    embedding: np.ndarray
    logits: np.ndarray


def _run_layers(A, p: GINParams, start: int, states: list[np.ndarray],
                relu_inputs: list[np.ndarray]) -> None:
    h = states[start]
    for k in range(start, 3):
        w1, b1, w2, b2 = p.layers[k]
        agg = (1.0 + p.eps[k]) * h + A @ h
        z1 = agg @ w1 + b1
        relu_inputs[k] = z1
        h = np.maximum(z1, 0.0) @ w2 + b2
        states[k + 1] = h


def _forward(g: MolecularGraph, p: GINParams, from_stage: int = 0,
             cache: _Forward | None = None) -> _Forward:
    """Forward pass, optionally restarted from a cached stage.

    Stages: 0-2 the three GIN layers, 3 the post-pooling projections,
    4 the classifier head.
    """
    if g.node_features.shape[1] != GIN_LAYER_DIMS[0][0]:
        raise ShapeMismatch(
            f"expected {GIN_LAYER_DIMS[0][0]} node features, "
            f"got {g.node_features.shape[1]}")
    A = g.adjacency()

    if cache is None or from_stage == 0:
        states = [g.node_features] + [None] * 3
        relu_inputs = [None] * 3
        _run_layers(A, p, 0, states, relu_inputs)
    else:
        states = list(cache.node_states)
        relu_inputs = list(cache.relu_inputs)
        if from_stage <= 2:
            _run_layers(A, p, from_stage, states, relu_inputs)

    if from_stage <= 3 or cache is None:
        if p.readout == "mean":
            pooled = states[3].mean(axis=0)
        else:
            pooled = states[3].sum(axis=0)
        p1, c1, p2, c2 = p.pool_proj
        z_pool = pooled @ p1 + c1
        embedding = np.maximum(z_pool, 0.0) @ p2 + c2
    else:
        pooled = cache.pooled
        z_pool = cache.pool_relu_input
        embedding = cache.embedding

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


def cross_entropy(logits: np.ndarray, label: int) -> float:
    shifted = logits - np.max(logits)
    return float(np.log(np.sum(np.exp(shifted))) - shifted[label])


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
        agg = (1.0 + p.eps[k]) * h_prev + A @ h_prev
        d_w1 = agg.T @ d_z1
        d_b1 = d_z1.sum(axis=0)
        d_agg = d_z1 @ w1.T
        dh = (1.0 + p.eps[k]) * d_agg + A.T @ d_agg
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
    batch_size: int = 0          # 0 = full batch; otherwise fixed-order chunks
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
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
    """Adam on mean cross-entropy; returns the best-validation checkpoint."""
    if not train or not val:
        raise DegenerateLabels("both train and validation splits must be non-empty")
    if len(set(train_labels)) < 2:
        raise DegenerateLabels("training labels are single-class")

    params = init_gin(cfg.seed, readout=cfg.readout)
    tensors = params.tensors()
    opt = Adam(tensors, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
               eps=cfg.adam_eps, weight_decay=cfg.weight_decay)

    n = len(train)
    chunk = cfg.batch_size if 0 < cfg.batch_size < n else n
    best = params.copy()
    best_val = np.inf
    stale = 0

    for epoch in range(cfg.epochs):
        for start in range(0, n, chunk):
            batch = range(start, min(start + chunk, n))
            grads = [np.zeros_like(t) for t in tensors]
            for i in batch:
                _, gs = loss_and_grads(train[i], params, train_labels[i])
                for acc, gr in zip(grads, gs):
                    acc += gr
            for acc in grads:
                acc /= len(batch)
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

    Every parameter is perturbed by +-h; evaluation restarts from the
    first network stage the parameter feeds, using cached upstream
    activations (exact, since upstream does not depend on it). Parameters
    whose perturbation flips a ReLU sign, or that sit within 1e-8 of a
    kink, are excluded: the loss is not differentiable there. The
    relative-error denominator is floored at ``denom_floor``: central
    differences carry an absolute noise floor near eps*|loss|/h plus an
    h^2 truncation term, so gradients below the floor are effectively
    compared absolutely (at ~1e-9 here) rather than relatively.
    """
    base = _forward(g, p)
    analytic = _backward(g, p, base, label)
    tensors = p.tensors()

    worst = 0.0
    for ti, tensor in enumerate(tensors):
        stage = _STAGE_OF_TENSOR[ti]
        flat = tensor.reshape(-1)
        ga = analytic[ti].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = _forward(g, p, from_stage=stage, cache=base)
            flat[idx] = orig - h
            down = _forward(g, p, from_stage=stage, cache=base)
            flat[idx] = orig

            if _kink_flip(up, down, stage):
                continue
            gf = (cross_entropy(up.logits, label)
                  - cross_entropy(down.logits, label)) / (2.0 * h)
            err = abs(ga[idx] - gf) / max(abs(ga[idx]), abs(gf), denom_floor)
            worst = max(worst, err)
    return worst


def _kink_flip(up: _Forward, down: _Forward, stage: int) -> bool:
    for k in range(stage, 3):
        zu, zd = up.relu_inputs[k], down.relu_inputs[k]
        if np.any((zu > 0) != (zd > 0)) or np.any(np.abs(zu) < 1e-8):
            return True
    if stage <= 3:
        zu, zd = up.pool_relu_input, down.pool_relu_input
        if np.any((zu > 0) != (zd > 0)) or np.any(np.abs(zu) < 1e-8):
            return True
    return False
