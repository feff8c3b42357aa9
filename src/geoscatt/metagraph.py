"""Molecule-level meta-graph and the weighted two-layer GraphSAGE classifier.

Every molecule is a node carrying its scattering vector; edges connect all
pairs with Gaussian-kernel weights derived from cosine similarity:

    cos_sim   = <s_i, s_j> / (|s_i| |s_j|)
    sim_norm  = (cos_sim + 1) / 2
    d         = 1 - sim_norm
    W_ij      = exp(-d^2 / (2 sigma^2)) / max_kl exp(-d_kl^2 / (2 sigma^2))

with sigma the population standard deviation of the off-diagonal distances.
The diagonal never enters sigma, the max, or aggregation. Training is
transductive: the full graph is forwarded each epoch and the loss is
masked to training nodes.

Layer 1 of the GraphSAGE reads ``[H, rownorm(W) H]``, which depends on no
parameter: it is built once per graph, with the row-sum guard of the
normalization, by ``train_sage`` for a whole run and by ``sage_forward``
for its call. Within a run, each epoch's eval forward hands its layer-1
pre-activation to the next training step, which starts from the same
parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, ShapeMismatch, ZeroVariance
from .fileio import read_tensors, write_tensors
from .optim import Adam, check_gradients

N_CLASSES = 2


@dataclass
class MetaGraph:
    node_features: np.ndarray          # n x F scattering vectors
    weights: np.ndarray                # n x n symmetric, zero diagonal
    sigma_kernel: float
    train_mask: np.ndarray = None
    val_mask: np.ndarray = None
    test_mask: np.ndarray = None

    @property
    def n(self) -> int:
        return self.node_features.shape[0]

    def set_masks(self, train, val, test) -> None:
        masks = [np.asarray(m, dtype=bool) for m in (train, val, test)]
        stacked = np.stack(masks)
        if stacked.sum(axis=0).max() > 1 or stacked.sum(axis=0).min() < 1:
            raise ShapeMismatch("masks must be disjoint and cover every node")
        self.train_mask, self.val_mask, self.test_mask = masks


def build_metagraph(S: np.ndarray) -> MetaGraph:
    """Gaussian-kernel weights over cosine distances between embeddings."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if n < 2:
        raise ShapeMismatch(f"meta-graph needs at least 2 molecules, got {n}")

    norms = np.linalg.norm(S, axis=1) + 1e-12
    cos = (S @ S.T) / np.outer(norms, norms)
    cos = 0.5 * (cos + cos.T)  # exact symmetry before any entrywise map
    dist = 1.0 - (cos + 1.0) / 2.0

    off = ~np.eye(n, dtype=bool)
    sigma = float(np.std(dist[off]))
    if sigma == 0.0:
        raise ZeroVariance("all pairwise embedding distances are equal")

    kernel = np.exp(-dist * dist / (2.0 * sigma * sigma))
    np.fill_diagonal(kernel, 0.0)
    kernel /= kernel[off].max()
    np.fill_diagonal(kernel, 0.0)
    return MetaGraph(node_features=S, weights=kernel, sigma_kernel=sigma)


def sparsify_topk(mg: MetaGraph, k: int) -> MetaGraph:
    """Keep each node's k strongest edges (union over rows, so the matrix
    stays symmetric); dense aggregation over thousands of molecules is
    O(n^2 F) per epoch and this is the escape hatch. Exact dense mode is
    the reference semantics; default off.
    """
    if k < 1:
        raise ShapeMismatch(f"top-k must be >= 1, got {k}")
    W = mg.weights
    n = mg.n
    keep = np.zeros_like(W, dtype=bool)
    for i in range(n):
        top = np.argsort(-W[i], kind="stable")[:k]
        keep[i, top] = True
    keep |= keep.T
    sparse = np.where(keep, W, 0.0)
    np.fill_diagonal(sparse, 0.0)
    out = MetaGraph(node_features=mg.node_features, weights=sparse,
                    sigma_kernel=mg.sigma_kernel)
    if mg.train_mask is not None:
        out.set_masks(mg.train_mask, mg.val_mask, mg.test_mask)
    return out


@dataclass
class SageConfig:
    """The ``[sage]`` section of the run config."""
    hidden: int = 128
    embed: int = 64
    dropout: float = 0.5
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 1000
    patience: int = 50


@dataclass
class SageParams:
    w1: np.ndarray   # (2*in_dim, hidden)
    b1: np.ndarray
    w2: np.ndarray   # (2*hidden, embed)
    b2: np.ndarray
    wc: np.ndarray   # (embed, N_CLASSES)
    bc: np.ndarray

    def tensors(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.wc, self.bc]

    def copy(self) -> "SageParams":
        return SageParams(*[t.copy() for t in self.tensors()])

    def save(self, path) -> None:
        write_tensors(path, self.tensors())

    @classmethod
    def load(cls, path) -> "SageParams":
        return cls(*read_tensors(path))


def init_sage(cfg: SageConfig, in_dim: int, seed: int) -> SageParams:
    rng = np.random.default_rng(seed)

    def affine(n_in, n_out):
        std = np.sqrt(2.0 / n_in)
        return rng.normal(0.0, std, (n_in, n_out)), np.zeros(n_out)

    w1, b1 = affine(2 * in_dim, cfg.hidden)
    w2, b2 = affine(2 * cfg.hidden, cfg.embed)
    wc, bc = affine(cfg.embed, N_CLASSES)
    return SageParams(w1, b1, w2, b2, wc, bc)


@dataclass
class _GraphTerms:
    """The parameter-free part of the network's input, built once per graph."""
    x0: np.ndarray      # [H, rownorm(W) H], layer 1's input
    safe: np.ndarray    # row sums of W, 1 for a row without edges


@dataclass
class _SageForward:
    z1: np.ndarray
    drop_scale: np.ndarray | None
    x1: np.ndarray      # [dropped, rownorm(W) dropped], layer 2's input
    z2: np.ndarray
    logits: np.ndarray


def _neighbor_mean(W: np.ndarray, H: np.ndarray,
                   safe: np.ndarray) -> np.ndarray:
    # a division, not a product with 1/safe: the two differ in the last bit
    return (W @ H) / safe


def _graph_terms(mg: MetaGraph) -> _GraphTerms:
    H = mg.node_features
    rowsum = mg.weights.sum(axis=1, keepdims=True)
    safe = np.where(rowsum > 0, rowsum, 1.0)
    x0 = np.concatenate([H, _neighbor_mean(mg.weights, H, safe)], axis=-1)
    return _GraphTerms(x0=x0, safe=safe)


def _sage_forward_full(mg: MetaGraph, p: SageParams, terms: _GraphTerms,
                       dropout: float = 0.0,
                       rng: np.random.Generator | None = None,
                       z1: np.ndarray | None = None) -> _SageForward:
    """Forward pass; a tensor with a leading batch axis evaluates a stack.

    A positive ``dropout`` draws its mask from ``rng``. ``z1`` is layer 1's
    pre-activation when the caller already holds it at these parameters;
    dropout acts after it, so it serves either mode.
    """
    if terms.x0.shape[1] != p.w1.shape[-2]:
        raise ShapeMismatch(
            f"features have dim {terms.x0.shape[1] // 2} but layer 1 expects "
            f"{p.w1.shape[-2] // 2}")

    if z1 is None:
        z1 = terms.x0 @ p.w1 + p.b1
    r1 = np.maximum(z1, 0.0)

    drop_scale = None
    if dropout > 0:
        keep = (rng.random(r1.shape) >= dropout)
        drop_scale = keep / (1.0 - dropout)
        dropped = r1 * drop_scale
    else:
        dropped = r1

    agg1 = _neighbor_mean(mg.weights, dropped, terms.safe)
    x1 = np.concatenate([dropped, agg1], axis=-1)
    z2 = x1 @ p.w2 + p.b2
    logits = z2 @ p.wc + p.bc
    return _SageForward(z1=z1, drop_scale=drop_scale, x1=x1, z2=z2,
                        logits=logits)


def sage_forward(mg: MetaGraph, p: SageParams) -> np.ndarray:
    """Logits (n x N_CLASSES) for every meta-graph node, dropout off."""
    return _sage_forward_full(mg, p, _graph_terms(mg)).logits


def masked_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                         mask: np.ndarray):
    """Mean loss over the masked nodes, per stacked logit set if batched."""
    z = logits[..., mask, :]
    y = labels[mask]
    shifted = z - z.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    picked = log_probs[..., np.arange(len(y)), y]
    # a stacked pick comes out node-major; made contiguous, each row is
    # summed in the same order as an unbatched one
    return -np.ascontiguousarray(picked).mean(axis=-1)


def _sage_backward(mg: MetaGraph, p: SageParams, terms: _GraphTerms,
                   fw: _SageForward, labels: np.ndarray,
                   mask: np.ndarray) -> list[np.ndarray]:
    n_masked = int(mask.sum())
    shifted = fw.logits - fw.logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    dlogits = np.zeros_like(fw.logits)
    dlogits[mask] = probs[mask]
    dlogits[mask, labels[mask]] -= 1.0
    dlogits /= n_masked

    d_wc = fw.z2.T @ dlogits
    d_bc = dlogits.sum(axis=0)
    d_z2 = dlogits @ p.wc.T

    d_w2 = fw.x1.T @ d_z2
    d_b2 = d_z2.sum(axis=0)
    d_x1 = d_z2 @ p.w2.T
    hidden = fw.z1.shape[1]
    d_dropped = (d_x1[:, :hidden]
                 + mg.weights.T @ (d_x1[:, hidden:] / terms.safe))

    d_r1 = d_dropped * fw.drop_scale if fw.drop_scale is not None else d_dropped
    d_z1 = d_r1 * (fw.z1 > 0)

    d_w1 = terms.x0.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    return [d_w1, d_b1, d_w2, d_b2, d_wc, d_bc]


def sage_loss_and_grads(mg: MetaGraph, p: SageParams, labels: np.ndarray,
                        mask: np.ndarray, dropout: float = 0.0,
                        rng: np.random.Generator | None = None,
                        terms: _GraphTerms | None = None,
                        z1: np.ndarray | None = None,
                        ) -> tuple[float, list[np.ndarray]]:
    """Masked loss and its gradients. ``terms`` is the graph's
    parameter-free input when the caller built it already; ``z1`` is
    layer 1's pre-activation at ``p`` when the caller holds it."""
    if terms is None:
        terms = _graph_terms(mg)
    fw = _sage_forward_full(mg, p, terms, dropout, rng, z1)
    loss = masked_cross_entropy(fw.logits, labels, mask)
    return loss, _sage_backward(mg, p, terms, fw, labels, mask)


def train_sage(mg: MetaGraph, labels: np.ndarray, cfg: SageConfig,
               seed: int, history: list | None = None,
               timings: dict | None = None) -> SageParams:
    """Transductive training with early stopping on validation loss.

    ``seed`` draws the initial parameters and the dropout masks; layer 1's
    width follows the node features.

    Layer 1's input ``[H, rownorm(W) H]`` and the row-sum guard depend on
    no parameter, so they are built once, before the first epoch, and
    serve every forward and backward of the run. Each epoch's eval forward
    runs at the parameters the next training step starts from; its layer-1
    pre-activation is handed to that step, and only the first step
    computes its own.

    ``timings``, when given, receives ``layer1_input_s`` (the one-time
    build) and ``epoch_s``: per epoch, the seconds of the training step
    and the eval forward with its losses.
    """
    labels = np.asarray(labels, dtype=int)
    if mg.train_mask is None:
        raise ShapeMismatch("meta-graph masks not set")
    if len(np.unique(labels[mg.train_mask])) < 2:
        raise DegenerateLabels("training mask covers a single class")

    params = init_sage(cfg, mg.node_features.shape[1], seed)
    tensors = params.tensors()
    opt = Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(seed)

    start = time.perf_counter()
    terms = _graph_terms(mg)
    layer1_input_s = time.perf_counter() - start
    epoch_s = []
    z1 = None

    best = params.copy()
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        start = time.perf_counter()
        _, grads = sage_loss_and_grads(mg, params, labels, mg.train_mask,
                                       cfg.dropout, rng, terms, z1)
        opt.step(tensors, grads)

        fw = _sage_forward_full(mg, params, terms)
        z1 = fw.z1
        train_loss = masked_cross_entropy(fw.logits, labels, mg.train_mask)
        val_loss = masked_cross_entropy(fw.logits, labels, mg.val_mask)
        epoch_s.append(time.perf_counter() - start)
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
    if timings is not None:
        timings["layer1_input_s"] = layer1_input_s
        timings["epoch_s"] = epoch_s
    return best


def sage_grad_check(mg: MetaGraph, p: SageParams, labels: np.ndarray,
                    mask: np.ndarray, h: float = 1e-5,
                    denom_floor: float = 1e-3) -> float:
    """Central-difference check of the SAGE backward pass, dropout off.

    Every entry is skipped when a first-layer ReLU input is within 1e-8 of
    zero; otherwise, when one flips sign across +-h.
    """
    terms = _graph_terms(mg)
    base = _sage_forward_full(mg, p, terms)
    base_near_kink = bool(np.any(np.abs(base.z1) < 1e-8))
    tensors = p.tensors()

    def loss(ti, stack):
        ts = list(tensors)
        # every bias is per node and needs a node axis to broadcast over
        ts[ti] = stack[:, None] if stack.ndim == 2 else stack
        fw = _sage_forward_full(mg, SageParams(*ts), terms)
        return (masked_cross_entropy(fw.logits, labels, mask),
                [np.broadcast_to(fw.z1, (len(stack),) + base.z1.shape)])

    def kinked(zu, zd):
        return base_near_kink | ((zu > 0) != (zd > 0))

    return check_gradients(
        tensors, _sage_backward(mg, p, terms, base, labels, mask),
        loss, kinked, h, denom_floor)
