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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, ShapeMismatch, ZeroVariance
from .fileio import read_tensors, write_tensors
from .optim import Adam, check_gradients


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
    in_dim: int = 595
    hidden: int = 128
    embed: int = 64
    n_classes: int = 2
    dropout: float = 0.5
    lr: float = 1e-3
    weight_decay: float = 1e-5
    epochs: int = 1000
    patience: int = 50
    seed: int = 0


@dataclass
class SageParams:
    w1: np.ndarray   # (2*in_dim, hidden)
    b1: np.ndarray
    w2: np.ndarray   # (2*hidden, embed)
    b2: np.ndarray
    wc: np.ndarray   # (embed, n_classes)
    bc: np.ndarray
    dropout: float = 0.5

    def tensors(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.wc, self.bc]

    def copy(self) -> "SageParams":
        return SageParams(*[t.copy() for t in self.tensors()], dropout=self.dropout)

    def save(self, path) -> None:
        write_tensors(path, self.tensors())

    @classmethod
    def load(cls, path, dropout: float = 0.5) -> "SageParams":
        return cls(*read_tensors(path), dropout=dropout)


def init_sage(cfg: SageConfig) -> SageParams:
    rng = np.random.default_rng(cfg.seed)

    def affine(n_in, n_out):
        std = np.sqrt(2.0 / n_in)
        return rng.normal(0.0, std, (n_in, n_out)), np.zeros(n_out)

    w1, b1 = affine(2 * cfg.in_dim, cfg.hidden)
    w2, b2 = affine(2 * cfg.hidden, cfg.embed)
    wc, bc = affine(cfg.embed, cfg.n_classes)
    return SageParams(w1, b1, w2, b2, wc, bc, dropout=cfg.dropout)


@dataclass
class _SageForward:
    agg0: np.ndarray
    z1: np.ndarray
    dropped: np.ndarray
    drop_scale: np.ndarray | None
    agg1: np.ndarray
    z2: np.ndarray
    logits: np.ndarray


def _neighbor_mean(W: np.ndarray, H: np.ndarray) -> np.ndarray:
    rowsum = W.sum(axis=1, keepdims=True)
    safe = np.where(rowsum > 0, rowsum, 1.0)
    return (W @ H) / safe


def _sage_forward_full(mg: MetaGraph, p: SageParams, dropout_active: bool,
                       rng: np.random.Generator | None) -> _SageForward:
    """Forward pass; a tensor with a leading batch axis evaluates a stack."""
    H = mg.node_features
    if 2 * H.shape[1] != p.w1.shape[-2]:
        raise ShapeMismatch(
            f"features have dim {H.shape[1]} but layer 1 expects "
            f"{p.w1.shape[-2] // 2}")

    agg0 = _neighbor_mean(mg.weights, H)
    z1 = np.concatenate([H, agg0], axis=-1) @ p.w1 + p.b1
    r1 = np.maximum(z1, 0.0)

    drop_scale = None
    if dropout_active and p.dropout > 0:
        keep = (rng.random(r1.shape) >= p.dropout)
        drop_scale = keep / (1.0 - p.dropout)
        dropped = r1 * drop_scale
    else:
        dropped = r1

    agg1 = _neighbor_mean(mg.weights, dropped)
    z2 = np.concatenate([dropped, agg1], axis=-1) @ p.w2 + p.b2
    logits = z2 @ p.wc + p.bc
    return _SageForward(agg0=agg0, z1=z1, dropped=dropped,
                        drop_scale=drop_scale, agg1=agg1, z2=z2, logits=logits)


def sage_forward(mg: MetaGraph, p: SageParams, dropout_active: bool = False,
                 seed: int = 0) -> np.ndarray:
    """Logits (n x n_classes) for every meta-graph node."""
    rng = np.random.default_rng(seed) if dropout_active else None
    return _sage_forward_full(mg, p, dropout_active, rng).logits


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


def _sage_backward(mg: MetaGraph, p: SageParams, fw: _SageForward,
                   labels: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
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

    cat2 = np.hstack([fw.dropped, fw.agg1])
    d_w2 = cat2.T @ d_z2
    d_b2 = d_z2.sum(axis=0)
    d_cat2 = d_z2 @ p.w2.T
    hidden = fw.dropped.shape[1]
    d_dropped = d_cat2[:, :hidden]
    d_agg1 = d_cat2[:, hidden:]

    rowsum = mg.weights.sum(axis=1, keepdims=True)
    safe = np.where(rowsum > 0, rowsum, 1.0)
    d_dropped = d_dropped + mg.weights.T @ (d_agg1 / safe)

    d_r1 = d_dropped * fw.drop_scale if fw.drop_scale is not None else d_dropped
    d_z1 = d_r1 * (fw.z1 > 0)

    H = mg.node_features
    cat1 = np.hstack([H, fw.agg0])
    d_w1 = cat1.T @ d_z1
    d_b1 = d_z1.sum(axis=0)
    return [d_w1, d_b1, d_w2, d_b2, d_wc, d_bc]


def sage_loss_and_grads(mg: MetaGraph, p: SageParams, labels: np.ndarray,
                        mask: np.ndarray, dropout_active: bool = False,
                        rng: np.random.Generator | None = None,
                        ) -> tuple[float, list[np.ndarray]]:
    fw = _sage_forward_full(mg, p, dropout_active, rng)
    loss = masked_cross_entropy(fw.logits, labels, mask)
    return loss, _sage_backward(mg, p, fw, labels, mask)


def train_sage(mg: MetaGraph, labels: np.ndarray, cfg: SageConfig,
               history: list | None = None) -> SageParams:
    """Transductive training with early stopping on validation loss."""
    labels = np.asarray(labels, dtype=int)
    if mg.train_mask is None:
        raise ShapeMismatch("meta-graph masks not set")
    if len(np.unique(labels[mg.train_mask])) < 2:
        raise DegenerateLabels("training mask covers a single class")

    params = init_sage(cfg)
    tensors = params.tensors()
    opt = Adam(tensors, lr=cfg.lr, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)

    best = params.copy()
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        _, grads = sage_loss_and_grads(mg, params, labels, mg.train_mask,
                                       dropout_active=True, rng=rng)
        opt.step(tensors, grads)

        eval_logits = sage_forward(mg, params, dropout_active=False)
        train_loss = masked_cross_entropy(eval_logits, labels, mg.train_mask)
        val_loss = masked_cross_entropy(eval_logits, labels, mg.val_mask)
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


def sage_grad_check(mg: MetaGraph, p: SageParams, labels: np.ndarray,
                    mask: np.ndarray, h: float = 1e-5,
                    denom_floor: float = 1e-3) -> float:
    """Central-difference check of the SAGE backward pass, dropout off.

    Every entry is skipped when a first-layer ReLU input is within 1e-8 of
    zero; otherwise, when one flips sign across +-h.
    """
    base = _sage_forward_full(mg, p, False, None)
    base_near_kink = bool(np.any(np.abs(base.z1) < 1e-8))
    tensors = p.tensors()

    def loss(ti, stack):
        ts = list(tensors)
        # every bias is per node and needs a node axis to broadcast over
        ts[ti] = stack[:, None] if stack.ndim == 2 else stack
        fw = _sage_forward_full(mg, SageParams(*ts), False, None)
        return (masked_cross_entropy(fw.logits, labels, mask),
                [np.broadcast_to(fw.z1, (len(stack),) + base.z1.shape)])

    def kinked(zu, zd):
        return base_near_kink | ((zu > 0) != (zd > 0))

    return check_gradients(tensors, _sage_backward(mg, p, base, labels, mask),
                           loss, kinked, h, denom_floor)
