"""Geometric graph scattering: diffusion and tight Hann wavelet cascades.

The per-molecule feature vector concatenates the zeroth-order block (one
value per node-feature column) with the order-1..3 diffusion-scattering
coefficients over unrestricted wavelet paths. With the default
configuration (4 scales, depth 3, 7 node features) this gives
7 + 7*(4 + 16 + 64) = 595 values.

The zeroth-order block is the column-wise mean of the node features, which
no filter touches, so the vector needs only the lazy walk operator and no
Laplacian eigensystem. It keeps its ``hann.m0.f*`` labels so that existing
artifacts stay readable. The Hann bank (``hann_kernel``, ``hann_filters``,
``frame_spectrum``) remains available as a library.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidScaleParams
from .graphcore import walk_operator
from .molgraph import N_NODE_FEATURES, MolecularGraph

HANN_VARIANTS = ("paper-exact", "standard-hann")


@dataclass
class FilterBank:
    kind: str                      # diffusion | hann
    filters: list[np.ndarray]
    scales: int
    params: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.filters[0].shape[0]


@dataclass
class GGSConfig:
    """The ``[gst]`` section of the run config."""
    diffusion_scales: int = 4
    diffusion_depth: int = 3

    def total_dim(self) -> int:
        diff = sum(self.diffusion_scales ** m
                   for m in range(1, self.diffusion_depth + 1))
        return N_NODE_FEATURES * (1 + diff)


@dataclass
class GGSVector:
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) != len(self.labels):
            raise DimensionMismatch(
                f"{len(self.values)} values vs {len(self.labels)} labels")


def diffusion_filters(T: np.ndarray, J: int) -> FilterBank:
    """Dyadic-power filters of the lazy walk operator.

    H_0 = I + T and H_j = T^(2^(j-1)) - T^(2^j) for 1 <= j <= J-1, with
    powers formed by repeated squaring. The wavelets telescope:
    sum_{j>=1} H_j = T - T^(2^(J-1)).
    """
    if J < 1:
        raise InvalidScaleParams(f"need at least one diffusion scale, got {J}")
    n = T.shape[0]
    filters = [np.eye(n) + T]
    power = T.copy()
    for _ in range(1, J):
        squared = power @ power
        filters.append(power - squared)
        power = squared
    return FilterBank(kind="diffusion", filters=filters, scales=J)


def hann_kernel(lam: np.ndarray, J: int, R: float, e_max: float,
                variant: str) -> np.ndarray:
    """Hann window responses, one row per scale j = 0..J-1.

    Window centers sit at t_j = (j+1) * e_max / (J + 1 - R). The
    `paper-exact` variant evaluates the printed kernel literally,
    including the constant +0.5 phase inside the cosine and without
    support clipping; `standard-hann` is the textbook compact-support
    window 0.5 + 0.5*cos(a*x) on |x| <= pi/a, zero outside.
    """
    if variant not in HANN_VARIANTS:
        raise InvalidScaleParams(f"unknown hann variant {variant!r}")
    denom = J + 1 - R
    if denom == 0:
        raise InvalidScaleParams(f"window centers undefined: J+1 == R == {R}")
    if not 0 < R < J + 1:
        raise InvalidScaleParams(f"R={R} outside (0, {J + 1})")
    lam = np.asarray(lam, dtype=float)
    a = 2.0 * np.pi * denom / (R * e_max)
    out = np.empty((J, lam.size))
    for j in range(J):
        x = lam - (j + 1) * e_max / denom
        if variant == "paper-exact":
            out[j] = 0.5 + 0.5 * np.cos(a * x + 0.5)
        else:
            inside = np.abs(x) <= np.pi / a
            out[j] = np.where(inside, 0.5 + 0.5 * np.cos(a * x), 0.0)
    return out


def hann_filters(V: np.ndarray, lam: np.ndarray, J: int, R: float,
                 variant: str = "paper-exact") -> FilterBank:
    """Spectral filters H_j = V diag(psi_j(lam)) V^T over the given basis."""
    e_max = max(float(np.max(lam)), 1e-6)
    psi = hann_kernel(lam, J, R, e_max, variant)
    filters = [(V * psi[j]) @ V.T for j in range(J)]
    return FilterBank(kind="hann", filters=filters, scales=J,
                      params={"R": R, "e_max": e_max, "variant": variant})


def frame_spectrum(J: int, R: float, e_max: float, variant: str,
                   grid: np.ndarray) -> np.ndarray:
    """Eigenvalues of sum_j H_j^T H_j evaluated on a spectral grid."""
    psi = hann_kernel(grid, J, R, e_max, variant)
    return np.sum(psi * psi, axis=0)


def scatter_graph(X: np.ndarray, bank: FilterBank, depth: int,
                  ) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Scattering cascade over one graph signal.

    Returns (path, coefficients) pairs: the zeroth-order entry carries the
    column-wise mean of X under the empty path, and each order-m entry the
    column means of |H_{j_m}( ... |H_{j_1} X| ... )| for paths enumerated
    lexicographically with unrestricted scale repetition.

    Each order is one stacked product of all filters with all signals of
    the previous order; expanding parents in order with the scale index
    innermost keeps the paths lexicographic.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != bank.dim:
        raise DimensionMismatch(
            f"signal has {X.shape[0]} rows, bank is {bank.dim}x{bank.dim}")
    if depth < 0:
        raise DimensionMismatch(f"depth must be >= 0, got {depth}")

    H = np.stack(bank.filters)                        # (J, n, n)
    out: list[tuple[tuple[int, ...], np.ndarray]] = [((), X.mean(axis=0))]
    paths: list[tuple[int, ...]] = [()]
    level = X[None]                                   # (P, n, F)
    for _ in range(depth):
        level = np.abs(H[None] @ level[:, None]).reshape(-1, *X.shape)
        paths = [path + (j,) for path in paths for j in range(len(H))]
        out.extend(zip(paths, level.mean(axis=1)))
    return out


@functools.lru_cache(maxsize=None)
def ggs_labels(scales: int, depth: int, n_features: int) -> tuple[str, ...]:
    """Column labels of the GGS vector, in the order ggs_features fills it."""
    cols = range(n_features)
    labels = [f"hann.m0.f{col}" for col in cols]
    for m in range(1, depth + 1):
        for path in itertools.product(range(scales), repeat=m):
            tag = "-".join(str(j) for j in path)
            labels += [f"diff.m{m}.p{tag}.f{col}" for col in cols]
    return tuple(labels)


def ggs_features(g: MolecularGraph, cfg: GGSConfig | None = None) -> GGSVector:
    """Full geometric-scattering vector for one preprocessed molecule."""
    cfg = cfg if cfg is not None else GGSConfig()
    X = g.node_features
    if X.shape[1] != N_NODE_FEATURES:
        raise DimensionMismatch(
            f"expected {N_NODE_FEATURES} node features, got {X.shape[1]}")

    bank = diffusion_filters(walk_operator(g.adjacency()), cfg.diffusion_scales)
    coeffs = scatter_graph(X, bank, cfg.diffusion_depth)
    vec = GGSVector(values=np.concatenate([coeff for _, coeff in coeffs]),
                    labels=ggs_labels(cfg.diffusion_scales, cfg.diffusion_depth,
                                      N_NODE_FEATURES))
    if len(vec.values) != cfg.total_dim():
        raise DimensionMismatch(
            f"assembled {len(vec.values)} values, expected {cfg.total_dim()}")
    return vec

