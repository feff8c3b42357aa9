"""Spectral operators for one molecular graph.

Builds the adjacency/degree/Laplacian family, the lazy random-walk operator
T = (I + D^-1 W) / 2, and the full eigensystem of the normalized Laplacian
I - D^-1/2 W D^-1/2 via cyclic Jacobi rotations. Zero-degree nodes follow
the 0 -> 0 pseudo-inverse convention so single-atom molecules stay total:
their T row is the identity and their L_norm row/column is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSymmetric
from .molgraph import MolecularGraph

JACOBI_OFFDIAG_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


@dataclass
class GraphMatrices:
    W: np.ndarray
    D: np.ndarray
    L: np.ndarray
    L_norm: np.ndarray
    T: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray


def build_matrices(g: MolecularGraph) -> GraphMatrices:
    W = g.adjacency()
    deg = W.sum(axis=1)
    D = np.diag(deg)
    L = D - W

    inv_sqrt = np.sqrt(_inverse_degree(deg))
    L_norm = np.diag((deg > 0).astype(float)) - (inv_sqrt[:, None] * W * inv_sqrt[None, :])
    T = walk_operator(W)

    V, lam = eig_sym(L_norm)
    return GraphMatrices(W=W, D=D, L=L, L_norm=L_norm, T=T, eigvecs=V, eigvals=lam)


def walk_operator(W: np.ndarray) -> np.ndarray:
    """Lazy random-walk operator T = (I + D^-1 W) / 2 of an adjacency matrix.

    A zero-degree node keeps its walker in place: its row of T is the
    identity row.
    """
    deg = W.sum(axis=1)
    T = 0.5 * (np.eye(len(deg)) + _inverse_degree(deg)[:, None] * W)
    T[deg == 0] = 0.0
    T[deg == 0, deg == 0] = 1.0
    return T


def _inverse_degree(deg: np.ndarray) -> np.ndarray:
    """1/deg with the 0 -> 0 pseudo-inverse convention."""
    return np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)


def eig_sym(M: np.ndarray, symmetry_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (V, lam) with orthonormal eigenvector columns, nondecreasing
    eigenvalues, and a fixed sign convention: the largest-magnitude entry
    of each eigenvector is positive (first such entry on magnitude ties).

    Raises NotSymmetric when max|M - M^T| exceeds ``symmetry_tol`` and
    NoConvergence when the off-diagonal Frobenius norm is still above
    threshold after the sweep cap.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"matrix shape {M.shape} is not square")
    n = M.shape[0]
    if n == 0:
        raise NotSymmetric("empty matrix")
    if np.max(np.abs(M - M.T)) > symmetry_tol:
        raise NotSymmetric(
            f"max asymmetry {np.max(np.abs(M - M.T)):.3e} above {symmetry_tol:.0e}")

    A = 0.5 * (M + M.T)
    V = np.eye(n)
    if n == 1:
        return V, A[0].copy()

    for _ in range(JACOBI_MAX_SWEEPS):
        if _offdiag_frobenius(A) < JACOBI_OFFDIAG_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                A[p, q] = 0.0
                A[q, p] = 0.0

                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    if _offdiag_frobenius(A) >= JACOBI_OFFDIAG_TOL:
        raise NoConvergence(
            f"Jacobi sweeps exhausted at off-diagonal norm "
            f"{_offdiag_frobenius(A):.3e}")

    lam = np.diag(A).copy()
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    V = V[:, order]

    for k in range(n):
        col = V[:, k]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            V[:, k] = -col
    return V, lam


def _offdiag_frobenius(A: np.ndarray) -> float:
    off = A - np.diag(np.diag(A))
    return float(np.sqrt(np.sum(off * off)))
