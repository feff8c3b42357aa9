"""Molecular graph types and per-atom feature construction.

A molecule is an undirected graph of heavy atoms (hydrogens live in a count
feature after preprocessing). Every pipeline stage consumes the same
``MolecularGraph``; its ``node_features`` matrix has exactly seven columns:

    0  atomic number
    1  formal charge
    2  hybridization code (1 = sp, 2 = sp2, 3 = sp3)
    3  total hydrogens (bracket-explicit or implied by valence)
    4  aromatic flag (0/1)
    5  standard atomic mass
    6  total valence (bond orders with aromatic = 1.5, plus hydrogens)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .elements import STANDARD_VALENCES, mass_of

BOND_ORDER_VALUE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}

N_NODE_FEATURES = 7


@dataclass
class Atom:
    """One heavy (or explicit-H) atom.

    ``explicit_h`` is the hydrogen count written inside a bracket atom;
    ``None`` means the atom was written bare and hydrogens are implied by
    the standard valence of its element.
    """

    element: int
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int | None = None
    ring_membership: bool = False


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: str  # single | double | triple | aromatic

    def value(self) -> float:
        return BOND_ORDER_VALUE[self.order]

    def other(self, idx: int) -> int:
        return self.j if idx == self.i else self.i


@dataclass
class MolecularGraph:
    atoms: list[Atom]
    bonds: list[Bond]
    label: int | None = None
    node_features: np.ndarray = field(default=None, repr=False)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def adjacency(self) -> np.ndarray:
        """Unweighted symmetric 0/1 adjacency with zero diagonal."""
        n = self.n_atoms
        w = np.zeros((n, n))
        for b in self.bonds:
            w[b.i, b.j] = 1.0
            w[b.j, b.i] = 1.0
        return w

    def bonds_of(self, idx: int) -> list[Bond]:
        return [b for b in self.bonds if idx in (b.i, b.j)]

    def finalize(self) -> "MolecularGraph":
        """Recompute ring flags and the feature matrix; validate invariants."""
        if not self.atoms:
            raise ValueError("molecular graph must contain at least one atom")
        seen = set()
        for b in self.bonds:
            if b.i == b.j:
                raise ValueError(f"self-bond on atom {b.i}")
            if not (0 <= b.i < self.n_atoms and 0 <= b.j < self.n_atoms):
                raise ValueError(f"bond ({b.i},{b.j}) references missing atom")
            key = (min(b.i, b.j), max(b.i, b.j))
            if key in seen:
                raise ValueError(f"duplicate bond between atoms {key}")
            seen.add(key)
        for a in self.atoms:
            if not (-4 <= a.formal_charge <= 4):
                raise ValueError(f"formal charge {a.formal_charge} out of range")
        _mark_rings(self)
        self.node_features = node_feature_matrix(self)
        return self


def hydrogen_count(graph: MolecularGraph, idx: int) -> int:
    """Hydrogens on one atom: bracket count if given, else implied.

    Bare aromatic atoms follow the lowest standard valence minus one slot
    for the ring pi system; bare aliphatic atoms fill up to the smallest
    standard valence that accommodates their bond-order sum.
    """
    atom = graph.atoms[idx]
    if atom.explicit_h is not None:
        return atom.explicit_h
    valences = STANDARD_VALENCES.get(atom.element)
    if valences is None:
        return 0
    incident = graph.bonds_of(idx)
    if atom.aromatic:
        return max(0, valences[0] - len(incident) - 1)
    order_sum = math.ceil(sum(b.value() for b in incident))
    for v in valences:
        if v >= order_sum:
            return v - order_sum
    return 0


def hybridization_code(graph: MolecularGraph, idx: int) -> int:
    """1 = sp (triple bond or two doubles), 2 = sp2 (double/aromatic), 3 = sp3."""
    orders = [b.order for b in graph.bonds_of(idx)]
    if "triple" in orders or orders.count("double") >= 2:
        return 1
    if "double" in orders or "aromatic" in orders:
        return 2
    return 3


def node_feature_matrix(graph: MolecularGraph) -> np.ndarray:
    feats = np.zeros((graph.n_atoms, N_NODE_FEATURES))
    for idx, atom in enumerate(graph.atoms):
        h = hydrogen_count(graph, idx)
        order_sum = sum(b.value() for b in graph.bonds_of(idx))
        feats[idx] = (
            float(atom.element),
            float(atom.formal_charge),
            float(hybridization_code(graph, idx)),
            float(h),
            1.0 if atom.aromatic else 0.0,
            mass_of(atom.element),
            order_sum + h,
        )
    return feats


def connected_components(graph: MolecularGraph) -> list[list[int]]:
    """Components as sorted atom-index lists, in order of first atom."""
    n = graph.n_atoms
    adj: list[list[int]] = [[] for _ in range(n)]
    for b in graph.bonds:
        adj[b.i].append(b.j)
        adj[b.j].append(b.i)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def subgraph(graph: MolecularGraph, atom_indices: list[int]) -> MolecularGraph:
    """Induced subgraph with atoms renumbered in the order given."""
    index_map = {old: new for new, old in enumerate(atom_indices)}
    atoms = [
        Atom(a.element, a.formal_charge, a.aromatic, a.explicit_h)
        for a in (graph.atoms[i] for i in atom_indices)
    ]
    bonds = [
        Bond(index_map[b.i], index_map[b.j], b.order)
        for b in graph.bonds
        if b.i in index_map and b.j in index_map
    ]
    return MolecularGraph(atoms=atoms, bonds=bonds, label=graph.label).finalize()


def permute(graph: MolecularGraph, perm: list[int]) -> MolecularGraph:
    """Relabel atoms so new index ``perm[i]`` holds old atom ``i``."""
    n = graph.n_atoms
    if sorted(perm) != list(range(n)):
        raise ValueError("perm must be a permutation of atom indices")
    atoms: list[Atom] = [None] * n
    for old, new in enumerate(perm):
        a = graph.atoms[old]
        atoms[new] = Atom(a.element, a.formal_charge, a.aromatic, a.explicit_h)
    bonds = [Bond(perm[b.i], perm[b.j], b.order) for b in graph.bonds]
    return MolecularGraph(atoms=atoms, bonds=bonds, label=graph.label).finalize()


def _mark_rings(graph: MolecularGraph) -> None:
    """Flag atoms on cycles: every endpoint of a non-bridge edge."""
    n = graph.n_atoms
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for bi, b in enumerate(graph.bonds):
        adj[b.i].append((b.j, bi))
        adj[b.j].append((b.i, bi))

    disc = [-1] * n
    low = [0] * n
    bridge = [False] * len(graph.bonds)
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # iterative Tarjan bridge finding
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            u, parent_edge, ptr = stack.pop()
            if ptr == 0:
                disc[u] = low[u] = timer
                timer += 1
            advanced = False
            while ptr < len(adj[u]):
                v, ei = adj[u][ptr]
                ptr += 1
                if ei == parent_edge:
                    continue
                if disc[v] == -1:
                    stack.append((u, parent_edge, ptr))
                    stack.append((v, ei, 0))
                    advanced = True
                    break
                low[u] = min(low[u], disc[v])
            if not advanced and parent_edge != -1:
                b = graph.bonds[parent_edge]
                p = b.other(u)
                low[p] = min(low[p], low[u])
                if low[u] > disc[p]:
                    bridge[parent_edge] = True

    in_ring = [False] * n
    for bi, b in enumerate(graph.bonds):
        if not bridge[bi]:
            in_ring[b.i] = True
            in_ring[b.j] = True
    for idx, atom in enumerate(graph.atoms):
        atom.ring_membership = in_ring[idx]
