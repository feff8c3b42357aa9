"""Dataset preparation: preprocessing, canonical keys, dedup, splits.

Mirrors the benchmark recipe: strip explicit hydrogens, discard metal ions,
keep the largest fragment, collapse duplicates with positive-label
preference, then split 80/20 stratified by label.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from .elements import DEFAULT_METALS
from .errors import DegenerateSplit, EmptyAfterPreprocess, GeoscattError
from .molgraph import MolecularGraph, connected_components, subgraph
from .smiles import parse_smiles


@dataclass
class DatasetRecord:
    smiles_text: str
    canonical_key: str
    label: int
    graph: MolecularGraph


def preprocess(g: MolecularGraph, metals: frozenset[int] = DEFAULT_METALS) -> MolecularGraph:
    """Fold explicit hydrogens into counts, drop metals, keep the main fragment."""
    drop = set()
    extra_h = [0] * g.n_atoms
    for idx, atom in enumerate(g.atoms):
        if atom.element == 1:
            drop.add(idx)
            for b in g.bonds_of(idx):
                extra_h[b.other(idx)] += 1
        elif atom.element in metals:
            drop.add(idx)

    keep = [i for i in range(g.n_atoms) if i not in drop]
    if not keep:
        raise EmptyAfterPreprocess("no atoms left after hydrogen/metal removal")

    trimmed = subgraph(g, keep)
    for new_idx, old_idx in enumerate(keep):
        atom = trimmed.atoms[new_idx]
        if atom.explicit_h is not None and extra_h[old_idx]:
            atom.explicit_h += extra_h[old_idx]
    trimmed.finalize()

    comps = connected_components(trimmed)
    if len(comps) == 1:
        return trimmed

    def rank(comp: list[int]):
        frag = subgraph(trimmed, comp)
        return (-frag.n_atoms, -len(frag.bonds), canonical_key(frag))

    best = min(comps, key=rank)
    return subgraph(trimmed, best)


def canonical_key(g: MolecularGraph) -> str:
    """Permutation-invariant structure key via iterative label refinement.

    Seed labels combine element, charge, aromaticity, degree and hydrogen
    count; each round folds in the sorted multiset of (bond order, neighbor
    label) pairs, hashed to keep labels short. Refinement stops when the
    number of distinct labels is stable.
    """
    n = g.n_atoms
    feats = g.node_features
    labels = [
        _digest(f"{a.element}|{a.formal_charge}|{int(a.aromatic)}|"
                f"{len(g.bonds_of(i))}|{feats[i, 3]:.0f}")
        for i, a in enumerate(g.atoms)
    ]
    incident = [[] for _ in range(n)]
    for b in g.bonds:
        incident[b.i].append((b.order, b.j))
        incident[b.j].append((b.order, b.i))

    distinct = len(set(labels))
    for _ in range(n):
        labels = [
            _digest(labels[i] + "&" + ",".join(
                sorted(f"{order}:{labels[j]}" for order, j in incident[i])))
            for i in range(n)
        ]
        now = len(set(labels))
        if now == distinct:
            break
        distinct = now

    atom_sigs = sorted(
        labels[i] + "^" + ",".join(
            sorted(f"{order}:{labels[j]}" for order, j in incident[i]))
        for i in range(n)
    )
    return _digest(f"{n};{len(g.bonds)};" + "|".join(atom_sigs))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def dedup_clear_evidence(records: list[DatasetRecord]) -> list[DatasetRecord]:
    """One record per canonical key; a positive label wins over negatives."""
    by_key: dict[str, DatasetRecord] = {}
    order: list[str] = []
    for rec in records:
        if rec.canonical_key not in by_key:
            by_key[rec.canonical_key] = rec
            order.append(rec.canonical_key)
        elif rec.label == 1 and by_key[rec.canonical_key].label == 0:
            kept = by_key[rec.canonical_key]
            by_key[rec.canonical_key] = DatasetRecord(
                kept.smiles_text, kept.canonical_key, 1, kept.graph)
    return [by_key[k] for k in order]


def split_dataset(records: list[DatasetRecord], test_fraction: float,
                  seed: int) -> tuple[list[DatasetRecord], list[DatasetRecord]]:
    """Stratified, seeded, exact partition into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise DegenerateSplit(f"test_fraction {test_fraction} not in (0, 1)")
    rng = np.random.default_rng(seed)
    test_idx: set[int] = set()
    for cls in (0, 1):
        idx = [i for i, r in enumerate(records) if r.label == cls]
        if not idx:
            continue
        n_test = int(len(idx) * test_fraction + 0.5)
        if n_test == 0 or n_test == len(idx):
            raise DegenerateSplit(
                f"class {cls}: {len(idx)} records cannot sustain "
                f"test fraction {test_fraction}")
        order = rng.permutation(len(idx))
        test_idx.update(idx[j] for j in order[:n_test])
    train = [r for i, r in enumerate(records) if i not in test_idx]
    test = [r for i, r in enumerate(records) if i in test_idx]
    return train, test


def record_from_smiles(smiles: str, label: int,
                       metals: frozenset[int] = DEFAULT_METALS) -> DatasetRecord:
    graph = preprocess(parse_smiles(smiles), metals=metals)
    graph.label = label
    return DatasetRecord(smiles, canonical_key(graph), label, graph)


def load_smiles_csv(path) -> list[tuple[str, int]]:
    """Read the `smiles,label` input CSV."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "smiles" not in reader.fieldnames \
                or "label" not in reader.fieldnames:
            raise GeoscattError(f"{path}: expected header with smiles,label")
        for row in reader:
            rows.append((row["smiles"].strip(), int(row["label"])))
    return rows


def build_records(rows: list[tuple[str, int]], strict: bool = False,
                  metals: frozenset[int] = DEFAULT_METALS,
                  ) -> tuple[list[DatasetRecord], list[tuple[int, str, str, str]]]:
    """Parse + preprocess every row; returns (records, skipped).

    ``skipped`` rows carry (row index, smiles, error category, message),
    the row index counting data rows from 0. With ``strict`` the
    first failure raises instead.
    """
    records, skipped = [], []
    for i, (smiles, label) in enumerate(rows):
        try:
            records.append(record_from_smiles(smiles, label, metals=metals))
        except GeoscattError as exc:
            if strict:
                raise
            skipped.append((i, smiles, exc.category, str(exc)))
    return records, skipped


def write_manifest(path, records: list[DatasetRecord],
                   split_of: dict[str, str]) -> None:
    """Manifest CSV: canonical_key,label,split."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["canonical_key", "label", "split"])
        for rec in records:
            writer.writerow([rec.canonical_key, rec.label,
                             split_of[rec.canonical_key]])


def read_manifest(path) -> list[tuple[str, int, str]]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            out.append((row["canonical_key"], int(row["label"]), row["split"]))
    return out
