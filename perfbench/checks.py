"""Output checks that do not copy the program's output.

Each check compares an artifact with a computation made here, apart from
the program, or with a property the method must have. The only program
code used is the SMILES parser and preprocessing (to get each molecule's
graph and 7-column node features) and, for the relabelling checks, the
public feature and embedding functions applied to relabelled graphs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import Workload

SAMPLED_MOLECULES = 4
RTOL = 1e-8


@dataclass
class Report:
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    aucs: list[dict] = field(default_factory=list)
    lost: int = 0

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# --- readers, kept apart from the program's own ---------------------------------------

def read_fmat(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != b"FMAT":
        raise ValueError(f"{path}: not an FMAT file")
    rows, cols = struct.unpack("<II", data[5:13])
    return np.frombuffer(data[13:], dtype="<f8").reshape(rows, cols)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def column_labels(path: Path) -> list[str]:
    return [row["label"] for row in read_csv(path)]


def artifact_digest(wd: Path) -> str:
    """One digest over every artifact the pipeline writes (logs excluded)."""
    h = hashlib.sha256()
    for path in sorted(wd.iterdir()):
        if path.suffix in (".fmat", ".gprm", ".csv", ".json") and path.name != "inputs.csv":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# --- references -------------------------------------------------------------------------

def walk_operator(n: int, bonds) -> np.ndarray:
    """T = (I + D^-1 W) / 2; an isolated atom keeps an identity row."""
    W = np.zeros((n, n))
    for b in bonds:
        W[b.i, b.j] = W[b.j, b.i] = 1.0
    deg = W.sum(axis=1)
    P = np.divide(W, deg[:, None], out=np.zeros_like(W), where=deg[:, None] > 0)
    P[deg == 0, deg == 0] = 1.0
    return 0.5 * (np.eye(n) + P)


def diffusion_reference(n: int, bonds, X: np.ndarray, labels: list[str]) -> np.ndarray:
    """The ``diff.m<k>.p<j1-..-jk>.f<c>`` coefficients from first principles.

    Wavelets follow the package's documented definition: H_0 = I + T and
    H_j = T^(2^(j-1)) - T^(2^j); each path applies |H_j .| in turn and the
    coefficient is the column mean of the result.
    """
    T = walk_operator(n, bonds)
    scales = 1 + max(int(j) for lab in labels for j in lab.split(".")[2][1:].split("-"))
    H = [np.eye(n) + T] + [np.linalg.matrix_power(T, 2 ** (j - 1))
                           - np.linalg.matrix_power(T, 2 ** j) for j in range(1, scales)]
    cache: dict[tuple[int, ...], np.ndarray] = {(): X}

    def signal(path):
        if path not in cache:
            cache[path] = np.abs(H[path[-1]] @ signal(path[:-1]))
        return cache[path]

    out = []
    for lab in labels:
        _, _, p, f = lab.split(".")
        path = tuple(int(j) for j in p[1:].split("-"))
        out.append(signal(path)[:, int(f[1:])].mean())
    return np.array(out)


def kernel_reference(S: np.ndarray) -> np.ndarray:
    """Cosine-Gaussian meta-graph weights, max-normalized, zero diagonal."""
    unit = S / (np.linalg.norm(S, axis=1, keepdims=True) + 1e-12)
    cos = unit @ unit.T
    dist = (1.0 - 0.5 * (cos + cos.T)) / 2.0
    off = ~np.eye(len(S), dtype=bool)
    sigma = dist[off].std()
    K = np.exp(-dist ** 2 / (2.0 * sigma ** 2))
    K[~off] = 0.0
    return K / K[off].max()


def close(a, b, rtol: float = RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


# --- the checks -----------------------------------------------------------------------

def check_rows(wl: Workload, wd: Path, rep: Report) -> list[dict]:
    """Every input comes out with its own row, except the known merges."""
    records = read_csv(wd / "records.csv")
    manifest = read_csv(wd / "manifest.csv")
    rep.expect([r["canonical_key"] for r in records]
               == [m["canonical_key"] for m in manifest],
               "records.csv and manifest.csv list different keys")
    kept = {r["smiles"] for r in records}
    lost = [s for s, _ in wl.rows if s not in kept]
    unexpected = [s for s in lost if s not in wl.expected_merged]
    rep.expect(not unexpected, f"inputs lost without cause: {unexpected[:3]}")
    rep.lost = len(lost)
    rep.facts["molecules"] = len(manifest)
    return manifest


def check_diffusion(wd: Path, rep: Report, sample: list[int]) -> None:
    from geoscatt.ingest import preprocess
    from geoscatt.smiles import parse_smiles

    ggs = read_fmat(wd / "ggs.fmat")
    labels = column_labels(wd / "ggs.columns.csv")
    cols = [i for i, lab in enumerate(labels) if lab.startswith("diff.")]
    rep.expect(len(cols) > 0, "ggs.fmat has no diff.* columns")
    smiles = _smiles_in_manifest_order(wd)
    for row in sample:
        g = preprocess(parse_smiles(smiles[row]))
        ref = diffusion_reference(g.n_atoms, g.bonds, g.node_features,
                                  [labels[c] for c in cols])
        rep.expect(close(ggs[row, cols], ref),
                   f"ggs.fmat row {row}: diffusion coefficients differ from the reference")


def check_relabelling(wd: Path, rep: Report, sample: list[int], seed: int) -> None:
    """GGS rows and GIN embeddings must not depend on the atom order."""
    from geoscatt.gnn import GINParams, gin_forward
    from geoscatt.gst import ggs_features
    from geoscatt.ingest import preprocess
    from geoscatt.molgraph import permute
    from geoscatt.smiles import parse_smiles

    ggs = read_fmat(wd / "ggs.fmat")
    emb = read_fmat(wd / "gin_embeddings.fmat")
    params = GINParams.load(wd / "gin.gprm")
    smiles = _smiles_in_manifest_order(wd)
    rng = random.Random(seed)
    for row in sample:
        g = preprocess(parse_smiles(smiles[row]))
        perm = list(range(g.n_atoms))
        rng.shuffle(perm)
        h = permute(g, perm)
        rep.expect(close(ggs_features(h).values, ggs[row]),
                   f"ggs.fmat row {row} changes when the atoms are relabelled")
        rep.expect(close(gin_forward(h, params)[0], emb[row]),
                   f"gin_embeddings.fmat row {row} changes when the atoms are relabelled")


def check_metagraph(wl: Workload, wd: Path, rep: Report) -> None:
    S = read_fmat(wd / "metagraph_feats.fmat")
    W = read_fmat(wd / "metagraph_weights.fmat")
    rep.expect(np.array_equal(S, read_fmat(wd / "ggs.fmat")),
               "metagraph_feats.fmat is not ggs.fmat")
    K = kernel_reference(S)
    rep.expect(np.array_equal(W, W.T), "meta-graph weights are not symmetric")
    rep.expect(not np.diagonal(W).any(), "meta-graph weights have a non-zero diagonal")
    rep.expect(abs(W.max() - 1.0) <= 1e-12, f"meta-graph max weight is {W.max()}, not 1")
    if not wl.top_k:
        rep.expect(close(W, K), "meta-graph weights differ from the recomputed kernel")
        return
    kept = W != 0
    rep.expect(close(W[kept], K[kept]), "kept meta-graph weights differ from the kernel")
    rep.expect(int(kept.sum(axis=1).min()) >= wl.top_k,
               f"a row keeps fewer than top-k={wl.top_k} weights")
    kth = -np.sort(-K, axis=1)[:, wl.top_k - 1]
    rep.expect(bool(np.all(kept | (K <= kth[:, None]))),
               "a row dropped one of its top-k weights")


def scatter2d_labels(J: int, L: int, size: int) -> list[str]:
    """Labels of the full order-2 cascade: channels in path order, then cells."""
    cells = [f"y{r}x{c}" for r in range(size >> J) for c in range(size >> J)]
    channels = ["m0"]
    for j1, l1 in itertools.product(range(J), range(L)):
        channels.append(f"m1.j{j1}.t{l1}")
        channels += [f"m2.j{j1}-{j2}.t{l1}-{l2}"
                     for j2, l2 in itertools.product(range(j1 + 1, J), range(L))]
    return [f"{ch}.{cell}" for ch in channels for cell in cells]


def check_scatter2d(wl: Workload, wd: Path, rep: Report) -> None:
    """Selected columns are k distinct ones of 1 + JL + L^2 J(J-1)/2 channels
    times (size / 2^J)^2 cells, and order >= 1 coefficients are >= 0."""
    J, L, size = wl.scatter
    full = scatter2d_labels(J, L, size)
    total = (1 + J * L + L * L * J * (J - 1) // 2) * (size // 2 ** J) ** 2
    X = read_fmat(wd / "scat2d.fmat")
    labels = column_labels(wd / "scat2d.columns.csv")
    rep.facts["images"] = X.shape[0]
    chosen = [int(r["source_column"]) for r in read_csv(wd / "scat2d.selected.csv")]
    rep.expect(len(full) == total and X.shape[1] == len(labels) == len(chosen) == wl.k_select,
               f"scat2d.fmat keeps {X.shape[1]} columns with {len(labels)} labels, "
               f"not k={wl.k_select} of {total}")
    rep.expect(len(set(chosen)) == len(chosen) and all(0 <= c < total for c in chosen)
               and labels == [full[c] for c in chosen[:len(labels)]],
               "scat2d selected columns are not distinct columns of the cascade")
    higher = [i for i, lab in enumerate(labels) if not lab.startswith("m0.")]
    floor = -1e-12 * float(np.abs(X).max(initial=1.0))
    rep.expect(float(X[:, higher].min(initial=0.0)) >= floor,
               "an order >= 1 scattering coefficient is negative")


def check_evaluations(wd: Path, rep: Report) -> None:
    """tp + fn of each evaluation equals the test positives of the manifest.

    Records the two held-out AUCs in ``rep.aucs``, one entry per call.
    """
    manifest = read_csv(wd / "manifest.csv")
    positives = sum(m["split"] == "test" and m["label"] == "1" for m in manifest)
    tested = sum(m["split"] == "test" for m in manifest)
    aucs = {}
    for key, name in (("head_auc", "ggs"), ("sage_auc", "sage")):
        row = read_csv(wd / f"eval_{name}.csv")[0]
        tp, fn = int(float(row["tp"])), int(float(row["fn"]))
        counted = sum(int(float(row[k])) for k in ("tp", "tn", "fp", "fn"))
        rep.expect(tp + fn == positives,
                   f"eval_{name}.csv: tp + fn = {tp + fn}, manifest has {positives} test positives")
        rep.expect(counted == tested, f"eval_{name}.csv counts {counted} of {tested} test rows")
        aucs[key] = float(row["auc"])
    rep.aucs.append(aucs)


def check_epochs(wl: Workload, wd: Path, rep: Report) -> None:
    for curve, want in (("gin_curve.csv", wl.gin_epochs), ("sage_curve.csv", wl.sage_epochs)):
        ran = len(read_csv(wd / curve))
        rep.expect(ran == want, f"{curve}: {ran} epochs run, {want} configured")
    log = (wd / "logs" / "train-gin.log").read_text(encoding="utf-8")
    rep.facts["gin_train"] = int(next(line[6:] for line in log.splitlines()
                                      if line.startswith("train=")))


def check_all(wl: Workload, wd: Path, seed: int) -> Report:
    rep = Report()
    manifest = check_rows(wl, wd, rep)
    if rep.failures:  # the row checks below index the artifacts by manifest row
        return rep
    rng = random.Random(f"checks:{seed}")
    sample = sorted(rng.sample(range(len(manifest)), min(SAMPLED_MOLECULES, len(manifest))))
    check_diffusion(wd, rep, sample)
    check_relabelling(wd, rep, sample, seed)
    check_metagraph(wl, wd, rep)
    check_scatter2d(wl, wd, rep)
    check_evaluations(wd, rep)
    check_epochs(wl, wd, rep)
    return rep


def _smiles_in_manifest_order(wd: Path) -> list[str]:
    smiles_of = {r["canonical_key"]: r["smiles"] for r in read_csv(wd / "records.csv")}
    return [smiles_of[m["canonical_key"]] for m in read_csv(wd / "manifest.csv")]
