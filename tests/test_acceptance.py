"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The desk-scale end-to-end check (criterion 8) and the preprocessing
report (criterion 9) use the real benchmark CSV when one is supplied (env
``GEOSCATT_HANSEN_CSV`` or ``data/hansen.csv``); criterion 8 otherwise
falls back to the bundled synthetic alert-labeled corpus, and criterion 9
skips, since it is meaningful only for the published compound counts.
"""

import time

import numpy as np
import pytest

from corpus import generate, hansen_csv_path, MOLECULES
from geoscatt.evalhead import auc_score, fit_logreg, kfold_cv, metrics, stratified_folds
from geoscatt.gnn import TrainConfig, embed_molecules, gin_forward, grad_check, init_gin, train_gin
from geoscatt.graphcore import build_matrices
from geoscatt.gst import diffusion_filters, ggs_features
from geoscatt.ingest import build_records, dedup_clear_evidence, load_smiles_csv, preprocess
from geoscatt.metagraph import SageConfig, build_metagraph, init_sage, sage_grad_check
from geoscatt.molgraph import permute
from geoscatt.scatter2d import Image, morlet_bank, rasterize, scatter_image
from geoscatt.smiles import parse_smiles
from util import random_connected_graph, random_permutation

GRADCHECK_INIT_SCALE = 0.08  # keeps untrained logits O(1); see test_gnn


def announce(n: int, text: str) -> None:
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_diffusion_algebra():
    start = time.time()
    rng = np.random.default_rng(101)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(2, 21)))
        T = build_matrices(g).T
        bank = diffusion_filters(T, 4)
        telescoped = sum(bank.filters[1:])
        target = T - np.linalg.matrix_power(T, 8)
        assert np.max(np.abs(telescoped - target)) < 1e-10

    k2 = build_matrices(preprocess(parse_smiles("CC"))).T
    h1 = diffusion_filters(k2, 4).filters[1]
    assert np.max(np.abs(h1)) == 0.0

    elapsed = time.time() - start
    assert elapsed < 5.0, f"algebra suite took {elapsed:.1f}s"
    announce(1, f"telescoping identity on 100 graphs, K2 wavelet exactly "
                f"zero ({elapsed:.1f}s < 5s)")


def test_criterion_2_spectral_suite():
    start = time.time()
    rng = np.random.default_rng(102)
    worst_rel = 0.0
    lam_min, lam_max = np.inf, -np.inf
    for _ in range(200):
        g = random_connected_graph(rng, int(rng.integers(2, 21)))
        gm = build_matrices(g)
        rebuilt = (gm.eigvecs * gm.eigvals) @ gm.eigvecs.T
        rel = np.linalg.norm(rebuilt - gm.L_norm) / max(
            np.linalg.norm(gm.L_norm), 1e-30)
        worst_rel = max(worst_rel, rel)
        lam_min = min(lam_min, gm.eigvals.min())
        lam_max = max(lam_max, gm.eigvals.max())
    assert worst_rel < 1e-8
    assert lam_min >= -1e-10
    assert lam_max <= 2.0 + 1e-10

    elapsed = time.time() - start
    assert elapsed < 10.0, f"spectral suite took {elapsed:.1f}s"
    announce(2, f"200 eigendecompositions: reconstruction {worst_rel:.2e}, "
                f"spectrum [{lam_min:.2e}, {lam_max:.6f}] ({elapsed:.1f}s < 10s)")


def test_criterion_3_invariance_suite():
    rng = np.random.default_rng(103)
    molecules = [preprocess(parse_smiles(s))
                 for s in MOLECULES if parse_smiles(s).n_atoms >= 2][:20]
    assert len(molecules) == 20
    params = init_gin(7, scale=GRADCHECK_INIT_SCALE)

    vec = ggs_features(molecules[0])
    assert len(vec.values) == 595
    assert sum(1 for l in vec.labels if l.startswith("diff.")) == 588

    worst = 0.0
    for g in molecules:
        base = ggs_features(g).values
        base_emb, _ = gin_forward(g, params)
        for _ in range(50):
            p = permute(g, random_permutation(rng, g.n_atoms))
            worst = max(worst, np.max(np.abs(ggs_features(p).values - base)))
            emb, _ = gin_forward(p, params)
            worst = max(worst, np.max(np.abs(emb - base_emb)))
    assert worst < 1e-9
    announce(3, f"595/588-dim layout exact; GGS + GIN embedding drift "
                f"{worst:.2e} over 50 permutations x 20 molecules")


def test_criterion_4_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0

    gin_mols = ["CCO", "CC#N", "c1ccoc1", "CC(=O)O", "C1CC1", "NCCO",
                "CC(C)=O", "c1ccsc1", "OCC=O", "CCNC", "ClCCCl", "CC(N)=O"]
    for i, text in enumerate(gin_mols):
        g = preprocess(parse_smiles(text))
        p = init_gin(200 + i, scale=GRADCHECK_INIT_SCALE)
        err = grad_check(p, g, int(rng.integers(0, 2)))
        worst = max(worst, err)

    for i in range(8):
        n = int(rng.integers(6, 10))
        mg = build_metagraph(rng.standard_normal((n, 7)))
        labels = rng.integers(0, 2, n)
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[0] = True
        p = init_sage(SageConfig(hidden=9, embed=5), 7, 300 + i)
        err = sage_grad_check(mg, p, labels, mask)
        worst = max(worst, err)

    elapsed = time.time() - start
    assert worst < 1e-6, f"worst gradient relative error {worst:.2e}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    announce(4, f"20 instances (12 GIN + 8 SAGE): max relative error "
                f"{worst:.2e} ({elapsed:.1f}s < 60s)")


def test_criterion_5_metrics_oracle():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        y = rng.integers(0, 2, n)
        s = np.round(rng.random(n), 2)
        rep = metrics(y, s)
        # brute-force recount
        tp = sum(1 for yi, si in zip(y, s) if yi == 1 and si >= 0.5)
        tn = sum(1 for yi, si in zip(y, s) if yi == 0 and si < 0.5)
        fp = sum(1 for yi, si in zip(y, s) if yi == 0 and si >= 0.5)
        fn = sum(1 for yi, si in zip(y, s) if yi == 1 and si < 0.5)
        assert (rep.tp, rep.tn, rep.fp, rep.fn) == (tp, tn, fp, fn)
        assert abs(rep.acc - (tp + tn) / n) < 1e-12
        assert abs(rep.se - (tp / (tp + fn) if tp + fn else 0.0)) < 1e-12
        assert abs(rep.sp - (tn / (tn + fp) if tn + fp else 0.0)) < 1e-12
        assert abs(rep.f1 - (2 * tp / (2 * tp + fp + fn)
                             if 2 * tp + fp + fn else 0.0)) < 1e-12
        den = (tp + fn) * (tp + fp) * (tn + fn) * (tn + fp)
        mcc = (tp * tn - fp * fn) / np.sqrt(den) if den else 0.0
        assert abs(rep.mcc - mcc) < 1e-12
        pairs = [(a, b) for a, ya in zip(s, y) if ya == 1
                 for b, yb in zip(s, y) if yb == 0]
        if pairs:
            brute_auc = np.mean([1.0 if a > b else (0.5 if a == b else 0.0)
                                 for a, b in pairs])
            assert abs(rep.auc - brute_auc) < 1e-12

    worked = metrics(np.array([1] * 50 + [0] * 50),
                     np.array([0.9] * 50 + [0.1] * 40 + [0.9] * 10))
    assert (worked.tp, worked.tn, worked.fp, worked.fn) == (50, 40, 10, 0)
    assert abs(worked.acc - 0.9) < 1e-12
    assert worked.se == 1.0
    assert abs(worked.sp - 0.8) < 1e-12
    assert abs(worked.f1 - 10 / 11) < 1e-12
    announce(5, "1000 random instances exact vs brute force; worked example "
                "ACC=0.9 SE=1.0 SP=0.8 F1=0.9091 reproduced")


def test_criterion_6_metagraph_suite():
    rng = np.random.default_rng(106)
    for trial in range(10):
        n = int(rng.integers(4, 16))
        S = rng.standard_normal((n, 12))
        if trial % 3 == 0:
            S[n // 2] = S[0]  # force an identical pair
        mg = build_metagraph(S)
        W = mg.weights
        off = ~np.eye(n, dtype=bool)
        assert np.max(np.abs(W - W.T)) <= 1e-12
        assert W.min() >= 0.0 and W.max() <= 1.0
        assert W[off].max() == 1.0
        if trial % 3 == 0:
            assert W[0, n // 2] == 1.0
        scaled = build_metagraph(np.e * S).weights
        assert np.max(np.abs(scaled - W)) < 1e-9
    announce(6, "weights symmetric in [0,1], max off-diagonal exactly 1, "
                "identical pair at 1, scale-invariant to 1e-9")


def test_criterion_7_scatter2d_suite():
    bank = morlet_bank(5, 8, 64)

    sv = scatter_image(Image(pixels=np.full((64, 64), 0.31)), bank, 2)
    higher = [abs(v) for v, l in zip(sv.values, sv.labels)
              if not l.startswith("m0")]
    assert max(higher) < 1e-8

    molecules = [s for s, _ in generate(40, seed=5)][:20]
    worst_shift = 0.0
    s1_all, s2_all = [], []
    for text in molecules:
        img = rasterize(preprocess(parse_smiles(text)), 64)
        base = scatter_image(img, bank, 2)
        shifted = scatter_image(
            Image(pixels=np.roll(img.pixels, 2, axis=1)), bank, 2)
        rel = np.linalg.norm(shifted.values - base.values) / \
            np.linalg.norm(base.values)
        worst_shift = max(worst_shift, rel)
        s1_all.extend(abs(v) for v, l in zip(base.values, base.labels)
                      if l.startswith("m1"))
        s2_all.extend(abs(v) for v, l in zip(base.values, base.labels)
                      if l.startswith("m2"))
    assert worst_shift < 0.2
    assert np.mean(s2_all) <= np.mean(s1_all)
    announce(7, f"constant image kills orders 1-2; worst 2px-shift distance "
                f"{worst_shift:.3f} < 0.2 over 20 images; mean|S2| "
                f"{np.mean(s2_all):.2e} <= mean|S1| {np.mean(s1_all):.2e}")


def _load_desk_dataset(n: int, seed: int):
    """(graphs, labels, source) for the end-to-end trend check."""
    path = hansen_csv_path()
    if path is not None:
        rows = load_smiles_csv(path)
        records, _ = build_records(rows)
        records = dedup_clear_evidence(records)
        labels = np.array([r.label for r in records])
        rng = np.random.default_rng(seed)
        picked = []
        for cls in (0, 1):
            idx = np.flatnonzero(labels == cls)
            take = min(n // 2, idx.size)
            picked.extend(idx[rng.permutation(idx.size)[:take]])
        picked = sorted(picked)
        graphs = [records[i].graph for i in picked]
        y = labels[picked]
        return graphs, np.asarray(y), f"benchmark CSV {path.name}"
    rows = generate(n, seed=seed)
    graphs = [preprocess(parse_smiles(s)) for s, _ in rows]
    y = np.array([label for _, label in rows])
    return graphs, y, "synthetic alert corpus (benchmark CSV not supplied)"


def test_criterion_8_desk_scale_trend():
    start = time.time()
    graphs, y, source = _load_desk_dataset(400, seed=108)
    assert len(graphs) == 400

    ggs = np.array([ggs_features(g).values for g in graphs])
    cv_ggs = kfold_cv(ggs, y, k=5, seed=42)
    auc_ggs = cv_ggs.mean["auc"]
    assert auc_ggs >= 0.70, f"GGS-alone mean AUC {auc_ggs:.3f} < 0.70"

    # fold-wise GIN: train on the fold's training side only, embed everyone
    fold_of = stratified_folds(y, 5, seed=42)
    concat_aucs = []
    for fold in range(5):
        hold = fold_of == fold
        train_idx = np.flatnonzero(~hold)
        val_take = max(2, len(train_idx) // 10)
        val_idx = train_idx[:val_take]
        fit_idx = train_idx[val_take:]
        cfg = TrainConfig(lr=2e-3, epochs=60, patience=15)
        params = train_gin([graphs[i] for i in fit_idx],
                           [int(y[i]) for i in fit_idx],
                           [graphs[i] for i in val_idx],
                           [int(y[i]) for i in val_idx], cfg, fold)
        emb = embed_molecules(graphs, params)
        stacked = np.hstack([ggs, emb])
        model = fit_logreg(stacked[~hold], y[~hold], l2=1e-3)
        concat_aucs.append(auc_score(y[hold], model.predict_proba(stacked[hold])))
    auc_concat = float(np.mean(concat_aucs))

    elapsed = time.time() - start
    assert auc_concat >= auc_ggs - 0.02, \
        f"GGS+GIN {auc_concat:.3f} fell more than 0.02 below GGS {auc_ggs:.3f}"
    assert elapsed < 600.0, f"end-to-end took {elapsed:.0f}s"
    announce(8, f"{source}: GGS 5-fold AUC {auc_ggs:.3f} >= 0.70, GGS+GIN "
                f"{auc_concat:.3f} >= GGS-0.02 ({elapsed:.0f}s < 600s)")


def test_criterion_9_preprocessing_report():
    path = hansen_csv_path()
    if path is None:
        pytest.skip("benchmark CSV not supplied; set GEOSCATT_HANSEN_CSV or "
                    "place data/hansen.csv to run the count report")
    rows = load_smiles_csv(path)
    records, skipped = build_records(rows)
    records = dedup_clear_evidence(records)
    total = len(records)
    positives = sum(r.label for r in records)
    report = (f"criterion 9 (report-only): {len(rows)} rows -> {total} "
              f"compounds ({positives} positive), {len(skipped)} unparsed; "
              f"published counts 6277/3388")
    if abs(total - 6277) > 0.01 * 6277 or abs(positives - 3388) > 0.01 * 3388:
        print(f"[WARN] {report} -- outside the 1% band; canonicalization "
              f"differs from the published toolchain")
    else:
        print(f"[PASS] {report}")
