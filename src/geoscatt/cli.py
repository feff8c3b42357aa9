"""Pipeline entry point: one ``geoscatt`` command with subcommands.

Each subcommand reads/writes artifacts in a work directory and appends a
deterministic run log (command, config digest, seed, version, key counts)
so identical inputs reproduce byte-identical outputs:

    ingest             smiles CSV -> records.csv + manifest.csv
    featurize-gst      -> ggs.fmat (+ column labels)
    featurize-2d       -> scat2d.fmat (+ labels, optional chi2 selection)
    train-gin          -> gin.gprm + gin_curve.csv
    export-embeddings  -> gin_embeddings.fmat
    build-metagraph    -> metagraph_{nodes.csv,weights.fmat,feats.fmat}
    train-sage         -> sage.gprm + sage_curve.csv
    fit-head           -> head.json
    evaluate           -> eval metrics CSV + stdout table
    cv                 -> k-fold metrics CSV + stdout table
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, load_config
from .errors import ConfigError, GeoscattError
from .evalhead import (LogRegModel, fit_logreg, format_report, kfold_cv,
                       metrics, write_cv_csv)
from .fileio import read_fmat, write_feature_csv, write_fmat, write_pgm
from .gnn import GINParams, TrainConfig, embed_molecules, train_gin
from .gst import GGSConfig, ggs_features
from .ingest import (build_records, dedup_clear_evidence, load_smiles_csv,
                     preprocess, read_manifest, split_dataset, write_manifest)
from .metagraph import (MetaGraph, SageConfig, SageParams, build_metagraph,
                        sage_forward, sparsify_topk, train_sage)
from .molgraph import MolecularGraph
from .parallel import parallel_map
from .scatter2d import chi2_select, morlet_bank, rasterize, scatter_image
from .smiles import parse_smiles


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args)
        cfg.validate()
        args.handler(args, cfg)
    except GeoscattError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoscatt",
        description="Molecular scattering features and classifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workdir", required=True, help="artifact directory")
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="parallelism degree (GEOSCATT_THREADS fallback)")
        p.add_argument("--manifest", default=None,
                       help="manifest CSV (default <workdir>/manifest.csv; "
                            "graph stages read records.csv beside it)")

    p = sub.add_parser("ingest", help="parse, dedup and split a smiles CSV")
    common(p)
    p.add_argument("--input", required=True, help="CSV with header smiles,label")
    p.add_argument("--test-fraction", type=float, default=None)
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed record")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("featurize-gst", help="geometric scattering features")
    common(p)
    p.add_argument("--format", choices=("fmat", "csv"), default="fmat")
    p.set_defaults(handler=cmd_featurize_gst)

    p = sub.add_parser("featurize-2d", help="2D image scattering features")
    common(p)
    p.add_argument("--k-select", type=int, default=None,
                   help="chi2-select this many columns (fit on train rows)")
    p.add_argument("--format", choices=("fmat", "csv"), default="fmat")
    p.add_argument("--dump-images", action="store_true",
                   help="also write the rendered molecules as PGM files")
    p.set_defaults(handler=cmd_featurize_2d)

    p = sub.add_parser("train-gin", help="train the molecule embedding network")
    common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(handler=cmd_train_gin)

    p = sub.add_parser("export-embeddings", help="write GIN embeddings")
    common(p)
    p.set_defaults(handler=cmd_export_embeddings)

    p = sub.add_parser("build-metagraph", help="molecule similarity meta-graph")
    common(p)
    p.add_argument("--features", default=None,
                   help="node feature matrix (default ggs.fmat)")
    p.add_argument("--top-k", type=int, default=0,
                   help="keep only each node's k strongest edges (0 = dense)")
    p.set_defaults(handler=cmd_build_metagraph)

    p = sub.add_parser("train-sage", help="train the meta-graph classifier")
    common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(handler=cmd_train_sage)

    p = sub.add_parser("fit-head", help="fit the logistic head on train rows")
    common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--l2", type=float, default=None)
    p.set_defaults(handler=cmd_fit_head)

    p = sub.add_parser("evaluate", help="metrics on the held-out test split")
    common(p)
    p.add_argument("--features", default=None)
    p.add_argument("--head", default=None, help="head.json from fit-head")
    p.add_argument("--sage", action="store_true",
                   help="evaluate the trained meta-graph classifier instead")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("cv", help="stratified k-fold CV on the train split")
    common(p)
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--split", choices=("train", "all"), default="train")
    p.set_defaults(handler=cmd_cv)
    return parser


def apply_overrides(cfg: PipelineConfig, args) -> None:
    if getattr(args, "seed", None) is not None:
        cfg.run.seed = args.seed
    if getattr(args, "threads", None) is not None:
        cfg.run.threads = args.threads
    if getattr(args, "test_fraction", None) is not None:
        cfg.run.test_fraction = args.test_fraction
    if getattr(args, "epochs", None) is not None:
        if args.command == "train-gin":
            cfg.gin.epochs = args.epochs
        else:
            cfg.sage.epochs = args.epochs
    if getattr(args, "k_select", None) is not None:
        cfg.scatter2d.k_select = args.k_select
    if getattr(args, "l2", None) is not None:
        cfg.run.l2 = args.l2
    if getattr(args, "k", None) is not None:
        cfg.run.cv_folds = args.k


# --- shared workdir helpers ---------------------------------------------------

def workdir_of(args) -> Path:
    wd = Path(args.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    (wd / "logs").mkdir(exist_ok=True)
    return wd


def write_log(wd: Path, command: str, cfg: PipelineConfig,
              lines: list[str]) -> None:
    body = [f"command={command}", f"config_digest={cfg.digest()}",
            f"seed={cfg.run.seed}", f"version={__version__}",
            f"numpy={np.__version__}"] + lines
    (wd / "logs" / f"{command}.log").write_text("\n".join(body) + "\n",
                                                encoding="utf-8")


def load_manifest(wd: Path, manifest_path=None
                  ) -> tuple[list[str], list[int], list[str]]:
    """Keys, labels and splits in manifest order."""
    rows = read_manifest(manifest_path or wd / "manifest.csv")
    return ([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows])


def load_graphs(wd: Path, manifest_path=None
                ) -> tuple[list[str], list[int], list[str], list[MolecularGraph]]:
    """Rebuild graphs from records.csv in manifest order."""
    keys, labels, splits = load_manifest(wd, manifest_path)
    records = Path(manifest_path or wd / "manifest.csv").parent / "records.csv"
    smiles_of = {}
    with open(records, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            smiles_of[row["canonical_key"]] = row["smiles"]
    graphs = []
    for key, label in zip(keys, labels):
        if key not in smiles_of:
            raise ConfigError(f"manifest key {key} is missing from {records}")
        graph = preprocess(parse_smiles(smiles_of[key]))
        graph.label = label
        graphs.append(graph)
    return keys, labels, splits, graphs


def train_val_indices(labels: list[int], splits: list[str], val_fraction: float,
                      seed: int) -> tuple[list[int], list[int], list[int]]:
    """Split manifest train rows into train/val; test rows pass through."""
    train_rows = [i for i, s in enumerate(splits) if s == "train"]
    test_rows = [i for i, s in enumerate(splits) if s == "test"]
    rng = np.random.default_rng(seed + 1)
    val_rows: list[int] = []
    for cls in (0, 1):
        rows = [i for i in train_rows if labels[i] == cls]
        n_val = max(1, int(len(rows) * val_fraction + 0.5)) if rows else 0
        order = rng.permutation(len(rows))
        val_rows.extend(rows[j] for j in order[:n_val])
    val_set = set(val_rows)
    return [i for i in train_rows if i not in val_set], sorted(val_set), test_rows


def read_features(path: Path, n_rows: int) -> np.ndarray:
    """Read a feature matrix whose rows must follow the manifest order."""
    X = read_fmat(path)
    if X.shape[0] != n_rows:
        raise ConfigError(f"{path} has {X.shape[0]} rows, manifest "
                          f"has {n_rows}")
    return X


def write_features(wd: Path, stem: str, matrix: np.ndarray,
                   labels: list[str], fmt: str) -> str:
    if fmt == "csv":
        write_feature_csv(wd / f"{stem}.csv", matrix, labels)
        return f"{stem}.csv"
    write_fmat(wd / f"{stem}.fmat", matrix)
    write_columns(wd / f"{stem}.columns.csv", labels)
    return f"{stem}.fmat"


def write_columns(path: Path, labels: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column", "label"])
        for i, lab in enumerate(labels):
            writer.writerow([i, lab])


# --- subcommands ---------------------------------------------------------------

def cmd_ingest(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    rows = load_smiles_csv(args.input)
    threads = cfg.effective_threads()
    records, skipped = build_records(
        rows, strict=args.strict,
        mapper=lambda f, xs: parallel_map(f, xs, threads))
    records = dedup_clear_evidence(records)
    train, test = split_dataset(records, cfg.run.test_fraction, cfg.run.seed)
    split_of = {r.canonical_key: "train" for r in train}
    split_of.update({r.canonical_key: "test" for r in test})

    write_manifest(wd / "manifest.csv", records, split_of)
    with open(wd / "records.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["canonical_key", "smiles", "label"])
        for rec in records:
            writer.writerow([rec.canonical_key, rec.smiles_text, rec.label])

    n_pos = sum(r.label for r in records)
    write_log(wd, "ingest", cfg, [
        f"input={args.input}", f"rows={len(rows)}", f"parsed={len(rows) - len(skipped)}",
        f"skipped={len(skipped)}", f"records_after_dedup={len(records)}",
        f"positives={n_pos}", f"train={len(train)}", f"test={len(test)}"])
    print(f"ingest: {len(records)} records ({n_pos} positive), "
          f"{len(train)} train / {len(test)} test, {len(skipped)} skipped")


def cmd_featurize_gst(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, _, _, graphs = load_graphs(wd, args.manifest)
    gcfg = GGSConfig(diffusion_scales=cfg.gst.diffusion_scales,
                     diffusion_depth=cfg.gst.diffusion_depth)
    vectors = parallel_map(lambda g: ggs_features(g, gcfg), graphs,
                           cfg.effective_threads())
    matrix = np.array([v.values for v in vectors])
    name = write_features(wd, "ggs", matrix, vectors[0].labels, args.format)
    write_log(wd, "featurize-gst", cfg,
              [f"molecules={matrix.shape[0]}", f"columns={matrix.shape[1]}",
               f"format={args.format}"])
    print(f"featurize-gst: {matrix.shape[0]} x {matrix.shape[1]} -> {name}")


def cmd_featurize_2d(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, labels, splits, graphs = load_graphs(wd, args.manifest)
    bank = morlet_bank(cfg.scatter2d.j, cfg.scatter2d.l, cfg.scatter2d.size)

    def one(g):
        return scatter_image(rasterize(g, cfg.scatter2d.size), bank, 2)

    vectors = parallel_map(one, graphs, cfg.effective_threads())
    if args.dump_images:
        img_dir = wd / "images"
        img_dir.mkdir(exist_ok=True)
        for i, g in enumerate(graphs):
            write_pgm(img_dir / f"{i:05d}.pgm",
                      rasterize(g, cfg.scatter2d.size).pixels)
    matrix = np.array([v.values for v in vectors])
    col_labels = vectors[0].labels

    if cfg.scatter2d.k_select:
        train_rows = [i for i, s in enumerate(splits) if s == "train"]
        y = np.array([labels[i] for i in train_rows])
        selected = chi2_select(matrix[train_rows], y, cfg.scatter2d.k_select)
        matrix = matrix[:, selected]
        col_labels = [col_labels[i] for i in selected]
        with open(wd / "scat2d.selected.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "source_column"])
            for rank, col in enumerate(selected):
                writer.writerow([rank, int(col)])

    name = write_features(wd, "scat2d", matrix, col_labels, args.format)
    write_log(wd, "featurize-2d", cfg, [
        f"molecules={matrix.shape[0]}", f"columns={matrix.shape[1]}",
        f"image_size={cfg.scatter2d.size}",
        f"scales={cfg.scatter2d.j}", f"orientations={cfg.scatter2d.l}"])
    print(f"featurize-2d: {matrix.shape[0]} x {matrix.shape[1]} -> {name}")


def cmd_train_gin(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, labels, splits, graphs = load_graphs(wd, args.manifest)
    tr, va, _ = train_val_indices(labels, splits, cfg.run.val_fraction,
                                  cfg.run.seed)
    tcfg = TrainConfig(lr=cfg.gin.lr, epochs=cfg.gin.epochs,
                       seed=cfg.run.seed, weight_decay=cfg.gin.weight_decay,
                       patience=cfg.gin.patience, readout=cfg.gin.readout)
    history: list = []
    params = train_gin([graphs[i] for i in tr], [labels[i] for i in tr],
                       [graphs[i] for i in va], [labels[i] for i in va],
                       tcfg, history=history)
    params.save(wd / "gin.gprm")
    with open(wd / "gin_curve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow([row[0], f"{row[1]:.17g}", f"{row[2]:.17g}"])
    write_log(wd, "train-gin", cfg, [
        f"train={len(tr)}", f"val={len(va)}", f"epochs_run={len(history)}",
        f"best_val={min(h[2] for h in history):.6g}"])
    print(f"train-gin: {len(history)} epochs -> gin.gprm")


def cmd_export_embeddings(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, _, _, graphs = load_graphs(wd, args.manifest)
    params = GINParams.load(wd / "gin.gprm", readout=cfg.gin.readout)
    emb = embed_molecules(graphs, params,
                          mapper=lambda f, xs: parallel_map(
                              f, xs, cfg.effective_threads()))
    write_fmat(wd / "gin_embeddings.fmat", emb)
    write_columns(wd / "gin_embeddings.columns.csv",
                  [f"gin.e{i}" for i in range(emb.shape[1])])
    write_log(wd, "export-embeddings", cfg,
              [f"molecules={emb.shape[0]}", f"columns={emb.shape[1]}"])
    print(f"export-embeddings: {emb.shape[0]} x {emb.shape[1]} "
          f"-> gin_embeddings.fmat")


def cmd_build_metagraph(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    keys, labels, splits = load_manifest(wd, args.manifest)
    feat_path = Path(args.features) if args.features else wd / "ggs.fmat"
    S = read_features(feat_path, len(keys))
    mg = build_metagraph(S)
    if args.top_k:
        mg = sparsify_topk(mg, args.top_k)
    tr, va, te = train_val_indices(labels, splits, cfg.run.val_fraction,
                                   cfg.run.seed)
    mask_name = {}
    for i in tr:
        mask_name[i] = "train"
    for i in va:
        mask_name[i] = "val"
    for i in te:
        mask_name[i] = "test"

    write_fmat(wd / "metagraph_weights.fmat", mg.weights)
    write_fmat(wd / "metagraph_feats.fmat", S)
    with open(wd / "metagraph_nodes.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["canonical_key", "mask", "label"])
        for i, key in enumerate(keys):
            writer.writerow([key, mask_name[i], labels[i]])
    write_log(wd, "build-metagraph", cfg, [
        f"nodes={mg.n}", f"sigma={mg.sigma_kernel:.12g}",
        f"train={len(tr)}", f"val={len(va)}", f"test={len(te)}"])
    print(f"build-metagraph: {mg.n} nodes, sigma={mg.sigma_kernel:.4g}")


def load_metagraph(wd: Path) -> tuple[MetaGraph, np.ndarray]:
    S = read_fmat(wd / "metagraph_feats.fmat")
    W = read_fmat(wd / "metagraph_weights.fmat")
    rows = []
    with open(wd / "metagraph_nodes.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rows.append((row["mask"], int(row["label"])))
    labels = np.array([r[1] for r in rows])
    masks = {name: np.array([r[0] == name for r in rows])
             for name in ("train", "val", "test")}
    mg = MetaGraph(node_features=S, weights=W, sigma_kernel=float("nan"))
    mg.set_masks(masks["train"], masks["val"], masks["test"])
    return mg, labels


def cmd_train_sage(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    mg, labels = load_metagraph(wd)
    scfg = SageConfig(in_dim=mg.node_features.shape[1],
                      hidden=cfg.sage.hidden, embed=cfg.sage.embed,
                      dropout=cfg.sage.dropout, lr=cfg.sage.lr,
                      weight_decay=cfg.sage.weight_decay,
                      epochs=cfg.sage.epochs, patience=cfg.sage.patience,
                      seed=cfg.run.seed)
    history: list = []
    params = train_sage(mg, labels, scfg, history=history)
    params.save(wd / "sage.gprm")
    with open(wd / "sage_curve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow([row[0], f"{row[1]:.17g}", f"{row[2]:.17g}"])
    write_log(wd, "train-sage", cfg, [
        f"nodes={mg.n}", f"epochs_run={len(history)}",
        f"best_val={min(h[2] for h in history):.6g}"])
    print(f"train-sage: {len(history)} epochs -> sage.gprm")


def cmd_fit_head(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, labels, splits = load_manifest(wd, args.manifest)
    X = read_features(Path(args.features), len(labels))
    train_rows = [i for i, s in enumerate(splits) if s == "train"]
    model = fit_logreg(X[train_rows], np.array([labels[i] for i in train_rows]),
                       l2=cfg.run.l2)
    payload = {"weights": [float(w) for w in model.weights],
               "bias": model.bias, "l2": model.l2,
               "features": Path(args.features).name}
    (wd / "head.json").write_text(json.dumps(payload, sort_keys=True),
                                  encoding="utf-8")
    write_log(wd, "fit-head", cfg, [
        f"features={args.features}", f"train_rows={len(train_rows)}",
        f"l2={cfg.run.l2}"])
    print(f"fit-head: {len(train_rows)} rows, {X.shape[1]} features -> head.json")


def cmd_evaluate(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, labels, splits = load_manifest(wd, args.manifest)
    test_rows = [i for i, s in enumerate(splits) if s == "test"]
    y = np.array([labels[i] for i in test_rows])

    if args.sage:
        mg, node_labels = load_metagraph(wd)
        logits = sage_forward(mg, SageParams.load(wd / "sage.gprm"))
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        scores = probs[mg.test_mask, 1]
        y = node_labels[mg.test_mask]
        name = "sage"
    else:
        if not args.features or not args.head:
            raise ConfigError("evaluate needs --features and --head, or --sage")
        X = read_features(Path(args.features), len(labels))
        head = json.loads(Path(args.head).read_text(encoding="utf-8"))
        if len(head["weights"]) != X.shape[1]:
            raise ConfigError(
                f"{args.head} has {len(head['weights'])} weights, "
                f"{args.features} has {X.shape[1]} columns")
        model = LogRegModel(weights=np.array(head["weights"]),
                            bias=head["bias"], l2=head["l2"])
        scores = model.predict_proba(X[test_rows])
        name = Path(args.features).stem

    rep = metrics(y, scores)
    out = wd / f"eval_{name}.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rep.FIELDS))
        writer.writerow([f"{v:.17g}" for v in rep.as_row()])
    write_log(wd, "evaluate", cfg, [
        f"mode={name}", f"test_rows={len(y)}",
        f"acc={rep.acc:.6g}", f"auc={rep.auc:.6g}"])
    print(f"evaluate [{name}] on {len(y)} held-out molecules")
    print(format_report(rep))


def cmd_cv(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, labels, splits = load_manifest(wd, args.manifest)
    X = read_features(Path(args.features), len(labels))
    if args.split == "train":
        rows = [i for i, s in enumerate(splits) if s == "train"]
    else:
        rows = list(range(len(labels)))
    y = np.array([labels[i] for i in rows])
    result = kfold_cv(X[rows], y, k=cfg.run.cv_folds, seed=cfg.run.seed,
                      l2=cfg.run.l2)
    name = Path(args.features).stem
    write_cv_csv(wd / f"cv_{name}.csv", result)
    write_log(wd, "cv", cfg, [
        f"features={args.features}", f"rows={len(rows)}",
        f"k={cfg.run.cv_folds}",
        f"mean_auc={result.mean['auc']:.6g}",
        f"pooled_auc={result.pooled_auc:.6g}"])
    print(f"cv [{name}]: k={cfg.run.cv_folds} on {len(rows)} rows")
    print(f"  mean ACC={result.mean['acc']:.4f}  mean AUC={result.mean['auc']:.4f}"
          f"  (pooled {result.pooled_auc:.4f})")
    print(f"  std  ACC={result.std['acc']:.4f}  std  AUC={result.std['auc']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
