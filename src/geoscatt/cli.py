"""Pipeline entry point: one ``geoscatt`` command with subcommands.

Each subcommand reads/writes artifacts in a work directory; identical
inputs reproduce byte-identical artifacts. Each also writes a run log
(command, config digest, seed, version, key counts, then the stage's wall
time and the process's peak RSS):

    ingest             smiles CSV -> records.csv + manifest.csv + skipped.csv
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
import os
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig, load_config
from .errors import ConfigError, DimensionMismatch, GeoscattError
from .evalhead import (LogRegConfig, LogRegModel, fit_logreg, format_report,
                       kfold_cv, metrics, write_cv_csv)
from .fileio import read_fmat, write_fmat, write_pgm
from .gnn import GINParams, embed_molecules, train_gin
from .gst import ggs_features
from .ingest import (build_records, dedup_clear_evidence, load_smiles_csv,
                     preprocess, read_manifest, split_dataset, write_manifest)
from .metagraph import (MetaGraph, SageParams, build_metagraph, sage_forward,
                        sparsify_topk, train_sage)
from .molgraph import MolecularGraph
from .scatter2d import (chi2_select, morlet_bank, rasterize, scatter2d_channels,
                        scatter_image)
from .smiles import parse_smiles


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args)
        cfg.validate()
        args.started = time.perf_counter()
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
                       help="featurize-2d: images scattered at once "
                            "(default all cores, at least 1); the other "
                            "stages run one thread and ignore it")
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
    p.set_defaults(handler=cmd_featurize_gst)

    p = sub.add_parser("featurize-2d", help="2D image scattering features")
    common(p)
    p.add_argument("--k-select", type=int, default=None,
                   help="chi2-select this many columns (fit on train rows)")
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


def write_log(wd: Path, args, cfg: PipelineConfig, lines: list[str]) -> None:
    """``logs/<command>.log``: run identity, the stage's own lines, then the
    wall time since the handler started and this process's peak RSS."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    body = [f"command={args.command}", f"config_digest={cfg.digest()}",
            f"seed={cfg.run.seed}", f"version={__version__}",
            f"numpy={np.__version__}"] + lines + [
        f"wall_s={time.perf_counter() - args.started:.6f}",
        f"peak_rss_mb={peak_mb:.1f}"]
    (wd / "logs" / f"{args.command}.log").write_text("\n".join(body) + "\n",
                                                     encoding="utf-8")


def epoch_time_lines(epoch_s: list[float]) -> list[str]:
    """Per-epoch wall time for a training log. Kept out of the curve CSVs,
    which stay byte-reproducible."""
    return [f"epoch_s_mean={sum(epoch_s) / len(epoch_s):.6f}",
            f"epoch_s_max={max(epoch_s):.6f}"]


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
                   labels: list[str]) -> str:
    """``<stem>.fmat`` and its ``<stem>.columns.csv`` labels."""
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
    records, skipped = build_records(rows, strict=args.strict)
    records = dedup_clear_evidence(records)
    train, test = split_dataset(records, cfg.run.test_fraction, cfg.run.seed)
    split_of = {r.canonical_key: "train" for r in train}
    split_of.update({r.canonical_key: "test" for r in test})

    write_manifest(wd / "manifest.csv", records, split_of)
    with open(wd / "skipped.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "smiles", "category", "message"])
        writer.writerows(skipped)
    with open(wd / "records.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["canonical_key", "smiles", "label"])
        for rec in records:
            writer.writerow([rec.canonical_key, rec.smiles_text, rec.label])

    n_pos = sum(r.label for r in records)
    write_log(wd, args, cfg, [
        f"input={args.input}", f"rows={len(rows)}", f"parsed={len(rows) - len(skipped)}",
        f"skipped={len(skipped)}", f"records_after_dedup={len(records)}",
        f"positives={n_pos}", f"train={len(train)}", f"test={len(test)}"])
    print(f"ingest: {len(records)} records ({n_pos} positive), "
          f"{len(train)} train / {len(test)} test, {len(skipped)} skipped")


def cmd_featurize_gst(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, _, _, graphs = load_graphs(wd, args.manifest)
    vectors = [ggs_features(g, cfg.gst) for g in graphs]
    matrix = np.array([v.values for v in vectors])
    name = write_features(wd, "ggs", matrix, vectors[0].labels)
    write_log(wd, args, cfg,
              [f"molecules={matrix.shape[0]}", f"columns={matrix.shape[1]}"])
    print(f"featurize-gst: {matrix.shape[0]} x {matrix.shape[1]} -> {name}")


def cmd_featurize_2d(args, cfg: PipelineConfig) -> None:
    threads = (os.cpu_count() or 1) if args.threads is None else args.threads
    if threads < 1:
        raise ConfigError(f"--threads {threads} is not >= 1")
    wd = workdir_of(args)
    _, labels, splits, graphs = load_graphs(wd, args.manifest)
    sc = cfg.scatter2d
    bank = morlet_bank(sc.j, sc.l, sc.size)
    columns = scatter2d_channels(sc.j, sc.l) * (sc.size >> sc.j) ** 2
    if sc.k_select > columns:
        raise DimensionMismatch(
            f"k_select={sc.k_select} exceeds the {columns} columns of "
            f"{sc.size} px, J={sc.j}, L={sc.l}")
    img_dir = wd / "images" if args.dump_images else None
    if img_dir is not None:
        img_dir.mkdir(exist_ok=True)

    def one(item):
        i, g = item
        img = rasterize(g, sc.size)
        if img_dir is not None:
            write_pgm(img_dir / f"{i:05d}.pgm", img.pixels)
        return scatter_image(img, bank, 2)

    vectors, workers = _map_images(one, list(enumerate(graphs)), threads)
    matrix = np.array([v.values for v in vectors])
    col_labels = vectors[0].labels

    if sc.k_select:
        train_rows = [i for i, s in enumerate(splits) if s == "train"]
        y = np.array([labels[i] for i in train_rows])
        selected = chi2_select(matrix[train_rows], y, sc.k_select)
        matrix = matrix[:, selected]
        col_labels = [col_labels[i] for i in selected]
        with open(wd / "scat2d.selected.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "source_column"])
            for rank, col in enumerate(selected):
                writer.writerow([rank, int(col)])

    name = write_features(wd, "scat2d", matrix, col_labels)
    write_log(wd, args, cfg, [
        f"molecules={matrix.shape[0]}", f"columns={matrix.shape[1]}",
        f"image_size={sc.size}", f"scales={sc.j}", f"orientations={sc.l}",
        f"threads={workers}"])
    print(f"featurize-2d: {matrix.shape[0]} x {matrix.shape[1]} -> {name}")


def _map_images(fn, items: list, threads: int) -> tuple[list, int]:
    """``[fn(x) for x in items]`` on up to ``threads`` threads, in input
    order; also returns the number of threads that ran.

    Only featurize-2d maps on threads: the FFTs of ``scatter_image`` release
    the GIL and gain from a second thread from 128 px up, while the other
    per-molecule maps hold the GIL and only slow down. One thread runs as a
    plain loop, without the executor's hand-off per image.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(x) for x in items], 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items)), workers


def cmd_train_gin(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, labels, splits, graphs = load_graphs(wd, args.manifest)
    tr, va, _ = train_val_indices(labels, splits, cfg.run.val_fraction,
                                  cfg.run.seed)
    history: list = []
    timings: dict = {}
    params = train_gin([graphs[i] for i in tr], [labels[i] for i in tr],
                       [graphs[i] for i in va], [labels[i] for i in va],
                       cfg.gin, cfg.run.seed, history=history, timings=timings)
    params.save(wd / "gin.gprm")
    with open(wd / "gin_curve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow([row[0], f"{row[1]:.17g}", f"{row[2]:.17g}"])
    write_log(wd, args, cfg, [
        f"train={len(tr)}", f"val={len(va)}", f"epochs_run={len(history)}",
        f"best_val={min(h[2] for h in history):.6g}"]
        + epoch_time_lines(timings["epoch_s"]))
    print(f"train-gin: {len(history)} epochs -> gin.gprm")


def cmd_export_embeddings(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, _, _, graphs = load_graphs(wd, args.manifest)
    params = GINParams.load(wd / "gin.gprm")
    emb = embed_molecules(graphs, params)
    write_fmat(wd / "gin_embeddings.fmat", emb)
    write_columns(wd / "gin_embeddings.columns.csv",
                  [f"gin.e{i}" for i in range(emb.shape[1])])
    write_log(wd, args, cfg,
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
    write_log(wd, args, cfg, [
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
    history: list = []
    timings: dict = {}
    params = train_sage(mg, labels, cfg.sage, cfg.run.seed, history=history,
                        timings=timings)
    params.save(wd / "sage.gprm")
    with open(wd / "sage_curve.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for row in history:
            writer.writerow([row[0], f"{row[1]:.17g}", f"{row[2]:.17g}"])
    write_log(wd, args, cfg, [
        f"nodes={mg.n}", f"epochs_run={len(history)}",
        f"best_val={min(h[2] for h in history):.6g}",
        f"layer1_input_s={timings['layer1_input_s']:.6f}"]
        + epoch_time_lines(timings["epoch_s"]))
    print(f"train-sage: {len(history)} epochs -> sage.gprm")


def cmd_fit_head(args, cfg: PipelineConfig) -> None:
    wd = workdir_of(args)
    _, labels, splits = load_manifest(wd, args.manifest)
    X = read_features(Path(args.features), len(labels))
    train_rows = [i for i, s in enumerate(splits) if s == "train"]
    head_cfg = LogRegConfig()
    model = fit_logreg(X[train_rows], np.array([labels[i] for i in train_rows]),
                       l2=cfg.run.l2, cfg=head_cfg)
    payload = {"weights": [float(w) for w in model.weights],
               "bias": model.bias, "l2": model.l2,
               "features": Path(args.features).name}
    (wd / "head.json").write_text(json.dumps(payload, sort_keys=True),
                                  encoding="utf-8")
    write_log(wd, args, cfg, [
        f"features={args.features}", f"train_rows={len(train_rows)}",
        f"l2={cfg.run.l2}", f"newton_iters={model.newton_iters}",
        f"grad_norm={model.grad_norm:.3g}", f"tol={head_cfg.tol:g}"])
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
        if head.get("features") != Path(args.features).name:
            raise ConfigError(
                f"{args.head} was fitted on {head.get('features')}, "
                f"not on {args.features}")
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
    write_log(wd, args, cfg, [
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
    head_cfg = LogRegConfig()
    result = kfold_cv(X[rows], y, k=cfg.run.cv_folds, seed=cfg.run.seed,
                      l2=cfg.run.l2, head_cfg=head_cfg)
    name = Path(args.features).stem
    write_cv_csv(wd / f"cv_{name}.csv", result)
    write_log(wd, args, cfg, [
        f"features={args.features}", f"rows={len(rows)}",
        f"k={cfg.run.cv_folds}",
        f"max_newton_iters={max(m.newton_iters for m in result.models)}",
        f"max_grad_norm={max(m.grad_norm for m in result.models):.3g}",
        f"tol={head_cfg.tol:g}",
        f"mean_auc={result.mean['auc']:.6g}",
        f"pooled_auc={result.pooled_auc:.6g}"])
    print(f"cv [{name}]: k={cfg.run.cv_folds} on {len(rows)} rows")
    print(f"  mean ACC={result.mean['acc']:.4f}  mean AUC={result.mean['auc']:.4f}"
          f"  (pooled {result.pooled_auc:.4f})")
    print(f"  std  ACC={result.std['acc']:.4f}  std  AUC={result.std['auc']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
