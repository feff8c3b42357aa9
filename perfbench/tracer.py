"""The traced, in-process run behind the per-layer metrics.

The program is not instrumented. This module wraps the public functions of
each layer from the outside while a traced pass runs, keeps one span per
call in memory (name, start, end, parent, units of work) and unwraps them
again afterwards. A span's self time is its duration minus the time its
child spans cover. Passes alternate between untraced and traced, both in
this process; the tracing overhead is the median over these pairs of the
traced pass's time minus the untraced one's, so that a slow stretch of the
host, which lasts longer than a pair, mostly cancels.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import pipeline
from workloads import Workload

# (module, attribute, span name, units of work from (args, kwargs, result)).
# gnn.gin_forward is a thin wrapper over gnn._forward; the pipeline calls
# _forward directly (training, validation loss and export), so the span
# sits there under the public name.
WRAPPED = (
    ("cli", "load_graphs", "cli.load_graphs", None),
    ("smiles", "parse_smiles", "smiles.parse_smiles", None),
    ("ingest", "preprocess", "ingest.preprocess", None),
    ("ingest", "canonical_key", "ingest.canonical_key", None),
    ("graphcore", "build_matrices", "graphcore.build_matrices", None),
    ("graphcore", "eig_sym", "graphcore.eig_sym", None),
    ("gst", "ggs_features", "gst.ggs_features", None),
    ("gst", "hann_filters", "gst.hann_filters", None),
    ("gst", "diffusion_filters", "gst.diffusion_filters", None),
    ("gst", "scatter_graph", "gst.scatter_graph", None),
    ("scatter2d", "rasterize", "scatter2d.rasterize", None),
    ("scatter2d", "scatter_image", "scatter2d.scatter_image", None),
    ("scatter2d", "morlet_bank", "scatter2d.morlet_bank", None),
    ("scatter2d", "chi2_select", "scatter2d.chi2_select", None),
    ("gnn", "train_gin", "gnn.train_gin",
     lambda a, k, r: (len(a[0]) + len(a[2])) * a[4].epochs),
    ("gnn", "loss_and_grads", "gnn.loss_and_grads", None),
    ("gnn", "_forward", "gnn.gin_forward", None),
    ("gnn", "embed_molecules", "gnn.embed_molecules", None),
    ("molgraph", "MolecularGraph.adjacency", "molgraph.adjacency", None),
    ("metagraph", "build_metagraph", "metagraph.build_metagraph", None),
    ("metagraph", "sparsify_topk", "metagraph.sparsify_topk", None),
    ("metagraph", "train_sage", "metagraph.train_sage", None),
    ("metagraph", "sage_loss_and_grads", "metagraph.sage_loss_and_grads", None),
    ("metagraph", "sage_forward", "metagraph.sage_forward", None),
    ("evalhead", "fit_logreg", "evalhead.fit_logreg", None),
    ("evalhead", "kfold_cv", "evalhead.kfold_cv", None),
    ("fileio", "read_fmat", "fileio.read_fmat", lambda a, k, r: r.nbytes),
    ("fileio", "write_fmat", "fileio.write_fmat", lambda a, k, r: np.asarray(a[1]).nbytes),
)


class Tracer:
    """Spans kept in memory as [name, parent, start, end, units]."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []
        self.fft_calls = 0
        self.fft_points = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, self.open[-1] if self.open else None,
                           time.perf_counter(), None, 1.0])
        self.open.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self.open.pop()
            self.spans[sid][3] = time.perf_counter()

    def wrap(self, name: str, fn, units=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if units:
                    sp[4] = units(args, kwargs, result)
                return result
        return traced

    def count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            if self.open and self.spans[self.open[-1]][0] == "scatter2d.scatter_image":
                self.fft_calls += 1
                self.fft_points += int(np.prod(np.shape(a)))
            return fn(a, *args, **kwargs)
        return counted

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[3] - s[2]
        return own


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every listed function wherever the program's modules bound it."""
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "geoscatt" or name.startswith("geoscatt.")}
    undo = []
    for mod_name, attr, span_name, units in WRAPPED:
        owner = mods[f"geoscatt.{mod_name}"]
        if "." in attr:  # a method
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, tracer.wrap(span_name, orig, units))
            continue
        orig = getattr(owner, attr)
        traced = tracer.wrap(span_name, orig, units)
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, traced)
    for fft_name in ("fft2", "ifft2"):
        orig = getattr(np.fft, fft_name)
        undo.append((np.fft, fft_name, orig))
        setattr(np.fft, fft_name, tracer.count_fft(orig))
    try:
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)


def run_pass(commands, tracer: Tracer | None = None) -> float:
    """One full pipeline pass in this process; returns its wall time."""
    from geoscatt import cli

    start = time.perf_counter()
    for name, args in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(args)
            else:
                with tracer.span(f"stage.{name}"):
                    code = cli.main(args)
        if code != 0:
            raise pipeline.StageFailed(f"{name} exited with {code} in process")
    return time.perf_counter() - start


def layer_metrics(tracer: Tracer, molecules: int, inputs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = tracer.self_times()
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    units: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, own):
        calls[s[0]] += 1
        self_s[s[0]] += t
        total_s[s[0]] += s[3] - s[2]
        units[s[0]] += s[4]
    adjacency_in_training = sum(
        1 for s in tracer.spans if s[0] == "molgraph.adjacency"
        and _under(tracer.spans, s, "gnn.train_gin"))
    per_mol = max(calls["gst.ggs_features"], 1)
    images = max(calls["scatter2d.scatter_image"], 1)

    def per_call(name, scale):
        return scale * self_s[name] / max(calls[name], 1)

    return {
        "smiles.parse_smiles.calls_per_mol": calls["smiles.parse_smiles"] / inputs,
        "smiles.parse_smiles.us_per_call": per_call("smiles.parse_smiles", 1e6),
        "cli.load_graphs.s_per_stage": total_s["cli.load_graphs"] / max(calls["cli.load_graphs"], 1),
        "ingest.preprocess.us_per_call": per_call("ingest.preprocess", 1e6),
        "ingest.canonical_key.us_per_call": per_call("ingest.canonical_key", 1e6),
        "graphcore.build_matrices.ms_per_mol": per_call("graphcore.build_matrices", 1e3),
        "graphcore.eig_sym.calls_per_mol": calls["graphcore.eig_sym"] / molecules,
        "graphcore.eig_sym.ms_per_call": per_call("graphcore.eig_sym", 1e3),
        "gst.ggs_features.ms_per_mol": 1e3 * self_s["gst.ggs_features"] / per_mol,
        "gst.hann_filters.ms_per_mol": 1e3 * self_s["gst.hann_filters"] / per_mol,
        "gst.diffusion_filters.ms_per_mol": 1e3 * self_s["gst.diffusion_filters"] / per_mol,
        "gst.scatter_graph.ms_per_mol": 1e3 * self_s["gst.scatter_graph"] / per_mol,
        "scatter2d.rasterize.ms_per_img": per_call("scatter2d.rasterize", 1e3),
        "scatter2d.scatter_image.ms_per_img": per_call("scatter2d.scatter_image", 1e3),
        "scatter2d.morlet_bank.s": self_s["scatter2d.morlet_bank"],
        "scatter2d.chi2_select.s": self_s["scatter2d.chi2_select"],
        "scatter2d.fft_calls_per_img": tracer.fft_calls / images,
        "scatter2d.fft_points_per_img": tracer.fft_points / images,
        "gnn.loss_and_grads.us_per_mol": per_call("gnn.loss_and_grads", 1e6),
        "gnn.gin_forward.us_per_mol": per_call("gnn.gin_forward", 1e6),
        "molgraph.adjacency.calls_per_mol_epoch":
            adjacency_in_training / max(units["gnn.train_gin"], 1),
        "metagraph.build_metagraph.s": self_s["metagraph.build_metagraph"],
        "metagraph.sparsify_topk.s": self_s["metagraph.sparsify_topk"],
        "metagraph.sage_loss_and_grads.ms_per_call": per_call("metagraph.sage_loss_and_grads", 1e3),
        "metagraph.sage_forward.ms_per_call": per_call("metagraph.sage_forward", 1e3),
        "evalhead.fit_logreg.s_per_fit": per_call("evalhead.fit_logreg", 1.0),
        "evalhead.kfold_cv.s": total_s["evalhead.kfold_cv"],
        "fileio.read_fmat.s": self_s["fileio.read_fmat"],
        "fileio.read_fmat.bytes": units["fileio.read_fmat"],
        "fileio.write_fmat.s": self_s["fileio.write_fmat"],
        "fileio.write_fmat.bytes": units["fileio.write_fmat"],
    }


def _under(spans, span, ancestor: str) -> bool:
    parent = span[1]
    while parent is not None:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][1]
    return False


def span_tree(tracer: Tracer) -> list[dict]:
    """Spans aggregated by their path from the root, with self times."""
    own = tracer.self_times()
    paths: list[str] = []
    rows: dict[str, dict] = {}
    for s, t in zip(tracer.spans, own):
        path = s[0] if s[1] is None else f"{paths[s[1]]}/{s[0]}"
        paths.append(path)
        row = rows.setdefault(path, {"path": path, "calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s[3] - s[2]
        row["self_s"] += t
    return list(rows.values())


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's share of a traced pass's self time, largest first.

    A layer is a module; the self time of the ``stage.*`` spans, the work a
    stage does outside every wrapped function, is ``unwrapped``. The trace
    file keeps each layer's median share over the traced passes.
    """
    own: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, tracer.self_times()):
        layer = s[0].split(".")[0]
        own["unwrapped" if layer == "stage" else layer] += t
    total = sum(own.values())
    return {k: v / total for k, v in sorted(own.items(), key=lambda kv: -kv[1])}


def per_layer(wl: Workload, commands, molecules: int, end: float,
              stage_runs, verify, out: Path) -> tuple[dict[str, dict], int]:
    """Alternate untraced and traced in-process passes until ``end``.

    ``verify`` runs after every pass. Returns the metrics and the number
    of passes made.
    """
    plain, traced, layers, shares, last = [], [], [], [], None
    while not traced or time.perf_counter() + plain[-1] + traced[-1] < end:
        plain.append(run_pass(commands))
        verify()
        tracer = Tracer()
        with installed(tracer):
            traced.append(run_pass(commands, tracer))
        verify()
        layers.append(layer_metrics(tracer, molecules, len(wl.rows)))
        shares.append(layer_shares(tracer))
        last = tracer

    metrics = {}
    for name in layers[0]:
        unit = name.rsplit(".", 1)[1].split("_")[0]
        metrics[name] = {"value": statistics.median(m[name] for m in layers),
                         "unit": unit if unit in ("s", "ms", "us", "bytes") else "count"}
    for run in stage_runs:
        metrics[f"proc.peak_rss_mb.{run.name}"] = {"value": run.peak_rss_mb, "unit": "MB"}
    overhead = statistics.median(t - p for p, t in zip(plain, traced))
    metrics["trace.pipeline_untraced_s"] = {"value": statistics.median(plain), "unit": "s"}
    metrics["trace.pipeline_traced_s"] = {"value": statistics.median(traced), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out.write_text(json.dumps({
        "workload": wl.name, "passes": len(traced),
        "untraced_pass_s": plain, "traced_pass_s": traced,
        "metrics": metrics,
        "layer_shares": {k: statistics.median(s[k] for s in shares) for k in shares[-1]},
        "spans": span_tree(last)}, indent=1), encoding="utf-8")
    return metrics, len(plain) + len(traced)
