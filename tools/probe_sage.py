"""Paper-scale timing probe for the meta-graph stages; not a test, not gated.

    python3 tools/probe_sage.py [--n 6500] [--features 595] [--epochs 5] [--seed 0]

Builds the dense meta-graph of a seeded synthetic n x F feature matrix, then
trains MOLG3-SAGE on it for a few epochs with the ``SageConfig`` defaults
(hidden 128, embed 64, dropout 0.5) and random 70/10/20 masks. BLAS is
pinned to one thread unless the environment sets it. Prints one JSON line:
``build_metagraph`` seconds and this process's peak RSS before and after
it, the size of the weight matrix, ``train_sage``'s one-time layer-1 input
build and its seconds per epoch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from geoscatt.metagraph import SageConfig, build_metagraph, train_sage  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=6500)
    parser.add_argument("--features", type=int, default=595)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    labels = rng.integers(0, 2, args.n)
    S = rng.random((args.n, args.features))
    S[labels == 1, : args.features // 2] += 0.5

    rss_before = peak_rss_mb()
    start = time.perf_counter()
    mg = build_metagraph(S)
    build_s = time.perf_counter() - start
    rss_after = peak_rss_mb()

    order = rng.permutation(args.n)
    n_train, n_val = int(0.7 * args.n), int(0.1 * args.n)
    masks = [np.zeros(args.n, dtype=bool) for _ in range(3)]
    masks[0][order[:n_train]] = True
    masks[1][order[n_train:n_train + n_val]] = True
    masks[2][order[n_train + n_val:]] = True
    mg.set_masks(*masks)

    cfg = SageConfig(epochs=args.epochs, patience=args.epochs)
    timings: dict = {}
    start = time.perf_counter()
    train_sage(mg, labels, cfg, args.seed, timings=timings)
    train_s = time.perf_counter() - start
    epoch_s = timings["epoch_s"]

    return {
        "n": args.n, "features": args.features, "seed": args.seed,
        "build_metagraph_s": round(build_s, 4),
        "peak_rss_mb_before_build": round(rss_before, 1),
        "peak_rss_mb_after_build": round(rss_after, 1),
        "weights_mb": round(mg.weights.nbytes / 2 ** 20, 1),
        "train_sage_s": round(train_s, 4),
        "layer1_input_s": round(timings["layer1_input_s"], 4),
        "epochs": len(epoch_s),
        "epoch_s_median": round(statistics.median(epoch_s), 4),
        "epoch_s_max": round(max(epoch_s), 4),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
