"""Paper-scale timing probe for one 2D scattering image; not a test, not gated.

    python3 tools/probe_2d.py [--size 512] [--j 9] [--l 8] [--smiles SMILES]

Draws one fixed molecule (benzo[a]pyrene, 20 heavy atoms, an Ames positive,
unless ``--smiles`` names another) at the paper's 512 px and scatters it
with J=9, L=8 on one thread. BLAS is pinned to one thread unless the
environment sets it. Prints one JSON line: the Morlet bank build, the
drawing (``rasterize``, layout included) and ``scatter_image`` seconds per
order, and this process's peak RSS. Order k's seconds are the run up to
order k minus the run up to order k-1, so the probe runs the cascade up to
orders 0, 1 and 2 once each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from geoscatt.ingest import preprocess  # noqa: E402
from geoscatt.scatter2d import (morlet_bank, rasterize,  # noqa: E402
                                scatter2d_channels, scatter_image)
from geoscatt.smiles import parse_smiles  # noqa: E402

BENZO_A_PYRENE = "c1ccc2c(c1)cc1ccc3cccc4ccc2c1c34"


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--j", type=int, default=9)
    parser.add_argument("--l", type=int, default=8)
    parser.add_argument("--smiles", default=BENZO_A_PYRENE)
    args = parser.parse_args(argv)

    graph = preprocess(parse_smiles(args.smiles))
    bank, bank_s = timed(morlet_bank, args.j, args.l, args.size)
    img, rasterize_s = timed(rasterize, graph, args.size)
    cumulative = [timed(scatter_image, img, bank, order)[1]
                  for order in (0, 1, 2)]

    return {
        "smiles": args.smiles, "atoms": graph.n_atoms, "size": args.size,
        "J": args.j, "L": args.l,
        "channels": scatter2d_channels(args.j, args.l),
        "morlet_bank_s": round(bank_s, 4),
        "rasterize_s": round(rasterize_s, 4),
        "order0_s": round(cumulative[0], 4),
        "order1_s": round(cumulative[1] - cumulative[0], 4),
        "order2_s": round(cumulative[2] - cumulative[1], 4),
        "scatter_image_s": round(cumulative[2], 4),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
