import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from corpus import generate
from geoscatt import graphcore
from geoscatt.errors import DimensionMismatch, InvalidScaleParams
from geoscatt.graphcore import build_matrices, walk_operator
from geoscatt.gst import (
    GGSConfig,
    diffusion_filters,
    frame_spectrum,
    ggs_features,
    hann_filters,
    hann_kernel,
    scatter_graph,
)
from geoscatt.ingest import preprocess
from geoscatt.molgraph import permute
from geoscatt.smiles import parse_smiles
from util import random_connected_graph, random_permutation


def test_k2_first_wavelet_vanishes_exactly():
    gm = build_matrices(preprocess(parse_smiles("CC")))
    bank = diffusion_filters(gm.T, 4)
    assert np.max(np.abs(bank.filters[1])) == 0.0  # T idempotent on K2


def test_diffusion_telescoping():
    rng = np.random.default_rng(41)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 20)))
        T = build_matrices(g).T
        bank = diffusion_filters(T, 4)
        total = sum(bank.filters[1:])
        target = T - np.linalg.matrix_power(T, 8)
        assert np.max(np.abs(total - target)) < 1e-10


def test_diffusion_matches_naive_power_oracle():
    gm = build_matrices(preprocess(parse_smiles("CCC")))
    bank = diffusion_filters(gm.T, 4)
    T = gm.T
    naive = [np.eye(3) + T]
    for j in range(1, 4):
        p = np.linalg.matrix_power(T, 2 ** (j - 1))
        naive.append(p - np.linalg.matrix_power(T, 2 ** j))
    for ours, ref in zip(bank.filters, naive):
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_hann_kernel_center_formula():
    # J=4, R=3, e_max=2: second window centers at 2 * 2 / (4 + 1 - 3) = 2.0
    psi = hann_kernel(np.array([2.0]), 4, 3.0, 2.0, "standard-hann")
    assert psi[1, 0] == pytest.approx(1.0, abs=1e-12)  # peak value at center


def test_hann_standard_range():
    grid = np.array([0.0, 1.0, 2.0])
    psi = hann_kernel(grid, 4, 3.0, max(grid.max(), 1e-6), "standard-hann")
    assert np.all(psi >= 0.0) and np.all(psi <= 1.0)


def test_hann_filters_symmetric_both_variants():
    gm = build_matrices(preprocess(parse_smiles("c1ccccc1")))
    for variant in ("paper-exact", "standard-hann"):
        bank = hann_filters(gm.eigvecs, gm.eigvals, 4, 3.0, variant)
        assert bank.scales == 4 and len(bank.filters) == 4
        for H in bank.filters:
            assert np.max(np.abs(H - H.T)) < 1e-10


def test_hann_invalid_scale_params():
    gm = build_matrices(preprocess(parse_smiles("CC")))
    with pytest.raises(InvalidScaleParams):
        hann_filters(gm.eigvecs, gm.eigvals, 4, 5.0)  # J + 1 == R
    with pytest.raises(InvalidScaleParams):
        hann_filters(gm.eigvecs, gm.eigvals, 4, -1.0)


def test_standard_hann_frame_positive_on_interior():
    e_max = 2.0
    grid = np.linspace(0.05 * e_max, 0.95 * e_max, 64)
    spectrum = frame_spectrum(4, 3.0, e_max, "standard-hann", grid)
    assert np.all(spectrum >= 0.0)
    assert spectrum.min() > 0.0


def test_scatter_depth_zero_mean_of_ones():
    gm = build_matrices(preprocess(parse_smiles("CCCC")))
    bank = diffusion_filters(gm.T, 4)
    out = scatter_graph(np.ones((4, 1)), bank, 0)
    assert len(out) == 1
    assert out[0][0] == ()
    assert out[0][1][0] == pytest.approx(1.0, abs=1e-15)


def test_path_count_formula():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 6)
    T = build_matrices(g).T
    for J in (2, 3, 4, 5):
        bank = diffusion_filters(T, J)
        for depth in (1, 2, 3):
            out = scatter_graph(rng.standard_normal((6, 2)), bank, depth)
            expected_paths = sum(J ** m for m in range(depth + 1))
            assert len(out) == expected_paths
            # exhaustive enumeration of labels matches
            seen = {path for path, _ in out}
            for m in range(depth + 1):
                for path in itertools.product(range(J), repeat=m):
                    assert path in seen


def test_scatter_order_coefficients_nonnegative():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 10)
    T = build_matrices(g).T
    bank = diffusion_filters(T, 4)
    out = scatter_graph(rng.standard_normal((10, 3)), bank, 3)
    for path, coeff in out:
        if path:
            assert np.all(coeff >= -1e-12)


def test_scatter_dimension_mismatch():
    gm = build_matrices(preprocess(parse_smiles("CCC")))
    bank = diffusion_filters(gm.T, 3)
    with pytest.raises(DimensionMismatch):
        scatter_graph(np.ones((5, 2)), bank, 1)


def test_ggs_vector_shape_and_blocks():
    vec = ggs_features(preprocess(parse_smiles("CC(C)Cc1ccccc1")))
    assert len(vec.values) == 595
    assert np.all(np.isfinite(vec.values))
    hann = [l for l in vec.labels if l.startswith("hann.")]
    diff = [l for l in vec.labels if l.startswith("diff.")]
    assert len(hann) == 7
    assert len(diff) == 588
    assert len(set(vec.labels)) == 595


def test_ggs_dim_formula_tracks_config():
    cfg = GGSConfig(diffusion_scales=3, diffusion_depth=2)
    vec = ggs_features(preprocess(parse_smiles("CCO")), cfg)
    assert len(vec.values) == 7 * (1 + 3 + 9)
    assert cfg.total_dim() == len(vec.values)


def test_ggs_permutation_invariance():
    rng = np.random.default_rng(13)
    for text in ("c1ccccc1", "CC(=O)Oc1ccccc1C(=O)O", "CCN(CC)CC"):
        g = preprocess(parse_smiles(text))
        base = ggs_features(g).values
        for _ in range(10):
            p = permute(g, random_permutation(rng, g.n_atoms))
            assert np.max(np.abs(ggs_features(p).values - base)) < 1e-9


def test_ggs_single_atom_is_finite():
    vec = ggs_features(preprocess(parse_smiles("[CH4]")))
    assert len(vec.values) == 595
    assert np.all(np.isfinite(vec.values))


def test_ggs_deterministic():
    g = preprocess(parse_smiles("O=[N+]([O-])c1ccccc1"))
    a = ggs_features(g).values
    b = ggs_features(g).values
    assert np.array_equal(a, b)


def test_ggs_needs_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ggs_features ran an eigensolve")

    monkeypatch.setattr(graphcore, "eig_sym", refuse)
    smiles = [text for text, _ in generate(60, seed=108)] + ["[CH4]"]
    for text in smiles:
        vec = ggs_features(preprocess(parse_smiles(text)))
        assert len(vec.values) == 595
        assert np.all(np.isfinite(vec.values))


def _per_path_cascade(X, filters, depth):
    """Reference cascade: every path filtered on its own, in path order."""
    out = [((), X.mean(axis=0))]
    for m in range(1, depth + 1):
        for path in itertools.product(range(len(filters)), repeat=m):
            signal = X
            for j in path:
                signal = np.abs(filters[j] @ signal)
            out.append((path, signal.mean(axis=0)))
    return out


def test_batched_cascade_equals_per_path_loop():
    rng = np.random.default_rng(21)
    graphs = [preprocess(parse_smiles(text))
              for text in ("[CH4]", "CC(=O)Oc1ccccc1C(=O)O")]
    graphs += [random_connected_graph(rng, n) for n in (2, 9, 30)]
    for g in graphs:
        bank = diffusion_filters(walk_operator(g.adjacency()), 4)
        X = g.node_features
        ours = scatter_graph(X, bank, 3)
        ref = _per_path_cascade(X, bank.filters, 3)
        assert [path for path, _ in ours] == [path for path, _ in ref]
        for (_, a), (_, b) in zip(ours, ref):
            assert np.array_equal(a, b)


def test_traced_layer_names_resolve(monkeypatch):
    """The benchmark's traced run wraps these names; each must exist."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for mod_name, attr, _, _ in tracer.WRAPPED:
        owner = importlib.import_module(f"geoscatt.{mod_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"geoscatt.{mod_name}.{attr} is missing"
            owner = getattr(owner, part)
        assert callable(owner)
