import tracemalloc

import numpy as np
import pytest

from geoscatt.errors import DegenerateLabels, DimensionMismatch, SizeTooSmall
from geoscatt.graphcore import eig_sym
from geoscatt.ingest import preprocess
from geoscatt.molgraph import permute
from geoscatt.scatter2d import (
    Image,
    chi2_select,
    chi2_statistics,
    morlet_bank,
    rasterize,
    scatter2d_channels,
    scatter_image,
    _draw_disc,
    _fit_to_box,
    _layout,
    _orient,
)
from geoscatt.smiles import parse_smiles
from corpus import generate
from util import random_permutation

BANK64 = morlet_bank(5, 8, 64)


def test_single_atom_disc_at_center():
    img = rasterize(preprocess(parse_smiles("C")), 64)
    ys, xs = np.nonzero(img.pixels)
    assert len(ys) > 0
    assert np.all(np.abs(ys - 31.5) <= 2) and np.all(np.abs(xs - 31.5) <= 2)
    assert img.pixels.max() == 0.6  # carbon intensity


def test_two_atoms_joined_by_line():
    img = rasterize(preprocess(parse_smiles("CO")), 64)
    row = img.pixels[31:33].max(axis=0)
    assert row[12] >= 0.5 and row[51] >= 0.5      # the two discs
    assert np.all(row[14:50] >= 0.5)              # bond pixels between them
    assert img.pixels.max() == 0.8                # oxygen disc


def test_benzene_layout_is_regular_hexagon():
    pos = _layout(preprocess(parse_smiles("c1ccccc1")), 64)
    d = np.sort([np.linalg.norm(pos[i] - pos[j])
                 for i in range(6) for j in range(i + 1, 6)])
    side = d[:6]
    diag = d[-3:]
    assert np.allclose(side, side[0], rtol=1e-6)
    assert np.allclose(diag, 2 * side[0], rtol=1e-6)


def test_layout_matches_jacobi_on_simple_spectra():
    # eigh and Jacobi eigenvectors agree up to sign on simple eigenpairs;
    # the shared tie rule must then pick the same sign for both
    compared = 0
    for smiles, _ in generate(60, seed=108):
        g = preprocess(parse_smiles(smiles))
        if g.n_atoms < 3:
            continue
        laplacian = np.diag(g.adjacency().sum(axis=1)) - g.adjacency()
        V, lam = eig_sym(laplacian)
        if np.min(np.diff(lam[:4])) <= 1e-6:
            continue  # degenerate layout eigenpairs: the basis is arbitrary
        jacobi = _fit_to_box(_orient(V[:, 1:3]), 64)
        assert np.max(np.abs(_layout(g, 64) - jacobi)) < 1e-9, smiles
        compared += 1
    assert compared >= 50


def test_orient_sign_rule_ties_within_tolerance():
    cols = np.array([[0.5, -0.5], [-0.5 * (1 + 1e-12), 0.5], [0.1, 0.2]])
    out = _orient(cols)
    # a last-ulp larger entry later in the column does not win the tie
    assert out[0, 0] == 0.5 and out[0, 1] == 0.5
    assert np.array_equal(np.abs(out), np.abs(cols))


def _draw_disc_loop(img, center, radius, value):
    size = img.shape[0]
    cx, cy = center
    for y in range(max(0, int(cy) - radius - 1), min(size, int(cy) + radius + 2)):
        for x in range(max(0, int(cx) - radius - 1), min(size, int(cx) + radius + 2)):
            if (x - cx) ** 2 + (y - cy) ** 2 <= radius * radius + 0.25:
                img[y, x] = max(img[y, x], value)


def test_draw_disc_matches_loop():
    rng = np.random.default_rng(41)
    size = 32
    for _ in range(300):
        radius = int(rng.integers(1, 4))
        center = rng.uniform(-radius - 6, size + radius + 6, 2)
        value = float(rng.choice([0.6, 0.7, 0.9, 1.0]))
        base = np.where(rng.random((size, size)) < 0.3, 0.8, 0.0)
        want, got = base.copy(), base.copy()
        _draw_disc_loop(want, center, radius, value)
        _draw_disc(got, center, radius, value)
        assert np.array_equal(got, want), (center, radius)


def test_rasterize_size_validation():
    g = preprocess(parse_smiles("CC"))
    with pytest.raises(SizeTooSmall):
        rasterize(g, 8)
    with pytest.raises(SizeTooSmall):
        rasterize(g, 48)  # not a power of two


def test_bank_count_and_admissibility():
    bank = morlet_bank(2, 4, 32)
    assert len(bank.wavelets_freq) == 8  # J*L wavelets + implicit lowpass
    for freq in bank.wavelets_freq.values():
        # the DC term of a transfer is the wavelet's pixel sum; peak is one
        assert abs(freq[0, 0]) <= 1e-6 * np.abs(freq).max()


def test_opposite_orientation_is_conjugate():
    size, j = 32, 1
    coords = np.fft.fftfreq(size) * size
    x1, x2 = np.meshgrid(coords, coords, indexing="xy")
    sigma, k = 0.8 * 2 ** j, 0.75 * np.pi / 2 ** j
    env = np.exp(-(x1 ** 2 + x2 ** 2) / (2 * sigma ** 2))

    def build(theta):
        carrier = np.exp(1j * k * (np.cos(theta) * x1 + np.sin(theta) * x2))
        beta = (carrier * env).sum() / env.sum()
        return (carrier - beta) * env

    assert np.allclose(build(np.pi), np.conj(build(0.0)), atol=1e-14)


def test_constant_image_kills_wavelet_orders():
    img = Image(pixels=np.full((64, 64), 0.42))
    sv = scatter_image(img, BANK64, 2)
    order0 = [v for v, l in zip(sv.values, sv.labels) if l.startswith("m0")]
    higher = [abs(v) for v, l in zip(sv.values, sv.labels)
              if not l.startswith("m0")]
    assert np.allclose(order0, 0.42, atol=1e-10)
    assert max(higher) < 1e-8


def test_coefficient_count_64():
    img = rasterize(preprocess(parse_smiles("CCO")), 64)
    sv = scatter_image(img, BANK64, 2)
    assert scatter2d_channels(5, 8) == 681
    assert len(sv.values) == 681 * 4  # 2x2 cells after subsampling by 2^5
    assert len(sv.labels) == len(sv.values)
    assert sv.labels[:6] == ("m0.y0x0", "m0.y0x1", "m0.y1x0", "m0.y1x1",
                             "m1.j0.t0.y0x0", "m1.j0.t0.y0x1")
    assert sv.labels[8] == "m2.j0-1.t0-0.y0x0"
    for order in (0, 1):
        lower = scatter_image(img, BANK64, order)
        assert lower.labels == tuple(l for l in sv.labels
                                     if int(l[1]) <= order)
        assert len(lower.values) == len(lower.labels)


def test_one_cell_channels_keep_no_field_alive():
    # at size == 2^J every channel is one cell; were it a view, it would keep
    # its whole complex field (64 KiB here, 4 MiB at 512 px) alive
    bank = morlet_bank(6, 8, 64)
    img = rasterize(preprocess(parse_smiles("CCO")), 64)
    tracemalloc.start()
    try:
        sv = scatter_image(img, bank, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sv.values) == scatter2d_channels(6, 8) == 1009
    assert peak < 4 * 2 ** 20  # 1009 fields would hold 63 MiB


def test_shift_stability():
    img = rasterize(preprocess(parse_smiles("CC(=O)Oc1ccccc1C(=O)O")), 64)
    base = scatter_image(img, BANK64, 2).values
    shifted = scatter_image(Image(pixels=np.roll(img.pixels, 2, axis=1)),
                            BANK64, 2).values
    rel = np.linalg.norm(shifted - base) / np.linalg.norm(base)
    assert rel < 0.2


def test_energy_decreases_with_order():
    for text in ("c1ccccc1", "CC(C)Cc1ccc(C)cc1", "O=[N+]([O-])c1ccccc1"):
        img = rasterize(preprocess(parse_smiles(text)), 64)
        sv = scatter_image(img, BANK64, 2)
        s1 = np.mean([abs(v) for v, l in zip(sv.values, sv.labels)
                      if l.startswith("m1")])
        s2 = np.mean([abs(v) for v, l in zip(sv.values, sv.labels)
                      if l.startswith("m2")])
        assert s2 <= s1


def test_scatter_determinism():
    img = rasterize(preprocess(parse_smiles("Nc1ccccc1")), 64)
    a = scatter_image(img, BANK64, 2).values
    b = scatter_image(img, BANK64, 2).values
    assert np.array_equal(a, b)


def test_pipeline_permutation_invariance():
    # needs a simple Laplacian spectrum: asymmetric molecule, no eigenvalue
    # or entry-magnitude ties in the layout eigenvectors
    g = preprocess(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"))
    deg = g.adjacency().sum(axis=1)
    _, lam = eig_sym(np.diag(deg) - g.adjacency())
    assert np.min(np.diff(lam[:4])) > 1e-6  # layout eigenpairs are isolated
    base = scatter_image(rasterize(g, 64), BANK64, 2).values
    rng = np.random.default_rng(29)
    for _ in range(5):
        p = permute(g, random_permutation(rng, g.n_atoms))
        other = scatter_image(rasterize(p, 64), BANK64, 2).values
        assert np.max(np.abs(other - base)) < 1e-9


def test_image_validation():
    with pytest.raises(DimensionMismatch):
        Image(pixels=np.zeros((64, 32)))
    with pytest.raises(DimensionMismatch):
        Image(pixels=np.zeros((48, 48)))
    with pytest.raises(DimensionMismatch):
        scatter_image(Image(pixels=np.zeros((32, 32))), BANK64, 2)


def test_chi2_selects_label_copy():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, 300)
    X = np.column_stack([rng.random(300), y.astype(float), rng.random(300)])
    assert chi2_select(X, y, 1).tolist() == [1]


def test_chi2_constant_column_scores_zero():
    y = np.array([0, 1, 0, 1])
    X = np.column_stack([np.full(4, 3.7), [0.0, 1.0, 0.1, 0.9]])
    stats = chi2_statistics(X, y)
    assert stats[0] == 0.0
    assert stats[1] > 0.0


def test_chi2_matches_contingency_oracle():
    rng = np.random.default_rng(8)
    X = rng.random((60, 5))
    y = rng.integers(0, 2, 60)
    stats = chi2_statistics(X, y)
    sel = chi2_select(X, y, 5)
    assert sorted(sel.tolist()) == [0, 1, 2, 3, 4]
    # hand-rolled two-bin observed-vs-expected per column
    n1 = (y == 1).sum()
    n = len(y)
    for col in range(5):
        v = X[:, col]
        scaled = (v - v.min()) / (v.max() - v.min())
        obs = np.array([scaled[y == 0].sum(), scaled[y == 1].sum()])
        exp = scaled.sum() * np.array([(n - n1) / n, n1 / n])
        oracle = float(((obs - exp) ** 2 / exp).sum())
        assert abs(stats[col] - oracle) < 1e-9
    # ranking is by statistic, descending, ties toward lower index
    order = sorted(range(5), key=lambda i: (-stats[i], i))
    assert sel.tolist() == order


def test_chi2_rejects_single_class_and_oversized_k():
    X = np.random.default_rng(0).random((10, 3))
    with pytest.raises(DegenerateLabels):
        chi2_select(X, np.zeros(10, dtype=int), 2)
    with pytest.raises(DimensionMismatch):
        chi2_select(X, np.array([0, 1] * 5), 4)
