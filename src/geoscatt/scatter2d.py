"""2D Morlet scattering over rasterized molecule drawings.

Molecules are drawn deterministically from a spectral layout (no external
depiction engine), scattered through a Morlet wavelet cascade up to second
order with increasing-scale paths, then optionally reduced by chi-squared
feature selection against the binary label.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLabels,
    DimensionMismatch,
    InvalidScaleParams,
    SizeTooSmall,
)
from .molgraph import MolecularGraph

ATOM_INTENSITY = {6: 0.6, 7: 0.7, 8: 0.8}
HALOGENS = frozenset({9, 17, 35, 53})
BOND_INTENSITY = 0.5
# entries this close (relative to the column maximum) to the largest
# magnitude tie for the layout sign rule, so a last-ulp difference between
# eigensolvers cannot pick the mirror image
SIGN_TIE_RTOL = 1e-9


@dataclass
class Image:
    pixels: np.ndarray  # square, power-of-two side, grayscale in [0, 1]

    @property
    def size(self) -> int:
        return self.pixels.shape[0]

    def __post_init__(self):
        s = self.pixels.shape
        if len(s) != 2 or s[0] != s[1] or s[0] & (s[0] - 1) or s[0] < 2:
            raise DimensionMismatch(f"image must be square power-of-two, got {s}")


def rasterize(g: MolecularGraph, size: int) -> Image:
    """Draw one molecule: spectral 2D layout, Bresenham bonds, atom discs."""
    if size < 16:
        raise SizeTooSmall(f"raster size {size} below minimum 16")
    if size & (size - 1):
        raise SizeTooSmall(f"raster size {size} is not a power of two")

    pos = _layout(g, size)
    img = np.zeros((size, size))

    for b in g.bonds:
        x0, y0 = pos[b.i]
        x1, y1 = pos[b.j]
        offsets = {"single": (0,), "aromatic": (0,),
                   "double": (-1, 1), "triple": (-2, 0, 2)}[b.order]
        dx, dy = x1 - x0, y1 - y0
        norm = max(np.hypot(dx, dy), 1e-12)
        px, py = -dy / norm, dx / norm
        for off in offsets:
            _draw_line(img,
                       int(round(x0 + off * px)), int(round(y0 + off * py)),
                       int(round(x1 + off * px)), int(round(y1 + off * py)),
                       BOND_INTENSITY)

    radius = max(1, size // 64)
    for idx, atom in enumerate(g.atoms):
        if atom.element in ATOM_INTENSITY:
            value = ATOM_INTENSITY[atom.element]
        elif atom.element in HALOGENS:
            value = 0.9
        else:
            value = 1.0
        _draw_disc(img, pos[idx], radius, value)
    return Image(pixels=img)


def _layout(g: MolecularGraph, size: int) -> np.ndarray:
    """Atom centers in pixel coordinates, fitted to the 80% center box.

    The coordinates are Laplacian eigenvectors 1-2 (LAPACK ``eigh``), each
    signed so that its largest-magnitude entry is positive, the lowest index
    winning a tie within ``SIGN_TIE_RTOL``.
    """
    n = g.n_atoms
    center = (size - 1) / 2.0
    if n == 1:
        return np.array([[center, center]])
    if n == 2:
        off = 0.4 * size
        return np.array([[center - off, center], [center + off, center]])

    adjacency = g.adjacency()
    laplacian = np.diag(adjacency.sum(axis=1)) - adjacency
    _, V = np.linalg.eigh(laplacian)
    return _fit_to_box(_orient(V[:, 1:3]), size)


def _orient(cols: np.ndarray) -> np.ndarray:
    """Flip each column so its first near-largest-magnitude entry is positive."""
    mag = np.abs(cols)
    lead = np.argmax(mag >= mag.max(axis=0) * (1.0 - SIGN_TIE_RTOL), axis=0)
    return cols * np.where(cols[lead, np.arange(cols.shape[1])] < 0, -1.0, 1.0)


def _fit_to_box(coords: np.ndarray, size: int) -> np.ndarray:
    coords = coords - coords.mean(axis=0)
    span = np.abs(coords).max()
    scale = (0.4 * size) / max(span, 1e-9)
    return coords * scale + (size - 1) / 2.0


def _draw_line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int,
               value: float) -> None:
    size = img.shape[0]
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= x0 < size and 0 <= y0 < size:
            img[y0, x0] = max(img[y0, x0], value)
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_disc(img: np.ndarray, center: np.ndarray, radius: int,
               value: float) -> None:
    size = img.shape[0]
    cx, cy = center
    # bounding box clipped to the image; a negative end would wrap the slice
    y0, y1 = max(0, int(cy) - radius - 1), min(size, max(0, int(cy) + radius + 2))
    x0, x1 = max(0, int(cx) - radius - 1), min(size, max(0, int(cx) + radius + 2))
    ys = np.arange(y0, y1)[:, None]
    xs = np.arange(x0, x1)[None, :]
    inside = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius + 0.25
    box = img[y0:y1, x0:x1]
    box[inside] = np.maximum(box[inside], value)


# --- Morlet filter bank -----------------------------------------------------

@dataclass
class MorletBank:
    J: int
    L: int
    size: int
    wavelets_freq: dict = field(repr=False)   # (j, l) -> complex transfer
    lowpass_freq: np.ndarray = field(repr=False)


def morlet_bank(J: int, L: int, size: int, sigma0: float = 0.8,
                k0: float = 0.75 * np.pi) -> MorletBank:
    """J*L oriented Morlet wavelets plus one Gaussian lowpass.

    Scale j dilates the mother wavelet by 2^j (amplitude 2^(-2j), envelope
    width sigma0 * 2^j, carrier |k| = k0 / 2^j); the per-wavelet DC term
    beta makes every wavelet exactly zero-mean on the pixel grid. The
    lowpass sums to one so flat images average to themselves.
    """
    if size < 2 ** J:
        raise InvalidScaleParams(f"size {size} cannot host scale 2^{J}")
    coords = np.fft.fftfreq(size) * size  # 0, 1, ..., -size/2, ..., -1
    x1, x2 = np.meshgrid(coords, coords, indexing="xy")
    rsq = x1 * x1 + x2 * x2

    wavelets_freq = {}
    for j in range(J):
        sigma = sigma0 * 2.0 ** j
        k = k0 / 2.0 ** j
        envelope = np.exp(-rsq / (2.0 * sigma * sigma))
        env_sum = envelope.sum()
        for l in range(L):
            theta = l * np.pi / L
            phase = k * (np.cos(theta) * x1 + np.sin(theta) * x2)
            carrier = np.exp(1j * phase)
            beta = (carrier * envelope).sum() / env_sum
            psi = (2.0 ** (-2 * j)) * (carrier - beta) * envelope
            freq = np.fft.fft2(psi)
            # unit peak transfer keeps every convolution non-expansive, so
            # cascade energy decays with order
            wavelets_freq[(j, l)] = freq / np.abs(freq).max()

    sigma_j = sigma0 * 2.0 ** J
    lowpass = np.exp(-rsq / (2.0 * sigma_j * sigma_j))
    lowpass /= lowpass.sum()
    return MorletBank(J=J, L=L, size=size, wavelets_freq=wavelets_freq,
                      lowpass_freq=np.fft.fft2(lowpass))


@dataclass
class ScatterVector2D:
    values: np.ndarray
    labels: tuple[str, ...]


def scatter_image(img: Image, bank: MorletBank, order: int = 2) -> ScatterVector2D:
    """Scattering coefficients of one image, orders 0..2.

    Order-two paths pair increasing scales (j1 < j2) over all orientation
    combinations; every channel is smoothed by the bank lowpass and
    subsampled by 2^J before flattening.
    """
    if img.size != bank.size:
        raise DimensionMismatch(f"image {img.size} vs bank {bank.size}")
    if not 0 <= order <= 2:
        raise DimensionMismatch(f"order must be 0..2, got {order}")

    step = 2 ** bank.J
    phi = bank.lowpass_freq

    def smooth(field_freq):
        # flatten copies: at one cell per channel (size == 2^J) ravel would
        # return a view that keeps the whole complex field alive
        return np.fft.ifft2(field_freq * phi).real[::step, ::step].flatten()

    f0 = np.fft.fft2(img.pixels)
    blocks = [smooth(f0)]

    if order >= 1:
        for j1 in range(bank.J):
            for l1 in range(bank.L):
                u1 = np.abs(np.fft.ifft2(f0 * bank.wavelets_freq[(j1, l1)]))
                f1 = np.fft.fft2(u1)
                blocks.append(smooth(f1))
                if order < 2:
                    continue
                for j2 in range(j1 + 1, bank.J):
                    for l2 in range(bank.L):
                        u2 = np.abs(np.fft.ifft2(f1 * bank.wavelets_freq[(j2, l2)]))
                        blocks.append(smooth(np.fft.fft2(u2)))

    return ScatterVector2D(
        values=np.concatenate(blocks),
        labels=scatter2d_labels(bank.J, bank.L, bank.size >> bank.J, order))


@functools.lru_cache(maxsize=None)
def scatter2d_labels(J: int, L: int, side: int, order: int) -> tuple[str, ...]:
    """Column labels of scatter_image, in the order it fills the vector:
    channels in cascade order, each followed by its side x side cells."""
    tags = ["m0"]
    for j1 in range(J if order >= 1 else 0):
        for l1 in range(L):
            tags.append(f"m1.j{j1}.t{l1}")
            if order >= 2:
                tags += [f"m2.j{j1}-{j2}.t{l1}-{l2}"
                         for j2 in range(j1 + 1, J) for l2 in range(L)]
    cells = [f"y{r}x{c}" for r in range(side) for c in range(side)]
    return tuple(f"{tag}.{cell}" for tag in tags for cell in cells)


def scatter2d_channels(J: int, L: int) -> int:
    """Channel count 1 + J*L + L^2 * J*(J-1)/2 for the order-2 cascade."""
    return 1 + J * L + L * L * (J * (J - 1) // 2)


def chi2_select(X: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k columns by chi-squared mass/label dependence.

    Columns are min-max scaled to [0, 1]; the statistic compares the
    per-class scaled mass against expectations from class priors. Ties
    break toward the lower column index; constant columns score zero.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"{X.shape[0]} rows vs {y.shape[0]} labels")
    if k > X.shape[1]:
        raise DimensionMismatch(f"k={k} exceeds {X.shape[1]} columns")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DegenerateLabels("chi-squared selection needs both classes")

    stats = chi2_statistics(X, y)
    return np.argsort(-stats, kind="stable")[:k]


def chi2_statistics(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    col_min = X.min(axis=0)
    col_range = X.max(axis=0) - col_min
    safe = np.where(col_range > 0, col_range, 1.0)
    scaled = np.where(col_range > 0, (X - col_min) / safe, 0.0)

    n = len(y)
    pos = y == 1
    prior_pos = pos.sum() / n
    total = scaled.sum(axis=0)
    obs_pos = scaled[pos].sum(axis=0)
    obs_neg = total - obs_pos
    exp_pos = total * prior_pos
    exp_neg = total * (1.0 - prior_pos)

    with np.errstate(divide="ignore", invalid="ignore"):
        stat = np.where(exp_pos > 0, (obs_pos - exp_pos) ** 2 / exp_pos, 0.0) \
             + np.where(exp_neg > 0, (obs_neg - exp_neg) ** 2 / exp_neg, 0.0)
    return stat
