import numpy as np
import pytest

from geoscatt.errors import FormatError
from geoscatt.fileio import (
    read_fmat,
    read_pgm,
    read_tensors,
    write_fmat,
    write_pgm,
    write_tensors,
)


def test_fmat_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((7, 13))
    path = tmp_path / "m.fmat"
    write_fmat(path, m)
    assert np.array_equal(read_fmat(path), m)
    # deterministic bytes
    write_fmat(tmp_path / "m2.fmat", m)
    assert path.read_bytes() == (tmp_path / "m2.fmat").read_bytes()


def test_fmat_header_layout(tmp_path):
    path = tmp_path / "m.fmat"
    write_fmat(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"FMAT"
    assert raw[4] == 1                      # version
    assert int.from_bytes(raw[5:9], "little") == 2
    assert int.from_bytes(raw[9:13], "little") == 3
    assert len(raw) == 13 + 2 * 3 * 8


def test_fmat_bad_magic(tmp_path):
    path = tmp_path / "bad.fmat"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FormatError):
        read_fmat(path)


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    tensors = [rng.standard_normal((3, 4)), rng.standard_normal(5),
               np.array(2.5)]
    path = tmp_path / "p.gprm"
    write_tensors(path, tensors)
    out = read_tensors(path)
    assert len(out) == 3
    for a, b in zip(tensors, out):
        assert np.array_equal(np.asarray(a), b)
    assert path.read_bytes()[:4] == b"GPRM"


def test_truncated_tensor_file(tmp_path):
    path = tmp_path / "p.gprm"
    write_tensors(path, [np.ones((4, 4))])
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_tensors(path)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    img = np.round(rng.random((16, 32)) * 255) / 255
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (16, 32)
    assert np.max(np.abs(back - img)) < 1e-12  # grid-aligned values survive
    assert path.read_bytes().startswith(b"P5\n32 16\n255\n")

