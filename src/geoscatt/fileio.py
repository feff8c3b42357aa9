"""On-disk artifact formats shared across the pipeline.

FMAT  feature matrices: magic ``FMAT``, version u8, rows u32, cols u32,
      then row-major float64, all little-endian.
GPRM  model parameters: magic ``GPRM``, version u8, tensor count u32, then
      per tensor ndim u8, each dim u32, float64 payload; tensor order is
      fixed by the owning model's ``tensor_list``.
PGM   binary ``P5`` grayscale, maxval 255, pixel = round(value * 255).
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FormatError

FMAT_MAGIC = b"FMAT"
GPRM_MAGIC = b"GPRM"
FORMAT_VERSION = 1


def write_fmat(path, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(np.asarray(matrix, dtype="<f8"))
    if m.ndim != 2:
        raise FormatError(f"FMAT stores 2-D matrices, got shape {m.shape}")
    with open(path, "wb") as fh:
        fh.write(FMAT_MAGIC)
        fh.write(struct.pack("<BII", FORMAT_VERSION, m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def read_fmat(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FMAT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, rows, cols = struct.unpack("<BII", fh.read(9))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported FMAT version {version}")
        data = fh.read(rows * cols * 8)
        if len(data) != rows * cols * 8:
            raise FormatError(f"{path}: truncated FMAT payload")
        return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()


def write_tensors(path, tensors: list[np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(GPRM_MAGIC)
        fh.write(struct.pack("<BI", FORMAT_VERSION, len(tensors)))
        for t in tensors:
            t = np.asarray(t, dtype="<f8")
            shape = t.shape  # before ascontiguousarray promotes 0-d to 1-d
            fh.write(struct.pack("<B", len(shape)))
            for d in shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(t).tobytes())


def read_tensors(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != GPRM_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version, count = struct.unpack("<BI", fh.read(5))
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported GPRM version {version}")
        tensors = []
        for _ in range(count):
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            n = int(np.prod(shape)) if ndim else 1
            data = fh.read(8 * n)
            if len(data) != 8 * n:
                raise FormatError(f"{path}: truncated tensor payload")
            tensors.append(np.frombuffer(data, dtype="<f8").reshape(shape).copy())
        return tensors


def write_pgm(path, pixels: np.ndarray) -> None:
    img = np.clip(np.asarray(pixels, dtype=float), 0.0, 1.0)
    quant = np.round(img * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(quant.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM")
    width, height, maxval = (int(f) for f in fields[1:])
    if maxval != 255:
        raise FormatError(f"{path}: expected maxval 255, got {maxval}")
    pos += 1  # single whitespace after maxval
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise FormatError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width) / 255.0

