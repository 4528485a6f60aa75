"""Fixed-dimension embedding store with stable id <-> row mappings.

Matrices are serialized in a small versioned binary container, little-endian
throughout:

    magic       4 bytes   b"AARE"
    version     u32       currently 1
    rows        u64       number of vectors N
    dim         u32       dimensionality d
    normalized  u8        1 if every row is unit L2 norm
    ids         N records: u32 byte length, then UTF-8 bytes
    data        N*d float32, row-major

Float payloads round-trip bit-exactly; nothing is rescaled on disk.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"AARE"
VERSION = 1

NORM_TOLERANCE = 1e-4


class FormatError(ValueError):
    """Raised for malformed or truncated embedding files."""


@dataclass
class EmbeddingMatrix:
    """N x d float32 matrix with one external string id per row."""

    ids: list[str]
    data: np.ndarray
    normalized: bool = False
    _row_of: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if len(self.ids) != self.data.shape[0]:
            raise ValueError(
                f"id count {len(self.ids)} does not match row count {self.data.shape[0]}"
            )
        self._row_of = {}
        for i, pid in enumerate(self.ids):
            if pid in self._row_of:
                raise ValueError(f"duplicate id {pid!r} at rows {self._row_of[pid]} and {i}")
            self._row_of[pid] = i

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row(self, pid: str) -> int:
        try:
            return self._row_of[pid]
        except KeyError:
            raise KeyError(f"unknown id {pid!r}") from None

    def __contains__(self, pid: str) -> bool:
        return pid in self._row_of

    def vector(self, pid: str) -> np.ndarray:
        return self.data[self.row(pid)]


def l2_normalize_rows(matrix: EmbeddingMatrix) -> EmbeddingMatrix:
    """Return a copy with every row scaled to unit L2 norm.

    Directions are preserved exactly; a zero row cannot be normalized and is
    a hard error naming the offending id.
    """
    norms = np.linalg.norm(matrix.data.astype(np.float64), axis=1)
    bad = np.where(norms <= 1e-30)[0]
    if bad.size:
        raise ValueError(f"cannot normalize zero row for id {matrix.ids[bad[0]]!r}")
    scaled = (matrix.data / norms[:, None].astype(np.float32)).astype(np.float32)
    return EmbeddingMatrix(ids=list(matrix.ids), data=scaled, normalized=True)


def save_matrix(matrix: EmbeddingMatrix, path: str) -> None:
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    buf.write(struct.pack("<Q", matrix.rows))
    buf.write(struct.pack("<I", matrix.dim))
    buf.write(struct.pack("<B", 1 if matrix.normalized else 0))
    for pid in matrix.ids:
        raw = pid.encode("utf-8")
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)
    data = matrix.data
    if data.dtype.byteorder == ">":  # big-endian host arrays
        data = data.astype("<f4")
    buf.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n: int, what: str) -> bytes:
    raw = fh.read(n)
    if len(raw) != n:
        raise FormatError(f"truncated file while reading {what}")
    return raw


def load_matrix(
    path: str,
    expect_dim: int | None = None,
    validate_norms: bool = True,
) -> EmbeddingMatrix:
    """Load a matrix written by save_matrix.

    expect_dim, when given, pins the dimensionality. validate_norms checks
    unit norms (tolerance 1e-4) for files that claim normalized rows.
    """
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != VERSION:
            raise FormatError(f"unsupported version {version}, expected {VERSION}")
        (n,) = struct.unpack("<Q", _read_exact(fh, 8, "row count"))
        (dim,) = struct.unpack("<I", _read_exact(fh, 4, "dim"))
        (norm_flag,) = struct.unpack("<B", _read_exact(fh, 1, "normalized flag"))
        if expect_dim is not None and dim != expect_dim:
            raise FormatError(f"dimension mismatch: file has d={dim}, expected d={expect_dim}")
        ids = []
        for i in range(n):
            (length,) = struct.unpack("<I", _read_exact(fh, 4, f"id length {i}"))
            ids.append(_read_exact(fh, length, f"id {i}").decode("utf-8"))
        payload = _read_exact(fh, n * dim * 4, "float payload")
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after float payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(n, dim)
    data = np.ascontiguousarray(data, dtype=np.float32)
    if not np.isfinite(data).all():
        raise FormatError("non-finite values in float payload")
    matrix = EmbeddingMatrix(ids=ids, data=data, normalized=bool(norm_flag))
    if matrix.normalized and validate_norms and n > 0:
        norms = np.linalg.norm(data.astype(np.float64), axis=1)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if abs(norms[worst] - 1.0) > NORM_TOLERANCE:
            raise FormatError(
                f"row {worst} (id {ids[worst]!r}) claims unit norm but has norm {norms[worst]:.6f}"
            )
    return matrix
