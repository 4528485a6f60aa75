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

`write_atomic` is the one writer for every file the package produces: the
target holds either its old bytes or the whole new file, never a part.
"""

from __future__ import annotations

import io
import os
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
    buf.write(np.ascontiguousarray(matrix.data, dtype="<f4").tobytes())
    write_atomic(path, buf.getvalue())


def write_atomic(path: str, data: bytes) -> None:
    """Write `data` to `path` through a temp file in the same directory and a
    rename, so `path` holds either its old bytes or all of `data`.

    The temp file is made with mode 0o666, so the umask sets the output's
    mode. On any failure the temp file is removed and the error re-raised.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}-{os.path.basename(path)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _exact_reader(fh):
    """read(n, what) returning exactly the next n bytes of `fh`.

    A read longer than what is left in the file (its size from fstat, less
    what has been read) raises FormatError before anything is allocated, so
    a corrupt length field cannot ask for more memory than the file holds.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()

    def read(n: int, what: str, index: int | None = None) -> bytes:
        nonlocal left
        raw = fh.read(n) if n <= left else b""
        if len(raw) != n:
            where = what if index is None else f"{what} {index}"
            raise FormatError(f"truncated file while reading {where}")
        left -= n
        return raw

    return read


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
        read = _exact_reader(fh)
        magic = read(4, "magic")
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != VERSION:
            raise FormatError(f"unsupported version {version}, expected {VERSION}")
        (n,) = struct.unpack("<Q", read(8, "row count"))
        (dim,) = struct.unpack("<I", read(4, "dim"))
        (norm_flag,) = struct.unpack("<B", read(1, "normalized flag"))
        if expect_dim is not None and dim != expect_dim:
            raise FormatError(f"dimension mismatch: file has d={dim}, expected d={expect_dim}")
        ids = []
        for i in range(n):
            (length,) = struct.unpack("<I", read(4, "id length", i))
            try:
                ids.append(read(length, "id", i).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"id {i} is not UTF-8: {exc}") from None
        payload = read(n * dim * 4, "float payload")
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after float payload")
    data = np.frombuffer(payload, dtype="<f4").reshape(n, dim)
    data = np.ascontiguousarray(data, dtype=np.float32)
    if not np.isfinite(data).all():
        raise FormatError("non-finite values in float payload")
    try:
        matrix = EmbeddingMatrix(ids=ids, data=data, normalized=bool(norm_flag))
    except ValueError as exc:  # duplicate ids
        raise FormatError(str(exc)) from None
    if matrix.normalized and validate_norms and n > 0:
        norms = np.linalg.norm(data.astype(np.float64), axis=1)
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if abs(norms[worst] - 1.0) > NORM_TOLERANCE:
            raise FormatError(
                f"row {worst} (id {ids[worst]!r}) claims unit norm but has norm {norms[worst]:.6f}"
            )
    return matrix
