"""Fixed-dimension embedding store: float32 rows, one string id per row.

A matrix holds its payload and its ids and no id-to-row map; a caller that
needs rows by id maps only the ids it names.

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
    # (data, its largest row norm), set by the first `max_norm` call
    _max_norm: tuple[np.ndarray, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ValueError(f"embedding data must be 2-D, got shape {self.data.shape}")
        if len(self.ids) != self.data.shape[0]:
            raise ValueError(
                f"id count {len(self.ids)} does not match row count {self.data.shape[0]}"
            )
        if len(set(self.ids)) != len(self.ids):
            first: dict[str, int] = {}
            for i, pid in enumerate(self.ids):
                if pid in first:
                    raise ValueError(f"duplicate id {pid!r} at rows {first[pid]} and {i}")
                first[pid] = i

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def max_norm(self) -> float:
        """The largest float64 L2 row norm; inf or NaN when a row is not
        finite. Computed once per data array, so rows must not be changed in
        place after the first call."""
        if self._max_norm is None or self._max_norm[0] is not self.data:
            self._max_norm = (self.data, float(_row_norms(self.data).max(initial=0.0)))
        return self._max_norm[1]


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

    def read(n: int, what: str) -> bytes:
        nonlocal left
        raw = fh.read(n) if n <= left else b""
        if len(raw) != n:
            raise FormatError(f"truncated file while reading {what}")
        left -= n
        return raw

    return read


_U32 = struct.Struct("<I")


def _read_ids(fh, n: int, size: int) -> tuple[list[str], int]:
    """Read n ids (u32 byte length, then UTF-8 bytes) from the next `size`
    bytes of `fh` in one read. Returns the ids and the bytes they take.

    In a well-formed file the ids take exactly `size` bytes. If they run
    past it, the file is corrupt: the rest of the file is read, so that a
    truncation error names the same id field as reading id by id would.
    """
    buf = fh.read(max(size, 0))
    end = len(buf)
    ids: list[str] = []
    append, unpack = ids.append, _U32.unpack_from  # local names: this loop runs once per row
    pos = 0
    for i in range(n):
        if pos + 4 > end:
            buf = _read_on(fh, buf, pos + 4, f"id length {i}")
            end = len(buf)
        (length,) = unpack(buf, pos)
        pos += 4
        stop = pos + length
        if stop > end:
            buf = _read_on(fh, buf, stop, f"id {i}")
            end = len(buf)
        try:
            append(buf[pos:stop].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"id {i} is not UTF-8: {exc}") from None
        pos = stop
    return ids, pos


def _read_on(fh, buf: bytes, end: int, what: str) -> bytes:
    """`buf` followed by the rest of `fh`, which must reach offset `end`."""
    buf += fh.read()
    if end > len(buf):
        raise FormatError(f"truncated file while reading {what}")
    return buf


def _row_norms(data: np.ndarray) -> np.ndarray:
    """Float64 L2 norm of each row. einsum casts a buffer at a time, so no
    float64 copy of the matrix is made."""
    return np.sqrt(np.einsum("ij,ij->i", data, data, dtype=np.float64))


def load_matrix(path: str, expect_dim: int | None = None) -> EmbeddingMatrix:
    """Load a matrix written by save_matrix.

    expect_dim, when given, pins the dimensionality. A file that claims
    normalized rows has its unit norms checked (tolerance 1e-4).
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
        # the ids fill what the header and the float payload leave of the file
        ids_size = os.fstat(fh.fileno()).st_size - fh.tell() - n * dim * 4
        ids, used = _read_ids(fh, n, ids_size)
        if used > ids_size:
            raise FormatError("truncated file while reading float payload")
        if used < ids_size:
            raise FormatError("trailing bytes after float payload")
        # the payload gets its own buffer: at the ids' end it could be
        # unaligned, and numpy's matmul does not use BLAS on unaligned data
        data = np.empty((n, dim), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise FormatError("truncated file while reading float payload")
    data = np.ascontiguousarray(data, dtype=np.float32)
    if not np.isfinite(data).all():
        raise FormatError("non-finite values in float payload")
    try:
        matrix = EmbeddingMatrix(ids=ids, data=data, normalized=bool(norm_flag))
    except ValueError as exc:  # duplicate ids
        raise FormatError(str(exc)) from None
    if matrix.normalized and n > 0:
        norms = _row_norms(data)
        matrix._max_norm = (matrix.data, float(norms.max()))
        worst = int(np.argmax(np.abs(norms - 1.0)))
        if abs(norms[worst] - 1.0) > NORM_TOLERANCE:
            raise FormatError(
                f"row {worst} (id {ids[worst]!r}) claims unit norm but has norm {norms[worst]:.6f}"
            )
    return matrix
