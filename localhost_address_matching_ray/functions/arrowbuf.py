"""Zero-copy bridges between Arrow variable-width columns and numpy.

The flagship's hot stages move fixed-shape payloads (16-hex row ids,
``num_perm``-byte folded signatures, per-row uint64 key lists) through
Arrow string/binary/list columns. Building or reading those columns one
Python object per row measurably dilates the feature/blocking stages
under actor concurrency (allocator churn — see BASELINE.md round 4), so
every helper here works on whole value buffers:

- readers VALIDATE per-value widths from the offsets (a mixed-width
  column whose lengths merely sum right must return None, never
  mis-slice) and fall back to ``None`` so callers keep a scalar path;
- writers construct Arrow arrays via ``Array.from_buffers`` with an
  arange offsets vector — one memcpy, no per-row ``tobytes()``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_INT32_MAX = 2**31 - 1


def one_array(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """The column as one Array: its only chunk as is (``combine_chunks``
    copies even then), else the chunks concatenated."""
    if not isinstance(col, pa.ChunkedArray):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _flat_u8(col: pa.ChunkedArray | pa.Array, width: int) -> "np.ndarray | None":
    """Value buffer of a string/binary column whose values are ALL exactly
    ``width`` bytes, as a flat uint8 view. None when any value differs
    (per-value check via offsets) or nulls are present."""
    arr = one_array(col)
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint8)
    if arr.null_count:
        return None
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)
    if not np.all(np.diff(offs[arr.offset : arr.offset + n + 1]) == width):
        return None
    start = int(offs[arr.offset])
    return np.frombuffer(arr.buffers()[2], dtype=np.uint8)[start : start + width * n]


def binary_col_matrix(
    col: pa.ChunkedArray | pa.Array, width: int
) -> "np.ndarray | None":
    """Binary/string column of exactly-``width``-byte values → (n, width)
    uint8 view straight off the value buffer; None on any width mismatch."""
    flat = _flat_u8(col, width)
    return None if flat is None else flat.reshape(-1, width)


def hex16_col_to_u64(col: pa.ChunkedArray | pa.Array) -> "np.ndarray | None":
    """String column of 16-hex-char ids → uint64 (big-endian digit order,
    so numeric sort == lexicographic sort of the hex), straight from the
    value buffer. None if any value isn't exactly 16 hex chars."""
    import binascii

    flat = _flat_u8(col, 16)
    if flat is None:
        return None
    if len(flat) == 0:
        return np.empty(0, dtype=np.uint64)
    try:
        buf = binascii.a2b_hex(flat.tobytes())
    except (ValueError, binascii.Error):
        return None
    return np.frombuffer(buf, dtype=">u8").astype(np.uint64)


def hex16_ids(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """:func:`hex16_col_to_u64` for a column that must hold row ids: raises
    ``ValueError`` naming an offending value instead of returning None."""
    ids = hex16_col_to_u64(col)
    if ids is None:
        bad = next(
            (v for v in col.to_pylist()
             if hex16_col_to_u64(pa.array([v], pa.string())) is None), None
        )
        raise ValueError(
            f"row_id must be 16 hex chars (pipeline contract; "
            f"functions.hashing assign_row_ids produces them): got e.g. "
            f"{bad!r}"
        )
    return ids


def u64_to_hex16(vals: np.ndarray) -> np.ndarray:
    """uint64 array → numpy S16 of 16-hex zero-padded strings via one
    hexlify over the big-endian buffer (no per-value format())."""
    import binascii

    return np.frombuffer(
        binascii.hexlify(np.asarray(vals).astype(">u8").tobytes()), dtype="S16"
    )


def sbytes_to_arrow(vals: np.ndarray, width: int) -> pa.Array:
    """numpy S{width} array → Arrow string array by handing Arrow the raw
    ASCII value buffer + an arange offsets buffer — no per-value decode (the
    np.char.decode + pa.array(U…) route measured ~1 s at 1.6M values)."""
    n = len(vals)
    return pa.Array.from_buffers(
        pa.string(), n,
        [None,
         pa.py_buffer(np.arange(0, width * (n + 1), width, dtype=np.int32)),
         pa.py_buffer(np.ascontiguousarray(vals).tobytes())],
    )


def s16_to_arrow(hexs: np.ndarray) -> pa.Array:
    return sbytes_to_arrow(hexs, 16)


def u8_matrix_to_binary(mat: np.ndarray) -> pa.Array:
    """(n, w) uint8 matrix → ``binary()`` array of n w-byte values with one
    buffer copy — byte-identical to ``[mat[i].tobytes() for i in range(n)]``
    but with no per-row Python. Rows must fit int32 offsets (batch-scale
    payloads are ~MBs; guarded anyway)."""
    n, w = mat.shape
    if n * w > _INT32_MAX:  # pragma: no cover - batches never get here
        return pa.array([mat[i].tobytes() for i in range(n)], pa.binary())
    offs = pa.py_buffer(np.arange(0, (n + 1) * w, w, dtype=np.int32))
    data = pa.py_buffer(np.ascontiguousarray(mat))
    return pa.Array.from_buffers(pa.binary(), n, [None, offs, data])


def u64_rows_to_list_array(
    values: np.ndarray, lengths: np.ndarray
) -> pa.ListArray:
    """Flat uint64 values + per-row lengths → ``list_(uint64())`` column
    (offsets built once; no per-row Python lists)."""
    offs = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offs[1:])
    return pa.ListArray.from_arrays(
        pa.array(offs, pa.int32()), pa.array(values, pa.uint64())
    )
