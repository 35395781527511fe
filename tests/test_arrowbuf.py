"""functions/arrowbuf.py — the buffer bridges must be byte-identical to the
per-row constructions they replaced, and must REFUSE (return None) any
column whose per-value widths drift, even when the total length sums right
(the silent-mis-slice trap ADVICE flagged on the width*n-only checks)."""

import numpy as np
import pyarrow as pa
import pytest

from localhost_address_matching_ray.functions.arrowbuf import (
    binary_col_matrix,
    hex16_col_to_u64,
    hex16_ids,
    u8_matrix_to_binary,
    u64_rows_to_list_array,
)


def test_u8_matrix_to_binary_matches_per_row_tobytes():
    rng = np.random.default_rng(7)
    mat = rng.integers(0, 256, size=(37, 24), dtype=np.uint8)
    got = u8_matrix_to_binary(mat)
    want = pa.array([mat[i].tobytes() for i in range(37)], pa.binary())
    assert got.equals(want)
    # non-contiguous input (column slice) must still serialize row-wise
    sl = mat[:, ::2]
    got2 = u8_matrix_to_binary(sl)
    want2 = pa.array([sl[i].tobytes() for i in range(37)], pa.binary())
    assert got2.equals(want2)


def test_u8_matrix_to_binary_u64_view_matches_sig_bytes():
    # the feature stage's sig column: (n, P) uint64 rows serialized native
    rng = np.random.default_rng(11)
    sig = rng.integers(0, 2**63, size=(9, 5)).astype(np.uint64)
    got = u8_matrix_to_binary(
        np.ascontiguousarray(sig).view(np.uint8).reshape(9, -1)
    )
    want = pa.array([sig[i].tobytes() for i in range(9)], pa.binary())
    assert got.equals(want)


def test_binary_col_matrix_roundtrip_and_width_guards():
    vals = [bytes([i] * 8) for i in range(5)]
    col = pa.array(vals, pa.binary())
    m = binary_col_matrix(col, 8)
    assert m.shape == (5, 8) and bytes(m[3]) == vals[3]
    # mixed widths summing to 8n must return None, not mis-slice
    mixed = pa.array([b"\x01" * 6, b"\x02" * 10], pa.binary())
    assert binary_col_matrix(mixed, 8) is None
    # nulls refuse
    assert binary_col_matrix(pa.array([b"\x00" * 8, None], pa.binary()), 8) is None
    # sliced (non-zero offset) chunk still reads the right window
    sliced = col.slice(2, 3)
    m2 = binary_col_matrix(sliced, 8)
    assert m2.shape == (3, 8) and bytes(m2[0]) == vals[2]


def test_hex16_col_to_u64_values_and_guards():
    ids = ["00000000000000ff", "8000000000000001", "ffffffffffffffff"]
    got = hex16_col_to_u64(pa.array(ids, pa.string()))
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == [int(s, 16) for s in ids]
    # 8+24 widths sum to 2*16 — must refuse
    assert hex16_col_to_u64(pa.array(["aa" * 4, "bb" * 12])) is None
    # non-hex refuses
    assert hex16_col_to_u64(pa.array(["zz" * 8])) is None
    assert len(hex16_col_to_u64(pa.array([], pa.string()))) == 0


def test_hex16_ids_names_the_bad_id():
    ok = ["00000000000000ff", "ffffffffffffffff"]
    assert [int(v) for v in hex16_ids(pa.array(ok))] == [255, 2**64 - 1]
    for bad in ("abc", "zz" * 8):
        with pytest.raises(ValueError, match=repr(bad)):
            hex16_ids(pa.chunked_array([pa.array([ok[0], bad])]))


def test_u64_rows_to_list_array_matches_per_row_lists():
    rows = [
        np.array([1, 2, 3], dtype=np.uint64),
        np.array([], dtype=np.uint64),
        np.array([2**63, 7], dtype=np.uint64),
    ]
    got = u64_rows_to_list_array(
        np.concatenate(rows), np.array([3, 0, 2], dtype=np.int32)
    )
    want = pa.array([list(map(int, r)) for r in rows], pa.list_(pa.uint64()))
    assert got.cast(pa.list_(pa.uint64())).equals(want)
