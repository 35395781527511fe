"""Corpus source readers.

The reference's primary source is chunked CSV (S1,
``ner_address_parser.py:132-153``: 5k-row chunks, ``dtype=str``,
``keep_default_na=False``). Ray Data's streaming executor replaces the chunk
loop; these wrappers pin the same semantics: every corpus column read as
string, missing values as empty strings (never NaN — the
``keep_default_na=False`` lesson), schema coerced to the canonical corpus
schema.

A plain Parquet read is one task per file. :func:`parquet_row_groups` and
:func:`read_row_groups` re-plan such a read as one task per row group, from
the footers alone, for the linkage front end (``pipelines/linkage.py``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

CORPUS_COLUMNS = ["repo", "path", "commit", "lang", "content"]

CORPUS_SCHEMA = pa.schema([
    ("repo", pa.string()),
    ("path", pa.string()),
    ("commit", pa.string()),
    ("lang", pa.string()),
    ("content", pa.large_string()),
])


def _coerce(batch: pa.Table) -> pa.Table:
    cols = {}
    for name in CORPUS_COLUMNS:
        col = batch[name]
        typ = pa.large_string() if name == "content" else pa.string()
        col = col.cast(typ)
        # keep_default_na=False analog: nulls become empty strings
        cols[name] = pa.compute.coalesce(col, pa.scalar("", typ))
    return pa.table(cols)


def read_corpus_parquet(paths, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(paths, columns=columns or CORPUS_COLUMNS)


def read_corpus_csv(paths) -> ray.data.Dataset:
    """CSV corpus (S1 analog). All columns forced to string; nulls → ''."""
    from pyarrow import csv as pacsv

    ds = ray.data.read_csv(
        paths,
        convert_options=pacsv.ConvertOptions(
            column_types={c: pa.string() for c in CORPUS_COLUMNS},
            strings_can_be_null=False,
        ),
    )
    return ds.map_batches(_coerce, batch_format="pyarrow")


def read_corpus_json(paths) -> ray.data.Dataset:
    """JSONL corpus. Same coercion contract as the CSV reader."""
    ds = ray.data.read_json(paths)
    return ds.map_batches(_coerce, batch_format="pyarrow")


def parquet_row_groups(
    ds: ray.data.Dataset,
) -> tuple[list[tuple[str, int, int, int]], list[str] | None] | None:
    """``(pieces, columns)`` of a dataset that is nothing but a plain
    ``read_parquet`` of local files: ``(path, row group, rows, bytes)`` of
    every non-empty row group, read from the footers on this process, and
    the read's column projection (``None`` for every column). ``None`` for
    any other dataset, and for a read this module cannot reproduce exactly:
    a row ``filter`` or other scan arguments, a ``schema``, hive partition
    columns, ``include_paths``, a file shuffle, or a non-local filesystem.
    Nothing is run."""
    from pyarrow.fs import LocalFileSystem
    from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
    from ray.data._internal.logical.operators.read_operator import Read
    from ray.data.datasource.partitioning import PathPartitionParser

    read = ds._logical_plan.dag
    source = getattr(read, "_datasource", None)
    if not isinstance(read, Read) or not isinstance(source, ParquetDatasource):
        return None
    try:
        if (
            source._block_udf is not None
            or source._to_batches_kwargs
            or source._read_schema is not None
            or source._partition_columns
            or source._include_paths
            or source._file_metadata_shuffler is not None
            or not isinstance(source._filesystem, LocalFileSystem)
        ):
            return None
        paths, columns, partitioning = (
            source._pq_paths, source._data_columns, source._partitioning
        )
    except AttributeError:  # a Ray whose Parquet source keeps other fields
        return None
    if partitioning is not None:
        parse = PathPartitionParser(partitioning)
        if any(parse(p) for p in paths):
            return None
    pieces = []
    for path in paths:
        meta = pq.read_metadata(path)
        for i in range(meta.num_row_groups):
            rg = meta.row_group(i)
            if rg.num_rows:
                pieces.append((path, i, rg.num_rows, rg.total_byte_size))
    return pieces, columns


def _read_row_group(path: str, index: int, columns: list[str] | None, batch_size: int):
    """One row group as tables of at most ``batch_size`` rows, their schema
    stripped of its metadata (as ``sources/tables.read_table`` does)."""
    with pq.ParquetFile(path) as file:
        for batch in file.iter_batches(
            batch_size=batch_size, row_groups=[index], columns=columns
        ):
            yield pa.Table.from_batches([batch]).replace_schema_metadata(None)


class _RowGroupDatasource(Datasource):
    """One read task per ``(path, row group, rows, bytes)`` piece."""

    def __init__(self, pieces, columns: list[str] | None, batch_size: int) -> None:
        self._pieces, self._columns, self._batch_size = pieces, columns, batch_size

    def estimate_inmemory_data_size(self) -> int:
        return sum(p[3] for p in self._pieces)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        columns, batch_size = self._columns, self._batch_size
        return [
            ReadTask(
                lambda path=path, i=i: _read_row_group(path, i, columns, batch_size),
                BlockMetadata(
                    num_rows=rows, size_bytes=nbytes, input_files=[path],
                    exec_stats=None,
                ),
            )
            for path, i, rows, nbytes in self._pieces
        ]

    def get_name(self) -> str:
        return "ParquetRowGroups"


def read_row_groups(pieces, columns: list[str] | None, batch_size: int) -> ray.data.Dataset:
    """The rows of ``parquet_row_groups``' pieces, one read task per row
    group, each yielding blocks of at most ``batch_size`` rows. A map over
    it fuses into the read task."""
    return ray.data.read_datasource(
        _RowGroupDatasource(pieces, columns, batch_size),
        override_num_blocks=len(pieces),
    )
