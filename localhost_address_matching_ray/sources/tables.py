"""Readers for the sandbox test tables and the corpus derivation.

The corpus table ``(repo, path, commit, lang, content)`` (BASELINE.json
``input_hint``) is synthesized two ways:

* :func:`localhost_address_matching_ray.fixtures.generate_corpus` — the planted-cluster
  fixture generator (tests / bench / flagship `entry()`).
* :func:`corpus_from_documents` — a *SQL-reproducible* derivation from the
  driver's ``documents`` table, so correctness-gate queries over the corpus
  have exact DuckDB oracles (see ``__ray_entry__.oracle_sql``). Every rule
  here is mirrored 1:1 by ``CORPUS_SQL``.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from localhost_address_matching_ray.functions.hashing import sha256_hex_array

_LANG_EXT = {"en": "py", "de": "js", "fr": "go", "es": "java", "zh": "c"}
_LANG_CODE = {"en": "python", "de": "javascript", "fr": "go", "es": "java", "zh": "c"}


def read_table(sf_dir: str, name: str, columns: list[str] | None = None) -> ray.data.Dataset:
    """Pruned Parquet read of one sandbox table, its blocks built by the read
    task with the file's schema minus its metadata (the writer's ``pandas``
    block): in pyarrow 16.1 ``hash()`` of a schema with metadata raises, so
    every block that carried it made Ray's schema dedup log a failure."""
    path = os.path.join(sf_dir, f"{name}.parquet")
    file_schema = pq.read_schema(path)
    schema = pa.schema([file_schema.field(c) for c in columns or file_schema.names])
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def _derive_corpus_batch(batch: pa.Table) -> pa.Table:
    """Map a ``documents`` batch to corpus rows — the deterministic rules the
    SQL oracle reproduces (see CORPUS_SQL):

    * repo   = 'org' || doc_id % 7 || '/' || source
    * path   = 'src/' || source || '/m' || doc_id // 10 || '_' || doc_id % 10
               || '.' || ext(lang)   (ext: en→py de→js fr→go es→java zh→c)
    * commit = sha256(doc_id)
    * lang   = code lang for the doc lang (en→python …)
    * content= text
    Additionally every doc with doc_id % 10 == 0 emits a second, exact-copy
    row (repo prefixed 'fork/', commit sha256(doc_id || 'f')) — planted exact
    duplicates, SQL-reproducible via UNION ALL.
    """
    doc_id = batch["doc_id"].to_pylist()
    lang = batch["lang"].to_pylist()
    text = batch["text"].to_pylist()
    source = batch["source"].to_pylist()

    repos, paths, commits, langs, contents = [], [], [], [], []

    def emit(d, s, lg, tx, fork: bool):
        repo = f"org{d % 7}/{s}"
        repos.append(f"fork/{repo}" if fork else repo)
        paths.append(f"src/{s}/m{d // 10}_{d % 10}.{_LANG_EXT[lg]}")
        commits.append(str(d) + ("f" if fork else ""))
        langs.append(_LANG_CODE[lg])
        contents.append(tx)

    for d, s, lg, tx in zip(doc_id, source, lang, text):
        emit(d, s, lg, tx, False)
        if d % 10 == 0:
            emit(d, s, lg, tx, True)
    return pa.table({
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(sha256_hex_array(commits), pa.string()),
        "lang": pa.array(langs, pa.string()),
        "content": pa.array(contents, pa.large_string()),
    })


def corpus_from_documents(sf_dir: str) -> ray.data.Dataset:
    """Derive the corpus Dataset from ``documents`` (column-pruned read)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "source", "text"])
    return docs.map_batches(_derive_corpus_batch, batch_format="pyarrow")


#: DuckDB CTE producing the identical corpus table (prefix oracle queries
#: with ``WITH corpus AS (<CORPUS_SQL>)``).
CORPUS_SQL = """
SELECT
  CASE WHEN fork THEN 'fork/' ELSE '' END || 'org' || (doc_id % 7) || '/' || source AS repo,
  'src/' || source || '/m' || (doc_id // 10) || '_' || (doc_id % 10) || '.' ||
    CASE lang WHEN 'en' THEN 'py' WHEN 'de' THEN 'js' WHEN 'fr' THEN 'go'
              WHEN 'es' THEN 'java' ELSE 'c' END AS path,
  sha256(CAST(doc_id AS VARCHAR) || CASE WHEN fork THEN 'f' ELSE '' END) AS commit,
  CASE lang WHEN 'en' THEN 'python' WHEN 'de' THEN 'javascript' WHEN 'fr' THEN 'go'
            WHEN 'es' THEN 'java' ELSE 'c' END AS lang,
  text AS content
FROM (
  SELECT doc_id, lang, source, text, false AS fork FROM documents
  UNION ALL
  SELECT doc_id, lang, source, text, true AS fork FROM documents WHERE doc_id % 10 = 0
)
"""
