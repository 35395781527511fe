"""Normalize stage — the stateless `map_batches` canonicalizer.

Reference analog: the normalizer chain applied per record
(``normalize_address.py:211-268``) + the sha256 fingerprint pattern
(``map.py:160-166``), executed here as one vectorized Arrow-batch UDF.

Adds columns:
  row_id            sha256(repo|path|commit)[:16]
  path_canonical    canonicalize_path(path)
  stem              path_stem(path_canonical)    — the blocking stem
  content_sha256    sha256(raw content)          — the per-row invariant
  content_sha256_norm  sha256(whitespace-normalized content)
  n_tokens          whitespace token count of normalized content

The heavy ``content`` column is preserved (the feature stage still needs it)
but every stage after features drops it — wide rows must not ride shuffles
(SURVEY.md §7.4).

In the flagship's default run this stage does not get its own map:
``feature_stage.normalize_and_extract_features`` calls ``_normalize_batch``
and the feature extractor in the same task, over a source that
``pipelines/linkage.py`` has split into one block per task, and shares the
batch-wide content scans (``content_scans``) between them.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

from localhost_address_matching_ray.functions.hashing import (
    row_id_arrow,
    sha256_hex_array,
    sha256_hex_arrow,
)
from localhost_address_matching_ray.functions.normalize import (
    canonicalize_path_array,
    normalize_content_tokens_arrow,
    path_stem_array,
)


#: per-process cache of compiled user rule lists (keyed by the rules tuple)
_COMPILED_RULES: dict = {}


def _apply_extra_rules(norm: list[str], extra_rules) -> list[str]:
    """User regex-rewrite hook applied at the END of the normalize chain —
    the ``extra_rules: List[(Pattern, repl)]`` analog
    (``normalize_address.py:49, 234-235``). Patterns compile once per worker
    process; rules run in order over the whitespace-normalized content."""
    if not extra_rules:
        return norm
    import re

    compiled = _COMPILED_RULES.get(extra_rules)
    if compiled is None:
        compiled = _COMPILED_RULES[extra_rules] = [
            (re.compile(p), r) for p, r in extra_rules
        ]
    out = []
    for text in norm:
        for rx, repl in compiled:
            text = rx.sub(repl, text)
        out.append(text)
    return out


def _normalize_batch(batch: pa.Table, extra_rules=(), scans=None) -> pa.Table:
    """``scans`` is the content column's ``content_scans``, when the caller
    has computed it already (the fused front end shares it with features)."""
    import pyarrow.compute as pc

    paths = batch["path"].to_pylist()

    canon = canonicalize_path_array(paths)
    # content normalize runs in C for ASCII rows (bit-identical — see
    # normalize_content_tokens_arrow); both sha256 columns hash utf-8
    # straight out of Arrow value buffers (sha256_hex_arrow) — the content
    # column never materializes as Python strings unless user extra_rules
    # force it
    norm_arr, n_tokens = normalize_content_tokens_arrow(batch["content"], scans)
    if extra_rules:
        norm = _apply_extra_rules(norm_arr.to_pylist(), extra_rules)
        n_tokens = pa.array([len(x.split(" ")) if x else 0 for x in norm], pa.int64())
        sha_norm = sha256_hex_array(norm)
    else:
        if n_tokens is None:
            # a row the whitespace split did not serve (non-ASCII, \x1c-\x1f
            # or null): count separators in the normalized strings instead
            n_tokens = pc.if_else(
                pc.equal(norm_arr, ""),
                pa.scalar(0, pa.int64()),
                pc.cast(pc.add(pc.count_substring(norm_arr, pattern=" "), 1), pa.int64()),
            )
        sha_norm = sha256_hex_arrow(norm_arr)
    return (
        batch
        .append_column("row_id", pa.array(
            row_id_arrow(batch["repo"], batch["path"], batch["commit"]),
            pa.string(),
        ))
        .append_column("path_canonical", pa.array(canon, pa.string()))
        .append_column("stem", pa.array(path_stem_array(canon), pa.string()))
        .append_column("content_sha256", pa.array(
            sha256_hex_arrow(batch["content"]), pa.string()
        ))
        .append_column("content_sha256_norm", pa.array(sha_norm, pa.string()))
        .append_column("n_tokens", n_tokens)
    )


def normalize_corpus(
    corpus: ray.data.Dataset,
    batch_size: int = 4096,
    extra_rules: tuple[tuple[str, str], ...] = (),
) -> ray.data.Dataset:
    """``extra_rules`` — ordered user (pattern, replacement) pairs applied to
    the normalized content before hashing/tokenizing (§2.10 extension
    surface). Default empty keeps exact oracle parity."""
    if extra_rules:
        rules = tuple(tuple(r) for r in extra_rules)
        return corpus.map_batches(
            lambda t: _normalize_batch(t, rules),
            batch_format="pyarrow", batch_size=batch_size,
        )
    return corpus.map_batches(_normalize_batch, batch_format="pyarrow", batch_size=batch_size)
