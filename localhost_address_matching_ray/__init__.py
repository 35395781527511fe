"""localhost_address_matching_ray — a Ray-Data-native record-linkage engine.

A from-scratch, Ray-Data-first re-expression of the capabilities of the
reference repo ``yegeb/localhost-address-matching`` (Turkish address
normalize → parse → match; see SURVEY.md for the full structural analysis),
generalized to source-code repository deduplication over a Parquet corpus
``(repo, path, commit, lang, content)``.

Pipeline shape (SURVEY.md §7.0)::

    read_parquet(corpus)
      → normalize           (path canonicalization, content whitespace-fold,
                             content_sha256)
      → features            (tokens, shingles, MinHash; one stateless
                             map_batches task per block, fused with normalize)
      → block               (composite keys lang ⊕ band ⊕ stem, salted hot keys)
      → bucket_fold(block_key, candidate pairs) → verify (score)
      → edges → components  (vectorized union-find on the driver up to
                             driver_cc_max_edges, distributed min-label
                             propagation above it)
      → clusters → write_parquet  (+ manifest-validated checkpoints & metrics)

Nothing here calls ``ray.init()``/``ray.shutdown()`` — sessions are owned by
the caller (driver, bench.py, or the pytest fixture).
"""

import logging as _logging

from localhost_address_matching_ray.config import PipelineConfig

__all__ = ["PipelineConfig"]
__version__ = "0.1.0"


class _EmptySchemaRefBundleFilter(_logging.Filter):
    """Drop ONLY the streaming executor's schema-divergence warning for
    EMPTY new schemas ("new schema: ."): Ray's hash-based grouped aggregates
    emit zero-column blocks for hash partitions that received no rows, and
    every downstream collect here already filters them (``num_columns > 0``)
    — the warning is noise for this known-benign case. A divergence between
    two NON-empty schemas still warns (that one is a real bug signal)."""

    _NEEDLE = "RefBundle with a different schema"

    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        return not (
            self._NEEDLE in msg and "new schema: ." in msg
        )


def _install_log_filters() -> None:
    lg = _logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    )
    if not any(
        isinstance(f, _EmptySchemaRefBundleFilter) for f in lg.filters
    ):
        lg.addFilter(_EmptySchemaRefBundleFilter())


_install_log_filters()
