"""Feature stage — the stateful extractor, built once per worker.

Reference analog: the NER inference stage (``ner_address_parser.py``) —
"load the model once, then stream batches" (``load_pipeline`` at ``:44-49``,
batch loop at ``:186-214``) — and the gazetteer held in module state
(``static_parser.py:19-23``). Here the extractor state is the MinHasher
permutation table, the memoizing token hasher, compiled comment-strip
regexes, and the per-lang config dict (the broadcast gazetteer analog),
all built once in ``__init__`` and reused for every batch, cached per
worker process under stateless tasks. The flagship's default run calls it
from ``normalize_and_extract_features``, which normalizes and featurizes
each batch in one task.

Input: normalized corpus (needs ``content``, ``lang``).
Output: drops ``content`` (wide rows must not ride the blocking shuffle) and
adds:
  sig        binary — the MinHash signature (num_perm × uint64 bytes)
  sig8       binary — the signature folded to 1 byte/perm (v & 0xFF). The
             pair stage estimates Jaccard by equality counting, and folded
             equality only inflates the estimate by ~(1−J)/256 — so the
             blocking shuffle ships 128 B/row instead of 1 KiB/row.
  block_hashes  list<uint64> — one blocking-key hash per LSH band plus one
             for the (lang, stem) key, computed ONCE here so the blocking
             census and payload passes never recompute them. uint64 hashes
             instead of strings: the census/pair shuffles sort integers
             (cheap) instead of 20-char strings, and a 64-bit collision
             merely merges two blocks (extra scored pairs, no correctness
             loss — scoring filters them).
  n_tokens_sig  int64 — token count entering the signature

(The SimHash near-dup operator computes its fingerprints in its own pass
over the documents table — ``stages/docs_ops.simhash_pairs`` — so the
flagship feature table does not carry a simhash column: nothing in the
linkage pipeline consumed it, and dropping it removed ~15% of the
feature stage's per-row CPU, the pipeline's dominant cost.)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray.data

from localhost_address_matching_ray.config import PipelineConfig
from localhost_address_matching_ray.functions.arrowbuf import (
    one_array,
    u8_matrix_to_binary,
    u64_rows_to_list_array,
)
from localhost_address_matching_ray.functions.hashing import (
    MinHasher,
    TokenHasher,
    shingle_hashes_flat,
)
from localhost_address_matching_ray.functions.normalize import (
    batch_is_clean,
    content_scans,
    normalize_content,
    normalize_content_arrow,
    strip_comments,
    strip_comments_arrow,
    strip_stop_tokens,
    tokenize,
)

#: columns the feature stage keeps — everything downstream of here is narrow
KEEP_COLUMNS = [
    "row_id", "repo", "path", "commit", "lang", "path_canonical", "stem",
    "content_sha256", "content_sha256_norm", "n_tokens",
]


class FeatureExtractor:
    """Callable extractor: ``__init__`` once per worker process (cached by
    the stateless feature tasks), ``__call__`` per batch."""

    def __init__(self, config: PipelineConfig) -> None:
        import re

        self.config = config
        self.minhasher = MinHasher(num_perm=config.num_perm)
        self.token_hasher = TokenHasher()
        self.lang_configs = config.lang_configs
        self._stops = {
            lang: frozenset(lc.stop_tokens) for lang, lc in config.lang_configs.items()
        }
        # user rewrite hook, compiled once per actor (A4 pattern)
        self._extra_rules = [
            (re.compile(p), r) for p, r in config.extra_rules
        ]
        self._lang_salts: dict[str, int] = {}
        #: (lang, stem) → blocking key — stems repeat heavily across a
        #: corpus, so the per-row sha1 amortizes like the token cache
        self._stem_keys: dict[tuple[str, str], int] = {}

    def _doc_tokens(self, content: str, lang: str) -> list[str]:
        lc = self.lang_configs.get(lang)
        if lc is not None and lc.comment_styles:
            content = strip_comments(content, lc.comment_styles)
        norm = normalize_content(content)
        for rx, repl in self._extra_rules:
            norm = rx.sub(repl, norm)
        toks = tokenize(norm)
        stops = self._stops.get(lang)
        if stops:
            toks = strip_stop_tokens(toks, stops)
        return toks

    def _batch_tokens(self, content_col, langs: list[str]) -> list[list[str]]:
        """Per-doc token lists for a whole batch — bit-identical to
        :meth:`_doc_tokens` per row (tested), but the comment-strip and
        normalize regex passes run per LANG SLICE in RE2/C
        (``strip_comments_arrow`` / ``normalize_content_arrow``) instead of
        per row in Python. User ``extra_rules`` keep Python ``re`` semantics
        (applied per row after the vectorized chain, as before)."""
        content_col = one_array(content_col)
        n = len(langs)
        lang_arr = np.array(langs, dtype=object)
        token_lists: list = [None] * n
        for lg in set(langs):
            idx = np.flatnonzero(lang_arr == lg)
            sub = content_col.take(pa.array(idx))
            lc = self.lang_configs.get(lg)
            if lc is not None and lc.comment_styles:
                sub = strip_comments_arrow(sub, lc.comment_styles)
            texts = normalize_content_arrow(sub).to_pylist()
            if self._extra_rules:
                rules = self._extra_rules
                fixed = []
                for t in texts:
                    for rx, repl in rules:
                        t = rx.sub(repl, t)
                    fixed.append(t)
                texts = fixed
            stops = self._stops.get(lg)
            if stops:
                for j, t in zip(idx, texts):
                    token_lists[j] = strip_stop_tokens(tokenize(t), stops)
            else:
                for j, t in zip(idx, texts):
                    token_lists[j] = tokenize(t)
        return token_lists

    def _batch_token_hashes(
        self, content_col, langs: list[str], clean: bool = False
    ) -> list[np.ndarray]:
        """Per-doc token-HASH arrays (uint64) for a whole batch, Arrow-native
        end to end: comment-strip + normalize in RE2/C, ``split_pattern`` to
        an Arrow list array (no per-token Python strings), dictionary-encoded
        memoized hashing (:meth:`TokenHasher.hash_token_array`), and
        stop-token stripping by HASH membership in numpy. Token hashes equal
        ``hash_tokens(_doc_tokens(...))`` per row (tested) up to a 2⁻⁶⁴
        stop-hash collision. User ``extra_rules`` need Python ``re``
        semantics on the normalized string — that path falls back to the
        string pipeline, unchanged. ``clean`` says the whole column already
        passed :func:`batch_is_clean`, so no lang slice is scanned again.

        This exists for throughput AND for multi-actor scaling: the string
        path allocates one Python object per token (~10⁸ per 1M-row run),
        and at 14 concurrent actors per node that allocation churn inflated
        per-row UDF time 2× (measured); the Arrow path keeps tokens in
        buffers and removed most of that inflation."""
        if self._extra_rules:
            toks = self._batch_tokens(content_col, langs)
            hash_tokens = self.token_hasher.hash_tokens
            return [hash_tokens(t) for t in toks]
        import pyarrow.compute as pc

        content_col = one_array(content_col)
        n = len(langs)
        lang_arr = np.array(langs, dtype=object)
        out: list = [None] * n
        for lg in set(langs):
            idx = np.flatnonzero(lang_arr == lg)
            sub = content_col.take(pa.array(idx))
            lc = self.lang_configs.get(lg)
            if lc is not None and lc.comment_styles:
                sub = strip_comments_arrow(sub, lc.comment_styles)
            # token lists WITHOUT materializing the collapsed string: for
            # ASCII rows free of \x1c-\x1f, ascii_split_whitespace gives
            # exactly the normalize+split tokens plus empty strings at row
            # edges — and hash('') is already in the drop set below, so the
            # kept hashes are identical (≈5× less C time than the
            # normalize-then-split chain it replaces)
            if clean or batch_is_clean(sub, content_scans(sub)):
                tok_list = pc.ascii_split_whitespace(sub)
            else:
                tok_list = pc.split_pattern(
                    normalize_content_arrow(sub), pattern=" "
                )
            flat = pc.list_flatten(tok_list)
            th_flat = self.token_hasher.hash_token_array(flat)
            lengths = pc.list_value_length(tok_list).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            # drop set: stop-token hashes, plus hash('') — tokenize('') is
            # [] while split_pattern('', ' ') is ['']; an empty token can
            # ONLY come from an all-empty row (runs are collapsed), so
            # dropping by hash reproduces the tokenize semantics exactly
            stops = self._stops.get(lg) or ()
            drop_h = self.token_hasher.hash_tokens(list(stops) + [""])
            keep = ~np.isin(th_flat, drop_h)
            th_kept = th_flat[keep]
            # kept-count per row via one cumsum + offset gathers — no
            # row-index materialization (np.repeat over every token) and no
            # bincount pass; row boundaries are the original length offsets
            row_ends = np.cumsum(lengths)
            kept_cum = np.concatenate(([0], np.cumsum(keep)))
            ends_kept = kept_cum[row_ends]
            offs = np.concatenate(([0], ends_kept))
            for j_local, j_global in enumerate(idx):
                out[j_global] = th_kept[offs[j_local] : offs[j_local + 1]]
        return out

    def _batch_raw_token_sets(
        self, content_col, clean: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-row SORTED-UNIQUE uint64 token hashes of the RAW normalized
        content as ``(flat row-major values, per-row lengths)``, for
        ``config.verify_mode == "exact"``.

        The set matches the SQL spec ``list_distinct(string_split(norm, ' '))``
        exactly (the corpus_linkage_clusters oracle): no comment strip, no
        stop strip, and ``split_pattern('', ' ') == ['']`` keeps the empty
        token for empty content — unlike the shingle path, whose tokens
        feed a similarity SKETCH and may drop noise. Hashes are the same
        sha256-prefix family the SimHash oracle casts in SQL. ``clean`` as in
        :meth:`_batch_token_hashes`."""
        import pyarrow.compute as pc

        content_col = one_array(content_col)
        n = len(content_col)
        if n == 0:
            return np.empty(0, np.uint64), np.empty(0, np.int64)
        filled = pc.fill_null(content_col, "")
        # fast tokenizer (see _batch_token_hashes): identical tokens except
        # empty strings at row edges, reconciled after the distinct step —
        # drop '' everywhere, then rows left with NO token get back the
        # spec's {''} (normalize+split yields [''] exactly for all-ws rows)
        fast = clean or batch_is_clean(filled, content_scans(filled))
        if fast:
            tok_list = pc.ascii_split_whitespace(filled)
        else:
            tok_list = pc.split_pattern(
                normalize_content_arrow(filled), pattern=" "
            )
        th = self.token_hasher.hash_token_array(pc.list_flatten(tok_list))
        lengths = pc.list_value_length(tok_list).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        row_of = np.repeat(np.arange(n), lengths)
        o = np.lexsort((th, row_of))
        r2, t2 = row_of[o], th[o]
        keep = np.concatenate(
            ([True], (r2[1:] != r2[:-1]) | (t2[1:] != t2[:-1]))
        ) if len(r2) else np.empty(0, bool)
        vals, rows = t2[keep], r2[keep]
        if fast:
            h_empty = self.token_hasher.hash_tokens([""])[0]
            m = vals != h_empty
            vals, rows = vals[m], rows[m]
            lens = np.bincount(rows, minlength=n).astype(np.int64)
            empties = np.flatnonzero(lens == 0)
            if len(empties):
                # row-major insertion points for the singleton {''} sets
                # (a one-element row is trivially sorted)
                pos = np.concatenate(([0], np.cumsum(lens)))[empties]
                vals = np.insert(vals, pos, h_empty)
                lens[empties] = 1
            return vals, lens
        return vals, np.bincount(rows, minlength=n).astype(np.int64)

    def __call__(self, batch: pa.Table, clean: bool = False) -> pa.Table:
        """Features of one normalized batch; ``clean`` as in
        :meth:`_batch_token_hashes`."""
        langs = batch["lang"].to_pylist()
        k_default = self.config.shingle_k
        bands = self.config.lsh_bands

        stems = batch["stem"].to_pylist()
        r = self.config.rows_per_band
        sha1 = hashlib.sha1

        n = len(langs)
        th_list = self._batch_token_hashes(batch["content"], langs, clean)
        # exact mode: the MinHash signature (and thus every band key and the
        # sig8 screen) is built over the SAME set the verifier measures — the
        # raw normalized token-hash set — so the LSH recall guarantee applies
        # to the exact edge predicate verbatim: a J ≥ 0.97 pair misses all
        # 16 bands w.p. (1 − 0.97⁸)¹⁶ ≈ 2e-11, and set-identical rows
        # (J = 1, even token PERMUTATIONS) get bit-identical signatures.
        # Estimate mode keeps the order-sensitive k-token shingles — the
        # sharper similarity for code near-dup detection at scale.
        exact = self.config.verify_mode == "exact"
        if exact:
            raw_vals, raw_lens = self._batch_raw_token_sets(batch["content"], clean)
        n_tok = np.fromiter(map(len, th_list), np.int64, count=n)
        lang_salts = np.empty(n, dtype=np.uint64)
        stem_keys = np.zeros(n, dtype=np.uint64)
        has_stem = np.zeros(n, dtype=bool)
        ks = np.empty(n, dtype=np.int64)
        salt_cache = self._lang_salts
        stem_cache = self._stem_keys
        for i, (lg, st) in enumerate(zip(langs, stems)):
            lc = self.lang_configs.get(lg)
            ks[i] = lc.shingle_k if lc is not None else k_default
            salt = salt_cache.get(lg)
            if salt is None:
                d = sha1(f"L|{lg}|".encode()).digest()
                salt = salt_cache[lg] = int.from_bytes(d[:8], "big")
            lang_salts[i] = salt
            if st:
                sk = stem_cache.get((lg, st))
                if sk is None:
                    d = sha1(f"S|{lg}|{st}".encode()).digest()
                    sk = stem_cache[(lg, st)] = int.from_bytes(d[:8], "big")
                stem_keys[i] = sk
                has_stem[i] = True
        # MinHash signatures for the whole batch over the concatenated
        # shingle stream: OPH (one binning pass) or classic (one reduceat
        # pass per cache-sized slab), per config.minhash_mode
        if exact:
            flat_sh, n_shingles = raw_vals, raw_lens
        else:
            flat_th = (
                np.concatenate(th_list) if th_list else np.empty(0, np.uint64)
            )
            flat_sh, n_shingles = shingle_hashes_flat(flat_th, n_tok, ks)
        if self.config.effective_minhash_mode == "oph":
            sig_mat = self.minhasher.oph_signature_batch(flat_sh, n_shingles)
        else:
            sig_mat = self.minhasher.signature_batch(flat_sh, n_shingles)
        # one buffer copy for the whole column — byte-identical to per-row
        # tobytes() but with no n-iteration Python loop (allocator churn
        # under actor concurrency is the feature stage's measured enemy)
        sig_col = u8_matrix_to_binary(
            np.ascontiguousarray(sig_mat).view(np.uint8).reshape(n, -1)
        ) if n else pa.array([], pa.binary())
        # band keys for the whole batch, vectorized: fold each band's r sig
        # lanes with the lang salt and band index through a splitmix64-style
        # avalanche. Equal (lang, band, sig-lanes) ⇒ equal key — the only
        # property blocking needs; values are free (no oracle pins them).
        # slice first: num_perm need not be an exact multiple of bands
        # (trailing perms beyond bands*r never entered band keys)
        band_view = np.ascontiguousarray(sig_mat[:, : bands * r]).reshape(n, bands, r)
        acc = lang_salts[:, None] ^ (
            np.arange(bands, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        )[None, :]
        M = np.uint64(0xC2B2AE3D27D4EB4F)
        for j in range(r):
            acc = acc * M + band_view[:, :, j]
        acc ^= acc >> np.uint64(33)
        acc *= np.uint64(0xFF51AFD7ED558CCD)
        acc ^= acc >> np.uint64(33)
        # per-row key lists (bands keys, +1 stem key where present) without
        # a per-row concatenate: mask-select off an (n, bands+1) matrix in
        # row-major order, then build the list column from flat values
        bh_mat = np.concatenate([acc, stem_keys[:, None]], axis=1)
        bh_mask = np.ones((n, bands + 1), dtype=bool)
        bh_mask[:, bands] = has_stem
        block_hash_col = u64_rows_to_list_array(
            bh_mat[bh_mask], bands + has_stem.astype(np.int32)
        )
        # sig8 fold for the whole batch in one pass (per-row astype is ~10×
        # the cost at 4k rows/batch); row slices of a C-contiguous uint8
        # matrix serialize with one memcpy each
        sig8_mat = (sig_mat & np.uint64(0xFF)).astype(np.uint8)
        sig8_col = u8_matrix_to_binary(sig8_mat) if n else pa.array([], pa.binary())

        out = batch.select([c for c in KEEP_COLUMNS if c in batch.column_names])
        out = (
            out
            .append_column("sig", sig_col)
            .append_column("sig8", sig8_col)
            .append_column("block_hashes", block_hash_col)
            .append_column("n_tokens_sig", pa.array(n_tok, pa.int64()))
        )
        if exact:
            # exact-verify payload (the signature's own basis set): never
            # rides the blocking shuffle (the emitter selects
            # row_id/sig8/block_hashes only) and never reaches a join
            # (rows_view selects KEEP_COLUMNS)
            out = out.append_column(
                "tok64", u64_rows_to_list_array(raw_vals, raw_lens)
            )
        return out


#: per-worker-process extractor cache for the task-based path: state is
#: rebuilt at most once per (worker, config) — the same amortization an
#: actor gives, without actor-pool cold-start (new processes, imports).
#: Keyed by config CONTENT (not id()): two runs in one session whose configs
#: coincidentally share an address must not reuse stale extractor state.
_PROCESS_EXTRACTORS: dict = {}


def _config_cache_key(config: PipelineConfig) -> tuple:
    return (
        config.num_perm, config.minhash_mode, config.lsh_bands,
        config.shingle_k, config.pipeline_version, config.extra_rules,
        config.verify_mode,
        tuple(sorted(config.lang_configs.items())),
    )


def _process_extractor(key: tuple, config: PipelineConfig) -> FeatureExtractor:
    fx = _PROCESS_EXTRACTORS.get(key)
    if fx is None:
        fx = _PROCESS_EXTRACTORS[key] = FeatureExtractor(config)
    return fx


def _extract_batch_factory(config: PipelineConfig):
    key = _config_cache_key(config)

    def extract(batch: pa.Table) -> pa.Table:
        return _process_extractor(key, config)(batch)

    return extract


def _front_end_batch_factory(config: PipelineConfig):
    from localhost_address_matching_ray.stages.normalize_stage import _normalize_batch

    key = _config_cache_key(config)
    rules = tuple(tuple(r) for r in config.extra_rules)

    def normalize_and_extract(batch: pa.Table) -> pa.Table:
        # one contiguous content array and one pair of batch-wide scans
        # serve the normalize columns and every lang slice of the features
        content = one_array(batch["content"])
        batch = batch.set_column(
            batch.schema.get_field_index("content"), "content", content
        )
        scans = content_scans(content)
        normalized = _normalize_batch(batch, rules, scans)
        return _process_extractor(key, config)(
            normalized, batch_is_clean(content, scans)
        )

    return normalize_and_extract


def extract_features(
    ds: ray.data.Dataset, config: PipelineConfig | None = None
) -> ray.data.Dataset:
    """Feature extraction over Arrow batches.

    Stateless tasks with per-process cached state: this state (MinHash
    permutations, compiled regexes) builds in ~1 ms, so tasks on
    already-warm workers beat an actor pool's process spin-up.
    """
    config = config or PipelineConfig()
    return ds.map_batches(
        _extract_batch_factory(config),
        batch_format="pyarrow",
        batch_size=config.batch_size,
    )


def normalize_and_extract_features(
    corpus: ray.data.Dataset,
    config: PipelineConfig | None = None,
    per_block: bool = False,
) -> ray.data.Dataset:
    """``extract_features(normalize_corpus(corpus, config.batch_size,
    config.extra_rules), config)`` as ONE stateless map: each batch is
    normalized and featurized in the same task, so no feature task waits on
    a normalize barrier, and the batch-wide content scans run once for both
    stages. Same rows, columns and values as the two-stage form.

    ``per_block=True`` makes each input block exactly one batch, for a
    source whose blocks hold at most ``config.batch_size`` rows
    (``pipelines/linkage.py``): a split source then runs one task per block,
    and a row-group read one task per row group, the map fused into the
    read. Otherwise blocks are re-bundled into ``config.batch_size``-row
    batches."""
    config = config or PipelineConfig()
    return corpus.map_batches(
        _front_end_batch_factory(config),
        batch_format="pyarrow",
        batch_size=None if per_block else config.batch_size,
    )
