"""Distributed training analog: induce tagger rules from labeled tokens.

The reference's lifecycle is data factory → TRAINING → evaluation
(``SURVEY.md §3.3``: synthetic corpus → fine-tune the NER model → seqeval);
our engine already had the factory (``fixtures``) and the evaluation
(``pipelines/eval``) — this module is the training third.  With no weights
in the sandbox, the "model" is the tagger's gazetteer: a vocabulary of
(token → entity type) learned from a labeled corpus, compiled into the
ordered regex rule set ``stages/tagger.EntityTagger`` already consumes.

The fit is a real distributed aggregation, not a driver loop: per-batch
Arrow hash group-by combiners count (token, type) pairs (the shuffle
carries vocabulary, never token occurrences), one vocabulary-keyed
``groupby`` merges partials, and a per-token purity vote picks the
dominant type.  Only the thresholded vocabulary — the model artifact, the
analog of the reference's trained weights — is collected on the driver,
with a stated per-type ceiling.

Label noise handling: a token is adopted only when ``n_dominant >=
min_count`` and ``n_dominant / n_total >= min_purity`` (O counts included
in the denominator), so sporadic mislabels and mostly-O tokens are
rejected rather than memorized.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Sum

from localhost_address_matching_ray.stages.buckets import bucket_fold
from localhost_address_matching_ray.stages.tagger import EntityTagger


def token_type_counts(labeled: ray.data.Dataset) -> ray.data.Dataset:
    """(token, type, n) totals from a labeled Dataset carrying the CoNLL
    columns ``tokens: list<string>`` and ``tags: list<string>`` (BIO).

    ``O`` rows are KEPT — :func:`fit_tagger_rules` needs them in the purity
    denominator; filter ``type != 'O'`` downstream if only entities matter.
    """

    def partial(t: pa.Table) -> pa.Table:
        tok = pc.list_flatten(t["tokens"])
        typ = pc.replace_substring_regex(pc.list_flatten(t["tags"]), r"^[BI]-", "")
        g = (
            pa.table({"token": tok, "type": typ})
            .group_by(["token", "type"])
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["token", "type", "n"])

    return (
        labeled.map_batches(partial, batch_format="pyarrow")
        .groupby(["token", "type"])
        .aggregate(Sum("n", alias_name="n"))
    )


def fit_tagger_rules(
    labeled: ray.data.Dataset,
    *,
    min_count: int = 2,
    min_purity: float = 0.8,
    max_tokens_per_type: int = 50_000,
    fit_collect_max_rows: int = 5_000_000,
) -> tuple[list[tuple[str, str]], pa.Table]:
    """Learn gazetteer rules from a labeled corpus; returns
    ``(rules, vocab)`` where *rules* is an ``EntityTagger``-ready ordered
    ``(type, pattern)`` list (one anchored, escaped alternation per type)
    and *vocab* the adopted ``(token, type, n, purity)`` table.

    The driver holds only the vocabulary (≤ ``max_tokens_per_type`` rows
    per type, dominant-count order) — the model artifact.  Deterministic:
    ties on the dominant type break lexicographically; rule order is
    sorted by type name; alternation members by (-n, token).
    """

    def vote_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _EMPTY_VOCAB
        tok = np.asarray(g["token"].to_pylist(), dtype=object)
        typ = np.asarray(g["type"].to_pylist(), dtype=object)
        n = g["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(tok, kind="mergesort")
        tok, typ, n = tok[order], typ[order], n[order]
        starts = np.concatenate(([0], np.flatnonzero(tok[1:] != tok[:-1]) + 1))
        seg = np.zeros(len(tok), np.int64)
        seg[starts[1:]] = 1
        seg = np.cumsum(seg)
        totals = np.add.reduceat(n, starts)
        # dominant non-O row per token: order rows (token, -n, type lexical),
        # first entity row of each segment wins
        _, typ_code = np.unique(typ, return_inverse=True)
        o2 = np.lexsort((typ_code, -n, seg))
        ent = typ[o2] != "O"
        cand = o2[ent]
        _, first = np.unique(seg[cand], return_index=True)
        dom = cand[first]
        n_dom = n[dom]
        purity = n_dom / totals[seg[dom]]
        keep = (n_dom >= min_count) & (purity >= min_purity)
        return pa.table({
            "token": pa.array(tok[dom][keep], pa.string()),
            "type": pa.array(typ[dom][keep], pa.string()),
            "n": pa.array(n_dom[keep], pa.int64()),
            "purity": pa.array(purity[keep], pa.float64()),
        })

    # one token's counts co-locate in its bucket; the vote runs vectorized
    # over a whole bucket, never one call per token
    vocab_ds = bucket_fold(token_type_counts(labeled), "token", vote_bucket)
    parts = [ray.get(ref) for ref in vocab_ds.to_arrow_refs()]
    parts = [p for p in parts if p.num_rows]
    vocab = pa.concat_tables(parts) if parts else _EMPTY_VOCAB
    if vocab.num_rows > fit_collect_max_rows:
        raise ValueError(
            f"learned vocabulary ({vocab.num_rows} rows) exceeds "
            f"fit_collect_max_rows={fit_collect_max_rows}; raise min_count/"
            "min_purity or the ceiling — the artifact must fit the driver"
        )
    vocab = vocab.sort_by(
        [("type", "ascending"), ("n", "descending"), ("token", "ascending")]
    )

    rules: list[tuple[str, str]] = []
    typ_np = np.asarray(vocab["type"].to_pylist(), dtype=object)
    tok_np = np.asarray(vocab["token"].to_pylist(), dtype=object)
    kept_rows: list[int] = []
    for t in sorted(set(typ_np)):
        rows = np.flatnonzero(typ_np == t)[:max_tokens_per_type]
        kept_rows.extend(rows.tolist())
        alts = "|".join(re.escape(tok) for tok in tok_np[rows])
        rules.append((t, f"^(?:{alts})$"))
    vocab = vocab.take(pa.array(sorted(kept_rows), pa.int64()))
    return rules, vocab


_EMPTY_VOCAB = pa.table({
    "token": pa.array([], pa.string()),
    "type": pa.array([], pa.string()),
    "n": pa.array([], pa.int64()),
    "purity": pa.array([], pa.float64()),
})


class _SelfLabelCounts:
    """Actor-pool combiner for :func:`doc_token_type_counts`: tokenize each
    batch with the tagger's own tokenizer, classify UNIQUE tokens once
    (``EntityTagger._classify_unique`` — the per-actor compiled rule state),
    and emit per-batch (token, type, n) partials."""

    def __init__(self, rules: list[tuple[str, str]] | None = None) -> None:
        self.tagger = EntityTagger(rules)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        toks = "\n".join(texts).split()  # '\n' is whitespace: no cross-doc token
        if not toks:
            return pa.table({
                "token": pa.array([], pa.string()),
                "type": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            })
        d = pa.array(toks, pa.string()).dictionary_encode()
        codes = self.tagger._classify_unique(d.dictionary)
        cnt = np.bincount(
            d.indices.to_numpy(zero_copy_only=False), minlength=len(d.dictionary)
        )
        keep = codes > 0
        return pa.table({
            "token": d.dictionary.filter(pa.array(keep)),
            "type": pa.array(self.tagger._type_names[codes[keep]], pa.string()),
            "n": pa.array(cnt[keep].astype(np.int64), pa.int64()),
        })


def doc_token_type_counts(
    docs: ray.data.Dataset,
    *,
    rules: list[tuple[str, str]] | None = None,
    min_count: int = 2,
    concurrency: int | tuple[int, int] = (1, 8),
) -> ray.data.Dataset:
    """Self-training vocabulary over a document table: label every token
    with the (current) rule set, count (token, type), keep counts >=
    *min_count* — the distributed shape of one fit iteration, with the
    labels coming from the model itself instead of an annotated corpus."""
    counts = docs.map_batches(
        _SelfLabelCounts,
        fn_constructor_args=(rules,),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )
    agg = counts.groupby(["token", "type"]).aggregate(Sum("n", alias_name="n"))
    return agg.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n"], min_count)),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------- BPE learn
#
# Tokenizer training is the other "training third" a large-scale
# text-data engine needs (Sennrich et al. 2016, "Neural Machine
# Translation of Rare Words with Subword Units" — the classic byte-pair
# encoding over a WORD-FREQUENCY table, the standard trick that makes
# BPE corpus-size-independent: the corpus collapses to (word, count)
# once, and every merge iteration runs over the unique-word table).
#
# Distributed shape per merge iteration (nothing corpus-sized after the
# initial word count):
#   word table (symbols list<string>, n)   — stays a distributed Dataset
#     → map_batches: adjacent-pair partial counts
#     → bucket_fold keyed on the pair: exact per-pair totals (a pair lives
#       in exactly one bucket) folded by Arrow group_by; emit ONE top row
#       per bucket (max count, ties → lexicographically smallest pair)
#     → driver argmax over ≤ one candidate row per bucket
#     → map_batches: apply the merge to every word's symbol sequence
# The driver only ever holds the merge list (the model artifact) and one
# candidate row per bucket — never words, never the corpus.


def _word_symbols(word: str) -> list[str]:
    return list(word) + ["</w>"]


def word_frequency_table(docs: ray.data.Dataset) -> ray.data.Dataset:
    """documents(text) → distributed (word, n) counts over the normalized,
    lowercased, whitespace-split text — per-batch Arrow group-by combiners,
    then a hash-bucket fold by word (the repo_lang_profile idiom)."""
    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
    )

    def partial(t: pa.Table) -> pa.Table:
        norm = pc.utf8_lower(normalize_content_arrow(t["text"]))
        lists = pc.split_pattern(norm, pattern=" ")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        flat = flat.filter(pc.not_equal(flat, ""))  # drop empty-doc tokens
        if len(flat) == 0:
            return pa.table({
                "word": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            })
        return pa.table({"word": flat}).group_by("word").aggregate(
            [([], "count_all")]
        ).rename_columns(["word", "n"])

    def fold(g: pa.Table) -> pa.Table:
        return g.group_by("word").aggregate([("n", "sum")]).rename_columns(["word", "n"])

    return bucket_fold(docs.map_batches(partial, batch_format="pyarrow"), "word", fold)


def _pair_counts_batch(t: pa.Table) -> pa.Table:
    """(symbols, n) batch → (a, b, c) adjacent-pair partial counts."""
    counts: dict = {}
    ns = t["n"].to_numpy(zero_copy_only=False)
    for syms, n in zip(t["symbols"].to_pylist(), ns):
        n = int(n)
        for a, b in zip(syms, syms[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + n
    if not counts:
        return pa.table({
            "a": pa.array([], pa.string()), "b": pa.array([], pa.string()),
            "c": pa.array([], pa.int64()),
        })
    pairs = list(counts)
    return pa.table({
        "a": pa.array([p[0] for p in pairs], pa.string()),
        "b": pa.array([p[1] for p in pairs], pa.string()),
        "c": pa.array([counts[p] for p in pairs], pa.int64()),
    })


def _bucket_top_pair(g: pa.Table) -> pa.Table:
    """Exact per-pair totals inside one bucket, then the bucket's single
    best candidate (max count, ties → lexicographically smallest (a, b))."""
    empty = pa.table({
        "a": pa.array([], pa.string()), "b": pa.array([], pa.string()),
        "c": pa.array([], pa.int64()),
    })
    if g.num_rows == 0:
        return empty
    tot = g.group_by(["a", "b"]).aggregate(
        [("c", "sum")]
    ).rename_columns(["a", "b", "c"])
    c = tot["c"].to_numpy(zero_copy_only=False)
    best = np.flatnonzero(c == c.max())
    if len(best) > 1:  # tie-break inside the bucket
        aa = np.asarray(tot["a"].to_pylist(), dtype=object)[best]
        bb = np.asarray(tot["b"].to_pylist(), dtype=object)[best]
        order = np.lexsort((bb, aa))
        best = best[order[:1]]
    return tot.take(pa.array(best[:1]))


def bpe_learn(
    docs: ray.data.Dataset, n_merges: int = 12, min_pair_count: int = 2,
) -> tuple[list[tuple[str, str, int]], ray.data.Dataset]:
    """Learn ``n_merges`` BPE merges over the documents' word-frequency
    table. Returns ``(merges, words)`` where merges is the ranked list of
    ``(left, right, pair_count)`` (the model artifact — the only thing the
    driver holds) and words is the final segmented word table
    ``(word, symbols, n)``. Stops early when no pair reaches
    ``min_pair_count``."""
    words = word_frequency_table(docs).map_batches(
        lambda t: pa.table({
            "word": t["word"],
            "symbols": pa.array(
                [_word_symbols(w) for w in t["word"].to_pylist()],
                pa.list_(pa.string()),
            ),
            "n": t["n"],
        }),
        batch_format="pyarrow",
    ).materialize()

    merges: list[tuple[str, str, int]] = []
    for _ in range(n_merges):
        cand_tbls = [
            t for t in ray.get(bucket_fold(
                words.map_batches(_pair_counts_batch, batch_format="pyarrow"),
                ["a", "b"], _bucket_top_pair,
            ).to_arrow_refs()) if t.num_columns > 0
        ]
        if not cand_tbls:
            break
        cand = pa.concat_tables(cand_tbls)
        if cand.num_rows == 0:
            break
        c = cand["c"].to_numpy(zero_copy_only=False)
        best = np.flatnonzero(c == c.max())
        if len(best) > 1:  # global tie-break across bucket candidates
            aa = np.asarray(cand["a"].to_pylist(), dtype=object)[best]
            bb = np.asarray(cand["b"].to_pylist(), dtype=object)[best]
            order = np.lexsort((bb, aa))
            best = best[order[:1]]
        i = int(best[0])
        a, b, cnt = (cand["a"][i].as_py(), cand["b"][i].as_py(),
                     int(cand["c"][i].as_py()))
        if cnt < min_pair_count:
            break
        merges.append((a, b, cnt))

        def apply_merge(t: pa.Table, a=a, b=b) -> pa.Table:
            merged = a + b
            out = []
            for syms in t["symbols"].to_pylist():
                res = []
                k = 0
                while k < len(syms):
                    if k + 1 < len(syms) and syms[k] == a and syms[k + 1] == b:
                        res.append(merged)
                        k += 2
                    else:
                        res.append(syms[k])
                        k += 1
                out.append(res)
            return pa.table({
                "word": t["word"],
                "symbols": pa.array(out, pa.list_(pa.string())),
                "n": t["n"],
            })

        words = words.map_batches(apply_merge, batch_format="pyarrow").materialize()
    return merges, words


def bpe_learn_reference(
    word_counts: dict[str, int], n_merges: int = 12, min_pair_count: int = 2,
) -> list[tuple[str, str, int]]:
    """Single-process reference implementation (tests cross-check the
    distributed path against this, Sennrich et al.'s textbook loop)."""
    words = {w: _word_symbols(w) for w in word_counts}
    merges = []
    for _ in range(n_merges):
        counts: dict = {}
        for w, syms in words.items():
            n = word_counts[w]
            for p in zip(syms, syms[1:]):
                counts[p] = counts.get(p, 0) + n
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        (a, b), cnt = best
        if cnt < min_pair_count:
            break
        merges.append((a, b, cnt))
        for w, syms in words.items():
            res, k = [], 0
            while k < len(syms):
                if k + 1 < len(syms) and syms[k] == a and syms[k + 1] == b:
                    res.append(a + b)
                    k += 2
                else:
                    res.append(syms[k])
                    k += 1
            words[w] = res
    return merges


def bpe_token_counts(
    docs: ray.data.Dataset, n_merges: int = 12,
    word_broadcast_max: int = 5_000_000,
) -> ray.data.Dataset:
    """Learn ``n_merges`` BPE merges, then segment every document with
    them: ``(doc_id, n_words, n_bpe_tokens)``. The apply path broadcasts
    the (word → segment-length) map once (vocab-sized; ceiling-guarded)
    and resolves each doc's words with one C++ hash lookup pass
    (``pc.index_in``) — unseen words (impossible when segmenting the
    training corpus itself, possible for held-out docs) fall back to
    their character count + 1, BPE's no-merges-apply segmentation."""
    from localhost_address_matching_ray.functions.normalize import (
        normalize_content_arrow,
    )

    _, words = bpe_learn(docs, n_merges=n_merges)
    n_vocab = words.count()
    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_words", pa.int64()),
        ("n_bpe_tokens", pa.int64()),
    ])
    if n_vocab > word_broadcast_max:
        raise ValueError(
            f"bpe_token_counts broadcasts the {n_vocab}-word segment map "
            f"(cap {word_broadcast_max}); shard the vocabulary or raise "
            "the cap on a larger-heap cluster"
        )
    w_tbls = [
        t for t in ray.get(words.to_arrow_refs()) if t.num_columns > 0
    ]
    if not w_tbls:  # empty corpus: every doc counts 0 tokens
        w_tbls = [pa.schema([
            ("word", pa.string()), ("symbols", pa.list_(pa.string())),
            ("n", pa.int64()),
        ]).empty_table()]
    wt = pa.concat_tables(w_tbls)
    seg_len = pc.list_value_length(wt["symbols"]).to_numpy(zero_copy_only=False)
    import ray as _ray

    map_ref = _ray.put((wt["word"].combine_chunks(), seg_len.astype(np.int64)))

    def count_batch(t: pa.Table) -> pa.Table:
        vocab, lens = _ray.get(map_ref)
        norm = pc.utf8_lower(normalize_content_arrow(t["text"]))
        lists = pc.split_pattern(norm, pattern=" ")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = lists.flatten()
        word_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        nonempty = word_lens > 0
        if len(vocab):
            ix = pc.index_in(flat, value_set=vocab).to_numpy(
                zero_copy_only=False
            )
        else:
            ix = np.full(len(flat), np.nan)
        hit = ~np.isnan(ix)
        per_word = np.where(
            hit, lens[np.where(hit, ix, 0).astype(np.int64)],
            word_lens + 1,  # chars + </w>: the no-merges segmentation
        )
        per_word = np.where(nonempty, per_word, 0)
        row_lens = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(row_lens)))
        csum = np.concatenate(([0], np.cumsum(per_word)))
        wsum = np.concatenate(([0], np.cumsum(nonempty.astype(np.int64))))
        return pa.table({
            "doc_id": t["doc_id"],
            "n_words": pa.array(wsum[offs[1:]] - wsum[offs[:-1]], pa.int64()),
            "n_bpe_tokens": pa.array(
                csum[offs[1:]] - csum[offs[:-1]], pa.int64()
            ),
        })

    return docs.map_batches(count_batch, batch_format="pyarrow")
