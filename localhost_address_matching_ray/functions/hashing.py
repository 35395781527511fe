"""Hashing kernels: sha256 row ids/invariants, MinHash, SimHash, rolling
fingerprints.

``content_sha256`` generalizes the reference's file-fingerprint pattern
(``data/ptt_data/map.py:160-166`` — sha256 used to key the gazetteer cache)
into the per-row invariant required by BASELINE.json's ``input_hint``.

All hashes are deterministic across processes/machines (hashlib / fixed-seed
numpy), never Python's salted ``hash()``.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MERSENNE_P = (1 << 61) - 1  # prime modulus for universal hashing


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_hex_array(texts) -> list[str]:
    """Vectorized-enough sha256 (hashlib is C; ~1M short rows/s/core).
    SQL equivalent: ``sha256(text)`` (DuckDB returns lowercase hex)."""
    h = hashlib.sha256
    return [h(t.encode("utf-8")).hexdigest() for t in texts]


def row_id_array(repos, paths, commits) -> list[str]:
    """Stable row id = first 16 hex chars of sha256('repo|path|commit')
    (FIXTURES.md §2). SQL: ``substr(sha256(repo||'|'||path||'|'||commit),1,16)``."""
    h = hashlib.sha256
    return [
        h(f"{r}|{p}|{c}".encode("utf-8")).hexdigest()[:16]
        for r, p, c in zip(repos, paths, commits)
    ]


def sha256_hex_arrow(arr) -> list[str]:
    """sha256 hex per value of an Arrow string array, hashing the utf-8
    straight out of the value buffer via memoryview slices — no per-row
    Python string decode/copy (Arrow already stores utf-8, so the bytes are
    identical to ``value.encode('utf-8')``). Values with nulls fall back to
    the list path. Hex output matches :func:`sha256_hex_array` exactly."""
    import numpy as np
    import pyarrow as pa

    from localhost_address_matching_ray.functions.arrowbuf import one_array

    arr = one_array(arr)
    n = len(arr)
    if n == 0:
        return []
    # string or large_string (int32 / int64 offsets); nulls or any other
    # layout fall back to the (correct, slower) list path
    if pa.types.is_string(arr.type):
        off_t = np.int32
    elif pa.types.is_large_string(arr.type):
        off_t = np.int64
    else:
        off_t = None
    if arr.null_count or off_t is None:
        return sha256_hex_array(arr.to_pylist())
    offs = np.frombuffer(arr.buffers()[1], dtype=off_t)
    mv = memoryview(arr.buffers()[2])
    o = offs[arr.offset : arr.offset + n + 1]
    h = hashlib.sha256
    return [h(mv[s:e]).hexdigest() for s, e in zip(o[:-1].tolist(), o[1:].tolist())]


def row_id_arrow(repos, paths, commits) -> list[str]:
    """:func:`row_id_array` over Arrow string columns: the 'repo|path|commit'
    join runs in Arrow C (``binary_join_element_wise``), the sha over buffer
    slices — no per-row Python string assembly."""
    import pyarrow.compute as pc

    joined = pc.binary_join_element_wise(repos, paths, commits, "|")
    return [d[:16] for d in sha256_hex_arrow(joined)]


def u64_bucket(keys: np.ndarray, nb: int) -> np.ndarray:
    """Deterministic int32 bucket of an integer key array: splitmix-style
    remix (golden-ratio multiply + xor-shift) mod *nb*.

    The bucket hash of the hash-bucket fold (``stages.buckets``), its only
    caller: integer keys come here directly, string and multi-column keys
    as their mixed 64-bit hashes — one implementation, so the "equal keys
    land in the same bucket" partitioning assumption can never diverge
    between operators."""
    h = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(33)
    return (h % np.uint64(nb)).astype(np.int32)


def _token_hash64(token: str) -> int:
    """Stable 64-bit token hash (first 8 bytes of sha256, big-endian).

    sha256 (not sha1) so the value is exactly SQL-expressible — DuckDB ships
    ``sha256`` but no ``sha1`` — which lets every hash-derived surface
    (SimHash fingerprints in particular) carry a real oracle:
    ``CAST(concat('0x', substr(sha256(tok), 1, 16)) AS UBIGINT)``."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class TokenHasher:
    """Memoizing token→uint64 hasher. Corpora have heavy token reuse, so the
    per-unique-token sha1 cost amortizes to ~0 per row. One instance per
    actor (state pattern A4, SURVEY.md §2.3)."""

    def __init__(self) -> None:
        self._cache: dict[str, int] = {}

    def hash_tokens(self, tokens: list[str]) -> np.ndarray:
        cache = self._cache
        # C-speed dict pass + single array conversion; the per-element
        # Python loop runs only over cache misses (rare after warmup)
        vals = list(map(cache.get, tokens))
        if None in vals:
            for i, v in enumerate(vals):
                if v is None:
                    t = tokens[i]
                    vals[i] = cache[t] = _token_hash64(t)
        return np.array(vals, dtype=np.uint64)

    def hash_token_array(self, flat) -> np.ndarray:
        """uint64 hashes of a flat Arrow string array WITHOUT materializing
        a Python string per token: dictionary-encode in C, convert only the
        (much smaller) unique-token dictionary to Python for the memoized
        sha256 lookup, then gather hashes by dictionary code. On a code
        corpus the unique:total token ratio is ~1:20, so this removes ~95%
        of the per-token Python-object churn — which is also what contends
        on the allocator when many actors run per node."""
        import pyarrow as pa

        if len(flat) == 0:
            return np.empty(0, dtype=np.uint64)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        enc = flat.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        cache = self._cache
        vals = list(map(cache.get, uniq))
        if None in vals:
            for i, v in enumerate(vals):
                if v is None:
                    t = uniq[i]
                    vals[i] = cache[t] = _token_hash64(t)
        uniq_h = np.array(vals, dtype=np.uint64)
        codes = enc.indices.to_numpy(zero_copy_only=False)
        return uniq_h[codes]


def shingle_hashes(tokens: list[str], k: int, hasher: TokenHasher) -> np.ndarray:
    """k-token-shingle hashes (uint64), possibly with duplicates — MinHash is
    duplicate-invariant (the min over a multiset equals the min over its
    set), so deduplication is skipped. Shingles are hashed by combining
    token hashes with fixed odd multipliers — no string joins."""
    n = len(tokens)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    th = hasher.hash_tokens(tokens)
    return shingle_hashes_from(th, k)


def shingle_hashes_from(th: np.ndarray, k: int) -> np.ndarray:
    """Shingle hashes from a precomputed token-hash array."""
    n = len(th)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if n < k:
        k = n
    acc = th[: n - k + 1].copy()
    for j in range(1, k):
        acc = acc * np.uint64(0x9E3779B97F4A7C15) + th[j : n - k + 1 + j]
    return acc


def shingle_hashes_flat(
    flat: np.ndarray, lens: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batch :func:`shingle_hashes_from`: ``flat`` is the row-major
    concatenation of per-row token-hash arrays, ``lens`` the row lengths,
    ``ks`` the per-row shingle width (lang-dependent). Returns
    ``(flat row-major shingle hashes, per-row shingle counts)``,
    value-identical to the per-row kernel (wrapping uint64 polynomial) —
    the per-row loop over ~10⁶ tiny numpy calls was a measured ~12% of the
    feature UDF; here the polynomial runs as ≤k passes over one flat
    window-start array, with rows shorter than their k folding a shorter
    polynomial exactly like the scalar kernel (its ``k = n`` clamp)."""
    n = len(lens)
    if n == 0 or not len(flat):
        return np.empty(0, np.uint64), np.zeros(n, np.int64)
    lens = np.asarray(lens, np.int64)
    ks = np.broadcast_to(np.asarray(ks, np.int64), lens.shape)
    cnt = np.where(lens == 0, 0, np.maximum(lens - ks + 1, 1))
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, np.uint64), cnt
    offs = np.concatenate(([0], np.cumsum(lens)))
    cum_cnt = np.concatenate(([0], np.cumsum(cnt)))
    out = np.empty(total, np.uint64)
    P = np.uint64(0x9E3779B97F4A7C15)
    T = len(flat)
    for k in np.unique(ks[lens > 0]):
        k = int(k)
        # LONG rows (len ≥ k): fold the polynomial over the WHOLE flat
        # array with contiguous shifted slices (no per-window gather; the
        # windows that straddle row boundaries are computed and discarded),
        # then one gather selects the in-row window starts row-major
        long_rows = np.flatnonzero((ks == k) & (lens >= k))
        if len(long_rows):
            m = T - k + 1
            acc = flat[:m].copy()
            for j in range(1, k):
                acc *= P
                acc += flat[j : m + j]
            lcnt = cnt[long_rows]
            lcum = np.concatenate(([0], np.cumsum(lcnt)))
            starts = (
                np.repeat(offs[long_rows] - lcum[:-1], lcnt)
                + np.arange(int(lcnt.sum()), dtype=np.int64)
            )
            opos = (
                np.repeat(cum_cnt[long_rows] - lcum[:-1], lcnt)
                + np.arange(int(lcnt.sum()), dtype=np.int64)
            )
            out[opos] = acc[starts]
        # SHORT rows (0 < len < k): one whole-row shingle each, folded per
        # distinct length (the scalar kernel's k = n clamp)
        short_rows = np.flatnonzero((ks == k) & (lens > 0) & (lens < k))
        for L in np.unique(lens[short_rows]):
            rows_l = short_rows[lens[short_rows] == L]
            s0 = offs[rows_l]
            acc = flat[s0].copy()
            for j in range(1, int(L)):
                acc = acc * P + flat[s0 + j]
            out[cum_cnt[rows_l]] = acc
    return out, cnt


class MinHasher:
    """MinHash signatures over uint64 shingle sets.

    Universal hashing h_i(x) = (a_i·x + b_i) mod p, p = 2^61−1, with a/b drawn
    from a fixed-seed generator so signatures are identical on every worker.
    One instance per actor; ``signature`` is fully vectorized
    (num_perm × num_shingles numpy broadcast).
    """

    def __init__(self, num_perm: int = 128, seed: int = 1337) -> None:
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.a = rng.randint(1, _MERSENNE_P, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE_P, size=num_perm, dtype=np.uint64)
        self._probe_table_cache: np.ndarray | None = None

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        if len(shingles) == 0:
            return np.full(self.num_perm, np.uint64(_MERSENNE_P), dtype=np.uint64)
        # (num_perm, n) broadcast in uint64 modular arithmetic (mod 2^64 wrap
        # is fine — it stays a deterministic universal-ish family). The final
        # `% p` uses the Mersenne shift-add reduction (p = 2^61−1):
        # y mod p == (y & p) + (y >> 61), minus p if that lands ≥ p —
        # bit-identical to `%` but division-free (~1.4× on this shape).
        p = np.uint64(_MERSENNE_P)
        hv = self.a[:, None] * shingles[None, :]
        hv += self.b[:, None]
        high = hv >> np.uint64(61)
        hv &= p
        hv += high
        np.subtract(hv, p, out=hv, where=hv >= p)
        return hv.min(axis=1)

    def signature_batch(
        self, flat_shingles: np.ndarray, lengths: np.ndarray,
        slab_elems: int = 4096,
    ) -> np.ndarray:
        """Signatures for many docs in one pass: ``flat_shingles`` is the
        concatenation of the docs' shingle arrays, ``lengths`` the doc
        sizes. Bit-identical to per-doc :meth:`signature`; one
        ``minimum.reduceat`` per slab replaces a (num_perm, n) broadcast +
        temp alloc PER DOC. The slab size is deliberately CACHE-sized, not
        memory-sized: (num_perm × slab_elems × 8 B) ≈ 4 MB stays L2/L3
        resident across the ~8 elementwise passes — measured 3× faster
        than a 2M-element slab, whose GB-scale temps are memory-bound.
        Slabs split on doc boundaries; empty docs get the sentinel row (p)."""
        p = np.uint64(_MERSENNE_P)
        n_docs = len(lengths)
        out = np.full((n_docs, self.num_perm), p, dtype=np.uint64)
        nz = np.flatnonzero(lengths > 0)
        if len(nz) == 0:
            return out
        lens_nz = lengths[nz]
        bounds = np.concatenate(([0], np.cumsum(lens_nz)))
        a_col = self.a[:, None]
        b_col = self.b[:, None]
        d0 = 0
        while d0 < len(nz):
            # largest doc range whose shingles fit the slab (≥1 doc always)
            d1 = int(np.searchsorted(bounds, bounds[d0] + slab_elems, "right")) - 1
            d1 = max(d1, d0 + 1)
            seg = flat_shingles[bounds[d0] : bounds[d1]]
            hv = a_col * seg[None, :]
            hv += b_col
            high = hv >> np.uint64(61)
            hv &= p
            hv += high
            np.subtract(hv, p, out=hv, where=hv >= p)
            starts = (bounds[d0:d1] - bounds[d0]).astype(np.intp)
            out[nz[d0:d1]] = np.minimum.reduceat(hv, starts, axis=1).T
            d0 = d1
        return out

    def oph_signature_batch(
        self, flat_shingles: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """One-permutation-hashing signatures (Li et al. 2012): shingles are
        BINNED by their top ⌈log2 num_perm⌉ bits and each lane holds the min
        shingle of its bin — ONE pass over the shingles instead of num_perm
        hash applications (measured 5.6× faster than :meth:`signature_batch`
        at 128 perms, with matching estimator accuracy on the fixture
        classes: mean |est−J| 0.0041 vs classic 0.0044). Empty bins are
        densified by a fixed per-lane probe sequence into the filled bins
        (optimal-densification shape — see the inline comment for why
        nearest-right borrowing is wrong), so two docs with the same
        shingle set always get identical signatures and the per-lane
        collision probability stays ≈ J. All-empty docs (no shingles) keep
        the EMPTY sentinel lane value. Within a bin all members share the top bits, so the min is a
        proper minwise hash of that random partition — lane equality
        estimates Jaccard exactly as the classic family does, and LSH
        banding over lanes is unchanged.

        NOT interchangeable with :meth:`signature_batch` values — a corpus
        must be featurized entirely with one family
        (``PipelineConfig.minhash_mode``, part of the checkpoint cache key).
        """
        num_perm = self.num_perm
        nbits = max(1, (num_perm - 1).bit_length())
        if (1 << nbits) != num_perm:
            raise ValueError("oph mode requires a power-of-two num_perm")
        empty = np.uint64(2**64 - 1)
        n = len(lengths)
        out = np.full(n * num_perm, empty, dtype=np.uint64)
        if len(flat_shingles):
            doc_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)
            bins = (flat_shingles >> np.uint64(64 - nbits)).astype(np.int64)
            np.minimum.at(out, doc_idx * num_perm + bins, flat_shingles)
        out = out.reshape(n, num_perm)
        # Densify empty bins by a per-lane PROBE SEQUENCE into the original
        # bins (optimal-densification shape): lane i's probe positions are a
        # fixed pseudorandom sequence shared by every doc, so two docs with
        # the same fill pattern borrow identically, while ADJACENT empty
        # lanes probe independently. (Nearest-right borrowing is wrong: a
        # contiguous empty run copies ONE source bin into every lane —
        # measured est 0.74 at true J 0.43 on a top-bit-skewed set.)
        has_any = np.asarray(lengths) > 0
        unresolved = (out == empty) & has_any[:, None]
        if not unresolved.any():
            return out  # every bin filled (typical for real docs) — no copy
        res = out.copy()
        probes = self._probe_table_cache
        if probes is None or probes.shape[0] != num_perm:
            probes = self._probe_table_cache = self._oph_probe_table(num_perm)
        # SPARSE probe loop: only ~10% of lanes start empty on real docs and
        # each attempt resolves ~90% of the remainder, so gathering the FULL
        # (n, num_perm) matrix per attempt (the obvious formulation) does
        # ~25× the useful work — measured 282 ms vs ~15 ms per 11.5k-row
        # batch. Track the flat indices of unresolved lanes instead.
        flat_idx = np.flatnonzero(unresolved.ravel())
        rows = flat_idx // num_perm
        lanes = flat_idx - rows * num_perm
        res_flat = res.ravel()
        out_flat = out.ravel()
        for a in range(probes.shape[1]):
            if len(flat_idx) == 0:
                break
            cand = out_flat[rows * num_perm + probes[lanes, a]]
            ok = cand != empty
            res_flat[flat_idx[ok]] = cand[ok]
            miss = ~ok
            flat_idx, rows, lanes = flat_idx[miss], rows[miss], lanes[miss]
        if len(flat_idx):
            # pathological fill fractions (1-2 filled bins): finish with
            # log-step cyclic fill over the resolved matrix
            unresolved = np.zeros(n * num_perm, dtype=bool)
            unresolved[flat_idx] = True
            unresolved = unresolved.reshape(n, num_perm)
            step = 1
            while step < num_perm and unresolved.any():
                y = np.roll(res, -step, axis=1)
                take = unresolved & (y != empty)
                res[take] = y[take]
                unresolved &= ~take
                step *= 2
        return res

    @staticmethod
    def _oph_probe_table(num_perm: int, attempts: int = 24) -> np.ndarray:
        """Fixed (num_perm, attempts) probe positions for OPH densification:
        splitmix64 of (lane, attempt), identical on every worker."""
        lanes = np.arange(num_perm, dtype=np.uint64)[:, None]
        att = np.arange(attempts, dtype=np.uint64)[None, :]
        h = lanes * np.uint64(0x9E3779B97F4A7C15) + att * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(31)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(29)
        return (h % np.uint64(num_perm)).astype(np.intp)

    def band_keys(self, sig: np.ndarray, bands: int) -> list[str]:
        """LSH band keys: sha1 of each band's bytes, 12 hex chars."""
        r = self.num_perm // bands
        out = []
        for b in range(bands):
            digest = hashlib.sha1(sig[b * r : (b + 1) * r].tobytes()).hexdigest()[:12]
            out.append(f"{b:02d}:{digest}")
        return out


def minhash_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Unbiased Jaccard estimate from two signatures."""
    return float(np.mean(sig_a == sig_b))


class SimHasher:
    """64-bit SimHash over token hashes (near-dup by Hamming distance)."""

    def __init__(self) -> None:
        self._hasher = TokenHasher()
        self._bitcols = np.uint64(1) << np.arange(64, dtype=np.uint64)

    def simhash(self, tokens: list[str]) -> int:
        if not tokens:
            return 0
        th = self._hasher.hash_tokens(tokens)
        # bits matrix (n, 64) in {-1, +1}, summed per column
        bits = ((th[:, None] & self._bitcols[None, :]) != 0).astype(np.int32)
        votes = bits.sum(axis=0) * 2 - len(tokens)
        return int((self._bitcols[votes > 0]).sum())

    def simhash_batch(self, flat_hashes: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Vectorized simhash over many docs: ``flat_hashes`` is the
        concatenation of the docs' token-hash arrays, ``lengths`` the doc
        sizes. One 64-column reduceat pass replaces the per-doc matrices;
        bit-identical to :meth:`simhash`."""
        n_docs = len(lengths)
        out = np.zeros(n_docs, dtype=np.uint64)
        nz = lengths > 0
        if not nz.any():
            return out
        lens_nz = lengths[nz]
        starts = np.concatenate(([0], np.cumsum(lens_nz)[:-1]))
        votes = np.empty((len(lens_nz), 64), dtype=np.int64)
        for j in range(64):
            # uint64 column stays uint64 through reduceat (doc sums can't
            # overflow); the int64 cast happens on the 1-per-doc assignment,
            # not per token — a per-bit astype here costs ~40% of the pass
            col = (flat_hashes >> np.uint64(j)) & np.uint64(1)
            votes[:, j] = np.add.reduceat(col, starts)
        votes = votes * 2 - lens_nz[:, None]
        h = (
            (votes > 0).astype(np.uint64)
            << np.arange(64, dtype=np.uint64)[None, :]
        ).sum(axis=1, dtype=np.uint64)
        out[nz] = h
        return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def hamming64_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between two uint64 arrays."""
    x = a ^ b
    cnt = np.zeros(x.shape, dtype=np.int64)
    while True:
        nz = x != 0
        if not nz.any():
            break
        cnt[nz] += (x[nz] & np.uint64(1)).astype(np.int64)
        x = x >> np.uint64(1)
    return cnt


def rolling_fingerprint(text: str, base: int = 1000003, mod: int = (1 << 61) - 1) -> int:
    """Polynomial rolling hash of the whole string (document fingerprint),
    folded over Unicode CODE POINTS (not utf-8 bytes): Horner's rule
    h = (h*base + ord(ch)) % (2^61-1). The code-point definition keeps the
    value independent of the storage encoding and makes it exactly
    SQL-expressible (DuckDB ``list_reduce`` over ``unicode()`` with HUGEINT
    intermediates), so the query surface carries a real oracle."""
    h = 0
    for ch in text:
        h = (h * base + ord(ch)) % mod
    return h
