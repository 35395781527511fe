"""Hashing kernel tests: sha256 fixed vectors (the per-row invariant),
MinHash accuracy/determinism, SimHash locality."""

import numpy as np

from localhost_address_matching_ray.functions.hashing import (
    MinHasher,
    SimHasher,
    TokenHasher,
    hamming64,
    hamming64_arrays,
    minhash_jaccard,
    rolling_fingerprint,
    row_id_array,
    sha256_hex,
    sha256_hex_array,
    shingle_hashes,
)


def test_sha256_fixed_vectors():
    # NIST test vector + empty string — the content_sha256 invariant
    assert sha256_hex("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert sha256_hex("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert sha256_hex_array(["abc", ""]) == [sha256_hex("abc"), sha256_hex("")]


def test_sha256_hex_arrow_matches_list_path():
    """Hashing straight from the value buffer, for string and large_string
    arrays, sliced or not, equals hashing the Python strings."""
    import pyarrow as pa

    from localhost_address_matching_ray.functions.hashing import sha256_hex_arrow

    texts = ["abc", "", "café\x1c", "x" * 1000]
    for typ in (pa.string(), pa.large_string()):
        arr = pa.array(texts, typ)
        assert sha256_hex_arrow(arr) == sha256_hex_array(texts)
        assert sha256_hex_arrow(arr.slice(1, 2)) == sha256_hex_array(texts[1:3])
        assert sha256_hex_arrow(pa.chunked_array([arr, arr])) == sha256_hex_array(texts * 2)


def test_row_id_deterministic():
    a = row_id_array(["r"], ["p"], ["c"])
    b = row_id_array(["r"], ["p"], ["c"])
    assert a == b and len(a[0]) == 16
    assert row_id_array(["r"], ["p"], ["c2"]) != a


def test_minhash_estimates_jaccard():
    rng = np.random.RandomState(7)
    universe = [f"tok{i}" for i in range(2000)]
    a = set(rng.choice(universe, 400, replace=False))
    b = set(a)
    drop = rng.choice(sorted(a), 80, replace=False)
    b.difference_update(drop)
    b.update(f"new{i}" for i in range(80))
    true_j = len(a & b) / len(a | b)

    th = TokenHasher()
    mh = MinHasher(num_perm=256)
    sig_a = mh.signature(shingle_hashes(sorted(a), 1, th))
    sig_b = mh.signature(shingle_hashes(sorted(b), 1, th))
    est = minhash_jaccard(sig_a, sig_b)
    assert abs(est - true_j) < 0.08


def test_minhash_deterministic_across_instances():
    th1, th2 = TokenHasher(), TokenHasher()
    s1 = MinHasher().signature(shingle_hashes(["a", "b", "c", "d"], 2, th1))
    s2 = MinHasher().signature(shingle_hashes(["a", "b", "c", "d"], 2, th2))
    assert (s1 == s2).all()


def test_minhash_band_keys():
    mh = MinHasher(num_perm=128)
    sig = mh.signature(shingle_hashes(["x", "y", "z"], 2, TokenHasher()))
    keys = mh.band_keys(sig, 16)
    assert len(keys) == 16 and len(set(keys)) == 16  # band index prefixes differ


def test_simhash_locality():
    sh = SimHasher()
    base = [f"w{i}" for i in range(200)]
    near = list(base)
    near[3] = "changed"
    far = [f"v{i}" for i in range(200)]
    h0, h1, h2 = sh.simhash(base), sh.simhash(near), sh.simhash(far)
    assert hamming64(h0, h1) < hamming64(h0, h2)


def test_hamming64_arrays_matches_scalar():
    rng = np.random.RandomState(3)
    a = rng.randint(0, 2**63, 50, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, 2**63, 50, dtype=np.int64).astype(np.uint64)
    vec = hamming64_arrays(a, b)
    for i in range(50):
        assert vec[i] == hamming64(int(a[i]), int(b[i]))


def test_rolling_fingerprint_deterministic():
    assert rolling_fingerprint("hello world") == rolling_fingerprint("hello world")
    assert rolling_fingerprint("hello world") != rolling_fingerprint("hello worle")


def test_rolling_fingerprint_golden_vectors():
    """Hard-coded expected values (computed independently via the modular
    power-sum form sum(cp_i * base^(n-1-i)) mod p) pin the polynomial's base,
    modulus, character order and code-point (not byte) folding: a
    sign/width/order bug changes every one of these."""
    assert rolling_fingerprint("") == 0
    assert rolling_fingerprint("a") == 97          # single char: h = ord('a')
    assert rolling_fingerprint("ab") == 97000389   # 97*1000003 + 98
    assert rolling_fingerprint("hello world") == 2083453854010787712
    # non-ASCII: one code point (233), NOT two utf-8 bytes — pins the
    # code-point definition that the DuckDB oracle (unicode()) shares
    assert rolling_fingerprint("héllo") == 1522215615417397270
    assert rolling_fingerprint("x" * 100) == 2223964726378295274  # > window/word widths


def test_rolling_fingerprint_matches_independent_form():
    """Cross-check against the closed-form Horner expansion for arbitrary
    strings — an independent implementation, not a re-run of the kernel."""
    base, mod = 1000003, (1 << 61) - 1

    def indep(text: str) -> int:
        n = len(text)
        return sum(ord(c) * pow(base, n - 1 - i, mod)
                   for i, c in enumerate(text)) % mod

    for s in ["", "a", "polynomial", "héllo wörld", "x" * 257, "\n\t mixed 123"]:
        assert rolling_fingerprint(s) == indep(s)


def test_shingle_short_doc():
    th = TokenHasher()
    # fewer tokens than k → one shingle over all tokens, not empty
    assert len(shingle_hashes(["a", "b"], 5, th)) == 1
    assert len(shingle_hashes([], 3, th)) == 0


def test_oph_signature_batch_properties():
    """OPH signatures: order-invariant over the shingle multiset, empty-doc
    sentinel, estimator tracks exact Jaccard, power-of-two guard."""
    import numpy as np
    import pytest

    from localhost_address_matching_ray.functions.hashing import MinHasher

    mh = MinHasher(num_perm=128)
    rng = np.random.RandomState(5)
    base = rng.randint(0, 2**63, size=400).astype(np.uint64)
    perm = rng.permutation(base)
    sigs = mh.oph_signature_batch(
        np.concatenate([base, perm, np.empty(0, np.uint64)]),
        np.array([len(base), len(perm), 0]),
    )
    assert (sigs[0] == sigs[1]).all()          # set semantics
    assert (sigs[2] == np.uint64(2**64 - 1)).all()  # empty sentinel

    # estimator sanity across overlap levels
    for frac in (0.9, 0.6, 0.3):
        n_shared = int(len(base) * frac)
        other = np.concatenate([
            base[:n_shared],
            rng.randint(0, 2**63, size=len(base) - n_shared).astype(np.uint64),
        ])
        s = mh.oph_signature_batch(
            np.concatenate([base, other]), np.array([len(base), len(other)])
        )
        sa, sb = set(base.tolist()), set(other.tolist())
        j = len(sa & sb) / len(sa | sb)
        est = float((s[0] == s[1]).mean())
        assert abs(est - j) < 0.12, (frac, j, est)

    with pytest.raises(ValueError):
        MinHasher(num_perm=100).oph_signature_batch(base, np.array([len(base)]))


def test_minhash_mode_validation_and_fallback():
    """Config rejects typo'd minhash_mode; non-power-of-two num_perm under
    OPH resolves to the classic family everywhere (kernel choice and
    checkpoint version derive from the same property) instead of crashing
    a worker mid-extract."""
    import numpy as np
    import pyarrow as pa
    import pytest

    from localhost_address_matching_ray.config import PipelineConfig
    from localhost_address_matching_ray.stages.feature_stage import FeatureExtractor

    with pytest.raises(ValueError):
        PipelineConfig(minhash_mode="OPH")

    cfg = PipelineConfig(num_perm=96)  # oph requested, not power of two
    assert cfg.minhash_mode == "oph"
    assert cfg.effective_minhash_mode == "classic"
    assert PipelineConfig(num_perm=128).effective_minhash_mode == "oph"

    fx = FeatureExtractor(cfg)
    out = fx(pa.table({
        "row_id": ["a" * 16], "content": ["x y z w"],
        "lang": ["python"], "stem": ["m"],
    }))
    assert len(out["sig"][0].as_py()) == 96 * 8  # classic kernel ran


def test_oph_sparse_densify_matches_dense_reference():
    """The sparse probe loop (flat unresolved indices) must be value-identical
    to the dense formulation it replaced: per attempt, every unresolved lane
    borrows from the ORIGINAL binned matrix at its probe position, then the
    log-step cyclic fill finishes pathological fills. Covers empty docs,
    1-2-shingle docs (probe loop falls through to log-step), and dense docs."""
    import numpy as np

    from localhost_address_matching_ray.functions.hashing import MinHasher

    mh = MinHasher(num_perm=128)
    num_perm, nbits = 128, 7
    empty = np.uint64(2**64 - 1)
    rng = np.random.RandomState(17)
    lengths = np.array([0, 1, 2, 3, 5, 128, 300, 1, 0, 64, 7, 2000], np.int64)
    flat = rng.randint(0, 2**63, size=int(lengths.sum())).astype(np.uint64)

    got = mh.oph_signature_batch(flat, lengths)

    # dense reference (the pre-optimization algorithm, verbatim semantics)
    n = len(lengths)
    out = np.full(n * num_perm, empty, dtype=np.uint64)
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), lengths)
    bins = (flat >> np.uint64(64 - nbits)).astype(np.int64)
    np.minimum.at(out, doc_idx * num_perm + bins, flat)
    out = out.reshape(n, num_perm)
    unresolved = (out == empty) & (lengths > 0)[:, None]
    res = out.copy()
    probes = mh._oph_probe_table(num_perm)
    for a in range(probes.shape[1]):
        if not unresolved.any():
            break
        cand = out[:, probes[:, a]]
        take = unresolved & (cand != empty)
        res[take] = cand[take]
        unresolved &= ~take
    step = 1
    while step < num_perm and unresolved.any():
        y = np.roll(res, -step, axis=1)
        take = unresolved & (y != empty)
        res[take] = y[take]
        unresolved &= ~take
        step *= 2

    assert np.array_equal(got, res)


def test_u64_bucket_deterministic_and_in_range():
    from localhost_address_matching_ray.functions.hashing import u64_bucket

    keys = np.array([0, 1, 2**40, -5, 7, 7], dtype=np.int64)
    b = u64_bucket(keys, 16)
    assert b.dtype == np.int32
    assert ((b >= 0) & (b < 16)).all()
    assert b[4] == b[5]  # equal keys, equal bucket — the partitioning invariant
    assert (u64_bucket(keys, 16) == b).all()


def test_shingle_hashes_flat_matches_per_row():
    """Batch shingle kernel == scalar kernel per row, including short rows
    (len < k → one whole-row shingle), empty rows, and mixed per-row k."""
    import numpy as np

    from localhost_address_matching_ray.functions.hashing import (
        shingle_hashes_flat,
        shingle_hashes_from,
    )

    rng = np.random.RandomState(21)
    rows = [rng.randint(0, 2**63, size=rng.randint(0, 12)).astype(np.uint64)
            for _ in range(300)]
    rows += [np.empty(0, np.uint64), rng.randint(0, 2**63, 1).astype(np.uint64)]
    ks = rng.randint(1, 7, size=len(rows)).astype(np.int64)
    flat = np.concatenate(rows) if rows else np.empty(0, np.uint64)
    lens = np.array([len(r) for r in rows], np.int64)
    got_vals, got_cnt = shingle_hashes_flat(flat, lens, ks)
    exp = [shingle_hashes_from(r, int(k)) for r, k in zip(rows, ks)]
    assert got_cnt.tolist() == [len(e) for e in exp]
    assert np.array_equal(got_vals, np.concatenate(exp))
