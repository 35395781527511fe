"""Pipeline configuration.

The analog of the reference's generator/normalizer config surface
(``data/synth/config/groupA2E_config.py:4-66``, ``normalize_address.py:29-49``,
NER CLI flags ``ner_address_parser.py:156-166``): one plain dataclass that
carries every knob a stage needs, so stages stay pure functions of
(batch, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class LangConfig:
    """Per-language feature config — the gazetteer analog (SURVEY.md §1.1).

    The reference constrains district lookup by province
    (``static_parser.py:67-72``); we constrain shingling/stop-token rules by
    ``lang`` the same hierarchical way.
    """

    lang: str
    comment_styles: tuple[str, ...] = ()
    stop_tokens: tuple[str, ...] = ()
    shingle_k: int = 3


#: The broadcast dimension table (FIXTURES.md §5). Small by construction —
#: it rides into actor state via ``fn_constructor_args``, never shuffled.
DEFAULT_LANG_CONFIGS: dict[str, LangConfig] = {
    "python": LangConfig("python", ("#",), ("def", "return", "import", "from", "pass"), 3),
    "javascript": LangConfig("javascript", ("//", "/*"), ("function", "return", "const", "var", "let"), 3),
    "java": LangConfig("java", ("//", "/*"), ("public", "private", "static", "void", "return"), 3),
    "go": LangConfig("go", ("//",), ("func", "return", "package", "import", "var"), 3),
    "c": LangConfig("c", ("//", "/*"), ("int", "return", "void", "static", "include"), 3),
    "markdown": LangConfig("markdown", (), (), 3),
}


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end linkage pipeline knobs.

    Defaults are sized for the single-node sandbox but chosen to hold at
    cluster scale: batch sizes bound per-task heap, ``max_block_rows`` bounds
    the O(k²) in-block pair blowup, and hot keys above it are salted
    (north_rule: "explicit salting of hot keys").
    """

    # --- MinHash / LSH ---
    num_perm: int = 128          # MinHash signature length
    minhash_mode: str = "oph"    # "oph" = one-permutation hashing (one pass
                                 # over shingles, 5.6× the classic kernel,
                                 # matching estimator accuracy — measured in
                                 # hashing.oph_signature_batch's docstring);
                                 # "classic" = num_perm universal hashes.
                                 # Families are NOT value-compatible: the
                                 # mode is part of the feature cache key and
                                 # must not change mid-corpus
    lsh_bands: int = 16          # bands (rows_per_band = num_perm // lsh_bands).
                                 # r=8 keeps band blocks tight on vocab-
                                 # sharing corpora (r=4 flooded candidates at
                                 # the 1M soak); its ~9% miss on 0.78-est
                                 # pairs is covered by the stem channel's
                                 # in-block sig screening (screen_min_matches)
    shingle_k: int = 3           # token-shingle width

    # --- blocking / skew ---
    max_block_rows: int = 512    # blocks above this are salted into sub-blocks
    candidate_window: int = 16   # candidate pairs per row per block = the
                                 # following `window` rows in sigp-sorted
                                 # order (all pairs when block ≤ window+1);
                                 # offset 1 is the spanning chain, so the
                                 # window bounds EXTRA edges, never
                                 # connectivity. Bounds per-block pairs at
                                 # k·window — the O(k²) guard by construction.
                                 # Also the per-row degree cap of the large-
                                 # block sig screen below.
    screen_degree_cap: int = 4   # screened partners kept per row: the screen
                                 # exists to catch the RARE far-similar pair
                                 # in a diverse block; in near-clique blocks
                                 # it only adds redundant edges, so its cap
                                 # is much tighter than the window
    screen_min_matches: int = 5  # large (>window+1) blocks additionally run
                                 # a vectorized all-pairs screen over the 16
                                 # folded sig bytes carried in the block row:
                                 # pairs matching ≥ this many of 16 become
                                 # candidates (first `candidate_window` per
                                 # row). 5/16 ≈ est 0.31: a 0.6-est pair
                                 # fails w.p. 6e-3, a 0.78-est pair 5e-5,
                                 # while unrelated content (est ~0.1) passes
                                 # w.p. 2e-3 — the stem-channel recall that
                                 # pure windowing lost (observed at the 1M
                                 # soak: an est-0.78 rename pair >16 apart
                                 # in a diverse stem block)
    salt_buckets: int = 8        # sub-blocks per hot key

    # --- scoring / clustering ---
    verify_mode: str = "estimate"
    # "estimate" (default, the 100-TB scale path): candidate pairs are scored
    #   by MinHash-signature byte equality — the blocking shuffle and the
    #   verify fetch ship 128 B/row regardless of document size.
    # "exact": the classic LSH-then-exact-verify shape — candidates still
    #   come from the LSH/stem blocking, but each pair is verified by EXACT
    #   token-set Jaccard over the normalized content's token-hash sets
    #   (sorted-unique uint64 per row, intersected with one vectorized
    #   lexsort pass per batch — the stages/docs_ops.py kernel). Maximum
    #   precision, SQL-expressible edge predicate (the corpus_linkage_clusters
    #   oracle), at the cost of shipping token sets instead of signatures.
    #   Above verify_broadcast_max_rows involved rows the fetch switches to
    #   partitioned hash joins of binary-packed token sets (the same
    #   candidates-then-verify shape as estimate mode's join path).
    jaccard_threshold: float = 0.60   # shingle-Jaccard edge threshold (non-dups score ~0, minor edits ~0.7+)
    stem_sim_threshold: float = 0.90  # Jaro-Winkler path-stem assist threshold:
                                      # pairs below jaccard_threshold but at/above
                                      # rename_jaccard_floor become edges when
                                      # their stems' JW similarity passes this
    rename_jaccard_floor: float = 0.45  # content floor for the stem-JW assist
                                        # (hard negatives estimate ~1/256/perm;
                                        # 0.45 keeps them far out of reach)

    # --- pipeline shape ---
    collapse_exact_first: bool = False
    # True: groupby(content_sha256_norm) collapses exact dups to reps before
    #   the feature stage — saves feature compute on high-dup corpora at the
    #   price of one full-content hash join.
    # False (default): exact dups ride the normal LSH path (identical sigs ⇒
    #   same bands ⇒ score 1.0 edges) — content never enters a shuffle; the
    #   pipeline's only all-to-all ops carry ids + 128-byte sigs.

    # --- scale-adaptive machinery ---
    census_sample_div: int = 4        # census samples 1/div of rows when it
                                      # only feeds hot-key detection (a
                                      # >max_block key still shows up at
                                      # ~size/div); unused when
                                      # singleton_suppression forces an
                                      # exact census
    singleton_suppression: bool = True  # exact census + broadcast multi-key
                                        # set: singleton block emissions
                                        # never enter the blocking shuffle
    driver_cc_max_edges: int = 30_000_000  # ≤ → driver connected components
                                           # (vectorized min-label propagation,
                                           # ~1 s / 2.4M edges; ~500 MB at the
                                           # ceiling)
    broadcast_components_max: int = 2_000_000  # ≤ → broadcast cluster map
    verify_broadcast_max_rows: int = 2_000_000  # candidate-involved rows ≤ →
                                                # broadcast sig fetch; above →
                                                # partitioned hash-join fetch
    exact_broadcast_max_tokens: int = 64_000_000  # verify_mode="exact" only:
                                                  # the broadcast bundle holds
                                                  # whole token SETS (8 B each,
                                                  # 64M ≈ 512 MB flat), so the
                                                  # row ceiling alone — tuned
                                                  # for 128 B/row signatures —
                                                  # could admit a multi-GB
                                                  # bundle; above this token
                                                  # volume the fetch goes via
                                                  # partitioned hash joins

    # --- execution ---
    batch_size: int = 4096
    feature_concurrency: int = 4      # feature parallelism floor: a
                                      # source of fewer than 4 × this many
                                      # blocks is split to at least that
                                      # many, unless link_corpus re-plans
                                      # it as one task per Parquet row
                                      # group
    checkpoint_dir: str | None = None # None = no checkpointing
    pipeline_version: str = "v1"      # invalidates stale checkpoints (map.py:175 lesson)

    lang_configs: dict[str, LangConfig] = field(
        default_factory=lambda: dict(DEFAULT_LANG_CONFIGS)
    )
    #: user regex-rewrite hook — ordered (pattern, replacement) pairs applied
    #: at the end of content normalization AND before feature shingling (the
    #: ``extra_rules`` analog, normalize_address.py:49,234-235). Load
    #: lang_configs from a dimension file with sources.dimensions.
    extra_rules: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.verify_mode not in ("estimate", "exact"):
            raise ValueError(
                f"verify_mode must be 'estimate' or 'exact', got "
                f"{self.verify_mode!r}"
            )
        if self.minhash_mode not in ("oph", "classic"):
            raise ValueError(
                f"minhash_mode must be 'oph' or 'classic', got "
                f"{self.minhash_mode!r} — a typo here would silently pick a "
                f"signature family and fork the checkpoint namespace"
            )

    @property
    def effective_minhash_mode(self) -> str:
        """The family actually used: OPH bins are a bit slice, so it needs a
        power-of-two ``num_perm``; other widths run classic. Resolved HERE
        so the feature stage and the checkpoint stage version can never
        disagree about which family produced the signatures."""
        if self.minhash_mode == "oph" and self.num_perm & (self.num_perm - 1) == 0:
            return "oph"
        return "classic"

    @property
    def rows_per_band(self) -> int:
        return self.num_perm // self.lsh_bands


def bucket_width(floor: int = 64, per_cpu: int = 4) -> int:
    """Cluster-relative width of the hash-bucket fold
    (``stages.buckets.bucket_fold``; also the partition count of a few
    registry repartitions and joins): a fixed 64 saturates a 32-CPU box but
    caps a multi-node cluster at 64 concurrent fold tasks, so the width is
    ``max(floor, per_cpu × CPUs)``. Bucket assignment only partitions work —
    any width yields identical results because every key lands wholly in
    one bucket. The fold calls this on the DRIVER when it is built, after
    the session is up, and captures the int in its tag closure; before
    ``ray.init()`` it returns the floor."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    except Exception:
        cpus = 0
    return max(floor, per_cpu * cpus)


def object_store_args() -> dict:
    """Extra ``ray.init`` arguments for a LOCAL session under this process's
    file-size limit (``ulimit -f``). The object store is one file in
    /dev/shm that the raylet sizes when it starts; past the limit SIGXFSZ
    kills the raylet, and ``ray.init`` then fails after a silent 30 s. With
    a finite limit the store is capped at 80% of it (or Ray's own default
    size, 30% of available memory, when that is smaller); with no limit
    this returns no arguments and Ray's default stands."""
    import resource

    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    if limit == resource.RLIM_INFINITY:
        return {}
    store = int(0.8 * limit)
    try:
        from ray._private import ray_constants
        from ray._private.utils import estimate_available_memory

        store = min(store, int(
            estimate_available_memory()
            * ray_constants.DEFAULT_OBJECT_STORE_MEMORY_PROPORTION
        ))
    except Exception:  # private Ray API moved: the cap alone still holds
        pass
    return {"object_store_memory": store}
