"""Transitive clustering — union-find over the thresholded edge set.

The reference has no clustering (its ``matching/`` package is a 0-byte
stub); this implements the north_rule's "distributed union-find
(hash-partitioned iterative star-contraction over Dataset groupby)".

Two scale-adaptive paths, chosen by edge count (``PipelineConfig.
driver_cc_max_edges``):

* **small (≤ threshold)** — collect the edge list (narrow: two ids per row)
  and run path-compressed union-find on the driver. The Ray guide blesses
  this exactly when "the candidate set is provably small"; after exact-dup
  collapse + blocking, edges ≈ O(duplicates), orders of magnitude below the
  corpus.
* **large** — iterated min-label propagation over Datasets: per round one
  hash-partitioned join (neighbor labels onto the symmetric edge list) + one
  ``groupby(node).aggregate(Min(label), Max(old))``. ``Max(old)`` recovers
  each node's previous label (aggregates skip nulls), so the exact
  per-round change count is a dataset aggregate — convergence detection
  without driver state (SURVEY.md §7.4). Labels start at min(self,
  neighbors), so stars/cliques converge in 1-2 verification rounds.

Either path returns labels = min row_id of the component — deterministic
for golden compares (O4 lesson, ``map.py:248-268``).
"""

from __future__ import annotations

import logging

import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Max, Min

from localhost_address_matching_ray.functions.arrowbuf import (
    hex16_col_to_u64,
    s16_to_arrow,
    sbytes_to_arrow,
    u64_to_hex16,
)
from localhost_address_matching_ray.stages.broadcast import cached_get

logger = logging.getLogger(__name__)


#: Join aggregator actors must not starve the pool: fractional CPUs, and the
#: partition count stays well under the session's CPU count.
_JOIN_ARGS = {"aggregator_ray_remote_args": {"num_cpus": 0.25}}


def _default_partitions() -> int:
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(2, min(16, cpus))


def _partitions_for(n_rows: int, cap: int | None = None) -> int:
    """Join partition count sized to the data: small tables collapse to one
    partition (Ray's hash-join chokes on empty partitions — an empty block
    loses its schema and pyarrow can't find the key field), large tables cap
    at the session default."""
    return max(1, min(cap or _default_partitions(), n_rows // 500 + 1))


def _collect(ds: ray.data.Dataset, schema: pa.Schema) -> pa.Table:
    """Driver-side collect that tolerates the schema-less empty blocks Ray's
    shuffle can emit (an empty partition loses its columns)."""
    tables = [
        t for t in ray.get(ds.to_arrow_refs())
        if t.num_rows > 0 and set(schema.names) <= set(t.column_names)
    ]
    if not tables:
        return schema.empty_table()
    return pa.concat_tables([t.select(schema.names) for t in tables])


def _empty_clusters() -> ray.data.Dataset:
    return ray.data.from_arrow(pa.table({
        "row_id": pa.array([], pa.string()),
        "cluster_label": pa.array([], pa.string()),
    }))


def _min_label_components(ui: "np.ndarray", vi: "np.ndarray", n_ids: int) -> "np.ndarray":
    """Vectorized min-label propagation with pointer jumping over index
    arrays — converges in O(log diameter) numpy passes. Returns lab[i] =
    index of the minimum id in i's component (ids sorted ⇒ min index IS the
    min id)."""
    import numpy as np

    lab = np.arange(n_ids)
    while True:
        m = np.minimum(lab[ui], lab[vi])
        nl = lab.copy()
        np.minimum.at(nl, ui, m)
        np.minimum.at(nl, vi, m)
        while True:  # pointer jumping to the current root
            nn = nl[nl]
            if np.array_equal(nn, nl):
                break
            nl = nn
        if np.array_equal(nl, lab):
            break
        lab = nl
    return lab


def _contract_edge_blocks(edges: ray.data.Dataset) -> ray.data.Dataset:
    """PARALLEL pre-contraction: each edge block is replaced by the star
    forest (node → block-local min-label) of its own connectivity — any
    subset of edges can be swapped for a spanning structure without
    changing global components, so this is exact. Shrinks a block of E
    edges to ≤ distinct-nodes−1, moving that work off the driver's serial
    union-find (round-3 profile: CC was a 2.2×/4 scaling term) and onto
    the worker pool. Hex fast path only; non-hex blocks pass through
    unchanged (the driver fallback handles them)."""
    import numpy as np

    def contract(t: pa.Table) -> pa.Table:
        if t.num_rows < 2:
            return t.select(["u", "v"])
        uk = hex16_col_to_u64(t["u"])
        vk = hex16_col_to_u64(t["v"]) if uk is not None else None
        if uk is None or vk is None:
            return t.select(["u", "v"])
        n = len(uk)
        all_ids, inv = np.unique(np.concatenate([uk, vk]), return_inverse=True)
        lab = _min_label_components(inv[:n], inv[n:], len(all_ids))
        keep = lab != np.arange(len(all_ids))
        hexs = u64_to_hex16(all_ids)
        # buffer-built strings: this path only runs above driver_cc_max_edges
        # (30M), where np.char.decode's per-value cost (~1 s / 1.6M values)
        # would eat the contraction's whole margin
        return pa.table({
            "u": s16_to_arrow(hexs[lab[keep]]),
            "v": s16_to_arrow(hexs[keep]),
        })

    # whole-block batches: contraction quality grows with batch size
    return edges.select_columns(["u", "v"]).map_batches(
        contract, batch_format="pyarrow", batch_size=None
    )


def _driver_union_find(edges: ray.data.Dataset) -> ray.data.Dataset:
    """Connected components on the collected (narrow) edge list.

    Fast path (16-hex row_ids): fully VECTORIZED min-label propagation with
    pointer jumping over index arrays — converges in O(log diameter)
    numpy passes (~1 s at 2.4M edges, vs ~10 s for a per-edge Python
    union-find over string keys, which remains as the fallback for non-hex
    ids). Sorted-unique index order == id order, so the propagated min index
    IS the min row_id — the deterministic label convention for free."""
    import numpy as np

    tbl = _collect(
        edges, pa.schema([("u", pa.string()), ("v", pa.string())])
    ).combine_chunks()
    uk = hex16_col_to_u64(tbl["u"])
    vk = hex16_col_to_u64(tbl["v"]) if uk is not None else None
    if uk is not None and vk is not None:
        import pandas as pd

        n = len(uk)
        # hash-based factorize beats np.unique's full argsort ~3× at
        # millions of edges; sort the (small) unique set afterwards and
        # remap codes so sorted-index order == id order still holds
        codes, uniq = pd.factorize(np.concatenate([uk, vk]), sort=False)
        order = np.argsort(uniq, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        all_ids = uniq[order]
        inv = rank[codes]
        lab = _min_label_components(inv[:n], inv[n:], len(all_ids))
        hexs = u64_to_hex16(all_ids)  # one hexlify, no per-node format()
        return ray.data.from_arrow(pa.table({
            "row_id": s16_to_arrow(hexs),
            "cluster_label": s16_to_arrow(np.ascontiguousarray(hexs[lab])),
        }))
    u = tbl["u"].to_pylist()
    v = tbl["v"].to_pylist()
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(u, v):
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by label order keeps the min id as the root
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb
    nodes = list(parent.keys())
    labels = [find(x) for x in nodes]
    return ray.data.from_arrow(pa.table({
        "row_id": pa.array(nodes, pa.string()),
        "cluster_label": pa.array(labels, pa.string()),
    }))


def _distributed_label_prop(
    edges: ray.data.Dataset, max_iters: int, num_partitions: int | None
) -> ray.data.Dataset:
    n_edges = edges.count()
    num_partitions = num_partitions or _partitions_for(2 * n_edges)

    def symmetrize(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": pa.concat_arrays([batch["u"].combine_chunks(), batch["v"].combine_chunks()]),
            "dst": pa.concat_arrays([batch["v"].combine_chunks(), batch["u"].combine_chunks()]),
        })

    msgs = edges.select_columns(["u", "v"]).map_batches(
        symmetrize, batch_format="pyarrow"
    ).materialize()

    # initialize each node's label to min(self, neighbors) — one aggregate
    # replaces the first propagation round
    labels = (
        msgs.groupby("src").aggregate(Min("dst", alias_name="_min_nbr"))
        .map_batches(
            lambda t: pa.table({
                "node": t["src"],
                "label": pa.compute.min_element_wise(t["src"], t["_min_nbr"]),
            }),
            batch_format="pyarrow",
        )
        .materialize()
    )

    for it in range(max_iters):
        nbr = msgs.join(
            labels, join_type="inner", num_partitions=num_partitions,
            on=("src",), right_on=("node",), **_JOIN_ARGS,
        ).map_batches(
            lambda t: pa.table({
                "node": t["dst"],
                "label": t["label"],
                "old": pa.nulls(t.num_rows, pa.string()),
            }),
            batch_format="pyarrow",
        )
        self_rows = labels.map_batches(
            lambda t: pa.table({"node": t["node"], "label": t["label"], "old": t["label"]}),
            batch_format="pyarrow",
        )
        agg = nbr.union(self_rows).groupby("node").aggregate(
            Min("label", alias_name="label"), Max("old", alias_name="old")
        ).materialize()
        changed = int(agg.map_batches(
            lambda t: pa.table({"c": [
                pa.compute.sum(pa.compute.cast(
                    pa.compute.not_equal(t["label"], t["old"]), pa.int64()
                )).as_py() or 0
            ]}),
            batch_format="pyarrow",
        ).sum("c") or 0)
        labels = agg.select_columns(["node", "label"])
        # pointer jumping: label(node) ← label(label(node)) — contracts label
        # chains geometrically, so convergence is O(log diameter) rounds
        # instead of O(diameter) (the star-contraction shortcut)
        lab_as_parent = labels.map_batches(
            lambda t: pa.table({"pnode": t["node"], "plabel": t["label"]}),
            batch_format="pyarrow",
        )
        labels = labels.join(
            lab_as_parent, join_type="left_outer", num_partitions=num_partitions,
            on=("label",), right_on=("pnode",), **_JOIN_ARGS,
        ).map_batches(
            lambda t: pa.table({
                "node": t["node"],
                "label": pa.compute.coalesce(t["plabel"], t["label"]),
            }),
            batch_format="pyarrow",
        ).materialize()
        logger.info("connected_components iter %d: %d labels changed", it, changed)
        if changed == 0:
            break
    else:
        logger.warning("connected_components: max_iters=%d hit before fixpoint", max_iters)

    return labels.map_batches(
        lambda t: pa.table({"row_id": t["node"], "cluster_label": t["label"]}),
        batch_format="pyarrow",
    )


def connected_components(
    edges: ray.data.Dataset,
    max_iters: int = 25,
    num_partitions: int | None = None,
    driver_max_edges: int = 5_000_000,
) -> ray.data.Dataset:
    """Edges ``(u, v)`` → ``(row_id, cluster_label)`` for every node that
    appears in an edge (singletons are absent; callers fill them in)."""
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return _empty_clusters()
    if n_edges > driver_max_edges:
        # parallel pre-contraction: per-block star forests shrink the edge
        # stream (exactly — connectivity preserved) before the iterated
        # label-propagation work. NOT worth it ahead of the driver path:
        # the vectorized union-find clears ~3M edges/s, so the extra
        # distributed pass + count costs more wall than it saves there
        # (measured 0.8 s pass vs ~0.5 s saved at 3.3M edges).
        contracted = _contract_edge_blocks(edges).materialize()
        n_after = contracted.count()
        logger.info(
            "connected_components: pre-contraction %d → %d edges",
            n_edges, n_after,
        )
        edges, n_edges = contracted, n_after
        if n_edges == 0:
            return _empty_clusters()
    if n_edges <= driver_max_edges:
        return _driver_union_find(edges)
    return _distributed_label_prop(edges, max_iters, num_partitions)


def _fixed_width_bytes(col: pa.ChunkedArray | pa.Array, width: int) -> "np.ndarray | None":
    """Arrow string column whose values are ALL exactly ``width`` chars →
    numpy ``S{width}`` array, zero-copy from the value buffer. None when any
    value has a different length (falls back to the scalar path). Thin view
    over the shared validated bridge (``functions.arrowbuf._flat_u8``) so
    the subtle offset/width/null logic lives in exactly one place."""
    import numpy as np

    from localhost_address_matching_ray.functions.arrowbuf import _flat_u8

    flat = _flat_u8(col, width)
    if flat is None:
        return None
    if len(flat) == 0:
        return np.empty(0, dtype=f"S{width}")
    return flat.view(f"S{width}")


def _assign_broadcast_u64(
    slim: ray.data.Dataset, comp_tbl: pa.Table
) -> "ray.data.Dataset | None":
    """Fully-vectorized broadcast cluster assignment for the 16-hex-row_id /
    64-hex-sha contract (the pipeline's own output shape): every map is a
    sorted-u64 + fixed-width-S64 numpy pair — zero Python dict loops on the
    driver (profiling measured the dict builds + canon loop at several
    seconds of serial wall at 1.5M component rows) and zero-copy plasma
    broadcast (object-dtype value arrays pickled per worker). Returns None
    when ids aren't 16-hex / shas aren't width-64 (dict fallback)."""
    import numpy as np

    mku = hex16_col_to_u64(comp_tbl["row_id"])
    labu = hex16_col_to_u64(comp_tbl["cluster_label"])
    if mku is None or labu is None:
        return None
    order = np.argsort(mku)
    mk_s, lab_s = mku[order], labu[order]
    member_ref = ray.put(mk_s)

    def pick_members(t: pa.Table) -> pa.Table:
        keys = cached_get(member_ref)
        qk = hex16_col_to_u64(t["row_id"])
        if qk is None:
            raise ValueError("mixed non-hex row_ids in a hex-id pipeline")
        pos = np.minimum(np.searchsorted(keys, qk), len(keys) - 1)
        return t.filter(pa.array(keys[pos] == qk))

    members = _collect(
        slim.map_batches(pick_members, batch_format="pyarrow"),
        pa.schema([("row_id", pa.string()), ("content_sha256", pa.string())]),
    ).combine_chunks()
    mids = hex16_col_to_u64(members["row_id"])
    shas = _fixed_width_bytes(members["content_sha256"], 64)
    if mids is None or shas is None or len(mids) == 0:
        return None
    # canonical sha per label = min member sha: one lexsort, first per run.
    # Lexsorting S64 byte strings directly costs ~10× the integer path
    # (measured 4.4 s at 820k members) — decode the hex shas to 4 big-endian
    # uint64 words and lexsort integers instead (min over the 4-word tuple
    # == min over the 256-bit value == min over the lowercase-hex string)
    mlab = lab_s[np.minimum(np.searchsorted(mk_s, mids), len(mk_s) - 1)]
    try:
        import binascii

        w = np.frombuffer(
            binascii.a2b_hex(np.ascontiguousarray(shas).tobytes()), dtype=">u8"
        ).reshape(-1, 4)
        o = np.lexsort((w[:, 3], w[:, 2], w[:, 1], w[:, 0], mlab))
    except (ValueError, binascii.Error):  # non-hex shas: byte-string lexsort
        o = np.lexsort((shas, mlab))
    mlab_s, shas_s = mlab[o], shas[o]
    first = np.concatenate(([True], mlab_s[1:] != mlab_s[:-1]))
    canon_lab, canon_sha = mlab_s[first], shas_s[first]
    # per-component-row canonical sha, aligned with mk_s
    row_canon = canon_sha[
        np.minimum(np.searchsorted(canon_lab, lab_s), len(canon_lab) - 1)
    ]
    maps_ref = ray.put((mk_s, row_canon))  # u64 + S64: zero-copy from plasma

    def resolve(t: pa.Table) -> pa.Table:
        keys, vals = cached_get(maps_ref)
        qk = hex16_col_to_u64(t["row_id"])
        if qk is None:
            raise ValueError("mixed non-hex row_ids in a hex-id pipeline")
        pos = np.minimum(np.searchsorted(keys, qk), len(keys) - 1)
        hit = keys[pos] == qk
        fixed = _fixed_width_bytes(t["content_sha256"], 64)
        if fixed is not None:  # zero-copy in, buffer-built Arrow out
            out = fixed.copy()
            out[hit] = vals[pos[hit]]
            cluster_id = sbytes_to_arrow(out, 64)
        else:
            # non-uniform sha widths (the reason `fixed` is None): an S64
            # cast would silently TRUNCATE longer values into corrupt
            # cluster_ids — keep Python strings on this rare fallback
            out_list = t["content_sha256"].to_pylist()
            for i in np.flatnonzero(hit):
                out_list[i] = vals[pos[i]].decode("ascii")
            cluster_id = pa.array(out_list, pa.string())
        return pa.table({
            "row_id": t["row_id"],
            "cluster_id": cluster_id,
        })

    return slim.map_batches(resolve, batch_format="pyarrow")


def assign_clusters(
    all_rows: ray.data.Dataset,
    components: ray.data.Dataset,
    num_partitions: int | None = None,
    broadcast_max: int = 2_000_000,
) -> ray.data.Dataset:
    """Attach cluster ids to every row; nodes without an edge become
    singleton clusters. Canonical ``cluster_id = min(content_sha256)`` of the
    cluster's members (FIXTURES.md §3 convention).

    Small component maps (≤ ``broadcast_max`` rows) broadcast via ``ray.put``
    and resolve in ONE pass over the corpus (no joins); larger maps fall
    back to hash-partitioned joins. ``all_rows`` needs ``row_id,
    content_sha256``.
    """
    slim = all_rows.select_columns(["row_id", "content_sha256"])
    n_comp = components.count()
    if n_comp == 0:
        return slim.map_batches(
            lambda t: pa.table({
                "row_id": t["row_id"], "cluster_id": t["content_sha256"],
            }),
            batch_format="pyarrow",
        )

    if n_comp <= broadcast_max:
        comp_tbl = _collect(
            components,
            pa.schema([("row_id", pa.string()), ("cluster_label", pa.string())]),
        ).combine_chunks()
        fast = _assign_broadcast_u64(slim, comp_tbl)
        if fast is not None:
            return fast
        label_of = dict(zip(
            comp_tbl["row_id"].to_pylist(), comp_tbl["cluster_label"].to_pylist()
        ))
        # canonical sha per cluster label, computed from member rows only.
        # membership test via a broadcast SORTED uint64 key array cached per
        # worker process: row_ids are 16-hex-char sha prefixes, so the test is
        # one numpy searchsorted per batch — no per-row Python, and no per-
        # batch hash-set rebuild (pc.is_in would rebuild ~|components| entries
        # every batch).
        import numpy as np

        member_ids = list(label_of.keys())
        mku = hex16_col_to_u64(pa.array(member_ids, pa.string()))
        if mku is not None:
            label_ref = ray.put({"u64": np.sort(mku)})
        else:  # non-hex row_ids: plain set fallback
            label_ref = ray.put({"set": set(member_ids)})

        def pick_members(t: pa.Table) -> pa.Table:
            import numpy as np

            lk = cached_get(label_ref)
            rids = t["row_id"].to_pylist()
            qk = hex16_col_to_u64(t["row_id"]) if "u64" in lk else None
            if qk is not None:
                keys = lk["u64"]
                pos = np.minimum(np.searchsorted(keys, qk), len(keys) - 1)
                mask = keys[pos] == qk
            else:
                s = lk.get("set")
                if s is None:  # mixed-id batch against u64 keys: decode once
                    s = lk["set"] = {format(int(k), "016x") for k in lk["u64"]}
                mask = np.array([r in s for r in rids], dtype=bool)
            return t.filter(pa.array(mask))

        members = _collect(
            slim.map_batches(pick_members, batch_format="pyarrow"),
            pa.schema([("row_id", pa.string()), ("content_sha256", pa.string())]),
        )
        canon: dict[str, str] = {}
        for rid, sha in zip(
            members["row_id"].to_pylist(), members["content_sha256"].to_pylist()
        ):
            lab = label_of[rid]
            prev = canon.get(lab)
            if prev is None or sha < prev:
                canon[lab] = sha
        # resolve the two maps into ONE row_id→cluster_id mapping up front,
        # shipped as (sorted uint64 keys, values) arrays: numpy deserializes
        # zero-copy from plasma (a dict cost a full unpickle per worker —
        # observed 40 s at 1.5M rows) and lookup is one searchsorted per batch
        # instead of a per-row dict loop.
        resolved = {rid: canon[lab] for rid, lab in label_of.items()}
        rku = hex16_col_to_u64(pa.array(list(resolved.keys()), pa.string()))
        if rku is not None:
            order = np.argsort(rku)
            maps_ref = ray.put({
                "u64": rku[order],
                "vals": np.array(list(resolved.values()), dtype=object)[order],
            })
        else:
            maps_ref = ray.put({"dict": resolved})

        def resolve(t: pa.Table) -> pa.Table:
            import numpy as np

            m = cached_get(maps_ref)
            rids = t["row_id"].to_pylist()
            shas = t["content_sha256"].to_pylist()
            qk = hex16_col_to_u64(t["row_id"]) if "u64" in m else None
            if qk is not None:
                keys, vals = m["u64"], m["vals"]
                pos = np.minimum(np.searchsorted(keys, qk), len(keys) - 1)
                hit = keys[pos] == qk
                out = np.where(hit, vals[pos], np.array(shas, dtype=object)).tolist()
            else:
                d = m.get("dict")
                if d is None:  # mixed-id batch against u64 keys: decode once
                    d = m["dict"] = {
                        format(int(k), "016x"): v
                        for k, v in zip(m["u64"], m["vals"])
                    }
                out = [d.get(r, s) for r, s in zip(rids, shas)]
            return pa.table({
                "row_id": t["row_id"],
                "cluster_id": pa.array(out, pa.string()),
            })

        return slim.map_batches(resolve, batch_format="pyarrow")

    # large-map path: two hash joins + a groupby, all partitioned
    num_partitions = num_partitions or _partitions_for(slim.count())
    joined = slim.join(
        components, join_type="left_outer", num_partitions=num_partitions,
        on=("row_id",), **_JOIN_ARGS,
    ).map_batches(
        lambda t: pa.table({
            "row_id": t["row_id"],
            "content_sha256": t["content_sha256"],
            "cluster_label": pa.compute.coalesce(t["cluster_label"], t["row_id"]),
        }),
        batch_format="pyarrow",
    ).materialize()

    canon_ds = joined.groupby("cluster_label").aggregate(
        Min("content_sha256", alias_name="cluster_id")
    )
    return joined.join(
        canon_ds, join_type="inner", num_partitions=num_partitions,
        on=("cluster_label",), **_JOIN_ARGS,
    ).select_columns(["row_id", "cluster_id"])
