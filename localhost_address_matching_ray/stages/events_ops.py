"""Distributed as-of and range joins over the events stream.

Ray Data has no native as-of / range join, so both are expressed as a
hash-bucket fold by ``user_id`` (``stages.buckets.bucket_fold``, the same
shape as sessionization, ``queries.events_user_sessions``), resolving the
temporal join vectorized inside each bucket — one lexsort plus
``np.searchsorted`` over a composite ``(user, ts)`` key, no per-user or
per-row Python.

Partitioning assumption (documented per the custom-operator contract): a
join key (``user_id``) never spans buckets, so any bucket width yields
identical results; ``bucket_width=None`` takes the fold's cluster-relative
width, and a width passed here only changes parallelism.  Skewed users
concentrate in one bucket — acceptable because per-bucket work is
O(rows log rows) vectorized, and a single user's history is exactly the
unit that cannot be split by an order-dependent join.

Scale shape: events ship only the four narrow columns the join needs
(ids, ts, type, value — pruned at the read); output is streamed per bucket,
never collected on the driver.

``user_id`` is assumed non-null (the events schema's key contract, same as
sessionization); null-tolerant key handling for user-supplied keys lives in
``stages/rel_ops.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from localhost_address_matching_ray.stages.buckets import bucket_fold


def _composite_keys(uid: np.ndarray, ts_us: np.ndarray):
    """uint64 keys whose sort order equals lexicographic ``(uid, ts)`` order.

    Users are factorized to dense ranks and timestamps rebased to the bucket
    minimum so the packed widths stay small; returns None when the packed
    key cannot fit 64 bits (then callers take the per-user fallback).
    """
    if len(uid) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64), 0
    ranks, inv = np.unique(uid, return_inverse=True)
    rel = ts_us - ts_us.min()
    shift = max(int(rel.max()).bit_length(), 1)
    if (len(ranks) - 1).bit_length() + shift > 63:
        return None
    keys = (inv.astype(np.uint64) << np.uint64(shift)) | rel.astype(np.uint64)
    return keys, rel, shift


def _empty_asof_table() -> pa.Table:
    return pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "click_ts": pa.array([], pa.timestamp("us")),
        "click_value": pa.array([], pa.float64()),
        "lag_us": pa.array([], pa.int64()),
    })


def asof_join_events(
    events: ray.data.Dataset,
    *,
    left_type: str = "purchase",
    right_type: str = "click",
    bucket_width: int | None = None,
) -> ray.data.Dataset:
    """As-of join: each *left_type* event joined to the most recent
    *right_type* event of the same user with ``right.ts <= left.ts``
    (ties on ``right.ts`` broken by max ``event_id`` — DuckDB's
    ``ASOF LEFT JOIN`` against a ``max_by(value, event_id)``-deduped right
    side). Unmatched lefts keep sentinel values (epoch / 0.0 / -1) instead
    of nulls so the output hashes deterministically.
    """
    types = pa.array([left_type, right_type], pa.string())
    ev = events.map_batches(
        lambda t: t.filter(pc.is_in(t["event_type"], value_set=types)),
        batch_format="pyarrow",
    )

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty_asof_table()
        etype = g["event_type"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        val = g["value"].to_numpy(zero_copy_only=False)
        lm = etype == left_type
        rm = etype == right_type
        l_uid, l_ts, l_eid = uid[lm], ts[lm], eid[lm]
        if len(l_uid) == 0:
            return _empty_asof_table()
        r_uid, r_ts, r_eid, r_val = uid[rm], ts[rm], eid[rm], val[rm]

        match_ts = np.zeros(len(l_uid), np.int64)
        match_val = np.zeros(len(l_uid), np.float64)
        lag = np.full(len(l_uid), -1, np.int64)
        if len(r_uid):
            packed = _composite_keys(
                np.concatenate((l_uid, r_uid)), np.concatenate((l_ts, r_ts))
            )
            if packed is not None:
                keys, _, _ = packed
                l_keys, r_keys = keys[: len(l_uid)], keys[len(l_uid):]
                order = np.lexsort((r_eid, r_keys))
                r_keys, sr_uid, sr_ts, sr_val = (
                    r_keys[order], r_uid[order], r_ts[order], r_val[order])
                idx = np.searchsorted(r_keys, l_keys, side="right") - 1
                ok = (idx >= 0) & (sr_uid[np.maximum(idx, 0)] == l_uid)
            else:  # >63-bit packed key: resolve user-by-user (rare, huge span)
                order = np.lexsort((r_eid, r_ts, r_uid))
                sr_uid, sr_ts, sr_val = r_uid[order], r_ts[order], r_val[order]
                idx = np.zeros(len(l_uid), np.int64)
                ok = np.zeros(len(l_uid), bool)
                for u in np.unique(l_uid):
                    ls = np.flatnonzero(l_uid == u)
                    lo, hi = np.searchsorted(sr_uid, [u, u + 1])
                    if lo == hi:
                        continue
                    j = lo + np.searchsorted(sr_ts[lo:hi], l_ts[ls], side="right") - 1
                    good = j >= lo
                    idx[ls[good]] = j[good]
                    ok[ls[good]] = True
            match_ts[ok] = sr_ts[idx[ok]]
            match_val[ok] = sr_val[idx[ok]]
            lag[ok] = l_ts[ok] - match_ts[ok]
        return pa.table({
            "event_id": pa.array(l_eid, pa.int64()),
            "user_id": pa.array(l_uid, pa.int64()),
            "ts": pa.array(l_ts.astype("datetime64[us]")),
            "click_ts": pa.array(match_ts.astype("datetime64[us]")),
            "click_value": pa.array(match_val, pa.float64()),
            "lag_us": pa.array(lag, pa.int64()),
        })

    return bucket_fold(ev, "user_id", per_bucket, bucket_width)


_TS_MISSING = np.iinfo(np.int64).max


def funnel_events(
    events: ray.data.Dataset,
    *,
    steps: tuple[str, str, str] = ("view", "click", "purchase"),
    bucket_width: int | None = None,
) -> ray.data.Dataset:
    """First-touch conversion funnel: per user, the earliest timestamp of
    each step; a user converts step i→i+1 when ``min(ts of step i) <
    min(ts of step i+1)`` (strict). Returns ONE row of funnel counts.

    Two-level aggregation: per-batch (user, min-ts-per-step) partials
    (``np.minimum.at`` — each batch contributes at most one row per user
    it saw, so the shuffle carries users, not events), bucketed per-user
    re-min, per-bucket counts, then a single W-row groupby for the final
    sums — no driver-side pass over users.
    """
    names = ("t0", "t1", "t2")

    def partial(t: pa.Table) -> pa.Table:
        etype = t["event_type"].to_numpy(zero_copy_only=False)
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        uniq, inv = np.unique(uid, return_inverse=True)
        cols = {"user_id": pa.array(uniq, pa.int64())}
        for name, step in zip(names, steps):
            arr = np.full(len(uniq), _TS_MISSING, np.int64)
            m = etype == step
            np.minimum.at(arr, inv[m], ts[m])
            cols[name] = pa.array(arr, pa.int64())
        return pa.table(cols)

    def per_bucket(g: pa.Table) -> pa.Table:
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(uid, return_inverse=True)
        mins = []
        for name in names:
            arr = np.full(len(uniq), _TS_MISSING, np.int64)
            np.minimum.at(arr, inv, g[name].to_numpy(zero_copy_only=False))
            mins.append(arr)
        t0, t1, t2 = mins
        has0 = t0 != _TS_MISSING
        s1 = has0 & (t1 != _TS_MISSING) & (t0 < t1)
        s2 = s1 & (t2 != _TS_MISSING) & (t1 < t2)
        return pa.table({
            "one": pa.array([0], pa.int32()),
            "n_users": pa.array([len(uniq)], pa.int64()),
            "n_step1": pa.array([int(has0.sum())], pa.int64()),
            "n_step2": pa.array([int(s1.sum())], pa.int64()),
            "n_step3": pa.array([int(s2.sum())], pa.int64()),
        })

    def total(g: pa.Table) -> pa.Table:
        return pa.table({
            k: pa.array([int(pc.sum(g[k]).as_py() or 0)], pa.int64())
            for k in ("n_users", "n_step1", "n_step2", "n_step3")
        })

    # seed row: an empty stream still yields one all-zero funnel row, the
    # way SQL's aggregate-without-GROUP-BY does
    seed = ray.data.from_arrow(pa.table({
        "one": pa.array([0], pa.int32()),
        **{k: pa.array([0], pa.int64())
           for k in ("n_users", "n_step1", "n_step2", "n_step3")},
    }))
    return (
        bucket_fold(events.map_batches(partial, batch_format="pyarrow"), "user_id",
                    per_bucket, bucket_width)
        .union(seed)
        .groupby("one")
        .map_groups(total, batch_format="pyarrow")
    )


def _empty_running_table() -> pa.Table:
    return pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "rn": pa.array([], pa.int64()),
        "run_cents": pa.array([], pa.int64()),
        "since_prev_us": pa.array([], pa.int64()),
    })


def running_stats_events(
    events: ray.data.Dataset,
    *,
    bucket_width: int | None = None,
) -> ray.data.Dataset:
    """Per-user window functions over the event stream: row_number,
    running sum of ``value`` and lag-to-previous-event, all ordered by
    ``(ts, event_id)`` within the user partition (the SQL
    ``OVER (PARTITION BY user_id ORDER BY ts, event_id)`` frame).

    The running sum is carried in integer cents (``value`` is an exact
    2-dp double, so ``rint(value*100)`` is exact on both engines) — an
    int64 cumsum has no float-addition-order sensitivity, unlike a double
    ``SUM() OVER`` whose segment-tree accumulation order differs from a
    sequential cumsum. First event of a user gets ``since_prev_us = -1``.
    """

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty_running_table()
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        cents = np.rint(g["value"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, cents = uid[order], ts[order], eid[order], cents[order]
        starts = np.concatenate(([0], np.flatnonzero(uid[1:] != uid[:-1]) + 1))
        seg = np.zeros(len(uid), np.int64)
        seg[starts[1:]] = 1
        seg = np.cumsum(seg)
        rn = np.arange(len(uid), dtype=np.int64) - starts[seg] + 1
        csum = np.cumsum(cents)
        base = np.concatenate(([0], csum[starts[1:] - 1]))
        run = csum - base[seg]
        since = ts - np.concatenate(([0], ts[:-1]))
        since[starts] = -1
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "ts": pa.array(ts.astype("datetime64[us]")),
            "rn": pa.array(rn, pa.int64()),
            "run_cents": pa.array(run, pa.int64()),
            "since_prev_us": pa.array(since, pa.int64()),
        })

    return bucket_fold(events, "user_id", per_bucket, bucket_width)


def _empty_moving_table() -> pa.Table:
    return pa.table({
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "frame_n": pa.array([], pa.int64()),
        "mavg_cents": pa.array([], pa.float64()),
    })


def moving_avg_events(
    events: ray.data.Dataset,
    *,
    preceding: int = 3,
    bucket_width: int | None = None,
) -> ray.data.Dataset:
    """Sliding window-FRAME aggregate: per-user moving average of ``value``
    over ``ROWS BETWEEN preceding PRECEDING AND CURRENT ROW``, ordered by
    ``(ts, event_id)`` — the bounded-frame half of SQL window semantics
    (``running_stats_events`` covers the unbounded-frame half).

    Bit-exactness: the frame sum is carried in integer cents (exact in
    int64 and in double below 2**53, so ANY accumulation order — DuckDB's
    segment tree or our cumsum difference — yields the same value); the
    average is then one IEEE double division sum/len, identical on both
    engines. The frame-start clamp is ``max(segment_start, i - preceding)``
    applied to a prefix-sum array, vectorized across the bucket.
    """
    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty_moving_table()
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        cents = np.rint(g["value"].to_numpy(zero_copy_only=False) * 100.0).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, cents = uid[order], ts[order], eid[order], cents[order]
        n = len(uid)
        starts = np.concatenate(([0], np.flatnonzero(uid[1:] != uid[:-1]) + 1))
        seg = np.zeros(n, np.int64)
        seg[starts[1:]] = 1
        seg = np.cumsum(seg)
        idx = np.arange(n, dtype=np.int64)
        lo = np.maximum(starts[seg], idx - preceding)  # frame start (inclusive)
        csum = np.concatenate(([0], np.cumsum(cents)))  # csum[i] = sum(cents[:i])
        fsum = csum[idx + 1] - csum[lo]
        fn = idx + 1 - lo
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "ts": pa.array(ts.astype("datetime64[us]")),
            "frame_n": pa.array(fn, pa.int64()),
            "mavg_cents": pa.array(fsum.astype(np.float64) / fn, pa.float64()),
        })

    return bucket_fold(events, "user_id", per_bucket, bucket_width)


def _empty_range_table() -> pa.Table:
    return pa.table({
        "user_id": pa.array([], pa.int64()),
        "eid_a": pa.array([], pa.int64()),
        "eid_b": pa.array([], pa.int64()),
        "gap_us": pa.array([], pa.int64()),
    })


def range_join_events(
    events: ray.data.Dataset,
    *,
    window_us: int = 2 * 3600 * 1_000_000,
    bucket_width: int | None = None,
) -> ray.data.Dataset:
    """Range self-join: all ordered pairs (a, b) of events of the SAME user
    with ``a.ts < b.ts <= a.ts + window``. Equal timestamps never pair
    (the predicate is strict), matching the SQL band-join oracle.

    Output size is the true join cardinality (sum over rows of the count of
    successors inside the window) — inherent to range-join semantics; a
    burst-heavy user inflates only their own bucket's output block.
    """

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return _empty_range_table()
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        eid = g["event_id"].to_numpy(zero_copy_only=False)
        packed = _composite_keys(uid, ts)
        if packed is None:  # >63-bit packed key: exact per-user windows below
            order = np.lexsort((eid, ts, uid))
        else:
            keys, _, _ = packed
            order = np.lexsort((eid, keys))
        uid, ts, eid = uid[order], ts[order], eid[order]
        if packed is not None:
            keys = keys[order]
            hi = np.searchsorted(keys, keys + np.uint64(window_us), side="right")
            lo = np.searchsorted(keys, keys, side="right")
            # window may cross into the next user's key range when rel_ts
            # nears the top of its bit field; clamp by user boundary
            bounds = np.concatenate((np.flatnonzero(uid[1:] != uid[:-1]) + 1, [len(uid)]))
            user_end = bounds[np.searchsorted(bounds, np.arange(len(uid)), side="right")]
            hi = np.minimum(hi, user_end)
        else:
            bounds = np.concatenate(([0], np.flatnonzero(uid[1:] != uid[:-1]) + 1, [len(uid)]))
            lo = np.empty(len(uid), np.int64)
            hi = np.empty(len(uid), np.int64)
            for s, e in zip(bounds[:-1], bounds[1:]):
                lo[s:e] = s + np.searchsorted(ts[s:e], ts[s:e], side="right")
                hi[s:e] = s + np.searchsorted(ts[s:e], ts[s:e] + window_us, side="right")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            return _empty_range_table()
        a_idx = np.repeat(np.arange(len(uid)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        b_idx = np.repeat(lo, counts) + (np.arange(total) - np.repeat(starts, counts))
        return pa.table({
            "user_id": pa.array(uid[a_idx], pa.int64()),
            "eid_a": pa.array(eid[a_idx], pa.int64()),
            "eid_b": pa.array(eid[b_idx], pa.int64()),
            "gap_us": pa.array(ts[b_idx] - ts[a_idx], pa.int64()),
        })

    return bucket_fold(events, "user_id", per_bucket, bucket_width)
