"""Temporal operators Ray Data lacks natively: as-of join and hopping windows.

These extend the windowed family beyond ``events_sessionize`` (session
windows) and ``events_hourly`` (tumbling windows) with the two shapes the
reference's event pipelines and any training-data telemetry stack need:

- **as-of join** (``events_asof_join``): for each left event, the most
  recent right event at-or-before it by the same key. Ray Data has no asof
  join; the 100 TB shape is the standard co-partitioned one — hash-partition
  BOTH streams by the equality key (one exchange, both sides share it via
  union), then ONE vectorized ``pd.merge_asof`` per partition over the
  time-sorted runs. No broadcast, no driver materialization; skew is bounded
  by the per-key event cardinality, same as sessionize.
- **hopping (sliding) windows** (``events_hopping_counts``): 1 h windows
  every 15 min — each event belongs to exactly ``size/hop`` windows, so the
  map side *explodes* each row into its window assignments with numpy repeat
  and pre-aggregates inside the batch; only (window, type)-cardinality
  partial rows ever reach the combine. At 100 TB the partial output is
  bounded by distinct windows x types, not by events.

All value columns are emitted as exact integers (cents / epoch seconds /
microseconds) so the DuckDB oracle compare is bit-exact.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from html_parser_ray.pipelines.shuffle import (
    hash_partitioned,
    read_table,
    sort_output,
)

_US_PER_S = 1_000_000


def _ts_us(s: pd.Series) -> np.ndarray:
    """Exact int64 microseconds-since-epoch from a parquet timestamp[us]."""
    return s.to_numpy().astype("datetime64[us]").view("int64")


def _same_key_lag(
    g: pd.DataFrame, key_cols: list[str], order_cols: list[str]
) -> "tuple[pd.DataFrame, np.ndarray]":
    """The shared per-partition LAG primitive: sort by ``key_cols +
    order_cols`` and return ``(sorted_frame, idx)`` where ``idx`` indexes
    the rows whose PREVIOUS sorted row shares every key column — i.e. each
    returned row ``i`` forms a valid same-key (prev=i-1, cur=i) lag pair.
    Used by events_user_lag, events_type_transitions and
    events_interarrival_stats (one fix applies to all three). NULL keys
    pair with each other, as SQL ``PARTITION BY`` groups them (the sort
    puts them together, last)."""
    g = g.sort_values(key_cols + order_cols)
    same = np.zeros(len(g), dtype=bool)
    if len(g) > 1:
        keys = [g[c].to_numpy() for c in key_cols]
        same[1:] = np.logical_and.reduce(
            [(a[1:] == a[:-1]) | (pd.isna(a[1:]) & pd.isna(a[:-1])) for a in keys]
        )
    return g, np.nonzero(same)[0]


def events_asof_join(
    sf_dir: str,
    left_type: str = "click",
    right_type: str = "view",
    num_partitions: int = 16,
) -> "ray.data.Dataset | pd.DataFrame":
    """For every ``left_type`` event, the most recent ``right_type`` event by
    the same user at-or-before its timestamp (ASOF LEFT JOIN semantics).

    Right rows are first deduplicated to one row per (user_id, ts) keeping
    the max event_id — the asof "pick latest at tied timestamps" case is
    otherwise nondeterministic. Output: one row per left event with the
    matched right event_id (-1 when none) and the exact gap in microseconds
    (-1 when none).
    """
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def keep_sides(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin([left_type, right_type])]

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        lhs = g[g["event_type"] == left_type]
        rhs = g[g["event_type"] == right_type]
        # deterministic tie policy: one right row per (user, ts), max id
        rhs = (
            rhs.groupby(["user_id", "ts"], as_index=False)
            .agg(view_id=("event_id", "max"))
            .sort_values("ts", kind="mergesort")
        )
        rhs["view_ts"] = rhs["ts"]  # carried through the asof as plain data
        lhs = lhs.sort_values("ts", kind="mergesort")
        if len(lhs) == 0:
            return pd.DataFrame(
                {
                    "click_id": pd.Series(dtype="int64"),
                    "user_id": pd.Series(dtype="int64"),
                    "click_ts_us": pd.Series(dtype="int64"),
                    "view_id": pd.Series(dtype="int64"),
                    "gap_us": pd.Series(dtype="int64"),
                }
            )
        m = pd.merge_asof(
            lhs, rhs, on="ts", by="user_id", direction="backward"
        )
        click_us = _ts_us(m["ts"])
        view_id = m["view_id"].fillna(-1).astype("int64")
        matched = view_id.to_numpy() >= 0
        # NaT views as INT64_MIN: substitute click_us before subtracting so
        # the unmatched lanes never overflow, then mask them to -1
        view_us = m["view_ts"].to_numpy().astype("datetime64[us]").view("int64")
        gap = np.where(matched, click_us - np.where(matched, view_us, click_us), -1)
        return pd.DataFrame(
            {
                "click_id": m["event_id"].astype("int64"),
                "user_id": m["user_id"].astype("int64"),
                "click_ts_us": click_us,
                "view_id": view_id,
                "gap_us": gap.astype("int64"),
            }
        )

    out_schema = pa.schema(
        [
            ("click_id", pa.int64()),
            ("user_id", pa.int64()),
            ("click_ts_us", pa.int64()),
            ("view_id", pa.int64()),
            ("gap_us", pa.int64()),
        ]
    )
    return sort_output(
        hash_partitioned(
            ds.map_batches(keep_sides, batch_format="pandas"),
            ["user_id"],
            per_partition,
            num_partitions,
        ),
        ["click_id"],
        out_schema,
    )


def events_hopping_counts(
    sf_dir: str, size_s: int = 3600, hop_s: int = 900
) -> pd.DataFrame:
    """Hopping-window counts: (win_start_s, event_type, n_events,
    sum_value_cents) for ``size_s`` windows advancing every ``hop_s``.

    ``size_s`` must be a multiple of ``hop_s``; each event lands in exactly
    ``size_s // hop_s`` windows (the explode factor), assigned map-side with
    numpy repeat and pre-aggregated per batch before the tiny global combine.
    """
    assert size_s % hop_s == 0, "window size must be a multiple of the hop"
    k = size_s // hop_s
    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    hop_us = hop_s * _US_PER_S

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        us = _ts_us(df["ts"])
        base = (us // hop_us) * hop_s  # newest window start, epoch SECONDS
        offs = np.arange(k, dtype=np.int64) * hop_s
        win = np.repeat(base, k) - np.tile(offs, len(base))
        cents = np.rint(df["value"].to_numpy(dtype=np.float64) * 100).astype(
            np.int64
        )
        out = pd.DataFrame(
            {
                "win_start_s": win,
                "event_type": np.repeat(df["event_type"].to_numpy(), k),
                "n_events": np.int64(1),
                "sum_value_cents": np.repeat(cents, k),
            }
        )
        return out.groupby(["win_start_s", "event_type"], as_index=False).sum()

    # partials are bounded by distinct (window, type) — tiny driver combine,
    # same pattern as events_hourly
    df = ds.map_batches(partial, batch_format="pandas").to_pandas()
    result = df.groupby(["win_start_s", "event_type"], as_index=False).agg(
        n_events=("n_events", "sum"), sum_value_cents=("sum_value_cents", "sum")
    )
    return (
        result.astype({"win_start_s": "int64", "n_events": "int64"})
        .sort_values(["win_start_s", "event_type"])
        .reset_index(drop=True)
    )


def events_funnel_counts(
    sf_dir: str,
    first_type: str = "view",
    then_type: str = "click",
    within_s: int = 3600,
    num_partitions: int = 16,
) -> pd.DataFrame:
    """Two-step funnel: users with a ``first_type`` event, and of those, the
    ones with a ``then_type`` event at-or-after their FIRST ``first_type``
    and within ``within_s`` seconds of it.

    Sequence analytics over a keyed stream: ONE hash exchange by user (both
    event types travel together), then a vectorized per-partition pass —
    min-ts per user for the entry step, then a boolean any() join against
    the follow-up events. The exchange carries only (user_id, ts) pairs of
    the two relevant types; the combine is two rows.
    """
    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin([first_type, then_type])][
            ["user_id", "ts", "event_type"]
        ]

    win_us = within_s * _US_PER_S

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        firsts = g[g["event_type"] == first_type]
        if len(firsts) == 0:
            return pd.DataFrame(
                {"entered": pd.Series(dtype="int64"),
                 "converted": pd.Series(dtype="int64")}
            )
        entry = firsts.groupby("user_id")["ts"].min()
        f = g[g["event_type"] == then_type].merge(
            entry.rename("first_ts"), left_on="user_id", right_index=True
        )
        gap = _ts_us(f["ts"]) - _ts_us(f["first_ts"])
        converted = f.loc[(gap >= 0) & (gap <= win_us), "user_id"].nunique()
        return pd.DataFrame(
            {"entered": [int(len(entry))], "converted": [int(converted)]}
        )

    parts = hash_partitioned(
        ds.map_batches(keep, batch_format="pandas"),
        ["user_id"],
        per_partition,
        num_partitions,
    ).to_pandas()  # partials: <= 1 row per partition
    entered = int(parts["entered"].sum()) if len(parts) else 0
    converted = int(parts["converted"].sum()) if len(parts) else 0
    return pd.DataFrame(
        {"step": [first_type, then_type], "n_users": [entered, converted]}
    ).astype({"n_users": "int64"})


def orders_running_total(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """Per-key **running-total window** (``SUM() OVER (PARTITION BY key ORDER
    BY ts)``): each customer's cumulative spend in exact integer cents, in
    order-date order.

    Ray Data has no window functions; the scale shape is the sessionize one —
    hash-partition by the window's PARTITION BY key (every customer's orders
    co-locate; one exchange), then ONE vectorized pass per partition:
    sort by (custkey, orderdate, orderkey) and ``groupby().cumsum()`` over
    pre-converted integer cents. Per-partition memory is bounded by the
    partition's rows (orders/P), never the full table; the output streams
    back as a Dataset. Ties on (custkey, orderdate) break by orderkey, which
    makes the running values bit-equal to the SQL window frame.
    """
    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        cents = np.rint(
            g["o_totalprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        out = pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].to_numpy().astype("int64"),
                "o_orderkey": g["o_orderkey"].to_numpy().astype("int64"),
                "cum_spend_cents": pd.Series(cents, index=g.index)
                .groupby(g["o_custkey"].to_numpy())
                .cumsum()
                .to_numpy(),
            }
        )
        return out

    out_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("o_orderkey", pa.int64()),
            ("cum_spend_cents", pa.int64()),
        ]
    )
    return sort_output(
        hash_partitioned(ds, ["o_custkey"], per_partition, num_partitions),
        ["o_custkey", "o_orderkey"],
        out_schema,
    )


def orders_trailing_spend(
    sf_dir: str, window: int = 3, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Frame-bounded rolling window** (``SUM() OVER (... ROWS BETWEEN 2
    PRECEDING AND CURRENT ROW)``): each order's trailing-``window`` spend for
    its customer, in exact integer cents.

    Same scale shape as ``orders_running_total`` (hash-partition by the
    PARTITION BY key, one vectorized pass per partition) with a pandas
    grouped ``rolling(window, min_periods=1).sum()`` supplying the frame
    bound — per-partition memory stays orders/P.
    """
    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        cents = np.rint(
            g["o_totalprice"].to_numpy(np.float64) * 100
        ).astype(np.int64)
        trailing = (
            pd.Series(cents)
            .groupby(g["o_custkey"].to_numpy())
            .rolling(window, min_periods=1)
            .sum()
            .reset_index(drop=True)
            .astype("int64")
        )
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].to_numpy().astype("int64"),
                "o_orderkey": g["o_orderkey"].to_numpy().astype("int64"),
                "trailing_spend_cents": trailing.to_numpy(),
            }
        )

    out_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("o_orderkey", pa.int64()),
            ("trailing_spend_cents", pa.int64()),
        ]
    )
    return sort_output(
        hash_partitioned(ds, ["o_custkey"], per_partition, num_partitions),
        ["o_custkey", "o_orderkey"],
        out_schema,
    )


def orders_rank_in_customer(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Ordinal window functions** (``RANK()`` / ``DENSE_RANK()`` /
    ``ROW_NUMBER() OVER (PARTITION BY o_custkey ORDER BY o_totalprice
    DESC[, o_orderkey])``): each order's price rank within its customer.

    Completes the window-function family (running total, frame-bounded
    rolling, sessionized gaps) with the *ordinal* forms. Scale shape is the
    same as ``orders_running_total``: hash-partition by the PARTITION BY key
    (one exchange — every customer's orders co-locate), then one vectorized
    pandas pass per partition: a single sort by (custkey, price DESC,
    orderkey) makes ROW_NUMBER a ``cumcount`` and RANK/DENSE_RANK grouped
    ``rank(method='min'|'dense')`` calls. Ties in RANK/DENSE_RANK share a
    rank exactly as SQL does (double comparison is exact — no epsilon);
    ROW_NUMBER breaks ties by ``o_orderkey`` so output is bit-deterministic.
    Per-partition memory is orders/P, never the full table.
    """
    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_custkey", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
        )
        grp = g.groupby("o_custkey")
        return pd.DataFrame(
            {
                "o_custkey": g["o_custkey"].to_numpy().astype("int64"),
                "o_orderkey": g["o_orderkey"].to_numpy().astype("int64"),
                "price_rank": grp["o_totalprice"]
                .rank(method="min", ascending=False)
                .to_numpy()
                .astype("int64"),
                "price_dense_rank": grp["o_totalprice"]
                .rank(method="dense", ascending=False)
                .to_numpy()
                .astype("int64"),
                "price_row_number": (grp.cumcount() + 1).to_numpy().astype("int64"),
            }
        )

    out_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("o_orderkey", pa.int64()),
            ("price_rank", pa.int64()),
            ("price_dense_rank", pa.int64()),
            ("price_row_number", pa.int64()),
        ]
    )
    return sort_output(
        hash_partitioned(ds, ["o_custkey"], per_partition, num_partitions),
        ["o_custkey", "o_orderkey"],
        out_schema,
    )


def events_user_lag(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Offset window function** (``LAG() OVER (PARTITION BY user_id ORDER
    BY ts, event_id)``): each event's predecessor id and the gap to it in
    exact integer microseconds — the inter-arrival-time primitive under
    sessionization and rate limiting.

    Scale shape: hash-partition by the PARTITION BY key (one exchange,
    every user's events co-locate), one vectorized pass per partition —
    sort by (user, ts, event_id); the lag is then a plain shift-by-one with
    a same-user mask (no per-group Python). Rows without a predecessor
    (SQL's NULL lag) are excluded, keeping every column non-null int64 —
    no NaN-as-float round-trip across the pandas/Arrow boundary. Ties on
    ts break by event_id, making the lag chain bit-deterministic.
    """
    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        # predecessor = previous row iff it belongs to the same user
        g, idx = _same_key_lag(g, ["user_id"], ["ts", "event_id"])
        ts_us = _ts_us(g["ts"])
        ids = g["event_id"].to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "event_id": ids[idx],
                "prev_event_id": ids[idx - 1],
                "gap_us": ts_us[idx] - ts_us[idx - 1],
            }
        )

    out_schema = pa.schema(
        [
            ("event_id", pa.int64()),
            ("prev_event_id", pa.int64()),
            ("gap_us", pa.int64()),
        ]
    )
    return sort_output(
        hash_partitioned(ds, ["user_id"], per_partition, num_partitions),
        ["event_id"],
        out_schema,
    )


def events_cohort_retention(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Cohort retention**: users grouped by first-seen week; for every
    (cohort_week, week_offset) the count of distinct users active that week.

    Scale shape — ONE exchange: hash-partition events by ``user_id``, so each
    partition holds every event of its users and computes BOTH per-user
    first-week and per-(user, week) activity locally; a (cohort, offset,
    user) triple exists in exactly one partition, so per-partition distinct
    counts are globally exact and the driver combine is cohort x offset
    sized. Weeks are Monday-truncated day numbers (``date_trunc('week')``
    parity, exact integers).
    """
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        days = (
            g["ts"].to_numpy().astype("datetime64[D]").view("int64")
        )
        # Monday on/before: 1970-01-01 is a Thursday (weekday offset 4)
        week_monday = ((days - 4) // 7) * 7 + 4
        df = pd.DataFrame(
            {"user_id": g["user_id"].to_numpy(), "week": week_monday}
        )
        first = df.groupby("user_id")["week"].min().rename("cohort_day")
        active = df.drop_duplicates()
        active = active.join(first, on="user_id")
        out = pd.DataFrame(
            {
                "cohort_day": active["cohort_day"].to_numpy(),
                "week_offset": (
                    (active["week"].to_numpy() - active["cohort_day"].to_numpy())
                    // 7
                ),
                "n_users": np.int64(1),
            }
        )
        return out.groupby(["cohort_day", "week_offset"], as_index=False).sum()

    parts = hash_partitioned(ds, ["user_id"], per_partition, num_partitions)
    df = parts.to_pandas()
    out = df.groupby(["cohort_day", "week_offset"], as_index=False)[
        "n_users"
    ].sum()
    return (
        out.astype(
            {"cohort_day": "int64", "week_offset": "int64", "n_users": "int64"}
        )
        .sort_values(["cohort_day", "week_offset"])
        .reset_index(drop=True)
    )


def events_type_transitions(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Markov transition counts** over each user's event stream: global
    counts of consecutive (prev_type -> type) pairs, ordering each user's
    events by (ts, event_id) — the bigram statistic under session-behavior
    models and anomaly scoring.

    Scale shape — ONE exchange plus a cardinality-bounded combine:
    hash-partition by ``user_id`` (every user's chain co-locates), one
    vectorized pass per partition (sort, shift-by-one with a same-user
    mask — the same primitive as ``events_user_lag``), then per-partition
    PARTIAL counts. Partials are bounded by ``|types|^2`` per partition
    (25 here), so the final combine touches partitions x 25 rows no matter
    how many events exist — at 100 TB the driver pull stays a few KB.
    """
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g, idx = _same_key_lag(g, ["user_id"], ["ts", "event_id"])
        types = g["event_type"].to_numpy()
        pairs = pd.DataFrame(
            {"prev_type": types[idx - 1], "event_type": types[idx]}
        )
        out = (
            pairs.groupby(["prev_type", "event_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return out.astype({"n": "int64"})

    parts = hash_partitioned(ds, ["user_id"], per_partition, num_partitions)
    # |types|^2-bounded combine (NOT corpus-sized): sum partials driver-side
    df = parts.to_pandas()
    if df.empty:
        return pd.DataFrame(
            {
                "prev_type": pd.Series(dtype="object"),
                "event_type": pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64"),
            }
        )
    return (
        df.groupby(["prev_type", "event_type"], as_index=False)["n"]
        .sum()
        .astype({"n": "int64"})
        .sort_values(["prev_type", "event_type"])
        .reset_index(drop=True)
    )


def events_value_ntile(
    sf_dir: str, tiles: int = 4, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**NTILE window function** (``NTILE(4) OVER (PARTITION BY event_type
    ORDER BY value, event_id)``): equi-depth bucket assignment per group —
    the primitive under quantile bucketing and stratified train/eval splits.

    Scale shape: one exchange by the PARTITION BY key; each partition holds
    whole groups, so the tile assignment is a single argsort + closed-form
    boundary arithmetic per group (SQL's NTILE: the first ``n % tiles``
    buckets get ``ceil(n/tiles)`` rows) — no per-row Python. Ties on value
    break by event_id, making assignments bit-deterministic. Skew bound =
    largest single group, the same bound SQL engines accept for windows.
    """
    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        out_id = np.empty(len(g), dtype="int64")
        out_t: list[str] = []
        out_tile = np.empty(len(g), dtype="int64")
        pos = 0
        for t, sub in g.groupby("event_type", sort=False):
            order = np.lexsort(
                (sub["event_id"].to_numpy(), sub["value"].to_numpy())
            )
            ids = sub["event_id"].to_numpy()[order]
            n = len(ids)
            q, r = divmod(n, tiles)
            # ranks 0..n-1 -> tile: first r buckets hold q+1 rows
            ranks = np.arange(n, dtype="int64")
            cut = (q + 1) * r
            tile = np.where(
                ranks < cut,
                ranks // (q + 1) if q + 1 > 0 else 0,
                r + (ranks - cut) // q if q > 0 else r,
            ) + 1
            out_id[pos : pos + n] = ids
            out_t.extend([t] * n)
            out_tile[pos : pos + n] = tile
            pos += n
        return pd.DataFrame(
            {
                "event_id": out_id[:pos],
                "event_type": pd.Series(out_t, dtype="object"),
                "tile": out_tile[:pos],
            }
        )

    out_schema = pa.schema(
        [("event_id", pa.int64()), ("event_type", pa.string()), ("tile", pa.int64())]
    )
    return sort_output(
        hash_partitioned(ds, ["event_type"], per_partition, num_partitions),
        ["event_id"],
        out_schema,
    )


def events_user_active_islands(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Gaps-and-islands**: each user's runs of consecutive active days
    (UTC epoch days), with run start/end/length — the classic
    streak/contiguity operator (SQL: ``day - ROW_NUMBER()`` grouping).

    Scale shape — ONE exchange: hash-partition by ``user_id``; each
    partition dedups its users' (user, day) pairs locally (map-side
    pre-distinct keeps the exchange slim: bounded by users x active-days,
    not events), then one vectorized pass finds run breaks with a
    diff!=1-or-new-user mask and aggregates each run from its break span.
    All integers end to end (epoch days), bit-exact vs the SQL oracle.
    """
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def to_days(df: pd.DataFrame) -> pd.DataFrame:
        days = _ts_us(df["ts"]) // (86_400 * _US_PER_S)
        return pd.DataFrame(
            {"user_id": df["user_id"].astype("int64"), "day": days}
        ).drop_duplicates()

    slim = ds.map_batches(to_days, batch_format="pandas")

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates().sort_values(["user_id", "day"])
        users = g["user_id"].to_numpy()
        days = g["day"].to_numpy()
        if len(days) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "start_day": pd.Series(dtype="int64"),
                    "end_day": pd.Series(dtype="int64"),
                    "n_days": pd.Series(dtype="int64"),
                }
            )
        new_run = np.ones(len(days), dtype=bool)
        new_run[1:] = (users[1:] != users[:-1]) | (days[1:] != days[:-1] + 1)
        starts = np.nonzero(new_run)[0]
        ends = np.r_[starts[1:] - 1, len(days) - 1]
        return pd.DataFrame(
            {
                "user_id": users[starts],
                "start_day": days[starts],
                "end_day": days[ends],
                "n_days": (ends - starts + 1).astype("int64"),
            }
        )

    out_schema = pa.schema(
        [
            ("user_id", pa.int64()),
            ("start_day", pa.int64()),
            ("end_day", pa.int64()),
            ("n_days", pa.int64()),
        ]
    )
    return sort_output(
        hash_partitioned(slim, ["user_id"], per_partition, num_partitions),
        ["user_id", "start_day"],
        out_schema,
    )


def events_click_attribution(
    sf_dir: str, window_s: int = 86_400, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Range (band) join** (round 5): for every ``purchase`` event, the
    number of ``click`` events by the same user in the preceding
    ``window_s`` seconds (``c.ts >= p.ts - W AND c.ts < p.ts``) — the
    attribution-window join, the canonical inequality join neither Ray Data
    nor most engines ship natively.

    Scale shape — ONE exchange, fully vectorized, never quadratic: both
    sides hash-partition by ``user_id`` (shipped together as tagged slim
    rows), then each partition runs ONE combined sort-merge rank sweep
    instead of a nested-loop probe: clicks and BOTH probe sets (p.ts and
    p.ts - W) lexsort together by (user, ts, probe-before-click), a cumsum
    of the click indicator gives F_u(t) = #clicks of user u strictly before
    t, and the window count is exactly F_u(p.ts) - F_u(p.ts - W). Cost is
    one O(n log n) lexsort per partition in numpy kernels — no per-user
    Python loop, no composite-key overflow. Skew bound = events of the
    single largest user, the same bound the as-of join and sessionize
    accept.
    """
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def slim(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["event_type"].isin(("purchase", "click"))
        d = df.loc[keep]
        return pd.DataFrame(
            {
                "event_id": d["event_id"].astype("int64"),
                "user_id": d["user_id"].astype("int64"),
                "ts_us": _ts_us(d["ts"]),
                "is_purchase": (d["event_type"] == "purchase").to_numpy(),
            }
        )

    window_us = window_s * _US_PER_S

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series(dtype="int64"),
                "n_clicks": pd.Series(dtype="int64"),
            }
        )
        if len(g) == 0:
            return empty
        p = g[g["is_purchase"]]
        if len(p) == 0:
            return empty
        c = g[~g["is_purchase"]]
        pid = p["event_id"].to_numpy()
        pu = p["user_id"].to_numpy()
        pt = p["ts_us"].to_numpy()
        cu = np.sort(c["user_id"].to_numpy())
        ct = c["ts_us"].to_numpy()
        # clicks of users ordered before each purchase's user (to localize
        # the global cumsum to the user's own block)
        before_user = np.searchsorted(cu, pu, side="left")
        # ONE lexsort over clicks + BOTH probe sets (upper bound p.ts and
        # lower bound p.ts - W together, so the dominant sort is paid once).
        # kind 0 = probe, 1 = click: at equal (user, ts) the probe sorts
        # FIRST, so an equal-ts click is NOT counted — the strict '<' bound.
        npb = len(pu)
        users = np.concatenate([c["user_id"].to_numpy(), pu, pu])
        times = np.concatenate([ct, pt, pt - window_us])
        kind = np.concatenate(
            [np.ones(len(ct), dtype=np.int8), np.zeros(2 * npb, dtype=np.int8)]
        )
        order = np.lexsort((kind, times, users))
        cum = np.cumsum(kind[order] == 1)  # clicks at-or-before each position
        pos_of = np.empty(len(order), dtype=np.int64)
        pos_of[order] = np.arange(len(order))
        probe_pos = pos_of[len(ct):]
        # F_u(t) per probe = clicks anywhere strictly before the probe's
        # position, minus clicks belonging to earlier-sorted users
        f_global = np.where(probe_pos > 0, cum[probe_pos - 1], 0)
        f = f_global - np.concatenate([before_user, before_user])
        n = f[:npb] - f[npb:]  # count in [p.ts - W, p.ts)
        return pd.DataFrame({"event_id": pid, "n_clicks": n.astype("int64")})

    out_schema = pa.schema([("event_id", pa.int64()), ("n_clicks", pa.int64())])
    return sort_output(
        hash_partitioned(
            ds.map_batches(slim, batch_format="pandas"),
            ["user_id"],
            per_partition,
            num_partitions,
        ),
        ["event_id"],
        out_schema,
    )


def events_type_cooccurrence(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Co-occurrence pair counts** (round 5): for every unordered pair of
    event types, the number of (user, day) contexts where BOTH occurred —
    the context-window co-occurrence statistic under association mining and
    embedding pre-training (PMI matrices).

    Scale shape — map-side pre-distinct then ONE exchange: each batch
    reduces to distinct (user, day, type) triples (bounded by
    users x days x |types|, far under event count), one hash exchange by
    ``user_id`` co-locates every context, and the per-partition pair
    expansion is a vectorized self-merge whose output is capped at
    C(|types|, 2) rows per context. Partials are |types|^2-bounded, so the
    driver combine stays a few KB at any corpus size (same contract as
    ``events_type_transitions``).
    """
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])

    def to_triples(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": _ts_us(df["ts"]) // (86_400 * _US_PER_S),
                "event_type": df["event_type"].astype("object"),
            }
        ).drop_duplicates()

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()  # batches may repeat triples across blocks
        m = g.merge(g, on=["user_id", "day"], suffixes=("_a", "_b"))
        m = m[m["event_type_a"] < m["event_type_b"]]
        out = (
            m.groupby(["event_type_a", "event_type_b"], sort=False)
            .size()
            .reset_index(name="n")
            .rename(columns={"event_type_a": "type_a", "event_type_b": "type_b"})
        )
        return out.astype({"n": "int64"})

    parts = hash_partitioned(
        ds.map_batches(to_triples, batch_format="pandas"),
        ["user_id"],
        per_partition,
        num_partitions,
    )
    # |types|^2-bounded combine (NOT corpus-sized): sum partials driver-side
    df = parts.to_pandas()
    if df.empty:
        return pd.DataFrame(
            {
                "type_a": pd.Series(dtype="object"),
                "type_b": pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64"),
            }
        )
    return (
        df.groupby(["type_a", "type_b"], as_index=False)["n"]
        .sum()
        .astype({"n": "int64"})
        .sort_values(["type_a", "type_b"])
        .reset_index(drop=True)
    )


def events_sequence_match(
    sf_dir: str, pattern: str = "v[^p]*p", num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**Sequence pattern matching** (MATCH_RECOGNIZE-lite, round 5 sixth
    batch): per user, the number of non-overlapping matches of a regex over
    the user's event-TYPE sequence in (ts, event_id) order — here
    ``v[^p]*p``: a view eventually followed by a purchase with no purchase
    in between (the conversion-path primitive). Users with zero matches are
    excluded.

    Each event type maps to its (distinct) first letter, so a user's
    history becomes one short string and the pattern engine is a COMPILED
    regex, not a per-event state machine in Python. Scale shape: one
    exchange by the PARTITION BY key (``user_id`` — every user's events
    co-locate), per partition one sort + per-user join/findall (strings are
    per-user sized, never corpus-sized). Non-overlapping leftmost match
    counts agree between Python ``re`` and DuckDB's RE2
    (``regexp_extract_all``) for this pattern class — the greedy
    ``[^p]*`` is bounded by the unique next ``p`` either way.
    """
    import re

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )
    rx = re.compile(pattern)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        letters = g["event_type"].str[:1]
        seq = letters.groupby(g["user_id"]).agg("".join)
        n = seq.map(lambda s: len(rx.findall(s)))
        n = n[n >= 1]
        return pd.DataFrame(
            {
                "user_id": n.index.to_numpy().astype("int64"),
                "n_matches": n.to_numpy().astype("int64"),
            }
        )

    out_schema = pa.schema([("user_id", pa.int64()), ("n_matches", pa.int64())])
    return sort_output(
        hash_partitioned(ds, ["user_id"], per_partition, num_partitions),
        ["user_id"],
        out_schema,
    )


def events_interarrival_stats(
    sf_dir: str, num_partitions: int = 16
) -> pd.DataFrame:
    """**Inter-arrival-time statistics** (round 5 sixth batch): for each
    event type, the count / exact-integer sum / max of the microsecond gaps
    between consecutive events of that type BY THE SAME USER — the arrival
    process summary under rate limiting and anomaly baselines.

    Scale shape: one exchange by ``user_id`` (a (user, type) gap chain
    lives wholly in one partition), one vectorized pass per partition —
    sort by (user, type, ts, event_id), shift-by-one diff with a
    same-(user, type) mask, then a per-type partial (n, sum, max). The
    driver combine is |types| x partitions rows; sums are exact int64 —
    the whole chain (per-partition partials, the pandas driver combine,
    and the int64 output contract shared with the SQL oracle) is 64-bit,
    which is sound because gap microseconds x corpus rows stays far under
    2^63 (a million years of microseconds is ~2^54.8; times are bounded
    by the events table's ts domain).
    """
    ds = read_table(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g, idx = _same_key_lag(g, ["user_id", "event_type"], ["ts", "event_id"])
        ts_us = _ts_us(g["ts"])
        types = g["event_type"].to_numpy()
        gaps = pd.DataFrame(
            {"event_type": types[idx], "gap_us": ts_us[idx] - ts_us[idx - 1]}
        )
        return gaps.groupby("event_type", as_index=False).agg(
            n_gaps=("gap_us", "size"),
            sum_gap_us=("gap_us", "sum"),
            max_gap_us=("gap_us", "max"),
        )

    parts = hash_partitioned(ds, ["user_id"], per_partition, num_partitions)
    df = parts.to_pandas()
    if df.empty:
        return pd.DataFrame(
            {
                "event_type": pd.Series(dtype="object"),
                "n_gaps": pd.Series(dtype="int64"),
                "sum_gap_us": pd.Series(dtype="int64"),
                "max_gap_us": pd.Series(dtype="int64"),
            }
        )
    out = df.groupby("event_type", as_index=False).agg(
        n_gaps=("n_gaps", "sum"),
        sum_gap_us=("sum_gap_us", "sum"),
        max_gap_us=("max_gap_us", "max"),
    )
    return (
        out.astype(
            {"n_gaps": "int64", "sum_gap_us": "int64", "max_gap_us": "int64"}
        )
        .sort_values("event_type")
        .reset_index(drop=True)
    )


def orders_first_last(
    sf_dir: str, num_partitions: int = 16
) -> "ray.data.Dataset | pd.DataFrame":
    """**FIRST_VALUE / LAST_VALUE order-sensitive aggregates** (round 5
    sixth batch): per customer, the price of the chronologically first and
    last order (ties on date break by o_orderkey) plus the order count —
    the endpoint-extraction window form next to the ordinal
    (``orders_rank_in_customer``) and offset (``events_user_lag``) members.

    Scale shape: one exchange by the PARTITION BY key (``o_custkey``), one
    vectorized pass per partition — a single sort by (custkey, date, key)
    makes first/last a grouped head/tail index pick (``searchsorted`` on
    the sorted key gives group boundaries; no per-group Python). Price
    doubles pass through untouched (value picks, not arithmetic), so the
    oracle compare is bit-exact.
    """
    ds = read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
        cust = g["o_custkey"].to_numpy().astype("int64")
        price = g["o_totalprice"].to_numpy()
        # group boundaries on the sorted key: starts/ends without groupby
        uniq, starts = np.unique(cust, return_index=True)
        ends = np.append(starts[1:], len(cust)) - 1
        return pd.DataFrame(
            {
                "o_custkey": uniq,
                "n_orders": (np.append(starts[1:], len(cust)) - starts).astype(
                    "int64"
                ),
                "first_price": price[starts],
                "last_price": price[ends],
            }
        )

    out_schema = pa.schema(
        [
            ("o_custkey", pa.int64()),
            ("n_orders", pa.int64()),
            ("first_price", pa.float64()),
            ("last_price", pa.float64()),
        ]
    )
    return sort_output(
        hash_partitioned(ds, ["o_custkey"], per_partition, num_partitions),
        ["o_custkey"],
        out_schema,
    )
