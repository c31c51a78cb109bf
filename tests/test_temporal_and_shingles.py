"""Unit tests for the round-3 operator additions: as-of join, hopping
windows, verbatim shingle dedup, range-join price bands, and Gopher-style
repetition scores — each over tiny planted corpora with hand-computed
expectations (the sf0.01 DuckDB oracles in __ray_entry__ are the scale
check; these pin the semantics)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest


def _df(result):
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    return result


@pytest.fixture(scope="module")
def events_dir(tmp_path_factory):
    base = pd.Timestamp("2024-01-01 10:00:00")

    def t(minutes):
        return base + pd.Timedelta(minutes=minutes)

    rows = [
        # user 1: views at 10:00 (id 1) and 10:30 (ids 2,3 tied -> keep 3)
        (1, t(0), 1, "view", 1.0),
        (2, t(30), 1, "view", 2.0),
        (3, t(30), 1, "view", 3.0),
        # user 1 clicks: before any view, between, and exactly at a view ts
        (10, t(-60), 1, "click", 0.5),
        (11, t(15), 1, "click", 0.25),
        (12, t(30), 1, "click", 0.75),
        # user 2: click with no views at all
        (20, t(5), 2, "click", 1.5),
        # noise type that must be ignored entirely
        (30, t(7), 1, "scroll", 9.0),
    ]
    df = pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value"]
    )
    df["props"] = "{}"
    d = tmp_path_factory.mktemp("events")
    df.to_parquet(d / "events.parquet")
    return str(d)


@pytest.mark.usefixtures("ray_session")
def test_events_asof_join_semantics(events_dir):
    from html_parser_ray.pipelines.temporal import events_asof_join

    out = _df(events_asof_join(events_dir)).set_index("click_id")
    assert list(out.index) == [10, 11, 12, 20]
    # click before any view and view-less user both get the -1 sentinels
    assert out.loc[10, "view_id"] == -1 and out.loc[10, "gap_us"] == -1
    assert out.loc[20, "view_id"] == -1 and out.loc[20, "gap_us"] == -1
    # backward match: 10:15 click -> 10:00 view, gap = 15 min
    assert out.loc[11, "view_id"] == 1
    assert out.loc[11, "gap_us"] == 15 * 60 * 1_000_000
    # tie at 10:30: at-or-before includes the tied view; max id wins the tie
    assert out.loc[12, "view_id"] == 3 and out.loc[12, "gap_us"] == 0


@pytest.mark.usefixtures("ray_session")
def test_events_hopping_counts(events_dir):
    from html_parser_ray.pipelines.temporal import events_hopping_counts

    out = _df(events_hopping_counts(events_dir))
    # every event lands in exactly size/hop = 4 windows
    assert out["n_events"].sum() == 8 * 4
    base_s = int(pd.Timestamp("2024-01-01 10:00:00").timestamp())
    # the 10:00 view (value 1.0) belongs to windows starting 09:15..10:00
    win = out[(out["event_type"] == "view") & (out["win_start_s"] == base_s)]
    assert len(win) == 1
    # windows at 10:00 contain the three views (1.0 + 2.0 + 3.0)
    assert win.iloc[0]["n_events"] == 3
    assert win.iloc[0]["sum_value_cents"] == 600
    # window starting 09:45 still holds the 10:00 view but also 10:30? no:
    # [09:45, 10:45) holds all three views too
    win2 = out[
        (out["event_type"] == "view") & (out["win_start_s"] == base_s - 900)
    ]
    assert win2.iloc[0]["n_events"] == 3
    # a window fully before the views holds only none of them
    assert not (
        (out["event_type"] == "view") & (out["win_start_s"] < base_s - 2700)
    ).any()


@pytest.fixture(scope="module")
def shingle_docs_dir(tmp_path_factory):
    sent = "the quick brown fox jumps over"
    rows = [
        {"doc_id": 1, "text": f"alpha beta {sent} gamma delta"},
        {"doc_id": 2, "text": f"unrelated words here {sent} trailing tail"},
        {"doc_id": 3, "text": "short doc"},  # < 5 words: no shingles
        # repeated 5-gram within ONE doc only -> filtered by min_docs
        {"doc_id": 4, "text": "x y z w v x y z w v"},
    ]
    df = pd.DataFrame(rows)
    df = df.assign(lang="en", source="syn", n_chars=df["text"].str.len())
    d = tmp_path_factory.mktemp("shingles")
    df.to_parquet(d / "documents.parquet")
    return str(d)


@pytest.mark.usefixtures("ray_session")
def test_shingle_dupes_planted(shingle_docs_dir):
    from html_parser_ray.pipelines.dedup import shingle_dupes

    out = _df(shingle_dupes(shingle_docs_dir))
    # the shared sentence has two full 5-gram windows, both in docs 1 and 2
    shared = out[out["shingle"] == "the quick brown fox jumps"]
    assert len(shared) == 1
    assert shared.iloc[0]["n_docs"] == 2
    assert shared.iloc[0]["n_occurrences"] == 2
    # every surviving shingle is cross-document by construction
    assert (out["n_docs"] >= 2).all()
    # doc 4's intra-doc repeat must NOT survive (one doc only)
    assert not out["shingle"].str.startswith("x y").any()


@pytest.mark.usefixtures("ray_session")
def test_part_price_band_stats_boundaries(tmp_path_factory):
    from html_parser_ray.pipelines.relational import part_price_band_stats

    prices = [100.0, 949.99, 950.0, 1049.99, 1050.0, 1599.99, 1600.0, 2000.0]
    df = pd.DataFrame(
        {
            "p_partkey": range(1, len(prices) + 1),
            "p_name": "n",
            "p_brand": "b",
            "p_type": "t",
            "p_size": np.int32(1),
            "p_retailprice": prices,
        }
    )
    d = tmp_path_factory.mktemp("parts")
    df.to_parquet(d / "part.parquet")
    out = _df(part_price_band_stats(str(d))).set_index("band_id")
    # half-open bands: 950.0 belongs to band 1, 1050.0 to band 2, 1600 to 4
    assert out.loc[0, "n_parts"] == 2  # 100, 949.99
    assert out.loc[1, "n_parts"] == 2  # 950.0, 1049.99
    assert out.loc[2, "n_parts"] == 1  # 1050.0 only ([1050, 1250))
    assert out.loc[3, "n_parts"] == 1  # 1599.99 ([1250, 1600))
    assert out.loc[0, "sum_price_cents"] == 10_000 + 94_999
    assert out.loc[4, "n_parts"] == 2  # 1600.0, 2000.0
    assert (out["lo"] < out["hi"]).all()


@pytest.mark.usefixtures("ray_session")
def test_doc_repetition_stats_exact(tmp_path_factory):
    from html_parser_ray.pipelines.text_analysis import doc_repetition_stats

    rows = [
        {"doc_id": 1, "text": "a a a b"},
        {"doc_id": 2, "text": "solo"},
        {"doc_id": 3, "text": "u v w x y"},
    ]
    df = pd.DataFrame(rows)
    df = df.assign(lang="en", source="syn", n_chars=df["text"].str.len())
    d = tmp_path_factory.mktemp("rep")
    df.to_parquet(d / "documents.parquet")
    out = _df(doc_repetition_stats(str(d))).set_index("doc_id")
    # doc 1: words [a,a,a,b]; bigrams [a a, a a, a b]
    assert out.loc[1, "n_words"] == 4
    assert out.loc[1, "n_distinct"] == 2
    assert out.loc[1, "top_word"] == 3
    assert out.loc[1, "top_bigram"] == 2
    assert out.loc[1, "top_word_ppm"] == 750_000
    assert out.loc[1, "top_bigram_ppm"] == (2 * 1_000_000) // 3
    # single-word doc: no bigrams, ppm floor-divides safely to 0
    assert out.loc[2, "n_words"] == 1 and out.loc[2, "top_bigram_ppm"] == 0
    # all-distinct doc
    assert out.loc[3, "distinct_ppm"] == 1_000_000
    assert out.loc[3, "top_bigram"] == 1


@pytest.mark.usefixtures("ray_session")
def test_events_props_key_stats(tmp_path_factory):
    from html_parser_ray.pipelines.relational import events_props_key_stats

    df = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4],
            "ts": pd.Timestamp("2024-01-01"),
            "user_id": 1,
            "event_type": ["a", "a", "b", "b"],
            "value": 1.0,
            "props": ['{"k": 5}', '{"k": -2}', '{"k": 7}', "{}"],
        }
    )
    d = tmp_path_factory.mktemp("props")
    df.to_parquet(d / "events.parquet")
    out = _df(events_props_key_stats(str(d))).set_index("event_type")
    assert out.loc["a", "n_events"] == 2
    assert out.loc["a", "sum_k"] == 3
    assert out.loc["a", "min_k"] == -2 and out.loc["a", "max_k"] == 5
    # the field-less row is excluded from the rollup
    assert out.loc["b", "n_events"] == 1 and out.loc["b", "sum_k"] == 7


@pytest.mark.usefixtures("ray_session")
def test_top_suppliers_per_nation_ties(tmp_path_factory):
    from html_parser_ray.pipelines.relational import top_suppliers_per_nation

    sup = pd.DataFrame(
        {
            "s_suppkey": [1, 2, 3, 4, 5],
            "s_nationkey": np.int64([0, 0, 0, 0, 1]),
            "s_acctbal": [50.0, 99.99, 99.99, 10.0, 7.5],
        }
    )
    nat = pd.DataFrame({"n_nationkey": np.int64([0, 1]), "n_name": ["X", "Y"]})
    d = tmp_path_factory.mktemp("sup")
    sup.to_parquet(d / "supplier.parquet")
    nat.to_parquet(d / "nation.parquet")
    out = _df(top_suppliers_per_nation(str(d), k=3))
    x = out[out["n_name"] == "X"].sort_values("rank")
    # tie at 99.99: lower suppkey ranks first; k=3 cuts suppkey 4
    assert list(x["s_suppkey"]) == [2, 3, 1]
    assert list(x["acctbal_cents"]) == [9999, 9999, 5000]
    y = out[out["n_name"] == "Y"]
    assert list(y["s_suppkey"]) == [5] and list(y["rank"]) == [1]


@pytest.mark.usefixtures("ray_session")
def test_tfidf_top_terms_planted(tmp_path_factory):
    from html_parser_ray.pipelines.text_analysis import tfidf_top_terms

    rows = [
        {"doc_id": 1, "text": "common rare1 common common"},
        {"doc_id": 2, "text": "common rare2"},
        {"doc_id": 3, "text": "common common"},
    ]
    df = pd.DataFrame(rows)
    df = df.assign(lang="en", source="syn", n_chars=df["text"].str.len())
    d = tmp_path_factory.mktemp("tfidf")
    df.to_parquet(d / "documents.parquet")
    out = _df(tfidf_top_terms(str(d), top_k=2))
    d1 = out[out["doc_id"] == 1].sort_values("rank")
    # doc 1: common tf=3 df=3 -> 1M; rare1 tf=1 df=1 -> 1M; tie -> term asc
    assert list(d1["term"]) == ["common", "rare1"]
    assert list(d1["score_ppm"]) == [1_000_000, 1_000_000]
    d2 = out[out["doc_id"] == 2].sort_values("rank")
    # doc 2: rare2 1M beats common tf=1/df=3
    assert list(d2["term"]) == ["rare2", "common"]
    assert d2["score_ppm"].tolist() == [1_000_000, 333_333]
    assert (out.groupby("doc_id")["rank"].max() <= 2).all()


@pytest.mark.usefixtures("ray_session")
def test_doc_hash_sample_deterministic(tmp_path_factory):
    import hashlib

    from html_parser_ray.pipelines.text_analysis import doc_hash_sample

    df = pd.DataFrame({"doc_id": range(200), "text": "word " * 5})
    df = df.assign(lang="en", source="syn", n_chars=df["text"].str.len())
    d = tmp_path_factory.mktemp("sample")
    df.to_parquet(d / "documents.parquet")
    out = _df(doc_hash_sample(str(d), rate_pct=10))
    expect = {
        i
        for i in range(200)
        if int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100 < 10
    }
    assert set(out["doc_id"]) == expect
    assert (out["bucket"] < 10).all()
    # repartitioning the corpus cannot change any doc's fate (recompute equal)
    out2 = _df(doc_hash_sample(str(d), rate_pct=10))
    assert out.equals(out2)


@pytest.mark.usefixtures("ray_session")
def test_curated_corpus_composition(tmp_path_factory):
    import hashlib

    from html_parser_ray.pipelines.curation import curated_corpus

    def bucket(i):
        return int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100

    long = "tok " * 50  # 51 tokens (trailing empty token counts)
    # pick ids with known sample fate under a 50% cut
    under = [i for i in range(100) if bucket(i) < 50]
    over = [i for i in range(100) if bucket(i) >= 50]
    dup_a, dup_b = sorted([under[0], over[0]])
    rows = [
        # duplicate content: keeper is min(doc_id); the OTHER copy must not
        # resurface even if its own bucket would pass the sample cut
        {"doc_id": dup_a, "text": long},
        {"doc_id": dup_b, "text": long},
        # unique + long + in-sample -> kept
        {"doc_id": under[1], "text": long + "x"},
        # unique + long + out-of-sample -> cut
        {"doc_id": over[1], "text": long + "y"},
        # unique + short + in-sample -> cut by quality floor
        {"doc_id": under[2], "text": "too short"},
    ]
    df = pd.DataFrame(rows)
    df = df.assign(lang="en", source="syn", n_chars=df["text"].str.len())
    d = tmp_path_factory.mktemp("curate")
    df.to_parquet(d / "documents.parquet")
    out = _df(curated_corpus(str(d), min_tokens=40, sample_pct=50))
    expect = {dup_a} if bucket(dup_a) < 50 else set()
    expect |= {under[1]}
    assert set(out["doc_id"]) == expect
    assert (out["n_tokens"] >= 40).all() and (out["bucket"] < 50).all()


@pytest.mark.usefixtures("ray_session")
def test_events_funnel_counts(events_dir):
    from html_parser_ray.pipelines.temporal import events_funnel_counts

    out = _df(events_funnel_counts(events_dir)).set_index("step")
    # only user 1 has views; their first view is 10:00 and they click at
    # 10:15 and 10:30 (within the hour) -> converted. The 09:00 click
    # precedes the first view and must not count; user 2 never entered.
    assert out.loc["view", "n_users"] == 1
    assert out.loc["click", "n_users"] == 1
    # shrinking the window below 15 min drops the conversion
    tight = _df(
        events_funnel_counts(events_dir, within_s=600)
    ).set_index("step")
    assert tight.loc["view", "n_users"] == 1
    assert tight.loc["click", "n_users"] == 0


def test_same_key_lag_pairs_null_keys_like_partition_by():
    """NULL keys form one partition, as in SQL ``PARTITION BY``: the lag
    pairs must equal DuckDB's ``LAG ... OVER (PARTITION BY ...)``."""
    import duckdb

    from html_parser_ray.pipelines.temporal import _same_key_lag

    frame = pd.DataFrame(
        {
            "event_id": np.arange(10),
            "user_id": [1.0, np.nan, 1.0, np.nan, 2.0, np.nan, 1.0, np.nan, np.nan, 2.0],
            "event_type": ["a", None, "a", "b", None, None, "b", None, "a", None],
            "ts": [5, 3, 1, 4, 2, 9, 7, 1, 6, 8],
        }
    )
    for keys in (["user_id"], ["user_id", "event_type"]):
        g, idx = _same_key_lag(frame, keys, ["ts", "event_id"])
        ids = g["event_id"].to_numpy()
        got = sorted(zip(ids[idx - 1].tolist(), ids[idx].tolist()))
        part = ", ".join(keys)
        want = sorted(
            duckdb.sql(
                f"SELECT prev, event_id FROM (SELECT event_id, LAG(event_id) "
                f"OVER (PARTITION BY {part} ORDER BY ts, event_id) AS prev "
                f"FROM frame) WHERE prev IS NOT NULL"
            ).fetchall()
        )
        assert got == want, keys
        # NULL-keyed rows really pair (the case the fix is about)
        assert any(np.isnan(frame.loc[b, "user_id"]) for _, b in got)
