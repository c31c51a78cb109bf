"""Regression pins for the randomized-input differential campaign
(tools/gen_random_sfdir.py + tools/random_differential.py).

The fixed /root/testdata tables are benign — integral quantities, no
markup in text, pre-normalized whitespace — so the committed oracles never
exercise the semantics pinned here. Each test below pins a REAL divergence
the randomized differential found (seeds 0 and 1) plus a cheap in-suite
smoke so future semantics drift is caught by pytest, not only by the
out-of-band seed sweeps.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))
sys.path.insert(0, REPO)


def test_sql_cast_int_matches_duckdb_cast():
    """DuckDB CAST(double AS BIGINT) is round-half-to-EVEN (rint) — not
    truncation (numpy astype: seed-0 divergence) and not half-away-from-zero
    (SQL round(): seed-1 divergence)."""
    import duckdb

    from html_parser_ray.pipelines.relational import _sql_cast_int

    grid = np.array(
        [0.0, 0.25, 0.5, 0.75, 1.5, 2.5, 3.5, 2.25, 2.75, 49.5,
         -0.5, -1.5, -2.5, -2.75, -0.25]
    )
    con = duckdb.connect()
    oracle = np.array(
        [
            con.execute(f"SELECT CAST({v!r}::DOUBLE AS BIGINT)").fetchone()[0]
            for v in grid
        ],
        dtype=np.int64,
    )
    con.close()
    np.testing.assert_array_equal(_sql_cast_int(grid), oracle)


def test_page_html_escapes_markup_bait():
    """Roundtrip totality over arbitrary text: markup metacharacters must be
    escaped on synthesis or text like 'a<b' / '&amp;' is parsed as markup
    and mangled (seed-0 divergence)."""
    from html_parser_ray.pipelines.text_analysis import (
        _extract_main_text,
        _page_html,
    )

    for t in [
        "a<b",
        "<b>bold</b>",
        "&amp;",
        "&#65;",
        "x&y",
        "&nbsp;",
        "</div>",
        "5 < 6 && 7 > 2",
        "café 漢字 \U0001f600",
    ]:
        assert _extract_main_text(_page_html(t).encode("utf-8")) == t


def test_roundtrip_oracle_is_ws_normalization():
    """The roundtrip oracle's SQL normalization formula must equal the
    engine's HTML whitespace normalization (collapse [ \\n\\r\\t\\f]+ runs,
    drop boundary runs) — verified end-to-end through synthesis+extraction
    AND against the exact SQL string the driver runs."""
    import duckdb

    import __ray_entry__ as entrymod
    from html_parser_ray.pipelines.text_analysis import (
        _extract_main_text,
        _page_html,
    )

    sql = entrymod.oracle_sql()["html_roundtrip_extract"]
    texts = ["", "   ", " a  b ", "a\t\nb", "\fx\f", "a b", "a \t b", " "]
    con = duckdb.connect()
    con.execute("CREATE TABLE documents (doc_id BIGINT, text VARCHAR)")
    con.executemany(
        "INSERT INTO documents VALUES (?, ?)", list(enumerate(texts))
    )
    want = [r[1] for r in con.execute(sql).fetchall()]
    con.close()
    got = [_extract_main_text(_page_html(t).encode("utf-8")) for t in texts]
    assert got == want
    # NBSP is NOT HTML whitespace — it must survive verbatim on both sides
    assert got[-1] == " "


def test_roundtrip_total_over_arbitrary_text():
    """Property: extract(synthesize(t)) == ws_normalize(t) for ARBITRARY
    unicode text — control chars, unicode spaces (which are NOT HTML
    whitespace and must survive verbatim), entities-in-text, astral planes.
    Wider than the seeded generator's word pool."""
    import re

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from html_parser_ray.pipelines.text_analysis import (
        _extract_main_text,
        _page_html,
    )

    ws_run = re.compile(r"[ \n\r\t\f]+")

    def ws_normalize(t: str) -> str:
        return " ".join(x for x in ws_run.split(t) if x)

    # \x00 is excluded: parquet/utf-8 text columns never carry NUL and the
    # tokenizer treats it as a scanner sentinel (documented reference quirk)
    chars = st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00"
    )

    @settings(max_examples=400, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.text(alphabet=chars, max_size=200))
    def prop(t: str) -> None:
        got = _extract_main_text(_page_html(t).encode("utf-8"))
        assert got == ws_normalize(t)

    prop()


def test_fleet_fit_counts_prevents_small_cluster_deadlock():
    """The 0.25-CPU actor fleets must fit the cluster with producer slack —
    8 window shards + 4 feeders (3.0 CPUs) deadlocked a 2-CPU session
    (found by the differential's --num-cpus 2 sweep)."""
    from html_parser_ray.state.fleet import fit_counts

    # window fleet on a 2-CPU node: fits under 2.0 with feeder slack
    s, f = fit_counts([8, 4], frac=0.25, reserve=0.25, cpus=2.0)
    assert s >= 1 and f >= 1
    assert (s + f) * 0.25 <= 2.0 - 0.25 + 1e-9
    # dedup shards on a 2-CPU node: a full CPU stays free for map tasks
    (d,) = fit_counts([8], frac=0.25, reserve=1.0, cpus=2.0)
    assert 1 <= d <= 4
    # big cluster: defaults untouched
    assert fit_counts([8, 4], frac=0.25, reserve=0.25, cpus=32.0) == [8, 4]
    # unknown cluster: passthrough
    assert fit_counts([8, 4], cpus=0.0) == [8, 4]
    # 1-CPU degenerate: never below one actor per group
    s1, f1 = fit_counts([8, 4], frac=0.25, reserve=0.25, cpus=1.0)
    assert s1 >= 1 and f1 >= 1


def test_jaccard_empty_sets_never_pair():
    """0/0 Jaccard pinned to 0.0 — the SQL shingle CTE gives empty docs a
    [NULL] set and NULL never equals NULL (seed-0 divergence)."""
    from html_parser_ray.functions import textfns

    assert textfns.jaccard(set(), set()) == 0.0
    assert textfns.jaccard({"a"}, set()) == 0.0


def test_generator_is_deterministic_and_schema_parity(tmp_path):
    """Same seed -> byte-identical tables; schemas match the committed
    testdata exactly (the oracle contract is schema-sensitive)."""
    import pyarrow.parquet as pq

    from gen_random_sfdir import generate

    a, b = tmp_path / "a", tmp_path / "b"
    generate(3, str(a), 0.1)
    generate(3, str(b), 0.1)
    for name in sorted(os.listdir(a)):
        ta = pq.read_table(a / name)
        tb = pq.read_table(b / name)
        assert ta.equals(tb), name
        real = f"/root/testdata/sf0.001/{name}"
        if os.path.exists(real):
            assert ta.schema.equals(pq.read_schema(real)), (
                f"{name}: {ta.schema} != {pq.read_schema(real)}"
            )


@pytest.mark.usefixtures("ray_session")
def test_differential_smoke_one_seed(tmp_path):
    """In-suite differential smoke: three semantics-sensitive queries
    (aggregate CAST, roundtrip escaping+whitespace, tied top-k) over one
    adversarial seed, written in the SHARDED directory-per-table layout a
    multi-node writer produces (each ``{t}.parquet`` is a dir of part
    files — exercises the file-or-directory reader contract). The full
    83-query × N-seed sweep stays out-of-band
    (tools/random_differential.py); this keeps the harness itself — and the
    divergence classes it found — under pytest."""
    import duckdb

    import __ray_entry__ as entrymod
    from gen_random_sfdir import generate
    from random_differential import (
        TABLES,
        _twin_oracles,
        compare_knn_rank,
        compare_one,
        compare_twin,
    )

    sf_dir = str(tmp_path / "seed1")
    generate(1, sf_dir, 0.15, shards=3)
    assert os.path.isdir(f"{sf_dir}/documents.parquet")
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet/*.parquet')"
        )
    for name in ["q1_pricing_summary", "html_roundtrip_extract",
                 "top_parts_by_price"]:
        msg = compare_one(con, qs, oracles, name, sf_dir)
        assert msg is None, f"{name}: {msg}"
    # the two non-equality check types: approximate-kNN rank consistency
    # (one-sided vs exact float64 cosines) and a serial sketch twin
    msg = compare_knn_rank(con, qs, "lsh_knn_topk", sf_dir)
    assert msg is None, f"lsh_knn_topk: {msg}"
    twins = _twin_oracles()
    msg = compare_twin(qs, twins["events_user_hll"], "events_user_hll", sf_dir)
    assert msg is None, f"events_user_hll: {msg}"
    con.close()


@pytest.mark.usefixtures("ray_session")
def test_differential_split_parity_one_seed():
    """The seed-randomized giant-doc invariant (``split_giant_docs=True``
    output == the DOM oracle per doc, tools/random_differential.py
    check_split_parity) runs in-suite on one seed so the check itself stays
    green under pytest; the fixed-shape pin lives in
    tests/test_pipeline_ray.py."""
    from random_differential import check_split_parity

    msg = check_split_parity(1)
    assert msg is None, msg


@pytest.mark.usefixtures("ray_session")
def test_differential_resume_parity_one_seed():
    """The seed-randomized crash-resume invariant (checkpointed extraction
    with a random lost-manifest subset == direct pipeline, value-exact;
    tools/random_differential.py check_resume_parity) runs in-suite on one
    seed; the fixed-shape pins live in tests/test_checkpoint.py."""
    from random_differential import check_resume_parity

    msg = check_resume_parity(1)
    assert msg is None, msg


@pytest.mark.usefixtures("ray_session")
def test_differential_metrics_parity_one_seed():
    """The seed-randomized extract-stats invariant (stage output must match
    the DOM oracle per doc span-for-span AND an in-process stage's
    ExtractStats must equal input-derived ground truth;
    tools/random_differential.py check_metrics_parity) runs in-suite on one
    seed."""
    from random_differential import check_metrics_parity

    msg = check_metrics_parity(1)
    assert msg is None, msg


@pytest.mark.usefixtures("ray_session")
def test_differential_read_parity_one_seed():
    """The seed-randomized parquet-read invariant (``read_corpus`` ==
    ``pq.read_table`` over a multi-file, multi-row-group corpus of mixed
    string encodings, and the stage over that read == the DOM oracle per
    doc; tools/random_differential.py check_read_parity) runs in-suite on
    one seed."""
    from random_differential import check_read_parity

    msg = check_read_parity(1)
    assert msg is None, msg
