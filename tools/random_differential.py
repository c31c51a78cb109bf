"""Randomized-input differential: sweep the oracle contract over seeded
adversarial testdata (tools/gen_random_sfdir.py) and compare the Ray side
against the DuckDB oracle side on EVERY pure-SQL query.

The fixed /root/testdata tables are benign (no ties, no boundary
timestamps, no empty groups, no markup in text). This harness is the
adversarial twin: any divergence it finds on data the committed oracles
never exercise is a real semantics bug or an under-pinned tiebreak.

Golden-backed queries whose committed parquet encodes sf0.01 are covered
via their SERIAL TWINS instead (gen_goldens.py / independent_twins.py
recompute the expected frame on the random dir): langid_counts,
doc_fingerprints, minhash_lsh_dupes, simhash_dupes, events_user_hll,
ngram_topk_cms. The approximate kNN paths (lsh_knn_topk, ivf_knn_topk)
get a ONE-SIDED rank-consistency check: recall may drop on adversarial
data, but every returned (query, neighbor, rank) must order exactly by
(true float64 cosine DESC, neighbor_id) with contiguous ranks and no
self-matches — the bug class the r5 gemv divergence lived in. Still
excluded: extract_corpus* and media_* (fixed seeded corpora, not
sf-dependent).

Full sweeps additionally run five seed-randomized ENGINE INVARIANTS over
a per-seed random corpus (independent of the sf_dir tables). The DOM
oracle is ``SpanExtractor(layout_memo=False)`` with ``layout._native =
None``: HTML through the DOM, layout with no memo and no native PDF path.
``corpus_split_parity`` (a giant-doc corpus under ``split_giant_docs=True``
== the DOM oracle per doc), ``checkpoint_resume_parity`` (crash-resume
with a random lost-manifest subset == direct pipeline, value-exact),
``extract_stats_parity`` (stage output == the DOM oracle per doc, and an
in-process stage's ``ExtractStats`` == input-derived ground truth),
``span_encoding_parity`` (the corpus with its ``spans`` fields re-typed to
large strings, dictionaries and large lists == the DOM oracle per doc), and
``read_parity`` (a multi-file, multi-row-group corpus of mixed string
encodings: ``read_corpus`` == ``pq.read_table`` row for row, also read file
by file with random ``parts``, each row's ``part`` its file's; and the stage
over that read == the DOM oracle per doc).

Usage:
    python tools/random_differential.py --seeds 0 1 2 3 --scale 0.4
    python tools/random_differential.py --nseeds 10 [--queries a b c]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

import duckdb
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from gen_random_sfdir import generate  # noqa: E402

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()

# golden-backed: the oracle is a committed sf0.01 parquet, meaningless on
# random input
GOLDEN = {
    "extract_corpus",
    "extract_corpus_split",
    "langid_counts",
    "ngram_topk_cms",
    "events_user_hll",
    "doc_fingerprints",
    "minhash_lsh_dupes",
    "simhash_dupes",
    "media_image_features",
    "media_audio_features",
    "media_frame_samples",
    "media_layout_features",
}

# Approximate kNN: recall on adversarial data is not contractual, but the
# emitted ranking must be internally exact — see compare_knn_rank.
APPROX_RANK = {"lsh_knn_topk", "ivf_knn_topk"}

# Approximate-by-design on adversarial data: their equality oracles hold
# only when LSH recall is total (true on the committed sf0.01 corpus, where
# clusters are threshold-separated; documented at the oracle definitions).
# dedup_clusters_lsh gets the one-sided FALSE-MERGE check below instead of
# equality: imperfect recall can only SPLIT exact components, never merge
# docs that the exact pair graph leaves disconnected.
APPROX_SKIP: set = set()

# One-sided oracles: false positives are ALWAYS bugs (each op ends in an
# exact verify), so on random data assert mine ⊆ exact-pairs-SQL even though
# equality may legitimately fail on recall. Maps query -> the exact twin
# whose oracle_sql defines the superset.
SUBSET = {
    "embedding_neardup_lsh": "embedding_neardup_pairs",
}

# Streaming ingest queries contractually require per-feeder BOUNDED
# DISORDER (event time regresses at most lateness_s within a partition —
# the ordering guarantee a log source provides). The generator deliberately
# shuffles row order, which violates that contract and now raises a
# deterministic ValueError (it used to be a scheduling race on the drop
# count — found by seeds 9002/9003). Run these on a TIME-SORTED events twin
# instead: identical relation (the SQL oracle result is unchanged), only
# the physical order is normalized to what any streaming ingest layer
# guarantees — the adversarial VALUES (hot keys, hour-boundary bait,
# duplicate (user, ts) pairs, exact-gap pairs) still flow through.
STREAM_SORTED = {"streaming_hopping_counts"}


def _sorted_events_twin(sf_dir: str) -> str:
    """Materialize ``{sf_dir}-stream/events.parquet`` with events sorted by
    ts, preserving the source's sharded-directory layout (range-contiguous
    shards, name-ordered by time — exercising the one-file-per-feeder
    assignment path in-contract)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    twin = f"{sf_dir}-stream"
    ev_out = os.path.join(twin, "events.parquet")
    if os.path.exists(ev_out):
        return twin
    src = os.path.join(sf_dir, "events.parquet")
    t = pads.dataset(src, format="parquet").to_table()
    t = t.sort_by("ts")
    if os.path.isdir(src):
        nshards = len(
            [f for f in os.listdir(src) if f.endswith(".parquet")]
        )
        os.makedirs(ev_out, exist_ok=True)
        per = -(-t.num_rows // nshards)
        for i in range(nshards):
            pq.write_table(
                t.slice(i * per, per), f"{ev_out}/part-{i:03d}.parquet"
            )
    else:
        os.makedirs(twin, exist_ok=True)
        pq.write_table(t, ev_out)
    return twin


def _dom_oracle_spans(t) -> dict:
    """doc_id -> the DOM oracle's spans, one doc at a time."""
    from html_parser_ray.extract.extractor import SpanExtractor

    oracle = SpanExtractor(layout_memo=False)
    oracle.layout._native = None
    return {
        row["doc_id"]: oracle.extract_document(row["spans"]) for row in t.to_pylist()
    }


def _diff_oracle(rows, expected: dict, where: str) -> str | None:
    """The first doc whose pipeline spans differ from ``expected``, if any."""
    got = {r["doc_id"]: [dict(s) for s in r["spans_out"]] for r in rows}
    if set(got) != set(expected) or len(rows) != len(expected):
        return f"doc set mismatch: {len(expected)} input vs {len(rows)} out"
    for k in sorted(expected):
        if got[k] != expected[k]:
            return f"spans_out diverge from the DOM oracle for {k} ({where})"
    return None


def check_split_parity(seed: int) -> str | None:
    """Giant-doc ENGINE INVARIANT: a corpus with giant docs extracts, under
    ``split_giant_docs=True`` (accepted, and the same plan as the default),
    to the DOM oracle's spans per doc. The committed test pins it at ONE
    corpus shape (seed 42, 12 docs, tests/test_pipeline_ray.py); here it
    runs per differential seed over a RANDOMIZED corpus — doc count,
    giant-doc cadence/size/span-count and batch size all drawn from the
    seed."""
    import numpy as np
    import ray.data

    from html_parser_ray.pipelines.extraction import build_extraction_pipeline
    from html_parser_ray.sources.corpus import generate_documents

    rng = np.random.RandomState(seed % (2**31))
    n = int(rng.randint(30, 80))
    t = generate_documents(
        n,
        seed=seed,
        giant_doc_every=int(rng.randint(3, 9)),
        giant_doc_html_bytes=int(rng.choice([20_000, 60_000, 150_000])),
        giant_doc_spans=int(rng.choice([24, 60, 150])),
    )
    bs = int(rng.choice([2, 5, 16, 64]))
    rows = build_extraction_pipeline(
        ray.data.from_arrow(t), split_giant_docs=True, batch_size=bs
    ).take_all()
    return _diff_oracle(rows, _dom_oracle_spans(t), f"n={n}, batch_size={bs}")


def check_resume_parity(seed: int) -> str | None:
    """Crash-resume ENGINE INVARIANT: a checkpointed extraction that loses
    a random subset of its partition manifests and resumes must produce the
    same output, span-for-span, as the direct (non-checkpointed) pipeline
    over the same corpus. The committed tests pin this at one shape and
    compare doc_ids only after a crash (tests/test_checkpoint.py); here the
    corpus, file/partition geometry, the crash set and each run's extract
    ``concurrency`` (None, 1 or 2: the fused extract->write task at every
    cap) are all seed-drawn, and the comparison is value-exact."""
    import tempfile

    import numpy as np
    import ray.data

    from html_parser_ray.pipelines.extraction import build_extraction_pipeline
    from html_parser_ray.sources.corpus import generate_documents, write_corpus_parquet
    from html_parser_ray.state.checkpoint import (
        completed_partitions,
        read_extraction_output,
        run_resumable_extraction,
    )

    rng = np.random.RandomState((seed ^ 0x5E5) % (2**31))
    n = int(rng.randint(30, 80))
    num_parts = int(rng.choice([3, 4, 6]))
    with tempfile.TemporaryDirectory(prefix="rdiff_resume_") as td:
        inp, out = os.path.join(td, "corpus"), os.path.join(td, "out")
        write_corpus_parquet(
            inp, n, seed=seed, rows_per_file=int(rng.choice([7, 20, 64]))
        )
        run_resumable_extraction(
            inp, out, num_partitions=num_parts,
            wave_size=int(rng.choice([2, num_parts])), batch_size=16,
            concurrency=[None, 1, 2][rng.randint(3)],
        )
        # crash: lose a random nonempty proper subset of the manifests
        lost = rng.choice(
            num_parts, size=int(rng.randint(1, num_parts)), replace=False
        )
        for p in lost:
            os.remove(os.path.join(out, "_manifest", f"part-{p}.json"))
        res = run_resumable_extraction(
            inp, out, num_partitions=num_parts,
            wave_size=int(rng.choice([2, num_parts])), batch_size=16,
            concurrency=[None, 1, 2][rng.randint(3)],
        )
        if res["partitions_done"] != len(lost):
            return (
                f"resume redid {res['partitions_done']} partitions, "
                f"expected {len(lost)}"
            )
        if completed_partitions(out) != set(range(num_parts)):
            return "incomplete manifest set after resume"
        resumed = read_extraction_output(out).take_all()
        direct = build_extraction_pipeline(
            ray.data.from_arrow(generate_documents(n, seed=seed)),
            batch_size=16,
        ).take_all()
    d1 = {r["doc_id"]: r["spans_out"] for r in direct}
    d2 = {r["doc_id"]: r["spans_out"] for r in resumed}
    if set(d1) != set(d2):
        return f"doc set mismatch: {len(d1)} direct vs {len(d2)} resumed"
    for k in sorted(d1):
        if d1[k] != d2[k]:
            return f"spans_out diverge for {k} (n={n}, parts={num_parts})"
    return None


def check_metrics_parity(seed: int) -> str | None:
    """Extract-stats ENGINE INVARIANT, on a random corpus shape: (a) every
    doc's spans from the Ray stage equal the DOM oracle's, and (b) an
    in-process ``ExtractSpansBatch`` run over the same table at the same
    batch size counts, in its ``ExtractStats``, what the input and output
    give: docs, batches, spans_in == input spans, html_bytes == UTF-8 bytes
    of the html spans, spans_out == spans emitted, parse_errors == 0."""
    import numpy as np
    import ray.data

    from html_parser_ray.pipelines.extraction import build_extraction_pipeline
    from html_parser_ray.sources.corpus import generate_documents
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    rng = np.random.RandomState((seed ^ 0x3A7) % (2**31))
    n = int(rng.randint(25, 60))
    t = generate_documents(n, seed=seed)
    bs = int(rng.choice([3, 8, 32]))
    rows = build_extraction_pipeline(ray.data.from_arrow(t), batch_size=bs).take_all()
    msg = _diff_oracle(rows, _dom_oracle_spans(t), f"n={n}, batch_size={bs}")
    if msg is not None:
        return msg
    stage = ExtractSpansBatch()
    for lo in range(0, n, bs):
        stage(t.slice(lo, bs))
    docs = t.to_pylist()
    truth = {
        "batches": -(-n // bs),
        "docs": n,
        "spans_in": sum(len(d["spans"]) for d in docs),
        "spans_out": sum(len(r["spans_out"]) for r in rows),
        "html_bytes": sum(
            len(s["text"].encode("utf-8"))
            for d in docs
            for s in d["spans"]
            if s["kind"] == "html" and s["text"] is not None
        ),
        "parse_errors": 0,
    }
    for name, want in truth.items():
        got = getattr(stage.extractor.stats, name)
        if got != want:
            return f"ExtractStats.{name} {got} != {want} (n={n}, batch_size={bs})"
    return None


def check_encoding_parity(seed: int) -> str | None:
    """Span-encoding ENGINE INVARIANT: the corpus with its ``spans`` column
    re-typed as columnar readers deliver it (Lance writes large strings and
    large lists and may dictionary-encode a string field) extracts, through
    the Ray stage, to the DOM oracle's spans per doc, in every encoding.
    Corpus size and batch size are drawn from the seed."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from html_parser_ray.pipelines.extraction import build_extraction_pipeline
    from html_parser_ray.sources.corpus import SPAN_STRUCT, generate_documents

    def span_struct(**types) -> pa.StructType:
        return pa.struct([(f.name, types.get(f.name, f.type)) for f in SPAN_STRUCT])

    large, dict32 = pa.large_string(), pa.dictionary(pa.int32(), pa.string())
    encodings = {
        "large_string": pa.list_(span_struct(text=large, media_ref=large)),
        "dictionary": pa.list_(span_struct(kind=dict32, media_ref=dict32)),
        "large_list+dictionary": pa.large_list(
            span_struct(
                kind=pa.dictionary(pa.int8(), pa.string()),
                text=pa.dictionary(pa.int32(), large),
                media_ref=large,
            )
        ),
    }
    rng = np.random.RandomState((seed ^ 0xE7C) % (2**31))
    n = int(rng.randint(25, 60))
    t = generate_documents(n, seed=seed)
    bs = int(rng.choice([3, 8, 32]))
    expected = _dom_oracle_spans(t)
    for name, enc in encodings.items():
        retyped = t.set_column(
            t.schema.get_field_index("spans"), "spans", t.column("spans").cast(enc)
        )
        rows = build_extraction_pipeline(
            ray.data.from_arrow(retyped), batch_size=bs
        ).take_all()
        msg = _diff_oracle(rows, expected, f"n={n}, batch_size={bs}")
        if msg is not None:
            return f"{name}: {msg}"
    return None


def check_read_parity(seed: int) -> str | None:
    """Parquet-read ENGINE INVARIANT: a random corpus cut into 2-6 files of
    seed-drawn row-group sizes, each file storing the span strings as
    ``string`` or ``large_string`` (both occur; at times one empty file
    follows), reads through ``read_corpus`` to what ``pq.read_table``
    reads, row for row (both cast to the first file's types), also when the
    files are given one by one with random ``parts``, where every row's
    ``part`` must be its file's; and the extract stage over that read
    equals the DOM oracle per doc."""
    import tempfile

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from html_parser_ray.pipelines.extraction import build_extraction_pipeline, read_corpus
    from html_parser_ray.sources.corpus import SPAN_STRUCT, generate_documents

    rng = np.random.RandomState((seed ^ 0x8EAD) % (2**31))
    n = int(rng.randint(30, 90))
    t = generate_documents(n, seed=seed)
    large = pa.schema(
        [
            ("doc_id", pa.string()),
            (
                "spans",
                pa.list_(
                    pa.struct(
                        [
                            (f.name, pa.large_string() if f.type == pa.string() else f.type)
                            for f in SPAN_STRUCT
                        ]
                    )
                ),
            ),
        ]
    )
    n_files = int(rng.randint(2, 7))
    cuts = [0, *sorted(int(c) for c in rng.choice(np.arange(1, n), n_files - 1, replace=False)), n]
    bs = int(rng.choice([4, 16, 64]))
    # at least one file of each encoding
    is_large = rng.rand(n_files) < 0.5
    if is_large.all() or not is_large.any():
        is_large[int(rng.randint(1, n_files))] ^= True
    with tempfile.TemporaryDirectory(prefix="rdiff_read_") as td:
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            part = t.slice(lo, hi - lo)
            if is_large[i]:
                part = part.cast(large)
            pq.write_table(
                part, os.path.join(td, f"part-{i:02d}.parquet"),
                row_group_size=int(rng.choice([3, 8, 25])),
            )
        if rng.rand() < 0.5:
            pq.write_table(t.slice(0, 0), os.path.join(td, f"part-{n_files:02d}.parquet"))
        want = pq.read_table(td).sort_by("doc_id")
        got = pa.concat_tables(ray.get(read_corpus(td).to_arrow_refs()))
        if not got.sort_by("doc_id").equals(want):
            return f"read_corpus != pq.read_table (n={n}, files={n_files})"
        # the same files given one by one, each with a random part
        files = sorted(os.path.join(td, f) for f in os.listdir(td))
        parts = [int(p) for p in rng.randint(-(2**31), 2**31, len(files))]
        ids = t.column("doc_id").to_pylist()
        want_part = {d: parts[i] for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])) for d in ids[lo:hi]}
        tagged = pa.concat_tables(ray.get(read_corpus(files, parts=parts).to_arrow_refs()))
        if not tagged.drop_columns(["part"]).sort_by("doc_id").equals(want):
            return f"read_corpus(parts=...) != pq.read_table (n={n}, files={n_files})"
        got_part = dict(zip(tagged.column("doc_id").to_pylist(), tagged.column("part").to_pylist()))
        if got_part != want_part:
            return f"a row's part is not its file's (n={n}, files={n_files}, parts={parts})"
        rows = build_extraction_pipeline(read_corpus(td), batch_size=bs).take_all()
    return _diff_oracle(
        rows, _dom_oracle_spans(t), f"n={n}, files={n_files}, batch_size={bs}"
    )


# Golden-backed queries whose committed oracle is meaningless on random
# input, but whose SERIAL TWIN (tools/gen_goldens.py — the same function
# that produced the committed golden) can recompute the expected frame on
# any documents.parquet. Equality against the twin on adversarial data is
# the same evidence class as the committed golden, just input-parametric.
def _twin_oracles():
    from gen_goldens import (
        gen_doc_fingerprints,
        gen_langid_counts,
        gen_minhash_lsh,
        gen_simhash,
    )
    from independent_twins import cms_topk_estimates, hll_estimate_users

    def _read(d: str, table: str, columns: list) -> pd.DataFrame:
        import pyarrow.dataset as pads

        return (
            pads.dataset(os.path.join(d, f"{table}.parquet"))
            .to_table(columns=columns)
            .to_pandas()
        )

    def _hll(d: str) -> pd.DataFrame:
        ev = _read(d, "events", ["event_type", "user_id"])
        return (
            hll_estimate_users(ev)
            .sort_values("event_type")
            .reset_index(drop=True)
        )

    def _cms(d: str) -> pd.DataFrame:
        return cms_topk_estimates(_read(d, "documents", ["doc_id", "text"]))

    return {
        "langid_counts": lambda d: gen_langid_counts(sf_dir=d),
        "doc_fingerprints": lambda d: gen_doc_fingerprints(sf_dir=d),
        "minhash_lsh_dupes": lambda d: gen_minhash_lsh(sf_dir=d),
        "simhash_dupes": lambda d: gen_simhash(sf_dir=d),
        "events_user_hll": _hll,
        "ngram_topk_cms": _cms,
    }


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(result, (ray.data.Dataset, pa.Table)):
        return result.to_pandas()
    return result


def compare_subset(con, qs, oracles, name: str, sf_dir: str) -> str | None:
    """One-sided check: every pair the approximate op emits must be in the
    exact twin's oracle result (sorted two-column pair sets)."""
    mine = _to_pandas(qs[name](sf_dir)).reset_index(drop=True)
    oracle = con.execute(oracles[SUBSET[name]]).df().reset_index(drop=True)
    ms = set(map(tuple, mine[sorted(mine.columns)].values))
    os_ = set(map(tuple, oracle[sorted(oracle.columns)].values))
    extra = ms - os_
    if extra:
        return f"{len(extra)} false-positive pairs: {sorted(extra)[:5]}"
    return None


def compare_lsh_clusters(con, qs, oracles, sf_dir: str) -> str | None:
    """One-sided clustering check: every multi-member LSH cluster must lie
    inside ONE connected component of the EXACT jaccard pair graph
    (union-find over the ngram_jaccard_dupes oracle result). Recall misses
    split components — legitimate on adversarial data; merges across
    components are always bugs (each candidate pair ends in an exact
    verify, so a false pair can only come from a broken verify or a broken
    label propagation)."""
    mine = _to_pandas(qs["dedup_clusters_lsh"](sf_dir)).reset_index(drop=True)
    pairs = con.execute(oracles["ngram_jaccard_dupes"]).df()
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(pairs["doc_a"], pairs["doc_b"]):
        parent[find(int(a))] = find(int(b))
    bad = []
    for cid, grp in mine.groupby("cluster_id"):
        ids = grp["doc_id"].tolist()
        if len(ids) > 1 and len({find(int(d)) for d in ids}) > 1:
            bad.append(int(cid))
    if bad:
        return f"{len(bad)} false-merged clusters: {bad[:5]}"
    return None


def compare_knn_rank(con, qs, name: str, sf_dir: str) -> str | None:
    """One-sided check for approximate kNN: whatever candidate set the
    LSH/IVF probe surfaced, the emitted (rank) ordering must be EXACTLY the
    (float64 cosine DESC, neighbor_id ASC) ordering of that set, with
    contiguous 1..m ranks, distinct neighbors, and no self-matches.
    Recall losses are legitimate on adversarial data (probe geometry), but
    any scoring or tie-break slip is a bug — the class the round-5 gemv
    partial-sum divergence lived in."""
    mine = _to_pandas(qs[name](sf_dir)).reset_index(drop=True)
    if (mine["query_id"] == mine["neighbor_id"]).any():
        return "self-match emitted"
    for qid, grp in mine.groupby("query_id"):
        ranks = sorted(grp["rank"].tolist())
        if ranks != list(range(1, len(grp) + 1)):
            return f"query {qid}: ranks not contiguous ({ranks[:12]})"
        if grp["neighbor_id"].nunique() != len(grp):
            return f"query {qid}: duplicate neighbors"
    con.register("knn_pairs", mine)
    scored = con.execute(
        'SELECT p.query_id, p.neighbor_id, p."rank" AS r, '
        "list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), "
        "CAST(b.embedding AS DOUBLE[])) AS cosine "
        "FROM knn_pairs p "
        "JOIN embeddings a ON a.vec_id = p.query_id "
        "JOIN embeddings b ON b.vec_id = p.neighbor_id"
    ).df()
    con.unregister("knn_pairs")
    if len(scored) != len(mine):
        return f"join lost rows: {len(scored)} != {len(mine)} (bad vec ids)"
    scored = scored.sort_values(
        ["query_id", "cosine", "neighbor_id"],
        ascending=[True, False, True],
    )
    expect = scored.groupby("query_id").cumcount() + 1
    bad = scored[scored["r"].to_numpy() != expect.to_numpy()]
    if len(bad):
        return (
            f"{len(bad)} rank inversions vs exact cosine order:\n"
            f"{bad.head(3)}"
        )
    return None


def compare_one(con, qs, oracles, name: str, sf_dir: str) -> str | None:
    """Return None if green, else a one-line failure description."""
    mine = _to_pandas(qs[name](sf_dir)).reset_index(drop=True)
    oracle = con.execute(oracles[name]).df().reset_index(drop=True)
    return _compare_frames(mine, oracle)


def compare_twin(qs, twin_fn, name: str, sf_dir: str) -> str | None:
    """Ray pipeline vs the serial golden-generator twin on the same dir."""
    mine = _to_pandas(qs[name](sf_dir)).reset_index(drop=True)
    oracle = twin_fn(sf_dir).reset_index(drop=True)
    return _compare_frames(mine, oracle)


def _compare_frames(mine: pd.DataFrame, oracle: pd.DataFrame) -> str | None:
    mine = mine[sorted(mine.columns)]
    oracle = oracle[sorted(oracle.columns)]
    if list(mine.columns) != list(oracle.columns):
        return f"schema {list(mine.columns)} != {list(oracle.columns)}"
    if len(mine) != len(oracle):
        return f"rows {len(mine)} != {len(oracle)}"
    for c in mine.columns:
        a, b = mine[c], oracle[c]
        try:
            eq = (a.to_numpy() == b.to_numpy()).all()
        except Exception:
            eq = a.astype(str).equals(b.astype(str))
        if not eq:
            neq = a.astype(str) != b.astype(str)
            head = pd.DataFrame({"mine": a[neq], "oracle": b[neq]}).head(3)
            return f"column {c} differs:\n{head}"
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="*", default=None)
    ap.add_argument("--nseeds", type=int, default=4)
    ap.add_argument("--scale", type=float, default=0.4)
    ap.add_argument("--queries", nargs="*", default=None)
    ap.add_argument("--keep", action="store_true", help="keep generated dirs")
    ap.add_argument(
        "--shards",
        type=int,
        default=0,
        help="write each table as a directory of N shard files "
        "(the multi-node 100 TB input layout) instead of one file",
    )
    ap.add_argument(
        "--num-cpus",
        type=int,
        default=8,
        help="Ray session size — results must be IDENTICAL at any "
        "parallelism (block counts are byte-derived, tiebreaks total), "
        "so sweeping the same seed at 2 and 32 pins executor-shape "
        "invariance",
    )
    args = ap.parse_args()
    seeds = args.seeds if args.seeds is not None else list(range(args.nseeds))

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus, include_dashboard=False
        )

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    twins = _twin_oracles()
    names = args.queries or [
        n
        for n in qs
        if (n in oracles and n not in GOLDEN and n not in APPROX_SKIP)
        or n in SUBSET
        or n in twins
        or n in APPROX_RANK
    ]

    failures: list[tuple[int, str, str]] = []
    for seed in seeds:
        sf_dir = f"/tmp/rdiff/seed{seed}"
        if os.path.isdir(sf_dir):
            shutil.rmtree(sf_dir)
        generate(seed, sf_dir, args.scale, shards=args.shards)
        con = duckdb.connect()
        for t in TABLES:
            p = f"{sf_dir}/{t}.parquet"
            src = f"{p}/*.parquet" if os.path.isdir(p) else p
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{src}')"
            )
        t0 = time.time()
        bad = 0
        for name in names:
            try:
                if name == "dedup_clusters_lsh":
                    msg = compare_lsh_clusters(con, qs, oracles, sf_dir)
                elif name in APPROX_RANK:
                    msg = compare_knn_rank(con, qs, name, sf_dir)
                elif name in SUBSET:
                    msg = compare_subset(con, qs, oracles, name, sf_dir)
                elif name in twins:
                    msg = compare_twin(qs, twins[name], name, sf_dir)
                elif name in STREAM_SORTED:
                    # oracle over the original dir (same relation), Ray
                    # side over the in-contract time-sorted ingest twin
                    mine = _to_pandas(
                        qs[name](_sorted_events_twin(sf_dir))
                    ).reset_index(drop=True)
                    oracle = con.execute(oracles[name]).df().reset_index(
                        drop=True
                    )
                    msg = _compare_frames(mine, oracle)
                else:
                    msg = compare_one(con, qs, oracles, name, sf_dir)
            except Exception as e:  # noqa: BLE001
                msg = f"EXCEPTION {type(e).__name__}: {e}"
            if msg is not None:
                bad += 1
                failures.append((seed, name, msg))
                print(f"FAIL seed={seed} {name}: {msg}")
        con.close()
        total = len(names)
        if args.queries is None:
            # full sweep: also run the seed-randomized corpus invariants
            # (engine-vs-engine, independent of the sf_dir tables)
            for label, check in (
                ("corpus_split_parity", check_split_parity),
                ("checkpoint_resume_parity", check_resume_parity),
                ("extract_stats_parity", check_metrics_parity),
                ("span_encoding_parity", check_encoding_parity),
                ("read_parity", check_read_parity),
            ):
                total += 1
                try:
                    msg = check(seed)
                except Exception as e:  # noqa: BLE001
                    msg = f"EXCEPTION {type(e).__name__}: {e}"
                if msg is not None:
                    bad += 1
                    failures.append((seed, label, msg))
                    print(f"FAIL seed={seed} {label}: {msg}")
        print(
            f"seed={seed}: {total - bad}/{total} green "
            f"in {time.time() - t0:.1f}s"
        )
        if not args.keep and not bad:
            shutil.rmtree(sf_dir, ignore_errors=True)
            shutil.rmtree(f"{sf_dir}-stream", ignore_errors=True)

    ray.shutdown()
    if failures:
        print(f"\n{len(failures)} failures across {len(seeds)} seeds:")
        for seed, name, msg in failures:
            print(f"  seed={seed} {name}: {msg.splitlines()[0]}")
        sys.exit(1)
    extra = 5 if args.queries is None else 0
    print(f"\nALL GREEN: {len(names) + extra} checks x {len(seeds)} seeds")


if __name__ == "__main__":
    main()
