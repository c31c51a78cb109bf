"""Generate the committed golden-oracle parquet tables under ``golden/``.

Two classes of golden (both deterministic by construction — seeded corpus,
salt-free hashes, seeded LSH/IVF):

1. **Independent serial oracles** — computed WITHOUT Ray by the single-process
   serial twin, so the distributed pipeline is checked against an independent
   execution path (mirrors the reference's expected-value matrices,
   ref: src/html/document.zig:977-1053):
   - ``extract_corpus_n{50,200}.parquet``: flattened span table of the seeded
     interleaved corpus, via the DOM oracle (``SpanExtractor`` with no
     native kernel, no layout memo and no native PDF summary; no Ray).
   - ``langid_counts_sf001.parquet`` / ``doc_fingerprints_sf001.parquet``:
     plain-pandas twins of the map-side pipelines over sf0.01 documents.
   - ``minhash_lsh_dupes_sf001.parquet`` / ``simhash_dupes_sf001.parquet``:
     serial bucket+verify twins over sf0.01 documents.

2. **Regression pins** — output of the (deterministic, seeded) pipeline itself,
   committed so any later drift hard-fails the driver hash check:
   - ``lsh_knn_topk_sf001.parquet`` / ``ivf_knn_topk_sf001.parquet`` (the
     kmeans training loop is driver-side and seeded; re-deriving it serially
     would duplicate the same code, so the pin IS the twin).

Re-run ``python tools/gen_goldens.py`` only on a deliberate semantics change;
the pytest suites must be green first.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
GOLDEN = os.path.join(REPO, "golden")
SF001 = "/root/testdata/sf0.01"


def gen_extract_corpus(n: int) -> pa.Table:
    """Serial (no-Ray) flattened extraction of the seeded corpus by the DOM
    oracle, as ``verify_sample`` builds it: ``SpanExtractor(layout_memo=False)``
    with ``layout._native = None`` (the extraction has one fixed spec, so
    only the layout model could differ, and the goldens use the default)."""
    from html_parser_ray.extract.extractor import SpanExtractor
    from html_parser_ray.sources.corpus import generate_documents

    tbl = generate_documents(n, seed=42)
    ex = SpanExtractor(layout_memo=False)
    ex.layout._native = None
    rows_doc, rows_k, rows_t, rows_m, rows_o = [], [], [], [], []
    for doc_id, spans in zip(
        tbl.column("doc_id").to_pylist(), tbl.column("spans").to_pylist()
    ):
        out = ex.extract_document(spans)
        for sp in out:
            rows_doc.append(doc_id)
            rows_k.append(sp["kind"])
            rows_t.append(sp["text"])
            rows_m.append(sp["media_ref"])
            rows_o.append(sp["offset"])
    out_tbl = pa.table(
        {
            "doc_id": pa.array(rows_doc, type=pa.string()),
            "kind": pa.array(rows_k, type=pa.string()),
            "text": pa.array(rows_t, type=pa.string()),
            "media_ref": pa.array(rows_m, type=pa.string()),
            "offset": pa.array(rows_o, type=pa.int32()),
        }
    )
    return out_tbl.sort_by([("doc_id", "ascending"), ("offset", "ascending")])


def gen_langid_counts(sf_dir: str = SF001) -> pd.DataFrame:
    from html_parser_ray.functions import textfns

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    pred = pd.Series([textfns.detect_language(t) for t in docs["text"]])
    out = pred.value_counts().rename_axis("predicted_lang").reset_index(name="n")
    return out.sort_values("predicted_lang").reset_index(drop=True)


def gen_doc_fingerprints(sf_dir: str = SF001) -> pd.DataFrame:
    from html_parser_ray.functions import textfns

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = pd.DataFrame(
        {
            "doc_id": docs["doc_id"],
            "fingerprint": [
                format(textfns.fingerprint64(t), "016x") for t in docs["text"]
            ],
            "bpe_tokens": [textfns.bpe_token_count(t) for t in docs["text"]],
        }
    )
    return out.sort_values("doc_id").reset_index(drop=True)


def gen_minhash_lsh(threshold=0.5, k=3, num_hashes=128, bands=32, sf_dir: str = SF001) -> pd.DataFrame:
    """Serial twin of the banded-LSH pipeline (same hashes, same banding).

    NOTE: golden authority for minhash/simhash moved to the NON-IMPORTING
    twin (tools/independent_twins.py, paper-spec reimplementation) late
    round 3 — byte-equality of the two twins is pinned by
    tests/test_independent_twins.py; this in-repo form remains as a
    cross-check."""
    from html_parser_ray.functions import textfns

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    rows_per_band = num_hashes // bands
    weights = (
        np.arange(1, rows_per_band + 1, dtype=np.uint64) * np.uint64(1099511628211)
    )
    mersenne = np.uint64((1 << 61) - 1)
    buckets: dict[tuple[int, int], list[int]] = {}
    shingles: dict[int, set] = {}
    for doc_id, text in zip(docs["doc_id"], docs["text"]):
        s = textfns.word_shingles(text, k)
        shingles[doc_id] = set(s)
        m = textfns.minhash_signature(s, num_hashes=num_hashes).astype(np.uint64)
        for band in range(bands):
            chunk = m[band * rows_per_band : (band + 1) * rows_per_band]
            # same polynomial band hash as the pipeline (uint64 wraparound)
            bucket = int((chunk * weights).sum() % mersenne)
            buckets.setdefault((band, bucket), []).append(int(doc_id))
    # the pipeline star-caps buckets over max_bucket=256; this all-vs-all
    # twin only equals it while no bucket exceeds the cap — fail loudly at
    # regeneration time if a corpus/threshold change breaks that assumption
    assert all(len(ids) <= 256 for ids in buckets.values()), (
        "bucket exceeds pipeline max_bucket=256; twin no longer equals pipeline"
    )
    pairs: set[tuple[int, int]] = set()
    for ids in buckets.values():
        if len(ids) < 2:
            continue
        ids = sorted(ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                pairs.add((ids[i], ids[j]))
    keep = [
        (a, b) for a, b in sorted(pairs)
        if textfns.jaccard(shingles[a], shingles[b]) >= threshold
    ]
    return pd.DataFrame(keep, columns=["doc_a", "doc_b"]).astype("int64")


def gen_simhash(max_hamming: int = 3, sf_dir: str = SF001) -> pd.DataFrame:
    """Serial twin of the banded simhash pipeline."""
    from html_parser_ray.functions import textfns

    docs = pd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sigs = {int(d): textfns.simhash64(t) for d, t in zip(docs["doc_id"], docs["text"])}
    buckets: dict[tuple[int, int], list[int]] = {}
    for d, h in sigs.items():
        for band in range(4):
            buckets.setdefault((band, (h >> (band * 16)) & 0xFFFF), []).append(d)
    # same cap assumption as gen_minhash_lsh (pipeline max_bucket=256)
    assert all(len(ids) <= 256 for ids in buckets.values()), (
        "bucket exceeds pipeline max_bucket=256; twin no longer equals pipeline"
    )
    pairs: set[tuple[int, int]] = set()
    for ids in buckets.values():
        if len(ids) < 2:
            continue
        ids = sorted(ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a, b = ids[i], ids[j]
                if (a, b) not in pairs and textfns.hamming64(sigs[a], sigs[b]) <= max_hamming:
                    pairs.add((a, b))
    return pd.DataFrame(sorted(pairs), columns=["doc_a", "doc_b"]).astype("int64")


def gen_media_layout(n: int = 60) -> pd.DataFrame:
    """Serial (no-Ray) twin of the media_layout_features pipeline: the same
    REAL PDF byte parse per ref, run in a plain loop."""
    from html_parser_ray.extract.layout import LayoutParser
    from html_parser_ray.stages.layout_stage import synth_pdf_refs

    parser = LayoutParser()
    refs = synth_pdf_refs(n).column("media_ref").to_pylist()
    rows = []
    for r in refs:
        m = parser.parse(r)
        rows.append(
            {
                "media_ref": r,
                "num_pages": m.get("num_pages", 0),
                "n_text_spans": m.get("n_text_spans", 0),
                "n_rects": m.get("n_rects", 0),
                "text_chars": m.get("text_chars", 0),
                "layout_fingerprint": m.get("layout_fingerprint", ""),
            }
        )
    df = pd.DataFrame(rows).sort_values("media_ref").reset_index(drop=True)
    return df.astype(
        {"num_pages": "int32", "n_text_spans": "int32", "n_rects": "int32",
         "text_chars": "int64"}
    )


def gen_media_frames(n: int = 60) -> pd.DataFrame:
    """Serial (no-Ray) twin of media_frame_samples: the same GIF decode +
    frame sampling + PNG re-encode, plain loop over the synth table."""
    import hashlib

    from html_parser_ray.stages.multimodal import FrameSampleStage, synth_media_table

    out = FrameSampleStage(num_frames=3)(synth_media_table(n, seed=42))
    frames = out.column("frame").to_pylist()
    df = pd.DataFrame(
        {
            "media_id": out.column("media_id").to_pylist(),
            "frame_ts_ms": out.column("frame_ts_ms").to_pylist(),
            "decoded": out.column("decoded").to_pylist(),
            "frame_bytes": [len(f) for f in frames],
            "frame_md5": [hashlib.md5(f).hexdigest() for f in frames],
        }
    ).sort_values(["media_id", "frame_ts_ms"]).reset_index(drop=True)
    return df.astype({"frame_ts_ms": "int32", "frame_bytes": "int64"})


def main() -> None:
    os.makedirs(GOLDEN, exist_ok=True)

    for n in (50, 200):
        tbl = gen_extract_corpus(n)
        pq.write_table(tbl, os.path.join(GOLDEN, f"extract_corpus_n{n}.parquet"))
        print(f"extract_corpus_n{n}: {tbl.num_rows} rows")

    # langid_counts / doc_fingerprints goldens come from the INDEPENDENT
    # non-importing twin (tools/independent_twins.py — re-derives FNV-1a,
    # the BPE-ish regex and the marker-word langid from their specs without
    # importing html_parser_ray); the importing twins below remain only as
    # an in-process cross-check that both implementations agree.
    import subprocess
    import sys as _sys

    subprocess.run(
        [_sys.executable, os.path.join(os.path.dirname(__file__), "independent_twins.py")],
        check=True,
    )
    import pyarrow.parquet as _pq

    for name, fn in [
        ("langid_counts_sf001", gen_langid_counts),
        ("doc_fingerprints_sf001", gen_doc_fingerprints),
    ]:
        mine = fn().reset_index(drop=True)
        golden = _pq.read_table(os.path.join(GOLDEN, f"{name}.parquet")).to_pandas()
        assert mine.equals(golden), f"{name}: importing twin disagrees with independent twin"
        print(f"{name}: independent twin == importing twin ({len(mine)} rows)")

    for name, fn in [
        ("minhash_lsh_dupes_sf001", gen_minhash_lsh),
        ("simhash_dupes_sf001", gen_simhash),
        ("media_layout_features", gen_media_layout),
        ("media_frame_samples", gen_media_frames),
    ]:
        df = fn()
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            os.path.join(GOLDEN, f"{name}.parquet"),
        )
        print(f"{name}: {len(df)} rows")

    # regression pins of the seeded approximate kNN pipelines (driver-side
    # training is deterministic; the committed pin hard-fails future drift)
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    from html_parser_ray.pipelines.similarity import ivf_knn_topk, lsh_knn_topk

    for name, fn in [("lsh_knn_topk_sf001", lsh_knn_topk), ("ivf_knn_topk_sf001", ivf_knn_topk)]:
        df = fn(SF001)
        pq.write_table(
            pa.Table.from_pandas(df, preserve_index=False),
            os.path.join(GOLDEN, f"{name}.parquet"),
        )
        print(f"{name}: {len(df)} rows")

    # media pipelines: deterministic synth table -> quantized feature sums
    # (real PNG/WAV decode; pins both the codecs and the stage plumbing)
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    for name in ("media_image_features", "media_audio_features"):
        ds = qs[name]("/root/testdata/sf0.01")
        tbl = ds.to_pandas()
        pq.write_table(
            pa.Table.from_pandas(tbl, preserve_index=False),
            os.path.join(GOLDEN, f"{name}.parquet"),
        )
        print(f"{name}: {len(tbl)} rows")
    ray.shutdown()


if __name__ == "__main__":
    main()
