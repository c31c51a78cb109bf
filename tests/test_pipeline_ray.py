"""End-to-end Ray Data pipeline tests: corpus -> extraction -> span table,
including the giant-doc split/reassembly path and parity between the two."""

from __future__ import annotations

import pytest

import pyarrow as pa

from html_parser_ray.extract.extractor import SpanExtractor
from html_parser_ray.pipelines.extraction import build_extraction_pipeline
from html_parser_ray.sources.corpus import generate_documents
from html_parser_ray.stages.split import reassemble_group, split_batch


def test_corpus_deterministic_and_rangeable():
    a = generate_documents(20, seed=42)
    b = generate_documents(20, seed=42)
    assert a.equals(b)
    # range generation reproduces the same rows
    tail = generate_documents(5, seed=42, start=15)
    assert tail.equals(a.slice(15, 5))
    other_seed = generate_documents(20, seed=7)
    assert not a.equals(other_seed)


def test_corpus_schema_and_giant_tail():
    t = generate_documents(12, seed=42, giant_doc_every=6, giant_doc_html_bytes=50_000)
    assert t.column_names == ["doc_id", "spans"]
    spans5 = t.column("spans")[5].as_py()  # giant html doc
    assert len(spans5) == 1 and len(spans5[0]["text"]) >= 50_000
    spans11 = t.column("spans")[11].as_py()  # many-span doc
    assert len(spans11) == 400


def test_read_corpus_rejects_unknown_format(tmp_path):
    """Only parquet and lance are readable; any other format is refused
    instead of being read as parquet."""
    from html_parser_ray.pipelines.extraction import read_corpus

    for fmt in ("csv", "Parquet", ""):
        with pytest.raises(ValueError, match="file_format"):
            read_corpus(str(tmp_path), file_format=fmt)


def test_split_and_reassemble_roundtrip_local():
    """Split + extract + reassemble must equal direct extraction (no Ray)."""
    t = generate_documents(8, seed=42, giant_doc_every=4, giant_doc_html_bytes=30_000)
    direct = {}
    ex = SpanExtractor()
    for row in t.to_pylist():
        direct[row["doc_id"]] = ex.extract_document(row["spans"])

    frags = split_batch(t, max_bytes=5_000, max_spans=16)
    assert frags.num_rows > t.num_rows  # giant docs actually split
    ex2 = SpanExtractor()
    groups: dict[str, list] = {}
    for row in frags.to_pylist():
        out = ex2.extract_document(row["spans"])
        groups.setdefault(row["doc_id"], []).append(
            {"frag_seq": row["frag_seq"], "spans_out": out}
        )
    for doc_id, rows in groups.items():
        tbl = pa.table(
            {
                "doc_id": [doc_id] * len(rows),
                "spans_out": [r["spans_out"] for r in rows],
                "frag_seq": pa.array([r["frag_seq"] for r in rows], type=pa.int32()),
            }
        )
        merged = reassemble_group(tbl).column("spans_out")[0].as_py()
        assert merged == direct[doc_id], doc_id


@pytest.mark.usefixtures("ray_session")
def test_ray_pipeline_end_to_end(tmp_path):
    import ray.data

    t = generate_documents(40, seed=42)
    ds = ray.data.from_arrow(t)
    out = build_extraction_pipeline(ds, batch_size=8, emit_metrics=True)
    rows = out.take_all()
    assert len(rows) == 40
    by_id = {r["doc_id"]: r["spans_out"] for r in rows}

    # oracle: direct single-threaded extraction
    ex = SpanExtractor()
    for row in t.to_pylist():
        expected = ex.extract_document(row["spans"])
        got = [dict(s) for s in by_id[row["doc_id"]]]
        assert got == expected, row["doc_id"]

    # metrics column present and sane
    m = rows[0]["metrics"]
    assert set(m.keys()) == {"spans_in", "spans_out", "html_bytes", "parse_errors"}


@pytest.mark.usefixtures("ray_session")
def test_ray_pipeline_split_path_parity(tmp_path):
    import ray.data

    t = generate_documents(
        12, seed=42, giant_doc_every=4, giant_doc_html_bytes=40_000
    )
    ds = ray.data.from_arrow(t)
    direct = build_extraction_pipeline(ds, batch_size=4).take_all()
    ds2 = ray.data.from_arrow(t)
    split = build_extraction_pipeline(
        ds2, split_giant_docs=True, batch_size=4
    ).take_all()
    d1 = {r["doc_id"]: r["spans_out"] for r in direct}
    d2 = {r["doc_id"]: r["spans_out"] for r in split}
    assert set(d1) == set(d2)
    for k in d1:
        assert d1[k] == d2[k], k


@pytest.mark.usefixtures("ray_session")
def test_ray_pipeline_write_parquet(tmp_path):
    import ray.data

    t = generate_documents(10, seed=42)
    ds = ray.data.from_arrow(t)
    out_dir = str(tmp_path / "out")
    build_extraction_pipeline(ds, batch_size=4).write_parquet(out_dir)
    back = ray.data.read_parquet(out_dir).take_all()
    assert len(back) == 10
    assert {r["doc_id"] for r in back} == {f"doc-{i:08d}" for i in range(10)}
