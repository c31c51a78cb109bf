"""Default extract batch size: rows from a byte target over the parquet
footers (``default_batch_size``), and output that does not depend on where
the batches fall."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from html_parser_ray.extract.extractor import SpanExtractor
from html_parser_ray.pipelines import extraction
from html_parser_ray.pipelines.extraction import (
    FALLBACK_BATCH_ROWS,
    MAX_BATCH_ROWS,
    MIN_BATCH_ROWS,
    SIZING_FOOTERS,
    TARGET_BATCH_BYTES,
    default_batch_size,
)
from html_parser_ray.sources.corpus import SPAN_STRUCT, write_corpus_parquet
from html_parser_ray.state.checkpoint import (
    manifest_records,
    read_extraction_output,
    run_resumable_extraction,
)


def _write_text_rows(path: str, n_rows: int, text_len: int) -> str:
    """``n_rows`` docs of one ``text_len``-byte text span each, no two
    alike (a repeated value would shrink to one dictionary entry)."""
    spans = [
        [{"kind": "text", "text": os.urandom(text_len // 2).hex(), "media_ref": "", "offset": 0}]
        for _ in range(n_rows)
    ]
    table = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(n_rows)]),
            "spans": pa.array(spans, type=pa.list_(SPAN_STRUCT)),
        }
    )
    pq.write_table(table, path)
    return path


def test_batch_size_from_footer_bytes_per_row(tmp_path, monkeypatch):
    # 4 KB rows: the target over about 4 KB, inside the clamp
    paths = [_write_text_rows(str(tmp_path / f"p{i}.parquet"), 200, 4000) for i in range(10)]
    got = default_batch_size(paths)
    assert TARGET_BATCH_BYTES // 4200 < got <= TARGET_BATCH_BYTES // 4000
    assert MIN_BATCH_ROWS < got < MAX_BATCH_ROWS

    # at most SIZING_FOOTERS footers, the first file's among them
    read = []
    real = pq.read_metadata
    monkeypatch.setattr(pq, "read_metadata", lambda p: read.append(p) or real(p))
    assert default_batch_size(paths) == got
    assert len(read) == SIZING_FOOTERS and read[0] == paths[0]
    assert len(set(read)) == SIZING_FOOTERS


def test_batch_size_clamps(tmp_path):
    giant = _write_text_rows(str(tmp_path / "giant.parquet"), 1, 1_000_000)
    assert default_batch_size([giant]) == MIN_BATCH_ROWS
    tiny = _write_text_rows(str(tmp_path / "tiny.parquet"), 100, 1)
    assert default_batch_size([tiny]) == MAX_BATCH_ROWS


def test_batch_size_falls_back_without_a_footer(tmp_path):
    assert default_batch_size([]) == FALLBACK_BATCH_ROWS
    not_parquet = tmp_path / "notes.txt"
    not_parquet.write_text("not a parquet file")
    assert default_batch_size([str(not_parquet)]) == FALLBACK_BATCH_ROWS
    assert default_batch_size([str(tmp_path / "missing.parquet")]) == FALLBACK_BATCH_ROWS
    empty = _write_text_rows(str(tmp_path / "empty.parquet"), 0, 10)
    assert default_batch_size([empty]) == FALLBACK_BATCH_ROWS
    # an unreadable footer is skipped, a readable one still sizes
    sized = _write_text_rows(str(tmp_path / "sized.parquet"), 10, 1_000_000)
    assert default_batch_size([str(not_parquet), sized]) == MIN_BATCH_ROWS


def _by_doc(table: pa.Table) -> dict:
    ids = table.column("doc_id").to_pylist()
    assert len(ids) == len(set(ids)), "a doc appears more than once"
    return dict(zip(ids, table.column("spans_out").to_pylist()))


@pytest.mark.usefixtures("ray_session")
def test_output_does_not_depend_on_batch_size(tmp_path, monkeypatch):
    """The same multi-file table three ways, with equal output: the
    footer-sized default, ``batch_size=7``, and a resumable run sized from
    its own paths, exactly once."""
    inp = str(tmp_path / "corpus")
    write_corpus_parquet(inp, 90, seed=7, rows_per_file=30)
    sized = []
    real = extraction.default_batch_size
    monkeypatch.setattr(
        extraction, "default_batch_size", lambda paths: sized.append(sorted(paths)) or real(paths)
    )
    files = sorted(os.path.join(inp, f) for f in os.listdir(inp))

    auto = extraction.build_extraction_pipeline(extraction.read_corpus(inp), concurrency=1)
    auto = _by_doc(pa.Table.from_pylist(auto.take_all()))
    assert sized == [files]
    assert real(files) not in (7, FALLBACK_BATCH_ROWS)
    sevens = extraction.build_extraction_pipeline(
        extraction.read_corpus(inp), batch_size=7, concurrency=1
    )
    assert _by_doc(pa.Table.from_pylist(sevens.take_all())) == auto
    assert len(sized) == 1  # an explicit batch_size is not sized

    out = str(tmp_path / "out")
    run_resumable_extraction(inp, out, num_partitions=2, concurrency=1)
    assert sized[1:] == [files]
    assert sum(r["row_count"] for r in manifest_records(out)) == 90
    resumed = read_extraction_output(out).select_columns(["doc_id", "spans_out"])
    assert _by_doc(pa.Table.from_pylist(resumed.take_all())) == auto

    oracle = SpanExtractor(layout_memo=False)
    oracle.layout._native = None
    source = pq.read_table(inp)
    assert auto == {
        d: oracle.extract_document(s)
        for d, s in zip(source.column("doc_id").to_pylist(), source.column("spans").to_pylist())
    }
