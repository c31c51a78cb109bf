"""End-to-end Ray Data pipeline tests: corpus -> extraction -> span table,
checked against the DOM oracle, giant documents included, plus the off-path
split/reassembly helpers."""

from __future__ import annotations

import os

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


def _media_table(n_docs: int, n_refs: int) -> pa.Table:
    """``n_docs`` docs of an html, a text and two media spans; the media
    refs cycle over ``n_refs`` distinct PDF refs, so refs repeat across
    docs and batches."""
    from html_parser_ray.sources.corpus import SPAN_STRUCT

    docs = [
        [
            {"kind": "html", "text": f"<p>doc {d} lead</p>", "media_ref": "", "offset": 0},
            {"kind": "text", "text": f"caption {d}", "media_ref": "", "offset": 1},
        ]
        + [
            {
                "kind": "media",
                "text": "",
                "media_ref": f"media://pdf/{(2 * d + k) % n_refs:06d}",
                "offset": 2 + k,
            }
            for k in range(2)
        ]
        for d in range(n_docs)
    ]
    return pa.table(
        {
            "doc_id": [f"doc-{d:04d}" for d in range(n_docs)],
            "spans": pa.array(docs, type=pa.list_(SPAN_STRUCT)),
        }
    )


def _oracle_spans(table: pa.Table) -> dict:
    oracle = SpanExtractor(layout_memo=False)
    oracle.layout._native = None
    return {
        row["doc_id"]: oracle.extract_document(row["spans"])
        for row in table.to_pylist()
    }


def test_stage_is_scoped_to_one_run_per_process(monkeypatch):
    """No Ray: the extract task's stage is reused for batches of one run,
    its layout memo hits accumulating, and a batch of another run gets a
    fresh stage (empty memo, stats from zero) while the old one is
    dropped."""
    import gc
    import weakref

    from html_parser_ray.pipelines import extraction

    monkeypatch.setattr(extraction, "_stage", None)

    table = _media_table(8, 6)
    want = _oracle_spans(table)
    cls = extraction.ExtractSpansBatch

    def run(token: str) -> dict:
        out = extraction.extract_batch(table, run=token, stage_cls=cls, kwargs={})
        return dict(zip(out.column("doc_id").to_pylist(), out.column("spans_out").to_pylist()))

    assert run("run-a") == want
    first = extraction._stage[1]
    assert (first.extractor.stats.layout_decodes, first.extractor.stats.layout_hits) == (6, 0)
    assert run("run-a") == want
    assert extraction._stage == ("run-a", first)
    # the memo is probed once per distinct ref of a batch: all 6 hit
    assert (first.extractor.stats.layout_decodes, first.extractor.stats.layout_hits) == (6, 6)

    old = weakref.ref(first)
    del first
    assert run("run-b") == want
    fresh = extraction._stage[1]
    reference = cls()
    reference(table)
    assert fresh.extractor.stats == reference.extractor.stats
    assert fresh.extractor.stats.layout_hits == 0
    gc.collect()
    assert old() is None
    assert extraction._stage[0] == "run-b"


def _marked_stage_cls():
    """A subclass of the extract stage that adds a ``batch_decodes``
    column: the layout decodes of the batch on its first row, 0 on the
    others, so the column's sum over a job is the job's decodes over every
    process. Defined in a function, so Ray workers receive it by value."""
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    class MarkedStage(ExtractSpansBatch):
        def __call__(self, batch: pa.Table) -> pa.Table:
            before = self.extractor.stats.layout_decodes
            out = super().__call__(batch)
            decodes = [0] * out.num_rows
            decodes[0] = self.extractor.stats.layout_decodes - before
            return out.append_column("batch_decodes", pa.array(decodes, pa.int64()))

    return MarkedStage


@pytest.mark.usefixtures("ray_session")
def test_consecutive_runs_run_the_build_time_stage_and_decode_again(monkeypatch):
    """Two pipelines over one media input, one after the other in one Ray
    session. Each runs the stage class found on the pipeline module when it
    is built (the benchmark's tracing swaps in a subclass there): every
    output row carries the subclass's column. Each output equals the DOM
    oracle, and each job decodes every distinct ref (decodes summed over
    the processes its tasks ran in), because no layout memo passes from one
    pipeline to the next."""
    import ray.data

    from html_parser_ray.pipelines import extraction

    monkeypatch.setattr(extraction, "ExtractSpansBatch", _marked_stage_cls())
    table = _media_table(24, 10)
    want = _oracle_spans(table)
    for _ in range(2):
        ds = ray.data.from_arrow(table)
        rows = extraction.build_extraction_pipeline(ds, batch_size=6, concurrency=1).take_all()
        assert {r["doc_id"]: [dict(s) for s in r["spans_out"]] for r in rows} == want
        assert all(r["batch_decodes"] is not None for r in rows)
        assert sum(r["batch_decodes"] for r in rows) >= 10


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
    """Every doc's spans equal the DOM oracle's (no memo, no native PDF
    path), and the output holds only ``doc_id`` and ``spans_out``."""
    import ray.data

    t = generate_documents(40, seed=42)
    ds = ray.data.from_arrow(t)
    out = build_extraction_pipeline(ds, batch_size=8).materialize()
    assert out.columns() == ["doc_id", "spans_out"]
    rows = out.take_all()
    assert len(rows) == 40
    got = {r["doc_id"]: [dict(s) for s in r["spans_out"]] for r in rows}
    assert got == _oracle_spans(t)


@pytest.mark.usefixtures("ray_session")
def test_ray_pipeline_split_path_parity(tmp_path):
    """Giant documents (40 KB html spans, 400-span docs) extract to the DOM
    oracle's spans; ``split_giant_docs=True`` is still accepted."""
    import ray.data

    t = generate_documents(
        12, seed=42, giant_doc_every=4, giant_doc_html_bytes=40_000
    )
    rows = build_extraction_pipeline(
        ray.data.from_arrow(t), split_giant_docs=True, batch_size=4
    ).take_all()
    got = {r["doc_id"]: [dict(s) for s in r["spans_out"]] for r in rows}
    assert len(rows) == 12
    want = _oracle_spans(t)
    assert set(got) == set(want)
    for k in want:
        assert got[k] == want[k], k


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


def _read_table(ds) -> pa.Table:
    """Every block of ``ds``, in the order its read delivered them."""
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.mark.usefixtures("ray_session")
def test_read_plans_from_the_listing_without_sampling_or_splitting(tmp_path, monkeypatch):
    """The parquet read lists its files and plans one task per file: Ray's
    fragment sampling is never called, by a streaming read or by a
    resumable run, and a 4-file read of one row group each is 4 blocks with
    no ``SplitBlocks``."""
    import ray.data._internal.datasource.parquet_datasource as ray_parquet
    import pyarrow.parquet as pq

    from html_parser_ray.pipelines.extraction import read_corpus
    from html_parser_ray.sources.corpus import write_corpus_parquet
    from html_parser_ray.state.checkpoint import read_extraction_output, run_resumable_extraction

    def refuse(*args, **kwargs):
        raise AssertionError("the read sampled parquet fragments")

    monkeypatch.setattr(ray_parquet, "sample_fragments", refuse)
    inp = str(tmp_path / "in")
    write_corpus_parquet(inp, 40, seed=11, rows_per_file=10)
    files = sorted(os.listdir(inp))
    groups = sum(pq.ParquetFile(os.path.join(inp, f)).num_row_groups for f in files)
    assert len(files) == groups == 4

    ds = read_corpus(inp)
    assert _read_table(ds).num_rows == 40
    stats = ds.stats()
    assert "SplitBlocks" not in stats
    assert f"ReadCorpus: 4 tasks executed, {groups} blocks produced" in stats

    out = str(tmp_path / "out")
    res = run_resumable_extraction(inp, out, num_partitions=2, batch_size=8)
    assert res["rows"] == 40
    assert read_extraction_output(out).count() == 40


@pytest.mark.usefixtures("ray_session")
def test_read_slices_a_row_group_larger_than_the_block_target(tmp_path):
    """A row group past ``DataContext.target_max_block_size`` arrives in
    slices, in order, not as one block."""
    import pyarrow.parquet as pq
    import ray.data

    from html_parser_ray.pipelines.extraction import read_corpus

    t = generate_documents(60, seed=5)
    path = str(tmp_path / "one.parquet")
    pq.write_table(t, path)
    assert pq.ParquetFile(path).num_row_groups == 1
    ctx = ray.data.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = max(1, t.nbytes // 8)
    try:
        ds = read_corpus(path)
        blocks = [ray.get(r) for r in ds.to_arrow_refs()]
    finally:
        ctx.target_max_block_size = saved
    assert len(blocks) > 1
    assert pa.concat_tables(blocks).equals(t)


def _span_type(strings: pa.DataType) -> pa.DataType:
    from html_parser_ray.sources.corpus import SPAN_STRUCT

    return pa.list_(
        pa.struct(
            [(f.name, strings if f.name in ("text", "media_ref") else f.type) for f in SPAN_STRUCT]
        )
    )


@pytest.mark.usefixtures("ray_session")
def test_read_equals_pyarrow_read_table(tmp_path, monkeypatch):
    """``read_corpus`` reads what ``pq.read_table`` reads: a file of 3 row
    groups, a directory whose two files store the span strings as
    ``string`` and ``large_string`` (both read as the first file's type),
    an empty file, ``columns=`` pruning in the order asked and a
    ``file://`` URI. With ``parts`` each row also carries its given path's
    int in an int32 ``part`` column (each file of a directory the
    directory's int), and a ``parts`` of another length than the paths is
    a ``ValueError`` before a read is planned."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from html_parser_ray.pipelines.extraction import read_corpus

    t = generate_documents(30, seed=9)

    three = str(tmp_path / "three.parquet")
    pq.write_table(t, three, row_group_size=10)
    assert pq.ParquetFile(three).num_row_groups == 3
    assert _read_table(read_corpus(three)).equals(pq.read_table(three))

    mixed = tmp_path / "mixed"
    mixed.mkdir()
    pq.write_table(t.slice(0, 12), str(mixed / "a.parquet"), row_group_size=5)
    large = t.slice(12).cast(pa.schema([("doc_id", pa.string()), ("spans", _span_type(pa.large_string()))]))
    pq.write_table(large, str(mixed / "b.parquet"))
    want = pq.read_table(str(mixed))
    assert want.schema.field("spans").type == _span_type(pa.string())
    got = _read_table(read_corpus(str(mixed)))
    assert got.sort_by("doc_id").equals(want.sort_by("doc_id"))

    empty = str(tmp_path / "empty.parquet")
    pq.write_table(t.slice(0, 0), empty)
    got = _read_table(read_corpus(empty))
    assert got.num_rows == 0 and got.schema.equals(pq.read_table(empty).schema)

    cols = ["spans", "doc_id"]
    got = _read_table(read_corpus(str(mixed), columns=cols))
    assert got.column_names == cols
    assert got.sort_by("doc_id").equals(pq.read_table(str(mixed), columns=cols).sort_by("doc_id"))

    # parts: one int per given path, a directory's for each of its files;
    # ``seven`` tells a swap of the ints apart (three and mixed hold one
    # table's rows)
    seven = str(tmp_path / "seven.parquet")
    pq.write_table(t.slice(0, 7), seven)
    got = _read_table(read_corpus([three, str(mixed), seven], parts=[4, 7, 9]))
    assert got.column_names == ["doc_id", "spans", "part"]
    assert got.schema.field("part").type == pa.int32()
    tags = got.column("part").to_pylist()
    assert (tags.count(4), tags.count(7), tags.count(9)) == (30, 30, 7)
    for part, expect in ((4, pq.read_table(three)), (7, want), (9, pq.read_table(seven))):
        rows = got.filter(pc.equal(got.column("part"), part)).drop_columns(["part"])
        assert rows.sort_by("doc_id").equals(expect.sort_by("doc_id"))

    uri = _read_table(read_corpus(f"file://{mixed}", parts=[2]))
    assert set(uri.column("part").to_pylist()) == {2}
    assert uri.drop_columns(["part"]).sort_by("doc_id").equals(want.sort_by("doc_id"))

    def no_read(*args, **kwargs):
        raise AssertionError("a read was planned")

    monkeypatch.setattr(ray.data, "read_datasource", no_read)
    with pytest.raises(ValueError, match="2 parts for 3 paths"):
        read_corpus([three, str(mixed), seven], parts=[4, 7])
