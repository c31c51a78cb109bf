"""Resumable checkpointed extraction: manifest commit, skip-on-resume, output
equivalence with the direct pipeline."""

from __future__ import annotations

import json
import os

import pytest

from html_parser_ray.sources.corpus import write_corpus_parquet
from html_parser_ray.state.checkpoint import (
    completed_partitions,
    manifest_records,
    read_extraction_output,
    run_resumable_extraction,
)


@pytest.mark.usefixtures("ray_session")
def test_resumable_run_and_resume(tmp_path):
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 60, seed=42, rows_per_file=20)

    res = run_resumable_extraction(inp, out, num_partitions=4, wave_size=2, batch_size=16)
    assert res["partitions_done"] == 4
    assert res["partitions_skipped"] == 0
    assert res["rows"] == 60
    assert completed_partitions(out) == {0, 1, 2, 3}

    recs = manifest_records(out)
    assert len(recs) == 4
    assert sum(r["row_count"] for r in recs) == 60
    assert all(r["engine_version"].startswith("html_parser_ray") for r in recs)

    # resume: everything already done -> nothing reprocessed
    res2 = run_resumable_extraction(inp, out, num_partitions=4, wave_size=2, batch_size=16)
    assert res2["partitions_done"] == 0
    assert res2["partitions_skipped"] == 4

    back = read_extraction_output(out)
    assert back.count() == 60


@pytest.mark.usefixtures("ray_session")
def test_partial_resume_after_simulated_crash(tmp_path):
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 40, seed=42, rows_per_file=20)

    run_resumable_extraction(inp, out, num_partitions=4, wave_size=4, batch_size=16)
    # simulate a crash that lost two partitions' manifests
    for p in (1, 3):
        os.remove(os.path.join(out, "_manifest", f"part-{p}.json"))
    assert completed_partitions(out) == {0, 2}

    res = run_resumable_extraction(inp, out, num_partitions=4, wave_size=4, batch_size=16)
    assert res["partitions_skipped"] == 2
    assert res["partitions_done"] == 2
    assert completed_partitions(out) == {0, 1, 2, 3}

    back = read_extraction_output(out).take_all()
    # every doc present exactly once
    ids = sorted(r["doc_id"] for r in back)
    assert ids == [f"doc-{i:08d}" for i in range(40)]


@pytest.mark.usefixtures("ray_session")
def test_verify_sample_invariant(tmp_path):
    from html_parser_ray.state.checkpoint import verify_sample

    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 30, seed=42, rows_per_file=15)
    run_resumable_extraction(inp, out, num_partitions=2, wave_size=2, batch_size=8)
    res = verify_sample(out, inp, sample_docs=20)
    assert res["checked"] == 20
    assert res["mismatches"] == 0


@pytest.mark.usefixtures("ray_session")
def test_verify_sample_checks_against_the_dom_oracle(tmp_path, monkeypatch):
    """The check re-extracts with the DOM oracle and never loads the run's
    native kernel: with the batch kernel replaced, after the run, by one
    that drops every block (which a stage built now would hold), or its
    getter by one that raises, a correct run still verifies clean."""
    import numpy as np

    import html_parser_ray.native as native_mod
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch
    from html_parser_ray.state.checkpoint import verify_sample

    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 30, seed=42, rows_per_file=15)
    run_resumable_extraction(inp, out, num_partitions=2, wave_size=2, batch_size=8)

    def drop_every_block(values_addr, offsets, *rest):
        empty = np.zeros(0, dtype=np.int64)
        return memoryview(b""), empty, np.zeros(len(offsets) - 1, dtype=np.int64)

    monkeypatch.setattr(
        native_mod, "get_native_batch_extractor", lambda: drop_every_block
    )
    assert ExtractSpansBatch()._html_kernel is drop_every_block
    assert verify_sample(out, inp, sample_docs=20) == {"checked": 20, "mismatches": 0}

    def no_kernel():
        raise RuntimeError("the check loaded the native HTML kernel")

    monkeypatch.setattr(native_mod, "get_native_batch_extractor", no_kernel)
    assert verify_sample(out, inp, sample_docs=20) == {"checked": 20, "mismatches": 0}


@pytest.mark.usefixtures("ray_session")
def test_resume_with_different_num_partitions_refused(tmp_path):
    """The md5-mod doc->partition mapping is a function of num_partitions;
    a mismatched resume must fail loudly (it would duplicate and skip docs)."""
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 20, seed=42, rows_per_file=10)
    run_resumable_extraction(inp, out, num_partitions=4, wave_size=4, batch_size=8)
    with pytest.raises(ValueError, match="num_partitions"):
        run_resumable_extraction(
            inp, out, num_partitions=8, wave_size=4, batch_size=8
        )
    # stray non-numeric manifest files must not break the resume path either
    mdir = os.path.join(out, "_manifest")
    with open(os.path.join(mdir, "part-summary.json"), "w") as f:
        f.write("{}")
    assert completed_partitions(out) == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"wave_size": -1}, "wave_size"),
        ({"wave_size": 0}, "wave_size"),
        ({"num_partitions": 0}, "num_partitions"),
        ({"num_partitions": -4}, "num_partitions"),
    ],
)
def test_non_positive_partition_arguments_refused(tmp_path, kwargs, name):
    """A wave or partition count below 1 names the argument and creates
    nothing under the output root (it used to write nothing and report
    success, or fail inside ``range()``)."""
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=name):
        run_resumable_extraction(str(tmp_path / "corpus"), str(out), **kwargs)
    assert not out.exists()


def test_lance_input_refused(tmp_path):
    """Resumable runs partition by parquet file: a Lance input is a
    ``ValueError`` that says so, raised before anything is created."""
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="Lance"):
        run_resumable_extraction(str(tmp_path / "corpus"), str(out), file_format="lance")
    assert not out.exists()


@pytest.mark.usefixtures("ray_session")
def test_fewer_files_than_partitions_commits_empty_partitions(tmp_path):
    """2 input files over 5 partitions: the 3 partitions without a file
    commit with ``row_count`` 0 and no input files, and every manifest
    records its partition's files with their footer counts."""
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 30, seed=42, rows_per_file=15)
    res = run_resumable_extraction(inp, out, num_partitions=5, batch_size=8)
    assert res == {"partitions_done": 5, "partitions_skipped": 0, "rows": 30}
    recs = manifest_records(out)
    assert [r["input_files"] for r in recs] == [
        [],
        [],
        [{"path": "part-00000.parquet", "rows": 15}],
        [],
        [{"path": "part-00001.parquet", "rows": 15}],
    ]
    assert [r["row_count"] for r in recs] == [0, 0, 15, 0, 15]
    assert all(isinstance(r["wave_wall_s"], float) for r in recs)
    assert read_extraction_output(out).count() == 30


@pytest.mark.usefixtures("ray_session")
def test_resume_with_changed_input_files_refused(tmp_path):
    """A partition is a fixed set of input files: a resume after an input
    file was added or removed is refused (it would duplicate or lose
    rows), and the committed output is left as it was."""
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 40, seed=42, rows_per_file=10)
    run_resumable_extraction(inp, out, num_partitions=2, batch_size=8)
    before = manifest_records(out)

    extra = os.path.join(inp, "part-00009.parquet")
    os.link(os.path.join(inp, "part-00000.parquet"), extra)
    with pytest.raises(ValueError, match="input files"):
        run_resumable_extraction(inp, out, num_partitions=2, batch_size=8)
    os.remove(extra)
    os.remove(os.path.join(inp, "part-00003.parquet"))
    with pytest.raises(ValueError, match="input files"):
        run_resumable_extraction(inp, out, num_partitions=2, batch_size=8)
    assert manifest_records(out) == before


@pytest.mark.usefixtures("ray_session")
def test_partition_receiving_a_batch_twice_raises_uncommitted(tmp_path, monkeypatch):
    """A writer that writes every batch twice (as a retried write with the
    same rows would) makes each partition's written rows exceed its
    input's: the run raises and leaves no manifest."""
    import pyarrow as pa

    from html_parser_ray.state import checkpoint

    real = checkpoint.write_partitions

    def write_twice(batch, **kwargs):
        return pa.concat_tables([real(batch, **kwargs), real(batch, **kwargs)])

    monkeypatch.setattr(checkpoint, "write_partitions", write_twice)
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 30, seed=42, rows_per_file=15)
    with pytest.raises(RuntimeError, match="rows but its input files hold"):
        run_resumable_extraction(inp, out, num_partitions=2, batch_size=8)
    assert completed_partitions(out) == set()


def _task_marking_stage_cls():
    """A subclass of the extract stage that adds an ``extract_task`` column:
    the id of the Ray task the batch was extracted in. Defined in a
    function, so Ray workers receive it by value."""
    import pyarrow as pa
    import ray

    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    class TaskMarkingStage(ExtractSpansBatch):
        def __call__(self, batch: pa.Table) -> pa.Table:
            out = super().__call__(batch)
            task = ray.get_runtime_context().get_task_id()
            return out.append_column("extract_task", pa.array([task] * out.num_rows))

    return TaskMarkingStage


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("concurrency", [None, 1, 2])
def test_every_batch_is_written_in_its_extract_task(tmp_path, monkeypatch, concurrency):
    """Extract and write are one fused task at every ``concurrency``: the
    write of each batch runs in the Ray task that extracted it, so no batch
    crosses the object store between the two. A write in another task
    raises, and the run fails."""
    import ray

    from html_parser_ray.pipelines import extraction
    from html_parser_ray.state import checkpoint

    real = checkpoint.write_partitions

    def write_in_extract_task(batch, **kwargs):
        task = ray.get_runtime_context().get_task_id()
        extracted_in = set(batch.column("extract_task").to_pylist())
        if extracted_in != {task}:
            raise RuntimeError(f"written in task {task}, extracted in {extracted_in}")
        return real(batch.drop_columns(["extract_task"]), **kwargs)

    monkeypatch.setattr(extraction, "ExtractSpansBatch", _task_marking_stage_cls())
    monkeypatch.setattr(checkpoint, "write_partitions", write_in_extract_task)
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 40, seed=42, rows_per_file=10)
    res = run_resumable_extraction(
        inp, out, num_partitions=2, batch_size=8, concurrency=concurrency
    )
    assert res == {"partitions_done": 2, "partitions_skipped": 0, "rows": 40}
    ids = sorted(r["doc_id"] for r in read_extraction_output(out).take_all())
    assert ids == [f"doc-{i:08d}" for i in range(40)]


@pytest.mark.usefixtures("ray_session")
def test_concurrent_fused_writes_commit_exactly_once(tmp_path):
    """``concurrency=2``: two fused extract->write tasks land files at the
    same time, over 6 input files and 2 partitions. Each manifest's
    ``row_count`` equals its input files' footers and the footers of the
    files in its partition directory, every doc is written once, and the
    output equals the DOM oracle's."""
    import glob

    import pyarrow.parquet as pq

    from html_parser_ray.extract.extractor import SpanExtractor

    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 60, seed=11, rows_per_file=10)
    res = run_resumable_extraction(inp, out, num_partitions=2, batch_size=4, concurrency=2)
    assert res == {"partitions_done": 2, "partitions_skipped": 0, "rows": 60}

    recs = manifest_records(out)
    assert [len(r["input_files"]) for r in recs] == [3, 3]
    for rec in recs:
        files = glob.glob(os.path.join(out, f"_part={rec['partition_id']}", "*.parquet"))
        assert rec["row_count"] == sum(f["rows"] for f in rec["input_files"])
        assert rec["row_count"] == sum(pq.read_metadata(f).num_rows for f in files)

    back = read_extraction_output(out).take_all()
    got = {r["doc_id"]: [dict(s) for s in r["spans_out"]] for r in back}
    assert len(got) == len(back) == 60
    oracle = SpanExtractor(layout_memo=False)
    oracle.layout._native = None
    source = pq.read_table(inp)
    assert got == {
        d: oracle.extract_document(s)
        for d, s in zip(source.column("doc_id").to_pylist(), source.column("spans").to_pylist())
    }


@pytest.mark.usefixtures("ray_session")
def test_verify_sample_detects_vanished_doc(tmp_path):
    """A document missing from the output entirely must count as a mismatch
    (the former output-drawn sample could never see it)."""
    import glob

    import pyarrow.parquet as pq

    from html_parser_ray.state.checkpoint import verify_sample

    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 20, seed=42, rows_per_file=10)
    run_resumable_extraction(inp, out, num_partitions=2, wave_size=2, batch_size=8)
    clean = verify_sample(out, inp, sample_docs=20)
    assert clean == {"checked": 20, "mismatches": 0}

    # drop one sampled doc's rows from the committed output
    victim = None
    for f in sorted(glob.glob(os.path.join(out, "_part=*", "*.parquet"))):
        t = pq.read_table(f)
        if t.num_rows > 1:
            victim = t.column("doc_id")[0].as_py()
            import pyarrow.compute as pc

            pq.write_table(
                t.filter(pc.field("doc_id") != victim), f
            )
            break
    assert victim is not None
    res = verify_sample(out, inp, sample_docs=20)
    assert res["mismatches"] >= 1


@pytest.mark.usefixtures("ray_session")
def test_giant_doc_resumable_run(tmp_path):
    """Giant documents (MB-scale html and 400-span docs) through the
    resumable writer, 3 input files over 4 partitions (one empty): every doc
    exactly once, span sequences equal to the serial extractor's, and each
    manifest's counts equal to what its partition's files hold."""
    import glob

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from html_parser_ray.sources.corpus import generate_documents
    from html_parser_ray.state.checkpoint import verify_sample

    n, every = 24, 6
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    kw = dict(seed=42, giant_doc_every=every, giant_doc_html_bytes=60_000)
    write_corpus_parquet(inp, n, rows_per_file=8, **kw)
    corpus = generate_documents(n, **kw)
    spans_in = pc.list_value_length(corpus.column("spans")).to_pylist()
    assert 400 in spans_in  # the 400-span giant docs are in the corpus

    res = run_resumable_extraction(
        inp, out, num_partitions=4, wave_size=2, batch_size=8, split_giant_docs=True
    )
    assert res["partitions_done"] == 4 and res["rows"] == n

    back = read_extraction_output(out)
    assert back.schema().names == ["doc_id", "spans_out"]  # no `_part` column
    ids = sorted(r["doc_id"] for r in back.take_all())
    assert ids == sorted(corpus.column("doc_id").to_pylist())

    # sampling every doc puts every giant doc in the checked set
    assert verify_sample(out, inp, sample_docs=n) == {"checked": n, "mismatches": 0}

    recs = manifest_records(out)
    assert len(recs) == 4
    for rec in recs:
        files = glob.glob(os.path.join(out, f"_part={rec['partition_id']}", "*.parquet"))
        assert rec["row_count"] == sum(pq.read_metadata(f).num_rows for f in files)
        spans = sum(
            pc.sum(pc.list_value_length(pq.read_table(f).column("spans_out"))).as_py() or 0
            for f in files
        )
        assert rec["span_count"] == spans
