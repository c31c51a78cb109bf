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
    partition_of,
    read_extraction_output,
    run_resumable_extraction,
)


def test_partition_of_stable():
    assert partition_of("doc-00000001", 16) == partition_of("doc-00000001", 16)
    parts = {partition_of(f"doc-{i:08d}", 8) for i in range(100)}
    assert parts == set(range(8))  # all partitions hit


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
def test_verify_sample_with_non_default_thresholds(tmp_path):
    """``extractor_kwargs`` are the stage's keywords, as the run took them:
    a run under non-default thresholds verifies clean under the same
    kwargs, and the defaults see the difference."""
    from html_parser_ray.state.checkpoint import verify_sample

    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 30, seed=42, rows_per_file=15)
    kw = {"min_text_len": 5, "max_link_density": 0.1}
    run_resumable_extraction(
        inp, out, num_partitions=2, wave_size=2, batch_size=8, extractor_kwargs=kw
    )
    res = verify_sample(out, inp, sample_docs=20, extractor_kwargs=kw)
    assert res == {"checked": 20, "mismatches": 0}
    assert verify_sample(out, inp, sample_docs=20)["mismatches"] > 0


@pytest.mark.usefixtures("ray_session")
def test_verify_sample_checks_against_the_dom_oracle(tmp_path, monkeypatch):
    """The check re-extracts with the DOM oracle, not with the run's native
    kernel: with the per-document kernel replaced by one that drops every
    block, a correct run still verifies clean."""
    import html_parser_ray.native as native_mod
    from html_parser_ray.state.checkpoint import verify_sample

    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 30, seed=42, rows_per_file=15)
    run_resumable_extraction(inp, out, num_partitions=2, wave_size=2, batch_size=8)

    monkeypatch.setattr(
        native_mod, "get_native_extractor", lambda: (lambda *a, **k: [])
    )
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
    resumable writer in several waves: every doc exactly once, span
    sequences equal to the serial extractor's, and each manifest's counts
    equal to what its partition's files hold."""
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
        back = pq.read_table(os.path.join(out, f"_part={rec['partition_id']}"))
        assert rec["row_count"] == back.num_rows
        spans = pc.sum(pc.list_value_length(back.column("spans_out"))).as_py() or 0
        assert rec["span_count"] == spans
