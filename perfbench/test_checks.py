"""Tests of the benchmark itself: the output checks catch corrupted output,
inputs are deterministic per seed, and the trace helpers parse what they
read. Run with ``python3 -m pytest perfbench -q`` from the repository root."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from html_parser_ray.html.document import parse_html
from html_parser_ray.sources.corpus import generate_documents
from html_parser_ray.stages.extract_stage import ExtractSpansBatch
from perfbench import checks, corpora, job, procs, trace


@pytest.fixture(scope="module")
def extracted():
    """Inputs, the program's own stage output (in-process, no Ray) and the
    oracle's expectation for a sample that covers every doc."""
    inputs = generate_documents(40, seed=3)
    output = ExtractSpansBatch()(inputs)
    expected = checks.expected_spans(inputs, inputs.column("doc_id").to_pylist())
    return inputs, output, expected


def _with_spans(output: pa.Table, row: int, fn) -> pa.Table:
    rows = output.to_pylist()
    rows[row]["spans_out"] = fn(rows[row]["spans_out"])
    return pa.Table.from_pylist(rows, schema=output.schema)


def test_stage_output_passes(extracted):
    inputs, output, expected = extracted
    assert checks.check_extraction(inputs, output, expected)["failed"] == 0


def test_missing_doc_fails(extracted):
    inputs, output, expected = extracted
    res = checks.check_extraction(inputs, output.slice(1), expected)
    assert res["missing"] == 1 and res["failed"] == 1


def test_duplicated_doc_fails(extracted):
    inputs, output, expected = extracted
    res = checks.check_extraction(inputs, pa.concat_tables([output, output.slice(5, 1)]), expected)
    assert res["duplicated"] == 1 and res["failed"] == 1


def test_changed_text_fails(extracted):
    inputs, output, expected = extracted
    row = next(i for i, s in enumerate(output.column("spans_out").to_pylist()) if s)

    def corrupt(spans):
        spans[0]["text"] += "x"
        return spans

    res = checks.check_extraction(inputs, _with_spans(output, row, corrupt), expected)
    assert res["mismatched"] == 1 and res["failed"] == 1


def test_reordered_spans_fail(extracted):
    inputs, output, expected = extracted
    row = next(
        i for i, s in enumerate(output.column("spans_out").to_pylist())
        if len({x["text"] for x in s}) > 1
    )
    res = checks.check_extraction(
        inputs, _with_spans(output, row, lambda s: list(reversed(s))), expected
    )
    assert res["mismatched"] == 1


def test_foreign_doc_fails(extracted):
    inputs, output, expected = extracted
    extra = output.slice(0, 1).set_column(0, "doc_id", pa.array(["not-an-input"]))
    assert checks.check_extraction(inputs, pa.concat_tables([output, extra]), expected)["extra"] == 1


def test_query_check_catches_a_dropped_match():
    sources = corpora.dom_spans(1)[:30]
    results = {i: [parse_html(s).query_all(sel) for sel in job.SELECTORS] for i, s in enumerate(sources)}
    assert checks.check_queries(sources, results, job.SELECTORS) == 0
    i = next(i for i, r in results.items() if r[0])
    results[i][0] = results[i][0][1:]
    assert checks.check_queries(sources, results, job.SELECTORS) == 1


def test_inputs_are_deterministic_and_shaped():
    assert corpora.html_stream_table(5).equals(corpora.html_stream_table(5))
    assert not corpora.html_stream_table(5).equals(corpora.html_stream_table(6))
    html = corpora.html_stream_table(5).column("spans").combine_chunks().flatten()
    assert not pc.any(pc.equal(html.field("kind"), "media")).as_py()

    media = corpora.media_zipf_table(5)
    assert media.equals(corpora.media_zipf_table(5))
    for spans in media.column("spans").to_pylist()[:500]:
        n_media = sum(s["kind"] == "media" for s in spans)
        assert 2 * n_media >= len(spans)
        assert [s["offset"] for s in spans] == list(range(len(spans)))

    giants = checks.giant_ids(corpora.giant_table(5))
    assert len(giants) == corpora.GIANT_DOCS // corpora.GIANT_EVERY


def test_read_stats_parses_ray_data_report():
    text = (
        "Operator 1 ReadParquet->SplitBlocks(3): 4 tasks executed, 12 blocks produced in 0.76s\n"
        "* Remote wall time: 775.83us min, 30.32ms max, 7.0ms mean, 84.03ms total\n"
        "* Remote cpu time: 817.59us min, 23.95ms max, 6.24ms mean, 1.5s total\n"
        "Operator 2 MapBatches(ExtractSpansBatch): 12 tasks executed, 12 blocks produced in 0.48s\n"
        "* Remote wall time: 21.98ms min, 41.83ms max, 27.93ms mean, 335.19ms total\n"
    )
    assert trace.read_stats(text) == pytest.approx({"wall_s": 0.08403, "cpu_s": 1.5, "blocks": 12})


def test_self_cpu_subtracts_direct_children():
    spans = [
        {"id": "a", "parent": None, "cpu": 1.0},
        {"id": "b", "parent": "a", "cpu": 0.25},
        {"id": "c", "parent": "b", "cpu": 0.125},
    ]
    assert trace.self_cpu(spans) == {"a": 0.75, "b": 0.125, "c": 0.125}


def test_units():
    assert job.unit_of("docs_per_s") == "docs/s"
    assert job.unit_of("trace.untraced_docs_per_s") == "docs/s"
    assert job.unit_of("extract_stage.calls") == "count"
    assert job.unit_of("extract_stage.batch_ms_p99") == "ms"
    assert job.unit_of("read.first_block_s_max") == "s"
    assert job.unit_of("native.html_mb") == "MB"
    assert job.unit_of("layout.hit_ratio") == "frac"


def test_rss_sampler_sees_this_process():
    with procs.RssSampler(interval_s=0.01) as rss:
        pass
    assert rss.peak > 0


def test_tracer_nests_spans_and_counts(tmp_path):
    tr = trace.Tracer(str(tmp_path / "spans.jsonl"))
    with tr.span("outer", rows=3):
        with tr.span("inner"):
            tr.add("hits", 2)
        tr.add("hits")
    spans = trace.load_spans(str(tmp_path))
    outer = next(s for s in spans if s["name"] == "outer")
    inner = next(s for s in spans if s["name"] == "inner")
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["attrs"] == {"rows": 3, "hits": 1} and inner["attrs"] == {"hits": 2}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
