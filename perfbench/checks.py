"""Output checks.

Extraction output is checked against the DOM oracle: ``SpanExtractor`` on
the unfused DOM path, with a ``LayoutParser`` that has no memo and no native
PDF callable, so no fast path or cache of the program is shared with the
stage under test. Selector output is checked against a brute-force
``Document.matches`` over every element.
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from html_parser_ray.extract.extractor import SpanExtractor
from html_parser_ray.html.document import parse_html
from html_parser_ray.html.tokenizer import KIND_ELEMENT

SAMPLE_DOCS = 120
# a doc is in the giant tail when its text reaches this many bytes or it has
# this many spans (the split stage's span limit)
GIANT_BYTES = 100_000
GIANT_SPANS = 64


def oracle() -> SpanExtractor:
    ex = SpanExtractor(use_fused=False, layout_memo=False)
    ex.layout._native = None
    return ex


def sample_ids(table: pa.Table, seed: int, always: "list[str]" = ()) -> "list[str]":
    """A seeded sample of ``SAMPLE_DOCS`` input doc ids, plus ``always``."""
    ids = table.column("doc_id").to_pylist()
    picked = random.Random(seed).sample(ids, min(SAMPLE_DOCS, len(ids)))
    return sorted(set(picked) | set(always))


def expected_spans(table: pa.Table, ids: "list[str]") -> "dict[str, list[dict]]":
    """Oracle output spans of the docs ``ids``."""
    ex = oracle()
    rows = table.filter(pc.is_in(table.column("doc_id"), pa.array(ids))).to_pylist()
    return {r["doc_id"]: ex.extract_document(r["spans"]) for r in rows}


def giant_ids(table: pa.Table) -> "list[str]":
    """Doc ids of the giant-tail docs (large html or many spans)."""
    spans = table.column("spans").combine_chunks()
    n = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    lens = pc.binary_length(spans.flatten().field("text").cast(pa.binary()))
    parents = pc.list_parent_indices(spans).to_numpy()
    size = np.bincount(parents, weights=lens.to_numpy(zero_copy_only=False), minlength=len(spans))
    ids = table.column("doc_id").to_pylist()
    return [ids[i] for i in np.flatnonzero((size >= GIANT_BYTES) | (n >= GIANT_SPANS))]


def check_extraction(
    inputs: pa.Table, output: pa.Table, expected: "dict[str, list[dict]]"
) -> "dict":
    """Failure counts of one job's ``output`` (columns ``doc_id``,
    ``spans_out``): input docs missing from the output or present more than
    once, output docs not in the input, and sampled docs whose span sequence
    (kind, text, media_ref, offset) differs from ``expected``. ``failed``
    counts each failing doc once."""
    want = inputs.column("doc_id").combine_chunks()
    got = output.column("doc_id").combine_chunks() if output.num_rows else pa.array([], pa.string())
    counts = pc.value_counts(got)
    values = counts.field("values")
    dup = values.filter(pc.greater(counts.field("counts"), 1)).to_pylist()
    missing = want.filter(pc.invert(pc.is_in(want, values))).to_pylist()
    extra = values.filter(pc.invert(pc.is_in(values, want))).to_pylist()
    rows = output.filter(pc.is_in(output.column("doc_id"), pa.array(sorted(expected))))
    mismatched = sorted(
        {
            r["doc_id"]
            for r in rows.select(["doc_id", "spans_out"]).to_pylist()
            if [dict(s) for s in r["spans_out"] or []] != expected[r["doc_id"]]
        }
    )
    failed = set(dup) | set(missing) | set(mismatched)
    return {
        "failed": len(failed) + len(extra),
        "missing": len(missing),
        "duplicated": len(dup),
        "extra": len(extra),
        "mismatched": len(mismatched),
    }


def brute_force(doc, selector: str) -> "list[int]":
    return [
        i for i in range(len(doc)) if doc.kind[i] == KIND_ELEMENT and doc.matches(i, selector)
    ]


def check_queries(
    sources: "list[bytes]", results: "dict[int, list[list[int]]]", selectors: "tuple[str, ...]"
) -> int:
    """Number of sampled sources whose ``query_all`` results (one list per
    selector) differ from the brute-force matcher."""
    failed = 0
    for i, got in results.items():
        doc = parse_html(sources[i])
        if got != [brute_force(doc, sel) for sel in selectors]:
            failed += 1
    return failed
