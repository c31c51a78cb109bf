"""Size-aware giant-document splitting and ordered reassembly.

Off the pipeline path: ``build_extraction_pipeline`` extracts giant
documents in place (extraction is per span, so splitting only renumbered
offsets, and both plans give identical output). The module is kept only for
the benchmark's tracing shims, which import ``split_batch`` and
``reassemble_group``, and for the unit tests that pin them.

``split_batch`` cuts a document at *span boundaries* (each input span is a
self-contained unit: one HTML payload, one text run, one media ref) into
fragments that extract independently; ``reassemble_group`` merges one
doc_id's extracted fragments in ``frag_seq`` order.
"""

from __future__ import annotations

import pyarrow as pa

from html_parser_ray.sources.corpus import SPAN_STRUCT

FRAG_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
        ("frag_seq", pa.int32()),
        ("n_frags", pa.int32()),
    ]
)


def split_batch(batch: pa.Table, max_bytes: int = 1_000_000, max_spans: int = 64) -> pa.Table:
    """Emit one fragment row per chunk of spans whose cumulative text size
    stays under ``max_bytes`` and count under ``max_spans``; normal rows pass
    through as a single fragment.

    Vectorized fast path: per-row span counts and byte totals come from Arrow
    kernels (list lengths + segment sums over the flattened text lengths); a
    batch with no oversized row passes through zero-copy with constant
    fragment columns appended — the per-row Python path runs only for batches
    that actually contain a giant document.
    """
    import numpy as np
    import pyarrow.compute as pc

    spans_arr = batch.column("spans")
    if isinstance(spans_arr, pa.ChunkedArray):
        spans_arr = spans_arr.combine_chunks()
    n_rows = batch.num_rows
    counts = pc.list_value_length(spans_arr).to_numpy(zero_copy_only=False)
    flat_text = spans_arr.flatten().field("text")
    # BYTES (binary_length), not codepoints — multi-byte corpora exceeded
    # the byte budget up to 4x under utf8_length; fill_null so one null
    # text span can't NaN-poison its row's total (NaN > max_bytes is
    # False, silently disabling the split for that doc)
    tlens = pc.fill_null(
        pc.binary_length(flat_text.cast(pa.binary())), 0
    ).to_numpy(zero_copy_only=False)
    offsets = spans_arr.offsets.to_numpy(zero_copy_only=False)
    base = offsets[0]
    starts = (offsets[:-1] - base).astype(np.int64)
    totals = np.add.reduceat(
        np.concatenate([tlens, [0]]), np.minimum(starts, len(tlens))
    ) * (counts > 0)
    oversized = (counts > max_spans) | (totals > max_bytes)
    if not oversized.any():
        ones = pa.nulls(n_rows, pa.int32()).fill_null(1)
        zeros = pa.nulls(n_rows, pa.int32()).fill_null(0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "spans": spans_arr,
                "frag_seq": zeros,
                "n_frags": ones,
            }
        )

    doc_ids = batch.column("doc_id").to_pylist()
    spans_col = spans_arr.to_pylist()
    out_ids: list[str] = []
    out_spans: list[list[dict]] = []
    out_seq: list[int] = []
    out_n: list[int] = []
    for doc_id, spans in zip(doc_ids, spans_col):
        spans = spans or []
        frags: list[list[dict]] = []
        cur: list[dict] = []
        cur_bytes = 0
        for sp in spans:
            # byte size, matching the vectorized binary_length fast path
            size = len((sp.get("text") or "").encode("utf-8"))
            if cur and (cur_bytes + size > max_bytes or len(cur) >= max_spans):
                frags.append(cur)
                cur = []
                cur_bytes = 0
            cur.append(sp)
            cur_bytes += size
        if cur or not frags:
            frags.append(cur)
        for seq, frag in enumerate(frags):
            out_ids.append(doc_id)
            out_spans.append(frag)
            out_seq.append(seq)
            out_n.append(len(frags))
    return pa.table(
        {
            "doc_id": out_ids,
            "spans": pa.array(out_spans, type=pa.list_(SPAN_STRUCT)),
            "frag_seq": pa.array(out_seq, type=pa.int32()),
            "n_frags": pa.array(out_n, type=pa.int32()),
        }
    ).cast(FRAG_SCHEMA)


def reassemble_group(group: pa.Table) -> pa.Table:
    """Ordered merge of one doc_id's extracted fragments
    (map_groups callable). Renumbers offsets 0..k-1 across fragments."""
    seqs = group.column("frag_seq").to_pylist()
    spans_lists = group.column("spans_out").to_pylist()
    doc_id = group.column("doc_id")[0].as_py()
    merged: list[dict] = []
    for _, spans in sorted(zip(seqs, spans_lists), key=lambda t: t[0]):
        for sp in spans or []:
            sp = dict(sp)
            sp["offset"] = len(merged)
            merged.append(sp)
    return pa.table(
        {
            "doc_id": pa.array([doc_id], type=pa.string()),
            "spans_out": pa.array([merged], type=pa.list_(SPAN_STRUCT)),
        }
    )
