"""Actor-pool layout-parse stage over media refs (the PDF branch as a
first-class pipeline, not just a leg of span extraction).

``LayoutFeatureStage`` is a callable class for
``map_batches(LayoutFeatureStage, batch_format="pyarrow", concurrency=N)``:
the layout parser (model-load stand-in) constructs once per actor; each call
resolves and REALLY parses each distinct ref's PDF bytes into layout features
(``LayoutParser.layout_jsons``: one native call per batch, the pure
``functions.pdfcodec`` parser for what the kernel declines). At 100 TB the
refs column streams through the actor pool and nothing but the fixed-width
feature rows comes out."""

from __future__ import annotations

import json

import pyarrow as pa

from html_parser_ray.extract.layout import PDF_REF_PREFIX, LayoutParser

LAYOUT_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("num_pages", pa.int32()),
        ("n_text_spans", pa.int32()),
        ("n_rects", pa.int32()),
        ("text_chars", pa.int64()),
        ("layout_fingerprint", pa.string()),
    ]
)


def synth_pdf_refs(n: int) -> pa.Table:
    """Deterministic media-ref table (the id space the interleaved corpus
    uses for its media spans)."""
    return pa.table(
        {"media_ref": [f"{PDF_REF_PREFIX}{i * 13 % 100000:06d}" for i in range(n)]}
    )


class LayoutFeatureStage:
    def __init__(self, model_name: str = "layout-stub-v0") -> None:
        self.parser = LayoutParser(model_name)

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        # Parse each distinct ref once per batch, all in one batch decode
        # (one native PDF call) — real corpora repeat media refs across
        # documents, and the parse is the whole cost here.
        keys = list(dict.fromkeys(r or "" for r in refs))
        jsons, _ = self.parser.layout_jsons(keys)
        memo = dict(zip(keys, map(json.loads, jsons)))
        metas = [memo[r or ""] for r in refs]
        return pa.table(
            {
                "media_ref": pa.array(refs, type=pa.string()),
                "num_pages": pa.array(
                    [m.get("num_pages", 0) for m in metas], type=pa.int32()
                ),
                "n_text_spans": pa.array(
                    [m.get("n_text_spans", 0) for m in metas], type=pa.int32()
                ),
                "n_rects": pa.array(
                    [m.get("n_rects", 0) for m in metas], type=pa.int32()
                ),
                "text_chars": pa.array(
                    [m.get("text_chars", 0) for m in metas], type=pa.int64()
                ),
                "layout_fingerprint": pa.array(
                    [m.get("layout_fingerprint", "") for m in metas],
                    type=pa.string(),
                ),
            }
        )


def build_layout_feature_pipeline(ds, concurrency: int = 4, batch_size: int | None = None):
    # (1, N) autoscaling pool: small inputs (one block) run on one actor
    # without Ray's under-utilization warning; full-corpus runs ramp to N.
    return ds.map_batches(
        LayoutFeatureStage,
        batch_format="pyarrow",
        batch_size=batch_size or 64,
        concurrency=(1, concurrency) if concurrency > 1 else concurrency,
    )
