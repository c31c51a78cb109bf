"""The flagship extraction pipeline: interleaved corpus -> ordered span table.

Dataset-level composition (no raw Ray tasks anywhere):

    read (parquet/lance)                      # streaming blocks
      -> map_batches(ExtractSpansBatch, ...)   # actor pool, zero-copy Arrow
      -> write_parquet / caller consumption

One streaming actor-pool transform with zero shuffles, for every corpus.
Giant documents take the same path: extraction is per span, so a multi-MB
document is one long row in its batch, not a reason for an exchange.
"""

from __future__ import annotations

from typing import Any

import ray.data

from html_parser_ray.stages.extract_stage import ExtractSpansBatch

# Not used by the pipeline. Kept importable from here only for the
# benchmark's tracing shims (perfbench/trace.py), which read and patch these
# names on this module.
from html_parser_ray.stages.extract_stage import ExtractFragmentsBatch  # noqa: F401
from html_parser_ray.stages.split import reassemble_group, split_batch  # noqa: F401


def _default_concurrency() -> int:
    """Actor-pool size for the CPU-bound extract stage: total CPUs minus a
    reserve for the read/write stages. Sizing the pool to ALL CPUs starves the
    upstream read tasks (actors hold their CPU for life) and can stall the
    whole pipeline — measured 10x wall-time degradation in local tests."""
    import os

    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    except Exception:
        cpus = 0
    # GRAFT_MAX_SLOTS caps the pool on hosts whose advertised CPUs exceed
    # the effective parallel units. Default 24 = the r5 steady-state sweep
    # optimum for THIS stage at 32 CPUs (bench.py run_extraction_bench:
    # html-only 350k docs/s at 24 slots vs 291k at the old ramp-regime 16;
    # past 24 the read stage starves) — the bench and the shipped pipeline
    # deliberately share one knob and one default so the recorded headline
    # is measured at the concurrency users actually get.
    cap = int(os.environ.get("GRAFT_MAX_SLOTS", "24"))
    return max(2, min(cpus - 2, cap))


def read_corpus(path: str, file_format: str = "parquet", **kwargs) -> "ray.data.Dataset":
    """Read the interleaved corpus. Lance when available (the production
    format per input_hint), parquet for the sandbox tests."""
    if file_format == "lance":
        return ray.data.read_lance(path, **kwargs)
    return ray.data.read_parquet(path, **kwargs)


def build_extraction_pipeline(
    ds: "ray.data.Dataset",
    *,
    split_giant_docs: bool = False,
    concurrency: int | tuple[int, int] | None = None,
    # 256 = the r4 probe-calibrated throughput peak (BENCH/BASELINE.md §7:
    # 150-155k calibrated docs/s vs 116k at 512, 96-118k at 64-192)
    batch_size: int = 256,
    emit_metrics: bool = False,
    extractor_kwargs: dict[str, Any] | None = None,
    # >0 spawns that many LayoutCacheShard actors (stages/layout_cache.py)
    # so each distinct media_ref is PDF-decoded once cluster-wide instead of
    # once per extract actor (measured 3.3x fewer decodes on the bench
    # corpus — BENCH/BASELINE.md §11). Only meaningful with the real decode
    # branch on; ignored when layout_pdf_decode=False.
    shared_layout_cache: int = 0,
) -> "ray.data.Dataset":
    """Compose the extraction pipeline over an input Dataset: one lazy,
    streaming ``map_batches`` over the extract actor pool.

    ``split_giant_docs`` is accepted for existing callers and does not
    change the plan: giant documents extract in place, like any other.
    """
    kwargs = dict(extractor_kwargs or {})
    kwargs["emit_metrics"] = emit_metrics
    if concurrency is None:
        concurrency = _default_concurrency()

    if shared_layout_cache > 0 and kwargs.get("layout_pdf_decode", True):
        from html_parser_ray.stages.layout_cache import create_layout_cache

        kwargs["layout_cache_shards"] = create_layout_cache(
            shared_layout_cache,
            model_name=kwargs.get("layout_model", "layout-stub-v0"),
        )

    return ds.map_batches(
        ExtractSpansBatch,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def run_extraction(
    input_path: str,
    output_path: str | None = None,
    file_format: str = "parquet",
    **pipeline_kwargs,
):
    """Read -> extract -> (optionally) write partitioned parquet; returns the
    lazy Dataset when no output path is given."""
    ds = read_corpus(input_path, file_format=file_format)
    out = build_extraction_pipeline(ds, **pipeline_kwargs)
    if output_path is not None:
        out.write_parquet(output_path)
        return None
    return out
