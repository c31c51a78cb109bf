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


# most extract actors the default pool starts: past about this many, the
# upstream read tasks starve for CPUs and the stage waits on its input
MAX_EXTRACT_ACTORS = 24


def _default_concurrency() -> int:
    """Actor-pool size for the CPU-bound extract stage: total CPUs minus a
    reserve for the read/write stages, at least 2 and at most
    ``MAX_EXTRACT_ACTORS``, and always leaving one CPU free (so one actor on
    1 or 2 CPUs). Sizing the pool to ALL CPUs starves the upstream read
    tasks (actors hold their CPU for life) and can stall the whole pipeline
    — measured 10x wall-time degradation in local tests. With no CPU count
    (Ray not initialised yet) the pool is 2."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0
    except Exception:
        cpus = 0
    n = max(2, min(cpus - 2, MAX_EXTRACT_ACTORS))
    return min(n, max(1, cpus - 1)) if cpus else n


def read_corpus(path: str, file_format: str = "parquet", **kwargs) -> "ray.data.Dataset":
    """Read the interleaved corpus: Lance (the production format per
    input_hint) or parquet (the sandbox tests). Any other format is a
    ``ValueError``."""
    if file_format == "lance":
        return ray.data.read_lance(path, **kwargs)
    if file_format == "parquet":
        return ray.data.read_parquet(path, **kwargs)
    raise ValueError(
        f"file_format must be 'parquet' or 'lance', got {file_format!r}"
    )


def build_extraction_pipeline(
    ds: "ray.data.Dataset",
    *,
    split_giant_docs: bool = False,
    concurrency: int | tuple[int, int] | None = None,
    # 256 rows: large enough that per-batch dispatch is a small share of
    # the work, small enough that batches pipeline across the actor pool
    batch_size: int = 256,
    emit_metrics: bool = False,
    extractor_kwargs: dict[str, Any] | None = None,
) -> "ray.data.Dataset":
    """Compose the extraction pipeline over an input Dataset: one lazy,
    streaming ``map_batches`` over the extract actor pool.

    ``split_giant_docs`` does not change the plan: giant documents extract
    in place, like any other. It is accepted only because the benchmark's
    ``giant_resumable`` job (``perfbench/job.py``) still passes it.
    """
    kwargs = dict(extractor_kwargs or {})
    kwargs["emit_metrics"] = emit_metrics
    if concurrency is None:
        concurrency = _default_concurrency()

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
