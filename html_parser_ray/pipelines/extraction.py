"""The flagship extraction pipeline: interleaved corpus -> ordered span table.

Dataset-level composition (no raw Ray tasks anywhere):

    read (parquet/lance)                      # streaming blocks
      -> map_batches(extract_batch, ...)       # tasks, zero-copy Arrow
      -> write_parquet / caller consumption

One streaming task transform with zero shuffles, for every corpus, which
Ray Data may fuse with the maps next to it. The stage's load-once state
(kernels, config, the cross-batch layout memo) lives per worker process and
per run: each ``build_extraction_pipeline`` call draws a run token, and a
process keeps the one ``ExtractSpansBatch`` of the last run it served.
Giant documents take the same path: extraction is per span, so a multi-MB
document is one long row in its batch, not a reason for an exchange.
"""

from __future__ import annotations

from typing import Any, Sequence
from uuid import uuid4

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from html_parser_ray.stages.extract_stage import ExtractSpansBatch

# Not used by the pipeline. Kept importable from here only for the
# benchmark's tracing shims (perfbench/trace.py), which read and patch these
# names on this module.
from html_parser_ray.stages.extract_stage import ExtractFragmentsBatch  # noqa: F401
from html_parser_ray.stages.split import reassemble_group, split_batch  # noqa: F401


# Default rows per extract batch: about TARGET_BATCH_BYTES of uncompressed
# ``spans``, estimated from the parquet footers. The per-batch fixed cost
# (Ray dispatch, the emit's Arrow passes, one kernel call, one layout memo
# probe) is then a small share of each batch, whatever the row size; the
# bounds keep a batch of giant rows from being one row and a batch of tiny
# rows from covering a whole file, which would stop read, extract and write
# from overlapping.
TARGET_BATCH_BYTES = 4 << 20
MIN_BATCH_ROWS = 16
MAX_BATCH_ROWS = 4096
# without a footer to size from: Lance or in-memory input, an unreadable
# file, zero rows
FALLBACK_BATCH_ROWS = 256
# footers read to size a batch, evenly spaced over the input's files
SIZING_FOOTERS = 4


def default_batch_size(paths: Sequence[str]) -> int:
    """Rows per extract batch for the parquet files ``paths``:
    ``TARGET_BATCH_BYTES`` over the bytes per row of the ``spans`` column
    (its column chunks' ``total_uncompressed_size`` over ``num_rows``, from
    at most ``SIZING_FOOTERS`` footers evenly spaced over ``paths``),
    clamped to ``[MIN_BATCH_ROWS, MAX_BATCH_ROWS]``. ``FALLBACK_BATCH_ROWS``
    when no footer gives a row: no paths, none readable as parquet, or
    zero rows."""
    n = min(len(paths), SIZING_FOOTERS)
    rows = span_bytes = 0
    for k in range(n):
        try:
            meta = pq.read_metadata(paths[k * len(paths) // n])
        except (OSError, ValueError):  # missing, unreadable, not parquet
            continue
        rows += meta.num_rows
        for g in range(meta.num_row_groups):
            group = meta.row_group(g)
            for c in range(group.num_columns):
                col = group.column(c)
                if col.path_in_schema.split(".")[0] == "spans":
                    span_bytes += col.total_uncompressed_size
    if not rows:
        return FALLBACK_BATCH_ROWS
    per_row = max(1, span_bytes // rows)
    return max(MIN_BATCH_ROWS, min(MAX_BATCH_ROWS, TARGET_BATCH_BYTES // per_row))


# this process's extract stage and the run token it was built for
_stage: "tuple[str, ExtractSpansBatch] | None" = None


def extract_batch(batch: pa.Table, run: str, stage_cls: type, kwargs: dict) -> pa.Table:
    """The extract task: ``batch`` through this process's
    ``stage_cls(**kwargs)`` for the run ``run``. The stage is built on the
    run's first batch in this process and reused for the rest, so its
    kernels load once per process and its layout memo spans the run's
    batches here. A batch of another run replaces it (the old stage is
    dropped first), so no run reads another's memo and a process holds at
    most one stage."""
    global _stage
    if _stage is None or _stage[0] != run:
        _stage = None
        _stage = (run, stage_cls(**kwargs))
    return _stage[1](batch)


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
    concurrency: int | None = None,
    batch_size: int | None = None,
    extractor_kwargs: dict[str, Any] | None = None,
) -> "ray.data.Dataset":
    """Compose the extraction pipeline over an input Dataset: one lazy,
    streaming ``map_batches`` of extract tasks, at most ``concurrency`` at a
    time (``None``: as many as Ray's CPUs allow). The stage class is read
    from this module when the pipeline is built, and the call draws a fresh
    run token, so each worker process builds one stage for this pipeline
    and none from an earlier call is reused.

    ``batch_size`` is rows per extract batch. By default it comes from
    ``default_batch_size`` over ``ds.input_files()``, which reads no data
    (and lists no files once ``ds`` has a transform, so a caller that maps
    the input first passes its own ``batch_size``).

    ``split_giant_docs`` does not change the plan: giant documents extract
    in place, like any other. It is accepted only because the benchmark's
    ``giant_resumable`` job (``perfbench/job.py``) still passes it.
    """
    kwargs = dict(extractor_kwargs or {})
    if batch_size is None:
        batch_size = default_batch_size(ds.input_files())

    return ds.map_batches(
        extract_batch,
        fn_kwargs={"run": uuid4().hex, "stage_cls": ExtractSpansBatch, "kwargs": kwargs},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )

