"""The flagship extraction pipeline: interleaved corpus -> ordered span table.

Dataset-level composition (no raw Ray tasks anywhere):

    read_corpus (parquet: CorpusDatasource; lance: read_lance)
      -> map_batches(extract_batch, ...)       # tasks, zero-copy Arrow
      -> write_parquet / caller consumption

The parquet read is planned on the driver from the file listing alone
(``list_parquet_files``, the rule resumable runs partition by): one read
task per file, no sampling tasks before the Dataset exists, and no block
splitting, so a file smaller than ``DataContext.target_max_block_size`` is
one block and a job runs at most one extract task per such file. Given
``parts`` (one int per path), the read tags each row with its path's int
in a ``part`` column: a resumable run tags each row with its partition so,
and its write groups rows by that column. One streaming task transform
with zero shuffles follows, for every corpus, which Ray Data may fuse with
the maps next to it. The stage's load-once state (kernels, the
cross-batch layout memo) lives per worker process and per run: each
``build_extraction_pipeline`` call draws a run token, and a process keeps
the one ``ExtractSpansBatch`` of the last run it served.
Giant documents take the same path: extraction is per span, so a multi-MB
document is one long row in its batch, not a reason for an exchange.
"""

from __future__ import annotations

import inspect
import os
from functools import partial
from typing import Any, Sequence
from uuid import uuid4

import pyarrow as pa
import pyarrow.fs as pafs
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockMetadata
from ray.data.datasource import ReadTask

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
    at most ``SIZING_FOOTERS`` footers evenly spaced over ``paths`` in
    sorted order, so the size does not depend on the order given),
    clamped to ``[MIN_BATCH_ROWS, MAX_BATCH_ROWS]``. ``FALLBACK_BATCH_ROWS``
    when no footer gives a row: no paths, none readable as parquet, or
    zero rows."""
    paths = sorted(paths)
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


def list_parquet_files(root: str, fs: "pafs.FileSystem | None" = None) -> "list[pafs.FileInfo]":
    """The input files under the directory ``root`` of ``fs`` (the local
    file system by default), at any depth, sorted by path: names that end in
    ``.parquet`` and start with neither ``.`` nor ``_``. A missing ``root``
    is a ``FileNotFoundError``."""
    fs = fs or pafs.LocalFileSystem()
    return sorted(
        (
            info
            for info in fs.get_file_info(pafs.FileSelector(root, recursive=True))
            if info.type == pafs.FileType.File
            and info.base_name.endswith(".parquet")
            and not info.base_name.startswith((".", "_"))
        ),
        key=lambda info: info.path,
    )


def _read_file(
    fs: "pafs.FileSystem",
    path: str,
    part: "int | None",
    schema: pa.Schema,
    columns: "list[str] | None",
):
    """The read task of one parquet file: one table per row group, cast to
    ``schema``, with an int32 ``part`` column holding ``part`` unless it is
    ``None``. Ray's read operator joins a task's tables into blocks of up to
    ``DataContext.target_max_block_size`` and slices a larger one, so a
    file smaller than that is one block."""
    with fs.open_input_file(path) as f:
        pf = pq.ParquetFile(f)
        for g in range(pf.num_row_groups):
            block = pf.read_row_group(g, columns=columns)
            if part is not None:
                block = block.append_column(
                    "part", pa.repeat(pa.scalar(part, pa.int32()), block.num_rows)
                )
            yield block if block.schema == schema else block.cast(schema)


class CorpusDatasource(ray.data.Datasource):
    """The corpus's parquet files as a Ray Data source: one read task per
    file, planned from the listing alone. Ray's ``read_parquet`` samples
    files in Ray tasks before the Dataset exists and splits each file's
    output into small blocks; this plans from file names and sizes (the
    size on disk is the size estimate), reads only the first file's schema
    on the driver, and splits no block (``read_corpus`` asks for one block
    per task).

    ``paths`` is a file, a directory (read as ``list_parquet_files`` lists
    it; no hive partition columns) or a list of either, local or a URI that
    ``pyarrow.fs`` resolves. Every file is cast to the first file's schema,
    pruned to ``columns`` in their order. ``parts`` holds one int per given
    path; each row then carries its path's int in an int32 ``part`` column,
    and every file of a directory carries the directory's int. A ``parts``
    of another length than the paths is a ``ValueError``."""

    def __init__(self, paths, columns=None, parts: "Sequence[int] | None" = None) -> None:
        given = [paths] if isinstance(paths, str) else list(paths)
        if parts is not None and len(parts) != len(given):
            raise ValueError(f"{len(parts)} parts for {len(given)} paths")
        self._files: "list[tuple[pafs.FileSystem, str, int | None, int]]" = []
        for name, part in zip(given, [None] * len(given) if parts is None else parts):
            if "://" in name:
                fs, path = pafs.FileSystem.from_uri(name)
            else:
                fs, path = pafs.LocalFileSystem(), os.path.abspath(name)
            info = fs.get_file_info(path)
            if info.type == pafs.FileType.Directory:
                self._files += [(fs, f.path, part, f.size) for f in list_parquet_files(path, fs)]
            elif info.type == pafs.FileType.File:
                self._files.append((fs, path, part, info.size))
            else:
                raise FileNotFoundError(f"no such file or directory: {name!r}")
        if not self._files:
            raise FileNotFoundError(f"no parquet files under {paths!r}")
        fs, first = self._files[0][:2]
        with fs.open_input_file(first) as f:
            schema = pq.read_schema(f)
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        if parts is not None:
            schema = schema.append(pa.field("part", pa.int32()))
        self._schema = schema.remove_metadata()
        self._columns = None if columns is None else list(columns)

    @property
    def num_files(self) -> int:
        return len(self._files)

    def estimate_inmemory_data_size(self) -> int:
        return sum(f[3] for f in self._files)

    def get_read_tasks(self, parallelism: int) -> "list[ReadTask]":
        schema, columns = self._schema, self._columns
        return [
            ReadTask(
                partial(_read_file, fs, path, part, schema, columns),
                BlockMetadata(
                    num_rows=None, size_bytes=size, input_files=[path], exec_stats=None
                ),
                schema,
            )
            for fs, path, part, size in self._files
        ]


def read_corpus(
    path: "str | Sequence[str]", file_format: str = "parquet", **kwargs
) -> "ray.data.Dataset":
    """Read the interleaved corpus: Lance (the production format per
    input_hint) through ``ray.data.read_lance``, or parquet (the sandbox
    tests) through ``CorpusDatasource`` as one block stream per file, which
    takes ``columns`` and ``parts`` (one int per path, carried by each of
    its rows in a ``part`` column). A directory is read as
    ``list_parquet_files`` lists it, so a file in it without the
    ``.parquet`` suffix, which ``read_parquet`` used to read, is skipped.
    Any other format is a ``ValueError``."""
    if file_format == "lance":
        return ray.data.read_lance(path, **kwargs)
    if file_format == "parquet":
        source = CorpusDatasource(path, **kwargs)
        return ray.data.read_datasource(source, override_num_blocks=source.num_files)
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

    ``extractor_kwargs`` are the stage's keywords. They are bound to its
    signature here, so an unknown one is a ``TypeError`` when the pipeline
    is built, not in an extract task mid-job.

    ``split_giant_docs`` does not change the plan: giant documents extract
    in place, like any other. It is accepted only because the benchmark's
    ``giant_resumable`` job (``perfbench/job.py``) still passes it.
    """
    kwargs = dict(extractor_kwargs or {})
    inspect.signature(ExtractSpansBatch).bind(**kwargs)
    if batch_size is None:
        batch_size = default_batch_size(ds.input_files())

    return ds.map_batches(
        extract_batch,
        fn_kwargs={"run": uuid4().hex, "stage_cls": ExtractSpansBatch, "kwargs": kwargs},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )

