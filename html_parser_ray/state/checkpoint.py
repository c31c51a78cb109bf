"""Checkpoint manifest + resumable partitioned output.

Layout under ``output_root``:

    _part=<k>/...parquet       one directory per deterministic partition
                               (written by workers via write_parquet)
    _manifest/part-<k>.json    lineage record committed AFTER the partition's
                               data lands (write-then-commit ordering)

Partition id = stable md5 hash of ``doc_id`` mod ``num_partitions`` (never
Python's seeded ``hash``). Work proceeds in *waves* of partitions. Each wave
is one streaming Ray Data execution: read -> filter to the wave's partitions
(at 100 TB this filter is a predicate pushdown on a precomputed partition
column in Lance; here a cheap ``map_batches`` filter) -> extract ->
partitioned ``write_parquet`` from the workers (no driver materialization).
The driver then commits one manifest record per finished partition, with
row and span counts read from the written files' parquet footers and span
lists by pyarrow, so a commit starts no Ray job. A crash loses at most the
current wave; a resumed run skips every committed partition.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ENGINE_VERSION = "html_parser_ray-0.1.0"


def partition_of(doc_id: str, num_partitions: int) -> int:
    h = hashlib.md5(doc_id.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") % num_partitions


def _manifest_dir(root: str) -> str:
    return os.path.join(root, "_manifest")


def completed_partitions(output_root: str) -> set[int]:
    mdir = _manifest_dir(output_root)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            try:
                out.add(int(name[5:-5]))
            except ValueError:
                # a stray non-numeric file beside the manifests must not
                # make the whole checkpoint tree unreadable
                continue
    return out


def add_partition_column(batch: pa.Table, num_partitions: int) -> pa.Table:
    parts = [
        partition_of(d, num_partitions)
        for d in batch.column("doc_id").to_pylist()
    ]
    return batch.append_column("_part", pa.array(parts, type=pa.int32()))


def _commit_manifest(output_root: str, part: int, record: dict) -> None:
    mdir = _manifest_dir(output_root)
    tmp = os.path.join(mdir, f".part-{part}.json.tmp")
    with open(tmp, "w") as f:
        json.dump(record, f)
        # durability ordering: the manifest IS the commit record, so its
        # bytes (and the rename) must hit disk before a resume can trust
        # it — a power loss that keeps the rename but not the contents
        # would make completed_partitions() claim data that never landed
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(mdir, f"part-{part}.json"))
    dirfd = os.open(mdir, os.O_RDONLY)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


def run_resumable_extraction(
    input_path: str,
    output_root: str,
    num_partitions: int = 16,
    wave_size: int = 8,
    file_format: str = "parquet",
    **pipeline_kwargs,
) -> dict:
    """Wave-checkpointed extraction; safe to re-run after a crash.
    ``num_partitions`` and ``wave_size`` must be positive: a ``ValueError``
    names the bad one before anything is created under ``output_root``."""
    from html_parser_ray.pipelines.extraction import (
        build_extraction_pipeline,
        read_corpus,
    )

    for name, value in (("num_partitions", num_partitions), ("wave_size", wave_size)):
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    os.makedirs(_manifest_dir(output_root), exist_ok=True)
    done = completed_partitions(output_root)
    if done:
        # the md5-mod doc->partition mapping is a function of
        # num_partitions: resuming under a different count would skip some
        # docs and duplicate others — refuse loudly
        sample_part = next(iter(done))
        with open(
            os.path.join(_manifest_dir(output_root), f"part-{sample_part}.json")
        ) as f:
            rec = json.load(f)
        prev_np = rec.get("num_partitions")
        if prev_np is not None and prev_np != num_partitions:
            raise ValueError(
                f"resume with num_partitions={num_partitions} but the "
                f"committed manifests were written with {prev_np}; the "
                "doc->partition mapping would change (duplicates + gaps). "
                "Re-run with the original count or start a fresh output root."
            )
    todo = [p for p in range(num_partitions) if p not in done]

    total_rows = 0
    waves = [todo[i : i + wave_size] for i in range(0, len(todo), wave_size)]
    for wave in waves:
        t0 = time.perf_counter()
        # a crashed previous run may have left partial data for uncommitted
        # partitions — clear them so the re-run cannot duplicate rows
        for p in wave:
            stale = os.path.join(output_root, f"_part={p}")
            if os.path.isdir(stale):
                shutil.rmtree(stale)
        wave_arr = pa.array(wave, type=pa.int32())

        def keep_wave(batch: pa.Table) -> pa.Table:
            tagged = add_partition_column(batch, num_partitions)
            keep = pc.is_in(tagged.column("_part"), wave_arr)
            return tagged.filter(keep).drop_columns(["_part"])

        def retag(batch: pa.Table) -> pa.Table:
            return add_partition_column(batch, num_partitions)

        # one streaming execution per wave; workers write partitioned
        # parquet directly (no driver buffering)
        out = build_extraction_pipeline(
            read_corpus(input_path, file_format=file_format).map_batches(
                keep_wave, batch_format="pyarrow"
            ),
            **pipeline_kwargs,
        ).map_batches(retag, batch_format="pyarrow")
        out.write_parquet(output_root, partition_cols=["_part"])
        # a finished actor pool stays in a reference cycle until GC and
        # keeps holding its CPUs, so the next wave's pool would wait for
        # them: drop the wave's Dataset and collect now
        del out
        gc.collect()

        wall = round(time.perf_counter() - t0, 3)
        for p in wave:
            rows, spans = _written_counts(os.path.join(output_root, f"_part={p}"))
            _commit_manifest(
                output_root,
                p,
                {
                    "partition_id": p,
                    "num_partitions": num_partitions,
                    "row_count": rows,
                    "span_count": spans,
                    "wave_wall_s": wall,
                    "engine_version": ENGINE_VERSION,
                },
            )
            total_rows += rows

    return {
        "partitions_done": len(todo),
        "partitions_skipped": len(done),
        "rows": total_rows,
    }


# the one int32 leaf of ``spans_out`` (standard parquet list naming): its
# list lengths are the span counts, without reading any span text
_SPAN_LEAF = "spans_out.list.element.offset"


def _written_counts(part_dir: str) -> "tuple[int, int]":
    """(rows, spans) of one written partition, read in the driver with
    pyarrow: rows from the parquet footers, spans from the ``spans_out``
    list lengths. Starts no Ray job."""
    rows = spans = 0
    if os.path.isdir(part_dir):
        for name in os.listdir(part_dir):
            if name.endswith(".parquet"):
                f = pq.ParquetFile(os.path.join(part_dir, name))
                rows += f.metadata.num_rows
                lengths = pc.list_value_length(f.read(columns=[_SPAN_LEAF]).column(0))
                spans += int(pc.sum(lengths).as_py() or 0)
    return rows, spans


def read_extraction_output(output_root: str):
    """Read back all committed partitions as one Dataset (one read over
    their files; no ``_part`` column)."""
    import ray.data

    files = []
    for p in sorted(completed_partitions(output_root)):
        pdir = os.path.join(output_root, f"_part={p}")
        if os.path.isdir(pdir):
            files += [
                os.path.join(pdir, name)
                for name in sorted(os.listdir(pdir))
                if name.endswith(".parquet")
            ]
    if not files:
        raise FileNotFoundError(f"no committed partitions under {output_root}")
    return ray.data.read_parquet(files, partitioning=None)


def manifest_records(output_root: str) -> list[dict]:
    mdir = _manifest_dir(output_root)
    out = []
    for p in sorted(completed_partitions(output_root)):
        with open(os.path.join(mdir, f"part-{p}.json")) as f:
            out.append(json.load(f))
    return out


def verify_sample(
    output_root: str,
    input_path: str,
    sample_docs: int = 50,
    seed: int = 7,
    file_format: str = "parquet",
    extractor_kwargs: "dict | None" = None,
) -> dict:
    """Per-row invariant self-check (the north rule's span-sequence equality):
    re-extract a deterministic sample of documents with the DOM oracle
    (``SpanExtractor(use_fused=False, layout_memo=False)``, no native PDF
    summary) and compare span sequences (kind, text, media_ref, offset)
    against the committed output. No fast path of the run is shared with
    the check, so a kernel bug shows up as a mismatch.

    The sample is drawn from the INPUT (the ``sample_docs`` smallest
    seeded-md5 digests — deterministic under any batch order), so a
    document missing from the output entirely counts as a mismatch
    instead of being invisible to the check; driver memory is bounded by
    the sample size, never the corpus (the former version held every
    output row's spans in one dict), and non-sampled rows never become
    Python objects (arrow-level ``is_in`` filter before ``to_pylist``).

    ``file_format`` / ``extractor_kwargs`` must mirror what
    ``run_resumable_extraction`` was called with: the check re-reads the
    same corpus format and re-extracts under the same semantics (the r5
    review found a defaults-only check could report false mismatches
    against a run that used non-default extractor options).
    ``extractor_kwargs`` are ``ExtractSpansBatch`` keywords, as the run took
    them; the oracle takes the run's config, layout model and whitespace
    mode from them.

    Returns {checked, mismatches} — mismatches must be 0; ``checked`` <
    the sample size means docs vanished from the output.
    """
    import hashlib
    import heapq

    from html_parser_ray.extract.extractor import SpanExtractor
    from html_parser_ray.pipelines.extraction import read_corpus
    from html_parser_ray.stages.extract_stage import ExtractSpansBatch

    def digest(doc_id) -> str:
        return hashlib.md5(f"{seed}:{doc_id}".encode()).hexdigest()

    # pass 1 (ids only, column-pruned): global min-k by seeded digest —
    # heapq.nsmallest streams the generator at O(n log k) with a bounded
    # heap (the prior hand-rolled max-heap with a hex-negation involution
    # did the same thing in 12 more lines)
    sample = {
        d
        for _, d in heapq.nsmallest(
            sample_docs,
            (
                (digest(d), d)
                for batch in read_corpus(
                    input_path, file_format=file_format, columns=["doc_id"]
                ).iter_batches(batch_format="pyarrow", batch_size=8192)
                for d in batch.column("doc_id").to_pylist()
            ),
        )
    }
    sample_arr = pa.array(sorted(sample))

    # pass 2: expected spans for the sample only, from the DOM oracle under
    # the semantics of the run's extractor (read off a stage built from the
    # run's kwargs); only sampled rows cross into Python — every batch is
    # filtered at the arrow level first
    run = ExtractSpansBatch(**(extractor_kwargs or {})).extractor
    ex = SpanExtractor(
        config=run.config,
        layout_model=run.layout.model_name,
        drop_whitespace_text=run.drop_whitespace_text,
        use_fused=False,
        layout_memo=False,
    )
    ex.layout._native = None
    expected: dict = {}
    for batch in read_corpus(
        input_path, file_format=file_format, columns=["doc_id", "spans"]
    ).iter_batches(batch_format="pyarrow", batch_size=1024):
        hits = batch.filter(pc.is_in(batch.column("doc_id"), sample_arr))
        for row in hits.to_pylist():
            expected[row["doc_id"]] = ex.extract_document(row["spans"])

    # pass 3: committed output spans for the sample only (bounded dict,
    # arrow-level filter — non-sampled rows never become Python objects)
    got: dict = {}
    for batch in read_extraction_output(output_root).iter_batches(
        batch_format="pyarrow", batch_size=4096
    ):
        sel = batch.select(["doc_id", "spans_out"])
        hits = sel.filter(pc.is_in(sel.column("doc_id"), sample_arr))
        for row in hits.to_pylist():
            got[row["doc_id"]] = [dict(s) for s in row["spans_out"] or []]

    checked = 0
    mismatches = 0
    for d in sample:
        if d not in got:  # vanished from the output = a mismatch
            mismatches += 1
            continue
        checked += 1
        if got[d] != expected.get(d):
            mismatches += 1
    return {"checked": checked, "mismatches": mismatches}

