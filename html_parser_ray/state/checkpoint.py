"""Checkpoint manifest + resumable partitioned output.

Layout under ``output_root``:

    _part=<k>/<digest>.parquet  one directory per partition, written by the
                                workers one file per extracted batch
    _manifest/part-<k>.json     lineage record committed AFTER the partition's
                                data lands (write-then-commit ordering)

A partition is a fixed set of input files: the input's parquet files in
sorted order, cut into ``num_partitions`` contiguous ranges (a partition is
empty when there are fewer files than partitions). Its expected row count is
the sum of its files' parquet footer counts, so no document is hashed to
find its partition.

A run is ONE streaming Ray Data execution over the files of every
uncommitted partition: read (``read_corpus(files, parts=...)``, which tags
each row with its file's partition in an int32 ``part`` column) -> extract
(which passes the column through) -> a write map that writes each batch's
rows of partition ``k`` under ``_part=k/``, without the column, and returns
one small row per file written. The write map gets only ``output_root``:
no file list crosses to a task and no batch looks a path up. Both maps are
tasks with the run's ``concurrency``, so Ray Data fuses them into one
extract->write task at any cap; the read is its own operator. The driver
takes those rows as each task returns them (no prefetch) and commits
partition ``k`` as soon as its written rows equal its expected rows. A
crash loses only the uncommitted partitions, whose files a resumed run
clears before it redoes them; a resumed run skips every committed
partition.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ENGINE_VERSION = "html_parser_ray-0.1.0"

# one row per data file a write task lands
WRITTEN_SCHEMA = pa.schema(
    [
        ("part", pa.int32()),
        ("rows", pa.int64()),
        ("spans", pa.int64()),
        ("file", pa.string()),
    ]
)


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


def partition_files(input_path: str, num_partitions: int) -> "list[list[dict]]":
    """The parquet files under the directory ``input_path`` (paths relative
    to it, sorted) cut into ``num_partitions`` contiguous ranges; each file
    comes with its footer row count: ``[[{"path", "rows"}, ...], ...]``.
    The files are those ``list_parquet_files`` lists, as the run's read
    lists a directory."""
    from html_parser_ray.pipelines.extraction import list_parquet_files

    names = [os.path.relpath(f.path, input_path) for f in list_parquet_files(input_path)]
    if not names:
        raise FileNotFoundError(f"no parquet files under {input_path!r}")
    files = [
        {"path": n, "rows": pq.read_metadata(os.path.join(input_path, n)).num_rows}
        for n in names
    ]
    n = len(files)
    return [
        files[k * n // num_partitions : (k + 1) * n // num_partitions]
        for k in range(num_partitions)
    ]


def _fsync_dir(path: str) -> None:
    dirfd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


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
    _fsync_dir(mdir)


def write_partitions(batch: pa.Table, output_root: str) -> pa.Table:
    """Write an extracted batch's rows of each partition ``k`` to
    ``_part=k/<name>.parquet`` and return one ``WRITTEN_SCHEMA`` row per
    file. A row's partition is its ``part`` column, set by the read, which
    is not written. The name is a digest of the file's first and last doc
    id and its row count, so a re-executed write of the same rows
    overwrites its own file; the rename makes a file appear whole or not
    at all."""
    row_parts = batch.column("part")
    data = batch.drop_columns(["part"])
    out: "dict[str, list]" = {name: [] for name in WRITTEN_SCHEMA.names}
    for k in pc.unique(row_parts).to_pylist():
        rows = data.filter(pc.equal(row_parts, k))
        ids = rows.column("doc_id")
        key = f"{ids[0].as_py()}\0{ids[-1].as_py()}\0{rows.num_rows}"
        name = hashlib.md5(key.encode("utf-8")).hexdigest() + ".parquet"
        pdir = os.path.join(output_root, f"_part={k}")
        os.makedirs(pdir, exist_ok=True)
        tmp = os.path.join(pdir, f".{name}.{os.getpid()}.tmp")
        pq.write_table(rows, tmp)
        os.replace(tmp, os.path.join(pdir, name))
        spans = pc.sum(pc.list_value_length(rows.column("spans_out"))).as_py()
        out["part"].append(k)
        out["rows"].append(rows.num_rows)
        out["spans"].append(spans or 0)
        out["file"].append(name)
    return pa.table(out, schema=WRITTEN_SCHEMA)


def _check_resume(output_root: str, plan: "list[list[dict]]") -> None:
    """Refuse to resume over committed manifests written under another
    partition count or another input file list: the file->partition
    mapping would change (duplicates + gaps)."""
    for rec in manifest_records(output_root):
        prev_np = rec.get("num_partitions")
        if prev_np != len(plan):
            raise ValueError(
                f"resume with num_partitions={len(plan)} but the "
                f"committed manifests were written with {prev_np}; the "
                "file->partition mapping would change (duplicates + gaps). "
                "Re-run with the original count or start a fresh output root."
            )
        p = rec["partition_id"]
        if rec.get("input_files") != plan[p]:
            raise ValueError(
                f"the input files of committed partition {p} changed since "
                "its commit (files added, removed or rewritten); resuming "
                "would duplicate or lose rows. Restore the original input or "
                "start a fresh output root."
            )


def run_resumable_extraction(
    input_path: str,
    output_root: str,
    num_partitions: int = 16,
    wave_size: int = 8,
    file_format: str = "parquet",
    **pipeline_kwargs,
) -> dict:
    """Checkpointed extraction of a directory of parquet files; safe to
    re-run after a crash. ``num_partitions`` and ``wave_size`` must be
    positive: a ``ValueError`` names the bad one before anything is created
    under ``output_root``. ``wave_size`` does not change the plan: every
    uncommitted partition runs in one execution. It is accepted only
    because the benchmark's ``giant_resumable`` job (``perfbench/job.py``)
    still passes it. ``pipeline_kwargs`` go to ``build_extraction_pipeline``
    over the read of the files this run extracts, so without a
    ``batch_size`` the rows per extract batch are sized from those files'
    footers. The write map takes the same ``concurrency`` as the extract
    map, so the two run as one fused task whatever the cap.

    Each manifest records its partition's input files with their row counts,
    ``row_count`` and ``span_count`` as written, and ``wave_wall_s``: the
    seconds since the run's previous commit (for the first, since the
    execution started)."""
    from html_parser_ray.pipelines import extraction

    for name, value in (("num_partitions", num_partitions), ("wave_size", wave_size)):
        if value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if file_format != "parquet":
        raise ValueError(
            "resumable runs partition the input by parquet file, so "
            f"file_format must be 'parquet', got {file_format!r} (a Lance "
            "input would partition by fragment, which is not implemented)"
        )
    plan = partition_files(input_path, num_partitions)
    os.makedirs(_manifest_dir(output_root), exist_ok=True)
    _check_resume(output_root, plan)
    done = completed_partitions(output_root)
    todo = [p for p in range(num_partitions) if p not in done]
    # a crashed previous run may have left partial data for uncommitted
    # partitions — clear them so the re-run cannot duplicate rows
    for p in todo:
        stale = os.path.join(output_root, f"_part={p}")
        if os.path.isdir(stale):
            shutil.rmtree(stale)

    expected = {p: sum(f["rows"] for f in plan[p]) for p in todo}
    written = {p: [0, 0, []] for p in todo}  # rows, spans, file names
    last_commit = time.perf_counter()

    def commit(p: int) -> None:
        nonlocal last_commit
        rows, spans, names = written[p]
        pdir = os.path.join(output_root, f"_part={p}")
        on_disk = set()
        if names:  # an empty partition has no directory
            on_disk = {n for n in os.listdir(pdir) if n.endswith(".parquet")}
        if on_disk != set(names):
            raise RuntimeError(
                f"partition {p} holds files {sorted(on_disk)} but its writes "
                f"reported {sorted(set(names))}; not committed"
            )
        now = time.perf_counter()
        _commit_manifest(
            output_root,
            p,
            {
                "partition_id": p,
                "num_partitions": num_partitions,
                "input_files": plan[p],
                "row_count": rows,
                "span_count": spans,
                "wave_wall_s": round(now - last_commit, 3),
                "engine_version": ENGINE_VERSION,
            },
        )
        last_commit = now

    live = [p for p in todo if expected[p]]
    for p in todo:
        if not expected[p]:  # no input rows: commits without a Ray job
            commit(p)
    if live:
        files = [os.path.join(input_path, f["path"]) for p in live for f in plan[p]]
        parts = [p for p in live for _ in plan[p]]
        # Ray Data fuses task maps only at equal concurrency, so the write
        # takes the extract stage's cap to run in the extract's task
        ds = extraction.build_extraction_pipeline(
            extraction.read_corpus(files, parts=parts), **pipeline_kwargs
        ).map_batches(
            write_partitions,
            fn_kwargs={"output_root": output_root},
            batch_format="pyarrow",
            batch_size=None,
            concurrency=pipeline_kwargs.get("concurrency"),
        )
        # no prefetch: a write's rows reach the driver, and its partition
        # commits, when the write ends, not when the next task's output
        # arrives
        batches = ds.iter_batches(batch_size=None, batch_format="pyarrow", prefetch_batches=0)
        for row in (r for b in batches for r in b.to_pylist()):
            p = row["part"]
            acc = written[p]
            acc[0] += row["rows"]
            acc[1] += row["spans"]
            acc[2].append(row["file"])
            if acc[0] > expected[p]:
                # rows past the input's count: if this run committed
                # the partition, it now holds extra rows, so the commit
                # is withdrawn
                mdir = _manifest_dir(output_root)
                manifest = os.path.join(mdir, f"part-{p}.json")
                if os.path.exists(manifest):
                    os.remove(manifest)
                    _fsync_dir(mdir)
                raise RuntimeError(
                    f"partition {p} received {acc[0]} rows but its input "
                    f"files hold {expected[p]}; not committed"
                )
            if acc[0] == expected[p]:
                commit(p)
    short = [p for p in live if written[p][0] != expected[p]]
    if short:
        raise RuntimeError(
            "partitions "
            + ", ".join(f"{p} ({written[p][0]} of {expected[p]} rows)" for p in short)
            + " ended short; not committed"
        )
    return {
        "partitions_done": len(todo),
        "partitions_skipped": len(done),
        "rows": sum(expected.values()),
    }


def read_extraction_output(output_root: str):
    """Read back all committed partitions as one Dataset (one
    ``read_corpus`` over their files; no ``_part`` column)."""
    from html_parser_ray.pipelines.extraction import read_corpus

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
    return read_corpus(files)


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
    extractor_kwargs: "dict | None" = None,
) -> dict:
    """Per-row invariant self-check (the north rule's span-sequence equality):
    re-extract a deterministic sample of documents with the DOM oracle
    (``SpanExtractor(layout_memo=False)``, no native PDF summary) and
    compare span sequences (kind, text, media_ref, offset) against the
    committed output. No fast path of the run is shared with
    the check, so a kernel bug shows up as a mismatch.

    The sample is drawn from the INPUT (the ``sample_docs`` smallest
    seeded-md5 digests — deterministic under any batch order), so a
    document missing from the output entirely counts as a mismatch
    instead of being invisible to the check; driver memory is bounded by
    the sample size, never the corpus (the former version held every
    output row's spans in one dict), and non-sampled rows never become
    Python objects (arrow-level ``is_in`` filter before ``to_pylist``).

    ``input_path`` is the run's parquet input (a resumable run reads no
    other format). ``extractor_kwargs`` are the ``ExtractSpansBatch``
    keywords the run took (``layout_model``, which media spans carry in
    their JSON); the oracle is built from them directly, so the check loads
    no native kernel.

    Returns {checked, mismatches} — mismatches must be 0; ``checked`` <
    the sample size means docs vanished from the output.
    """
    import hashlib
    import heapq

    from html_parser_ray.extract.extractor import SpanExtractor
    from html_parser_ray.pipelines.extraction import read_corpus

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
                for batch in read_corpus(input_path, columns=["doc_id"]).iter_batches(
                    batch_format="pyarrow", batch_size=8192
                )
                for d in batch.column("doc_id").to_pylist()
            ),
        )
    }
    sample_arr = pa.array(sorted(sample))

    # pass 2: expected spans for the sample only, from the DOM oracle with
    # the run's layout model; only sampled rows cross into Python — every
    # batch is filtered at the arrow level first
    ex = SpanExtractor(**(extractor_kwargs or {}), layout_memo=False)
    ex.layout._native = None
    expected: dict = {}
    for batch in read_corpus(input_path, columns=["doc_id", "spans"]).iter_batches(
        batch_format="pyarrow", batch_size=1024
    ):
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

