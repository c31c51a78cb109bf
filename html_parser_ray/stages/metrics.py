"""Extraction metrics rollup — the distributed analog of the reference's
ParseInstrumentationStats (ref: src/debug/instrumentation.zig:19-50) rolled up
per partition instead of per call.

The extract stage (``emit_metrics=True``) attaches a per-document metrics
struct; this module reduces it batch-locally (combiner pattern) and returns
one totals row or one row per hash partition of ``doc_id``
(``partition_of``).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

_FIELDS = ("spans_in", "spans_out", "html_bytes", "parse_errors")


def partition_of(doc_id: str, num_partitions: int) -> int:
    """Stable hash partition of a doc id: md5, never Python's seeded
    ``hash``."""
    h = hashlib.md5(doc_id.encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") % num_partitions


def _acc_table(acc: "dict[int, list[int]]") -> pa.Table:
    """(partition -> [docs, *field sums]) -> the rollup table (one schema
    definition shared by the partial and the driver combine)."""
    keys = sorted(acc)
    cols: dict = {"partition_id": pa.array(keys, type=pa.int32())}
    cols["docs"] = pa.array([acc[k][0] for k in keys], type=pa.int64())
    for i, name in enumerate(_FIELDS):
        cols[name] = pa.array([acc[k][i + 1] for k in keys], type=pa.int64())
    return pa.table(cols)


def rollup_metrics(extracted, by_partition: int | None = None):
    """Aggregate the ``metrics`` column of an extraction output Dataset.

    Returns a pyarrow Table: one row of totals (``partition_id = -1``) or one
    row per ``partition_of(doc_id, by_partition)`` when ``by_partition`` (a
    partition count) is given.
    """
    if by_partition is not None and by_partition <= 0:
        raise ValueError(f"by_partition must be a positive count, got {by_partition}")

    def partial(batch: pa.Table) -> pa.Table:
        m = batch.column("metrics")
        if isinstance(m, pa.ChunkedArray):
            m = m.combine_chunks()
        if by_partition is None:
            # totals: pure Arrow reductions, no per-row Python
            acc = {
                -1: [batch.num_rows]
                + [int(pc.sum(m.field(name)).as_py() or 0) for name in _FIELDS]
            }
            return _acc_table(acc)
        import collections

        parts = [
            partition_of(d, by_partition)
            for d in batch.column("doc_id").to_pylist()
        ]
        acc = collections.defaultdict(lambda: [0] * (len(_FIELDS) + 1))
        columns = [m.field(name).to_pylist() for name in _FIELDS]
        for p, vals in zip(parts, zip(*columns)):
            a = acc[p]
            a[0] += 1
            for i, v in enumerate(vals):
                a[i + 1] += v or 0
        return _acc_table(acc)

    partials = extracted.map_batches(partial, batch_format="pyarrow")
    combined: dict[int, list[int]] = {}
    for batch in partials.iter_batches(batch_format="pyarrow", batch_size=4096):
        for row in batch.to_pylist():
            a = combined.setdefault(row["partition_id"], [0] * (len(_FIELDS) + 1))
            a[0] += row["docs"]
            for i, name in enumerate(_FIELDS):
                a[i + 1] += row[name]
    return _acc_table(combined)
