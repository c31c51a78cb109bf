"""Resumable-extraction example: checkpoint manifests + partition skip.

Runs the checkpointed extraction writer twice over the same input. Each run
is one streaming execution over the uncommitted partitions (contiguous
ranges of the input's parquet files), committing each partition's manifest
as soon as its rows are written; the second run must skip every completed
partition (the lineage manifests are the restart log). Run:

    python examples/resumable_job.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(smoke: bool = False) -> None:
    import ray.data

    from html_parser_ray.sources.corpus import write_corpus_parquet
    from html_parser_ray.state.checkpoint import (
        completed_partitions,
        manifest_records,
        read_extraction_output,
        run_resumable_extraction,
    )

    n = 60 if smoke else 200
    with tempfile.TemporaryDirectory() as d:
        inp = os.path.join(d, "in")
        out = os.path.join(d, "out")
        write_corpus_parquet(inp, n, seed=42, rows_per_file=25)

        run_resumable_extraction(inp, out, num_partitions=4, concurrency=2)
        done_first = completed_partitions(out)
        assert len(done_first) == 4

        # resume: everything already complete -> no partition re-runs
        run_resumable_extraction(inp, out, num_partitions=4, concurrency=2)
        recs = manifest_records(out)
        assert len(recs) == 4
        total = read_extraction_output(out).count()
        assert total == n
        print(f"{n} docs across {len(done_first)} checkpointed partitions; "
              f"resume skipped all {len(recs)} manifests")


if __name__ == "__main__":
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    run()
    ray.shutdown()
