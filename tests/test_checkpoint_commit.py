"""A resumable run commits each partition as soon as its rows are written,
not when the next task's output reaches the driver."""

from __future__ import annotations

import pytest

from html_parser_ray.sources.corpus import write_corpus_parquet
from html_parser_ray.state.checkpoint import manifest_records, run_resumable_extraction


@pytest.mark.usefixtures("ray_session")
def test_each_partition_commits_before_the_next_write(tmp_path, monkeypatch):
    """``concurrency=1``, 3 one-file partitions and one write per task.
    Each write first waits, up to 30 s, for the manifest of every other
    partition whose data is already on disk. The run ends only if the
    driver commits a partition when its write returns; a driver that holds
    a task's output until the next task's arrives never commits the
    partition the next write waits for."""
    from html_parser_ray.state import checkpoint

    real = checkpoint.write_partitions

    def write_after_earlier_commits(batch, **kwargs):
        import glob
        import os
        import time

        root = kwargs["output_root"]
        # each partition is written once, so every partition directory on
        # disk now is another partition's
        landed = sorted(int(d.rsplit("=", 1)[1]) for d in glob.glob(os.path.join(root, "_part=*")))
        manifests = [os.path.join(root, "_manifest", f"part-{k}.json") for k in landed]
        deadline = time.monotonic() + 30
        while not all(os.path.exists(m) for m in manifests):
            if time.monotonic() > deadline:
                raise TimeoutError(f"partitions {landed} written, not committed in 30 s")
            time.sleep(0.01)
        return real(batch, **kwargs)

    monkeypatch.setattr(checkpoint, "write_partitions", write_after_earlier_commits)
    inp = str(tmp_path / "corpus")
    out = str(tmp_path / "out")
    write_corpus_parquet(inp, 30, seed=3, rows_per_file=10)
    res = run_resumable_extraction(inp, out, num_partitions=3, batch_size=10, concurrency=1)
    assert res == {"partitions_done": 3, "partitions_skipped": 0, "rows": 30}
    assert [r["row_count"] for r in manifest_records(out)] == [10, 10, 10]
