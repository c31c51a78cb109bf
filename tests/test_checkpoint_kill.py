"""Exactly-once resumable extraction after a real process kill.

The resumable driver runs in a child Python process with its own Ray
session. A monkeypatch inside the child SIGKILLs it at a seeded point:

- ``data``: on the driver's receipt of the ``at``-th written data file,
  before it yields the batch that holds it. The driver reads its write rows
  from ``ray.data.Dataset.iter_batches``, one row per written file. Every
  partition here holds at least 3 input files, each written as one or more
  data files, so an ``at`` of 2 or 3 comes before any partition's rows are
  all received: the kill leaves data files on disk and no manifest. A
  marker file records that the kill came from this hook and how many data
  files were on disk at that moment;
- ``commit``: on entry to the ``at``-th commit of a non-empty partition,
  after its rows are complete and before its manifest is written;
- ``rename``: between the ``at``-th manifest's tmp write and its
  ``os.replace``.

The test then resumes into the same root and requires every doc id exactly
once, the DOM oracle's spans for every doc, and each manifest's
``row_count`` equal to its input files' footer counts.
"""

from __future__ import annotations

import glob
import json
import os
import random
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

from html_parser_ray.sources.corpus import write_corpus_parquet
from html_parser_ray.state.checkpoint import (
    completed_partitions,
    manifest_records,
    read_extraction_output,
    run_resumable_extraction,
    verify_sample,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import glob, json, os, signal, sys

cfg = json.loads(sys.argv[1])
sys.path.insert(0, cfg["repo"])
import ray
import ray.data

from html_parser_ray.state import checkpoint

point, at, seen = cfg["point"], cfg["at"], [0]


def hit():
    seen[0] += 1
    if seen[0] == at:
        os.kill(os.getpid(), signal.SIGKILL)


if point == "data":
    iter_batches = ray.data.Dataset.iter_batches

    def killing_iter_batches(self, *a, **k):
        for batch in iter_batches(self, *a, **k):
            seen[0] += batch.num_rows
            if seen[0] >= at:
                files = glob.glob(os.path.join(cfg["out"], "_part=*", "*.parquet"))
                with open(cfg["out"] + ".kill.json", "w") as f:
                    json.dump({"received": seen[0], "files": len(files)}, f)
                os.kill(os.getpid(), signal.SIGKILL)
            yield batch

    ray.data.Dataset.iter_batches = killing_iter_batches
elif point == "commit":
    commit = checkpoint._commit_manifest

    def killing_commit(root, part, record):
        if record["row_count"]:
            hit()
        commit(root, part, record)

    checkpoint._commit_manifest = killing_commit
else:
    replace = os.replace

    def killing_replace(src, dst, *a, **k):
        if os.path.basename(os.path.dirname(dst)) == "_manifest":
            hit()
        replace(src, dst, *a, **k)

    os.replace = killing_replace

ray.init(num_cpus=2, include_dashboard=False, object_store_memory=100 * 1024 * 1024,
         log_to_driver=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
checkpoint.run_resumable_extraction(
    cfg["inp"], cfg["out"], num_partitions=cfg["parts"], batch_size=cfg["batch"],
    concurrency=1,
)
"""


def _group_alive(pgid: int) -> bool:
    """Whether a live (non-zombie) process of process group ``pgid`` is
    left."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _shape(point: str, seed: int, stream: str = "") -> dict:
    """A seeded corpus and plan, and a kill point ``at`` that the run is
    sure to reach. At ``data``: 6 to 9 ten-row files cut into partitions of
    at least 3 files each, and a kill at the 2nd or 3rd written file. A
    ``stream`` suffix draws another set of shapes from the same rule."""
    rng = random.Random(f"{point}{stream}:{seed}")
    if point == "data":
        n = rng.randint(60, 90)
        files = -(-n // 10)
        return {"n": n, "rows_per_file": 10, "parts": rng.randint(2, files // 3),
                "batch": rng.choice([4, 8]), "at": rng.randint(2, 3)}
    n = rng.randint(40, 90)
    rows_per_file = rng.choice([10, 15, 20])
    batch = rng.choice([4, 8])
    files = -(-n // rows_per_file)
    parts = rng.randint(2, 6)
    nonempty = min(files, parts)
    at = rng.randint(1, nonempty if point == "commit" else parts)
    return {"n": n, "rows_per_file": rows_per_file, "parts": parts, "batch": batch,
            "at": at}


def kill_and_resume(tmp_path, point: str, seed: int, stream: str = "") -> dict:
    """Run the driver in a child killed at (``point``, seed), check the
    state the kill left, resume into the same root, check exactly-once
    oracle-equal output. Returns the shape, the rows the resume redid and
    its wall time."""
    shape = _shape(point, seed, stream)
    inp, out = str(tmp_path / "corpus"), str(tmp_path / "out")
    write_corpus_parquet(
        inp, shape["n"], seed=seed, rows_per_file=shape["rows_per_file"]
    )
    cfg = {"repo": REPO, "point": point, "inp": inp, "out": out, **shape}
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD, json.dumps(cfg)],
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    try:
        _, err = child.communicate(timeout=240)
    finally:
        # the Ray processes the child started: stop any the kill left behind
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 30
        while _group_alive(child.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
    assert child.returncode == -signal.SIGKILL, (shape, err.decode()[-2000:])
    assert not _group_alive(child.pid)

    done = completed_partitions(out)
    data_files = glob.glob(os.path.join(out, "_part=*", "*.parquet"))
    if point == "data":
        assert data_files and not done, shape
        # the hook killed the child, with the received data files on disk
        with open(out + ".kill.json") as f:
            marker = json.load(f)
        assert marker["received"] >= shape["at"], (marker, shape)
        assert marker["files"] >= marker["received"], (marker, shape)
    elif point == "commit":
        assert len(done) < shape["parts"], shape
    else:
        assert glob.glob(os.path.join(out, "_manifest", ".part-*.json.tmp")), shape

    t0 = time.perf_counter()
    res = run_resumable_extraction(
        inp, out, num_partitions=shape["parts"], batch_size=shape["batch"]
    )
    resume_s = time.perf_counter() - t0
    assert res["partitions_skipped"] == len(done)
    assert res["partitions_done"] == shape["parts"] - len(done)
    assert completed_partitions(out) == set(range(shape["parts"]))

    ids = sorted(r["doc_id"] for r in read_extraction_output(out).take_all())
    assert ids == [f"doc-{i:08d}" for i in range(shape["n"])], shape
    assert verify_sample(out, inp, sample_docs=shape["n"]) == {
        "checked": shape["n"],
        "mismatches": 0,
    }
    for rec in manifest_records(out):
        footers = sum(
            pq.read_metadata(os.path.join(inp, f["path"])).num_rows
            for f in rec["input_files"]
        )
        assert rec["row_count"] == footers, rec
    return {**shape, "redone_rows": res["rows"], "resume_s": resume_s}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("point", ["data", "commit", "rename"])
def test_kill_and_resume_exactly_once(tmp_path, point, seed):
    kill_and_resume(tmp_path, point, seed)
