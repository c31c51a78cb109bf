"""Exactly-once resumable extraction after a kill between data-file writes.

Runs ``test_checkpoint_kill.kill_and_resume`` at its ``data`` point with a
hook on the iterator the resumable driver reads its write rows from,
``ray.data.Dataset.iter_batches``: each row of a batch is one written data
file, and the child is SIGKILLed on the driver's receipt of the ``at``-th,
before it yields that batch. Every partition here holds at least 3 input
files, and each file is written as one or more data files, so an ``at`` of
2 or 3 comes before any partition's rows are all received: the kill leaves
data files on disk and no manifest. A marker file records that the kill
came from this hook, not from the first commit, and how many data files
were on disk at that moment.
"""

from __future__ import annotations

import json
import os
import random

import pytest
import test_checkpoint_kill as kill

HOOK = r"""
import glob, json, os, signal, sys
import ray.data

_cfg = json.loads(sys.argv[1])
_iter_batches = ray.data.Dataset.iter_batches
_received = [0]


def _killing_iter_batches(self, *a, **k):
    for batch in _iter_batches(self, *a, **k):
        _received[0] += batch.num_rows
        if _received[0] >= _cfg["at"]:
            files = glob.glob(os.path.join(_cfg["out"], "_part=*", "*.parquet"))
            with open(_cfg["out"] + ".kill.json", "w") as f:
                json.dump({"received": _received[0], "files": len(files)}, f)
            os.kill(os.getpid(), signal.SIGKILL)
        yield batch


ray.data.Dataset.iter_batches = _killing_iter_batches
"""


def _shape(point: str, seed: int) -> dict:
    """A seeded corpus of 6 to 9 ten-row files cut into partitions of at
    least 3 files each, and a kill at the 2nd or 3rd written file."""
    rng = random.Random(f"{point}-write:{seed}")
    n = rng.randint(60, 90)
    files = -(-n // 10)
    return {"n": n, "rows_per_file": 10, "parts": rng.randint(2, files // 3),
            "batch": rng.choice([4, 8]), "at": rng.randint(2, 3)}


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kill_between_writes_and_resume_exactly_once(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(kill, "CHILD", HOOK + kill.CHILD)
    monkeypatch.setattr(kill, "_shape", _shape)
    shape = kill.kill_and_resume(tmp_path, "data", seed)
    assert shape["at"] >= 2
    # the hook killed the child, not the first commit, with the received
    # data files on disk (kill_and_resume checked that no manifest was)
    with open(os.path.join(tmp_path, "out.kill.json")) as f:
        marker = json.load(f)
    assert marker["received"] >= shape["at"], (marker, shape)
    assert marker["files"] >= marker["received"], (marker, shape)
