"""Exactly-once resumable extraction after a kill between data-file writes,
on a second set of seeded shapes.

Runs ``test_checkpoint_kill.kill_and_resume`` at its ``data`` point: the
child is SIGKILLed on the driver's receipt of the ``at``-th written data
file (``at`` of 2 or 3, partitions of at least 3 files each), so the kill
leaves data files on disk and no manifest, and a marker file shows the
``iter_batches`` hook made the kill. The shapes come from the ``-write``
seed stream, so these cases cover corpora and plans that the kill test's
own ``data`` seeds do not.
"""

from __future__ import annotations

import pytest
import test_checkpoint_kill as kill


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kill_between_writes_and_resume_exactly_once(tmp_path, seed):
    shape = kill.kill_and_resume(tmp_path, "data", seed, stream="-write")
    assert shape["at"] >= 2
