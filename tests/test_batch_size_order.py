"""The default extract batch size depends on the input's files, not on the
order they are given in (Ray's ``Dataset.input_files()`` returns them in
set order)."""

from __future__ import annotations

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

from html_parser_ray.pipelines.extraction import SIZING_FOOTERS, default_batch_size
from html_parser_ray.sources.corpus import SPAN_STRUCT


def test_batch_size_does_not_depend_on_path_order(tmp_path):
    """6 files (more than ``SIZING_FOOTERS``) of 1 to 6 KB per row: the
    footers are picked from the sorted paths, so the path list, its reverse
    and a shuffle give one size."""
    paths = []
    for i in range(6):
        spans = [
            [{"kind": "text", "text": os.urandom(500 * (i + 1)).hex(), "media_ref": "", "offset": 0}]
            for _ in range(20)
        ]
        table = pa.table(
            {
                "doc_id": [f"f{i}-d{j}" for j in range(20)],
                "spans": pa.array(spans, type=pa.list_(SPAN_STRUCT)),
            }
        )
        paths.append(str(tmp_path / f"p{i}.parquet"))
        pq.write_table(table, paths[-1])
    assert len(paths) > SIZING_FOOTERS
    size = default_batch_size(paths)
    assert default_batch_size(paths[::-1]) == size
    shuffled = paths[:]
    random.Random(5).shuffle(shuffled)
    assert default_batch_size(shuffled) == size
