"""The native HTML kernel as the parity suites call it: through its one
entry point, the batch kernel the extract stage ships
(``get_native_batch_extractor``), over an Arrow binary array laid out as
the stage lays out a batch's html spans.

A declined call (the kernel returns None) fails the calling test: there is
no fallback to the DOM here, or a kernel that declines everything would
pass every parity test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from html_parser_ray.native import get_native_batch_extractor

KERNEL = get_native_batch_extractor()

needs_kernel = pytest.mark.skipif(
    KERNEL is None, reason="native extractor unavailable (no compiler)"
)


def native_batch(srcs: "list[bytes]") -> "list[list[bytes]]":
    """Each document's blocks from ONE kernel call over ``srcs``, split by
    the kernel's per-document block counts."""
    if KERNEL is None:
        pytest.skip("native extractor unavailable (no compiler)")
    arr = pa.array(srcs, type=pa.binary())
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], np.int32)[: len(srcs) + 1].astype(np.int64)
    res = KERNEL(bufs[2].address, offsets, int(offsets[-1]))
    assert res is not None, f"native kernel declined a {len(srcs)}-doc batch"
    out, block_lens, doc_nblocks = res
    ends = np.cumsum(block_lens).tolist()
    blocks = [bytes(out[e - n : e]) for e, n in zip(ends, block_lens.tolist())]
    bounds = [0, *np.cumsum(doc_nblocks).tolist()]
    assert bounds[-1] == len(blocks)
    return [blocks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def native_blocks(src: bytes) -> "list[bytes]":
    """``src``'s blocks from a one-document batch."""
    return native_batch([src])[0]
