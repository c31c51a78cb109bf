"""The extract stage runs each batch's native HTML kernel call on one helper
thread per process, while the same batch's text and media branches run on
the caller's thread. Pinned here: the kernel and the media branch overlap,
one helper serves every batch and run of a process, errors on either side
surface as before, a taken result is the caller's own, and the DOM twin
stays on the caller's thread."""

from __future__ import annotations

import gc
import threading

import pyarrow as pa
import pytest

from _native_kernel import KERNEL, needs_kernel
from html_parser_ray import native
from html_parser_ray.pipelines import extraction
from html_parser_ray.stages import extract_stage
from html_parser_ray.stages.extract_stage import ExtractSpansBatch
from tests.test_pipeline_ray import _media_table, _oracle_spans

WAIT_S = 10.0


def _by_doc(out) -> dict:
    return dict(zip(out.column("doc_id").to_pylist(), out.column("spans_out").to_pylist()))


@needs_kernel
def test_kernel_runs_on_one_helper_thread_while_the_media_branch_runs(monkeypatch):
    """Each kernel call waits until the same batch's ``layout_jsons`` has
    started, then runs the real kernel: a stage that calls the kernel
    before its media branch, on the caller's thread, times out instead.
    Over batches of two runs (``extract_batch`` with two run tokens) every
    call runs on one thread, not the caller's, and every batch equals the
    DOM oracle."""
    media_started = threading.Event()
    kernel_threads = []

    class GatedStage(ExtractSpansBatch):
        def __init__(self) -> None:
            super().__init__()
            layout_jsons = self.extractor.layout_jsons

            def started_layout_jsons(refs):
                media_started.set()
                return layout_jsons(refs)

            def gated_kernel(*args):
                if not media_started.wait(WAIT_S):
                    raise TimeoutError("the kernel ran before the media branch started")
                media_started.clear()
                kernel_threads.append(threading.get_ident())
                return KERNEL(*args)

            self.extractor.layout_jsons = started_layout_jsons
            self._html_kernel = gated_kernel

    monkeypatch.setattr(extraction, "_stage", None)
    table = _media_table(8, 6)
    want = _oracle_spans(table)
    for run in ("run-a", "run-a", "run-b", "run-b"):
        for batch in (table.slice(0, 4), table.slice(4)):
            out = extraction.extract_batch(batch, run=run, stage_cls=GatedStage, kwargs={})
            assert _by_doc(out) == {k: want[k] for k in batch.column("doc_id").to_pylist()}
    assert extraction._stage[1].extractor.stats.native_fallbacks == 0
    assert len(kernel_threads) == 8
    assert set(kernel_threads) == {kernel_threads[0]}
    assert kernel_threads[0] != threading.get_ident()


@needs_kernel
def test_a_kernel_error_on_the_helper_escapes_and_the_next_batch_is_whole():
    """A kernel that raises on the helper thread makes the stage raise that
    exception type (not halved, not a fallback); the stage's next batch
    equals the DOM oracle."""
    table = _media_table(6, 4)
    want = _oracle_spans(table)
    stage = ExtractSpansBatch()
    raised_on = []

    def broken(*args):
        raised_on.append(threading.get_ident())
        raise ValueError("synthetic kernel error")

    stage._html_kernel = broken
    with pytest.raises(ValueError, match="synthetic kernel error"):
        stage(table)
    assert raised_on and raised_on[0] != threading.get_ident()
    assert stage.extractor.stats.native_fallbacks == 0
    stage._html_kernel = KERNEL
    assert _by_doc(stage(table)) == want


def _arrays_owning(addr: int) -> "list[pa.BinaryArray]":
    """The live binary arrays whose values buffer starts at ``addr``."""
    arrays = [o for o in gc.get_objects() if isinstance(o, pa.BinaryArray)]
    return [a for a in arrays if a.buffers()[2] is not None and a.buffers()[2].address == addr]


@needs_kernel
def test_a_media_error_under_a_running_kernel_escapes_and_the_next_batch_is_whole():
    """The media branch raises while the batch's kernel call is still held
    on the helper: the stage raises the media error at once. Once the
    caller has dropped the error and its frames and a collection has run,
    the held call, released, finds a live array owning the html bytes it
    reads (the stage's filtered copy, kept by the work item, not the
    caller's table), and gives that batch's oracle blocks. The next batch
    equals the DOM oracle."""
    from html_parser_ray.extract.extractor import dom_blocks

    first = _media_table(6, 4)
    table = _media_table(8, 6)
    want = _oracle_spans(table)
    stage = ExtractSpansBatch()
    layout_jsons = stage.extractor.layout_jsons
    release, finished = threading.Event(), threading.Event()
    owners, held = [], []

    def slowed(*args):
        if not release.wait(WAIT_S):
            raise TimeoutError("never released")
        owners.append(len(_arrays_owning(args[0])))
        blocks, lens, nblocks = KERNEL(*args)
        held.append(bytes(blocks[: int(lens.sum())]))
        finished.set()
        return blocks, lens, nblocks

    def broken_fetch(refs):
        raise ConnectionError("synthetic fetch error")

    stage._html_kernel = slowed
    stage.extractor.layout_jsons = broken_fetch
    # not pytest.raises: its ExceptionInfo would keep the stage's frames,
    # and with them the html array, alive
    raised = None
    try:
        stage(first)
    except ConnectionError as e:
        raised = str(e)
    assert raised == "synthetic fetch error"
    assert not finished.is_set()
    gc.collect()
    release.set()
    assert finished.wait(WAIT_S)
    assert len(owners) == 1 and owners[0] >= 1
    rows = first.column("spans").to_pylist()
    html = [s["text"].encode() for row in rows for s in row if s["kind"] == "html"]
    assert held == [b"".join(b for src in html for b in dom_blocks(src)[0])]

    stage._html_kernel = KERNEL
    stage.extractor.layout_jsons = layout_jsons
    assert _by_doc(stage(table)) == want
    assert stage.extractor.stats.native_fallbacks == 0


@needs_kernel
def test_a_kernel_call_of_another_thread_cannot_change_a_taken_result():
    """Two stages on two threads of one process share the kernel thread and
    its scratch. Stage A's media branch waits until A's kernel call has
    returned, then runs stage B over other documents on a second thread to
    the end, so B's kernel call reuses the scratch before A takes and emits
    its result. Both outputs equal the DOM oracle."""
    table_a, table_b = _media_table(6, 4), _media_table(8, 6).slice(2)
    want_a, want_b = _oracle_spans(table_a), _oracle_spans(table_b)
    stage_a, stage_b = ExtractSpansBatch(), ExtractSpansBatch()
    a_returned = threading.Event()
    out_b = []
    layout_jsons = stage_a.extractor.layout_jsons

    def kernel_a(*args):
        res = KERNEL(*args)
        a_returned.set()
        return res

    def run_b_then_layout(refs):
        if not a_returned.wait(WAIT_S):
            raise TimeoutError("stage A's kernel call never returned")
        t = threading.Thread(target=lambda: out_b.append(stage_b(table_b)))
        t.start()
        t.join(WAIT_S)
        return layout_jsons(refs)

    stage_a._html_kernel = kernel_a
    stage_a.extractor.layout_jsons = run_b_then_layout
    assert _by_doc(stage_a(table_a)) == want_a
    assert len(out_b) == 1 and _by_doc(out_b[0]) == want_b
    assert stage_a.extractor.stats.native_fallbacks == stage_b.extractor.stats.native_fallbacks == 0


class _ThreadRecordingStage(ExtractSpansBatch):
    """The stage, recording the thread each DOM-twin call runs on."""

    def __init__(self) -> None:
        self.dom_threads: "list[int]" = []
        super().__init__()

    def _dom_blocks(self, *args):
        self.dom_threads.append(threading.get_ident())
        return super()._dom_blocks(*args)


def test_without_the_kernel_the_dom_twin_runs_here_and_no_helper_starts(monkeypatch):
    """With no native kernel the DOM twin is the stage's html kernel: it
    runs on the caller's thread, is not a counted fallback (as before), and
    nothing is submitted to the kernel thread, so it never starts."""

    class NoThread:
        def submit(self, *args):
            raise AssertionError("the kernel thread was asked to run a call")

    monkeypatch.setattr(native, "get_native_batch_extractor", lambda: None)
    monkeypatch.setattr(extract_stage, "KERNEL_THREAD", NoThread())
    table = _media_table(8, 6)
    stage = _ThreadRecordingStage()
    out = _by_doc(stage(table.slice(0, 4))) | _by_doc(stage(table.slice(4)))
    assert out == _oracle_spans(table)
    assert stage.dom_threads == [threading.get_ident()] * 2
    assert stage.extractor.stats.native_fallbacks == 0


def test_a_declining_kernel_falls_back_to_the_dom_twin_here():
    """A kernel that returns None (declines) runs on the helper; the DOM
    twin then runs on the caller's thread, counted once per batch in
    ``native_fallbacks``."""
    table = _media_table(8, 6)
    stage = _ThreadRecordingStage()
    stage._html_kernel = lambda *a: None
    out = _by_doc(stage(table.slice(0, 4))) | _by_doc(stage(table.slice(4)))
    assert out == _oracle_spans(table)
    assert stage.dom_threads == [threading.get_ident()] * 2
    assert stage.extractor.stats.native_fallbacks == 2

