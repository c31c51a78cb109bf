"""Ray Data stages for span extraction.

``ExtractSpansBatch`` is the extract stage: ``__init__`` does the expensive
setup (HTML kernel, layout model), and the pipeline's extract tasks
(``pipelines/extraction.py:extract_batch``) build one per worker process per
run and reuse it for that run's batches there.
``__call__`` processes one Arrow batch in one emit, and every input column
other than ``spans`` passes through to the output unchanged. The HTML
spans of a batch go through ONE kernel call over the Arrow values buffer,
``(values_addr, offsets, total_bytes)``: the extraction's tables and
thresholds are fixed (``extract/boilerplate.py``), so a call carries only
the documents. The native call releases the GIL, so it runs on the
process's one kernel thread (``KERNEL_THREAD``, started on first use and
shared by every stage in the process) while the caller normalizes the
batch's text spans and runs its media branch (memo probe, fetch, PDF
decode); the caller then takes the kernel's result.
The emit then gathers by span, not by byte: the kernel's blocks, the
Arrow-normalized text spans and one layout JSON per unique media ref form
one binary span pool, every output span is one int64 index into it, and
one ``pc.take`` builds the output text (the same index gives ``kind`` and
``media_ref``).
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from html_parser_ray.extract.extractor import SpanExtractor, dom_blocks
from html_parser_ray.sources.corpus import SPAN_STRUCT

SPANS_TYPE = pa.list_(SPAN_STRUCT)

# largest byte offset an Arrow string/list array (int32 offsets) can hold
INT32_OFFSET_MAX = (1 << 31) - 1


# this process's kernel thread: the executor starts its one thread at the
# first submit and every stage in the process shares it, so the native
# kernel's thread-local scratch is one set per process, and its calls run
# one at a time
KERNEL_THREAD = ThreadPoolExecutor(max_workers=1, thread_name_prefix="html-kernel")


def _run_kernel(kernel, values: pa.Array, args: tuple):
    """``kernel(*args)`` with its blocks copied out of the kernel's scratch
    (which the next call reuses, whichever stage submits it), or None if
    the kernel declines. ``values`` is the array whose buffer ``args``
    points into: the work item holds it until the call ends, so a caller
    that raises meanwhile cannot free the bytes under the kernel."""
    res = kernel(*args)
    if res is None:
        return None
    blocks, block_lens, doc_nblocks = res
    return bytes(blocks[: int(block_lens.sum())]), block_lens, doc_nblocks


def _text_bytes(spans: "pa.Array | pa.ChunkedArray") -> int:
    """Bytes of the span texts of a ``spans`` column, over its chunks and
    whatever its string encoding."""
    total = 0
    for chunk in getattr(spans, "chunks", [spans]):
        text = chunk.flatten().field("text")
        if pa.types.is_dictionary(text.type):
            lens = pc.take(pc.binary_length(text.dictionary), text.indices)
        else:
            lens = pc.binary_length(text)
        total += pc.sum(lens).as_py() or 0
    return total


class ExtractSpansBatch:
    """The extraction stage: ``doc_id`` and ``spans`` in (``spans``
    in any Arrow encoding of its type: large strings and lists, dictionary
    fields); ``doc_id``, ``spans_out``, then every other input column
    (unchanged, in input order) out. What it did is counted in
    ``self.extractor.stats`` (``ExtractStats``).

    ``layout_model`` names the layout model (it stands in for a checkpoint
    path) and is written into every media span's JSON. It is a plain value,
    passed in the extract task's ``fn_kwargs``, so each worker process
    constructs its own state, once per run — nothing heavy is shipped with
    the task.
    """

    def __init__(self, layout_model: str = "layout-stub-v0") -> None:
        self.extractor = SpanExtractor(layout_model=layout_model)
        # the HTML-blocks kernel, chosen once: the native batch kernel (one C
        # call per batch over the Arrow values buffer, zero-copy in), else
        # the DOM oracle behind the same call. Parity pinned by
        # tests/test_native_parity.py.
        from html_parser_ray.native import get_native_batch_extractor

        self._html_kernel = get_native_batch_extractor() or self._dom_blocks
        # parse errors of the last html kernel call (only the DOM path has any)
        self._call_errors = 0

    def _dom_blocks(self, values_addr, offsets, total_bytes):
        """DOM-oracle twin of the native batch kernel: same call, same
        ``(buffer, block_lens, doc_nblocks)`` result, each doc through the
        oracle's own ``dom_blocks``. A doc the parser raises on has no
        blocks; the call's error count lands in ``self._call_errors``."""
        n_docs = len(offsets) - 1
        blocks: "list[bytes]" = []
        nblocks = np.zeros(n_docs, dtype=np.int64)
        errors = 0
        for d in range(n_docs):
            lo = int(offsets[d])
            src = ctypes.string_at(values_addr + lo, int(offsets[d + 1]) - lo)
            got, err = dom_blocks(src)
            errors += err
            blocks.extend(got)
            nblocks[d] = len(got)
        self._call_errors = errors
        lens = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
        return b"".join(blocks), lens, nblocks

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the halving recursion stays below __call__, which subclasses wrap
        self.extractor.stats.batches += 1
        return self._extract(batch)

    def _extract(self, batch: pa.Table) -> pa.Table:
        """The emit, halving the batch by rows while its spans or output
        overflow Arrow's int32 offsets, which ``_emit``'s size guards report
        as OverflowError (each split counted in ``native_fallbacks``). Any
        other error escapes."""
        try:
            return self._emit(batch)
        except OverflowError as e:
            if batch.num_rows < 2:
                raise OverflowError(
                    f"doc {batch.column('doc_id').to_pylist()}: its spans "
                    f"cannot be represented with Arrow int32 offsets ({e})"
                ) from e
            self.extractor.stats.native_fallbacks += 1
            half = batch.num_rows // 2
            return pa.concat_tables(
                [self._extract(batch.slice(0, half)), self._extract(batch.slice(half))]
            )

    def _emit(self, batch: pa.Table) -> pa.Table:
        """One batch, one output table. Every output span is one entry of a
        span pool, ``[html blocks | normalized text spans | layout JSON per
        unique ref]``, picked by one int64 pool index per output span:
        ``text`` is one ``pc.take`` over the pool, and ``kind`` and
        ``media_ref`` follow from the same index. The html spans go through
        ONE kernel call over the Arrow values buffer, submitted to the
        kernel thread before the text and media branches run here and
        awaited after them; its errors surface here, when its result is
        taken. If the native kernel declines, the DOM twin runs on this
        thread, counted in ``native_fallbacks``; when the twin is the
        kernel (no native build), it runs here and no kernel thread
        starts. Raises OverflowError when the input's span texts, the pool
        or the output do not fit int32 offsets."""
        spans_col = batch.column("spans")
        nbytes = _text_bytes(spans_col)
        if nbytes > INT32_OFFSET_MAX:
            raise OverflowError(f"{nbytes} bytes of span text in one batch")
        # other encodings (large_string, dictionary, large_list) as the
        # plain spans type, so every string array below is one type
        if spans_col.type != SPANS_TYPE:
            spans_col = spans_col.cast(SPANS_TYPE)
        if isinstance(spans_col, pa.ChunkedArray):
            spans_col = spans_col.combine_chunks()
        # flatten() skips the values behind NULL rows, so the row bounds
        # count a NULL row as empty
        flat = spans_col.flatten()
        row_lens = pc.list_value_length(spans_col).fill_null(0).to_numpy()
        row_bounds = np.concatenate([[0], np.cumsum(row_lens)])
        n_rows, flat_n = len(spans_col), len(flat)
        kind_arr = flat.field("kind")
        text_arr = flat.field("text")
        masks = [
            pc.equal(kind_arr, k).fill_null(False) for k in ("html", "text", "media")
        ]
        is_html, is_text, is_media = masks
        html_idx, text_idx, media_idx = (
            np.flatnonzero(m.to_numpy(zero_copy_only=False)) for m in masks
        )
        # each input span emits counts[j] output spans, pool entries
        # first[j], first[j] + 1, ...; unknown kinds emit none
        first = np.zeros(flat_n, dtype=np.int64)
        counts = np.zeros(flat_n, dtype=np.int64)

        # html: the batch's one kernel call starts now on this process's
        # kernel thread and runs while the text and media branches below run
        # here; its blocks, in span order, are pool entries [0, nb). The DOM
        # twin is Python, so it stays on this thread (it would hold the GIL).
        html_offs = np.zeros(1, dtype=np.int64)
        pending = None
        if len(html_idx):
            html_texts = text_arr.filter(is_html).cast(pa.binary())
            bufs, aoff = html_texts.buffers(), html_texts.offset
            html_offs = np.frombuffer(bufs[1], np.int32)[aoff : aoff + len(html_idx) + 1]
            html_offs = html_offs.astype(np.int64)
            args = (bufs[2].address, html_offs, int(html_offs[-1]))
            if self._html_kernel != self._dom_blocks:
                pending = KERNEL_THREAD.submit(_run_kernel, self._html_kernel, html_texts, args)

        # text: whitespace-normalized with Arrow kernels (the semantics of
        # html.text.normalize_bytes: collapse WHITESPACE runs to one space,
        # drop leading/trailing); the j-th text span is pool entry nb + j,
        # emitted only when it normalizes to a non-empty string
        norm = pa.array([], type=pa.string())
        if len(text_idx):
            # a text-only batch needs no filter copy
            texts = text_arr if len(text_idx) == flat_n else text_arr.filter(is_text)
            norm = pc.utf8_trim(
                pc.replace_substring_regex(
                    pc.fill_null(texts, ""), "[ \n\r\t\x0c]+", " "
                ),
                " ",
            )
        norm_lens = pc.binary_length(norm).to_numpy(zero_copy_only=False)
        nt = len(norm_lens)
        counts[text_idx] = norm_lens > 0

        # media: one layout JSON per UNIQUE ref of the batch, from one
        # ``layout_jsons`` call (the extractor's cross-batch memo, then the
        # misses decoded in chunks); a span whose ref is the c-th unique
        # is pool entry nb + nt + c
        refs = pa.array([], type=pa.string())
        ujsons: "list[bytes]" = []
        if len(media_idx):
            coded = flat.field("media_ref").filter(is_media).fill_null("")
            coded = coded.dictionary_encode()
            refs = coded.dictionary
            ujsons = self.extractor.layout_jsons(refs.to_pylist())
            counts[media_idx] = 1

        # the html result: the kernel's (the DOM twin's if it declines,
        # counted in ``native_fallbacks``), or the twin's when it is the kernel
        blocks = b""
        block_lens = np.zeros(0, dtype=np.int64)
        html_errors = 0
        if len(html_idx):
            self._call_errors = 0
            res = pending.result() if pending is not None else self._html_kernel(*args)
            if res is None:
                self.extractor.stats.native_fallbacks += 1
                res = self._dom_blocks(*args)
            blocks, block_lens, doc_nblocks = res
            html_errors = self._call_errors
            counts[html_idx] = doc_nblocks
            first[html_idx] = np.cumsum(doc_nblocks) - doc_nblocks
        nb = len(block_lens)
        first[text_idx] = nb + np.arange(nt)
        if len(media_idx):
            first[media_idx] = nb + nt + coded.indices.to_numpy()

        # output slot p of input span j (cum[j] <= p < cum[j + 1]) takes
        # pool entry first[j] + (p - cum[j])
        cum = np.concatenate([[0], np.cumsum(counts)])
        total_out = int(cum[-1])
        idx = np.repeat(first - cum[:-1], counts) + np.arange(total_out)
        pool_lens = np.concatenate(
            [block_lens, norm_lens, np.fromiter(map(len, ujsons), np.int64, len(ujsons))]
        )
        nbytes = max(int(pool_lens.sum()), int(pool_lens[idx].sum()))
        if nbytes > INT32_OFFSET_MAX:
            raise OverflowError(f"{nbytes} pool or output bytes in one batch")

        # the html blocks are wrapped zero-copy: the concat copies them into
        # the pool, and the take copies the pool into the output
        block_offs = np.concatenate([[0], np.cumsum(block_lens)]).astype(np.int32)
        pool = pa.concat_arrays(
            [
                pa.Array.from_buffers(
                    pa.binary(),
                    nb,
                    [None, pa.py_buffer(block_offs), pa.py_buffer(blocks)],
                ),
                norm.cast(pa.binary()),
                pa.array(ujsons, type=pa.binary()),
            ]
        )
        text_out = pc.take(pool, idx).cast(pa.string())
        is_media_out = idx >= nb + nt
        kind_out = pc.take(pa.array(["text", "media"]), is_media_out.astype(np.int8))
        # media_ref: the span's ref for media slots, "" for the rest
        media_out = pc.take(
            pa.concat_arrays([refs, pa.array([""])]),
            np.where(is_media_out, idx - (nb + nt), len(refs)),
        )

        # row list offsets + within-row span offsets
        out_offsets = cum[row_bounds]
        o_off = np.arange(total_out, dtype=np.int64) - np.repeat(
            out_offsets[:-1], np.diff(out_offsets)
        )

        st = self.extractor.stats
        st.docs += n_rows
        st.spans_in += flat_n
        st.spans_out += total_out
        st.html_bytes += int(html_offs[-1] - html_offs[0])
        st.parse_errors += html_errors

        struct_arr = pa.StructArray.from_arrays(
            [kind_out, text_out, media_out, pa.array(o_off.astype(np.int32))],
            fields=list(SPAN_STRUCT),
        )
        spans_out = pa.ListArray.from_arrays(
            pa.array(out_offsets.astype(np.int32)), struct_arr
        )
        cols = {"doc_id": batch.column("doc_id"), "spans_out": spans_out}
        # every other input column passes through unchanged, in input order
        for name in batch.column_names:
            if name != "spans" and name not in cols:
                cols[name] = batch.column(name)
        return pa.table(cols)


class ExtractFragmentsBatch(ExtractSpansBatch):
    """Same extraction over split fragments; the fragment bookkeeping
    columns (``frag_seq``, ``n_frags``) pass through like any other column.

    Off the pipeline path (giant documents extract in place); kept only for
    the benchmark's tracing shims, which import it."""
