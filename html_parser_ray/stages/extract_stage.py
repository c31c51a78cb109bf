"""Ray Data stages for span extraction.

``ExtractSpansBatch`` is a callable CLASS for
``ds.map_batches(ExtractSpansBatch, batch_format="pyarrow", concurrency=N)``:
expensive setup (HTML kernel, heuristic tables, layout model) happens once
per actor in ``__init__``; ``__call__`` processes one Arrow batch in one
emit. The HTML spans of a batch go through ONE kernel call over the Arrow
values buffer; everything else (text normalization, media layout, output
offsets, the output buffer) is batch-shaped numpy/Arrow work.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pyarrow as pa

from html_parser_ray.extract.boilerplate import ExtractConfig, extract_text_blocks
from html_parser_ray.extract.extractor import SpanExtractor
from html_parser_ray.html.document import parse_html
from html_parser_ray.sources.corpus import SPAN_STRUCT

OUT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans_out", pa.list_(SPAN_STRUCT)),
    ]
)

METRICS_STRUCT = pa.struct(
    [
        ("spans_in", pa.int32()),
        ("spans_out", pa.int32()),
        ("html_bytes", pa.int64()),
        ("parse_errors", pa.int32()),
    ]
)

# largest byte offset an Arrow string/list array (int32 offsets) can hold
INT32_OFFSET_MAX = (1 << 31) - 1


class ExtractSpansBatch:
    """Actor-pool extraction stage (input_hint schema in, spans_out schema out).

    Parameters are plain values (passed via ``fn_constructor_kwargs``) so the
    actor constructs its own state — nothing heavy is captured in the closure.
    """

    def __init__(
        self,
        max_link_density: float = 0.5,
        min_text_len: int = 1,
        layout_model: str = "layout-stub-v0",
        drop_whitespace_text: bool = False,
        emit_metrics: bool = False,
        layout_pdf_decode: bool = True,
        layout_memo: bool = True,
    ) -> None:
        cfg = ExtractConfig(
            max_link_density=max_link_density, min_text_len=min_text_len
        )
        self.extractor = SpanExtractor(
            config=cfg,
            layout_model=layout_model,
            drop_whitespace_text=drop_whitespace_text,
            layout_pdf_decode=layout_pdf_decode,
            layout_memo=layout_memo,
        )
        # emit_metrics only adds the per-row ``metrics`` column
        self.emit_metrics = emit_metrics
        # the HTML-blocks kernel, chosen once: the native batch kernel (one C
        # call per batch over the Arrow values buffer, zero-copy in), else
        # the DOM oracle behind the same call. Parity pinned by
        # tests/test_native_parity.py.
        from html_parser_ray.native import get_native_batch_extractor

        self._html_kernel = get_native_batch_extractor() or self._dom_blocks
        self._dom_errors: "np.ndarray | None" = None

    def _dom_blocks(self, values_addr, offsets, total_bytes, drop_ws, *_thresholds):
        """DOM-oracle twin of the native batch kernel: same call, same
        ``(buffer, block_lens, doc_nblocks)`` result, under the extractor's
        config (which holds the thresholds). A doc the parser raises on has
        no blocks; its count lands in ``self._dom_errors`` (one entry per
        doc of this call)."""
        cfg = self.extractor.config
        n_docs = len(offsets) - 1
        blocks: "list[bytes]" = []
        nblocks = np.zeros(n_docs, dtype=np.int64)
        errors = np.zeros(n_docs, dtype=np.int64)
        for d in range(n_docs):
            lo = int(offsets[d])
            src = ctypes.string_at(values_addr + lo, int(offsets[d + 1]) - lo)
            try:
                got = extract_text_blocks(parse_html(src, drop_ws), cfg)
            except Exception:
                errors[d] = 1
                got = []
            blocks.extend(got)
            nblocks[d] = len(got)
        self._dom_errors = errors
        lens = np.fromiter(map(len, blocks), dtype=np.int64, count=len(blocks))
        return b"".join(blocks), lens, nblocks

    def __call__(self, batch: pa.Table) -> pa.Table:
        # the halving recursion stays below __call__, which subclasses wrap
        return self._extract(batch)

    def _extract(self, batch: pa.Table) -> pa.Table:
        """The emit, halving the batch by rows while its spans or output
        overflow Arrow's int32 offsets (each split counted in
        ``native_fallbacks``). Any other error escapes."""
        try:
            return self._emit(batch)
        except (pa.ArrowCapacityError, pa.ArrowInvalid, OverflowError) as e:
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
        """One batch: html spans go through ONE kernel call over the Arrow
        values buffer (the DOM oracle if the native kernel declines, counted
        in ``native_fallbacks``); text/media spans are vectorized; per-row
        span order and offset renumbering preserved. Raises OverflowError
        when the output does not fit int32 offsets."""
        import pyarrow.compute as pc

        doc_ids = batch.column("doc_id")
        spans_col = batch.column("spans")
        if isinstance(spans_col, pa.ChunkedArray):
            spans_col = spans_col.combine_chunks()
        flat = spans_col.flatten()
        kind_arr = flat.field("kind")
        text_arr = flat.field("text")
        media_arr = flat.field("media_ref")
        row_offs = np.asarray(spans_col.offsets)
        base = row_offs[0]

        is_html = pc.equal(kind_arr, "html").fill_null(False)
        is_text = pc.equal(kind_arr, "text").fill_null(False)
        is_media = pc.equal(kind_arr, "media").fill_null(False)
        html_np = is_html.to_numpy(zero_copy_only=False)
        text_np = is_text.to_numpy(zero_copy_only=False)
        media_np = is_media.to_numpy(zero_copy_only=False)

        html_texts = text_arr.filter(is_html).cast(pa.binary())
        if isinstance(html_texts, pa.ChunkedArray):
            html_texts = html_texts.combine_chunks()
        n_html = len(html_texts)
        if n_html > 0:
            bufs = html_texts.buffers()
            aoff = html_texts.offset
            offs64 = (
                np.frombuffer(bufs[1], dtype=np.int32)[aoff : aoff + n_html + 1]
                .astype(np.int64)
            )
            cfg = self.extractor.config
            args = (
                bufs[2].address,
                offs64,
                int(offs64[-1]),
                self.extractor.drop_whitespace_text,
                cfg.max_link_density,
                cfg.min_text_len,
            )
            self._dom_errors = np.zeros(n_html, dtype=np.int64)
            res = self._html_kernel(*args)
            if res is None:
                self.extractor.stats.native_fallbacks += 1
                res = self._dom_blocks(*args)
            mv, lens, doc_nblocks = res
            html_errors = self._dom_errors
            block_bounds = np.zeros(len(lens) + 1, dtype=np.int64)
            np.cumsum(lens, out=block_bounds[1:])
            first_block = np.zeros(n_html + 1, dtype=np.int64)
            np.cumsum(doc_nblocks, out=first_block[1:])
            html_bytes = int(offs64[-1] - offs64[0])
        else:
            mv = memoryview(b"")
            block_bounds = np.zeros(1, dtype=np.int64)
            first_block = np.zeros(1, dtype=np.int64)
            doc_nblocks = np.zeros(0, dtype=np.int64)
            html_bytes = 0
            offs64 = np.zeros(1, dtype=np.int64)
            html_errors = np.zeros(0, dtype=np.int64)

        # ---- fully vectorized span emission (no per-span Python) ----------
        # Every output span is a (source_start, length) range into ONE
        # concatenated source buffer: [native html blocks | normalized text
        # spans | media JSON blob]. Output positions, offsets and the final
        # values buffer are all numpy offset arithmetic; the byte movement is
        # a single multi-range gather.
        n_rows = len(spans_col)
        flat_n = len(flat)
        html_idx = np.flatnonzero(html_np)
        text_idx = np.flatnonzero(text_np)
        media_idx = np.flatnonzero(media_np)

        # text spans: whitespace-normalize with Arrow kernels (identical
        # semantics to html.text.normalize_bytes: collapse WHITESPACE runs to
        # one space, drop leading/trailing — parity pinned by tests)
        if len(text_idx):
            # a text-only batch needs no filter copy
            texts_f = text_arr if len(text_idx) == flat_n else text_arr.filter(is_text)
            if isinstance(texts_f, pa.ChunkedArray):
                texts_f = texts_f.combine_chunks()
            texts_f = pc.fill_null(texts_f, "")
            norm = pc.utf8_trim(
                pc.replace_substring_regex(texts_f, "[ \n\r\t\x0c]+", " "), " "
            )
            norm_bin = norm.cast(pa.binary())
            if isinstance(norm_bin, pa.ChunkedArray):
                norm_bin = norm_bin.combine_chunks()
            nbufs = norm_bin.buffers()
            noff = norm_bin.offset
            norm_offs = np.frombuffer(nbufs[1], dtype=np.int32)[
                noff : noff + len(norm_bin) + 1
            ].astype(np.int64)
            norm_data = np.frombuffer(nbufs[2], dtype=np.uint8)
            norm_lens = np.diff(norm_offs)
        else:
            norm_offs = np.zeros(1, dtype=np.int64)
            norm_data = np.zeros(0, dtype=np.uint8)
            norm_lens = np.zeros(0, dtype=np.int64)

        # media spans: JSON per UNIQUE ref of the batch, through the
        # extractor's cross-batch layout memo (refs repeat heavily)
        if len(media_idx):
            import pandas as pd

            refs_py = [
                "" if r is None else r for r in media_arr.filter(is_media).to_pylist()
            ]
            codes, uniques = pd.factorize(np.asarray(refs_py, dtype=object))
            ujsons = [self.extractor.layout_json(u) for u in uniques]
            media_blob = np.frombuffer(b"".join(ujsons), dtype=np.uint8)
            ulens = np.fromiter((len(j) for j in ujsons), dtype=np.int64, count=len(ujsons))
            uoffs = np.zeros(len(ujsons) + 1, dtype=np.int64)
            np.cumsum(ulens, out=uoffs[1:])
        else:
            refs_py = []
            codes = np.zeros(0, dtype=np.int64)
            uniques = np.zeros(0, dtype=object)
            media_blob = np.zeros(0, dtype=np.uint8)
            ulens = np.zeros(0, dtype=np.int64)
            uoffs = np.zeros(1, dtype=np.int64)

        # per-input-span output counts -> output positions
        counts = np.zeros(flat_n, dtype=np.int64)
        if len(html_idx):
            counts[html_idx] = doc_nblocks
        if len(text_idx):
            counts[text_idx] = (norm_lens > 0).astype(np.int64)
        if len(media_idx):
            counts[media_idx] = 1
        cum = np.zeros(flat_n + 1, dtype=np.int64)
        np.cumsum(counts, out=cum[1:])
        total_out = int(cum[-1])

        # source buffer = html blocks | normalized text | media JSON.
        # b1 = WRITTEN block bytes, not len(mv): the native scratch is
        # grow-only capacity — copying it whole inflated every batch's
        # memcpy (254x observed) and once the scratch grew past 2 GiB the
        # int32 guard below would have split every batch
        b1 = int(block_bounds[-1])
        b2 = b1 + len(norm_data)
        src = np.empty(b2 + len(media_blob), dtype=np.uint8)
        if b1:
            src[:b1] = np.frombuffer(mv, dtype=np.uint8, count=b1)
        src[b1:b2] = norm_data
        src[b2:] = media_blob

        starts_all = np.zeros(total_out, dtype=np.int64)
        lens_all = np.zeros(total_out, dtype=np.int64)
        is_media_out = np.zeros(total_out, dtype=bool)
        media_code_out = np.zeros(total_out, dtype=np.int64)
        if len(html_idx):
            # html span -> its contiguous native block range, placed at the
            # span's output slot run
            pos_html = np.repeat(cum[html_idx], doc_nblocks) + (
                np.arange(len(block_bounds) - 1, dtype=np.int64)
                - np.repeat(first_block[:-1], doc_nblocks)
            )
            starts_all[pos_html] = block_bounds[:-1]
            lens_all[pos_html] = np.diff(block_bounds)
        if len(text_idx):
            kept = norm_lens > 0
            pos_text = cum[text_idx[kept]]
            starts_all[pos_text] = b1 + norm_offs[:-1][kept]
            lens_all[pos_text] = norm_lens[kept]
        if len(media_idx):
            pos_media = cum[media_idx]
            starts_all[pos_media] = b2 + uoffs[codes]
            lens_all[pos_media] = ulens[codes]
            is_media_out[pos_media] = True
            media_code_out[pos_media] = codes

        total_bytes = int(lens_all.sum())
        if max(total_bytes, len(src)) > INT32_OFFSET_MAX:
            raise OverflowError(f"{total_bytes} output bytes in one batch")
        # multi-range gather: out[k] = src[starts[j] + k - out_start[j]].
        # int32 index math: the bounds check above guarantees every index
        # fits, and the index array is the dominant memory traffic of the
        # whole emit (one element PER OUTPUT BYTE) — halving its width
        # matters when 16 actors share the memory bus.
        shift = np.zeros(total_out, dtype=np.int64)
        np.cumsum(lens_all[:-1], out=shift[1:])
        gather_idx = np.repeat(
            (starts_all - shift).astype(np.int32), lens_all
        ) + np.arange(total_bytes, dtype=np.int32)
        values = src[gather_idx]
        val_offs = np.zeros(total_out + 1, dtype=np.int64)
        np.cumsum(lens_all, out=val_offs[1:])

        # row list offsets + within-row span offsets
        out_offsets = cum[row_offs - base]
        o_off = np.arange(total_out, dtype=np.int64) - np.repeat(
            out_offsets[:-1], np.diff(out_offsets)
        )

        st = self.extractor.stats
        st.docs += n_rows
        st.spans_in += flat_n
        st.spans_out += total_out
        st.html_bytes += html_bytes
        st.parse_errors += int(html_errors.sum())

        text_out = pa.Array.from_buffers(
            pa.binary(),
            total_out,
            [
                None,
                # py_buffer wraps numpy arrays zero-copy (and keeps them
                # alive); .tobytes() was one extra full copy per batch
                pa.py_buffer(val_offs.astype(np.int32)),
                pa.py_buffer(values),
            ],
        ).cast(pa.string())
        kind_arr = pa.DictionaryArray.from_arrays(
            pa.array(is_media_out.astype(np.int8), type=pa.int8()),
            pa.array(["text", "media"], type=pa.string()),
        ).cast(pa.string())
        # media_ref: "" except media slots (pool lookup, no Python per span)
        ref_pool = pa.array(list(uniques) + [""], type=pa.string())
        ref_take = np.where(is_media_out, media_code_out, len(uniques))
        media_out = pc.take(ref_pool, pa.array(ref_take, type=pa.int64()))
        struct_arr = pa.StructArray.from_arrays(
            [
                kind_arr,
                text_out,
                media_out,
                pa.array(o_off.astype(np.int32), type=pa.int32()),
            ],
            fields=list(SPAN_STRUCT),
        )
        spans_out = pa.ListArray.from_arrays(
            pa.array(out_offsets.astype(np.int32), type=pa.int32()), struct_arr
        )
        cols = {"doc_id": doc_ids, "spans_out": spans_out}
        if self.emit_metrics:
            row_bounds = row_offs - base
            html_row = np.searchsorted(row_bounds, html_idx, side="right") - 1

            def per_row(per_html_span: np.ndarray) -> pa.Array:
                sums = np.zeros(n_rows, dtype=np.int64)
                np.add.at(sums, html_row, per_html_span)
                return pa.array(sums)

            cols["metrics"] = pa.StructArray.from_arrays(
                [
                    pa.array(np.diff(row_bounds).astype(np.int32)),
                    pa.array(np.diff(out_offsets).astype(np.int32)),
                    per_row(np.diff(offs64)),
                    per_row(html_errors).cast(pa.int32()),
                ],
                fields=list(METRICS_STRUCT),
            )
        return pa.table(cols)


class ExtractFragmentsBatch(ExtractSpansBatch):
    """Same extraction over split fragments: passes the fragment bookkeeping
    columns (``frag_seq``, ``n_frags``) through for ordered reassembly.

    Off the pipeline path (giant documents extract in place); kept only for
    the benchmark's tracing shims, which import it."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        out = super().__call__(
            batch.select(["doc_id", "spans"])
        )
        for name in ("frag_seq", "n_frags"):
            out = out.append_column(name, batch.column(name))
        return out
