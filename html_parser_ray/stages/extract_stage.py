"""Ray Data stages for span extraction.

``ExtractSpansBatch`` is a callable CLASS for
``ds.map_batches(ExtractSpansBatch, batch_format="pyarrow", concurrency=N)``:
expensive setup (selector cache, heuristic tables, layout model) happens once
per actor in ``__init__``; ``__call__`` processes one Arrow batch. HTML parsing
is inherently per-document, so the per-row loop lives inside the actor over a
zero-copy Arrow batch; everything batch-shaped (schema assembly, offsets) stays
in Arrow.
"""

from __future__ import annotations

import pyarrow as pa

from html_parser_ray.extract.boilerplate import ExtractConfig
from html_parser_ray.extract.extractor import SpanExtractor
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
        layout_cache_shards: "list | None" = None,
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
        self.emit_metrics = emit_metrics
        # batched native path: one C call per batch over the Arrow values
        # buffer (zero-copy in). Only when the per-doc native path is active
        # (default config + compiler available) and no per-doc metrics are
        # requested; parity pinned by tests/test_native_parity.py.
        self._batch_native = None
        if self.extractor._native is not None and not emit_metrics:
            from html_parser_ray.native import get_native_batch_extractor

            self._batch_native = get_native_batch_extractor()
        # media layout results repeat heavily across a corpus (refs are a
        # bounded id space); memoize the serialized metadata per ref. A
        # ref's repeats scatter ACROSS the pool though, so the local memo
        # captures only same-actor repeats — when ``layout_cache_shards``
        # handles are passed (stages/layout_cache.py), memo MISSES go to the
        # sharded cluster-wide cache in one batched RPC per batch, making
        # total decodes equal distinct refs regardless of pool size.
        import json

        layout = self.extractor.layout
        self._layout_memo_on = bool(layout_memo)
        self._media_memo: "dict[str, bytes]" = {}
        self._media_memo_cap = 1 << 16
        self._cache_shards = (
            list(layout_cache_shards) if layout_cache_shards else None
        )

        def _media_decode(ref: str) -> bytes:
            return json.dumps(layout.parse(ref), sort_keys=True).encode("utf-8")

        self._media_decode = _media_decode

    def _media_jsons(self, uniques: "list[str]") -> "list[bytes]":
        """Serialized layout JSON per unique ref: local memo, then the
        shared shard cache (if configured), then local decode. The JSON is
        a pure function of the ref, so every path yields identical bytes —
        a shard failure only loses the dedup saving, never correctness."""
        memo = self._media_memo
        out: "list[bytes]" = [b""] * len(uniques)
        missing: "list[str]" = []
        mpos: "list[int]" = []
        for i, u in enumerate(uniques):
            v = memo.get(u)
            if v is None:
                missing.append(u)
                mpos.append(i)
            else:
                out[i] = v
        if missing:
            vals = None
            if self._cache_shards is not None:
                from html_parser_ray.stages.layout_cache import fetch_media_jsons

                try:
                    vals = fetch_media_jsons(self._cache_shards, missing)
                except Exception:
                    # dead/unreachable shards: local decode for the rest of
                    # this actor's life; count it so degradation is visible
                    self._cache_shards = None
                    self.extractor.stats.native_fallbacks += 1
                    vals = None
            if vals is None:
                vals = [self._media_decode(u) for u in missing]
            if self._layout_memo_on:
                cap = self._media_memo_cap
                for u, v in zip(missing, vals):
                    if len(memo) >= cap:
                        break
                    memo[u] = v
            for i, v in zip(mpos, vals):
                out[i] = v
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._batch_native is not None:
            # degrade to the Python path only on the KNOWN capacity/overflow
            # signals (ArrowCapacityError from combine_chunks/cast(binary) on
            # >2 GB batches, ArrowInvalid/OverflowError from the int32-offsets
            # assumption). Anything else is a real bug and must surface — a
            # blanket catch would silently turn every batch into the slow
            # Python path with no signal. Fallbacks are counted in
            # extractor.stats.native_fallbacks so degradation is observable.
            try:
                out = self._call_native(batch)
            except (pa.ArrowCapacityError, pa.ArrowInvalid, OverflowError):
                out = None
            if out is not None:
                return out
            self.extractor.stats.native_fallbacks += 1
        return self._call_python(batch)

    def _call_native(self, batch: pa.Table) -> "pa.Table | None":
        """Batched native extraction: html spans go through ONE C call over
        the Arrow values buffer; text/media spans are handled vectorized-ish
        in Python; per-row span order and offset renumbering preserved.
        Returns None on any native-side capacity error (fallback)."""
        import numpy as np

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
            res = self._batch_native(
                bufs[2].address,
                offs64,
                int(offs64[-1]),
                self.extractor.drop_whitespace_text,
            )
            if res is None:
                return None
            mv, lens, doc_nblocks = res
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
            texts_f = text_arr.filter(is_text)
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

        # media spans: JSON per UNIQUE ref only (refs repeat heavily)
        if len(media_idx):
            import pandas as pd

            refs_py = [
                "" if r is None else r for r in media_arr.filter(is_media).to_pylist()
            ]
            codes, uniques = pd.factorize(np.asarray(refs_py, dtype=object))
            ujsons = self._media_jsons(list(uniques))
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
        # int32 guard below would have pinned the actor on the Python
        # fallback forever
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
        if total_bytes > (1 << 31) - 1 or len(src) > (1 << 31) - 1:
            return None  # int32 Arrow offsets would overflow; Python fallback
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
        out_offsets = cum[np.asarray(row_offs) - base]
        o_off = np.arange(total_out, dtype=np.int64) - np.repeat(
            out_offsets[:-1], np.diff(out_offsets)
        )

        st = self.extractor.stats
        st.docs += n_rows
        st.spans_in += flat_n
        st.spans_out += total_out
        st.html_bytes += html_bytes

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
        return pa.table({"doc_id": doc_ids, "spans_out": spans_out})

    def _call_python(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id")
        spans_col = batch.column("spans")
        if isinstance(spans_col, pa.ChunkedArray):
            spans_col = spans_col.combine_chunks()
        # columnar access: flatten the list<struct> once, slice per row by
        # offsets — avoids per-span dict materialization (to_pylist)
        flat = spans_col.flatten()
        in_kinds = flat.field("kind").to_pylist()
        # zero-copy string -> binary cast: the extractor is byte-oriented, so
        # hand it UTF-8 bytes directly instead of decoded Python strs
        in_texts = flat.field("text").cast(pa.binary()).to_pylist()
        in_media = flat.field("media_ref").to_pylist()
        offsets = spans_col.offsets.to_pylist()
        base = offsets[0]

        ex = self.extractor
        o_kind: list[str] = []
        o_text: list[str] = []
        o_media: list[str] = []
        o_off: list[int] = []
        out_offsets = [0]
        metrics: list[dict] = []
        for ri in range(len(spans_col)):
            lo, hi = offsets[ri] - base, offsets[ri + 1] - base
            before_in = ex.stats.spans_in
            before_err = ex.stats.parse_errors
            before_bytes = ex.stats.html_bytes
            k, t, m, o = ex.extract_columns(
                in_kinds[lo:hi], in_texts[lo:hi], in_media[lo:hi]
            )
            o_kind.extend(k)
            o_text.extend(t)
            o_media.extend(m)
            o_off.extend(o)
            out_offsets.append(len(o_kind))
            if self.emit_metrics:
                metrics.append(
                    {
                        "spans_in": ex.stats.spans_in - before_in,
                        "spans_out": len(k),
                        "html_bytes": ex.stats.html_bytes - before_bytes,
                        "parse_errors": ex.stats.parse_errors - before_err,
                    }
                )

        # output texts are UTF-8 bytes; cast binary -> string validates UTF-8
        # at C speed (inputs are Arrow strings, so this cannot fail for them;
        # entity decode only emits valid UTF-8 scalars)
        text_arr = pa.array(o_text, type=pa.binary()).cast(pa.string())
        struct_arr = pa.StructArray.from_arrays(
            [
                pa.array(o_kind, type=pa.string()),
                text_arr,
                pa.array(o_media, type=pa.string()),
                pa.array(o_off, type=pa.int32()),
            ],
            fields=list(SPAN_STRUCT),
        )
        spans_out = pa.ListArray.from_arrays(
            pa.array(out_offsets, type=pa.int32()), struct_arr
        )
        cols = {"doc_id": doc_ids, "spans_out": spans_out}
        if self.emit_metrics:
            cols["metrics"] = pa.array(metrics, type=METRICS_STRUCT)
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
