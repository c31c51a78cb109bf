"""PDF / layout-parse branch for media spans.

Round 3: the DECODE is real — ``parse`` resolves the ref's payload and runs
the byte-level PDF layout parser (``functions.pdfcodec.parse_pdf``: object
table, FlateDecode streams, Td/Tf/Tj/TJ/re operator tokenizer), emitting page
count, text-span/rect counts, character volume and a text fingerprint. What
remains stubbed is only the blob FETCH: this container has no object store,
so ``media://pdf/...`` refs resolve through the deterministic synthesizer
(``pdfcodec.synth_pdf``) — swap ``_fetch`` for a real store client without
touching the parse. Non-PDF refs keep the legacy keyed-hash metadata (stable
output for corpora that predate the real branch).
"""

from __future__ import annotations

import hashlib

PDF_REF_PREFIX = "media://pdf/"


class LayoutParser:
    """Load-once layout parser state (classic actor-pool ``__init__`` state).

    ``model_name`` stands in for a model checkpoint path; construction is the
    expensive step a map_batches actor performs once. A pure decoder: every
    ``parse`` decodes (``SpanExtractor.layout_json`` owns the memo).
    """

    def __init__(
        self,
        model_name: str = "layout-stub-v0",
        pdf_decode: bool = True,
    ) -> None:
        self.model_name = model_name
        # pdf_decode=False forces the legacy keyed-hash metadata for ALL
        # refs — the bench's r2-comparable html-only extraction mode
        self.pdf_decode = pdf_decode
        self._key = hashlib.sha256(model_name.encode()).digest()[:8]
        # optional native summary kernel (pdf_summary.c): handles the
        # well-formed fast path; None or a per-call None falls through to
        # the pure parser, which owns all semantics and error messages
        self._native = None
        if pdf_decode:
            from html_parser_ray.native import get_native_pdf_summary

            self._native = get_native_pdf_summary()

    def _fetch(self, media_ref: str) -> bytes:
        """Blob fetch — the only stubbed step (no object store in-sandbox):
        deterministic synthetic PDF bytes per ref."""
        from html_parser_ray.functions.pdfcodec import synth_pdf

        return synth_pdf(media_ref)

    def parse(self, media_ref: str) -> dict:
        """Layout metadata for ``media_ref``; REAL byte-level PDF parse for
        PDF refs, legacy keyed-hash metadata otherwise."""
        if self.pdf_decode and media_ref.startswith(PDF_REF_PREFIX):
            from html_parser_ray.functions.pdfcodec import PdfError, parse_pdf

            payload = self._fetch(media_ref)
            if self._native is not None:
                ns = self._native(payload)
                if ns is not None:
                    num_pages, raw_spans, n_rects = ns
                    # per-span decode, exactly like the pure path's
                    # per-string decode("utf-8", "replace") before the join
                    span_texts = [
                        b.decode("utf-8", "replace") for b in raw_spans
                    ]
                    all_text = "\n".join(span_texts)
                    return {
                        "media_ref": media_ref,
                        "layout_model": self.model_name,
                        "layout_fingerprint": hashlib.md5(
                            all_text.encode("utf-8")
                        ).hexdigest()[:16],
                        "num_pages": num_pages,
                        "n_text_spans": len(raw_spans),
                        "n_rects": n_rects,
                        "text_chars": len(all_text),
                    }
            try:
                doc = parse_pdf(payload)
            except PdfError as e:
                return {
                    "media_ref": media_ref,
                    "layout_model": self.model_name,
                    "layout_error": str(e),
                    "num_pages": 0,
                }
            texts = [t for pg in doc["pages"] for t in pg["texts"]]
            all_text = "\n".join(t[3] for t in texts)
            return {
                "media_ref": media_ref,
                "layout_model": self.model_name,
                "layout_fingerprint": hashlib.md5(
                    all_text.encode("utf-8")
                ).hexdigest()[:16],
                "num_pages": doc["num_pages"],
                "n_text_spans": len(texts),
                "n_rects": sum(len(pg["rects"]) for pg in doc["pages"]),
                "text_chars": len(all_text),
            }
        h = hashlib.sha256(self._key + media_ref.encode()).hexdigest()
        return {
            "media_ref": media_ref,
            "layout_model": self.model_name,
            "layout_fingerprint": h[:16],
            "num_pages": (int(h[:4], 16) % 32) + 1,
        }
