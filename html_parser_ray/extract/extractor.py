"""Per-document span extraction: interleaved input spans -> ordered output spans.

Input row shape (BASELINE.json input_hint):
``doc_id: str, spans: list[{kind, text, media_ref, offset}]`` with
``kind in {"text", "html", "media"}``.

Output row: ``doc_id, spans_out: list[{kind, text, media_ref, offset}]`` where
- ``text`` spans pass through with whitespace-normalized text;
- ``html`` spans tokenize + parse + boilerplate-strip into one output span per
  kept text block, text equal to the reference-semantics normalized innerText;
- ``media`` spans route through the layout branch (stubbed) and pass their
  media_ref through with layout metadata as text.

Output ``offset`` renumbers 0..k-1 in document order (input order of spans,
block order within an html span) — the per-row invariant the north rule pins.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import json

from html_parser_ray.extract.boilerplate import ExtractConfig, extract_text_blocks
from html_parser_ray.extract.layout import LayoutParser
from html_parser_ray.html.document import parse_html
from html_parser_ray.html.text import normalize_bytes

# refs the layout memo holds; past it the least recently used is evicted
LAYOUT_MEMO_CAP = 1 << 16


@dataclass
class ExtractStats:
    docs: int = 0
    spans_in: int = 0
    spans_out: int = 0
    html_bytes: int = 0
    parse_errors: int = 0
    # batches the native kernel declined (extracted on the DOM path instead)
    # or that were split in half because their output overflowed Arrow's
    # int32 offsets: each is a slower path than the one chosen, so each is
    # counted
    native_fallbacks: int = 0


class SpanExtractor:
    """Stateful per-document extractor: selector cache, heuristic config, the
    layout parser and its memo live for the actor's lifetime (ref analog:
    cached-selector API src/html/document.zig:366-368 + §2.5 actor state)."""

    def __init__(
        self,
        config: ExtractConfig | None = None,
        layout_model: str = "layout-stub-v0",
        drop_whitespace_text: bool = False,
        use_fused: bool = True,
        layout_memo: bool = True,
    ) -> None:
        self.config = config or ExtractConfig()
        self.layout = LayoutParser(layout_model)
        # the one cross-batch layout memo: ref -> layout JSON, LRU-bounded.
        # Refs repeat across a corpus, and a hit skips the decode and the
        # JSON encoding. layout_memo=False decodes every call (the oracle).
        self._layout_memo: "OrderedDict[str, bytes] | None" = (
            OrderedDict() if layout_memo else None
        )
        self.drop_whitespace_text = drop_whitespace_text
        # ``use_fused``: the native kernel if available. It takes the two
        # scalar thresholds; other drop_tags or class markers, a missing
        # compiler and ``use_fused=False`` all run the DOM oracle path
        # (byte parity pinned by tests/test_native_parity.py)
        self._native = None
        cfg = self.config
        scalars_only = cfg == ExtractConfig(
            max_link_density=cfg.max_link_density, min_text_len=cfg.min_text_len
        )
        if use_fused and scalars_only:
            from html_parser_ray.native import get_native_extractor

            self._native = get_native_extractor()
        self.stats = ExtractStats()

    def layout_json(self, ref: str) -> bytes:
        """``ref``'s layout metadata as sorted-key UTF-8 JSON. A memo miss
        decodes through ``self.layout.parse``, looked up per call so a
        wrapper set on the instance after construction sees every decode."""
        memo = self._layout_memo
        if memo is not None:
            hit = memo.get(ref)
            if hit is not None:
                memo.move_to_end(ref)
                return hit
        out = json.dumps(self.layout.parse(ref), sort_keys=True).encode("utf-8")
        if memo is not None:
            memo[ref] = out
            if len(memo) > LAYOUT_MEMO_CAP:
                memo.popitem(last=False)
        return out

    def extract_columns(
        self, kinds: list[str], texts: list[bytes], media_refs: list[str]
    ) -> tuple[list[str], list[bytes], list[str], list[int]]:
        """Columnar fast path: one document's parallel input span columns in,
        parallel output columns (kind, text_bytes, media_ref, offset) out.

        ``texts`` are UTF-8 BYTES (Arrow's native string representation cast
        to binary upstream) — the engine is byte-oriented throughout, so no
        str round-trip happens on the hot path. Output texts are UTF-8 bytes
        too; the batch stage casts back to an Arrow string column.
        """
        st = self.stats
        st.docs += 1
        st.spans_in += len(kinds)
        o_kind: list[str] = []
        o_text: list[bytes] = []
        o_media: list[str] = []
        for kind, text, media_ref in zip(kinds, texts, media_refs):
            if kind == "text":
                norm = normalize_bytes(text or b"")
                if norm:
                    o_kind.append("text")
                    o_text.append(norm)
                    o_media.append("")
            elif kind == "html":
                raw = text or b""
                st.html_bytes += len(raw)
                try:
                    blocks = None
                    if self._native is not None:
                        blocks = self._native(
                            raw,
                            self.drop_whitespace_text,
                            self.config.max_link_density,
                            self.config.min_text_len,
                        )
                    if blocks is None:
                        doc = parse_html(raw, self.drop_whitespace_text)
                        blocks = extract_text_blocks(doc, self.config)
                except Exception:
                    st.parse_errors += 1
                    blocks = []
                for blk in blocks:
                    o_kind.append("text")
                    o_text.append(blk)
                    o_media.append("")
            elif kind == "media":
                ref = media_ref or ""
                o_kind.append("media")
                o_text.append(self.layout_json(ref))
                o_media.append(ref)
            # unknown kinds are dropped deterministically
        st.spans_out += len(o_kind)
        return o_kind, o_text, o_media, list(range(len(o_kind)))

    def extract_document(self, spans: list[dict]) -> list[dict]:
        """Ordered output span list for one document's input span list
        (row-oriented convenience wrapper over the columnar path)."""
        spans = spans or []
        k, t, m, o = self.extract_columns(
            [s["kind"] for s in spans],
            [(s.get("text") or "").encode("utf-8") for s in spans],
            [s.get("media_ref") or "" for s in spans],
        )
        return [
            {"kind": kk, "text": tt.decode("utf-8", "replace"), "media_ref": mm, "offset": oo}
            for kk, tt, mm, oo in zip(k, t, m, o)
        ]
