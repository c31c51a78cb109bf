"""Per-document span extraction, the DOM oracle: interleaved input spans ->
ordered output spans.

Input row shape (BASELINE.json input_hint):
``doc_id: str, spans: list[{kind, text, media_ref, offset}]`` with
``kind in {"text", "html", "media"}``.

Output row: ``doc_id, spans_out: list[{kind, text, media_ref, offset}]`` where
- ``text`` spans pass through with whitespace-normalized text;
- ``html`` spans tokenize + parse (``parse_html``) + boilerplate-strip
  (``extract_text_blocks``) into one output span per kept text block, text
  equal to the reference-semantics normalized innerText;
- ``media`` spans route through the layout branch and pass their media_ref
  through with layout metadata as text: ``layout_jsons`` probes one LRU memo
  for a batch's refs and decodes its misses in ``LayoutParser.layout_jsons``
  calls of at most ``LAYOUT_DECODE_CHUNK`` refs (one native PDF call each).

Output ``offset`` renumbers 0..k-1 in document order (input order of spans,
block order within an html span) — the per-row invariant the north rule pins.
The extraction is one fixed spec: ``parse_html``'s default profile (every
text run kept, whitespace-only runs included) and ``boilerplate.py``'s
tables and thresholds. The batch stage (``stages/extract_stage.py``) runs
the native HTML kernel and must equal this extractor span for span.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from html_parser_ray.extract.boilerplate import extract_text_blocks
from html_parser_ray.extract.layout import LayoutParser
from html_parser_ray.html.document import parse_html
from html_parser_ray.html.text import normalize_bytes

# refs the layout memo holds; past it the least recently used is evicted
LAYOUT_MEMO_CAP = 1 << 16
# refs per LayoutParser.layout_jsons call: the fetched payloads, the joined
# blob and the PDF text scratch of one call stay this many refs' worth
LAYOUT_DECODE_CHUNK = 1024


def dom_blocks(src: bytes) -> "tuple[list[bytes], int]":
    """One html span through the DOM: its text blocks and its parse error
    count, ``([], 1)`` when the parser raises. The oracle's html arm and
    the batch stage's DOM kernel both extract through this."""
    try:
        return extract_text_blocks(parse_html(src)), 0
    except Exception:
        return [], 1


@dataclass
class ExtractStats:
    # ExtractSpansBatch calls: docs / batches is the rows per batch
    batches: int = 0
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
    # layout memo: refs served from it, refs decoded, refs evicted past
    # LAYOUT_MEMO_CAP, and decoded PDF refs the native kernel declined
    # (parsed in Python)
    layout_hits: int = 0
    layout_decodes: int = 0
    layout_evictions: int = 0
    layout_native_declined: int = 0


class SpanExtractor:
    """Stateful per-document extractor: the layout parser and its memo live
    as long as the object. In the pipeline that is one run in one worker
    process: the extract stage that holds it is built once per process per
    run (ref analog: §2.5 stateful stage). HTML always goes through the DOM;
    the native kernel runs only in the batch stage, which holds one of these
    for its stats and layout memo.

    ``use_fused`` does nothing: it is accepted only because the benchmark's
    oracle (``perfbench/checks.py``) still passes it."""

    def __init__(
        self,
        layout_model: str = "layout-stub-v0",
        use_fused: bool = True,
        layout_memo: bool = True,
    ) -> None:
        self.layout = LayoutParser(layout_model)
        # the one cross-batch layout memo: ref -> layout JSON, LRU-bounded.
        # Refs repeat across a corpus, and a hit skips the decode and the
        # JSON encoding. layout_memo=False decodes every call (the oracle).
        self._layout_memo: "OrderedDict[str, bytes] | None" = (
            OrderedDict() if layout_memo else None
        )
        self.stats = ExtractStats()

    def layout_jsons(self, refs: "list[str]") -> "list[bytes]":
        """Each ref's layout metadata as sorted-key UTF-8 JSON, in order.

        Probe all, then insert: every ref is looked up in the memo first,
        and each hit moves to the most recent end in ``refs`` order. The
        misses (each distinct ref once) are then decoded in order, in
        ``self.layout.layout_jsons`` calls of at most
        ``LAYOUT_DECODE_CHUNK`` refs, looked up per call so a wrapper set on
        the instance after construction sees every decode, and inserted in
        ``refs`` order; past ``LAYOUT_MEMO_CAP`` the least recently used
        refs are evicted, which may include refs of this very call. Without
        the memo every ref is decoded."""
        st = self.stats
        memo = self._layout_memo
        if memo is None:
            out, declined = self._decode(refs)
            st.layout_decodes += len(refs)
        else:
            out = []
            misses = {}
            for r in refs:
                got = memo.get(r)
                if got is None:
                    misses[r] = None
                else:
                    memo.move_to_end(r)
                out.append(got)
            declined = 0
            if misses:
                decoded, declined = self._decode(list(misses))
                memo.update(zip(misses, decoded))
                out = [memo[r] if got is None else got for r, got in zip(refs, out)]
                while len(memo) > LAYOUT_MEMO_CAP:
                    memo.popitem(last=False)
                    st.layout_evictions += 1
            st.layout_hits += len(refs) - len(misses)
            st.layout_decodes += len(misses)
        st.layout_native_declined += declined
        return out

    def _decode(self, refs: "list[str]") -> "tuple[list[bytes], int]":
        """``self.layout.layout_jsons(refs)`` in calls of at most
        ``LAYOUT_DECODE_CHUNK`` refs, joined."""
        out: "list[bytes]" = []
        declined = 0
        for lo in range(0, len(refs), LAYOUT_DECODE_CHUNK):
            part, d = self.layout.layout_jsons(refs[lo : lo + LAYOUT_DECODE_CHUNK])
            out += part
            declined += d
        return out, declined

    def extract_document(self, spans: list[dict]) -> list[dict]:
        """Ordered output span list for one document's input span list.

        Text is handled as UTF-8 bytes throughout and decoded once per output
        span. An html span the parser raises on emits no blocks and counts
        in ``stats.parse_errors``; unknown kinds are dropped."""
        spans = spans or []
        st = self.stats
        st.docs += 1
        st.spans_in += len(spans)
        out: "list[tuple[str, bytes, str]]" = []
        for s in spans:
            kind = s["kind"]
            if kind == "text":
                norm = normalize_bytes((s.get("text") or "").encode("utf-8"))
                if norm:
                    out.append(("text", norm, ""))
            elif kind == "html":
                raw = (s.get("text") or "").encode("utf-8")
                st.html_bytes += len(raw)
                blocks, errors = dom_blocks(raw)
                st.parse_errors += errors
                out.extend(("text", blk, "") for blk in blocks)
            elif kind == "media":
                ref = s.get("media_ref") or ""
                out.append(("media", self.layout_jsons([ref])[0], ref))
        st.spans_out += len(out)
        return [
            {"kind": k, "text": t.decode("utf-8", "replace"), "media_ref": m, "offset": i}
            for i, (k, t, m) in enumerate(out)
        ]
