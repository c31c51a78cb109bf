"""The fused single-pass extractor must equal the obviously-correct unfused
form (drop mask + link mask + per-text parent walk) on arbitrary input."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from html_parser_ray import parse_html
from html_parser_ray.extract.boilerplate import (
    BLOCK_TAGS,
    LINK_TAG,
    MAX_LINK_DENSITY,
    MIN_TEXT_LEN,
    _link_mask,
    compute_drop_mask,
    extract_text_blocks,
)
from html_parser_ray.html.text import NormState, decode_normalize_segment
from html_parser_ray.html.tokenizer import KIND_ELEMENT, KIND_TEXT


def unfused_extract(doc) -> list[bytes]:
    """Slow reference implementation: independent masks + parent walks."""
    n = len(doc.kind)
    if n <= 1:
        return []
    drop = compute_drop_mask(doc)
    link = _link_mask(doc)
    order, texts = [], {}
    for i in range(1, n):
        if doc.kind[i] != KIND_TEXT or drop[i]:
            continue
        a = doc.parent[i]
        owner = 0
        while a != 0 and a != 0xFFFFFFFF:
            if doc.kind[a] == KIND_ELEMENT and doc.name[a] in BLOCK_TAGS:
                owner = a
                break
            a = doc.parent[a]
        if owner not in texts:
            texts[owner] = []
            order.append(owner)
        texts[owner].append(i)
    blocks = []
    for owner in order:
        out, lout = bytearray(), bytearray()
        st_, lst = NormState(), NormState()
        for t in texts[owner]:
            seg = doc.source[doc.name_start[t] : doc.name_end[t]]
            decode_normalize_segment(out, seg, st_)
            if link[t]:
                decode_normalize_segment(lout, seg, lst)
        if len(out) < MIN_TEXT_LEN:
            continue
        if len(out) > 0 and len(lout) / len(out) > MAX_LINK_DENSITY:
            continue
        blocks.append(bytes(out))
    return blocks


_soup = st.text(
    alphabet=st.sampled_from(
        list("<>/=\"' abcdiv!-&;#navheader footer aside p li ul a href=x class=ad main\n\t")
    ),
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(_soup)
def test_fused_equals_unfused_fuzz(s):
    doc = parse_html(s)
    assert extract_text_blocks(doc) == unfused_extract(doc)


def test_fused_equals_unfused_structured():
    cases = [
        "<main><p>a</p><nav><a href='/'>x</a></nav><p>b</p></main>",
        "<div class='ad'><p>drop</p></div><p>keep</p>",
        "<table><tr><td>1</td><td><a href='x'>2</a></td></tr></table>",
        "<p>one</p><div><p>two</p><div class='sidebar'><p>three</p></div></div>",
        "bare text <b>inline</b> more",
        "<ul><li>a<li>b<li><a href='u'>c</a></ul>",
        "<article><p>x<svg><rect/></svg>y</p></article>",
    ]
    for s in cases:
        doc = parse_html(s)
        assert extract_text_blocks(doc) == unfused_extract(doc), s
