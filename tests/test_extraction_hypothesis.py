"""Property-based extraction parity: DOM walk == native C, over adversarial
byte blobs (arbitrary binary + html-ish soup), one blob per kernel call and
several blobs in one call (the kernel is called through its one batch entry
point, ``tests/_native_kernel.py``). Without a compiler there is only the
DOM path and these tests skip.

A 4000-example offline run passed clean; the committed budget keeps the
suite fast while still exploring fresh inputs every run (hypothesis derives
examples from a stored database plus randomization).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _native_kernel import native_batch, native_blocks, needs_kernel
from html_parser_ray.extract.boilerplate import extract_text_blocks
from html_parser_ray.html.document import parse_html

pytestmark = needs_kernel

_FRAGMENTS = st.sampled_from(
    [
        b"<div>", b"</div>", b"<p class='a b'>", b"<a href=x>", b"</a>",
        b"<br/>", b"< ", b"<<", b">>", b"&", b"&#", b"&#x", b";", b"&amp;",
        b"<script>", b"</script>", b"<svg>", b"</svg>", b"<!--", b"-->",
        b"<!", b"<?", b"?>", b"text", b" ", b"\n", b"\x00", b"\xff",
        b"<option>", b"<head>", b"<body>", b"<td>", b"<tr>", b"='v'",
        b'="q"', b"<textarea>", b"<plaintext>", b"<li>", b"<DIV", b"/>",
        b"<address>", b"</address>", b"<caption>",
        b"<div class='" + b"y" * 64 + b" sidebar'>", b"<p id=", b"sidebar",
        b"'",
        # r5 soak additions: quote-in-name and closing-tag bait (the shapes
        # that exposed the fused-tag backtracking divergence)
        b"<v'", b"<a'b>", b"</div x='>'>", b"</v'", b"</ div>", b"</>",
        b'"', b"=", b"</li", b"<li'x'>",
    ]
)
_SOUP = st.lists(_FRAGMENTS, min_size=0, max_size=40).map(b"".join)
_BLOB = st.one_of(
    st.binary(max_size=300),
    _SOUP,
    st.tuples(_SOUP, st.binary(max_size=80)).map(lambda t: t[0] + t[1]),
)


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(_BLOB)
def test_three_way_parity(data: bytes):
    dom = extract_text_blocks(parse_html(data))
    assert native_blocks(data) == dom, data


@settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.lists(_BLOB, min_size=1, max_size=8))
def test_multi_document_batch_parity(docs: "list[bytes]"):
    """One kernel call over 1-8 blobs: each document's blocks, split by the
    kernel's per-document counts, equal its own DOM blocks (scratch reused
    across documents, blocks written at running offsets)."""
    dom = [extract_text_blocks(parse_html(d)) for d in docs]
    assert native_batch(docs) == dom, docs


def test_atomic_name_parity_regressions():
    """r5 soak finding (100k seeded soup cases): the fused-tag regex's
    BACKTRACKING name group could re-split ``<v' <>'>`` as name=``v`` +
    quoted attr ``' <>'``, moving the tag end (and on ``<li'x'>`` the tag
    identity) vs the reference's maximal-munch TagNameCharTable scan
    (src/html/parser.zig:142). The name group is atomic now; these inputs
    pin DOM == native on the exact divergence shapes."""
    cases = [
        b"<v' <>'>",
        b"<li'x'>item</li>",
        b"<div'foo'>t</div>",
        b"<p id=<br/>'/><textarea></address>;text",
        b"<a b=\"x>",
        b"<a b=\"x\" c='y>",
    ]
    for data in cases:
        assert native_blocks(data) == extract_text_blocks(parse_html(data)), data
