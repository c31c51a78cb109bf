"""Property-based extraction parity: DOM walk == native C, over adversarial
byte blobs (arbitrary binary + html-ish soup). Without a compiler there is
only the DOM path and these tests skip.

A 4000-example offline run passed clean; the committed budget keeps the
suite fast while still exploring fresh inputs every run (hypothesis derives
examples from a stored database plus randomization).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from html_parser_ray.extract.boilerplate import ExtractConfig, extract_text_blocks
from html_parser_ray.html.document import parse_html
from html_parser_ray.native import get_native_extractor

_NAT = get_native_extractor()
_CFG = ExtractConfig()
pytestmark = pytest.mark.skipif(
    _NAT is None, reason="native extractor unavailable (no compiler)"
)

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
    dom = extract_text_blocks(parse_html(data), _CFG)
    assert _NAT(data) == dom, data


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
        for dw in (False, True):
            dom = extract_text_blocks(parse_html(data, dw), _CFG)
            assert _NAT(data, dw) == dom, (data, dw)


@settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
@given(_BLOB)
def test_three_way_parity_drop_whitespace(data: bytes):
    dom = extract_text_blocks(parse_html(data, True), _CFG)
    assert _NAT(data, True) == dom, data
