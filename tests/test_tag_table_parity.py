"""Systematic per-tag parity: every tag that ANY classification table
mentions (flags, drop, block, implicit-close) is driven through the DOM and
native paths in several structural contexts (skipped without a compiler,
when the DOM path is the only one).

Rationale: the round-2 review found the native kernel misclassifying
<address> as a block tag — a divergence that survived 1600+ fuzz cases
because the fuzz vocabulary didn't include the tag. Enumerating the tables
makes every classified tag's behavior a deterministic test case.
"""

from __future__ import annotations

import pytest

from html_parser_ray.extract.boilerplate import (
    BLOCK_TAGS,
    DEFAULT_DROP_TAGS,
    ExtractConfig,
    extract_text_blocks,
)
from html_parser_ray.html import tags
from html_parser_ray.html.document import parse_html
from html_parser_ray.native import get_native_extractor

_NAT = get_native_extractor()
_CFG = ExtractConfig()
pytestmark = pytest.mark.skipif(
    _NAT is None, reason="native extractor unavailable (no compiler)"
)

ALL_TAGS = sorted(
    set(tags.TAG_FLAGS)
    | set(tags.IMPLICIT_CLOSERS)
    | BLOCK_TAGS
    | DEFAULT_DROP_TAGS
    | {b"a", b"span", b"unknowntag", b"customelement"}
)

TEMPLATES = [
    b"<%s>inner text</%s>",
    b"<p>lead<%s>inner</%s>trail</p>",
    b"<div><%s>one<%s>two</div>",              # unclosed + repeated
    b"<%s class='sidebar'>marked</%s><p>kept</p>",
    b"<%s id='advert-x'>m</%s><p>k</p>",
    b"<a href='#'><%s>in link</%s></a><p>pad text</p>",
    b"<%s>",                                    # bare open at EOF
    b"<table><tr><td><%s>cell</%s></table>",
]


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.decode())
def test_every_classified_tag_parity(tag):
    for tmpl in TEMPLATES:
        n = tmpl.count(b"%s")
        src = tmpl % ((tag,) * n)
        dom = extract_text_blocks(parse_html(src), _CFG)
        assert _NAT(src) == dom, (tag, tmpl)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.decode())
def test_every_classified_tag_parity_drop_ws(tag):
    src = b"<div>\n  <%s>\n  x\n  </%s>\n</div>" % (tag, tag)
    dom = extract_text_blocks(parse_html(src, True), _CFG)
    assert _NAT(src, True) == dom, tag
