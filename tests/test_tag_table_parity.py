"""Systematic per-tag parity: every tag that ANY classification table
mentions (flags, drop, block, implicit-close) is driven through the DOM and
native paths in several structural contexts; the native kernel is called
through its one batch entry point (``tests/_native_kernel.py``), one
document per call (skipped without a compiler, when the DOM path is the
only one).

Rationale: the round-2 review found the native kernel misclassifying
<address> as a block tag — a divergence that survived 1600+ fuzz cases
because the fuzz vocabulary didn't include the tag. Enumerating the tables
makes every classified tag's behavior a deterministic test case.
"""

from __future__ import annotations

import pytest

from _native_kernel import native_blocks, needs_kernel
from html_parser_ray.extract.boilerplate import (
    BLOCK_TAGS,
    DROP_CLASS_SUBSTRINGS,
    DROP_CLASS_TOKENS,
    DROP_TAGS,
    extract_text_blocks,
)
from html_parser_ray.html import tags
from html_parser_ray.html.document import parse_html

pytestmark = needs_kernel

ALL_TAGS = sorted(
    set(tags.TAG_FLAGS)
    | set(tags.IMPLICIT_CLOSERS)
    | BLOCK_TAGS
    | DROP_TAGS
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
        dom = extract_text_blocks(parse_html(src))
        assert native_blocks(src) == dom, (tag, tmpl)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=lambda t: t.decode())
def test_every_classified_tag_parity_drop_ws(tag):
    """Each tag between whitespace-only text runs, which the extraction
    keeps: the kernel emits them into the same blocks as the DOM."""
    src = b"<div>\n  <%s>\n  x\n  </%s>\n</div>" % (tag, tag)
    assert native_blocks(src) == extract_text_blocks(parse_html(src)), tag


MARKER_TEMPLATES = [
    b"<div class='%s'><p>marked</p></div><p>kept</p>",
    b"<div id='%s'>marked</div><p>kept</p>",
    b"<p class='x-%s-y'>in a word</p><p>kept</p>",
    b"<p class='lead %s tail'>a token</p><p>kept</p>",
    b"<p CLASS='%s'>upper</p><p>kept</p>",
]


@pytest.mark.parametrize(
    "marker", DROP_CLASS_SUBSTRINGS + DROP_CLASS_TOKENS, ids=lambda m: m.decode()
)
def test_every_class_marker_parity(marker):
    """Each class/id marker of boilerplate.py's tables, as a whole value,
    inside a longer word and as one token of several, drops the same
    blocks in the DOM and in the kernel (which compiles its own copy of
    the tables)."""
    for tmpl in MARKER_TEMPLATES:
        for m in (marker, marker.upper()):
            src = tmpl % m
            dom = extract_text_blocks(parse_html(src))
            assert native_blocks(src) == dom, (marker, tmpl, m)
