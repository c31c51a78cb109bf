"""The native single-pass kernel must be byte-identical to parse+walk.

The DOM path (parse_html -> extract_text_blocks) is the oracle; the native
kernel, called through its one batch entry point (``tests/_native_kernel.py``),
is the hot-path twin. Any divergence on any corpus family or edge-case
fixture is a bug in the kernel's state machine. The threshold boundaries
(``MAX_LINK_DENSITY``, ``MIN_TEXT_LEN``) and the keeping of whitespace-only
text runs are pinned to exact outputs on both.
"""

from __future__ import annotations

import random

import pytest

from _native_kernel import native_blocks
from html_parser_ray.extract.boilerplate import extract_text_blocks
from html_parser_ray.html.document import parse_html
from html_parser_ray.sources import corpus as corpus_mod

EDGE_CASES = [
    b"",
    b"plain text only",
    b"<p>one<p>two<p>three",
    b"<div id='a'><span id='b'>x</div><p id='c'>tail",
    b"<ul><li>one<li>two<li>three</ul>after",
    b"<div<div>weird</div>",
    b"< div>space name</div>",
    b"<p>before<script>var x = 1 < 2;</script>after</p>",
    b"<style>.x { color: red; }</style><p>kept</p>",
    b"<textarea>raw <b> content</textarea>",
    b"<title>dropped title</title><p>body</p>",
    b"<svg viewBox='0 0 1 1'><rect/><svg><circle/></svg></svg><p>after</p>",
    b"<svg attr='<svg bait'>content</svg><p>x</p>",
    b"<plaintext><div>everything raw",
    b"<p>unterminated <",
    b"<!-- comment --><p>x</p><!-->short<p>y</p>",
    b"<!doctype html><?pi data?><p>z</p>",
    b"<table><tr><td>a<td>b<tr><td>c</table>",
    b"<p>A <b></b>   B</p>",
    b"<p>&amp; &lt;x&gt; &#x41;&#66; &quot;q&quot;</p>",
    b"<a href='/x'>link text</a> free text",
    b"<div class='sidebar'><p>hidden</p></div><p>shown</p>",
    b"<div class='nav'><a href='/'>h</a></div><main><p>content</p></main>",
    b"<div id='advert-block'><p>ad</p></div><p>real</p>",
    b"<head><title>t</title></head><body><p>b</p></body>",
    b"<p>text</p></div></p></span><p>more</p>",
    b"<article><header><h1>t</h1></header><p>body text here</p></article>",
    b"<form><input name='q'><button>go</button></form><p>after form</p>",
    b"<div>bare text <p>in p</p> more bare</div>",
    b"<a href='x'><div>block in link</div></a>",
    b"text<br>more<hr>end",
    b"<option>a<option>b</select>",
    b"<li>loose li outside list",
    b"<DIV CLASS='SideBar'><P>upper</P></DIV><P>low</P>",
    b"<script>no close tag ever",
    b"<svg>no close either",
    b"<p>a</p\t ><p>b</p>",
    b"<head>x<body>y",
    b"<a href='1'>one</a><a href='2'>two</a><p>t</p>",
    b"<div>intro<address>123 Main St</address>tail</div>",
    b"<div class='" + b"x" * 4200 + b" sidebar'>hidden</div><p>keep</p>",
    b"<div class='" + b"x" * 4200 + b"'>kept-long-class</div>",
]


def _dom_blocks(src: bytes) -> "list[bytes]":
    return extract_text_blocks(parse_html(src))


@pytest.mark.parametrize("case_idx", range(len(EDGE_CASES)))
def test_edge_case_parity(case_idx):
    src = EDGE_CASES[case_idx]
    assert native_blocks(src) == _dom_blocks(src), case_idx


# (html, its exact blocks). At the edges of the two thresholds: a block is
# kept when its link text is at most MAX_LINK_DENSITY of its text and it is
# at least MIN_TEXT_LEN bytes long.
EXACT_CASES = [
    # link density exactly 0.5 (2/4) is kept
    (b"<p><a href=x>ab</a>cd</p>", [b"abcd"]),
    # 50/99 is dropped, 49/100 kept
    (b"<p><a href=x>" + b"l" * 50 + b"</a>" + b"t" * 49 + b"</p><p>z</p>", [b"z"]),
    (
        b"<p><a href=x>" + b"l" * 49 + b"</a>" + b"t" * 51 + b"</p>",
        [b"l" * 49 + b"t" * 51],
    ),
    # a block that normalizes to nothing is dropped, a 1-byte block kept
    (b"<p> \n\t </p><p>x</p>", [b"x"]),
    # a block all of whose text is link text is dropped
    (b"<p><a href=x>nav</a></p><p>body</p>", [b"body"]),
    # a whitespace-only run between inline elements is text
    (b"<p><b>a</b> <i>b</i></p>", [b"a b"]),
]


@pytest.mark.parametrize("case_idx", range(len(EXACT_CASES)))
def test_exact_blocks(case_idx):
    src, want = EXACT_CASES[case_idx]
    assert _dom_blocks(src) == want
    assert native_blocks(src) == want


@pytest.mark.parametrize("fam_idx", range(len(corpus_mod._HTML_FAMILIES)))
def test_corpus_family_parity(fam_idx):
    fam = corpus_mod._HTML_FAMILIES[fam_idx]
    for seed in range(40):
        rng = random.Random((fam_idx << 16) ^ seed)
        src = fam(rng).encode("utf-8")
        assert native_blocks(src) == _dom_blocks(src), (
            fam_idx,
            seed,
        )


def test_random_soup_parity():
    """Fuzz: random tag soup must never diverge."""
    pieces = [
        "<div>", "</div>", "<p>", "</p>", "<li>", "</ul>", "<ul>", "<span>",
        "</span>", "<a href='x'>", "</a>", "text ", "&amp; ", "  ", "<br>",
        "<script>s</script>", "<!-- c -->", "<b", ">", "<", "</crazy>",
        "<table>", "<tr>", "<td>", "cell", "<img src='i'>",
        "<div class='menu'>", "<aside>", "</aside>", "\n\t",
    ]
    for seed in range(200):
        rng = random.Random(seed)
        src = "".join(
            rng.choice(pieces) for _ in range(rng.randint(1, 60))
        ).encode("utf-8")
        assert native_blocks(src) == _dom_blocks(src), (seed, src)
