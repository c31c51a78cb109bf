"""Attribute parsing parity tests (functional analog of attr_inline.zig)."""

from __future__ import annotations

from html_parser_ray import parse_html


def test_attr_basic_and_fast_paths():
    # ref: src/html/document.zig:1479-1494
    doc = parse_html(
        "<a id='x' class='btn primary' href='https://example.com' data-k='v'></a>"
    )
    a = doc.query_one("a")
    assert doc.get_attr(a, b"id") == b"x"
    assert doc.get_attr(a, b"class") == b"btn primary"
    assert doc.get_attr(a, b"href") == b"https://example.com"
    assert doc.get_attr(a, b"data-k") == b"v"
    assert doc.get_attr(a, b"missing") is None


def test_empty_assignment_and_boolean():
    # ref: src/html/document.zig:1212-1231 — "a=" with nothing is name-only
    doc = parse_html("<div id='x' b a=   ></div>")
    node = doc.query_one("#x")
    assert doc.get_attr(node, b"a") == b""
    assert doc.get_attr(node, b"b") == b""
    assert doc.get_attr(node, b"c") is None
    assert doc.query_one("div[a]") is not None
    assert doc.query_one("div[b]") is not None
    assert doc.query_one("div[c]") is None


def test_attr_value_entity_decode():
    # ref: src/html/document.zig:1150-1164, 1233-1248
    doc = parse_html("<div id='x' q='&amp;z' n=a&amp;b data-v='a&amp;b'></div>")
    node = doc.query_one("#x")
    assert doc.get_attr(node, b"q") == b"&z"
    assert doc.get_attr(node, b"n") == b"a&b"
    assert doc.get_attr(node, b"data-v") == b"a&b"
    assert doc.query_one("div[q='&z'][n='a&b']") is not None


def test_long_entity_heavy_value():
    # ref: src/html/document.zig:1286-1316 (320 x &amp;)
    html = "<div id='x' a='" + "&amp;" * 320 + "' b='ok'></div>"
    doc = parse_html(html)
    node = doc.query_one("#x")
    a = doc.get_attr(node, b"a")
    assert a == b"&" * 320
    assert doc.get_attr(node, b"b") == b"ok"


def test_quoted_gt_and_self_closing_tails():
    # ref: src/html/document.zig:1682-1695
    doc = parse_html(
        "<div id='a' data-q='x>y' data-n=abc></div><img id='i' src='x' /><br id='b'>",
        drop_whitespace_text=True,
    )
    assert doc.query_one("div#a[data-q='x>y']") is not None
    assert doc.query_one("img#i[src='x']") is not None
    assert doc.query_one("br#b") is not None


def test_naked_value_stops_at_slash():
    # quirk: unquoted value terminates at '/' and the scan then stops at it
    # (ref: src/html/attr_inline.zig:323-327, 92)
    doc = parse_html("<a id='x' href=http://e.com data-later='y'></a>")
    a = doc.query_one("a")
    assert doc.get_attr(a, b"href") == b"http:"
    # scan stopped at '/', later attributes are unreachable
    assert doc.get_attr(a, b"data-later") is None


def test_duplicate_attr_first_wins():
    doc = parse_html("<div id='x' k='1' k='2'></div>")
    assert doc.get_attr(doc.query_one("#x"), b"k") == b"1"


def test_attr_name_case_insensitive():
    doc = parse_html("<div ID='x' DATA-K='v'></div>")
    node = doc.query_one("div")
    assert doc.get_attr(node, b"id") == b"x"
    assert doc.get_attr(node, b"Id") == b"x"
    assert doc.get_attr(node, b"data-k") == b"v"


def test_unterminated_quote_runs_to_tag_region_end():
    doc = parse_html("<div id='x' a='unterminated>ok</div>")
    # quote-aware scan: the '>' inside the quote is skipped, so the tag never
    # terminates and the attr region extends to EOF
    node = doc.query_one("div")
    assert node is not None
    assert doc.get_attr(node, b"a") == b"unterminated>ok</div>"


def test_whitespace_after_eq():
    doc = parse_html("<div id='x' a=  v1 b =c></div>")
    node = doc.query_one("#x")
    assert doc.get_attr(node, b"a") == b"v1"
    # 'b' followed by space is boolean; '=c' then parses as garbage + 'c' attr
    assert doc.get_attr(node, b"b") == b""


def test_get_attr_value_agrees_with_collected_attrs():
    """The single-attribute lookup ``get_attr_value`` (attr_inline.zig
    getAttrValue) answers, for every name, what the all-attributes pass
    ``collect_attrs`` holds for it, over the quirk fixtures above: entity
    decoding, boolean and empty values, first-wins duplicates, ASCII
    case-insensitive names, the naked value stopping at '/' and an
    unterminated quote."""
    from html_parser_ray.html.attrs import collect_attrs, get_attr_value

    sources = [
        "<a id='x' class='btn primary' href='https://example.com' data-k='v'></a>",
        "<div id='x' b a=   ></div>",
        "<div id='x' q='&amp;z' n=a&amp;b data-v='a&amp;b'></div>",
        "<div id='x' k='1' k='2'></div>",
        "<div ID='x' DATA-K='v'></div>",
        "<a id='x' href=http://e.com data-later='y'></a>",
        "<div id='x' a='unterminated>ok</div>",
    ]
    for html in sources:
        doc = parse_html(html)
        node = doc.query_one("#x")
        start, end = doc.name_end[node], doc.attr_end[node]
        attrs = collect_attrs(doc.source, start, end)
        names = set(attrs) | {b"missing", b"data-later"}
        for name in names:
            for asked in (name, name.upper()):
                got = get_attr_value(doc.source, start, end, asked)
                assert got == attrs.get(name), (html, asked)
