"""Native (C) extractor must be byte-identical to the DOM oracle
(``extract_text_blocks(parse_html(...))``), per document and through the
batch stage, for the default config and for every scalar-threshold variant.

Skips when the native path is unavailable (no system compiler) — the engine
then runs the DOM path everywhere, covered by the other suites.
"""

from __future__ import annotations

import random

import pyarrow as pa
import pytest

from html_parser_ray.extract.boilerplate import ExtractConfig, extract_text_blocks
from html_parser_ray.extract.extractor import SpanExtractor
from html_parser_ray.html.document import parse_html
from html_parser_ray.native import get_native_extractor
from html_parser_ray.sources import corpus as corpus_mod
from html_parser_ray.sources.corpus import SPAN_STRUCT
from html_parser_ray.stages.extract_stage import ExtractSpansBatch
from tests.test_fused_parity import EDGE_CASES

nat = get_native_extractor()
pytestmark = pytest.mark.skipif(
    nat is None, reason="native extractor unavailable (no compiler)"
)

# scalar-threshold variants the native kernel takes as arguments
SCALAR_CONFIGS = [
    ExtractConfig(max_link_density=0.0),
    ExtractConfig(max_link_density=0.1),
    ExtractConfig(max_link_density=1.0),
    ExtractConfig(min_text_len=0),
    ExtractConfig(min_text_len=5),
]


def dom(src: bytes, drop_ws: bool = False, cfg: ExtractConfig = ExtractConfig()):
    return extract_text_blocks(parse_html(src, drop_ws), cfg)


def _corpus_sources(per_family: int = 40) -> "list[bytes]":
    out = []
    for fi, fam in enumerate(corpus_mod._HTML_FAMILIES):
        for seed in range(per_family):
            out.append(fam(random.Random((fi << 16) ^ seed)).encode())
    return out


def test_edge_cases_parity():
    for src in EDGE_CASES:
        assert nat(src) == dom(src), src


def test_corpus_families_parity():
    for fi, fam in enumerate(corpus_mod._HTML_FAMILIES):
        for seed in range(40):
            rng = random.Random((fi << 16) ^ seed)
            src = fam(rng).encode()
            assert nat(src) == dom(src), (fi, seed)


def test_fuzz_parity():
    pieces = [
        "<div>", "</div>", "<p>", "</p>", "<li>", "</ul>", "<ul>", "<span>",
        "</span>", "<a href='x'>", "</a>", "text ", "&amp; ", "  ", "<br>",
        "<script>s</script>", "<!-- c -->", "<b", ">", "<", "</crazy>",
        "<table>", "<tr>", "<td>", "cell", "<img src='i'>",
        "<div class='menu'>", "<aside>", "</aside>", "\n\t", "&#65;",
        "&#x1F600;", "<svg>", "</svg>", "<textarea>", "</textarea>",
        "<PLAINTEXT>", "<?pi?>", "<!doctype>", "</p >", "< sp>", "<div<div>",
        "&bogus;", "&lt", "<p CLASS='SideBar'>", "<input type=x>",
        "<address>", "</address>", "<caption>", "<div class='yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy sidebar'>", "<p id=advert-x>", "word&#x20;next", "&#0;", "&#1114111;", "&#1114112;",
    ]
    for seed in range(600):
        rng = random.Random(seed)
        src = "".join(
            rng.choice(pieces) for _ in range(rng.randint(1, 80))
        ).encode()
        assert nat(src) == dom(src), (seed, src[:120])


def test_drop_whitespace_parity():
    for src in EDGE_CASES:
        assert nat(src, True) == dom(src, True), src


def test_extractor_routes_native_and_falls_back():
    # the default and scalar-only configs run the native kernel
    assert SpanExtractor()._native is not None
    for cfg in SCALAR_CONFIGS:
        assert SpanExtractor(config=cfg)._native is not None, cfg
    # tag-table and class-marker configs, and use_fused=False, run the DOM path
    for cfg in (
        ExtractConfig(drop_tags=frozenset(b"script style".split())),
        ExtractConfig(drop_class_substrings=(), drop_class_tokens=()),
    ):
        assert SpanExtractor(config=cfg)._native is None, cfg
    assert SpanExtractor(use_fused=False)._native is None
    spans = [{"kind": "html", "text": "<p>hello <a href='#'>x</a></p>", "media_ref": "", "offset": 0}]
    assert SpanExtractor().extract_document(spans) == (
        SpanExtractor(use_fused=False).extract_document(spans)
    )


def test_empty_and_pathological_inputs():
    cases = [b"", b"<", b"&", b"\x00" * 64, b"<" * 500, b"&" * 500, b">" * 100,
             b"<p>" + b"&amp;" * 2000 + b"</p>", bytes(range(256)) * 4]
    for src in cases:
        assert nat(src) == dom(src), src[:40]


def _html_table(sources: "list[bytes]") -> pa.Table:
    rows = [
        [
            {"kind": "text", "text": f"lead {i}", "media_ref": "", "offset": 0},
            {"kind": "html", "text": src.decode("utf-8", "replace"), "media_ref": "", "offset": 1},
        ]
        for i, src in enumerate(sources)
    ]
    return pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
            "spans": pa.array(rows, type=pa.list_(SPAN_STRUCT)),
        }
    )


def _oracle_rows(table: pa.Table, cfg: ExtractConfig) -> "list[list[dict]]":
    ex = SpanExtractor(config=cfg, use_fused=False)
    return [ex.extract_document(r) for r in table.column("spans").to_pylist()]


def test_scalar_config_variants_extractor_and_stage():
    """Each scalar-threshold variant, with the native kernel active, equals
    the DOM oracle per document (SpanExtractor) and per batch
    (ExtractSpansBatch) over the edge cases and the corpus families."""
    sources = list(EDGE_CASES) + _corpus_sources(per_family=10)
    for cfg in SCALAR_CONFIGS:
        ex = SpanExtractor(config=cfg)
        assert ex._native is not None
        for src in sources:
            got = ex._native(src, False, cfg.max_link_density, cfg.min_text_len)
            assert got == dom(src, cfg=cfg), (cfg, src[:80])
        # the stage decodes html as UTF-8 text, so compare on decoded input
        table = _html_table(sources)
        expected = _oracle_rows(table, cfg)
        stage = ExtractSpansBatch(
            max_link_density=cfg.max_link_density, min_text_len=cfg.min_text_len
        )
        assert getattr(stage._html_kernel, "__self__", None) is not stage
        got = stage(table).column("spans_out").to_pylist()
        assert got == expected, cfg
        assert stage.extractor.stats.native_fallbacks == 0


def test_batch_stage_counts_native_fallbacks():
    """The stage's two slower paths are chosen deliberately and counted in
    ``native_fallbacks``: a declined native call (DOM oracle for that batch)
    and an Arrow capacity/overflow error (batch halved by rows). Any other
    error escapes."""
    table = _html_table(list(EDGE_CASES[:12]))
    normal_stage = ExtractSpansBatch()
    normal = normal_stage(table)
    assert normal_stage.extractor.stats.native_fallbacks == 0
    assert normal.column("spans_out").to_pylist() == _oracle_rows(table, ExtractConfig())

    # capacity error on any batch with more than one html doc: halving
    # reaches one-doc batches, which the real kernel extracts
    stage = ExtractSpansBatch()
    real = stage._html_kernel

    def capacity(values_addr, offsets, *rest):
        if len(offsets) - 1 > 1:
            raise pa.ArrowCapacityError("synthetic >2GB batch")
        return real(values_addr, offsets, *rest)

    stage._html_kernel = capacity
    assert stage(table).equals(normal)
    assert stage.extractor.stats.native_fallbacks > 0

    # a declined native call runs the DOM oracle for that batch, counted
    stage = ExtractSpansBatch(emit_metrics=True)
    stage._html_kernel = lambda *a: None
    out = stage(table)
    assert out.drop(["metrics"]).equals(normal)
    assert stage.extractor.stats.native_fallbacks == 1
    assert stage.extractor.stats.parse_errors == 0

    # an UNKNOWN exception must escape (observable), not silently degrade
    def unexpected(*a, **k):
        raise RuntimeError("regression in the vectorized emit path")

    stage._html_kernel = unexpected
    with pytest.raises(RuntimeError):
        stage(table)
