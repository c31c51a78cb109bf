"""Native (C) extractor must be byte-identical to the DOM oracle
(``extract_text_blocks(parse_html(...))``), per document and through the
batch stage, for the default config and for every scalar-threshold variant.

Skips when the native path is unavailable (no system compiler) — the engine
then runs the DOM path everywhere, covered by the other suites.
"""

from __future__ import annotations

import random

import numpy as np
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
    ex = SpanExtractor(config=cfg, use_fused=False, layout_memo=False)
    ex.layout._native = None
    return [ex.extract_document(r) for r in table.column("spans").to_pylist()]


def _span(kind, text="", media_ref="") -> dict:
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": 0}


def _shape_batches() -> "list[pa.Table]":
    """Batch shapes the stage's span pool and pool index must handle:
    NULL and empty rows (one NULL row backed by a non-empty sub-list), NULL
    fields and unknown kinds, spans that emit nothing, single-kind batches
    and repeated refs."""
    html = "<div><p>alpha  beta</p><p>gamma</p></div>"
    pdf, pdf2, img = "media://pdf/000001", "media://pdf/000002", "media://img/x"
    batches = [
        [[_span("text", " lead ")], None, [], [_span("html", html)], None, []],
        [
            [{"kind": None, "text": "x", "media_ref": "r", "offset": 0},
             _span("text", None), _span("html", None), _span("media", None, None)],
            [_span("video", "v"), _span("TEXT", "upper"), _span("text", "kept")],
            [_span("", "no kind"), _span("media", "", pdf)],
        ],
        [
            [_span("text", " \n\t "), _span("html", "<script>x</script>"), _span("text", "")],
            [_span("html", ""), _span("html", html), _span("text", "\x0c")],
            [_span("html", "<nav><a href='#'>home</a></nav>"), _span("text", "after")],
        ],
        [[_span("media", "", r) for r in (pdf, pdf2, img, pdf)],
         [_span("media", "", pdf2)] * 3, [_span("media", "", img)]],
        [[_span("text", f" t{i}  x ")] for i in range(4)],
        [[_span("html", html)] * 2, [_span("html", "<p>one</p>")], [_span("html", html)]],
    ]
    tables = [
        pa.table(
            {
                "doc_id": pa.array([f"d{i}" for i in range(len(rows))]),
                "spans": pa.array(rows, type=pa.list_(SPAN_STRUCT)),
            }
        )
        for rows in batches
    ]
    values = pa.array([_span("text", f"v{i}") for i in range(4)], type=SPAN_STRUCT)
    null_backed = pa.ListArray.from_arrays(
        pa.array([0, 1, 3, 4], pa.int32()), values, mask=pa.array([False, True, False])
    )
    tables.append(pa.table({"doc_id": ["a", "b", "c"], "spans": null_backed}))
    return tables


def test_scalar_config_variants_extractor_and_stage():
    """The default and each scalar-threshold variant, with the native
    kernel active, equal the DOM oracle per document (SpanExtractor) and
    per batch (ExtractSpansBatch) over the edge cases and the corpus
    families. Per batch, the batch shapes of ``_shape_batches`` are also
    fed whole, as a slice at a nonzero offset and as a two-chunk table, to
    the native kernel and to the DOM adapter."""
    sources = list(EDGE_CASES) + _corpus_sources(per_family=10)
    shapes = []
    for t in _shape_batches():
        half = t.num_rows // 2
        shapes += [t, t.slice(1), pa.concat_tables([t.slice(0, half), t.slice(half)])]
    for cfg in [ExtractConfig(), *SCALAR_CONFIGS]:
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
        dom_stage = ExtractSpansBatch(
            max_link_density=cfg.max_link_density, min_text_len=cfg.min_text_len
        )
        dom_stage._html_kernel = dom_stage._dom_blocks
        for k, shape in enumerate(shapes):
            want = _oracle_rows(shape, cfg)
            for st in (stage, dom_stage):
                out = st(shape)
                assert out.column("doc_id").equals(shape.column("doc_id"))
                assert out.column("spans_out").to_pylist() == want, (cfg, k)
        assert stage.extractor.stats.native_fallbacks == 0


def test_stage_output_does_not_alias_native_scratch():
    """The span pool wraps the native kernel's thread-local, grow-only
    scratch zero-copy, so the output must own its bytes: a later, larger
    batch that rewrites the scratch leaves an earlier output unchanged, and
    no output buffer points into the scratch."""
    stage = ExtractSpansBatch()
    real = stage._html_kernel
    scratch = []

    def kernel(*args):
        res = real(*args)
        addr = np.frombuffer(res[0], dtype=np.uint8).ctypes.data
        scratch.append((addr, addr + len(res[0])))
        return res

    stage._html_kernel = kernel

    def html_rows(html: str, n: int) -> pa.Table:
        spans = pa.array([[_span("html", html)]] * n, type=pa.list_(SPAN_STRUCT))
        return pa.table({"doc_id": [f"d{i}" for i in range(n)], "spans": spans})

    # html-only, so every output span is a kernel block
    out1 = stage(html_rows("<p>first doc</p><p>two</p>", 4))
    copy1 = pa.Table.from_pylist(out1.to_pylist(), schema=out1.schema)
    stage(html_rows("<div><p>" + "second larger " * 2000 + "</p></div>", 8))
    # the second batch rewrote the same scratch the first one was read from
    assert scratch[0] == scratch[1]
    assert out1.equals(copy1)
    for col in out1.columns:
        for chunk in col.chunks:
            for buf in chunk.buffers():
                if buf is not None and buf.size:
                    for lo, hi in scratch:
                        assert buf.address + buf.size <= lo or buf.address >= hi


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
