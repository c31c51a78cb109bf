"""Deterministic synthesizer for the interleaved text+media document corpus.

Produces the exact input_hint shape (BASELINE.json):
``doc_id: string, spans: list<struct<kind, text, media_ref, offset:int32>>``.

Seeded (default 42) and fully deterministic: the same (seed, num_docs) always
yields byte-identical tables, so runs at any parallelism consume identical
input, and tests can pin expected outputs. HTML payloads draw from
generator families mirroring the reference's fixture/test corpora
(FIXTURES.md §3): selector-fixture clones, malformed, rawtext, svg,
optional-close, entities/whitespace, attribute-heavy, synthetic pages and
boilerplate pages with a known main-content article.

A size knob adds the pathological giant-document tail (multi-MB html spans /
hundreds of spans) that exercises skew-aware splitting.
"""

from __future__ import annotations

import random

import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
CORPUS_SCHEMA = pa.schema(
    [("doc_id", pa.string()), ("spans", pa.list_(SPAN_STRUCT))]
)

_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi "
    "omicron pi rho sigma tau upsilon phi chi psi omega data ray arrow stream "
    "block batch shuffle actor node span text media layout extract"
).split()


def _sentence(rng: random.Random, lo: int = 4, hi: int = 14) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(lo, hi)))


def _para(rng: random.Random, n: int = 3) -> str:
    return ". ".join(_sentence(rng) for _ in range(n)) + "."


def _gen_article_page(rng: random.Random) -> str:
    """Boilerplate page: nav/header/footer/aside around a main article."""
    paras = [f"<p>{_para(rng)}</p>" for _ in range(rng.randint(2, 6))]
    links = "".join(
        f"<a href='/x/{i}'>{rng.choice(_WORDS)}</a>" for i in range(rng.randint(3, 8))
    )
    return (
        "<html><head><title>t</title><script>var x=1<2;</script></head><body>"
        f"<header><h1>{_sentence(rng, 2, 5)}</h1><nav>{links}</nav></header>"
        f"<main><article>{''.join(paras)}</article></main>"
        f"<aside class='sidebar'><p>{_para(rng, 1)}</p></aside>"
        f"<footer><p>{_sentence(rng, 2, 4)}</p></footer>"
        "</body></html>"
    )


def _gen_list_page(rng: random.Random) -> str:
    items = "".join(
        f"<li id='i{k}' class='item {rng.choice('abc')}'>{_sentence(rng, 2, 6)}</li>"
        for k in range(rng.randint(3, 10))
    )
    return f"<div id='root'><ul id='list'>{items}</ul><p>{_para(rng, 2)}</p></div>"


def _gen_table_page(rng: random.Random) -> str:
    rows = "".join(
        "<tr>" + "".join(f"<td>{rng.choice(_WORDS)}</td>" for _ in range(4))
        for _ in range(rng.randint(2, 8))
    )
    return f"<table>{rows}</table><p>{_sentence(rng)}</p>"


def _gen_malformed_page(rng: random.Random) -> str:
    return (
        f"<div id='a'><span id='b'>{_sentence(rng, 2, 5)}</div>"
        f"<p id='c'>{_sentence(rng, 3, 7)}"
        f"<ul><li>one<li>two<li>{rng.choice(_WORDS)}</ul>"
    )


def _gen_entity_page(rng: random.Random) -> str:
    return (
        f"<p>{_sentence(rng, 2, 4)} &amp; {_sentence(rng, 1, 3)} &lt;tag&gt; "
        f"&#x41;&#66; &quot;{rng.choice(_WORDS)}&quot;  \t\n {_sentence(rng, 1, 4)}</p>"
    )


def _gen_rawtext_svg_page(rng: random.Random) -> str:
    return (
        f"<style>.x {{ color: red; }}</style>"
        f"<svg viewBox='0 0 1 1'><rect x='1'/></svg>"
        f"<p>{_para(rng, 2)}</p>"
        f"<script>if (a < {rng.randint(1, 9)}) {{}}</script>"
        f"<textarea>raw <b> {rng.choice(_WORDS)}</textarea>"
    )


def _gen_attr_heavy_page(rng: random.Random) -> str:
    anchors = "".join(
        f"<a href='https://e.com/{k}' class='link {'button' if k % 3 == 0 else 'nav'}' "
        f"data-k='v{k}'>{rng.choice(_WORDS)}</a>"
        for k in range(rng.randint(4, 12))
    )
    return f"<div class='wrap'>{anchors}<p>{_para(rng, 2)}</p></div>"


_HTML_FAMILIES = (
    _gen_article_page,
    _gen_list_page,
    _gen_table_page,
    _gen_malformed_page,
    _gen_entity_page,
    _gen_rawtext_svg_page,
    _gen_attr_heavy_page,
)


def generate_documents(
    num_docs: int,
    seed: int = 42,
    giant_doc_every: int = 0,
    giant_doc_html_bytes: int = 2_000_000,
    giant_doc_spans: int = 400,
    start: int = 0,
) -> pa.Table:
    """Deterministic interleaved corpus as a pyarrow Table.

    Generation is per-document deterministic (rng seeded by (seed, doc index))
    so any index range [start, start+num_docs) reproduces the same rows
    regardless of partitioning — the property the resumable writer and the
    benchmark depend on.

    ``giant_doc_every > 0`` inserts a pathological giant document every that
    many rows (alternating: one multi-MB html span / hundreds of spans).
    """
    doc_ids: list[str] = []
    all_spans: list[list[dict]] = []
    for d in range(start, start + num_docs):
        rng = random.Random((seed << 20) ^ d)
        doc_id = f"doc-{d:08d}"
        spans: list[dict] = []
        if giant_doc_every and d % giant_doc_every == giant_doc_every - 1:
            if (d // giant_doc_every) % 2 == 0:
                # one multi-MB html span
                body = []
                size = 0
                while size < giant_doc_html_bytes:
                    p = f"<p>{_para(rng, 4)}</p>"
                    body.append(p)
                    size += len(p)
                spans.append(
                    {
                        "kind": "html",
                        "text": "<html><body>" + "".join(body) + "</body></html>",
                        "media_ref": "",
                        "offset": 0,
                    }
                )
            else:
                for k in range(giant_doc_spans):
                    spans.append(
                        {
                            "kind": "text" if k % 2 == 0 else "html",
                            "text": _sentence(rng)
                            if k % 2 == 0
                            else f"<p>{_sentence(rng)}</p>",
                            "media_ref": "",
                            "offset": k,
                        }
                    )
        else:
            n_spans = rng.randint(1, 8)
            for k in range(n_spans):
                r = rng.random()
                if r < 0.2:
                    spans.append(
                        {
                            "kind": "media",
                            "text": "",
                            "media_ref": f"media://pdf/{(d * 13 + k) % 100000:06d}",
                            "offset": k,
                        }
                    )
                elif r < 0.45:
                    spans.append(
                        {
                            "kind": "text",
                            "text": _sentence(rng, 3, 20),
                            "media_ref": "",
                            "offset": k,
                        }
                    )
                else:
                    fam = _HTML_FAMILIES[rng.randrange(len(_HTML_FAMILIES))]
                    spans.append(
                        {"kind": "html", "text": fam(rng), "media_ref": "", "offset": k}
                    )
        doc_ids.append(doc_id)
        all_spans.append(spans)

    return pa.Table.from_pydict(
        {"doc_id": doc_ids, "spans": all_spans}, schema=CORPUS_SCHEMA
    )


def write_corpus_parquet(
    path: str,
    num_docs: int,
    seed: int = 42,
    rows_per_file: int = 50_000,
    **kwargs,
) -> None:
    """Write the corpus as (possibly several) parquet files under ``path``."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    lo = 0
    part = 0
    while lo < num_docs:
        n = min(rows_per_file, num_docs - lo)
        tbl = generate_documents(n, seed=seed, start=lo, **kwargs)
        pq.write_table(tbl, os.path.join(path, f"part-{part:05d}.parquet"))
        lo += n
        part += 1
