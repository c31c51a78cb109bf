"""Seeded inputs for the four workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical inputs. The program receives only the generated files (or,
for ``dom_select``, the generated HTML spans).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from html_parser_ray.sources.corpus import CORPUS_SCHEMA, generate_documents

# html_stream: base docs, replicated under fresh doc ids (generation is the
# slow part of set-up; the kernel has no cache a repeat could hit)
HTML_BASE_DOCS = 4000
HTML_REPLICAS = 16
# media_zipf: refs drawn from a universe 3x the 65,536-entry memo caps of the
# extract stage and of LayoutParser's lru
MEDIA_DOCS = 20000
MEDIA_BASE_DOCS = 2500
MEDIA_UNIVERSE = 3 * (1 << 16)
MEDIA_ZIPF_S = 1.0
# giant_resumable: one ~1 MB html span or one 400-span doc every 400 docs
GIANT_DOCS = 7200
GIANT_EVERY = 400
GIANT_HTML_BYTES = 1_000_000
# dom_select: html spans of this many generated docs
DOM_DOCS = 3000

WARM_DOCS = 64


@dataclass
class Corpus:
    """Generated input of one Ray workload, as written for ``read_corpus``."""

    path: str
    table: pa.Table
    warm_path: str

    @property
    def num_docs(self) -> int:
        return self.table.num_rows


def _renumber(spans: pa.ListArray, keep: pa.Array) -> pa.ListArray:
    """``spans`` with only the flattened spans where ``keep`` holds, input
    offsets renumbered 0..k-1 within each doc."""
    flat = spans.flatten()
    parents = pc.list_parent_indices(spans).to_numpy()
    keep_np = keep.to_numpy(zero_copy_only=False)
    counts = np.bincount(parents[keep_np], minlength=len(spans))
    offsets = np.zeros(len(spans) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    kept = flat.filter(keep)
    within = np.arange(len(kept), dtype=np.int32) - np.repeat(offsets[:-1], counts)
    struct = pa.StructArray.from_arrays(
        [kept.field("kind"), kept.field("text"), kept.field("media_ref"), pa.array(within)],
        fields=list(spans.type.value_type),
    )
    return pa.ListArray.from_arrays(pa.array(offsets), struct)


def _replicate(table: pa.Table, replicas: int) -> pa.Table:
    parts = []
    for r in range(replicas):
        ids = pc.binary_join_element_wise(f"r{r}", table.column("doc_id"), "-")
        parts.append(table.set_column(0, "doc_id", ids))
    return pa.concat_tables(parts).combine_chunks()


def html_stream_table(seed: int) -> pa.Table:
    """Giant-free corpus with html and text spans only (media spans dropped,
    so the default extract config runs unchanged and the layout branch
    idles)."""
    base = generate_documents(HTML_BASE_DOCS, seed=seed).combine_chunks()
    spans = base.column("spans").chunk(0)
    keep = pc.not_equal(spans.flatten().field("kind"), "media")
    base = base.set_column(1, "spans", _renumber(spans, keep))
    return _replicate(base, HTML_REPLICAS).cast(CORPUS_SCHEMA)


def zipf_refs(rng: np.random.Generator, n: int) -> "list[str]":
    """``n`` ``media://pdf/`` refs, Zipf(``MEDIA_ZIPF_S``)-skewed over a
    seeded permutation of ``MEDIA_UNIVERSE`` ids."""
    weights = 1.0 / np.arange(1, MEDIA_UNIVERSE + 1, dtype=np.float64) ** MEDIA_ZIPF_S
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.minimum(np.searchsorted(cdf, rng.random(n)), MEDIA_UNIVERSE - 1)
    ids = rng.permutation(MEDIA_UNIVERSE)[ranks]
    return [f"media://pdf/{i:06d}" for i in ids]


def media_zipf_table(seed: int) -> pa.Table:
    """Docs whose spans are at least half media: each doc keeps the html and
    text spans of a generated doc and interleaves at least as many media
    spans, with refs drawn fresh for every doc."""
    rng = np.random.default_rng(seed)
    base = generate_documents(MEDIA_BASE_DOCS, seed=seed).to_pylist()
    bodies = [[s for s in d["spans"] if s["kind"] != "media"] for d in base]
    n_media = [
        max(len(bodies[d % len(bodies)]), 1) + int(x)
        for d, x in enumerate(rng.integers(0, 2, MEDIA_DOCS))
    ]
    refs = iter(zipf_refs(rng, sum(n_media)))
    doc_ids, docs = [], []
    for d in range(MEDIA_DOCS):
        body = bodies[d % len(bodies)]
        spans: list[dict] = []
        for k in range(max(len(body), n_media[d])):
            if k < len(body):
                spans.append(dict(body[k]))
            if k < n_media[d]:
                spans.append({"kind": "media", "text": "", "media_ref": next(refs)})
        for k, s in enumerate(spans):
            s["offset"] = k
        doc_ids.append(f"m{seed}-{d:07d}")
        docs.append(spans)
    return pa.Table.from_pydict({"doc_id": doc_ids, "spans": docs}, schema=CORPUS_SCHEMA)


def giant_table(seed: int) -> pa.Table:
    """Default generator with the giant-doc tail: MB-sized html spans
    alternating with 400-span docs."""
    return generate_documents(
        GIANT_DOCS,
        seed=seed,
        giant_doc_every=GIANT_EVERY,
        giant_doc_html_bytes=GIANT_HTML_BYTES,
    )


def dom_spans(seed: int) -> "list[bytes]":
    """The html spans of a generated corpus, in corpus order."""
    tbl = generate_documents(DOM_DOCS, seed=seed)
    flat = tbl.column("spans").combine_chunks().flatten()
    html = flat.field("text").filter(pc.equal(flat.field("kind"), "html"))
    return [s.encode("utf-8") for s in html.to_pylist()]


_TABLES = {
    "html_stream": (html_stream_table, 4),
    "media_zipf": (media_zipf_table, 4),
    "giant_resumable": (giant_table, 2),
}


def write_corpus(workload: str, seed: int, root: str) -> Corpus:
    """Generate ``workload``'s input for ``seed`` as parquet files under
    ``root`` (plus a small warm-up corpus) and return it."""
    make, files = _TABLES[workload]
    table = make(seed)
    path = os.path.join(root, "input")
    warm_path = os.path.join(root, "warm")
    os.makedirs(path, exist_ok=True)
    os.makedirs(warm_path, exist_ok=True)
    per_file = -(-table.num_rows // files)
    for i in range(files):
        pq.write_table(
            table.slice(i * per_file, per_file), os.path.join(path, f"part-{i}.parquet")
        )
    pq.write_table(table.slice(0, WARM_DOCS), os.path.join(warm_path, "part-0.parquet"))
    return Corpus(path=path, table=table, warm_path=warm_path)
