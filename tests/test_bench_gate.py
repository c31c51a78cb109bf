"""Single-core perf regression tripwires, run in the suite without Ray.

The end-to-end benchmark is ``perfbench/`` (workloads in ``BENCHMARK.json``).
These two tests are its cheap in-suite floor: serial extraction of the seeded
2k-doc corpus, and the native HTML kernel alone over a pinned 2,000-span
slice, must each clear a floor set well below the measured rate, so
host-load noise cannot flake the suite while a real regression (e.g. a
quadratic slip in the tokenizer) still fails the build.
"""

from __future__ import annotations

import time

import pyarrow as pa

FLOOR_DOCS_PER_S = 2500.0


def test_single_core_extraction_floor():
    from html_parser_ray.extract.extractor import SpanExtractor
    from html_parser_ray.sources.corpus import generate_documents

    tbl = generate_documents(2000, seed=42)
    spans_col = tbl.column("spans").combine_chunks()
    flat = spans_col.flatten()
    kinds = flat.field("kind").to_pylist()
    texts = flat.field("text").cast(pa.binary()).to_pylist()
    media = flat.field("media_ref").to_pylist()
    offs = spans_col.offsets.to_pylist()

    ex = SpanExtractor()

    def run():
        for ri in range(len(offs) - 1):
            lo, hi = offs[ri], offs[ri + 1]
            ex.extract_columns(kinds[lo:hi], texts[lo:hi], media[lo:hi])

    run()  # warm (memo, allocator)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    docs_per_s = 2000 / best
    assert docs_per_s >= FLOOR_DOCS_PER_S, (
        f"single-core extraction regressed: {docs_per_s:.0f} docs/s "
        f"< floor {FLOOR_DOCS_PER_S}"
    )
    # with the native C path active the bar is much higher (measured ~27k;
    # floor at ~1/3). Python-only environments (no compiler) skip this part.
    from html_parser_ray.native import get_native_extractor

    if get_native_extractor() is not None:
        assert docs_per_s >= 9_000, (
            f"native extraction regressed: {docs_per_s:.0f} docs/s < 9000"
        )


# Native-kernel docs/s over the probe slice on a quiet host (median of
# interleaved probes). The floor is 0.2x of it: the worst host-load probe ever
# observed was 0.61x, so only a >=3x kernel regression (or extreme load) trips.
_PINNED_CAL_REF = 105000.0
CALIBRATION_DOCS = 2000


def _calibration_docs() -> "list[bytes]":
    """The probe slice: the first 2,000 html spans, in document order, of the
    seeded corpus with its giant-doc tail (generation is per-doc
    deterministic, so 1,000 docs give the same first spans as any longer
    corpus)."""
    from html_parser_ray.sources.corpus import generate_documents

    tbl = generate_documents(
        1000, seed=42, giant_doc_every=15000, giant_doc_html_bytes=1_000_000
    )
    flat = tbl.column("spans").combine_chunks().flatten()
    docs = [
        text.encode()
        for kind, text in zip(
            flat.field("kind").to_pylist(), flat.field("text").to_pylist()
        )
        if kind == "html"
    ]
    assert len(docs) >= CALIBRATION_DOCS
    return docs[:CALIBRATION_DOCS]


def test_calibration_probe_holds_pin_floor():
    """The native HTML kernel alone, single-threaded over the probe slice,
    must clear 20% of the pinned quiet-host rate: a kernel regression fails
    here even where an end-to-end number would blame the host."""
    from html_parser_ray.native import get_native_extractor

    import pytest

    fn = get_native_extractor()
    if fn is None:
        pytest.skip("no native kernel on this host — probe not applicable")
    docs = _calibration_docs()
    for d in docs[:64]:  # warm (thread-local scratch growth, icache)
        fn(d)
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < 0.3:
        for d in docs:
            fn(d)
        n += len(docs)
    probe = n / (time.perf_counter() - t0)
    assert probe >= 0.2 * _PINNED_CAL_REF, (
        f"calibration probe {probe:.0f} docs/s fell below 20% of the pinned "
        f"quiet-host reference {_PINNED_CAL_REF:.0f}: native kernel regression"
    )
