"""Flagship pipeline example: interleaved corpus -> ordered span table.

Dataset-level composition end to end (read -> extract tasks -> write),
including a corpus with giant documents. Run:

    python examples/extraction_pipeline.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(smoke: bool = False) -> None:
    import ray.data

    from html_parser_ray.pipelines.extraction import build_extraction_pipeline
    from html_parser_ray.sources.corpus import generate_documents

    n = 40 if smoke else 500
    ds = ray.data.from_arrow(generate_documents(n, seed=42))

    # default path: one streaming task transform, zero shuffles
    out = build_extraction_pipeline(ds, batch_size=16, concurrency=2)
    with tempfile.TemporaryDirectory() as d:
        out.write_parquet(d)
        back = ray.data.read_parquet(d)
        assert back.count() == n

    # giant documents take the same streaming path: extraction is per span
    ds2 = ray.data.from_arrow(
        generate_documents(n, seed=42, giant_doc_every=10, giant_doc_html_bytes=50_000)
    )
    giant = build_extraction_pipeline(ds2, batch_size=16, concurrency=2)
    assert giant.count() == n
    print(f"extracted {n} docs, with and without giant documents")


if __name__ == "__main__":
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False)
    run()
    ray.shutdown()
