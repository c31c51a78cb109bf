"""By-hand scale-out probe: a listed workload's corpus at ``concurrency=N``
extract tasks on ``N + 1`` Ray CPUs, for each N given.

    python tools/scale_probe.py --workload giant_resumable --ns 1 3

Run from the repository root. The corpus is ``perfbench.corpora``'s table
for ``--workload`` and seed ``SEED``, written as that workload's parquet
files. A ``media_zipf`` job is the streaming pipeline read back at the
driver; a ``giant_resumable`` job is ``run_resumable_extraction`` into a
fresh output root. For each N, a fresh Ray session runs ``WARMUP_JOBS``
untimed jobs over the whole corpus (the first jobs of a session start
worker processes), then ``TIMED_JOBS`` timed jobs. It prints one line per
N with the docs/s of each timed job, their median, and the speed-up and
efficiency (speed-up over N) against the first N given, then the same as
one JSON object on the last line. Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
WARMUP_JOBS = 2
TIMED_JOBS = 8


def run_job(workload: str, corpus, out_root: str, n: int) -> int:
    """One job at ``concurrency=n``; returns the rows it produced."""
    from html_parser_ray.pipelines import extraction
    from html_parser_ray.state.checkpoint import read_extraction_output, run_resumable_extraction

    if workload == "giant_resumable":
        shutil.rmtree(out_root, ignore_errors=True)
        run_resumable_extraction(corpus.path, out_root, num_partitions=2, concurrency=n)
        return read_extraction_output(out_root).count()
    ds = extraction.build_extraction_pipeline(extraction.read_corpus(corpus.path), concurrency=n)
    return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow", batch_size=None))


def probe(workload: str, ns: "list[int]", work: str) -> dict:
    import gc

    import ray
    import ray.data

    from perfbench import corpora

    corpus = corpora.write_corpus(workload, SEED, os.path.join(work, "data"))
    out_root = os.path.join(work, "out")
    # Ray workers import the package from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    result = {"workload": workload, "seed": SEED, "docs": corpus.num_docs, "by_n": {}}
    for n in ns:
        ray.init(
            num_cpus=n + 1,
            include_dashboard=False,
            object_store_memory=512 * 1024 * 1024,
            log_to_driver=False,
            logging_level="ERROR",
        )
        ray.data.DataContext.get_current().enable_progress_bars = False
        try:
            rates = []
            for k in range(WARMUP_JOBS + TIMED_JOBS):
                gc.collect()
                t0 = time.perf_counter()
                rows = run_job(workload, corpus, out_root, n)
                wall = time.perf_counter() - t0
                if rows != corpus.num_docs:
                    raise RuntimeError(f"N={n}: {rows} rows out of {corpus.num_docs}")
                if k >= WARMUP_JOBS:
                    rates.append(corpus.num_docs / wall)
        finally:
            ray.shutdown()
        rec = {"docs_per_s": [round(r) for r in rates], "median": round(statistics.median(rates))}
        result["by_n"][n] = rec
    base_n = ns[0]
    base = result["by_n"][base_n]["median"]
    for n, rec in result["by_n"].items():
        rec["speedup"] = round(rec["median"] / base, 3)
        rec["efficiency"] = round(rec["speedup"] * base_n / n, 3)
    return result


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("media_zipf", "giant_resumable"), required=True)
    ap.add_argument("--ns", type=int, nargs="+", default=[1, 2, 3], choices=(1, 2, 3))
    args = ap.parse_args(argv)
    sys.path.insert(0, ROOT)
    with tempfile.TemporaryDirectory(prefix="scale_probe_") as work:
        res = probe(args.workload, args.ns, work)
    for n, rec in res["by_n"].items():
        print(
            f"{res['workload']} N={n} on {n + 1} CPUs: docs/s {rec['docs_per_s']} "
            f"median {rec['median']} speedup {rec['speedup']} efficiency {rec['efficiency']}"
        )
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
