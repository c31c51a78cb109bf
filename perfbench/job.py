"""One benchmark run: set up, run closed-loop jobs, check every output.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.job`` with the
run's environment already in place; writes its result as JSON to
``--result``. Run ``perfbench/run.py`` rather than this module.

A run of a Ray workload sets up Ray ``SETUPS`` times (Ray start plus a warm
pass that imports the package and loads both native kernels in a worker)
and reports the median set-up time; the last session then runs an
untimed warm-up job and timed jobs, one at a time and each over the whole
generated corpus, for about ``--seconds`` (see ``closed_loop``).
``dom_select`` runs in this process without Ray.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

from perfbench import WORKLOADS, checks, corpora, procs, trace

RAY_CPUS = 2  # one for the extract actor, one so read tasks can schedule
CONCURRENCY = 1
SETUPS = 3
MIN_TIMED_JOBS = 2
JOB_DEADLINE_S = 60.0
GIANT_PARTITIONS = 2
GIANT_WAVE_SIZE = 1
GIANT_CHECKED = 4  # giant docs always in the checked sample, both kinds
DOM_JOB_DOCS = 1000
DOM_CHECKED_PER_JOB = 12
SELECTORS = (
    "ul > li",
    "a[href^='https']",
    ".item",
    "div p",
    "#list li",
    "tr > td:nth-child(2)",
    "li:first-child",
    "a:not(.button)",
)
DOM_SETUP_CODE = (
    "import html_parser_ray.html.document as d\n"
    "d.parse_html(b\"<ul id='list'><li class='item'>x</ul>\").query_all('ul > li')\n"
)


def native_status() -> dict:
    from html_parser_ray.native import get_native_batch_extractor, get_native_pdf_summary

    return {
        "native_html": get_native_batch_extractor() is not None,
        "native_pdf": get_native_pdf_summary() is not None,
    }


def write_plan(work: str, docs_per_job: int) -> None:
    """Tell the supervisor how many documents a job holds, so that a run
    past its deadline can count them all as failed."""
    with open(os.path.join(work, "plan.json"), "w") as f:
        json.dump({"docs_per_job": docs_per_job}, f)


# ---- Ray workloads -------------------------------------------------------------


class RaySession:
    def __init__(self, ray_tmp: "str | None") -> None:
        self.ray_tmp = ray_tmp

    def start(self) -> None:
        import ray
        import ray.data

        ray.init(
            num_cpus=RAY_CPUS,
            include_dashboard=False,
            object_store_memory=512 * 1024 * 1024,
            _temp_dir=self.ray_tmp,
            log_to_driver=False,
            logging_level="ERROR",
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False

    def stop(self) -> None:
        import ray

        ray.shutdown()
        me = os.getpid()
        left = [p for p in procs.descendants(me) if p != me]
        procs.stop(left, grace_s=10.0)


def wait_idle(timeout_s: float = 15.0) -> None:
    """Drop the previous job's datasets and wait until its actor has
    released its CPU. Without this, the finished job's actor pool lives on
    in a reference cycle until the driver's garbage collector runs, holding
    one of the two CPUs, and the next job's read tasks wait for it."""
    import ray

    gc.collect()
    deadline = time.monotonic() + timeout_s
    while ray.available_resources().get("CPU", 0) < RAY_CPUS and time.monotonic() < deadline:
        time.sleep(0.02)


def warm_worker() -> dict:
    import html_parser_ray.stages.extract_stage  # noqa: F401  (what the extract actor imports)

    return native_status()


def stream_job(corpus: corpora.Corpus, traced: bool) -> "tuple[dict, object]":
    """Read -> default pipeline -> ``iter_batches`` at the driver."""
    import pyarrow as pa

    import html_parser_ray.pipelines.extraction as ext

    stats: "list[str]" = []
    with procs.RssSampler() as rss, (trace.traced_pipeline(stats) if traced else nullcontext()):
        start = time.time()
        t0 = time.perf_counter()
        ds = ext.build_extraction_pipeline(ext.read_corpus(corpus.path), concurrency=CONCURRENCY)
        batches, wait, first = [], 0.0, None
        it = iter(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        while True:
            a = time.perf_counter()
            batch = next(it, None)
            wait += time.perf_counter() - a
            if batch is None:
                break
            if first is None:
                first = time.perf_counter() - t0
            batches.append(batch)
        wall = time.perf_counter() - t0
        end = time.time()
    output = pa.concat_tables(batches) if batches else None
    rec = {
        "start": start,
        "end": end,
        "wall_s": wall,
        "first_out_s": first,
        "peak_rss": rss.peak,
        "driver.wait_s": wait,
        "driver.out_mb": sum(b.nbytes for b in batches) / 1e6,
        "stats": ds.stats() if traced else "",
    }
    return rec, output


def giant_job(corpus: corpora.Corpus, traced: bool, root: str) -> "tuple[dict, object]":
    """Wave-checkpointed split extraction into a fresh root, read back."""
    import pyarrow as pa

    from html_parser_ray.state.checkpoint import (
        manifest_records,
        read_extraction_output,
        run_resumable_extraction,
    )

    shutil.rmtree(root, ignore_errors=True)
    stats: "list[str]" = []
    with procs.RssSampler() as rss, (trace.traced_pipeline(stats) if traced else nullcontext()):
        start = time.time()
        t0 = time.perf_counter()
        run_resumable_extraction(
            corpus.path,
            root,
            num_partitions=GIANT_PARTITIONS,
            wave_size=GIANT_WAVE_SIZE,
            split_giant_docs=True,
            concurrency=CONCURRENCY,
        )
        wall = time.perf_counter() - t0
        end = time.time()
    waves: "dict[int, float]" = {}
    for r in manifest_records(root):
        waves[r["partition_id"] // GIANT_WAVE_SIZE] = r["wave_wall_s"]
    sizes = [os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(root) for f in fs]
    wait_idle()
    output = pa.concat_tables(
        b.select(["doc_id", "spans_out"])
        for b in read_extraction_output(root).iter_batches(batch_format="pyarrow", batch_size=None)
    )
    shutil.rmtree(root, ignore_errors=True)
    rec = {
        "start": start,
        "end": end,
        "wall_s": wall,
        "first_out_s": None,
        "peak_rss": rss.peak,
        "checkpoint.waves": len(waves),
        "checkpoint.wave_s_sum": sum(waves.values()),
        "checkpoint.commit_s": wall - sum(waves.values()),
        "checkpoint.files_written": len(sizes),
        "checkpoint.bytes_written": sum(sizes),
        "stats": "\n".join(stats),
    }
    return rec, output


def run_ray_workload(args) -> dict:
    work = args.work
    t0 = time.perf_counter()
    corpus = corpora.write_corpus(args.workload, args.seed, os.path.join(work, "data"))
    always = checks.giant_ids(corpus.table)[:GIANT_CHECKED] if args.workload == "giant_resumable" else []
    expected = checks.expected_spans(corpus.table, checks.sample_ids(corpus.table, args.seed, always=always))
    prep_s = time.perf_counter() - t0
    write_plan(work, corpus.num_docs)
    if args.trace:
        os.environ[trace.TRACE_DIR_ENV] = os.path.join(work, "trace")
        os.makedirs(os.environ[trace.TRACE_DIR_ENV], exist_ok=True)

    import ray

    session = RaySession(args.ray_tmp or None)
    setups, stops, jobs, native = [], [], [], {}
    for s in range(SETUPS):
        t0 = time.perf_counter()
        session.start()
        # the warm pass: import the package and load both kernels in a worker
        native = ray.get(ray.remote(warm_worker).remote())
        setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        try:
            if not all(native.values()):
                raise RuntimeError(f"native kernels missing in Ray workers: {native}")
            if s == SETUPS - 1:
                jobs = measure(args, corpus, expected, work)
                t0 = time.perf_counter()
        finally:
            session.stop()
            stops.append(time.perf_counter() - t0)
    out = {"prep_s": prep_s, "setups": setups, "stops": stops, "jobs": jobs, "native": native}
    if args.trace:
        out["spans"] = trace.load_spans(os.environ[trace.TRACE_DIR_ENV])
    return out


def closed_loop(args, docs_per_job: int, run_job) -> "list[dict]":
    """Run jobs one at a time: first an untimed warm-up job (checked; it pays
    the first job's extra start-up cost in a new session), then timed jobs,
    at least ``MIN_TIMED_JOBS``, and after those another only while it is
    expected to end within ``--seconds`` of the first timed job's start (a
    traced run alternates traced and untraced jobs). ``run_job(k, traced)``
    returns the job's record; an exception ends the loop and fails the job."""
    jobs: "list[dict]" = []
    t_end = None
    while True:
        k = len(jobs)
        if k == 1:
            t_end = time.perf_counter() + args.seconds
        if k > MIN_TIMED_JOBS and time.perf_counter() + jobs[-1]["wall_s"] > t_end:
            break
        warmup = k == 0
        traced = bool(args.trace) and not warmup and k % 2 == 1
        try:
            rec = run_job(k, traced)
        except Exception:
            rec = {"docs": docs_per_job, "failed": docs_per_job, "error": traceback.format_exc(limit=5)}
        rec.update(warmup=warmup, traced=traced)
        jobs.append(rec)
        if "error" in rec:
            break
    return jobs


def measure(args, corpus, expected, work) -> "list[dict]":
    # the warm-up job runs the workload's path over the small warm corpus
    small = corpora.Corpus(corpus.warm_path, corpus.table.slice(0, corpora.WARM_DOCS), corpus.warm_path)

    def run_job(k: int, traced: bool) -> dict:
        c = small if k == 0 else corpus
        wait_idle()
        if args.workload == "giant_resumable":
            rec, output = giant_job(c, traced, os.path.join(work, "out"))
        else:
            rec, output = stream_job(c, traced)
        res = checks.check_extraction(c.table, output, expected)
        if rec["wall_s"] > JOB_DEADLINE_S:
            res["failed"] = c.num_docs
        rec.update(docs=c.num_docs, check=res, failed=res["failed"], docs_per_s=c.num_docs / rec["wall_s"])
        return rec

    return closed_loop(args, corpus.num_docs, run_job)


# ---- dom_select ----------------------------------------------------------------


def dom_setup_s() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", DOM_SETUP_CODE], check=True)
    return time.perf_counter() - t0


def dom_job(sources: "list[bytes]", idx: "list[int]", checked: "set[int]", traced: bool) -> "tuple[dict, dict]":
    import html_parser_ray.html.document as document

    # every job compiles its selectors once, as a fresh client would
    document._compile_cached.cache_clear()
    results: "dict[int, list[list[int]]]" = {}
    with procs.RssSampler() as rss, (trace.traced_library() if traced else nullcontext()):
        start = time.time()
        t0 = time.perf_counter()
        for i in idx:
            doc = document.parse_html(sources[i])
            got = [doc.query_all(sel) for sel in SELECTORS]
            if i in checked:
                results[i] = got
        wall = time.perf_counter() - t0
        end = time.time()
    rec = {"start": start, "end": end, "wall_s": wall, "first_out_s": None, "peak_rss": rss.peak}
    return rec, results


def run_dom_workload(args) -> dict:
    sources = corpora.dom_spans(args.seed)
    write_plan(args.work, DOM_JOB_DOCS)
    setups = [dom_setup_s() for _ in range(SETUPS)]

    def run_job(k: int, traced: bool) -> dict:
        lo = (k * DOM_JOB_DOCS) % len(sources)
        idx = [(lo + j) % len(sources) for j in range(DOM_JOB_DOCS)]
        checked = set(random.Random(args.seed * 100_003 + k).sample(idx, DOM_CHECKED_PER_JOB))
        rec, results = dom_job(sources, idx, checked, traced)
        failed = checks.check_queries(sources, results, SELECTORS)
        rec.update(docs=len(idx), failed=failed, check={"checked": len(results), "mismatched": failed},
                   docs_per_s=len(idx) / rec["wall_s"])
        return rec

    jobs = closed_loop(args, DOM_JOB_DOCS, run_job)
    return {"setups": setups, "jobs": jobs, "native": native_status(), "spans": trace.tracer().spans}


# ---- result --------------------------------------------------------------------


def result(args, run: dict) -> dict:
    jobs = run["jobs"]
    attempted = sum(j["docs"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    errors = [j["error"] for j in jobs if "error" in j]
    ok = [j for j in jobs if "error" not in j]
    if args.trace and not errors:
        layers = trace.summarize([j for j in ok if not j["warmup"]], run["spans"])
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    elif not errors:
        timed = [j for j in ok if not j["traced"] and not j["warmup"]]
        # throughput over the measured window: all docs over all job walls
        docs_per_s = sum(j["docs"] for j in timed) / sum(j["wall_s"] for j in timed)
        metrics = {
            "docs_per_s": {"value": docs_per_s, "unit": "docs/s"},
            "setup_s": {"value": statistics.median(run["setups"]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(j["peak_rss"] for j in timed) / 1e6, "unit": "MB"},
        }
    else:
        metrics = {}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray_cpus": RAY_CPUS if args.workload != "dom_select" else None,
        "extract_concurrency": CONCURRENCY if args.workload != "dom_select" else None,
        **run["native"],
        "shutdown_s": run.get("stops"),
        "prep_s": run.get("prep_s"),
        "failed_frac": failed / attempted if attempted else 1.0,
        "setup_s_samples": run["setups"],
        "jobs": [
            {k: v for k, v in j.items() if k not in ("start", "end", "stats", "peak_rss")}
            | {"peak_rss_mb": j.get("peak_rss", 0) / 1e6}
            for j in ok
        ],
        "errors": errors,
    }
    return {
        "info": info,
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("docs_per_s"):
        return "docs/s"
    if leaf.endswith(("_frac", "_ratio")):
        return "frac"
    if "_ms_" in leaf:
        return "ms"
    if leaf.endswith("_mb"):
        return "MB"
    if leaf.endswith("_s") or "_s_" in leaf:
        return "s"
    return "count"


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result")
    p.add_argument("--ray-tmp", default="", help="Ray's temp dir (default: Ray's own)")
    p.add_argument("--build", action="store_true", help="load the native kernels and exit")
    args = p.parse_args(argv)
    if args.build:
        status = native_status()
        print(json.dumps(status))
        return 0 if all(status.values()) else 1
    if args.workload == "dom_select":
        run = run_dom_workload(args)
    else:
        run = run_ray_workload(args)
    with open(args.result, "w") as f:
        json.dump(result(args, run), f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
