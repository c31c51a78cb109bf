"""Layer tracing from the benchmark's own files.

Timing shims wrap the public callables the program obtains at run time and
record one span per call: name, wall start and end (``time.time``, which is
comparable across the processes of one host), thread CPU time, the id of the
enclosing span and per-call counts. Nothing in the program changes: the
shims replace module attributes only in traced runs, and the traced stage is
a subclass of the program's stage.

Each process keeps its spans in memory. A Ray worker has no end-of-life hook,
so it appends its spans to ``<PERFBENCH_TRACE_DIR>/<pid>.jsonl`` when its
outermost span ends; the driver reads them when the run ends and assigns each
span to the job whose wall-time window holds its start (jobs run one at a
time).
"""

from __future__ import annotations

import itertools
import json
import os
import re
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from html_parser_ray.stages.extract_stage import ExtractFragmentsBatch, ExtractSpansBatch
from html_parser_ray.stages.split import reassemble_group as _reassemble_group
from html_parser_ray.stages.split import split_batch as _split_batch

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Span store of one process. Span ids are ``pid * 10**9 + n``, unique
    across the processes of a run."""

    def __init__(self, out_path: "str | None" = None) -> None:
        self.out_path = out_path
        self.spans: "list[dict]" = []
        self._local = threading.local()
        self._ids = itertools.count(os.getpid() * 10**9 + 1)

    def _stack(self) -> "list[dict]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> "_Span":
        """Context manager recording one span; yields its counts dict."""
        return _Span(self, name, attrs)

    def add(self, key: str, n: int = 1) -> None:
        """Add ``n`` to count ``key`` of the innermost open span."""
        stack = self._stack()
        if stack:
            attrs = stack[-1]["attrs"]
            attrs[key] = attrs.get(key, 0) + n

    def flush(self) -> None:
        # list.append and this swap are atomic under the interpreter lock
        spans, self.spans = self.spans, []
        if spans:
            with open(self.out_path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


class _Span:
    __slots__ = ("tracer", "stack", "rec", "cpu0")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.stack = tracer._stack()
        self.rec = {
            "name": name,
            "id": next(tracer._ids),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "pid": os.getpid(),
            "attrs": attrs,
        }

    def __enter__(self) -> dict:
        self.stack.append(self.rec)
        self.rec["start"] = time.time()
        self.cpu0 = time.thread_time()
        return self.rec["attrs"]

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec["cpu"] = time.thread_time() - self.cpu0
        rec["end"] = time.time()
        self.stack.pop()
        self.tracer.spans.append(rec)
        if not self.stack and self.tracer.out_path is not None:
            self.tracer.flush()


_tracer: "Tracer | None" = None


def tracer() -> Tracer:
    """This process's tracer; in a Ray worker it writes to the trace dir."""
    global _tracer
    if _tracer is None:
        d = os.environ.get(TRACE_DIR_ENV)
        _tracer = Tracer(os.path.join(d, f"{os.getpid()}.jsonl") if d else None)
    return _tracer


def traced(name: str, fn, attrs_of=None):
    """``fn`` recording a span per call; ``attrs_of(args, result)`` adds
    counts to the span."""

    def wrapper(*args, **kwargs):
        with tracer().span(name) as attrs:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, out))
            return out

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


# ---- shims installed inside the extract actor --------------------------------


def _html_batch_attrs(args, out) -> dict:
    offsets = args[1]
    return {
        "docs": len(offsets) - 1,
        "bytes": int(offsets[-1] - offsets[0]),
        "blocks": 0 if out is None else len(out[1]),
    }


def _pdf_attrs(args, out) -> dict:
    return {"declined": int(out is None)}


def _wrap_getter(getter, name: str, attrs_of):
    def get():
        fn = getter()
        return None if fn is None else traced(name, fn, attrs_of)

    get.__wrapped__ = getter
    return get


def install_worker_shims() -> None:
    """Wrap the native getters and ``LayoutParser.parse`` in this process
    (once). Must run before the stage constructs its extractor."""
    import html_parser_ray.native as native
    from html_parser_ray.extract.layout import LayoutParser

    if hasattr(native.get_native_batch_extractor, "__wrapped__"):
        return
    native.get_native_batch_extractor = _wrap_getter(
        native.get_native_batch_extractor, "native.html", _html_batch_attrs
    )
    native.get_native_pdf_summary = _wrap_getter(
        native.get_native_pdf_summary, "native.pdf", _pdf_attrs
    )
    LayoutParser.parse = traced("layout.decode", LayoutParser.parse)


def _media_spans(batch: pa.Table) -> int:
    kinds = batch.column("spans").combine_chunks().flatten().field("kind")
    return int(pc.sum(pc.equal(kinds, "media")).as_py() or 0)


class _TracedStage:
    """Mixin giving an extract stage class one span per batch."""

    def __init__(self, **kwargs) -> None:
        install_worker_shims()
        with tracer().span("extract_stage.init"):
            super().__init__(**kwargs)
        layout = self.extractor.layout
        memo_parse = layout.parse

        def parse(ref: str) -> dict:
            # reached on a stage-memo miss; LayoutParser's own lru sits below
            tracer().add("layout.parse_calls")
            return memo_parse(ref)

        layout.parse = parse

    def __call__(self, batch: pa.Table) -> pa.Table:
        stats = self.extractor.stats
        fallbacks = stats.native_fallbacks
        media = _media_spans(batch)
        with tracer().span("extract_stage", rows=batch.num_rows, media_spans=media) as attrs:
            out = super().__call__(batch)
            attrs["native_fallbacks"] = stats.native_fallbacks - fallbacks
        return out


class TracedExtractSpansBatch(_TracedStage, ExtractSpansBatch):
    pass


class TracedExtractFragmentsBatch(_TracedStage, ExtractFragmentsBatch):
    pass


def traced_split_batch(batch: pa.Table, max_bytes: int = 1_000_000, max_spans: int = 64):
    with tracer().span("split", rows_in=batch.num_rows) as attrs:
        out = _split_batch(batch, max_bytes=max_bytes, max_spans=max_spans)
        first = pc.equal(out.column("frag_seq"), 0)
        multi = pc.greater(out.column("n_frags"), 1)
        attrs["frags_out"] = out.num_rows
        attrs["oversized_rows"] = int(pc.sum(pc.and_(first, multi)).as_py() or 0)
    return out


def traced_reassemble_group(group: pa.Table):
    with tracer().span("reassemble"):
        return _reassemble_group(group)


@contextmanager
def traced_pipeline(captured_stats: "list[str]"):
    """Point ``pipelines.extraction`` at the traced stage and split functions,
    and keep the ``Dataset.stats()`` of every ``write_parquet`` (the
    checkpoint writer's datasets are internal to it)."""
    import ray.data

    import html_parser_ray.pipelines.extraction as ext

    names = {
        "ExtractSpansBatch": TracedExtractSpansBatch,
        "ExtractFragmentsBatch": TracedExtractFragmentsBatch,
        "split_batch": traced_split_batch,
        "reassemble_group": traced_reassemble_group,
    }
    saved = {n: getattr(ext, n) for n in names}
    write_parquet = ray.data.Dataset.write_parquet

    def write_and_keep_stats(self, *args, **kwargs):
        out = write_parquet(self, *args, **kwargs)
        captured_stats.append(self.stats())
        return out

    for n, v in names.items():
        setattr(ext, n, v)
    ray.data.Dataset.write_parquet = write_and_keep_stats
    try:
        yield
    finally:
        for n, v in saved.items():
            setattr(ext, n, v)
        ray.data.Dataset.write_parquet = write_parquet


@contextmanager
def traced_library():
    """Trace ``parse_html``, ``Document.query_all`` and ``compile_selector``
    in this process."""
    import html_parser_ray.html.document as document
    import html_parser_ray.selector.compiler as compiler

    saved = (document.parse_html, document.Document.query_all, compiler.compile_selector)
    document.parse_html = traced(
        "html.parse", saved[0], lambda a, d: {"bytes": len(a[0]), "nodes": len(d)}
    )
    document.Document.query_all = traced(
        "selector.query", saved[1], lambda a, r: {"matches": len(r)}
    )
    compiler.compile_selector = traced("selector.compile", saved[2])
    try:
        yield
    finally:
        document.parse_html, document.Document.query_all, compiler.compile_selector = saved


# ---- from spans to per-layer metrics -----------------------------------------


def load_spans(trace_dir: str) -> "list[dict]":
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def assign(spans: "list[dict]", windows: "list[tuple[float, float]]") -> "list[list[dict]]":
    """Spans per job, by the job window that holds the span's start."""
    out: "list[list[dict]]" = [[] for _ in windows]
    for s in spans:
        for i, (lo, hi) in enumerate(windows):
            if lo <= s["start"] <= hi:
                out[i].append(s)
                break
    return out


def self_cpu(spans: "list[dict]") -> "dict[int, float]":
    """Span id -> its CPU time minus that of its direct children (children
    run on the caller's thread, so their CPU is disjoint)."""
    child_cpu: "dict[int, float]" = {}
    for s in spans:
        if s["parent"] is not None:
            child_cpu[s["parent"]] = child_cpu.get(s["parent"], 0.0) + s["cpu"]
    return {s["id"]: s["cpu"] - child_cpu.get(s["id"], 0.0) for s in spans}


_STAT_OP = re.compile(r"^Operator \d+ (\S.*?): (\d+) tasks executed, (\d+) blocks produced")
_STAT_TOTAL = re.compile(r"^\* Remote (wall|cpu) time: .*, ([\d.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def read_stats(stats_text: str) -> dict:
    """Wall, CPU and block totals of the read operators in a
    ``Dataset.stats()`` report (read tasks may carry fused maps)."""
    out = {"wall_s": 0.0, "cpu_s": 0.0, "blocks": 0}
    in_read = False
    for line in stats_text.splitlines():
        line = line.strip()
        m = _STAT_OP.match(line)
        if m:
            in_read = m.group(1).startswith("Read")
            if in_read:
                out["blocks"] += int(m.group(3))
            continue
        m = _STAT_TOTAL.match(line)
        if m and in_read:
            out[f"{m.group(1)}_s"] += float(m.group(2)) * _UNIT[m.group(3)]
    return out


def _pctl(values: "list[float]", q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def job_layers(spans: "list[dict]", job: dict) -> dict:
    """Per-layer metrics of one traced job from its spans and job record."""
    by: "dict[str, list[dict]]" = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def total(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in by.get(name, ()))

    def cpu(name: str) -> float:
        return sum(s["cpu"] for s in by.get(name, ()))

    stage = sorted(by.get("extract_stage", ()), key=lambda s: s["start"])
    own_cpu = self_cpu(spans)
    idle = 0.0
    for pid in {s["pid"] for s in stage}:
        mine = [s for s in stage if s["pid"] == pid]
        idle += sum(b["start"] - a["end"] for a, b in zip(mine, mine[1:]))
    batch_ms = [(s["end"] - s["start"]) * 1e3 for s in stage]
    media = total("extract_stage", "media_spans")
    decodes = len(by.get("layout.decode", ()))
    read = read_stats(job.get("stats", ""))
    m = {
        "read.wall_s": read["wall_s"],
        "read.cpu_s": read["cpu_s"],
        "read.blocks": read["blocks"],
        "read.first_block_s": (stage[0]["start"] - job["start"]) if stage else 0.0,
        "extract_stage.calls": len(stage),
        "extract_stage.wall_s": sum(s["end"] - s["start"] for s in stage),
        "extract_stage.cpu_s": cpu("extract_stage"),
        "extract_stage.batch_ms_p50": _pctl(batch_ms, 50),
        "extract_stage.batch_ms_p99": _pctl(batch_ms, 99),
        "extract_stage.idle_s": idle,
        "extract_stage.emit_cpu_s": sum(own_cpu[s["id"]] for s in stage),
        "extract_stage.native_fallbacks": total("extract_stage", "native_fallbacks"),
        "native.html_calls": len(by.get("native.html", ())),
        "native.html_cpu_s": cpu("native.html"),
        "native.html_mb": total("native.html", "bytes") / 1e6,
        "native.html_blocks": total("native.html", "blocks"),
        "layout.media_spans": media,
        "layout.parse_calls": total("extract_stage", "layout.parse_calls"),
        "layout.decodes": decodes,
        "layout.hit_ratio": (1.0 - decodes / media) if media else 0.0,
        "layout.cpu_s": cpu("layout.decode"),
        "layout.pdf_native_declined": total("native.pdf", "declined"),
        "split.cpu_s": cpu("split"),
        "split.rows_in": total("split", "rows_in"),
        "split.frags_out": total("split", "frags_out"),
        "split.oversized_rows": total("split", "oversized_rows"),
        "reassemble.groups": len(by.get("reassemble", ())),
        "reassemble.cpu_s": cpu("reassemble"),
        "html.parse_calls": len(by.get("html.parse", ())),
        "html.parse_cpu_s": cpu("html.parse"),
        "html.parse_mb": total("html.parse", "bytes") / 1e6,
        "html.nodes": total("html.parse", "nodes"),
        "selector.compile_calls": len(by.get("selector.compile", ())),
        "selector.compile_cpu_s": cpu("selector.compile"),
        "selector.query_calls": len(by.get("selector.query", ())),
        "selector.query_cpu_s": cpu("selector.query"),
        "selector.matches": total("selector.query", "matches"),
    }
    for key in (
        "checkpoint.waves",
        "checkpoint.wave_s_sum",
        "checkpoint.commit_s",
        "checkpoint.files_written",
        "checkpoint.bytes_written",
        "driver.wait_s",
        "driver.out_mb",
    ):
        m[key] = job.get(key, 0)
    return m


def summarize(jobs: "list[dict]", spans: "list[dict]") -> dict:
    """Per-layer metrics of a traced run: the median over traced jobs of each
    per-job value, the worst first-block delay, and the tracing overhead as
    the docs/s difference between traced and untraced jobs of the run."""
    traced_jobs = [j for j in jobs if j["traced"]]
    plain_jobs = [j for j in jobs if not j["traced"]]
    per_job = assign(spans, [(j["start"], j["end"]) for j in traced_jobs])
    layers = [job_layers(s, j) for s, j in zip(per_job, traced_jobs)]
    out = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    out["read.first_block_s_max"] = max(m["read.first_block_s"] for m in layers)
    traced_rate = statistics.median(j["docs_per_s"] for j in traced_jobs)
    plain_rate = statistics.median(j["docs_per_s"] for j in plain_jobs)
    out["trace.docs_per_s"] = traced_rate
    out["trace.untraced_docs_per_s"] = plain_rate
    out["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    return out
