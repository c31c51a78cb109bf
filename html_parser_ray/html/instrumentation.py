"""Instrumentation hooks: parse/query timing stats.

Python analog of the reference's duck-typed hook structs
(ref: src/debug/instrumentation.zig:6-188): any object exposing optional
``on_parse_start/on_parse_end/on_query_start/on_query_end`` callables receives
stats records. This module is the single-document API surface. In the Ray
pipeline the extract stage counts its work (docs, spans, html bytes, parse
errors) in ``ExtractStats``, per worker process and run, and each committed
partition's manifest carries its ``row_count`` and ``span_count``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from html_parser_ray.html.document import Document, parse_html


@dataclass(frozen=True)
class ParseInstrumentationStats:
    # ref: src/debug/instrumentation.zig ParseInstrumentationStats
    elapsed_ns: int
    input_len: int
    node_count: int


@dataclass(frozen=True)
class QueryInstrumentationStats:
    # ref: src/debug/instrumentation.zig QueryInstrumentationStats
    elapsed_ns: int
    selector_len: int
    kind: str  # "one" | "all"
    matched: bool


def parse_with_hooks(source: bytes | str, hooks, drop_whitespace_text: bool = False) -> Document:
    start_cb = getattr(hooks, "on_parse_start", None)
    if start_cb is not None:
        start_cb()
    t0 = time.perf_counter_ns()
    doc = parse_html(source, drop_whitespace_text)
    elapsed = time.perf_counter_ns() - t0
    end_cb = getattr(hooks, "on_parse_end", None)
    if end_cb is not None:
        end_cb(
            ParseInstrumentationStats(
                elapsed_ns=elapsed,
                input_len=len(doc.source),
                node_count=len(doc.kind),
            )
        )
    return doc


def query_one_with_hooks(doc: Document, selector: str, hooks, scope_root=None):
    start_cb = getattr(hooks, "on_query_start", None)
    if start_cb is not None:
        start_cb()
    t0 = time.perf_counter_ns()
    result = doc.query_one(selector, scope_root)
    elapsed = time.perf_counter_ns() - t0
    end_cb = getattr(hooks, "on_query_end", None)
    if end_cb is not None:
        end_cb(
            QueryInstrumentationStats(
                elapsed_ns=elapsed,
                selector_len=len(selector),
                kind="one",
                matched=result is not None,
            )
        )
    return result


def query_all_with_hooks(doc: Document, selector: str, hooks, scope_root=None):
    start_cb = getattr(hooks, "on_query_start", None)
    if start_cb is not None:
        start_cb()
    t0 = time.perf_counter_ns()
    result = doc.query_all(selector, scope_root)
    elapsed = time.perf_counter_ns() - t0
    end_cb = getattr(hooks, "on_query_end", None)
    if end_cb is not None:
        end_cb(
            QueryInstrumentationStats(
                elapsed_ns=elapsed,
                selector_len=len(selector),
                kind="all",
                matched=bool(result),
            )
        )
    return result
