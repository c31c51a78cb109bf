"""Extraction benchmark: seeded workloads, output checks and layer tracing.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""

WORKLOADS = ("html_stream", "media_zipf", "giant_resumable", "dom_select")
