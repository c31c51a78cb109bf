"""CLI end-to-end smoke (the ray job submit entry path) in a subprocess with
its own Ray session."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest


@pytest.mark.slow
def test_cli_generate_and_extract(tmp_path):
    env = {**os.environ, "PYTHONPATH": "/root/repo"}
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "out")

    gen = subprocess.run(
        [sys.executable, "-m", "html_parser_ray.cli", "generate-corpus",
         "--output", corpus, "--num-docs", "40"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=120,
    )
    assert gen.returncode == 0, gen.stderr[-2000:]
    assert json.loads(gen.stdout.splitlines()[-1])["written"] == 40

    ext = subprocess.run(
        [sys.executable, "-m", "html_parser_ray.cli", "extract",
         "--input", corpus, "--output", out,
         "--num-partitions", "4", "--batch-size", "16"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert ext.returncode == 0, ext.stderr[-2000:]
    summary = json.loads(ext.stdout.splitlines()[-1])
    assert summary["rows"] == 40
    assert summary["partitions_done"] == 4
    assert os.path.isdir(os.path.join(out, "_manifest"))


@pytest.mark.slow
def test_cli_verify(tmp_path):
    env = {**os.environ, "PYTHONPATH": "/root/repo"}
    corpus = str(tmp_path / "c")
    out = str(tmp_path / "o")
    for args in (
        ["generate-corpus", "--output", corpus, "--num-docs", "20"],
        ["extract", "--input", corpus, "--output", out,
         "--num-partitions", "2", "--batch-size", "8"],
        ["verify", "--input", corpus, "--output", out, "--sample-docs", "10"],
    ):
        p = subprocess.run(
            [sys.executable, "-m", "html_parser_ray.cli", *args],
            capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
        )
        assert p.returncode == 0, (args[0], p.stderr[-1500:])
    assert json.loads(p.stdout.splitlines()[-1]) == {"checked": 10, "mismatches": 0}


def test_cli_conformance(tmp_path):
    """`conformance` subcommand runs the .dat suites and writes a report
    (the reference's `zig build conformance` analog)."""
    env = {**os.environ, "PYTHONPATH": "/root/repo"}
    report = str(tmp_path / "report.json")
    p = subprocess.run(
        [sys.executable, "-m", "html_parser_ray.cli", "conformance",
         "--report", report],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=120,
    )
    assert p.returncode == 0, p.stderr[-1500:]
    summary = json.loads(p.stdout.splitlines()[-1])
    assert summary["passed"] >= 575 and summary["total"] >= 660
    rep = json.loads(open(report).read())
    assert {"tree_construction.dat", "whatwg_extra.dat",
            "html5lib_reconstructed3.dat", "wpt_reconstructed3.dat"} <= set(
        rep["suites"]
    )
    for s in rep["suites"].values():
        assert s["failures"]  # honest failures recorded with expected/actual


def test_cli_query_list_and_run(tmp_path):
    """The generic query runner: --list enumerates the full contract,
    a run prints rows + a JSON tail, --out writes readable parquet."""
    env = {**os.environ, "PYTHONPATH": "/root/repo"}
    ls = subprocess.run(
        [sys.executable, "-m", "html_parser_ray.cli", "query", "--list"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=120,
    )
    assert ls.returncode == 0, ls.stderr[-1500:]
    names = ls.stdout.split()
    assert len(names) >= 90 and "doc_weighted_sample" in names

    out = str(tmp_path / "res.parquet")
    p = subprocess.run(
        [sys.executable, "-m", "html_parser_ray.cli", "query",
         "doc_weighted_sample", "--sf-dir", "/root/testdata/sf0.001",
         "--out", out],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=300,
    )
    assert p.returncode == 0, p.stderr[-1500:]
    tail = json.loads(p.stdout.splitlines()[-1])
    assert tail["rows"] == 100 and tail["out"] == out

    import pandas as pd

    assert len(pd.read_parquet(out)) == 100

    bad = subprocess.run(
        [sys.executable, "-m", "html_parser_ray.cli", "query", "nope"],
        capture_output=True, text=True, env=env, cwd="/root/repo", timeout=120,
    )
    assert bad.returncode == 1
