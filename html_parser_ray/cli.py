"""CLI entry point for cluster runs (``ray job submit -- python -m
html_parser_ray.cli extract ...``).

Owns its Ray session (guarded init — the only places allowed to init are this
CLI, the benchmark under ``perfbench/`` and the pytest fixture).
"""

from __future__ import annotations

import argparse
import json


def _load_entry_queries() -> dict:
    """Load the driver contract's queries() without importing Ray (the repo
    root isn't a package; __ray_entry__ lives beside it)."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "__ray_entry__",
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "__ray_entry__.py",
        ),
    )
    entrymod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(entrymod)
    return entrymod.queries()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="html_parser_ray")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_extract = sub.add_parser("extract", help="run the extraction pipeline")
    p_extract.add_argument("--input", required=True, help="parquet corpus path")
    p_extract.add_argument("--output", required=True, help="output root")
    p_extract.add_argument("--num-partitions", type=int, default=64)
    p_extract.add_argument(
        "--batch-size", type=int, default=None,
        help="rows per extract batch (default: sized from the parquet footers)",
    )
    p_extract.add_argument("--no-resume", action="store_true",
                           help="ignore existing manifest (reprocess everything)")

    p_verify = sub.add_parser(
        "verify", help="span-sequence invariant self-check on committed output"
    )
    p_verify.add_argument("--input", required=True)
    p_verify.add_argument("--output", required=True)
    p_verify.add_argument("--sample-docs", type=int, default=100)

    p_gen = sub.add_parser("generate-corpus", help="write a synthetic corpus")
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--num-docs", type=int, default=10000)
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--giant-doc-every", type=int, default=0)

    p_conf = sub.add_parser(
        "conformance",
        help="run the tree-construction suites and write a report "
        "(analog of the reference's `zig build conformance`)",
    )
    p_conf.add_argument(
        "--report", default=None, help="write the JSON report here (default stdout only)"
    )
    p_conf.add_argument("--max-cases", type=int, default=None)

    p_query = sub.add_parser(
        "query",
        help="run any named pipeline from the contract over an sf dir "
        "(--list to enumerate all of them)",
    )
    p_query.add_argument("name", nargs="?", help="query name (see --list)")
    p_query.add_argument("--list", action="store_true", help="list query names")
    p_query.add_argument(
        "--sf-dir", default="/root/testdata/sf0.01", help="input table directory"
    )
    p_query.add_argument(
        "--out", default=None, help="write the full result here as parquet"
    )
    p_query.add_argument(
        "--head", type=int, default=10, help="rows to print (default 10)"
    )

    args = parser.parse_args(argv)

    if args.cmd == "conformance":
        # single-process, no Ray needed (per-document engine check; the
        # reference's runExternalSuites shape, tools/scripts.zig:2180+)
        import os

        from html_parser_ray.conformance import run_dat_file

        data_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "tests",
            "data",
        )
        report: dict = {"suites": {}}
        for fname in (
            "tree_construction.dat",
            "whatwg_extra.dat",
            "html5lib_reconstructed.dat",
            "html5lib_reconstructed2.dat",
            "html5lib_reconstructed3.dat",
            "html5lib_reconstructed4.dat",
            "wpt_reconstructed.dat",
            "wpt_reconstructed2.dat",
            "wpt_reconstructed3.dat",
        ):
            r = run_dat_file(os.path.join(data_dir, fname), args.max_cases)
            report["suites"][fname] = {
                "total": r.total,
                "passed": r.passed,
                "failed": r.failed,
                "failures": [
                    {
                        "case": idx,
                        "input_preview": html[:100],
                        "expected": exp,
                        "actual": got,
                    }
                    for idx, html, exp, got in r.failures[:10]
                ],
            }
        report["total"] = sum(s["total"] for s in report["suites"].values())
        report["passed"] = sum(s["passed"] for s in report["suites"].values())
        out = json.dumps(report, indent=1)
        if args.report:
            with open(args.report, "w") as f:
                f.write(out)
        print(
            json.dumps(
                {
                    "passed": report["passed"],
                    "total": report["total"],
                    **{k: f"{v['passed']}/{v['total']}" for k, v in report["suites"].items()},
                }
            )
        )
        return 0 if report["passed"] / max(1, report["total"]) >= 0.8 else 2

    if args.cmd == "generate-corpus":
        from html_parser_ray.sources.corpus import write_corpus_parquet

        write_corpus_parquet(
            args.output,
            args.num_docs,
            seed=args.seed,
            giant_doc_every=args.giant_doc_every,
        )
        print(json.dumps({"written": args.num_docs, "path": args.output}))
        return 0

    queries = None
    if args.cmd == "query":
        # load + validate BEFORE paying a Ray session (a typo'd name or a
        # plain --list must not spin a cluster connection)
        queries = _load_entry_queries()
        if args.list:
            for name in queries:
                print(name)
            return 0
        if not args.name:
            print("query: a name is required (or --list)")
            return 1
        if args.name not in queries:
            print(f"unknown query {args.name!r}; see --list")
            return 1

    import ray

    # shut down only a session WE created: an embedding caller (the
    # benchmark, pytest fixture) owns its session and must get it back intact
    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(include_dashboard=False)
    try:
        if args.cmd == "extract":
            import shutil

            from html_parser_ray.state.checkpoint import run_resumable_extraction

            if args.no_resume:
                shutil.rmtree(args.output, ignore_errors=True)
            summary = run_resumable_extraction(
                args.input,
                args.output,
                num_partitions=args.num_partitions,
                batch_size=args.batch_size,
            )
            print(json.dumps(summary))
            return 0
        if args.cmd == "verify":
            from html_parser_ray.state.checkpoint import verify_sample

            res = verify_sample(
                args.output, args.input, sample_docs=args.sample_docs
            )
            print(json.dumps(res))
            return 0 if res["mismatches"] == 0 else 2
        if args.cmd == "query":
            import pandas as pd

            import ray.data

            result = queries[args.name](args.sf_dir)
            if isinstance(result, ray.data.Dataset):
                if args.out:
                    # partitioned parquet dir (never one giant file);
                    # overwrite — Ray's default APPEND would silently
                    # duplicate rows on a re-run of the same command
                    result.write_parquet(args.out, mode="overwrite")
                    n = ray.data.read_parquet(args.out).count()
                else:
                    # materialize once: count + head off the same execution
                    m = result.materialize()
                    n = m.count()
                    print(m.limit(args.head).to_pandas().to_string(index=False))
            else:
                df = result if isinstance(result, pd.DataFrame) else result.to_pandas()
                n = len(df)
                if args.out:
                    df.to_parquet(args.out)
                else:
                    print(df.head(args.head).to_string(index=False))
            print(json.dumps({"query": args.name, "rows": int(n), "out": args.out}))
            return 0
        return 1
    finally:
        if owns_session:
            ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
