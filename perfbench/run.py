"""Extraction benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload media_zipf --seed 1 --seconds 30 --trace 0

Run from the repository root. Workloads: ``html_stream``, ``media_zipf``,
``giant_resumable`` (Ray Data pipelines, one extract actor) and
``dom_select`` (``parse_html`` + ``query_all`` in-process). With
``--trace 0`` the last line of standard output is one JSON object with the
end-to-end metrics (``docs_per_s``, ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` it holds the per-layer metrics of a traced run instead. The line
before it records the host, the program and every job of the run.

Everything the run writes stays under ``.perfbench/`` in the root: the
compiled native kernels (via ``HOME``), temp files, Ray's session directory
when its socket paths fit, and the generated inputs. Every process the run
starts carries the run's token in its environment, and the run stops them
all before it exits. The measured part runs in a child process under a
deadline; a run past the deadline is stopped and reported with every
document failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import uuid

DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0
# <tmp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store must fit
# AF_UNIX's 107 bytes
RAY_TMP_MAX = 43


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "html_parser_ray")
    for d, dirs, files in os.walk(pkg):
        dirs.sort()
        for f in sorted(files):
            if f.endswith((".py", ".c")):
                path = os.path.join(d, f)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> "str | None":
    try:
        r = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def child_env(root: str, work: str, token: str) -> dict:
    from perfbench.procs import TOKEN_ENV

    env = dict(os.environ)
    env.update(
        HOME=os.path.join(work, "home"),
        TMPDIR=os.path.join(work, "tmp"),
        PYTHONPATH=os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p),
        RAY_USAGE_STATS_ENABLED="0",
    )
    env[TOKEN_ENV] = token
    for key in ("HOME", "TMPDIR"):
        os.makedirs(env[key], exist_ok=True)
    return env


def main(argv: "list[str] | None" = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "html_parser_ray", "__init__.py")):
        print("perfbench: run from the repository root (html_parser_ray/ not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    from perfbench import WORKLOADS, procs

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    work = os.path.join(root, ".perfbench")
    run_dir = os.path.join(work, "run")
    ray_tmp = os.path.join(work, "r")
    for d in (run_dir, ray_tmp):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(run_dir)
    token = uuid.uuid4().hex
    env = child_env(root, work, token)
    job = [sys.executable, "-m", "perfbench.job", "--work", run_dir]
    start = time.monotonic()

    # build (compile the native kernels on first use) outside the deadline
    t0 = time.monotonic()
    try:
        built = subprocess.run(job + ["--build"], cwd=root, env=env, capture_output=True,
                               text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        built = None
    build_s = time.monotonic() - t0
    if built is None or built.returncode != 0:
        procs.stop(procs.token_pids(token))
        detail = "timed out" if built is None else (built.stdout + built.stderr)[-2000:]
        print(f"perfbench: native kernels unavailable: {detail}", file=sys.stderr)
        return 3

    result_path = os.path.join(run_dir, "result.json")
    log_path = os.path.join(run_dir, "job.log")
    cmd = job + [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", result_path,
        "--ray-tmp", ray_tmp if len(ray_tmp) <= RAY_TMP_MAX else "",
    ]
    timed_out = False
    with open(log_path, "w") as log:
        child = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = child.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - start - build_s)))
        except subprocess.TimeoutExpired:
            timed_out = True
            procs.stop(procs.token_pids(token), grace_s=2.0)
            rc = child.wait()
    left = procs.stop(procs.token_pids(token))

    if timed_out:
        # every document of the run fails; before the inputs exist, one
        # unit of work stands for the whole run
        docs = 1
        plan = os.path.join(run_dir, "plan.json")
        if os.path.exists(plan):
            with open(plan) as f:
                docs = json.load(f)["docs_per_job"]
        res = {"info": {"timed_out": True}, "correct": False, "attempted": docs, "failed": docs, "metrics": {}}
    elif rc != 0 or not os.path.exists(result_path):
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        print(f"perfbench: run failed (exit {rc})", file=sys.stderr)
        return 1
    else:
        with open(result_path) as f:
            res = json.load(f)
    info = res.pop("info")
    info.update(
        git_commit=git_commit(root),
        source_sha256=source_digest(root),
        build_s=build_s,
        ray_tmp=ray_tmp if len(ray_tmp) <= RAY_TMP_MAX else "ray default",
        processes_left=left,
    )
    for d in (run_dir, ray_tmp):
        shutil.rmtree(d, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps(res))
    return 1 if timed_out else 0


if __name__ == "__main__":
    sys.exit(main())
