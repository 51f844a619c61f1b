"""Alternating A/B pairs of the benchmark: a parent commit against a change.

    python3 tools/ab_pairs.py --base REV [--change REV] [--workloads frame fields cli]
        [--seed 7] [--pairs 10] [--seconds 30] --out BENCH_name.json
        [--claim "frame records_per_s"] [--notes TEXT]

Each side runs in a fresh tree: the parent is extracted with ``git archive
REV``, as the bit-identity step of CI extracts its base, and the change is
``git archive`` of ``--change`` or, without it, a copy of the files of the
checkout holding this script as they are on disk (tracked and untracked, not
ignored).  Neither tree holds a bytecode cache, so neither side starts warm.

For each workload, pair i runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` once in each tree: the parent first in even pairs,
the change first in odd ones, so that a drift of the host favours neither
side.  The JSON written to ``--out`` has, per workload and per end-to-end
metric of the change's BENCHMARK.json, the median, the quartiles (inclusive
method) and the runs of each side in pair order, and ``change_won``: in how
many pairs the change was better.  ``failed_records`` sums the records that
failed their check over all runs of a workload; a run that reports itself
incorrect stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def archive(rev: str, dest: str) -> None:
    """Extract the tree of commit ``rev`` of the checkout into ``dest``."""
    git = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        raise SystemExit(f"git archive {rev} failed")


def copy_checkout(dest: str) -> None:
    """Copy the checkout's tracked and untracked, not ignored, files into ``dest``."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        stdout=subprocess.PIPE, check=True,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a tracked file deleted on disk is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one untraced benchmark run in ``tree``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} in {tree}: run incorrect, {result['failed']} failed records")
    return result


def summary(runs: list) -> dict:
    q = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": round(statistics.median(runs), 4), "quartiles": [round(q[0], 4), round(q[2], 4)],
            "runs": [round(x, 4) for x in runs]}


def compare(workload: str, seed: int, pairs: int, seconds: float, trees: dict, metrics: list) -> dict:
    """Run ``pairs`` alternating pairs of one workload; the JSON entry of its metrics."""
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    failed = 0
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(trees[side], workload, seed, seconds)
            failed += result["failed"]
            for name, vals in values[side].items():
                vals.append(result["metrics"][name]["value"])
            rate = result["metrics"]["records_per_s"]["value"]
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: {rate:.4g} records/s", file=sys.stderr)
    entry = {}
    for m in metrics:
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        higher = m["better"] == "higher"
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        entry[m["name"]] = {"parent": summary(parent), "change": summary(change), "change_won": f"{won}/{pairs}"}
    entry["failed_records"] = failed
    return entry


def host() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = f", numpy {numpy.__version__}"
    except ImportError:
        numpy_version = ""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"{cores} cores of {cpu}, CPython {platform.python_version()}{numpy_version}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit of the parent side")
    parser.add_argument("--change", help="commit of the change side (default: the checkout on disk)")
    parser.add_argument("--workloads", nargs="+", default=["frame", "fields", "cli"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="path of the JSON to write")
    parser.add_argument("--claim", help='the claimed metric, as "workload metric"')
    parser.add_argument("--notes", help="free text stored under notes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for tree in trees.values():
            os.mkdir(tree)
        archive(args.base, trees["parent"])
        if args.change:
            archive(args.change, trees["change"])
        else:
            copy_checkout(trees["change"])
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        what = (f"alternating pairs of `python3 bench/run.py --workload W --seed {args.seed} "
                f"--seconds {args.seconds:g} --trace 0`, {args.base} against "
                f"{args.change or 'the checkout'}, runs listed in pair order")
        doc = {"what": what, "host": host(), "claim": args.claim, "workloads": {}}
        for workload in args.workloads:
            doc["workloads"][f"{workload} seed {args.seed}"] = compare(
                workload, args.seed, args.pairs, args.seconds, trees, metrics)
        if args.notes:
            doc["notes"] = args.notes
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
