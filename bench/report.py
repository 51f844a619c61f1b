"""Every metric of every workload in one table.

    python3 bench/report.py [--seed N] [--seconds S]   (from the root of a checkout)

Runs bench/run.py once per workload untraced and once traced, then prints
markdown tables: the end-to-end metrics with their sample counts and the
failed share with its base count, the per-layer metrics side by side, the
per-call medians next to the reference figures of ROADMAP item 1, and the
failures of frame's stress probe by kind and reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ENTRY_POINT_WORKLOAD, WORKLOADS

# Per-call microseconds from ROADMAP item 1 (single runs, 2 cores); a sanity
# check only, never a gate.
ROADMAP_US = {
    "group.spinor_compose": 51,
    "group.so3c_from_spinor": 34,
    "group.lorentz4_from_spinor": 45,
    "stabilizer.classify": 21,
    "stabilizer.canonical_frame": 199,
    "factorization.factor_rotation_boost": 78,
    "electrodynamics.constitutive_forward": 11,
    "electrodynamics.covariance_residual": 77,
}


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    script = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(result_line), json.loads(report_line)["report"]


def fmt(x) -> str:
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    runs = {(w, t): bench(w, args.seed, args.seconds, t) for w in WORKLOADS for t in (0, 1)}

    env = runs[WORKLOADS[0], 0][1]["environment"]
    print(f"seed {args.seed}, {args.seconds:g} s per run; CPU {env['cpu_model']}, nproc {env['nproc']}, "
          f"Python {env['python']}, numpy {env['numpy']}, commit {env['git_commit']}\n")

    print("| workload | " + " | ".join(runs[WORKLOADS[0], 0][0]["metrics"]) + " | failed_share | correct |")
    print("|---" * (len(runs[WORKLOADS[0], 0][0]["metrics"]) + 3) + "|")
    for w in WORKLOADS:
        result, report = runs[w, 0]
        cells = [f"{fmt(m['value'])} {m['unit']}" for m in result["metrics"].values()]
        cells[0] += f" (n={report['samples']['setup_s']})"
        n = report["samples"]
        cells[1] += f" (n={n['records']})"
        cells[2] += f" (of {n['distinct_records']} records)"
        cells[3] += f" ({n['records_beyond_p90']} above)"
        share = report["failed_share"]
        cells.append(f"{share['value']:.4f} ({share['failed']}/{share['attempted']})")
        cells.append(str(result["correct"]))
        print(f"| {w} | " + " | ".join(cells) + " |")

    print("\n| per-layer metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---" * (len(WORKLOADS) + 2) + "|")
    for name, m in runs[WORKLOADS[0], 1][0]["metrics"].items():
        values = [fmt(runs[w, 1][0]["metrics"][name]["value"]) for w in WORKLOADS]
        print(f"| {name} | {m['unit']} | " + " | ".join(values) + " |")

    print("\n| entry point | ROADMAP item 1 us | measured us | on workload |")
    print("|---|---|---|---|")
    for name in (k[: -len(".us_p50")] for k in runs[WORKLOADS[0], 1][0]["metrics"] if k.endswith(".us_p50")):
        owner = ENTRY_POINT_WORKLOAD[name.split(".")[0]]
        value = runs[owner, 1][0]["metrics"][f"{name}.us_p50"]["value"]
        print(f"| {name} | {ROADMAP_US.get(name, '-')} | {fmt(value)} | {owner} |")

    for w in WORKLOADS:
        for part in ("failed_share", "stress_probe"):
            share = runs[w, 0][1][part]
            if share["failed"]:
                print(f"\n{w} {part}: {share['failed']} of {share['attempted']} failed (untraced run): "
                      + ", ".join(f"{k} {v}" for k, v in share["reasons"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
