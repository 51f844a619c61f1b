"""Quick self-check of the benchmark itself, about half a minute.

    python3 bench/selfcheck.py        (from the root of a checkout)

For each workload, on a handful of records, in untraced and traced mode:

1. every metric BENCHMARK.json names is reported, as a finite number with
   the unit BENCHMARK.json gives it;
2. every ``*.calls_per_record`` count is identical across two traced runs
   with the same seed;
3. the entry-point medians and cli.* costs are measured (nonzero) on the
   workload that exercises them and read 0 on the others;
4. deliberately corrupted outputs, including stubs that skip the work of a
   frame stage, are counted as failed and make the run incorrect;
5. frame checks its whole stress probe in both modes, and the other
   workloads have none.

Prints one line per check and exits with code 1 at the first failure.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys

import run

SEED = 7
RECORDS = {"frame": 20, "fields": 20, "cli": 4}


def expect(ok: bool, what: str) -> None:
    print(f"selfcheck: {'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def corruptions(wl, workload: str) -> list:
    """(description, owner, attribute, replacement) of wrong outputs to inject.

    Beside outputs that are slightly off, the frame stubs return the trivial
    answers of the three costliest stages: an identity frame, an identity
    stabilizer element and an identity factor.  Each must be caught.
    """
    if workload == "frame":
        import numpy as np

        from ncframe import group

        st, fz = wl.stabilizer, wl.factorization
        canonical_frame, stabilizer_element = st.canonical_frame, st.stabilizer_element
        identity = group.SpinorElement(1.0, [0.0, 0.0, 0.0])

        def kcanon_off(K, *args, **kwargs):
            S, kcanon = canonical_frame(K, *args, **kwargs)
            return S, kcanon * (1.0 + 1e-6)

        def frame_stub(K, *args, **kwargs):
            return group.ComplexRotation(np.eye(3, dtype=complex)), np.asarray(K, dtype=complex)

        def element_stub(gamma, delta):
            element = stabilizer_element(0.0, delta)
            return st.StabilizerElement("non-isotropic", identity, element.rotation, gamma=gamma, delta=delta)

        def factor_stub(b):
            return fz.RotationBoostPair(b, identity, fz.FactorOrder.ROTATION_FIRST, 1)

        return [
            ("K_canonical scaled by 1 + 1e-6", st, "canonical_frame", kcanon_off),
            ("canonical_frame returns (identity, K)", st, "canonical_frame", frame_stub),
            ("stabilizer_element returns the identity", st, "stabilizer_element", element_stub),
            ("factor_rotation_boost returns (source, identity, 1)", fz, "factor_rotation_boost", factor_stub),
        ]
    if workload == "fields":
        ed = wl.electrodynamics
        forward = ed.constitutive_forward
        return [
            ("h scaled by 1 + 1e-6", ed, "constitutive_forward", lambda f, K: forward(f, K) * (1.0 + 1e-6)),
            ("dual residual always 0", ed, "dual_invariance_residual", lambda f, K, chi: 0.0),
        ]
    spawn = wl.spawn

    def digit_flipped(argv, stdin, env):
        code, out, seconds, rss = spawn(argv, stdin, env)
        i = next(i for i, c in enumerate(out) if chr(c).isdigit())
        flipped = str((int(chr(out[i])) + 1) % 10).encode()
        return code, out[:i] + flipped + out[i + 1:], seconds, rss

    return [("one digit of the output flipped", wl, "spawn", digit_flipped)]


@contextlib.contextmanager
def patched(owner, name: str, value):
    """Replace owner.name inside this process only."""
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wl = run.load_workloads()
    for workload in run.WORKLOADS:
        n = RECORDS[workload]
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, report = run.measure(workload, SEED, 60, trace, max_records=n)
            expect(result["correct"] and result["attempted"] >= n,
                   f"{workload} trace={int(trace)}: correct on {result['attempted']} records")
            probe = report["stress_probe"]["attempted"]
            want_probe = len(wl.STRESS_BLOCK) * wl.STRESS_BLOCKS if workload == "frame" else 0
            expect(probe == want_probe, f"{workload} trace={int(trace)}: stress probe of {probe} records")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            finite = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            expect(got == want and finite, f"{workload} trace={int(trace)}: {len(want)} {group} metrics with units")
            if trace:
                owned = [k for k in want if k in run.CLI_COSTS or k.endswith(".us_p50")]
                mine = [k for k in owned if (workload == "cli" if k in run.CLI_COSTS
                                             else run.ENTRY_POINT_WORKLOAD[k.split(".")[0]] == workload)]
                measured = all((result["metrics"][k]["value"] > 0) == (k in mine) for k in owned)
                expect(measured, f"{workload}: {len(mine)} entry-point and cli costs measured here, "
                                 f"{len(owned) - len(mine)} others 0")
                again, _ = run.measure(workload, SEED, 60, trace, max_records=n)
                counts = [k for k in want if k.endswith(".calls_per_record")]
                same = all(result["metrics"][k]["value"] == again["metrics"][k]["value"] for k in counts)
                expect(same, f"{workload}: {len(counts)} calls_per_record counts repeat for seed {SEED}")
        for what, owner, name, value in corruptions(wl, workload):
            with patched(owner, name, value):
                result, _ = run.measure(workload, SEED, 60, False, max_records=n)
            expect(result["failed"] > 0 and not result["correct"],
                   f"{workload}: {what}: counted as failed ({result['failed']} of {result['attempted']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
