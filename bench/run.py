"""ncframe benchmark: one workload per run, one client in a closed loop.

Run from the root of a checkout (the program under test is its src/ncframe):

    python3 bench/run.py --workload {frame,fields,cli} --seed N --seconds S --trace {0,1}

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is {"report": ...}: environment, input hash,
sample counts, failed share with its base count, and failure reasons.

All times are scaled to a reference host speed (hostspeed.py): a fixed
calibration kernel that never calls ncframe is timed between rounds of
records, and each time is multiplied by REFERENCE_NS over the kernel time
around it.  The unscaled figures are in the report under "raw".

--trace 0 measures the end-to-end metrics.  Records are drawn in order from
the seeded pool (cycling) until S seconds have passed; each record is timed
on its own and its outputs are checked right after, outside the timed
region.  records_per_s is records over the summed record times (one client,
closed loop); record_us_p50 and record_us_p90 are percentiles over the pool's
records of each record's mean time in the run.  setup_s is the median of
several fresh processes that import ncframe and build the inputs
(bench/probe.py).

--trace 1 measures the per-layer metrics.  Passes over a fixed prefix of the
pool alternate untraced and traced until S seconds have passed, so the call
counts repeat exactly for a seed and trace_overhead compares like with like.
frame and fields also time the entry points of the layers they exercise
(ENTRY_POINT_WORKLOAD) one call at a time on seeded inputs from
ncframe.sampling, and cli times the interpreter, import and in-process main()
costs; the other workloads report 0 for these.  Spans of the first traced
pass are written to .bench_out/spans-<workload>-seed<N>.tsv.

Every record of the timed stream must pass its check; one that fails makes
the run incorrect.  frame records drawn at extreme scale or large rapidity
(workloads.STRESS_BLOCK) expose known numerical defects, so they are kept
out of the timed stream: after the measurement each run checks a fixed,
seeded set of them once, untimed, and reports the failures under
"stress_probe", and the traced run as stress.failed_share.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from hostspeed import REFERENCE_NS, HostSpeed  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("frame", "fields", "cli")
SETUP_PROBES = 5
WARMUP = {"frame": 40, "fields": 40, "cli": 2}
ROUND = {"frame": 50, "fields": 50, "cli": 1}  # records between host-speed samples
CLI_PROBES = 7       # interpreter / import start-ups per traced run
CLI_MAIN_REPEATS = 3
PER_CALL_INPUTS = 40
PER_CALL_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "record_us_p50": "us",
    "record_us_p90": "us",
    "peak_rss_mib": "MiB",
}
# Each entry point is timed only in the traced run of the workload that
# exercises its layer, and the cli.* costs only in the traced cli run; the
# other workloads report 0 for them, as for a layer they do not call.
ENTRY_POINT_WORKLOAD = {"group": "frame", "stabilizer": "frame", "factorization": "frame",
                        "electrodynamics": "fields"}
CLI_COSTS = ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms")
ENTRY_POINTS = (
    "group.spinor_compose",
    "group.so3c_from_spinor",
    "group.lorentz4_from_spinor",
    "stabilizer.classify",
    "stabilizer.canonical_frame",
    "stabilizer.stabilizer_element",
    "factorization.factor_rotation_boost",
    "factorization.factor_isotropic",
    "electrodynamics.constitutive_forward",
    "electrodynamics.covariance_residual",
    "electrodynamics.dual_invariance_residual",
)


def _per_layer_units() -> dict:
    from tracer import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_record"] = "count"
        units[f"{layer}.busy_us_per_record"] = "us"
        units[f"{layer}.self_us_per_record"] = "us"
        units[f"{layer}.failed"] = "count"
    units["group.validations_per_record"] = "count"
    units.update({f"{name}.us_p50": "us" for name in ENTRY_POINTS})
    units.update(dict.fromkeys(CLI_COSTS, "ms"))
    units["trace_overhead"] = "ratio"
    units["stress.failed_share"] = "ratio"
    return units


class ProgramMissing(RuntimeError):
    """The checkout holds no ncframe sources (or they are not the ones imported)."""


def load_workloads():
    """Import the checkout's ncframe and the workload module."""
    if not os.path.isfile(os.path.join(SRC, "ncframe", "__init__.py")):
        raise ProgramMissing(f"no ncframe package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ncframe

    if os.path.dirname(os.path.dirname(os.path.abspath(ncframe.__file__))) != SRC:
        raise ProgramMissing(f"ncframe imported from {ncframe.__file__}, not {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Bookkeeping.
# ---------------------------------------------------------------------------

class Tally:
    """Records attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def add(self, rec, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            self.reasons[f"{rec.kind}:{reason}"] += 1

    def summary(self) -> dict:
        return {
            "value": self.failed / self.attempted if self.attempted else 0.0,
            "failed": self.failed,
            "attempted": self.attempted,
            "reasons": dict(sorted(self.reasons.items())),
        }


def one(rec, run, check, tally: Tally) -> int:
    """Run one record, timed; check its outputs untimed.  Returns nanoseconds."""
    start = time.perf_counter_ns()
    try:
        out = run(rec)
    except Exception as exc:  # a library error is a failed record, not a crash
        elapsed = time.perf_counter_ns() - start
        tally.add(rec, f"raised {type(exc).__name__}")
        return elapsed
    elapsed = time.perf_counter_ns() - start
    try:
        reason = check(rec, out)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}"
    tally.add(rec, reason)
    return elapsed


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


@contextlib.contextmanager
def golden_input_files(cases):
    """Each golden case's input written to a file in the checkout, removed on exit."""
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        paths = {}
        for rec in cases:
            paths[rec.kind] = os.path.join(tmp, f"{rec.kind}.json")
            with open(paths[rec.kind], "wb") as fh:
                fh.write(rec.stdin)
        yield paths
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0).
# ---------------------------------------------------------------------------

def setup_seconds(workload: str, seed: int, expected_sha: str, env: dict) -> tuple[list, list, bool]:
    """Set-up times of fresh probe processes, raw and scaled to the reference
    host, and whether every probe built the same inputs."""
    raw, scaled, same = [], [], True
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        seconds, sha, kernel_ns = proc.stdout.split()
        raw.append(float(seconds))
        scaled.append(float(seconds) * REFERENCE_NS / int(kernel_ns))
        same = same and sha == expected_sha
    return raw, scaled, same


def latency_metrics(times: dict) -> dict:
    """Rate and latency percentiles of one run.

    ``times`` maps each pool record to its record times (ns) in the run; the
    pool cycles, so each record runs many times.  The rate counts every
    timing.  The percentiles are taken over the records, of each record's
    mean time, so that a burst on the host during one run of a record is
    spread over all its runs instead of landing in the tail.  The mean, not
    the median: from run to run it spread less on every workload (see
    bench/BASELINE.md, "Host speed").
    """
    every = [ns for runs in times.values() for ns in runs]
    typical = [statistics.fmean(runs) for runs in times.values()]
    p90 = quantile(typical, 0.9)
    return {
        "records_per_s": len(every) / (sum(every) / 1e9),
        "record_us_p50": quantile(typical, 0.5) / 1e3,
        "record_us_p90": p90 / 1e3,
        "records_beyond_p90": sum(x > p90 for x in typical),
    }


def end_to_end(wl, workload, pool, seed, seconds, max_records):
    env = wl.child_env(ROOT)
    setup_raw, setup, same_inputs = setup_seconds(workload, seed, pool.sha256, env)
    tally = Tally()
    if workload == "cli":
        peak = [0.0]
        argv0 = [sys.executable, "-m", "ncframe.cli"]

        def run(rec):
            code, out, _, rss = wl.spawn([*argv0, *rec.argv], rec.stdin, env)
            peak[0] = max(peak[0], rss)
            return code, out

        check = wl.check_cli
    else:
        run, check = wl.RUNNERS[workload]
    records = pool.records
    for rec in records[: WARMUP[workload]]:
        one(rec, run, check, Tally())
    speed = HostSpeed()
    rounds, done = [], 0  # (pool index, ns) per host-speed sample
    limit = float("inf") if max_records is None else max_records
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and done < limit:
        speed.sample()
        rounds.append([])
        for _ in range(min(ROUND[workload], limit - done)):
            i = done % len(records)
            rounds[-1].append((i, one(records[i], run, check, tally)))
            done += 1
    factors = [speed.factor(i) for i in range(len(rounds))]
    scaled, unscaled = {}, {}  # pool index -> record times (ns)
    for r, f in zip(rounds, factors):
        for i, ns in r:
            scaled.setdefault(i, []).append(ns * f)
            unscaled.setdefault(i, []).append(ns)
    measured = latency_metrics(scaled)
    raw = latency_metrics(unscaled)
    if workload == "cli":
        peak_rss = peak[0]
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setup), **measured, "peak_rss_mib": peak_rss}
    samples = {
        "setup_s": len(setup),
        "records": done,
        "distinct_records": len(scaled),
        "rounds": len(rounds),
        "records_per_round": ROUND[workload],
        "records_beyond_p90": measured.pop("records_beyond_p90"),
    }
    raw.pop("records_beyond_p90")
    extra = {
        "probe_inputs_match": same_inputs,
        "host_speed": {"reference_ns": REFERENCE_NS, "factor_median": speed.factor(),
                       "factor_min": min(factors), "factor_max": max(factors)},
        "raw": {"setup_s": statistics.median(setup_raw), **raw, "setup_samples_s": setup_raw},
    }
    return metrics, samples, tally, same_inputs, extra


# ---------------------------------------------------------------------------
# Traced run (--trace 1).
# ---------------------------------------------------------------------------

def per_call_us(workload: str, seed: int, speed: HostSpeed) -> tuple[dict, dict]:
    """Median microseconds of one call to each entry point that the workload
    exercises, untraced: (raw, scaled).  The others read 0.

    Each entry point is timed in PER_CALL_REPEATS rounds over the inputs; the
    host speed is sampled before each round and scales that round's median,
    and the figure is the median over the rounds, so one mis-scaled round
    does not move it.
    """
    import numpy as np

    from ncframe import electrodynamics as ed
    from ncframe import factorization, group, sampling, stabilizer

    rng = sampling.default_rng(seed)
    n = PER_CALL_INPUTS
    bs = [sampling.random_spinor(rng) for _ in range(n)]
    Ks = [sampling.random_nonisotropic_K(rng) for _ in range(n)]
    deltas = [stabilizer.unit_delta(K)[1] for K in Ks]
    gammas = [sampling.random_gamma(rng) for _ in range(n)]
    isotropic = [group.SpinorElement(1.0, sampling.random_isotropic_k(rng)) for _ in range(n)]
    fs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(n)]
    small_Ks = [0.1 * K / (np.linalg.norm(K) * np.linalg.norm(f)) for K, f in zip(Ks, fs)]
    calls = {
        "group.spinor_compose": lambda i: group.spinor_compose(bs[i], bs[i - 1]),
        "group.so3c_from_spinor": lambda i: group.so3c_from_spinor(bs[i]),
        "group.lorentz4_from_spinor": lambda i: group.lorentz4_from_spinor(bs[i]),
        "stabilizer.classify": lambda i: stabilizer.classify(Ks[i]),
        "stabilizer.canonical_frame": lambda i: stabilizer.canonical_frame(Ks[i]),
        "stabilizer.stabilizer_element": lambda i: stabilizer.stabilizer_element(gammas[i], deltas[i]),
        "factorization.factor_rotation_boost": lambda i: factorization.factor_rotation_boost(bs[i]),
        "factorization.factor_isotropic": lambda i: factorization.factor_isotropic(isotropic[i]),
        "electrodynamics.constitutive_forward": lambda i: ed.constitutive_forward(fs[i], small_Ks[i]),
        "electrodynamics.covariance_residual": lambda i: ed.covariance_residual(bs[i], fs[i], small_Ks[i]),
        "electrodynamics.dual_invariance_residual":
            lambda i: ed.dual_invariance_residual(fs[i], small_Ks[i], np.pi / 4),
    }
    raw = {f"{name}.us_p50": 0.0 for name in calls}
    scaled = dict(raw)
    clock = time.perf_counter_ns
    for name, call in calls.items():
        if ENTRY_POINT_WORKLOAD[name.split(".")[0]] != workload:
            continue
        rounds_raw, rounds_scaled = [], []
        for _ in range(PER_CALL_REPEATS):
            speed.sample()
            samples = []
            for i in range(n):
                start = clock()
                call(i)
                samples.append(clock() - start)
            rounds_raw.append(statistics.median(samples) / 1e3)
            rounds_scaled.append(rounds_raw[-1] * speed.factor(len(speed.samples) - 1, span=0))
        raw[f"{name}.us_p50"] = statistics.median(rounds_raw)
        scaled[f"{name}.us_p50"] = statistics.median(rounds_scaled)
    return raw, scaled


def cli_costs(wl, golden, paths, tally: Tally, speed: HostSpeed) -> tuple[dict, dict]:
    """Interpreter start-up, import of ncframe.cli, and in-process main() per
    case: (raw, scaled), each time scaled by the host speed sampled before it."""
    env = wl.child_env(ROOT)
    times = {"interpreter": ([], []), "import": ([], []), "main": ([], [])}  # raw, scaled seconds

    def add(kind, seconds):
        times[kind][0].append(seconds)
        times[kind][1].append(seconds * speed.factor(len(speed.samples) - 1, span=0))

    for _ in range(CLI_PROBES):
        for kind, code_text in (("interpreter", "pass"), ("import", "import ncframe.cli")):
            speed.sample()
            code, _, seconds, _ = wl.spawn([sys.executable, "-c", code_text], b"", env)
            if code != 0:
                raise RuntimeError(f"python -c {code_text!r} exited with {code}")
            add(kind, seconds)
    run = lambda rec: wl.cli_main_inprocess(rec, paths[rec.kind])  # noqa: E731
    for _ in range(CLI_MAIN_REPEATS):
        for rec in golden:
            speed.sample()
            add("main", one(rec, run, wl.check_cli, tally) / 1e9)

    def ms(kind, which):
        return statistics.median(times[kind][which]) * 1e3

    return tuple(
        {
            "cli.interpreter_ms": ms("interpreter", which),
            "cli.import_ms": ms("import", which) - ms("interpreter", which),
            "cli.main_ms": ms("main", which),
        }
        for which in (0, 1)
    )


def traced(wl, workload, pool, seed, seconds, max_records, spans_path):
    from tracer import Tracer, summarize, write_spans

    tally = Tally()
    speed = HostSpeed()
    per_call_raw, per_call = per_call_us(workload, seed, speed)
    with contextlib.ExitStack() as stack:
        if workload == "cli":
            paths = stack.enter_context(golden_input_files(pool.records))
            costs_raw, costs = cli_costs(wl, pool.records, paths, tally, speed)
            subset = list(pool.records)
            check = wl.check_cli
            run = lambda rec: wl.cli_main_inprocess(rec, paths[rec.kind])  # noqa: E731
        else:
            costs_raw = costs = dict.fromkeys(CLI_COSTS, 0.0)
            subset = pool.records[: wl.TRACE_RECORDS[workload]]
            run, check = wl.RUNNERS[workload]
        if max_records is not None:
            subset = subset[:max_records]
        tracer = Tracer()
        plain, traced_passes, first_spans = [], [], None  # (speed sample, ns[, summary])
        deadline = time.perf_counter() + seconds
        while not traced_passes or time.perf_counter() < deadline:
            speed.sample()
            plain.append((len(speed.samples) - 1, sum(one(rec, run, check, tally) for rec in subset)))
            speed.sample()
            tracer.install()
            try:
                ns = 0
                for i, rec in enumerate(subset):
                    tracer.record = i
                    ns += one(rec, run, check, tally)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            traced_passes.append((len(speed.samples) - 1, ns, summarize(spans, len(subset))))
            first_spans = first_spans or spans
            if max_records is not None:
                break
    metrics = {**per_call, **costs}
    summaries = [summary for _, _, summary in traced_passes]
    counts = [k for k in summaries[0] if not k.endswith("_us_per_record")]
    counts_repeat = all(s[k] == summaries[0][k] for s in summaries for k in counts)
    for key in summaries[0]:
        if key in counts:
            metrics[key] = summaries[0][key]
        else:
            metrics[key] = statistics.median(s[key] * speed.factor(i) for i, _, s in traced_passes)
    plain_ns = statistics.median(ns * speed.factor(i) for i, ns in plain)
    traced_ns = statistics.median(ns * speed.factor(i) for i, ns, _ in traced_passes)
    metrics["trace_overhead"] = plain_ns / traced_ns
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    write_spans(first_spans, spans_path)
    samples = {"records_per_pass": len(subset), "passes": len(summaries), "spans_first_pass": len(first_spans)}
    extra = {
        "counts_repeat_across_passes": counts_repeat,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "host_speed": {"reference_ns": REFERENCE_NS, "factor_median": speed.factor()},
        "raw": {**per_call_raw, **costs_raw},
    }
    return metrics, samples, tally, counts_repeat, extra


# ---------------------------------------------------------------------------

def stress_probe(wl, workload: str, pool) -> Tally:
    """Each stress record of the pool run and checked once, untimed."""
    tally = Tally()
    if pool.stress:
        run, check = wl.RUNNERS[workload]
        for rec in pool.stress:
            one(rec, run, check, tally)
    return tally


def measure(workload: str, seed: int, seconds: float, trace: bool, max_records: int | None = None):
    """Run one workload; returns (result, report) as printed by main()."""
    wl = load_workloads()
    pool = wl.build(workload, seed, ROOT)
    if trace:
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{workload}-seed{seed}.tsv")
        metrics, samples, tally, consistent, extra = traced(
            wl, workload, pool, seed, seconds, max_records, spans_path)
        units = _per_layer_units()
    else:
        metrics, samples, tally, consistent, extra = end_to_end(
            wl, workload, pool, seed, seconds, max_records)
        units = END_TO_END_UNITS
    stress = stress_probe(wl, workload, pool)
    metrics["stress.failed_share"] = stress.summary()["value"]
    result = {
        "correct": bool(consistent and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "inputs_sha256": pool.sha256,
        "pool_records": len(pool),
        "environment": environment(seed),
        "samples": samples,
        "failed_share": tally.summary(),
        "stress_probe": stress.summary(),
        **extra,
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ProgramMissing, FileNotFoundError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
