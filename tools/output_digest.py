"""Digest of every output of the benchmark workloads, for bit-identity checks.

    python3 tools/output_digest.py [--root DIR] [--seeds 1 7] > digest.txt

Imports ncframe from DIR/src and the benchmark's runners and checkers from
DIR/bench/workloads.py (DIR defaults to the checkout holding this script),
then writes one line per record:

* ``frame`` (the timed pool and the stress probe) and ``fields`` at each
  seed: the check's failure reason (``ok`` when it passes) and a SHA-256 of
  every output, taken over the dtype, shape and raw bytes of each array or
  scalar (signed zeros and NaN payloads included); a record whose runner
  raises is digested by the exception's type and message;
* each golden CLI case under DIR/tests/golden: the exit code of one
  ``python -m ncframe.cli`` process and a SHA-256 of its stdout.

Two trees give the same outputs, bit for bit, when their digests are
identical under ``cmp``:

    python3 tools/output_digest.py --root OLD > old.txt
    python3 tools/output_digest.py --root NEW > new.txt
    cmp old.txt new.txt
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def load_workloads(root: str):
    """The checkout's bench/workloads.py, importing the checkout's ncframe."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import ncframe
    import workloads

    expected = os.path.join(root, "src", "ncframe")
    if os.path.dirname(os.path.abspath(ncframe.__file__)) != expected:
        raise RuntimeError(f"ncframe imported from {ncframe.__file__}, not {expected}")
    return workloads


def feed(h, value) -> None:
    """Add one output to the hash: containers by their items, numbers by bits."""
    if isinstance(value, dict):
        h.update(b"{")
        for key, item in value.items():
            h.update(str(key).encode() + b":")
            feed(h, item)
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            feed(h, item)
        h.update(b"]")
    elif isinstance(value, str) or value is None:
        h.update(f"s{value}".encode())
    elif dataclasses.is_dataclass(value):
        feed(h, {f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    else:
        a = np.asarray(value)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def record_line(run, check, rec) -> str:
    h = hashlib.sha256()
    try:
        out = run(rec)
    except Exception as exc:  # a library error is an output too
        return f"raised {type(exc).__name__}: {exc}"
    feed(h, out)
    try:
        reason = check(rec, out) or "ok"
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}"
    return f"{reason} {h.hexdigest()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout to digest")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    wl = load_workloads(root)
    for seed in args.seeds:
        for workload in ("frame", "fields"):
            pool = wl.build(workload, seed, root)
            run, check = wl.RUNNERS[workload]
            for part, records in (("timed", pool.records), ("stress", pool.stress)):
                for i, rec in enumerate(records):
                    print(f"{workload} seed={seed} {part} {i} {rec.kind} {record_line(run, check, rec)}")
    env = wl.child_env(root)
    for rec in sorted(wl.build_cli(0, root).records, key=lambda r: r.kind):
        code, stdout, _, _ = wl.spawn([sys.executable, "-m", "ncframe.cli", *rec.argv], rec.stdin, env)
        print(f"cli {rec.kind} exit={code} {hashlib.sha256(stdout).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
