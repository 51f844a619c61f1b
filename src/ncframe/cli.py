"""`ncframe` command line tool: JSON in, JSON (or text summary) out.

Usage: ncframe COMMAND [FLAG VALUE | FLAG=VALUE]... | --version | --help

Commands: classify, stabilizer, reduce, factor, constitutive, dual-scan.
Input is read from stdin or --in FILE.  The noncommutativity data is either
{"theta": <16 numbers or 4x4 rows>} or {"nm": [n1, n2, n3, m1, m2, m3]};
field-state commands add "E" and "B" (3 numbers each), factor takes
{"spinor": [n0, m0, n1, n2, n3, m1, m2, m3]}.  Each entry is a JSON number:
a string ("1") or a bool (true) is refused, exit 2, and so is a NaN or inf
in any field, read or not.

Flags (exact names; a value may start with "-"), read and refused before
the input; a flag that the command does not read is unrecognized, exit 2:
  classify, reduce, factor  --in --format --tol --eps-iso
  stabilizer    --in --format --tol --eps-iso --seed --gamma --z --count
  constitutive  --in --format --tol --c --epsilon0 --dual-check
  dual-scan     --in --format --tol --c --epsilon0 --steps
Values: --in FILE, --format json|text; --tol X, --eps-iso X (default 1e-9):
finite and >= 0; --seed N (default 0); --gamma RE[,IM] (non-isotropic K
only), --z RE[,IM]: finite parts; --count N (N >= 0 sampled elements);
--c X, --epsilon0 X (units): finite and > 0, default 1; --dual-check CHI
(finite; repeatable); --steps N (N >= 4, default 32).

Exit codes: 0 all residuals within thresholds, 1 residual failure.  A
refusal exits with the code of its exception type, the first that matches:
  3  NotAntisymmetric     theta not antisymmetric
  4  ZeroVector           K = 0 (stabilizer)
  5  IsotropicInput       isotropic or commutative K (reduce)
  6  ConstraintViolation  spinor or group element off its unit constraint
  2  ValueError           malformed input or flag, NaN or inf included
  7  NcframeError         any other library error
  8  BrokenPipeError      output closed (e.g. by head), no traceback
An input nested too deep for the report's JSON writer to echo it under
"input" exits 2 when read.  Complex numbers are serialized as [re, im].
Floats are written as Python's repr, the shortest text that reads back as
the same double, and -0.0 keeps its sign.

classify, stabilizer and reduce read one scaled view of K, the exact
Ks = 2^-exponent K of ``_kernels._view``, and report its exponent: their
invariants, Kscalar and K_canonical are those of Ks, so no report under- or
overflows.  exponent is 0 whenever ||K|| lies in [2^-450, 2^450].

Every command runs on the list-level kernels of ``ncframe._kernels``, the
package's numpy boundary, and this module imports only them and ``errors``:
no numpy, no dataclasses, no argparse and none of the public modules.
stabilizer builds every element as b(t; k), the small-group spinor on the
unit direction k = Ks / ||Ks||, whatever the class of K.  --z Z sets
t = 2i Z, for any nonzero K.  --gamma G sets t = G / s, s = Kscalar / ||Ks||,
so the element is O(G, Delta); it needs a split, and exits 2 on an isotropic
K.  --count N adds N elements, each from z = complex(uniform(-1.5, 1.5),
uniform(-1.5, 1.5)) drawn from random.Random(seed), seed >= 0.  Every
element reports z = t / 2i and, where K has a split, gamma = s t; the value
that defined it keeps its bits.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from types import SimpleNamespace

from . import __version__
from ._kernels import (
    DUAL_TOL, EPS_ISO, FactorOrder, NCClass, _apply, _canonical, _check_spinor, _check_units,
    _compose, _dot, _dual_residual, _f_of, _factors, _h_of, _isotropic_sign, _K_to_theta, _ldexp, _lorentz4,
    _modulus, _norm, _project, _real_forward, _scale, _small_group, _so3c, _spinor_scale, _state,
    _theta_to_K, _turn, _view,
)
from .errors import ConstraintViolation, IsotropicInput, NcframeError, NonFiniteInput, NotAntisymmetric, ZeroVector

# The exit code of a refusal, or of a closed stdout: that of the first type
# here that it is an instance of.  ConstraintViolation and NonFiniteInput are both a ValueError
# and an NcframeError, so the order matters.
_EXITS = ((NotAntisymmetric, 3), (ZeroVector, 4), (IsotropicInput, 5), (ConstraintViolation, 6),
          (ValueError, 2), (NcframeError, 7), (BrokenPipeError, 8))

_THETA_ANTISYM_TOL = 1e-9
_SPINOR_DET_TOL = 1e-8


# ---------------------------------------------------------------------------
# JSON emission: one json.dumps, complex as [re, im], NaN and inf refused.
# ---------------------------------------------------------------------------

def _complex_pair(obj) -> list:
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _dumps(obj) -> str:
    """obj as JSON; a non-finite float raises ValueError."""
    return json.dumps(obj, default=_complex_pair, allow_nan=False)


def _flatten_text(obj: dict, prefix="", lines=None):
    """The lines "a.b = <json>" of a report; a value reaches _dumps at the
    call depth of its level in the JSON report, so both formats nest alike."""
    lines = [] if lines is None else lines
    for k, v in obj.items():
        if isinstance(v, dict):
            _flatten_text(v, f"{prefix}{k}.", lines)
        else:
            lines.append(f"{prefix}{k} = {_dumps(v)}")
    return lines


def emit(report: dict, fmt: str) -> None:
    if fmt == "text":
        print("\n".join(_flatten_text(report)))
    else:
        print(_dumps(report))


# ---------------------------------------------------------------------------
# Input parsing.
# ---------------------------------------------------------------------------

def _read_doc(infile) -> dict:
    """The JSON object in the file infile, or on stdin when infile is None."""
    try:
        if infile:
            with open(infile, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read input: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object")
    # The writer's rule, at the depth and call depth where the report echoes
    # each field (report["input"][key], written by emit from main), so an
    # echoed field can fail neither on a NaN nor on its nesting.
    for key, value in doc.items():
        try:
            _dumps({"input": {key: value}})
        except ValueError:
            raise NonFiniteInput(f"field {key!r} contains non-finite values") from None
        except RecursionError as exc:
            raise ValueError(f"cannot read input: field {key!r}: {exc}") from None
    return doc


def _entries(x) -> list:
    """The entries of a rectangular nested list, row by row; a non-list is one entry."""
    if not isinstance(x, list):
        return [x]
    if any(isinstance(v, list) for v in x):
        if not all(isinstance(v, list) and len(v) == len(x[0]) for v in x):
            raise ValueError("rows of unequal length")
        return [e for v in x for e in _entries(v)]
    return x


def _real_values(doc, key, size: int) -> list:
    """doc[key] as a list of ``size`` finite floats, read from JSON numbers
    only (float() would take "1" and true): a flat list, or rows of equal length."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    try:
        entries = _entries(doc[key])
        values = [float(x) for x in entries if type(x) in (int, float)]
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from exc
    if len(values) != len(entries):
        raise ValueError(f"field {key!r}: every entry must be a JSON number, not a string or a bool")
    if len(values) != size:
        raise ValueError(f"field {key!r}: expected {size} numbers, got {len(values)}")
    if not all(map(math.isfinite, values)):
        raise NonFiniteInput(f"field {key!r} contains non-finite values")
    return values


def _parse_theta(doc) -> tuple[list, list]:
    """Return (theta as 4 rows, the 3-list of K) from either the matrix or the 6-tuple form."""
    if "theta" in doc:
        values = _real_values(doc, "theta", 16)
        theta = [values[i : i + 4] for i in range(0, 16, 4)]
        return theta, _theta_to_K(theta, _THETA_ANTISYM_TOL)
    if "nm" in doc:
        nm = _real_values(doc, "nm", 6)
        K = [complex(x, y) for x, y in zip(nm[:3], nm[3:])]
        return _K_to_theta(K), K
    raise ValueError("input needs either 'theta' or 'nm'")


def _base_report(args, doc: dict) -> dict:
    """The head of a report: the seed and tolerances echoed are those among the command's flags."""
    given = vars(args)
    seed = {"seed": args.seed} if "seed" in given else {}
    return {"command": args.command, "version": __version__, **seed,
            "tolerances": {k: given[k] for k in ("tol", "eps_iso") if k in given}, "input": doc}


def _classified(args, doc: dict) -> tuple[dict, tuple, list]:
    """(report, the scaled view of K, theta) of the input, with the report's
    base and classification filled in.  The invariants are those of
    Ks = 2**-exponent K, so they neither under- nor overflow."""
    theta, K = _parse_theta(doc)
    view = _view(K, args.eps_iso)
    _, e, (I1, I2, I, _), (mu, klass, subcase), _ = view
    report = _base_report(args, doc)
    report.update({
        "class": klass.value,
        "subcase": subcase.value,
        "exponent": e,
        "invariants": {"I1": I1, "I2": I2, "I": I, "mu": mu},
        "K": K,
    })
    return report, view, theta


# ---------------------------------------------------------------------------
# Commands: run(args, doc) -> report, with no I/O; a refusal raises the type
# that carries its exit code (see _EXITS).
# ---------------------------------------------------------------------------

def run_classify(args, doc: dict) -> dict:
    report, (Ks, _, _, _, split), theta = _classified(args, doc)
    report["theta"] = theta
    if split is not None:
        kscalar, delta = split
        report["Kscalar"] = kscalar
        report["delta"] = delta
        report["residuals"] = {
            "delta_unit": abs(_dot(delta, delta) - 1.0),
            "split": _norm([kscalar * d - k for d, k in zip(delta, Ks)]) / _norm(Ks),
        }
        report["pass"] = all(r <= args.tol for r in report["residuals"].values())
    else:
        report["residuals"] = {}
        report["pass"] = True
    return report


def _element_entry(name: str, value: complex, unit: list, s, Ks: list, tol: float) -> dict:
    """The small-group element b(t; unit) that fixes Ks, for the value of
    --gamma (t = gamma / s) or of z (t = 2i z).  It reports z = t / 2i and,
    where K has a split (s is not None), gamma = s t; the defining value
    keeps its bits."""
    t = value / s if name == "gamma" else 2j * value
    k0, kk = _small_group(t, unit)
    O = _so3c(k0, kk)
    resid = _norm([x - y for x, y in zip(_apply(O, Ks), Ks)]) / _norm(Ks)
    entry = {"matrix": O, "lorentz": _lorentz4(k0, kk), "invariance_residual": resid, "pass": resid <= tol,
             "z": t / 2j}
    if s is not None:
        entry["gamma"] = s * t
    entry[name] = value
    return entry


def run_stabilizer(args, doc: dict) -> dict:
    if args.count and args.seed < 0:  # random.Random(-7) draws what random.Random(7) draws
        raise ValueError("--seed must not be negative when sampling")
    report, (Ks, _, _, (_, klass, _), split), _ = _classified(args, doc)
    if klass is NCClass.COMMUTATIVE:
        raise ZeroVector("K = 0: every Lorentz transformation is a stabilizer")
    nrm = _norm(Ks)
    unit = [x / nrm for x in Ks]  # one direction for every class, so t is dimensionless
    s = None  # Kscalar / ||Ks||, the root of unit.unit on the branch of delta = unit / s
    if split is not None:
        s = split[0] / nrm
        report["delta"] = split[1]
    elif args.gamma is not None:
        raise ValueError("K is isotropic: it has no split, so use --z, not --gamma")
    params = [(name, v) for name, v in (("gamma", args.gamma), ("z", args.z)) if v is not None]
    if args.count > 0:
        import random

        rng = random.Random(args.seed)
        params.extend(("z", complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))) for _ in range(args.count))
    elements = [_element_entry(name, v, unit, s, Ks, args.tol) for name, v in params]
    report["elements"] = elements
    report["pass"] = all(e["pass"] for e in elements)
    return report


def run_reduce(args, doc: dict) -> dict:
    report, (Ks, _, _, (_, klass, _), split), _ = _classified(args, doc)
    if split is None:
        raise IsotropicInput(f"class {klass.value}: no reduction to a real direction exists")
    S, kcs = _canonical(*split)
    ksq, csq = _dot(Ks, Ks), _dot(kcs, kcs)
    columns = list(zip(*S))  # S^T S - I, entry by entry
    residuals = {
        "orthogonality": max(abs(_dot(u, v) - float(i == j))
                             for i, u in enumerate(columns) for j, v in enumerate(columns)),
        "reduction": _norm([x - k for x, k in zip(_apply(S, Ks), kcs)]) / _norm(Ks),
        "invariants": abs(csq - ksq) / abs(ksq),
    }
    report["S"] = S
    report["K_canonical"] = kcs
    report["residuals"] = residuals
    report["pass"] = all(r <= args.tol for r in residuals.values())
    return report


def _spinor_entry(k0: complex, k: list, order: FactorOrder) -> dict:
    """The factorization of (k0, k) in one order, with its round-trip residual."""
    rotation, boost, sign = _factors(k0, k, order)
    first, second = (rotation, boost) if order is FactorOrder.ROTATION_FIRST else (boost, rotation)
    c0, ck = _compose(*first, *second)
    _check_spinor(c0, ck)
    num = max(abs(c0 - sign * k0), max(abs(x - sign * y) for x, y in zip(ck, k)))
    scale = max(1.0, abs(k0), _norm(k))
    (a0, a), (b0, b) = rotation, boost
    return {
        "order": order.value,
        "sign": sign,
        "rotation": {"n0": a0.real, "n": [-z.imag for z in a]},
        "boost": {"b0": b0.real, "b": [z.real for z in b]},
        "roundtrip_residual": num / scale,
    }


def run_factor(args, doc: dict) -> dict:
    raw = _real_values(doc, "spinor", 8)
    k0 = complex(raw[0], raw[1])
    k = [m - 1j * n for n, m in zip(raw[2:5], raw[5:8])]
    det = k0 * k0 - _dot(k, k)
    if not _modulus(det - 1.0) <= _SPINOR_DET_TOL * _spinor_scale(k0, k):  # a NaN det fails too
        raise ConstraintViolation(f"k0^2 - k.k = {det:.15g}, violates the unit constraint")
    k0, k = _project(k0, k)
    _check_spinor(k0, k)
    report = _base_report(args, doc)
    report["method"] = "isotropic" if _isotropic_sign(k0, _view(k, args.eps_iso)) else "generic"
    report["det_residual"] = abs(det - 1.0)
    report["factorizations"] = [_spinor_entry(k0, k, order) for order in FactorOrder]
    report["pass"] = all(f["roundtrip_residual"] <= args.tol for f in report["factorizations"])
    return report


def _dual_row(state: tuple, chi: float) -> dict:
    turn = _turn(chi)
    return {"chi": chi, "residual": _dual_residual(state, turn), "expected_invariant": turn[1]}


def _dual_pass(rows, tol: float) -> bool:
    """Every row at a quarter turn is within tol; other angles are not expected to be."""
    return all(r["residual"] <= tol for r in rows if r["expected_invariant"])


def _fields(args, doc: dict) -> tuple[list, list, list]:
    """(K, E, B) of a field-state command, after the ``UnitSystem`` check of
    --c and --epsilon0."""
    _check_units(args.c, args.epsilon0)
    _, K = _parse_theta(doc)
    return K, _real_values(doc, "E", 3), _real_values(doc, "B", 3)


def run_constitutive(args, doc: dict) -> dict:
    K, E, B = _fields(args, doc)
    c, eps0 = args.c, args.epsilon0
    D, H = _real_forward(E, B, K, c, eps0)
    state = _state(f := _f_of(E, B, c), K)  # one field state: the report's h is its h, rescaled by e
    h = _ldexp(state[2], state[4])
    cross = _norm([x - y for x, y in zip(_h_of(D, H, c, eps0), h)]) / _scale(f, K)
    report = _base_report(args, doc)
    report.update(units={"c": c, "epsilon0": eps0}, D=D, H=H, f=f, h=h, residuals={"real_vs_complex": cross})
    if args.dual_check:
        report["dual_checks"] = [_dual_row(state, chi) for chi in args.dual_check]
    report["pass"] = cross <= args.tol and _dual_pass(report.get("dual_checks", ()), DUAL_TOL)
    return report


def run_dual_scan(args, doc: dict) -> dict:
    K, E, B = _fields(args, doc)
    state = _state(_f_of(E, B, args.c), K)
    rows = [_dual_row(state, 2.0 * math.pi * j / args.steps) for j in range(args.steps)]
    report = _base_report(args, doc)
    report.update(units={"c": args.c, "epsilon0": args.epsilon0}, scan=rows)
    report["pass"] = _dual_pass(rows, args.tol)
    return report


# ---------------------------------------------------------------------------
# Argument parsing: one table of commands, flags and defaults.
# ---------------------------------------------------------------------------

def _finite(text: str) -> float:
    if not math.isfinite(x := float(text)):
        raise ValueError(f"must be finite, got {text!r}")
    return x


def _threshold(text: str) -> float:
    if not 0.0 <= (x := float(text)) < math.inf:
        raise ValueError(f"must be finite and >= 0, got {text!r}")
    return x


def _positive(text: str) -> float:
    if not 0.0 < (x := float(text)) < math.inf:
        raise ValueError(f"must be finite and > 0, got {text!r}")
    return x


def _format(text: str) -> str:
    if text not in ("json", "text"):
        raise ValueError(f"must be json or text, got {text!r}")
    return text


def _at_least(low: int):
    """The flag type of an integer >= low."""
    def integer(text: str) -> int:
        if (n := int(text)) < low:
            raise ValueError(f"must be at least {low}, got {text!r}")
        return n
    return integer


def _complex(text: str) -> complex:
    parts = [float(p) for p in text.split(",")]
    if len(parts) > 2 or not all(map(math.isfinite, parts)):
        raise ValueError(f"must be RE or RE,IM with finite parts, got {text!r}")
    return complex(*parts)


# flag -> (dest, type, default); a repeated --dual-check appends.  The frame
# commands read the isotropy threshold, the field commands the units.
_IO = {"--in": ("infile", str, None), "--format": ("format", _format, "json"), "--tol": ("tol", _threshold, None)}
_FRAME = {**_IO, "--eps-iso": ("eps_iso", _threshold, EPS_ISO)}
_FIELDS = {**_IO, "--c": ("c", _positive, 1.0), "--epsilon0": ("epsilon0", _positive, 1.0)}
# command -> (run function, flags, default of --tol)
_COMMANDS = {
    "classify": (run_classify, _FRAME, 1e-9),
    "stabilizer": (run_stabilizer, {**_FRAME, "--seed": ("seed", int, 0), "--gamma": ("gamma", _complex, None),
                                    "--z": ("z", _complex, None), "--count": ("count", _at_least(0), 0)}, 1e-9),
    "reduce": (run_reduce, _FRAME, 1e-9),
    "factor": (run_factor, _FRAME, 1e-10),
    "constitutive": (run_constitutive, {**_FIELDS, "--dual-check": ("dual_check", _finite, ())}, 1e-12),
    "dual-scan": (run_dual_scan, {**_FIELDS, "--steps": ("steps", _at_least(4), 32)}, DUAL_TOL),
}
_INFO = ("-h", "--help", "--version")


def _parse_args(argv: list):
    """The command and flags of argv as a namespace, every flag read and
    --tol resolved, or None once -h, --help or --version has printed."""
    command = argv[0] if argv else ""
    if command not in _COMMANDS and command not in _INFO:
        raise ValueError(f"expected a command ({', '.join(_COMMANDS)}), got {command!r}")
    _, flags, tol = _COMMANDS.get(command, (None, {}, None))
    args = SimpleNamespace(command=command, **{dest: default for dest, _, default in flags.values()})
    tokens = iter(argv[1:] if flags else argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag in _INFO:
            usage = __doc__ or "usage: ncframe COMMAND [FLAG VALUE]..."  # python -OO drops __doc__
            print(f"ncframe {__version__}" if flag == "--version" else usage)
            return None
        if flag not in flags:
            raise ValueError(f"{command}: unrecognized argument {token!r}")
        dest, kind, _ = flags[flag]
        try:
            value = kind(value if eq else next(tokens))
        except (StopIteration, ValueError) as exc:
            raise ValueError(f"{flag}: {str(exc) or 'missing value'}") from exc
        setattr(args, dest, [*args.dual_check, value] if dest == "dual_check" else value)
    if args.tol is None:
        args.tol = tol
    return args


def main(argv=None) -> int:
    """Run the command of argv and return its exit code.  ``main()``, with
    no argv, is the process entry: it reads sys.argv and freezes the garbage
    collector before it returns."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        code = 0
        if args is not None:
            report = _COMMANDS[args.command][0](args, _read_doc(args.infile))
            emit(report, args.format)
            code = 0 if report["pass"] else 1
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except (ValueError, NcframeError, BrokenPipeError) as exc:
        code = next(code for kind, code in _EXITS if isinstance(exc, kind))
        if isinstance(exc, BrokenPipeError):  # the Python docs' note on SIGPIPE: the flush at exit writes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        name = f"{type(exc).__name__}: " if code == 7 else ""
        print(f"ncframe: {name}{exc}", file=sys.stderr)
    if argv is None:
        # The process ends next.  With every object in the permanent
        # generation, the collections of interpreter finalization have
        # nothing to traverse (about 6 of a child's 60 ms); module teardown,
        # atexit and the flush of stdio still run.  An in-process caller
        # passes argv and keeps a working collector.
        gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
