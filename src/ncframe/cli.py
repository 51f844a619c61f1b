"""`ncframe` command line tool: JSON in, JSON (or text summary) out.

Usage: ncframe COMMAND [FLAG VALUE | FLAG=VALUE]... | --version | --help

Commands: classify, stabilizer, reduce, factor, constitutive, dual-scan.
Input is read from stdin or --in FILE.  The noncommutativity data is either
{"theta": <16 numbers or 4x4 rows>} or {"nm": [n1, n2, n3, m1, m2, m3]};
field-state commands add "E" and "B" (3 numbers each), factor takes
{"spinor": [n0, m0, n1, n2, n3, m1, m2, m3]}.

Flags (exact names; a value may start with "-"):
  every command  --in FILE, --format json|text, --seed N (default 0),
                 --tol X, --eps-iso X (default 1e-9; both finite and >= 0),
                 --c X, --epsilon0 X (units, default 1)
  stabilizer     --gamma RE[,IM], --z RE[,IM], --count N (N sampled elements)
  constitutive   --dual-check CHI (repeatable)
  dual-scan      --steps N (N >= 4, default 32)

Exit codes: 0 all residuals within thresholds; 1 residual failure;
2 malformed input; 3 theta not antisymmetric; 4 vanishing K (stabilizer);
5 isotropic/commutative input to reduce; 6 spinor constraint violation;
7 any other library error (an ``NcframeError`` the codes above do not name).
Complex numbers are serialized as [re, im]; floats carry 17 significant
digits, so a float read back as a float is the double written.  A whole
float prints as an integer (2.0 as 2, -0.0 as -0), so a reader that parses
integers as integers loses the sign of -0 (``json.loads`` does, unless
given ``parse_int=float``).

classify, stabilizer and reduce read one scaled view of K, the exact
Ks = 2^-exponent K of ``_kernels._view``, and report its exponent: their
invariants, Kscalar and K_canonical are those of Ks, so no report under- or
overflows.  exponent is 0 whenever ||K|| lies in [2^-450, 2^450].

Every command runs on the list-level kernels of ``ncframe._kernels``, the
package's numpy boundary, and this module imports only them and ``errors``:
no numpy, no dataclasses, no argparse and none of the public modules.
stabilizer --count draws from random.Random(seed), seed >= 0: gamma =
complex(uniform(0, 2 pi), uniform(-2, 2)), z = complex(uniform(-1.5, 1.5),
uniform(-1.5, 1.5)).  z is dimensionless: the element is O(z k) with
k = Ks / ||Ks||, the unit direction of K, so it is the z of
``isotropic_stabilizer_element(z, K)`` times ||K||.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

from . import __version__
from ._kernels import (
    DUAL_TOL, EPS_ISO, FactorOrder, NCClass, _apply, _canonical, _check_spinor, _check_units,
    _compose, _dot, _dual_residual, _f_of, _factors, _forward, _h_of, _isotropic_sign, _K_to_theta,
    _lorentz4, _mapped, _modulus, _norm, _project, _real_forward, _scale, _small_group, _so3c,
    _spinor_scale, _state, _theta_to_K, _view, quarter_turn,
)
from .errors import ConstraintViolation, NcframeError, NotAntisymmetric

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_MALFORMED = 2
EXIT_NOT_ANTISYMMETRIC = 3
EXIT_ZERO_K = 4
EXIT_NOT_REDUCIBLE = 5
EXIT_BAD_SPINOR = 6
EXIT_LIBRARY_ERROR = 7

_THETA_ANTISYM_TOL = 1e-9
_SPINOR_DET_TOL = 1e-8


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# JSON emission: floats with 17 significant digits, complex as [re, im].
# ---------------------------------------------------------------------------

def _jfloat(x: float) -> str:
    if not math.isfinite(x):
        raise CliError(f"non-finite value in output: {x}", EXIT_MALFORMED)
    return format(float(x), ".17g")


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _jfloat(obj)
    if isinstance(obj, complex):
        return f"[{_jfloat(obj.real)}, {_jfloat(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _flatten_text(obj, prefix="", lines=None):
    lines = [] if lines is None else lines
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_text(v, f"{prefix}{k}.", lines)
        return lines
    lines.append(f"{prefix[:-1]} = {_encode(obj)}")
    return lines


def emit(report: dict, fmt: str) -> None:
    if fmt == "text":
        print("\n".join(_flatten_text(report)))
    else:
        print(_encode(report))


# ---------------------------------------------------------------------------
# Input parsing.
# ---------------------------------------------------------------------------

def _read_doc(args) -> dict:
    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read input: {exc}", EXIT_MALFORMED) from exc
    if not isinstance(doc, dict):
        raise CliError("input must be a JSON object", EXIT_MALFORMED)
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
    """doc[key] as a list of ``size`` finite floats: a flat list, or rows of equal length."""
    if key not in doc:
        raise CliError(f"missing field {key!r}", EXIT_MALFORMED)
    try:
        values = [float(x) for x in _entries(doc[key])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"field {key!r}: {exc}", EXIT_MALFORMED) from exc
    if len(values) != size:
        raise CliError(f"field {key!r}: expected {size} numbers, got {len(values)}", EXIT_MALFORMED)
    if not all(map(math.isfinite, values)):
        raise CliError(f"field {key!r} contains non-finite values", EXIT_MALFORMED)
    return values


def _parse_theta(doc) -> tuple[list, list]:
    """Return (theta as 4 rows, the 3-list of K) from either the matrix or the 6-tuple form."""
    if "theta" in doc:
        values = _real_values(doc, "theta", 16)
        theta = [values[i : i + 4] for i in range(0, 16, 4)]
        try:
            K = _theta_to_K(theta, _THETA_ANTISYM_TOL)
        except NotAntisymmetric as exc:
            raise CliError(str(exc), EXIT_NOT_ANTISYMMETRIC) from exc
        return theta, K
    if "nm" in doc:
        nm = _real_values(doc, "nm", 6)
        K = [complex(x, y) for x, y in zip(nm[:3], nm[3:])]
        return _K_to_theta(K), K
    raise CliError("input needs either 'theta' or 'nm'", EXIT_MALFORMED)


def _parse_complex_flag(text: str) -> complex:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliError(f"cannot parse complex value {text!r} (use RE or RE,IM)", EXIT_MALFORMED) from exc
    if len(parts) == 1:
        return complex(parts[0], 0.0)
    if len(parts) == 2:
        return complex(parts[0], parts[1])
    raise CliError(f"cannot parse complex value {text!r} (use RE or RE,IM)", EXIT_MALFORMED)


def _base_report(args, command: str, input_echo: dict, tol: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "tolerances": {"tol": tol, "eps_iso": args.eps_iso},
        "input": input_echo,
    }


def _classified(args, command: str) -> tuple[dict, tuple, list, float]:
    """(report, the scaled view of K, theta, tol) of the input, with the
    report's base and classification filled in; tol is --tol or 1e-9.  The
    invariants are those of Ks = 2**-exponent K, so they neither under- nor overflow."""
    tol = args.tol if args.tol is not None else 1e-9
    doc = _read_doc(args)
    theta, K = _parse_theta(doc)
    view = _view(K, args.eps_iso)
    _, e, (I1, I2, I, _), (mu, klass, subcase), _ = view
    report = _base_report(args, command, doc, tol)
    report.update({
        "class": klass.value,
        "subcase": subcase.value,
        "exponent": e,
        "invariants": {"I1": I1, "I2": I2, "I": I, "mu": mu},
        "K": K,
    })
    return report, view, theta, tol


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_classify(args) -> dict:
    report, (Ks, _, _, _, split), theta, tol = _classified(args, "classify")
    report["theta"] = theta
    if split is not None:
        kscalar, delta = split
        report["Kscalar"] = kscalar
        report["delta"] = delta
        report["residuals"] = {
            "delta_unit": abs(_dot(delta, delta) - 1.0),
            "split": _norm([kscalar * d - k for d, k in zip(delta, Ks)]) / _norm(Ks),
        }
        report["pass"] = all(r <= tol for r in report["residuals"].values())
    else:
        report["residuals"] = {}
        report["pass"] = True
    return report


def _element_entry(name: str, param: complex, t: complex, k: list, Ks: list, tol: float) -> dict:
    """The small-group element b(t; k) that fixes Ks, reported under its parameter ``name``."""
    k0, kk = _small_group(t, k)
    O = _so3c(k0, kk)
    resid = _norm([x - y for x, y in zip(_apply(O, Ks), Ks)]) / _norm(Ks)
    return {
        "matrix": O,
        "lorentz": _lorentz4(k0, kk),
        "invariance_residual": resid,
        "pass": resid <= tol,
        name: param,
    }


def cmd_stabilizer(args) -> dict:
    if args.count < 0:
        raise CliError("--count must not be negative", EXIT_MALFORMED)
    if args.count and args.seed < 0:  # random.Random(-7) draws what random.Random(7) draws
        raise CliError("--seed must not be negative when sampling", EXIT_MALFORMED)
    report, (Ks, _, _, (_, klass, _), split), _, tol = _classified(args, "stabilizer")
    if klass is NCClass.COMMUTATIVE:
        raise CliError("K = 0: every Lorentz transformation is a stabilizer", EXIT_ZERO_K)
    if klass is NCClass.NON_ISOTROPIC:
        if args.z is not None:
            raise CliError("K is non-isotropic: use --gamma, not --z", EXIT_MALFORMED)
        delta = split[1]
        report["delta"] = delta
        flag = args.gamma
        draw = lambda rng: complex(rng.uniform(0.0, 2 * math.pi), rng.uniform(-2.0, 2.0))  # noqa: E731
        entry = lambda gamma: _element_entry("gamma", gamma, gamma, delta, Ks, tol)  # noqa: E731
    else:
        if args.gamma is not None:
            raise CliError("K is isotropic: use --z, not --gamma", EXIT_MALFORMED)
        flag = args.z
        draw = lambda rng: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))  # noqa: E731
        nrm = _norm(Ks)
        unit = [x / nrm for x in Ks]  # so z is dimensionless, like the unit delta
        entry = lambda z: _element_entry("z", z, 2j * z, unit, Ks, tol)  # noqa: E731
    params = [] if flag is None else [_parse_complex_flag(flag)]
    if args.count > 0:
        import random

        rng = random.Random(args.seed)
        params.extend(draw(rng) for _ in range(args.count))
    elements = [entry(p) for p in params]
    report["elements"] = elements
    report["pass"] = all(e["pass"] for e in elements)
    return report


def cmd_reduce(args) -> dict:
    report, (Ks, _, _, (_, klass, _), split), _, tol = _classified(args, "reduce")
    if split is None:
        raise CliError(f"class {klass.value}: no reduction to a real direction exists", EXIT_NOT_REDUCIBLE)
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
    report["pass"] = all(r <= tol for r in residuals.values())
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


def cmd_factor(args) -> dict:
    doc = _read_doc(args)
    raw = _real_values(doc, "spinor", 8)
    k0 = complex(raw[0], raw[1])
    k = [m - 1j * n for n, m in zip(raw[2:5], raw[5:8])]
    det = k0 * k0 - _dot(k, k)
    if not _modulus(det - 1.0) <= _SPINOR_DET_TOL * _spinor_scale(k0, k):  # a NaN det fails too
        raise CliError(f"k0^2 - k.k = {det:.15g}, violates the unit constraint", EXIT_BAD_SPINOR)
    try:
        k0, k = _project(k0, k)
        _check_spinor(k0, k)
    except ConstraintViolation as exc:
        raise CliError(str(exc), EXIT_BAD_SPINOR) from exc
    tol = args.tol if args.tol is not None else 1e-10
    report = _base_report(args, "factor", doc, tol)
    report["method"] = "isotropic" if _isotropic_sign(k0, k, args.eps_iso) else "generic"
    report["det_residual"] = abs(det - 1.0)
    report["factorizations"] = [_spinor_entry(k0, k, order) for order in FactorOrder]
    report["pass"] = all(f["roundtrip_residual"] <= tol for f in report["factorizations"])
    return report


def _dual_row(state: tuple, chi: float) -> dict:
    return {
        "chi": chi,
        "residual": _dual_residual(state, chi),
        "expected_invariant": quarter_turn(chi)[1],
    }


def _dual_pass(rows, tol: float) -> bool:
    """Every row at a quarter turn is within tol; other angles are not expected to be."""
    return all(r["residual"] <= tol for r in rows if r["expected_invariant"])


def _fields(args) -> tuple[dict, list, list, list]:
    """(input document, K, E, B) of a field-state command, after the
    ``UnitSystem`` check of --c and --epsilon0."""
    doc = _read_doc(args)
    _, K = _parse_theta(doc)
    E = _real_values(doc, "E", 3)
    B = _real_values(doc, "B", 3)
    _check_units(args.c, args.epsilon0)
    return doc, K, E, B


def cmd_constitutive(args) -> dict:
    doc, K, E, B = _fields(args)
    c, eps0 = args.c, args.epsilon0
    D, H = _real_forward(E, B, K, c, eps0)
    f = _f_of(E, B, c)
    h = _mapped(_forward, f, K)
    cross = _norm([x - y for x, y in zip(_h_of(D, H, c, eps0), h)]) / _scale(f, K)
    tol = args.tol if args.tol is not None else 1e-12
    report = _base_report(args, "constitutive", doc, tol)
    report["units"] = {"c": c, "epsilon0": eps0}
    report["D"] = D
    report["H"] = H
    report["f"] = f
    report["h"] = h
    report["residuals"] = {"real_vs_complex": cross}
    dual_rows = []
    if args.dual_check:
        state = _state(None, f, K, gram=True)
        dual_rows = [_dual_row(state, float(text)) for text in args.dual_check]
        report["dual_checks"] = dual_rows
    report["pass"] = cross <= tol and _dual_pass(dual_rows, DUAL_TOL)
    return report


def cmd_dual_scan(args) -> dict:
    doc, K, E, B = _fields(args)
    if args.steps < 4:
        raise CliError("--steps must be at least 4", EXIT_MALFORMED)
    state = _state(None, _f_of(E, B, args.c), K, gram=True)
    tol = args.tol if args.tol is not None else DUAL_TOL
    rows = [_dual_row(state, 2.0 * math.pi * j / args.steps) for j in range(args.steps)]
    report = _base_report(args, "dual-scan", doc, tol)
    report["units"] = {"c": args.c, "epsilon0": args.epsilon0}
    report["scan"] = rows
    report["pass"] = _dual_pass(rows, tol)
    return report


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _threshold(text: str) -> float:
    if not 0.0 <= (x := float(text)) < math.inf:
        raise ValueError(f"must be finite and >= 0, got {text!r}")
    return x


def _format(text: str) -> str:
    if text not in ("json", "text"):
        raise ValueError(f"must be json or text, got {text!r}")
    return text


# flag -> (dest, type) per command; a repeated --dual-check appends
_COMMON = {"--in": ("infile", str), "--format": ("format", _format), "--seed": ("seed", int),
           "--tol": ("tol", _threshold), "--eps-iso": ("eps_iso", _threshold),
           "--c": ("c", float), "--epsilon0": ("epsilon0", float)}
_FLAGS = {
    "classify": _COMMON, "reduce": _COMMON, "factor": _COMMON,
    "stabilizer": {**_COMMON, "--gamma": ("gamma", str), "--z": ("z", str), "--count": ("count", int)},
    "constitutive": {**_COMMON, "--dual-check": ("dual_check", str)},
    "dual-scan": {**_COMMON, "--steps": ("steps", int)},
}
_DEFAULTS = {"infile": None, "format": "json", "seed": 0, "tol": None, "eps_iso": EPS_ISO, "c": 1.0,
             "epsilon0": 1.0, "gamma": None, "z": None, "count": 0, "dual_check": None, "steps": 32}


def _parse_args(argv: list):
    """The command and flags of argv as a namespace, or None once -h, --help
    or --version has printed."""
    args = SimpleNamespace(subcommand=argv[0] if argv else "", **_DEFAULTS)
    flags = _FLAGS.get(args.subcommand)
    if flags is None and args.subcommand not in ("-h", "--help", "--version"):
        raise CliError(f"expected a command ({', '.join(_FLAGS)}), got {args.subcommand!r}", EXIT_MALFORMED)
    tokens = iter(argv[1:] if flags else argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag in ("-h", "--help", "--version"):
            usage = __doc__ or "usage: ncframe COMMAND [FLAG VALUE]..."  # python -OO drops __doc__
            print(f"ncframe {__version__}" if flag == "--version" else usage)
            return None
        if flag not in flags:
            raise CliError(f"{args.subcommand}: unrecognized argument {token!r}", EXIT_MALFORMED)
        dest, kind = flags[flag]
        try:
            value = kind(value if eq else next(tokens))
        except (StopIteration, ValueError) as exc:
            raise CliError(f"{flag}: {str(exc) or 'missing value'}", EXIT_MALFORMED) from exc
        setattr(args, dest, [*(args.dual_check or ()), value] if dest == "dual_check" else value)
    return args


_HANDLERS = {
    "classify": cmd_classify,
    "stabilizer": cmd_stabilizer,
    "reduce": cmd_reduce,
    "factor": cmd_factor,
    "constitutive": cmd_constitutive,
    "dual-scan": cmd_dual_scan,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return EXIT_OK
        report = _HANDLERS[args.subcommand](args)
        emit(report, args.format)
        return EXIT_OK if report["pass"] else EXIT_RESIDUAL
    except CliError as exc:
        print(f"ncframe: {exc}", file=sys.stderr)
        return exc.code
    except NotAntisymmetric as exc:
        print(f"ncframe: {exc}", file=sys.stderr)
        return EXIT_NOT_ANTISYMMETRIC
    except ValueError as exc:
        print(f"ncframe: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except NcframeError as exc:
        print(f"ncframe: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LIBRARY_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
