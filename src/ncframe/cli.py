"""`ncframe` command line tool: JSON in, JSON (or text summary) out.

Subcommands: classify, stabilizer, reduce, factor, constitutive, dual-scan.
Input is read from stdin or --in FILE.  The noncommutativity data is either
{"theta": <16 numbers or 4x4 rows>} or {"nm": [n1, n2, n3, m1, m2, m3]};
field-state commands add "E" and "B" (3 numbers each), factor takes
{"spinor": [n0, m0, n1, n2, n3, m1, m2, m3]}.

Exit codes: 0 all residuals within thresholds; 1 residual failure;
2 malformed input; 3 theta not antisymmetric; 4 vanishing K (stabilizer);
5 isotropic/commutative input to reduce; 6 spinor constraint violation;
7 any other library error (an ``NcframeError`` the codes above do not name).
Complex numbers are serialized as [re, im]; floats carry 17 significant
digits so doubles round-trip losslessly.

classify, stabilizer and reduce read one scaled view of K, the exact
Ks = 2^-exponent K of ``stabilizer._view``, and report its exponent: their
invariants, Kscalar and K_canonical are those of Ks, so no report under- or
overflows.  exponent is 0 whenever ||K|| lies in [2^-450, 2^450].

classify, factor, constitutive and dual-scan run on the list-level kernels
of the library and never import numpy; stabilizer and reduce build 3x3 and
4x4 matrices, and stabilizer --count draws random parameters, so they do.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__, linalg
from .electrodynamics import (
    DUAL_TOL,
    UnitSystem,
    _dual_residual,
    _f_of,
    _forward,
    _h_of,
    _mapped,
    _real_forward,
    _scale,
    _state,
    quarter_turn,
)
from .errors import NcframeError, NotAntisymmetric
from .factorization import FactorOrder, _factors, _isotropic_sign
from .group import _check_spinor, _compose, _project
from .linalg import _dot, _norm, inf_norm
from .sampling import default_rng, random_gamma
from .stabilizer import (
    EPS_ISO,
    NCClass,
    _canonical,
    _K_to_theta,
    _theta_to_K,
    _view,
    isotropic_stabilizer_element,
    stabilizer_element,
)

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
    if hasattr(obj, "tolist"):  # a numpy array or scalar, as Python numbers
        return _encode(obj.tolist())
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
        K = [x + 1j * y for x, y in zip(nm[:3], nm[3:])]
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


def _classified(args, command: str, tol: float) -> tuple[dict, list, tuple, list]:
    """(report, K, the scaled view of K, theta) of the input, with the
    report's base and classification filled in.  The invariants are those
    of Ks = 2**-exponent K, so they neither under- nor overflow."""
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
    return report, K, view, theta


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_classify(args) -> dict:
    tol = args.tol if args.tol is not None else 1e-9
    report, _, (Ks, _, _, _, split), theta = _classified(args, "classify", tol)
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


def _element_entry(elem, Ks, tol) -> dict:
    resid = _norm([x - k for x, k in zip(elem.rotation.apply(Ks).tolist(), Ks)]) / _norm(Ks)
    entry = {
        "matrix": elem.rotation.matrix,
        "lorentz": elem.lorentz4.matrix,
        "invariance_residual": resid,
        "pass": resid <= tol,
    }
    if elem.family == "non-isotropic":
        entry["gamma"] = elem.gamma
    else:
        entry["z"] = elem.z
    return entry


def cmd_stabilizer(args) -> dict:
    tol = args.tol if args.tol is not None else 1e-9
    report, K, (Ks, _, _, (_, klass, _), split), _ = _classified(args, "stabilizer", tol)
    if klass is NCClass.COMMUTATIVE:
        raise CliError("K = 0: every Lorentz transformation is a stabilizer", EXIT_ZERO_K)
    if klass is NCClass.NON_ISOTROPIC:
        if args.z is not None:
            raise CliError("K is non-isotropic: use --gamma, not --z", EXIT_MALFORMED)
        delta = split[1]
        report["delta"] = delta
        flag, draw = args.gamma, random_gamma
        element = lambda gamma: stabilizer_element(gamma, delta)  # noqa: E731
    else:
        if args.gamma is not None:
            raise CliError("K is isotropic: use --z, not --gamma", EXIT_MALFORMED)
        flag = args.z
        draw = lambda rng: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))  # noqa: E731
        element = lambda z: isotropic_stabilizer_element(z, K, args.eps_iso)  # noqa: E731
    params = [] if flag is None else [_parse_complex_flag(flag)]
    if args.count > 0:  # the generator, and numpy.random with it, only when sampling
        rng = default_rng(args.seed)
        params.extend(draw(rng) for _ in range(args.count))
    elements = [_element_entry(element(p), Ks, tol) for p in params]
    report["elements"] = elements
    report["pass"] = all(e["pass"] for e in elements)
    return report


def cmd_reduce(args) -> dict:
    tol = args.tol if args.tol is not None else 1e-9
    report, _, (Ks, _, _, (_, klass, _), split), _ = _classified(args, "reduce", tol)
    if split is None:
        raise CliError(f"class {klass.value}: no reduction to a real direction exists", EXIT_NOT_REDUCIBLE)
    S, kcs = _canonical(*split)
    ksq, csq = _dot(Ks, Ks), _dot(kcs, kcs)
    residuals = {
        "orthogonality": inf_norm(S.matrix.T @ S.matrix - linalg.EYE3),
        "reduction": _norm([x - k for x, k in zip(S.apply(Ks).tolist(), kcs)]) / _norm(Ks),
        "invariants": abs(csq - ksq) / abs(ksq),
    }
    report["S"] = S.matrix
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
    a, n = abs(k0), _norm(k)
    scale = max(1.0, a * a + n * n)
    if abs(det - 1.0) > _SPINOR_DET_TOL * scale:
        raise CliError(f"k0^2 - k.k = {det:.15g}, violates the unit constraint", EXIT_BAD_SPINOR)
    k0, k = _project(k0, k)
    _check_spinor(k0, k)
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


def _fields(args) -> tuple[dict, list, list, list, UnitSystem]:
    """(input document, K, E, B, units) of a field-state command."""
    doc = _read_doc(args)
    _, K = _parse_theta(doc)
    E = _real_values(doc, "E", 3)
    B = _real_values(doc, "B", 3)
    return doc, K, E, B, UnitSystem(c=args.c, epsilon0=args.epsilon0)


def cmd_constitutive(args) -> dict:
    doc, K, E, B, units = _fields(args)
    D, H = _real_forward(E, B, K, units)
    f = _f_of(E, B, units)
    h = _mapped(_forward, f, K)
    cross = _norm([x - y for x, y in zip(_h_of(D, H, units), h)]) / _scale(f, K)
    tol = args.tol if args.tol is not None else 1e-12
    report = _base_report(args, "constitutive", doc, tol)
    report["units"] = {"c": units.c, "epsilon0": units.epsilon0}
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
    doc, K, E, B, units = _fields(args)
    if args.steps < 4:
        raise CliError("--steps must be at least 4", EXIT_MALFORMED)
    state = _state(None, _f_of(E, B, units), K, gram=True)
    tol = args.tol if args.tol is not None else DUAL_TOL
    rows = [_dual_row(state, 2.0 * math.pi * j / args.steps) for j in range(args.steps)]
    report = _base_report(args, "dual-scan", doc, tol)
    report["units"] = {"c": units.c, "epsilon0": units.epsilon0}
    report["scan"] = rows
    report["pass"] = _dual_pass(rows, tol)
    return report


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncframe",
        description="Small groups and nonlinear constitutive relations for "
        "space-time noncommutativity parameters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--in", dest="infile", metavar="FILE", help="read JSON input from FILE instead of stdin")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--seed", type=int, default=0, help="seed for any sampled quantities")
    common.add_argument("--tol", type=float, default=None, help="override the per-command residual threshold")
    common.add_argument("--eps-iso", dest="eps_iso", type=float, default=EPS_ISO,
                        help="relative isotropy threshold on |K.K| vs ||K||^2")
    common.add_argument("--c", type=float, default=1.0, help="speed of light (default 1)")
    common.add_argument("--epsilon0", type=float, default=1.0, help="vacuum permittivity (default 1)")

    sub = parser.add_subparsers(dest="subcommand", required=True)
    sub.add_parser("classify", parents=[common], help="invariants, class and subcase of theta")

    p = sub.add_parser("stabilizer", parents=[common], help="sample elements of the stabilizer of K")
    p.add_argument("--gamma", metavar="RE[,IM]", help="explicit parameter for the non-isotropic family")
    p.add_argument("--z", metavar="RE[,IM]", help="explicit parameter for the isotropic family")
    p.add_argument("--count", type=int, default=0, help="number of sampled elements to add")

    sub.add_parser("reduce", parents=[common], help="reducing rotation S and canonical K")
    sub.add_parser("factor", parents=[common], help="rotation/boost factorizations of a spinor element")

    p = sub.add_parser("constitutive", parents=[common], help="evaluate the constitutive relations")
    p.add_argument("--dual-check", action="append", metavar="CHI",
                   help="also report the dual-rotation residual at angle CHI (repeatable)")

    p = sub.add_parser("dual-scan", parents=[common], help="dual-rotation residual over [0, 2*pi)")
    p.add_argument("--steps", type=int, default=32)
    return parser


_HANDLERS = {
    "classify": cmd_classify,
    "stabilizer": cmd_stabilizer,
    "reduce": cmd_reduce,
    "factor": cmd_factor,
    "constitutive": cmd_constitutive,
    "dual-scan": cmd_dual_scan,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
