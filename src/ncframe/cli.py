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
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .electrodynamics import (
    DUAL_TOL,
    FieldState,
    UnitSystem,
    constitutive_forward,
    dual_invariance_residual,
    quarter_turn,
    residual_scale,
)
from .errors import NcframeError, NotAntisymmetric
from .factorization import (
    factor_boost_rotation,
    factor_rotation_boost,
    isotropic_sign,
)
from .group import SpinorElement, project_to_group
from .linalg import EYE3, _ldexp, bilinear_dot, hnorm, inf_norm
from .sampling import default_rng, random_gamma
from .stabilizer import (
    EPS_ISO,
    NCClass,
    K_to_theta,
    canonical_frame,
    classify,
    isotropic_stabilizer_element,
    stabilizer_element,
    theta_to_K,
    unit_delta,
)
from .stabilizer import _scaled

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
    if not np.isfinite(x):
        raise CliError(f"non-finite value in output: {x}", EXIT_MALFORMED)
    return format(float(x), ".17g")


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _jfloat(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_jfloat(obj.real)}, {_jfloat(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
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


def _real_array(doc, key, size) -> np.ndarray:
    if key not in doc:
        raise CliError(f"missing field {key!r}", EXIT_MALFORMED)
    try:
        arr = np.asarray(doc[key], dtype=float).reshape(size)
    except (TypeError, ValueError) as exc:
        raise CliError(f"field {key!r}: {exc}", EXIT_MALFORMED) from exc
    if not np.all(np.isfinite(arr)):
        raise CliError(f"field {key!r} contains non-finite values", EXIT_MALFORMED)
    return arr


def _parse_theta(doc) -> tuple[np.ndarray, np.ndarray]:
    """Return (theta, K) from either the matrix or the 6-tuple form."""
    if "theta" in doc:
        theta = _real_array(doc, "theta", (4, 4))
        try:
            K = theta_to_K(theta, tol=_THETA_ANTISYM_TOL)
        except NotAntisymmetric as exc:
            raise CliError(str(exc), EXIT_NOT_ANTISYMMETRIC) from exc
        return theta, K
    if "nm" in doc:
        nm = _real_array(doc, "nm", (6,))
        K = nm[:3] + 1j * nm[3:]
        return K_to_theta(K), K
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


def _cvec(v) -> list:
    return [complex(x) for x in np.asarray(v, dtype=complex)]


def _classification_block(param) -> dict:
    return {
        "class": param.klass.value,
        "subcase": param.subcase.value,
        "invariants": {"I1": param.I1, "I2": param.I2, "I": param.I, "mu": param.mu},
        "K": _cvec(param.K),
    }


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_classify(args) -> dict:
    doc = _read_doc(args)
    theta, K = _parse_theta(doc)
    param = classify(K, eps_iso=args.eps_iso)
    tol = args.tol if args.tol is not None else 1e-9
    report = _base_report(args, "classify", doc, tol)
    report.update(_classification_block(param))
    report["theta"] = theta
    if param.klass is NCClass.NON_ISOTROPIC:
        kscalar, delta = unit_delta(K, eps_iso=args.eps_iso)
        report["Kscalar"] = kscalar
        report["delta"] = _cvec(delta)
        Ks, _, e = _scaled(K)
        report["residuals"] = {
            "delta_unit": abs(bilinear_dot(delta, delta) - 1.0),
            "split": hnorm(_ldexp(kscalar, -e) * delta - Ks) / hnorm(Ks),
        }
        report["pass"] = all(r <= tol for r in report["residuals"].values())
    else:
        report["residuals"] = {}
        report["pass"] = True
    return report


def _element_entry(elem, Ks, tol) -> dict:
    resid = hnorm(elem.rotation.apply(Ks) - Ks) / hnorm(Ks)
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
    doc = _read_doc(args)
    theta, K = _parse_theta(doc)
    param = classify(K, eps_iso=args.eps_iso)
    if param.klass is NCClass.COMMUTATIVE:
        raise CliError("K = 0: every Lorentz transformation is a stabilizer", EXIT_ZERO_K)
    tol = args.tol if args.tol is not None else 1e-9
    rng = default_rng(args.seed)
    report = _base_report(args, "stabilizer", doc, tol)
    report.update(_classification_block(param))
    if param.klass is NCClass.NON_ISOTROPIC:
        if args.z is not None:
            raise CliError("K is non-isotropic: use --gamma, not --z", EXIT_MALFORMED)
        _, delta = unit_delta(K, eps_iso=args.eps_iso)
        report["delta"] = _cvec(delta)
        flag, draw = args.gamma, lambda: random_gamma(rng)
        element = lambda gamma: stabilizer_element(gamma, delta)  # noqa: E731
    else:
        if args.gamma is not None:
            raise CliError("K is isotropic: use --z, not --gamma", EXIT_MALFORMED)
        flag, draw = args.z, lambda: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        element = lambda z: isotropic_stabilizer_element(z, K, args.eps_iso)  # noqa: E731
    params = [] if flag is None else [_parse_complex_flag(flag)]
    params.extend(draw() for _ in range(args.count))
    Ks = _scaled(K)[0]
    elements = [_element_entry(element(p), Ks, tol) for p in params]
    report["elements"] = elements
    report["pass"] = all(e["pass"] for e in elements)
    return report


def cmd_reduce(args) -> dict:
    doc = _read_doc(args)
    theta, K = _parse_theta(doc)
    param = classify(K, eps_iso=args.eps_iso)
    if param.klass is not NCClass.NON_ISOTROPIC:
        raise CliError(
            f"class {param.klass.value}: no reduction to a real direction exists", EXIT_NOT_REDUCIBLE
        )
    tol = args.tol if args.tol is not None else 1e-9
    S, kcanon = canonical_frame(K, eps_iso=args.eps_iso)
    Ks, _, e = _scaled(K)
    kcs = _ldexp(kcanon, -e)
    ksq, csq = bilinear_dot(Ks, Ks), bilinear_dot(kcs, kcs)
    residuals = {
        "orthogonality": inf_norm(S.matrix.T @ S.matrix - EYE3),
        "reduction": hnorm(S.apply(Ks) - kcs) / hnorm(Ks),
        "invariants": abs(csq - ksq) / abs(ksq),
    }
    report = _base_report(args, "reduce", doc, tol)
    report.update(_classification_block(param))
    report["S"] = S.matrix
    report["K_canonical"] = _cvec(kcanon)
    report["residuals"] = residuals
    report["pass"] = all(r <= tol for r in residuals.values())
    return report


def _spinor_entry(source: SpinorElement, pair) -> dict:
    composed = pair.compose()
    num = max(abs(composed.k0 - pair.sign * source.k0), inf_norm(composed.k - pair.sign * source.k))
    scale = max(1.0, abs(source.k0), hnorm(source.k))
    rot, boost = pair.rotation, pair.boost
    return {
        "order": pair.order.value,
        "sign": pair.sign,
        "rotation": {"n0": rot.n0, "n": rot.n},
        "boost": {"b0": boost.k0.real, "b": boost.k.real},
        "roundtrip_residual": num / scale,
    }


def cmd_factor(args) -> dict:
    doc = _read_doc(args)
    raw = _real_array(doc, "spinor", (8,))
    k0 = complex(raw[0], raw[1])
    k = raw[5:8].astype(complex) - 1j * raw[2:5]
    det = k0 * k0 - bilinear_dot(k, k)
    a, n = abs(k0), hnorm(k)
    scale = max(1.0, a * a + n * n)
    if abs(det - 1.0) > _SPINOR_DET_TOL * scale:
        raise CliError(f"k0^2 - k.k = {det:.15g}, violates the unit constraint", EXIT_BAD_SPINOR)
    b = project_to_group(k0, k)
    tol = args.tol if args.tol is not None else 1e-10
    pairs = [factor_rotation_boost(b), factor_boost_rotation(b)]
    report = _base_report(args, "factor", doc, tol)
    report["method"] = "isotropic" if isotropic_sign(b, args.eps_iso) else "generic"
    report["det_residual"] = abs(det - 1.0)
    report["factorizations"] = [_spinor_entry(b, p) for p in pairs]
    report["pass"] = all(f["roundtrip_residual"] <= tol for f in report["factorizations"])
    return report


def _dual_row(f, K, chi: float) -> dict:
    return {
        "chi": chi,
        "residual": dual_invariance_residual(f, K, chi),
        "expected_invariant": quarter_turn(chi)[1],
    }


def _dual_pass(rows, tol: float) -> bool:
    """Every row at a quarter turn is within tol; other angles are not expected to be."""
    return all(r["residual"] <= tol for r in rows if r["expected_invariant"])


def cmd_constitutive(args) -> dict:
    doc = _read_doc(args)
    theta, K = _parse_theta(doc)
    E = _real_array(doc, "E", (3,))
    B = _real_array(doc, "B", (3,))
    units = UnitSystem(c=args.c, epsilon0=args.epsilon0)
    state = FieldState.from_eb(E, B, K, units)
    f = state.f
    h = constitutive_forward(f, K)
    cross = hnorm(state.h - h) / residual_scale(f, K)
    tol = args.tol if args.tol is not None else 1e-12
    report = _base_report(args, "constitutive", doc, tol)
    report["units"] = {"c": units.c, "epsilon0": units.epsilon0}
    report["D"] = state.D
    report["H"] = state.H
    report["f"] = _cvec(f)
    report["h"] = _cvec(h)
    report["residuals"] = {"real_vs_complex": cross}
    dual_rows = [_dual_row(f, K, float(text)) for text in args.dual_check or []]
    if dual_rows:
        report["dual_checks"] = dual_rows
    report["pass"] = cross <= tol and _dual_pass(dual_rows, DUAL_TOL)
    return report


def cmd_dual_scan(args) -> dict:
    doc = _read_doc(args)
    theta, K = _parse_theta(doc)
    E = _real_array(doc, "E", (3,))
    B = _real_array(doc, "B", (3,))
    if args.steps < 4:
        raise CliError("--steps must be at least 4", EXIT_MALFORMED)
    units = UnitSystem(c=args.c, epsilon0=args.epsilon0)
    f = E + 1j * units.c * B
    tol = args.tol if args.tol is not None else DUAL_TOL
    rows = [_dual_row(f, K, 2.0 * np.pi * j / args.steps) for j in range(args.steps)]
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
