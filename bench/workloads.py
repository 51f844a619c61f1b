"""Seeded inputs, timed records and independent output checks of the workloads.

Each workload is a pool of records built from ``--seed`` alone.  A record is
one fixed amount of work; its runner calls the library (or the CLI) and
returns the raw outputs, and its checker judges those outputs afterwards,
outside the timed region, with code that does not go through the library:
literal 2x2 Pauli products, an explicit Minkowski metric, the stabilizer
element and the Lorentz action built from the record's own parameters, and
the constitutive formulas written out in numpy.  Beside identities that a
trivial answer would also meet (S^T S = I, O K = K), each stage's output is
checked for the shape only the real answer has, so a stage that skips its
work is caught.  Thresholds are the ones the library and its tests document.

The runners look every library function up on its module at call time
(``stabilizer.classify``, not a name bound at import), so the tracer in
``tracer.py`` sees each call when it is installed.

Workloads:

* ``frame`` -- theta -> K -> classify -> canonical frame -> stabilizer element
  -> Lorentz matrix -> rotation x boost factorization -> compose.  Exercises
  ``stabilizer``, ``factorization`` and ``group``; ``electrodynamics`` does
  no work here.
* ``fields`` -- the constitutive relations of one field state with their
  covariance, dual and (G, R) checks.  Exercises ``electrodynamics``;
  ``group`` appears through one ``so3c_from_spinor`` per record, while
  ``stabilizer`` and ``factorization`` do no work.
* ``cli`` -- one ``python -m ncframe.cli`` process per golden case, so
  interpreter start-up, import and JSON I/O dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ncframe import cli, electrodynamics, factorization, sampling, stabilizer

# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------

PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def mat2(k0, k) -> np.ndarray:
    """The element k0*I + k.sigma as an explicit 2x2 matrix."""
    return complex(k0) * np.eye(2) + np.tensordot(np.asarray(k, dtype=complex), PAULI, 1)


def coefficients(m2: np.ndarray) -> tuple[complex, np.ndarray]:
    """(k0, k) of a 2x2 matrix through trace projections."""
    return complex(0.5 * np.trace(m2)), 0.5 * np.einsum("ab,iba->i", m2, PAULI)


def so3c_oracle(k0, k) -> np.ndarray:
    """O_ij = tr(sigma_i B sigma_j B^-1) / 2 with B^-1 = k0*I - k.sigma."""
    b, b_inv = mat2(k0, k), mat2(k0, -np.asarray(k))
    return 0.5 * np.einsum("iab,bc,jcd,da->ij", PAULI, b, PAULI, b_inv)


def lorentz_oracle(k0, k) -> np.ndarray:
    """L_mn = tr(s_m A s_n A^H) / 2 with s = (I, sigma) and A = (B^-1)^H.

    The library's Lorentz matrix acts on covariant components, so it is the
    standard vector action of the contragredient element (B^-1)^H.
    """
    a = mat2(np.conj(k0), -np.conj(np.asarray(k)))
    s = np.concatenate([np.eye(2, dtype=complex)[None], PAULI])
    return 0.5 * np.einsum("mab,bc,ncd,da->mn", s, a, s, a.conj().T).real


def forward_oracle(f, K) -> np.ndarray:
    """h = [1 + (f*.K*)] f + (f*.f*)/2 K, written out with plain sums."""
    fc, Kc = np.conj(f), np.conj(K)
    return (1.0 + np.sum(fc * Kc)) * f + 0.5 * np.sum(fc * fc) * K


def inverse_oracle(h, K) -> np.ndarray:
    """f = [1 - (h*.K*)] h - (h*.h*)/2 K, written out with plain sums."""
    hc, Kc = np.conj(h), np.conj(K)
    return (1.0 - np.sum(hc * Kc)) * h - 0.5 * np.sum(hc * hc) * K


def dual_oracle(f, K, chi: float) -> float:
    """Residual of the relation that holds at the quarter turn nearest chi,
    after the dual rotation (f, h, K) -> (c f + i s h, c h + i s f, e^{i chi} K)."""
    h = forward_oracle(f, K)
    c, s = math.cos(chi), math.sin(chi)
    fp, hp, Kp = c * f + 1j * s * h, c * h + 1j * s * f, complex(c, s) * K
    if round(chi / (math.pi / 2)) % 4 in (1, 3):
        r = fp - inverse_oracle(hp, Kp)
    else:
        r = hp - forward_oracle(fp, Kp)
    nf = _norm(f)
    return _norm(r) / (nf * (1.0 + _norm(K) * nf))  # the library's own scale, no floor at 1


def gr_oracle(G, R, K) -> tuple[float, float]:
    """Norms of the two (G, R) constraints, written out with plain sums."""
    Gc, Rc, Kc = np.conj(G), np.conj(R), np.conj(K)
    a, b, s = np.sum(Gc * Kc), np.sum(R * Kc), np.sum(Gc * R)
    r1 = 2.0 * s * K + a * Rc + b * G
    r2 = a * G + b * Rc + 0.5 * (np.sum(Gc * Gc) + np.sum(R * R)) * K - 2.0 * Rc
    return _norm(r1), _norm(r2)


def _norm(v) -> float:
    return float(np.sqrt(np.sum(np.abs(v) ** 2)))


def _rel(diff, ref) -> float:
    return _norm(diff) / max(_norm(ref), 1e-300)


def _field_scale(f, K) -> float:
    """max(1, ||f|| (1 + ||K|| ||f||)), the residual scale of the acceptance suite."""
    nf = _norm(f)
    return max(1.0, nf * (1.0 + _norm(K) * nf))


# Documented thresholds (CLI defaults and acceptance criteria 02, 06-09).
TOL_INVARIANCE = 1e-9    # stabilizer fixes K, S K = K_canonical, S^T S = I
TOL_ROUNDTRIP = 1e-10    # factorization round trip
TOL_METRIC = 1e-10       # L^T eta L = eta, relative to max(1, ||L||^2)
TOL_REAL_COMPLEX = 1e-12 # real and complex constitutive routes agree
TOL_COVARIANCE = 1e-9
TOL_DUAL = 1e-10         # dual residual at the quarter-turn angles


class Pool:
    """Records of one workload, its stress probe, and a digest of their exact bytes."""

    def __init__(self, records: list, digest, stress: list = ()):
        self.records = records
        self.stress = list(stress)  # checked once per run, untimed; frame only
        self.sha256 = digest.hexdigest()

    def __len__(self):
        return len(self.records)


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------

# One block of 17 records; every pool is whole blocks, each block a seeded
# permutation of this list, so any seed gives the same class mix and every
# prefix of a pool is within one block of that mix.
#
# The shares are chosen for coverage; there is no recorded traffic to take
# them from.  A theta drawn at random is generic with probability one, so
# generic records are the largest share and set the headline.  The boundary
# subcases Ia/Ib/IIa/IIb (measure zero in random input, but each takes its
# own branch in classify and in the canonical frame) and commutative (the
# early exit) appear once, the smallest whole share; isotropic appears
# twice, as its stabilizer and factorization are separate code paths.
FRAME_BLOCK = (
    ("generic",) * 10
    + ("Ia", "Ib", "IIa", "IIb")
    + ("isotropic", "isotropic", "commutative")
)
# Records drawn at extreme scales (1e-150..1e150) or large rapidity (16..30).
# They expose the known numerical defects of ROADMAP item 3, so they are not
# part of the timed stream, whose records must all succeed: each run checks
# a fixed set of them, untimed, and reports how many fail (the stress probe).
STRESS_BLOCK = ("scale_generic", "scale_isotropic", "rapidity")
STRESS_BLOCKS = 100
EXPECTED_LABEL = {
    "generic": ("NonIsotropic", "Generic"),
    "Ia": ("NonIsotropic", "Ia"),
    "Ib": ("NonIsotropic", "Ib"),
    "IIa": ("NonIsotropic", "IIa"),
    "IIb": ("NonIsotropic", "IIb"),
    "isotropic": ("Isotropic", "None"),
    "commutative": ("Commutative", "None"),
    "scale_generic": ("NonIsotropic", "Generic"),
    "scale_isotropic": ("Isotropic", "None"),
    "rapidity": ("NonIsotropic", "Generic"),
}
FRAME_BLOCKS = 120
FRAME_TRACE_RECORDS = 200


@dataclass(frozen=True)
class FrameRecord:
    kind: str
    theta: np.ndarray  # antisymmetric 4x4
    K: np.ndarray      # the K the generator built, for the checks
    param: complex     # gamma (non-isotropic) or z (isotropic)


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.sqrt(v @ v)


def _unit_perp(rng, u) -> np.ndarray:
    v = rng.normal(size=3)
    v -= (v @ u) * u
    return v / np.sqrt(v @ v)


def _frame_K(rng, kind: str, s: float) -> np.ndarray:
    """K = n + i*m of the requested class at magnitude s."""
    if kind in ("generic", "scale_generic", "rapidity"):
        while True:
            n, m = rng.normal(size=3), rng.normal(size=3)
            nrm2 = n @ n + m @ m
            i1, i2 = n @ n - m @ m, 2.0 * (n @ m)
            if min(abs(i1), abs(i2)) > 0.05 * nrm2:
                return s * (n + 1j * m) / np.sqrt(nrm2)
    u = _unit(rng)
    p = _unit_perp(rng, u)
    if kind in ("isotropic", "scale_isotropic"):
        return s * (u + 1j * p)
    if kind == "commutative":
        return np.zeros(3, dtype=complex)
    if kind in ("Ia", "Ib"):
        r = rng.uniform(0.0, 0.8)
        big, small = s * u, r * s * p
        return big + 1j * small if kind == "Ia" else small + 1j * big
    # IIa / IIb: |n| = |m| with n.m of the chosen sign, away from isotropy
    a = rng.uniform(0.2, 1.3)
    if kind == "IIb":
        a = math.pi - a
    return s * u + 1j * s * (math.cos(a) * u + math.sin(a) * p)


def _theta(K: np.ndarray) -> np.ndarray:
    n, m = K.real, K.imag
    th = np.zeros((4, 4))
    th[0, 1:] = m
    th[2, 3], th[3, 1], th[1, 2] = n
    return th - th.T


def _frame_records(rng, block: tuple, blocks: int, digest) -> list:
    records = []
    for _ in range(blocks):
        for idx in rng.permutation(len(block)):
            kind = block[idx]
            if kind.startswith("scale_"):
                s = 10.0 ** rng.uniform(-150.0, 150.0)
            else:
                s = rng.uniform(0.5, 2.0)
            K = _frame_K(rng, kind, s)
            if kind in ("isotropic", "scale_isotropic"):
                # z*K stays O(1) whatever the scale of K
                param = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) / s
            elif kind == "rapidity":
                beta = rng.uniform(16.0, 30.0) * rng.choice((-1.0, 1.0))
                param = complex(rng.uniform(0.0, 2 * math.pi), beta)
            else:
                param = complex(rng.uniform(0.0, 2 * math.pi), rng.uniform(-2.0, 2.0))
            rec = FrameRecord(kind, _theta(K), K, param)
            digest.update(kind.encode())
            digest.update(rec.theta.tobytes())
            digest.update(np.complex128(param).tobytes())
            records.append(rec)
    return records


def build_frame(seed: int) -> Pool:
    """The timed pool, and the stress probe from a stream of its own."""
    digest = hashlib.sha256()
    records = _frame_records(np.random.default_rng(seed), FRAME_BLOCK, FRAME_BLOCKS, digest)
    stress = _frame_records(np.random.default_rng([seed, 1]), STRESS_BLOCK, STRESS_BLOCKS, digest)
    return Pool(records, digest, stress)


def run_frame(rec: FrameRecord) -> dict:
    K = stabilizer.theta_to_K(rec.theta)
    param = stabilizer.classify(K)
    out = {"label": (param.klass.value, param.subcase.value)}
    if param.klass is stabilizer.NCClass.COMMUTATIVE:
        return out
    if param.klass is stabilizer.NCClass.NON_ISOTROPIC:
        _, delta = stabilizer.unit_delta(K)
        S, kcanon = stabilizer.canonical_frame(K)
        elem = stabilizer.stabilizer_element(rec.param, delta)
        out["S"], out["kcanon"] = S.matrix, kcanon
        pairs = (
            factorization.factor_rotation_boost(elem.spinor),
            factorization.factor_boost_rotation(elem.spinor),
        )
    else:
        elem = stabilizer.isotropic_stabilizer_element(rec.param, K)
        pairs = tuple(
            factorization.factor_isotropic(elem.spinor, order)
            for order in factorization.FactorOrder
        )
    out["O"] = elem.rotation.matrix
    out["spinor"] = (elem.spinor.k0, elem.spinor.k)
    out["L"] = elem.lorentz4.matrix
    out["pairs"] = [
        (p.order.value, p.sign, (p.rotation.k0, p.rotation.k), (p.boost.k0, p.boost.k), p.compose())
        for p in pairs
    ]
    return out


def _expected_element(rec: FrameRecord) -> list[tuple[complex, np.ndarray]]:
    """(k0, k) the stabilizer element must have, built from the record alone.

    Isotropic: I + z K.sigma.  Non-isotropic: cos(g/2) - i sin(g/2) Delta.sigma
    with Delta = K / sqrt(K.K).  The sign of that square root is a branch
    choice (on the Ia boundary it follows the sign of a rounded invariant),
    so both signs are returned and the element must match one of them.
    """
    K = rec.K
    if rec.kind in ("isotropic", "scale_isotropic"):
        return [(1.0 + 0j, rec.param * K)]
    delta = K / np.sqrt(complex(np.sum(K * K)))
    half = rec.param / 2.0
    return [(np.cos(half), sign * -1j * np.sin(half) * delta) for sign in (1.0, -1.0)]


def check_frame(rec: FrameRecord, out: dict) -> str | None:
    """Reason the outputs are wrong, or None."""
    if out["label"] != EXPECTED_LABEL[rec.kind]:
        return "label"
    if rec.kind == "commutative":
        return None
    K = rec.K
    nK = _norm(K)
    k0, k = out["spinor"]
    scale = max(1.0, abs(k0), _norm(k))
    if min(max(abs(k0 - e0), _norm(k - e)) for e0, e in _expected_element(rec)) > TOL_ROUNDTRIP * scale:
        return "element"
    if _rel(out["O"] @ K - K, K) > TOL_INVARIANCE:
        return "stabilizer_fixes_K"
    if "S" in out:
        S, kcanon = out["S"], out["kcanon"]
        if np.abs(S.T @ S - np.eye(3)).max() > TOL_INVARIANCE:
            return "S_orthogonal"
        if _rel(S @ K - kcanon, K) > TOL_INVARIANCE:
            return "S_K_canonical"
        # Kcanon = Kscalar * e with e a real unit vector: Re and Im parallel,
        # and ||Kcanon|| = sqrt(|K.K|).
        u = kcanon / nK
        if _norm(np.cross(u.real, u.imag)) > TOL_INVARIANCE:
            return "K_canonical_shape"
        if abs(_norm(kcanon) - math.sqrt(abs(np.sum(K * K)))) > TOL_INVARIANCE * nK:
            return "K_canonical_shape"
    L = out["L"]
    L_scale = max(1.0, float(np.abs(L).max()))
    if np.abs(L.T @ ETA @ L - ETA).max() > TOL_METRIC * L_scale**2:
        return "lorentz_metric"
    if np.abs(L - lorentz_oracle(k0, k)).max() > TOL_METRIC * L_scale:
        return "lorentz_matrix"
    source = mat2(k0, k)
    for order, sign, rot, boost, composed in out["pairs"]:
        # rotation factor: real a0 >= 0 and imaginary k; boost: real b0 >= 1 and real k
        (a0, a), (b0, bk) = rot, boost
        if sign not in (1, -1) or abs(a0.imag) + _norm(np.real(a)) > TOL_ROUNDTRIP or a0.real < 0.0:
            return "rotation_factor_shape"
        if abs(b0.imag) + _norm(np.imag(bk)) > TOL_ROUNDTRIP * abs(b0) or b0.real < 1.0 - TOL_ROUNDTRIP:
            return "boost_factor_shape"
        r, b = mat2(*rot), mat2(*boost)
        product = r @ b if order == "rotation-first" else b @ r
        p0, p = coefficients(product - sign * source)
        if max(abs(p0), float(np.abs(p).max())) > TOL_ROUNDTRIP * scale:
            return "factor_roundtrip"
        c0, c = coefficients(mat2(composed.k0, composed.k) - product)
        if max(abs(c0), float(np.abs(c).max())) > TOL_ROUNDTRIP * scale:
            return "compose"
    return None


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

# Chosen for coverage, like FRAME_BLOCK: natural units are the library's
# default; one record in four uses SI, whose large constants (c ~ 3e8)
# exercise the scaling in the real-variable routes.  ||K|| ||f|| is drawn in
# [0.01, 0.3]: the inverse relation holds only to first order in K, so the
# coupling stays weak, as in the library's tests (||K|| ||f|| = 0.1 in the
# dual-symmetry criterion), yet large enough that the K terms count.
FIELDS_BLOCK = ("natural", "natural", "natural", "si")
FIELDS_BLOCKS = 500
FIELDS_TRACE_RECORDS = 200
DUAL_ANGLES = tuple(j * math.pi / 4 for j in range(8))  # quarter turns at even j


@dataclass(frozen=True)
class FieldsRecord:
    kind: str      # "natural" or "si"
    units: electrodynamics.UnitSystem
    E: np.ndarray
    B: np.ndarray
    f: np.ndarray  # E + i c B
    K: np.ndarray
    b: object      # SpinorElement from ncframe.sampling


def build_fields(seed: int) -> Pool:
    rng = np.random.default_rng(seed)
    digest = hashlib.sha256()
    records = []
    natural, si = electrodynamics.UnitSystem.natural(), electrodynamics.UnitSystem.si()
    for _ in range(FIELDS_BLOCKS):
        for idx in rng.permutation(len(FIELDS_BLOCK)):
            kind = FIELDS_BLOCK[idx]
            units = si if kind == "si" else natural
            amplitude = 1e3 if units is si else 1.0  # SI: E ~ 1 kV/m, c B ~ E
            E = amplitude * rng.normal(size=3)
            B = amplitude * rng.normal(size=3) / units.c
            f = E + 1j * units.c * B
            K = rng.normal(size=3) + 1j * rng.normal(size=3)
            K *= rng.uniform(0.01, 0.3) / (_norm(K) * _norm(f))  # ||K|| ||f|| in [0.01, 0.3]
            b = sampling.random_spinor(rng)
            for a in (E, B, K, np.complex128(b.k0), b.k):
                digest.update(np.asarray(a).tobytes())
            digest.update(kind.encode())
            records.append(FieldsRecord(kind, units, E, B, f, K, b))
    return Pool(records, digest)


def run_fields(rec: FieldsRecord) -> dict:
    ed = electrodynamics
    h = ed.constitutive_forward(rec.f, rec.K)
    f_back = ed.constitutive_inverse(h, rec.K)
    D, H = ed.constitutive_real_forward(rec.E, rec.B, rec.K, rec.units)
    E_back, B_back = ed.constitutive_real_inverse(D, H, rec.K, rec.units)
    covariance = ed.covariance_residual(rec.b, rec.f, rec.K)
    dual = [ed.dual_invariance_residual(rec.f, rec.K, chi) for chi in DUAL_ANGLES]
    frame = ed.gr_from_fields(rec.f, h)
    gr = ed.gr_constraint_residual(frame, rec.K)
    return {
        "h": h, "f_back": f_back, "D": D, "H": H, "E_back": E_back, "B_back": B_back,
        "covariance": covariance, "dual": dual, "G": frame.G, "R": frame.R, "gr": gr,
    }


def check_fields(rec: FieldsRecord, out: dict) -> str | None:
    c, eps0 = rec.units.c, rec.units.epsilon0
    f, K, h = rec.f, rec.K, out["h"]
    scale_f = _field_scale(f, K)
    if _norm(h - forward_oracle(f, K)) > TOL_REAL_COMPLEX * scale_f:
        return "forward_formula"
    if _norm((out["D"] + 1j * out["H"] / c) / eps0 - h) > TOL_REAL_COMPLEX * scale_f:
        return "real_vs_complex_forward"
    f_real = out["E_back"] + 1j * c * out["B_back"]
    if _norm(f_real - out["f_back"]) > TOL_REAL_COMPLEX * _field_scale(h, K):
        return "real_vs_complex_inverse"
    if not out["covariance"] <= TOL_COVARIANCE:
        return "covariance_reported"
    O = so3c_oracle(rec.b.k0, rec.b.k)
    moved = forward_oracle(O @ f, O @ K) - O @ forward_oracle(f, K)
    if _norm(moved) > TOL_COVARIANCE * scale_f:
        return "covariance_oracle"
    for j, (r, chi) in enumerate(zip(out["dual"], DUAL_ANGLES)):
        if not math.isfinite(r) or (j % 2 == 0 and r > TOL_DUAL):
            return "dual"
        if abs(r - dual_oracle(f, K, chi)) > TOL_DUAL:  # generic angles: second order in K
            return "dual_value"
    if _norm(out["G"] - (h + f) / 2) > TOL_REAL_COMPLEX * scale_f:
        return "G"
    if _norm(out["R"] - np.conj(h - f) / 2) > TOL_REAL_COMPLEX * scale_f:
        return "R"
    gr = gr_oracle(out["G"], out["R"], K)
    if any(abs(r - e) > TOL_REAL_COMPLEX * scale_f for r, e in zip(out["gr"], gr)):
        return "gr_constraint"
    return None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliRecord:
    kind: str      # golden case name
    argv: tuple
    stdin: bytes
    exit_code: int
    output: object


def golden_dir(root: str) -> Path:
    return Path(root) / "tests" / "golden"


def build_cli(seed: int, root: str) -> Pool:
    """The golden cases in a seeded cyclic order."""
    files = sorted(golden_dir(root).glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no golden cases under {golden_dir(root)}")
    digest = hashlib.sha256()
    cases = []
    for path in files:
        raw = path.read_bytes()
        doc = json.loads(raw)
        digest.update(raw)
        cases.append(
            CliRecord(path.stem, tuple(doc["argv"]), json.dumps(doc["input"]).encode(),
                      doc["exit_code"], doc["output"])
        )
    order = np.random.default_rng(seed).permutation(len(cases))
    digest.update(order.tobytes())
    return Pool([cases[i] for i in order], digest)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(argv: list, stdin: bytes, env: dict) -> tuple[int, bytes, float, float]:
    """Run one child to completion: (exit code, stdout, seconds, peak RSS MiB).

    Waits with wait4 so the peak RSS is that child's own.  The inputs are far
    below a pipe buffer, so writing all of stdin before reading is safe.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
        out = proc.stdout.read()
        proc.stdout.close()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, time.perf_counter() - t0, usage.ru_maxrss / 1024.0


def check_cli(rec: CliRecord, out: tuple) -> str | None:
    code, stdout = out
    if code != rec.exit_code:
        return "exit_code"
    try:
        got = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return "json"
    return None if got == rec.output else "output"


def cli_main_inprocess(rec: CliRecord, infile: str) -> tuple[int, bytes]:
    """``cli.main`` on one golden case with --in FILE; stdout is captured, not printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*rec.argv, "--in", infile])
    return code, buf.getvalue().encode()


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, root: str) -> Pool:
    if workload == "frame":
        return build_frame(seed)
    if workload == "fields":
        return build_fields(seed)
    return build_cli(seed, root)


RUNNERS = {"frame": (run_frame, check_frame), "fields": (run_fields, check_fields)}
TRACE_RECORDS = {"frame": FRAME_TRACE_RECORDS, "fields": FIELDS_TRACE_RECORDS}
