"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the random streams are seeded so the
suite is bit-reproducible.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    boost_closed_form,
    e_parallel_b_boost,
    random_unit_delta,
    rotation_matrix_angle_axis,
    to_matrix2,
)

from ncframe.electrodynamics import (
    UnitSystem,
    constitutive_forward,
    constitutive_inverse,
    constitutive_real_forward,
    covariance_residual,
    dual_invariance_residual,
    dual_transform,
    maxwell_variable_check,
    quarter_turn,
    residual_scale,
)
from ncframe.group import (
    ETA,
    _stabilizer_spinor,
    lorentz4_from_spinor,
    so3c_from_spinor,
    spinor_compose,
    spinor_from_boost,
    verify_su2_boost_identities,
)
from ncframe.linalg import bilinear_dot, hnorm, inf_norm
from ncframe.sampling import random_gamma, random_isotropic_k, random_nonisotropic_K, random_spinor
from ncframe.stabilizer import (
    K_to_theta,
    canonical_frame,
    invariants,
    isotropic_stabilizer_element,
    reduce_to_real,
    stabilizer_element,
    theta_to_K,
    unit_delta,
)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_homomorphism_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_o = worst_l = 0.0
    for _ in range(1000):
        b1, b2 = random_spinor(rng), random_spinor(rng)
        b12 = spinor_compose(b1, b2)
        worst_o = max(
            worst_o,
            inf_norm(so3c_from_spinor(b12).matrix - so3c_from_spinor(b1).matrix @ so3c_from_spinor(b2).matrix),
        )
        worst_l = max(
            worst_l,
            inf_norm(lorentz4_from_spinor(b12).matrix - lorentz4_from_spinor(b1).matrix @ lorentz4_from_spinor(b2).matrix),
        )
    elapsed = time.perf_counter() - start
    ok = worst_o < 1e-9 and worst_l < 1e-9 and elapsed < 5.0
    report(1, ok, f"1000 pairs: max 3x3 residual {worst_o:.2e}, max 4x4 residual {worst_l:.2e}, {elapsed:.2f} s")


def test_criterion_02_group_property_suite():
    rng = np.random.default_rng(102)
    worst_o = worst_eta = 0.0
    min_l00 = np.inf
    for _ in range(1000):
        b = random_spinor(rng)
        O = so3c_from_spinor(b).matrix
        L = lorentz4_from_spinor(b).matrix
        worst_o = max(worst_o, inf_norm(O.T @ O - np.eye(3)))
        worst_eta = max(worst_eta, inf_norm(L.T @ ETA @ L - ETA))
        min_l00 = min(min_l00, L[0, 0])
    ok = worst_o < 1e-10 and worst_eta < 1e-10 and min_l00 >= 1.0 - 1e-10
    report(2, ok, f"max O^T O residual {worst_o:.2e}, max metric residual {worst_eta:.2e}, min L00 {min_l00:.12f}")


def test_criterion_03_boost_closed_form():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        beta = rng.uniform(-3.0, 3.0)
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        L = lorentz4_from_spinor(spinor_from_boost(beta, e)).matrix
        worst = max(worst, inf_norm(L - boost_closed_form(beta, e)))
    ok = worst < 1e-12
    report(3, ok, f"100 boosts vs closed form: max entry deviation {worst:.2e}")


def test_criterion_04_stabilizer_suite():
    rng = np.random.default_rng(104)
    worst_fix = worst_comm = 0.0
    for _ in range(500):
        K = random_nonisotropic_K(rng)
        _, delta = unit_delta(K)
        el = stabilizer_element(random_gamma(rng), delta)
        worst_fix = max(worst_fix, hnorm(el.rotation.apply(K) - K) / hnorm(K))
        other = stabilizer_element(random_gamma(rng), delta)
        worst_comm = max(
            worst_comm,
            inf_norm(el.rotation.matrix @ other.rotation.matrix - other.rotation.matrix @ el.rotation.matrix),
        )
    worst_iso = worst_add = 0.0
    for _ in range(200):
        k = random_isotropic_k(rng)
        z1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        z2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        e1 = isotropic_stabilizer_element(z1, k)
        e2 = isotropic_stabilizer_element(z2, k)
        e12 = isotropic_stabilizer_element(z1 + z2, k)
        worst_iso = max(worst_iso, hnorm(e1.rotation.apply(k) - k) / hnorm(k))
        worst_add = max(worst_add, inf_norm(e1.rotation.matrix @ e2.rotation.matrix - e12.rotation.matrix))
    # one small group b(t; K) on both sides of the eps_iso switch: k.k = 8e-10
    # is isotropic to classify, yet z = 3e4 makes w = i z sqrt(k.k) of order 1
    k = np.array([1.0, 1j, 0.0]) + 4e-10 * np.array([1.0, 0.0, 0.0])
    z1, z2 = 3e4, 2e4j
    b1, b2, b12 = (to_matrix2(e.spinor.k0, e.spinor.k)
                   for e in (isotropic_stabilizer_element(z, k) for z in (z1, z2, z1 + z2)))
    switch_add = inf_norm(b1 @ b2 - b12) / max(1.0, inf_norm(b12))
    # and continuous through K.K = 0: ||b(t; K_eps) - b(t; K_0)|| = O(eps)
    K0 = np.array([1.0, 1j, 0.0])
    epsilons = 10.0 ** -np.arange(2.0, 13.0)
    slopes = []
    for _ in range(5):
        t = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        b0 = _stabilizer_spinor(t, K0)
        gaps = []
        for eps in epsilons:
            b = _stabilizer_spinor(t, K0 + eps * np.array([1.0, 0.0, 0.0]))
            gaps.append(max(abs(b.k0 - b0.k0), inf_norm(b.k - b0.k)))
        slopes.append(np.polyfit(np.log(epsilons), np.log(gaps), 1)[0])
    slope_ok = all(abs(s - 1.0) <= 0.1 for s in slopes)
    ok = max(worst_fix, worst_comm, worst_iso, worst_add, switch_add) < 1e-9 and slope_ok
    report(4, ok, f"fix {worst_fix:.2e}, commute {worst_comm:.2e}, isotropic fix {worst_iso:.2e}, z-additivity {worst_add:.2e}; "
                  f"across the eps_iso switch {switch_add:.2e}; continuity slopes {[f'{s:.3f}' for s in slopes]}")


def test_criterion_05_reduction_suite():
    rng = np.random.default_rng(105)
    worst_orth = worst_map = 0.0
    for i in range(200):
        delta, rho, N0, M0 = random_unit_delta(rng, rho_max=3.0)
        if i % 2 == 0:
            target = N0
            S = reduce_to_real(delta)
        else:
            target = rng.normal(size=3)
            target /= np.linalg.norm(target)
            S = reduce_to_real(delta, e_target=target)
        worst_orth = max(worst_orth, inf_norm(S.matrix.T @ S.matrix - np.eye(3)))
        worst_map = max(worst_map, hnorm(S.apply(delta) - target))
    worst_inv = 0.0
    for _ in range(100):
        K = random_nonisotropic_K(rng)
        _, kcanon = canonical_frame(K)
        i1, i2, mag, _ = invariants(K)
        j1, j2, _, _ = invariants(kcanon)
        worst_inv = max(worst_inv, max(abs(j1 - i1), abs(j2 - i2)) / mag)
    ok = worst_orth < 1e-9 and worst_map < 1e-9 and worst_inv < 1e-9
    report(5, ok, f"200 reductions: orthogonality {worst_orth:.2e}, mapping {worst_map:.2e}; invariants {worst_inv:.2e}")


def test_criterion_06_factorization_suite():
    from ncframe.factorization import (
        FactorOrder,
        factor_boost_rotation,
        factor_isotropic,
        factor_rotation_boost,
        scale_freedom_report,
    )
    from ncframe.group import SpinorElement

    rng = np.random.default_rng(106)
    worst_round = worst_boost = worst_pure = 0.0
    kinds_ok = True
    for _ in range(500):
        b = random_spinor(rng)
        for pair in (factor_rotation_boost(b), factor_boost_rotation(b)):
            # each factor is a pure element: real O = O^-T, or O^* = O^-1 = O^T
            for factor, kind in ((pair.rotation, "rotation"), (pair.boost, "boost")):
                rep = verify_su2_boost_identities(factor)
                kinds_ok = kinds_ok and rep["kind"] == kind
                worst_pure = max(worst_pure, rep["max_residual"])
            composed = pair.compose()
            scale = max(1.0, abs(b.k0), hnorm(b.k))
            worst_round = max(
                worst_round,
                max(abs(composed.k0 - pair.sign * b.k0), inf_norm(composed.k - pair.sign * b.k)) / scale,
            )
            b0, bv = pair.boost.k0.real, pair.boost.k.real
            worst_boost = max(worst_boost, abs(b0 * b0 - bv @ bv - 1.0))
    worst_iso = worst_scale = 0.0
    # the rescalings k -> lam exp(i sigma) k draw from their own stream
    scales = np.random.default_rng(1060)
    for _ in range(100):
        k = random_isotropic_k(rng)
        lam, sigma = scales.uniform(0.5, 2.0), scales.uniform(0.0, 2.0 * np.pi)
        worst_scale = max(worst_scale, scale_freedom_report(k, lam, sigma)["max_residual"])
        b = SpinorElement(1.0, k)
        for order in FactorOrder:
            pair = factor_isotropic(b, order)
            composed = pair.compose()
            worst_round = max(
                worst_round, max(abs(composed.k0 - b.k0), inf_norm(composed.k - b.k))
            )
            n2 = float(b.n @ b.n)
            worst_iso = max(worst_iso, abs(pair.boost.k0.real - np.sqrt(1.0 + n2)))
    ok = (worst_round < 1e-10 and worst_boost < 1e-10 and worst_iso < 1e-10
          and kinds_ok and worst_pure < 1e-10 and worst_scale < 1e-10)
    report(6, ok, f"roundtrip {worst_round:.2e}, boost constraint {worst_boost:.2e}, isotropic b0 {worst_iso:.2e}; "
                  f"pure factors {'ok' if kinds_ok else 'MISLABELLED'}, identities {worst_pure:.2e}; "
                  f"isotropic scale freedom {worst_scale:.2e}")


def test_criterion_07_constitutive_consistency():
    from ncframe.electrodynamics import constitutive_real_inverse

    rng = np.random.default_rng(107)
    units = UnitSystem(c=2.0, epsilon0=0.5)
    worst = 0.0
    for _ in range(500):
        E, B = rng.normal(size=3), rng.normal(size=3)
        K = rng.normal(size=3) + 1j * rng.normal(size=3)
        D, H = constitutive_real_forward(E, B, K, units)
        f = E + 1j * units.c * B
        h = (D + 1j * H / units.c) / units.epsilon0
        scale = max(1.0, hnorm(f) * (1.0 + hnorm(K) * hnorm(f)))
        worst = max(worst, hnorm(h - constitutive_forward(f, K)) / scale)
    for _ in range(500):
        D, H = rng.normal(size=3), rng.normal(size=3)
        K = rng.normal(size=3) + 1j * rng.normal(size=3)
        E, B = constitutive_real_inverse(D, H, K, units)
        h = (D + 1j * H / units.c) / units.epsilon0
        f = E + 1j * units.c * B
        scale = max(1.0, hnorm(h) * (1.0 + hnorm(K) * hnorm(h)))
        worst = max(worst, hnorm(f - constitutive_inverse(h, K)) / scale)
    slopes = []
    norms = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    for _ in range(5):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        f /= hnorm(f)
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        d /= hnorm(d)
        resid = [
            hnorm(constitutive_inverse(constitutive_forward(f, eps * d), eps * d) - f)
            for eps in norms
        ]
        slopes.append(np.polyfit(np.log(norms), np.log(resid), 1)[0])
    slope_ok = all(abs(s - 2.0) <= 0.1 for s in slopes)
    ok = worst < 1e-12 and slope_ok
    report(7, ok, f"1000 states: real/complex mismatch {worst:.2e}; roundtrip slopes {[f'{s:.3f}' for s in slopes]}")


def test_criterion_08_covariance():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(1000):
        b = random_spinor(rng)
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        K = rng.normal(size=3) + 1j * rng.normal(size=3)
        worst = max(worst, covariance_residual(b, f, K))
    worst_stab = 0.0
    for _ in range(100):
        K = random_nonisotropic_K(rng)
        _, delta = unit_delta(K)
        el = stabilizer_element(random_gamma(rng), delta)
        O = el.rotation.matrix
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        lhs = constitutive_forward(O @ f, K)  # same, untransformed K
        rhs = O @ constitutive_forward(f, K)
        scale = max(1.0, hnorm(f) * (1.0 + hnorm(K) * hnorm(f)))
        worst_stab = max(worst_stab, hnorm(lhs - rhs) / scale)
    ok = worst < 1e-9 and worst_stab < 1e-9
    report(8, ok, f"1000 elements: covariance {worst:.2e}; stabilizer with unprimed K {worst_stab:.2e}")


def test_criterion_09_dual_symmetry():
    rng = np.random.default_rng(109)
    witnesses = []
    for _ in range(8):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        f /= hnorm(f)
        K = rng.normal(size=3) + 1j * rng.normal(size=3)
        K *= 0.1 / hnorm(K)  # ||K|| ||f|| = 0.1
        witnesses.append((f, K))
    steps = 32
    discrete = {0, steps // 4, steps // 2, 3 * steps // 4}
    worst_discrete, min_witness, worst_definition = 0.0, np.inf, 0.0
    for j in range(steps):
        chi = 2.0 * np.pi * j / steps
        residuals = [dual_invariance_residual(f, K, chi) for f, K in witnesses]
        if j in discrete:
            worst_discrete = max(worst_discrete, max(residuals))
        else:
            min_witness = min(min_witness, max(residuals))
        # the same residual from its definition: rotate (f, h, K) by chi, then
        # apply the relation of the nearest quarter turn (inverse at odd ones)
        swapped = quarter_turn(chi)[0] % 2 == 1
        for (f, K), got in zip(witnesses, residuals):
            fp, hp, Kp = dual_transform(f, constitutive_forward(f, K), K, chi)
            r = fp - constitutive_inverse(hp, Kp) if swapped else hp - constitutive_forward(fp, Kp)
            worst_definition = max(worst_definition, abs(hnorm(r) / residual_scale(f, K) - got))
    ok = worst_discrete < 1e-10 and min_witness > 1e-4 and worst_definition < 1e-14
    report(9, ok, f"discrete angles max {worst_discrete:.2e}; weakest generic-angle witness {min_witness:.2e}; "
                  f"closed form vs definition {worst_definition:.2e}")


def test_criterion_10_theta_covariance_convention():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(500):
        b = random_spinor(rng)
        L = lorentz4_from_spinor(b).matrix
        O = so3c_from_spinor(b).matrix
        theta = rng.normal(size=(4, 4))
        theta -= theta.T
        lhs = theta_to_K(L @ theta @ L.T)
        rhs = O @ theta_to_K(theta)
        worst = max(worst, hnorm(lhs - rhs) / max(hnorm(rhs), 1e-12))
    ok = worst < 1e-9
    report(10, ok, f"500 random (element, theta): max intertwining residual {worst:.2e}")


def test_criterion_11_cli_contract(tmp_path, capsys):
    from test_cli import GOLDEN_DIR, assert_json_close, run_cli

    count = 0
    for golden_file in sorted(Path(GOLDEN_DIR).glob("*.json")):
        golden = json.loads(golden_file.read_text())
        code, out = run_cli(golden["argv"], golden["input"], tmp_path, capsys)
        assert code == golden["exit_code"], golden_file.name
        assert_json_close(out, golden["output"], golden_file.name)
        count += 1
    codes = []
    codes.append(run_cli(["classify"], {"theta": np.eye(4).tolist()}, tmp_path, capsys)[0])
    codes.append(run_cli(["stabilizer"], {"nm": [0] * 6}, tmp_path, capsys)[0])
    codes.append(run_cli(["reduce"], {"nm": [1, 0, 0, 0, 1, 0]}, tmp_path, capsys)[0])
    codes.append(run_cli(["factor"], {"spinor": [2, 0, 0, 0, 0, 0, 0, 0]}, tmp_path, capsys)[0])
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    from ncframe.cli import main

    codes.append(main(["classify", "--in", str(bad)]))
    capsys.readouterr()
    ok = count >= 6 and codes == [3, 4, 5, 6, 2]
    report(11, ok, f"{count} golden cases pass; error exit codes {codes} (expected [3, 4, 5, 6, 2])")


def test_criterion_12_majorana_oppenheimer_rewrites(rng):
    # random non-solution fields: large residuals, tiny rewrite discrepancies
    shape = (3, 8, 8, 8)
    fields = [rng.normal(size=shape) for _ in range(8)]
    rep = maxwell_variable_check(*fields, 0.7, units=UnitSystem(2.0, 3.0))
    worst = max(v for key in ("real_vs_complex", "complex_vs_gr") for v in rep[key].values())
    ok = rep["real"]["faraday"] > 0.1 and worst < 1e-12
    report(12, ok, f"off-shell fields: Faraday residual {rep['real']['faraday']:.2e}; "
                   f"real/complex/(G, R) rewrite discrepancy {worst:.2e}")


def test_criterion_13_special_frame():
    from test_stabilizer import frame_oracle

    from ncframe.factorization import FactorOrder, factor_boost_rotation, factor_isotropic, factor_rotation_boost

    rng = np.random.default_rng(113)
    worst_boost = worst_cosh = worst_parallel = 0.0
    worst_rot = worst_split = worst_orders = 0.0
    for _ in range(300):
        K = random_nonisotropic_K(rng)
        S, kcanon = canonical_frame(K)
        worst_boost = max(worst_boost, inf_norm(S.matrix - frame_oracle(K)) / max(1.0, inf_norm(S.matrix)))
        rho, axis = e_parallel_b_boost(K)
        L = boost_closed_form(rho, axis)
        ratio = hnorm(K) ** 2 / abs(bilinear_dot(K, K))
        worst_cosh = max(worst_cosh, abs(np.cosh(2.0 * rho) - ratio) / ratio)
        kp = theta_to_K(L @ K_to_theta(K) @ L.T)
        worst_parallel = max(worst_parallel, hnorm(np.cross(kp.real, kp.imag)) / hnorm(K) ** 2)
        # there the small group is SO(2) x SO(1,1): a rotation by Re gamma
        # about e times a boost of rapidity Im gamma along e, in either order
        kscalar, _ = unit_delta(K)
        e = (kcanon / kscalar).real
        gamma = random_gamma(rng)
        b = stabilizer_element(gamma, e).spinor
        pairs = [factor_rotation_boost(b), factor_boost_rotation(b)]
        for pair in pairs:
            rot = so3c_from_spinor(pair.rotation).matrix
            worst_rot = max(worst_rot, inf_norm(rot - rotation_matrix_angle_axis(gamma.real, e)))
            boost = lorentz4_from_spinor(pair.boost).matrix
            worst_split = max(worst_split, inf_norm(boost - boost_closed_form(gamma.imag, e)) / inf_norm(boost))
        worst_orders = max(worst_orders, inf_norm(pairs[0].boost.k - pairs[1].boost.k))
    # the isotropic family has no such frame: its rotation and boost axes
    # are orthogonal, never coaxial
    worst_axes = 0.0
    for _ in range(300):
        k = random_isotropic_k(rng)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = isotropic_stabilizer_element(z, k).spinor
        for order in FactorOrder:
            pair = factor_isotropic(b, order)
            n, v = pair.rotation.n, pair.boost.k.real
            worst_axes = max(worst_axes, abs(n @ v) / (np.linalg.norm(n) * np.linalg.norm(v)))
    ok = max(worst_boost, worst_cosh, worst_parallel, worst_rot, worst_split, worst_orders, worst_axes) < 1e-9
    report(13, ok, f"S vs E||B boost {worst_boost:.2e}, cosh 2 rho {worst_cosh:.2e}, n' x m' {worst_parallel:.2e}; "
                   f"SO(2) x SO(1,1): rotation {worst_rot:.2e}, boost {worst_split:.2e}, orders {worst_orders:.2e}; "
                   f"isotropic axes cosine {worst_axes:.2e}")
