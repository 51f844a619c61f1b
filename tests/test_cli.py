"""CLI contract tests: golden outputs, exit codes, determinism.

Golden files live in tests/golden/, one JSON document per case holding the
argv tail, the input document, the expected exit code and the expected
output.  Regenerate after an intentional output change with:

    python tests/test_cli.py --regen
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncframe import cli, errors
from ncframe.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_cases():
    cosh1, sinh1 = math.cosh(1.0), math.sinh(1.0)
    phase = complex(math.cos(math.pi / 6), math.sin(math.pi / 6))
    K_reduce = 2.0 * phase * np.array([cosh1, 1j * sinh1, 0.0])
    return {
        "classify_real_axis": (
            ["classify"],
            {"nm": [1, 0, 0, 0, 0, 0]},
        ),
        "classify_theta_matrix": (
            ["classify"],
            {"theta": [[0, 0.3, 0, 0], [-0.3, 0, 0, 0], [0, 0, 0, 1.0], [0, 0, -1.0, 0]]},
        ),
        "classify_isotropic": (
            ["classify"],
            {"nm": [1, 0, 0, 0, 1, 0]},
        ),
        "classify_commutative": (
            ["classify"],
            {"nm": [0, 0, 0, 0, 0, 0]},
        ),
        "stabilizer_z_axis": (
            ["stabilizer", "--gamma", "1,0.5"],
            {"nm": [0, 0, 1, 0, 0, 0]},
        ),
        "stabilizer_isotropic": (
            ["stabilizer", "--z", "2,-1"],
            {"nm": [1, 0, 0, 0, 1, 0]},
        ),
        "stabilizer_sampled": (
            ["stabilizer", "--count", "2", "--seed", "7"],
            {"nm": [0.3, -0.2, 1.1, 0.1, 0.4, -0.5]},
        ),
        "reduce_real": (
            ["reduce"],
            {"nm": [1, 0, 0, 0, 0, 0]},
        ),
        "reduce_scaled_plane": (
            ["reduce"],
            {"nm": list(K_reduce.real) + list(K_reduce.imag)},
        ),
        "factor_pure_boost": (
            ["factor"],
            {"spinor": [math.cosh(0.6), 0, 0, 0, 0, 0, 0, math.sinh(0.6)]},
        ),
        "factor_generic": (
            ["factor"],
            # rotation(0.8, z) composed with boost(1.0, x), written out as reals
            {"spinor": _generic_spinor_reals()},
        ),
        "factor_isotropic": (
            ["factor"],
            {"spinor": [1, 0, 0, 0.5, 0, 0.5, 0, 0]},
        ),
        "constitutive_basic": (
            [
                "constitutive",
                "--dual-check", repr(math.pi / 2),
                "--dual-check", repr(math.pi / 4),
            ],
            {"E": [1, 0, 0], "B": [0, 0, 0], "nm": [0.1, 0, 0, 0, 0, 0]},
        ),
        "dual_scan_4": (
            ["dual-scan", "--steps", "4"],
            {"E": [1, 0, 0], "B": [0, 0.2, 0.1], "nm": [0.1, 0, 0, 0, 0.05, 0]},
        ),
    }


def _generic_spinor_reals():
    from ncframe.group import spinor_compose, spinor_from_boost, spinor_from_rotation

    b = spinor_compose(spinor_from_rotation(0.8, [0, 0, 1.0]), spinor_from_boost(1.0, [1.0, 0, 0]))
    return [b.n0, b.m0, *b.n, *b.m]


def run_cli(argv, doc, tmp_path, capsys):
    infile = tmp_path / "input.json"
    infile.write_text(json.dumps(doc))
    code = main([*argv, "--in", str(infile)])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def assert_json_close(got, want, path=""):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), f"{path}: keys differ"
        for k in want:
            assert_json_close(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, f"{path}: {got!r} != {want!r}"
    else:
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden(name, tmp_path, capsys):
    golden_file = GOLDEN_DIR / f"{name}.json"
    golden = json.loads(golden_file.read_text())
    code, out = run_cli(golden["argv"], golden["input"], tmp_path, capsys)
    assert code == golden["exit_code"]
    # the benchmark's cli workload compares exactly, so a golden must be current
    assert out == golden["output"], name


_NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
import ncframe
imported = "numpy" in sys.modules
dataclasses_imported = "dataclasses" in sys.modules
# from here on, importing numpy or dataclasses raises ImportError
sys.modules["numpy"] = sys.modules["dataclasses"] = None
from ncframe.cli import main
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results[name] = [code, out.getvalue()]
modules = sorted(name for name in sys.modules if name.startswith("ncframe"))
print(json.dumps({"numpy_after_import": imported, "dataclasses_after_import": dataclasses_imported,
                  "argparse_after_run": "argparse" in sys.modules, "modules": modules,
                  "results": results}))
"""


def test_goldens_run_without_numpy(tmp_path):
    # one child for all cases, to keep the suite's time budget
    cases = {name: json.loads((GOLDEN_DIR / f"{name}.json").read_text()) for name in sorted(golden_cases())}
    assert len(cases) == 14
    argvs = {}
    for name, golden in cases.items():
        infile = tmp_path / f"{name}.json"
        infile.write_text(json.dumps(golden["input"]))
        argvs[name] = [*golden["argv"], "--in", str(infile)]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["numpy_after_import"] is False
    assert child["dataclasses_after_import"] is False
    assert child["argparse_after_run"] is False
    # no public layer module: the commands run on ncframe._kernels alone
    assert child["modules"] == ["ncframe", "ncframe._kernels", "ncframe.cli", "ncframe.errors"]
    for name, golden in cases.items():
        code, out = child["results"][name]
        assert code == golden["exit_code"], name
        assert json.loads(out) == golden["output"], name


def test_overflowing_gamma_is_refused_without_numpy(tmp_path):
    # past |Im w| ~ 710 cos w and sin w overflow; the kernel refuses the
    # element itself, with no numpy and so no RuntimeWarning on stderr
    infile = tmp_path / "k.json"
    infile.write_text('{"nm": [0, 0, 1, 0, 0, 0]}')
    argvs = {"overflow": ["stabilizer", "--gamma", "0,2000", "--in", str(infile)]}
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CHILD, json.dumps(argvs)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # a ConstraintViolation, so exit 6 as in factor (it was 2, through ValueError)
    assert json.loads(proc.stdout)["results"]["overflow"] == [6, ""]
    assert "k0^2 - k.k = nan" in proc.stderr and "Warning" not in proc.stderr


def test_kernels_import_without_numpy_or_dataclasses():
    code = ('import sys; sys.modules["numpy"] = sys.modules["dataclasses"] = None\n'
            "import ncframe._kernels")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


class TestFlags:
    """The flag loop: exact names, values that may start with "-", and exit 2,
    never SystemExit, for anything it cannot read."""

    @pytest.mark.parametrize("argv", [
        pytest.param([], id="no-command"),
        pytest.param(["bogus"], id="unknown-command"),
        pytest.param(["classify", "--bogus", "1"], id="unknown-flag"),
        pytest.param(["classify", "--gamma", "1"], id="flag-of-another-command"),
        pytest.param(["stabilizer", "--cou", "1"], id="abbreviated-flag"),
        pytest.param(["classify", "extra"], id="positional"),
        pytest.param(["stabilizer", "--count"], id="missing-value"),
        pytest.param(["stabilizer", "--seed", "1.5"], id="float-seed"),
        pytest.param(["dual-scan", "--steps", "four"], id="word-steps"),
        pytest.param(["classify", "--c", "one"], id="word-c"),
        pytest.param(["classify", "--format", "xml"], id="unknown-format"),
    ])
    def test_unreadable_argv_returns_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("ncframe: ")

    @pytest.mark.parametrize("flag", ["--tol", "--eps-iso"])
    @pytest.mark.parametrize("value", ["-1", "-1e-300", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["classify", "stabilizer", "reduce", "factor"])
    def test_invalid_threshold_is_refused(self, command, flag, value, capsys):
        # --eps-iso -1 ended in a ZeroDivisionError traceback (exit 1) on an
        # isotropic K; --tol nan failed as "non-finite value in output"
        assert main([command, flag, value]) == 2
        assert capsys.readouterr().err == f"ncframe: {flag}: must be finite and >= 0, got {value!r}\n"

    def test_zero_thresholds_are_accepted(self, tmp_path, capsys):
        code, out = run_cli(["classify", "--tol", "0", "--eps-iso", "0"], {"nm": [1, 0, 0, 0, 1, 0]}, tmp_path, capsys)
        assert (code, out["class"], out["tolerances"]) == (0, "Isotropic", {"tol": 0, "eps_iso": 0})

    def test_negative_seed_is_refused_when_sampling(self, tmp_path, capsys):
        # random.Random ignores the sign of its seed: --seed -7 would draw what --seed 7 draws
        doc = {"nm": [0, 0, 1, 0, 0, 0]}
        code, _ = run_cli(["stabilizer", "--count", "2", "--seed", "-7"], doc, tmp_path, capsys)
        assert code == 2
        code, out = run_cli(["stabilizer", "--gamma", "1", "--seed", "-7"], doc, tmp_path, capsys)
        assert (code, out["seed"], len(out["elements"])) == (0, -7, 1)

    def test_values_may_start_with_a_dash(self, tmp_path, capsys):
        # argparse refused --gamma -1,0.5 with "expected one argument"
        doc = {"nm": [0, 0, 1, 0, 0, 0]}
        code, out = run_cli(["stabilizer", "--gamma", "-1,0.5"], doc, tmp_path, capsys)
        assert code == 0 and out["pass"] and out["elements"][0]["gamma"] == [-1, 0.5]

    def test_flag_equals_value(self, tmp_path, capsys):
        golden = json.loads((GOLDEN_DIR / "constitutive_basic.json").read_text())
        argv = [a for a in golden["argv"] if a != "--dual-check"]
        argv = [argv[0], *(f"--dual-check={chi}" for chi in argv[1:])]
        code, out = run_cli(argv, golden["input"], tmp_path, capsys)
        assert (code, out) == (golden["exit_code"], golden["output"])

    def test_sampled_parameters_come_from_random_random(self, tmp_path, capsys):
        import random

        rng = random.Random(7)
        gammas = [[rng.uniform(0, 2 * math.pi), rng.uniform(-2, 2)] for _ in range(2)]
        golden = json.loads((GOLDEN_DIR / "stabilizer_sampled.json").read_text())
        assert [e["gamma"] for e in golden["output"]["elements"]] == gammas
        rng = random.Random(3)
        zs = [[rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)] for _ in range(2)]
        code, out = run_cli(["stabilizer", "--count", "2", "--seed", "3"], {"nm": [1, 0, 0, 0, 1, 0]}, tmp_path, capsys)
        assert code == 0 and [e["z"] for e in out["elements"]] == zs

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == "ncframe 0.1.0\n"

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["stabilizer", "--count", "2", "--help"]])
    def test_help(self, argv, capsys):
        from ncframe import cli

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == cli.__doc__ + "\n" and out.startswith("`ncframe`") and "Usage: ncframe COMMAND" in out
        assert all(flag in out for _, flags, _ in cli._COMMANDS.values() for flag in flags)


# The commands that report the scaled view of K.
VIEW_COMMANDS = (["classify"], ["reduce"], ["stabilizer", "--count", "2"])
OVERFLOWING_FRAME = [-0.0235, -0.774, 1.7078084781192e308, 1.7078084781192e308, 2.36e-51, -0.702]


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        infile = tmp_path / "bad.json"
        infile.write_text("{not json")
        assert main(["classify", "--in", str(infile)]) == 2

    def test_missing_field(self, tmp_path, capsys):
        code, _ = run_cli(["classify"], {"wrong": 1}, tmp_path, capsys)
        assert code == 2

    def test_non_finite_input(self, tmp_path, capsys):
        infile = tmp_path / "inf.json"
        infile.write_text('{"nm": [1e999, 0, 0, 0, 0, 0]}')
        assert main(["classify", "--in", str(infile)]) == 2

    @pytest.mark.parametrize("entry", ["1", " 2 ", "1_0", "nan", True, False, None, {}])
    @pytest.mark.parametrize("argv, key, doc", [
        (["classify"], "nm", {"nm": [1, 0, 0, 0, 0.5, 0]}),
        (["classify"], "theta", {"theta": [0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0.5, 0, 0, -0.5, 0]}),
        (["constitutive"], "E", {"nm": [0.1, 0, 0, 0, 0.05, 0], "E": [1, 0, 0], "B": [0, 0.2, 0.1]}),
        (["dual-scan"], "B", {"nm": [0.1, 0, 0, 0, 0.05, 0], "E": [1, 0, 0], "B": [0, 0.2, 0.1]}),
        (["factor"], "spinor", {"spinor": [1, 0, 0, 0, 0, 0, 0, 0]}),
    ], ids=lambda x: x if isinstance(x, str) else None)
    def test_entries_must_be_json_numbers(self, argv, key, doc, entry, tmp_path, capsys):
        # float() reads "1", " 2 ", "1_0" and true as numbers, so such
        # entries once passed as coordinates; now one is refused at either
        # end of the list, in the right count or with one entry too many
        assert run_cli(argv, doc, tmp_path, capsys)[0] == 0
        values = doc[key]
        for i in (0, len(values) - 1):
            for extra in ([], [0]):
                spoiled = [*values[:i], entry, *values[i + 1:], *extra]
                assert run_cli(argv, {**doc, key: spoiled}, tmp_path, capsys) == (2, None)

    def test_string_and_bool_coordinates(self, tmp_path, capsys):
        # the document that classified K = (1, 1, 2 + 10i), exit 0
        infile = tmp_path / "input.json"
        infile.write_text('{"nm": ["1", true, " 2 ", "1_0", 0, 0]}')
        assert main(["classify", "--in", str(infile)]) == 2
        assert "must be a JSON number" in capsys.readouterr().err
        # rows of a theta are checked entry by entry too
        rows = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, "0"], [0, 0, 0, 0]]
        assert run_cli(["classify"], {"theta": rows}, tmp_path, capsys) == (2, None)

    def test_integer_beyond_the_float_range(self, tmp_path, capsys):
        # a JSON integer too large for a float escaped as an OverflowError
        infile = tmp_path / "big.json"
        infile.write_text('{"nm": [1' + "0" * 400 + ", 0, 0, 0, 0, 0]}")
        assert main(["classify", "--in", str(infile)]) == 2

    @pytest.mark.parametrize("depth", [500, 5000])
    def test_deeply_nested_input(self, depth, tmp_path, capsys):
        # a RecursionError escaped, from the list walk at 500 levels and from
        # json.load at 5000
        infile = tmp_path / "deep.json"
        infile.write_text('{"nm": ' + "[" * depth + "]" * depth + "}")
        assert main(["classify", "--in", str(infile)]) == 2

    def test_not_antisymmetric(self, tmp_path, capsys):
        theta = np.eye(4).tolist()
        code, _ = run_cli(["classify"], {"theta": theta}, tmp_path, capsys)
        assert code == 3

    def test_stabilizer_zero_k(self, tmp_path, capsys):
        code, _ = run_cli(["stabilizer"], {"nm": [0, 0, 0, 0, 0, 0]}, tmp_path, capsys)
        assert code == 4

    def test_reduce_isotropic(self, tmp_path, capsys):
        code, _ = run_cli(["reduce"], {"nm": [1, 0, 0, 0, 1, 0]}, tmp_path, capsys)
        assert code == 5

    def test_reduce_commutative(self, tmp_path, capsys):
        code, _ = run_cli(["reduce"], {"nm": [0, 0, 0, 0, 0, 0]}, tmp_path, capsys)
        assert code == 5

    @pytest.mark.parametrize("argv, nm", [
        pytest.param(argv, nm, id=f"{kind}argv{i}")
        for kind, nm in (("", [1e-170, 0, 0, 0, 5e-171, 0]), ("subnormal-", [1e-320, 0, 0, 0, 5e-321, 0]))
        for i, argv in enumerate(VIEW_COMMANDS)
    ])
    def test_residuals_at_tiny_k(self, argv, nm, tmp_path, capsys):
        # ||K||^2 and K.K underflow to 0 at 1e-170; the residuals are degree 0
        # in K.  At 1e-320 Kscalar and K_canonical of K as given are
        # subnormal, so the report gives those of 2**-exponent K.
        code, out = run_cli(argv, {"nm": nm}, tmp_path, capsys)
        assert code == 0 and out["pass"] and out["class"] == "NonIsotropic"

    @pytest.mark.parametrize("nm", [[1e200, 0, 0, 0, 0, 0], [1e200, 0, 0, 0, 5e199, 0]], ids=["real", "complex"])
    @pytest.mark.parametrize("argv", VIEW_COMMANDS, ids=lambda argv: argv[0])
    def test_classify_overflowing_invariants(self, argv, nm, tmp_path, capsys):
        # I1 = n.n - m.m of K as given overflows to inf, or to NaN (inf - inf)
        # when m is as large as n; the report gives those of Ks = 2**-665 K
        code, out = run_cli(argv, {"nm": nm}, tmp_path, capsys)
        assert code == 0 and out["pass"] and out["exponent"] == 665
        assert all(map(math.isfinite, out["invariants"].values()))

    def test_factor_constraint_violation(self, tmp_path, capsys):
        # k0^2 - k.k is 3, NaN (inf - inf) and 0 (so it cannot be projected)
        for spinor in ([2, 0, 0, 0, 0, 0, 0, 0], [1e200, 0, 0, 0, 0, 0, 0, 1e200],
                       [1e100, 0, 0, 0, 0, 0, 0, 1e100]):
            code, _ = run_cli(["factor"], {"spinor": spinor}, tmp_path, capsys)
            assert code == 6, spinor

    @pytest.mark.parametrize("spinor", [[1.7e308, -1e308, 0, 0, 0, 0, 0, 0], [1.3e154, 0.55e154, 0, 0, 0, 0, 0, 0]])
    def test_factor_overflowing_modulus(self, spinor, tmp_path, capsys):
        # |k0| or |k0^2 - k.k - 1| overflows: Python's abs raised OverflowError
        code, _ = run_cli(["factor"], {"spinor": spinor}, tmp_path, capsys)
        assert code == 6

    def test_reduce_overflowing_frame(self, tmp_path, capsys):
        # at --eps-iso 0 this K is non-isotropic with ||Delta||^2 near 1e308,
        # and S Delta overflows: a ZeroDivisionError in _kernels._canonical
        code, _ = run_cli(["reduce", "--eps-iso", "0"], {"nm": OVERFLOWING_FRAME}, tmp_path, capsys)
        assert code == 7

    def test_dual_scan_too_few_steps(self, tmp_path, capsys):
        doc = {"E": [1, 0, 0], "B": [0, 0, 0], "nm": [0.1, 0, 0, 0, 0, 0]}
        code, _ = run_cli(["dual-scan", "--steps", "3"], doc, tmp_path, capsys)
        assert code == 2

    def test_stabilizer_negative_count(self, tmp_path, capsys):
        # range(-3) is empty: without the refusal, no element is checked and the report passes
        doc = {"nm": [0, 0, 1, 0, 0, 0]}
        code, _ = run_cli(["stabilizer", "--count", "-3"], doc, tmp_path, capsys)
        assert code == 2

    @pytest.mark.parametrize("chi", ["nan", "inf"])
    def test_non_finite_dual_angle(self, chi, tmp_path, capsys):
        doc = {"E": [1, 0, 0], "B": [0, 0, 0], "nm": [0.1, 0, 0, 0, 0, 0]}
        code, _ = run_cli(["constitutive", "--dual-check", chi], doc, tmp_path, capsys)
        assert code == 2

    def test_rapidity_26_factor_exits_0(self, tmp_path, capsys):
        # a pure boost of rapidity 26, where 1 - B.B for the velocity
        # B = b/b0 is about 1e-11: the factorization must not go through B
        doc = {"spinor": [math.cosh(13.0), 0, 0, 0, 0, 0, 0, math.sinh(13.0)]}
        code, out = run_cli(["factor"], doc, tmp_path, capsys)
        assert code == 0 and out["pass"]
        assert all(f["roundtrip_residual"] <= out["tolerances"]["tol"] for f in out["factorizations"])

    def test_every_library_error_maps_to_exit_7(self, tmp_path, capsys, monkeypatch):
        from ncframe import cli

        def fail(args, doc):
            raise errors.DegenerateDelta("forced")

        _, flags, tol = cli._COMMANDS["reduce"]
        monkeypatch.setitem(cli._COMMANDS, "reduce", (fail, flags, tol))
        code, _ = run_cli(["reduce"], {"nm": [1, 0, 0, 0, 0, 0]}, tmp_path, capsys)
        assert code == 7

    @pytest.mark.parametrize("argv, doc, kind, code", [
        pytest.param(["classify"], {"theta": np.eye(4).tolist()}, errors.NotAntisymmetric, 3, id="3"),
        pytest.param(["stabilizer"], {"nm": [0, 0, 0, 0, 0, 0]}, errors.ZeroVector, 4, id="4"),
        pytest.param(["reduce"], {"nm": [1, 0, 0, 0, 1, 0]}, errors.IsotropicInput, 5, id="5"),
        pytest.param(["stabilizer", "--gamma", "0,2000"], {"nm": [0, 0, 1, 0, 0, 0]},
                     errors.ConstraintViolation, 6, id="6-stabilizer"),
        pytest.param(["factor"], {"spinor": [2, 0, 0, 0, 0, 0, 0, 0]}, errors.ConstraintViolation, 6, id="6-factor"),
        pytest.param(["classify"], {"wrong": 1}, ValueError, 2, id="2"),
        pytest.param(["classify"], {"nm": [0, math.nan, 0, 0, 0, 0]}, errors.NonFiniteInput, 2, id="2-NonFiniteInput"),
        pytest.param(["reduce", "--eps-iso", "0"], {"nm": OVERFLOWING_FRAME}, errors.DegenerateDelta, 7, id="7"),
    ])
    def test_exit_table(self, argv, doc, kind, code, tmp_path, capsys):
        # one input per row of cli._EXITS: the command raises the type, and
        # main exits with the code of the first row that the type matches
        args = cli._parse_args(argv)
        with pytest.raises(kind) as info:
            cli._COMMANDS[args.command][0](args, doc)
        assert type(info.value) is kind
        assert run_cli(argv, doc, tmp_path, capsys) == (code, None)

    @pytest.mark.parametrize("argv, doc", [
        (["stabilizer", "--gamma", "0,800"], {"nm": [0, 0, 1, 0, 0, 0]}),
        (["stabilizer", "--gamma", "1e308,0"], {"nm": [0.3, -0.2, 1.1, 0.1, 0.4, -0.5]}),
        (["stabilizer", "--z", "1e300"], {"nm": [1, 0, 0, 0, 1, 0]}),
    ])
    def test_stabilizer_constraint_violation_exits_6(self, argv, doc, tmp_path, capsys):
        # the element overflows and its spinor check refuses it: exit 6, as
        # in factor (it was 2, through the ValueError branch)
        infile = tmp_path / "input.json"
        infile.write_text(json.dumps(doc))
        assert main([*argv, "--in", str(infile)]) == 6
        assert capsys.readouterr().err.startswith("ncframe: k0^2 - k.k = nan")

    @pytest.mark.parametrize("flag", ["--gamma", "--z"])
    @pytest.mark.parametrize("value", ["nan", "1,inf", "-inf,0", "1,2,3", "one"])
    def test_non_finite_parameter_is_a_flag_error(self, flag, value, tmp_path, capsys):
        # refused while reading the flags, before K = 0 (exit 4) is seen
        infile = tmp_path / "zero.json"
        infile.write_text('{"nm": [0, 0, 0, 0, 0, 0]}')
        assert main(["stabilizer", flag, value, "--in", str(infile)]) == 2
        assert capsys.readouterr().err.startswith(f"ncframe: {flag}: ")

    @pytest.mark.parametrize("flags", [["--steps", "3"], ["--steps", "x"], ["--c", "0"]])
    def test_flag_errors_come_before_input_errors(self, flags, tmp_path, capsys):
        # theta is not antisymmetric (exit 3), but the flags are refused first
        doc = {"theta": np.eye(4).tolist(), "E": [1, 0, 0], "B": [0, 0, 0]}
        assert run_cli(["dual-scan", *flags], doc, tmp_path, capsys) == (2, None)
        assert run_cli(["dual-scan"], doc, tmp_path, capsys) == (3, None)

    @pytest.mark.parametrize("chi", ["nan", "inf", "-inf", "-nan", "1e999", "x"])
    def test_non_finite_dual_check_is_a_flag_error(self, chi, tmp_path, capsys):
        # refused while reading the flags, before the theta that is not
        # antisymmetric (exit 3); a NaN was read as a float and exited 3
        infile = tmp_path / "input.json"
        infile.write_text(json.dumps({"theta": np.eye(4).tolist(), "E": [1, 0, 0], "B": [0, 0, 0]}))
        assert main(["constitutive", "--dual-check", chi, "--in", str(infile)]) == 2
        assert capsys.readouterr().err.startswith("ncframe: --dual-check: ")
        assert main(["constitutive", "--dual-check", "0.5", "--in", str(infile)]) == 3

    @pytest.mark.parametrize("argv", [["constitutive", "--dual-check", repr(math.pi / 2)],
                                      ["dual-scan", "--steps", "4"]])
    def test_dual_residual_above_dual_tol_fails(self, argv, tmp_path, capsys, monkeypatch):
        from ncframe import cli
        from ncframe.electrodynamics import DUAL_TOL

        doc = {"E": [1, 0, 0], "B": [0, 0.2, 0.1], "nm": [0.1, 0, 0, 0, 0.05, 0]}
        for residual, code, passed in ((DUAL_TOL, 0, True), (math.nextafter(DUAL_TOL, 1.0), 1, False)):
            monkeypatch.setattr(cli, "_dual_residual", lambda state, turn: residual)
            got, out = run_cli(argv, doc, tmp_path, capsys)
            assert (got, out["pass"]) == (code, passed)

    @pytest.mark.parametrize("argv", [["constitutive"], ["dual-scan"]])
    def test_units_with_underflowing_product(self, argv, tmp_path, capsys):
        # c * epsilon0 = 1e-400 is not a normal float; the real inverse read NaN
        doc = {"E": [1, 0, 0], "B": [0, 0.2, 0.1], "nm": [0.1, 0, 0, 0, 0.05, 0]}
        code, _ = run_cli([*argv, "--c", "1e-200", "--epsilon0", "1e-200"], doc, tmp_path, capsys)
        assert code == 2

    @pytest.mark.parametrize("units", [["--c", "0"], ["--c", "-1"], ["--epsilon0", "nan"],
                                       ["--c", "1e200", "--epsilon0", "1e200"]])
    @pytest.mark.parametrize("argv", [["constitutive"], ["dual-scan"]])
    def test_units_are_checked(self, argv, units, tmp_path, capsys):
        # a value that is not finite and > 0 is a flag error; the UnitSystem
        # check refuses a product of valid values outside the normal range
        infile = tmp_path / "input.json"
        infile.write_text('{"E": [1, 0, 0], "B": [0, 0.2, 0.1], "nm": [0.1, 0, 0, 0, 0.05, 0]}')
        assert main([*argv, *units, "--in", str(infile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if len(units) == 2:
            flag, value = units
            assert captured.err == f"ncframe: {flag}: must be finite and > 0, got {value!r}\n"
        else:
            assert captured.err == "ncframe: c and epsilon0 must be positive, with a finite normal product\n"

    @pytest.mark.parametrize("units", [["--c", "nan"], ["--epsilon0", "-3"], ["--c", "0"], ["--epsilon0", "inf"],
                                       ["--c", "-0.0"], ["--epsilon0", "1e999"]])
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_units_are_refused_by_every_command(self, command, units, tmp_path, capsys):
        # classify --c nan, reduce --epsilon0 -3 and factor --c 0 exited 0:
        # only constitutive and dual-scan checked the units.  Now every
        # command refuses them with the flags, before the theta that is not
        # antisymmetric (exit 3) or the valid spinor (exit 0) is read
        infile = tmp_path / "input.json"
        infile.write_text(json.dumps({"theta": np.eye(4).tolist(), "E": [1, 0, 0], "B": [0, 0, 0],
                                      "spinor": [1.1276259652063807, 0, 0, 0, 0, 0, 0, 0.5210953054937474]}))
        assert main([command, *units, "--in", str(infile)]) == 2
        flag, value = units
        assert capsys.readouterr() == ("", f"ncframe: {flag}: must be finite and > 0, got {value!r}\n")
        assert main([command, "--in", str(infile)]) == (0 if command == "factor" else 3)

    def test_fields_near_the_largest_float(self, tmp_path, capsys):
        # the dual residuals and the maps rescale (f, K): D and H of 1.5e308
        # are finite and pass; at 1.5 times the fields, D and H overflow,
        # which the report refuses
        doc = {"nm": [1e-308, 0, 0, 0, 5e-309, 0], "E": [1e308, 0, 0], "B": [0, 1e308, 0]}
        code, out = run_cli(["dual-scan", "--steps", "4"], doc, tmp_path, capsys)
        assert code == 0 and out["pass"]
        code, out = run_cli(["constitutive"], doc, tmp_path, capsys)
        assert code == 0 and out["pass"]
        doc.update(E=[1.5e308, 0, 0], B=[0, 1.5e308, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            code, _ = run_cli(["constitutive"], doc, tmp_path, capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [["constitutive"], ["dual-scan"]])
    def test_nan_fields(self, argv, tmp_path, capsys):
        doc = {"E": [math.nan, 0, 0], "B": [0, 0.2, 0.1], "nm": [0.1, 0, 0, 0, 0.05, 0]}
        code, _ = run_cli(argv, doc, tmp_path, capsys)
        assert code == 2

    def test_stabilizer_parameter_family_mismatch(self, tmp_path, capsys):
        code, _ = run_cli(["stabilizer", "--z", "1,0"], {"nm": [0, 0, 1, 0, 0, 0]}, tmp_path, capsys)
        assert code == 2
        code, _ = run_cli(["stabilizer", "--gamma", "1,0"], {"nm": [1, 0, 0, 0, 1, 0]}, tmp_path, capsys)
        assert code == 2


class TestBehavior:
    def test_dual_scan_32_has_exactly_four_minima(self, tmp_path, capsys):
        doc = {"E": [1, 0.2, 0], "B": [0, 0.3, 0.1], "nm": [0.08, 0, 0.02, 0, 0.05, 0.01]}
        code, out = run_cli(["dual-scan", "--steps", "32"], doc, tmp_path, capsys)
        assert code == 0
        small = [row for row in out["scan"] if row["residual"] < 1e-10]
        assert len(small) == 4
        assert all(row["expected_invariant"] for row in small)

    def test_dual_scan_at_1e160(self, tmp_path, capsys):
        # f.f overflowed before the residuals rescaled (f, K)
        doc = {"nm": [1e-160, 0, 0, 0, 5e-161, 0], "E": [1e160, 0, 0], "B": [0, 2e159, 0]}
        code, out = run_cli(["dual-scan", "--steps", "4"], doc, tmp_path, capsys)
        assert code == 0 and out["pass"]

    @pytest.mark.parametrize("argv", [["constitutive", "--dual-check", repr(math.pi / 2)],
                                      ["dual-scan", "--steps", "8"]])
    def test_dual_quarter_turn_at_large_coupling(self, argv, tmp_path, capsys):
        # ||K|| ||f|| = 1e10: cos(pi/2) = 6.1e-17 made the quarter-turn
        # residual 7.6e-7, and the command exit 1
        doc = {"nm": [1e10, 0, 0, 0, 0, 0], "E": [1, 0.2, 0], "B": [0, 0.3, 0.1]}
        code, out = run_cli(argv, doc, tmp_path, capsys)
        assert code == 0 and out["pass"]

    def test_dual_check_quarter_turns_outside_one_turn(self, tmp_path, capsys):
        doc = {"E": [1, 0.2, 0], "B": [0, 0.3, 0.1], "nm": [0.08, 0, 0.02, 0, 0.05, 0.01]}
        angles = [-np.pi / 2, 5 * np.pi / 2, -3 * np.pi, 0.7]
        argv = ["constitutive"] + [a for chi in angles for a in ("--dual-check", repr(chi))]
        code, out = run_cli(argv, doc, tmp_path, capsys)
        assert code == 0
        assert [e["expected_invariant"] for e in out["dual_checks"]] == [True, True, True, False]
        assert all(e["residual"] < 1e-10 for e in out["dual_checks"][:3])

    @pytest.mark.parametrize("doc", [{"E": [1, 0.2, 0], "B": [0, 0.3, 0.1], "nm": [0.08, 0, 0.02, 0, 0.05, 0.01]},
                                     {"E": [1e200, 0, 0], "B": [0, 2e199, 0], "nm": [1e-200, 0, 0, 0, 5e-201, 0]}])
    def test_constitutive_maps_f_forward_once(self, doc, tmp_path, capsys, monkeypatch):
        # with --dual-check the report's h is that of the dual rows' field
        # state, rescaled by its exponent: f was mapped forward for h, then
        # again for the state (the second doc is outside the window)
        from ncframe import _kernels

        calls, forward = [], _kernels._forward
        counted = lambda f, K: calls.append(f) or forward(f, K)  # noqa: E731
        monkeypatch.setattr(cli, "_forward", counted)
        monkeypatch.setattr(_kernels, "_forward", counted)
        _, plain = run_cli(["constitutive"], doc, tmp_path, capsys)
        code, checked = run_cli(["constitutive", "--dual-check", "0.3", "--dual-check", repr(math.pi / 2)],
                                doc, tmp_path, capsys)
        assert code == 0 and len(calls) == 2
        assert checked["h"] == plain["h"]

    def test_dual_check_at_a_huge_angle(self, tmp_path, capsys):
        # chi / (pi/2) = 6.4e16 is an integer float; chi = 1e17 is no quarter
        # turn, so its residual is not expected to vanish
        golden = json.loads((GOLDEN_DIR / "dual_scan_4.json").read_text())
        code, out = run_cli(["constitutive", "--dual-check", "1e17"], golden["input"], tmp_path, capsys)
        assert code == 0 and out["dual_checks"][0]["expected_invariant"] is False
        assert out["dual_checks"][0]["residual"] > 1e-3

    def test_scale_fuzz(self, tmp_path, capsys):
        # non-isotropic K (|K.K| >= ||K||^2 / 4) at ||K|| from 1e-300 to
        # 1e300: the reports are those of 2**-exponent K, so each passes
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 100:
            n, m = rng.normal(size=3), rng.normal(size=3)
            K = n + 1j * m
            if abs(K @ K) < 0.25 * np.vdot(K, K).real:
                continue
            nm = [float(x) for x in 10.0 ** rng.uniform(-300, 300) / np.linalg.norm(K) * np.concatenate([n, m])]
            for argv in VIEW_COMMANDS:
                code, out = run_cli(argv, {"nm": nm}, tmp_path, capsys)
                assert (code, out["pass"]) == (0, True), (argv, nm)
            cases += 1
        # isotropic K (n.m = 0, ||n|| = ||m||) at the same scales: z is
        # dimensionless, so the given and the sampled elements fix K at any
        # ||K||; with z in units of 1/K they failed at 1e10 and were the
        # identity at 1e-200
        for _ in range(60):
            n = rng.normal(size=3)
            m = np.cross(n, rng.normal(size=3))
            m *= np.linalg.norm(n) / np.linalg.norm(m)
            nm = [float(x) for x in 10.0 ** rng.uniform(-300, 300) / np.linalg.norm(n) * np.concatenate([n, m])]
            for argv in (["stabilizer", "--z", "2,-1"], ["stabilizer", "--count", "2"]):
                code, out = run_cli(argv, {"nm": nm}, tmp_path, capsys)
                assert (code, out["pass"], out["class"]) == (0, True, "Isotropic"), (argv, nm)

    @pytest.mark.parametrize("scale", [1e-200, 1e-5, 1e10, 1e200])
    def test_isotropic_z_is_dimensionless(self, scale, tmp_path, capsys):
        # the same --z gives the same element for K and any multiple of it
        golden = json.loads((GOLDEN_DIR / "stabilizer_isotropic.json").read_text())
        code, out = run_cli(golden["argv"], {"nm": [scale, 0, 0, 0, scale, 0]}, tmp_path, capsys)
        assert code == 0 and out["pass"]
        (want,), (got,) = golden["output"]["elements"], out["elements"]
        assert_json_close(got, want)

    def test_split_reads_the_raw_mu(self, tmp_path, capsys):
        # Ia within eps_iso, so classify snaps mu to 0; a split with the
        # snapped mu gave Delta.Delta - 1 = 5e-10, which stabilizer_element
        # refused
        from ncframe.linalg import DEFAULT_TOL
        from ncframe.stabilizer import classify, stabilizer_element, unit_delta

        K = [1 + 2.5e-10j, 0, 0]
        p = classify(K)
        assert (p.subcase.value, p.mu) == ("Ia", 0.0)
        _, delta = unit_delta(K)
        assert abs(delta @ delta - 1.0) <= DEFAULT_TOL
        stabilizer_element(1 + 0.5j, delta)
        code, out = run_cli(["stabilizer", "--gamma", "1,0.5"], {"nm": [1, 0, 0, 2.5e-10, 0, 0]}, tmp_path, capsys)
        assert code == 0 and out["pass"]

    def test_stabilizer_sampling_deterministic(self, tmp_path, capsys):
        doc = {"nm": [0.3, -0.2, 1.1, 0.1, 0.4, -0.5]}
        code1, out1 = run_cli(["stabilizer", "--count", "3", "--seed", "11"], doc, tmp_path, capsys)
        code2, out2 = run_cli(["stabilizer", "--count", "3", "--seed", "11"], doc, tmp_path, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        _, out3 = run_cli(["stabilizer", "--count", "3", "--seed", "12"], doc, tmp_path, capsys)
        assert out3["elements"][0]["gamma"] != out1["elements"][0]["gamma"]

    def test_text_format(self, tmp_path, capsys):
        infile = tmp_path / "input.json"
        infile.write_text(json.dumps({"nm": [1, 0, 0, 0, 0, 0]}))
        code = main(["classify", "--in", str(infile), "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "class = " in out and '"NonIsotropic"' in out

    def test_stdin_input(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "ncframe.cli", "classify"],
            input='{"nm": [1, 0, 0, 0, 0, 0]}',
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["class"] == "NonIsotropic"

    def test_factor_isotropic_element_at_tolerance_edge(self, tmp_path, capsys):
        # k0 = 1 + 9e-11 (inside DEFAULT_TOL) and k.k = 1.8e-10 (inside
        # eps_iso ||k||^2): reported isotropic although not exactly in the
        # family, so its factors must come from the generic split
        spinor = [1.00000000009, 0.0, -0.07671679390447186, 0.2311291964837923, -0.41509257492700563,
                  -0.46066878344211815, -0.13904207120102702, 0.007719603088493279]
        code, out = run_cli(["factor"], {"spinor": spinor}, tmp_path, capsys)
        assert code == 0
        assert out["method"] == "isotropic" and out["pass"]

    def test_factor_near_isotropic_element(self, tmp_path, capsys):
        # |k0 - 1| = 7.5e-10 and k.k within eps_iso: the CLI and
        # factor_isotropic share one isotropy predicate, so this element takes
        # the generic split (it used to be sent to factor_isotropic, which
        # refused it: exit 7)
        k0 = 1.0000000007499998
        code, out = run_cli(["factor"], {"spinor": [k0, 0, 0, -1, 0, k0, 0, 0]}, tmp_path, capsys)
        assert code == 0
        assert out["method"] == "generic" and out["pass"]
        assert all(f["roundtrip_residual"] <= 1e-10 for f in out["factorizations"])

    def test_signed_zeros_of_nm_and_theta(self, tmp_path, capsys):
        # n1 = theta[2][3] = -0.0 in both forms; K keeps its sign in both
        docs = ({"nm": [-0.0, 0, 1, 0, 0, 0]},
                {"theta": [[0, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, -0.0], [0, 0, 0.0, 0]]})
        reports = []
        for doc in docs:
            (tmp_path / "input.json").write_text(json.dumps(doc))
            assert main(["classify", "--in", str(tmp_path / "input.json")]) == 0
            # parse_int=float keeps the sign of "-0"
            reports.append(json.loads(capsys.readouterr().out, parse_int=float)["K"])
        signs = [[[math.copysign(1.0, x) for x in z] for z in K] for K in reports]
        assert signs[0] == signs[1] == [[-1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
        assert reports[0] == reports[1]

    def test_float_precision_roundtrip(self, tmp_path, capsys):
        # serialized doubles parse back bit-identically
        doc = {"nm": [0.1, 0.2, 0.30000000000000004, -1.0 / 3.0, 7e-13, 0]}
        _, out = run_cli(["classify"], doc, tmp_path, capsys)
        got = [re for re, im in out["K"]] + [im for re, im in out["K"]]
        assert got == doc["nm"]


# The fuzz of main: documents of every input form, with numbers over the
# whole float range (NaN and inf included), huge integers and wrong types,
# under every flag of every command.  Most documents and flags are valid, so
# that most runs reach the kernels and the report.
def one_of_values(values):
    """One of values, drawn by index: drawn from sampled_from, the huge
    integers at the end came too seldom for the fuzz to catch a copy of
    cli.py that lets their OverflowError escape."""
    return st.integers(0, len(values) - 1).map(values.__getitem__)


finite = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False), st.integers(-3, 3),
                   one_of_values((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300, 1.7976931348623157e308,
                                  -1.7976931348623157e308)))
wrong = st.one_of(st.text(max_size=3), one_of_values((None, True, False, [], {}, [[1, 2], [3]])))
# NaN, inf and integers beyond the float range
special = one_of_values((math.nan, math.inf, -math.inf, 2**1024, -(10**400)))
# strings and bools that float() reads as numbers
numeric_words = one_of_values(("1", " 2 ", "1_0", "-inf", True, False))
anything = st.one_of(finite, special, st.integers(), wrong)


def exact(size):
    return st.lists(finite, min_size=size, max_size=size)


def vectors(size):
    """A list of size finite numbers, one with a special entry or a numeric
    word, one with any entries, one of another length, or not a list."""
    spoiled = st.tuples(exact(size), st.integers(0, size - 1), st.one_of(special, numeric_words)).map(
        lambda t: [*t[0][:t[1]], t[2], *t[0][t[1] + 1:]])
    return st.one_of(exact(size), spoiled, st.lists(anything, min_size=size, max_size=size),
                     st.lists(finite, max_size=size + 2), wrong)


def _spinor(alpha, beta, seed):
    from ncframe.group import spinor_compose, spinor_from_boost, spinor_from_rotation

    axes = np.random.default_rng(seed).normal(size=(2, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    b = spinor_compose(spinor_from_rotation(alpha, axes[0]), spinor_from_boost(beta, axes[1]))
    return [float(b.n0), float(b.m0), *map(float, b.n), *map(float, b.m)]


# theta as 4 rows that are antisymmetric (so that the commands get past it)
antisymmetric = exact(6).map(
    lambda v: [[0, v[0], v[1], v[2]], [-v[0], 0, v[3], -v[4]], [-v[1], -v[3], 0, v[5]], [-v[2], v[4], -v[5], 0]])
thetas = st.one_of(antisymmetric, antisymmetric.map(lambda rows: sum(rows, [])), vectors(16))
spinors = st.one_of(
    st.tuples(st.floats(0, 2 * math.pi), st.floats(-30, 30), st.integers(0, 9)).map(lambda t: _spinor(*t)),
    finite.map(lambda a: [1, 0, 0, a, 0, a, 0, 0]))  # the isotropic family: k = a (1, -i, 0)
valid = {"E": exact(3), "B": exact(3), "spinor": spinors}
malformed = {"E": vectors(3), "B": vectors(3), "spinor": st.one_of(spinors, vectors(8))}
# mostly valid: beside argvs, a plain one_of drew a non-object half the time
documents = st.sampled_from([
    st.fixed_dictionaries({"nm": exact(6), **valid}),
    st.fixed_dictionaries({"theta": antisymmetric, **valid}),
    st.fixed_dictionaries({"nm": vectors(6), **malformed}),
    st.fixed_dictionaries({"theta": thetas, **malformed}),
    st.fixed_dictionaries({}, optional={"nm": vectors(6), **malformed}),
    wrong,
]).flatmap(lambda strategy: strategy)


def text_of(strategy):
    return strategy.map(lambda x: repr(float(x)) if isinstance(x, float) else str(x))


def flag_values(good, bad):
    """Mostly a good value."""
    return st.one_of(*(st.sampled_from(good) for _ in range(4)), st.sampled_from(bad))


thresholds = flag_values(["0", "1e-12", "1e-9", "0.5"], ["-1", "nan", "inf", "x", "1e999"])
units = st.one_of(flag_values(["1", "2.5", "1e-3", "3e8"], ["0", "-1", "nan", "1e-200", "x"]), text_of(finite))
complexes = st.one_of(st.tuples(text_of(st.floats(-40, 40)), text_of(st.floats(-40, 40))).map(",".join),
                      st.tuples(text_of(anything), text_of(anything)).map(",".join),
                      text_of(finite), st.sampled_from(["", "1,2,3", "i", "nan"]))
FLAG_VALUES = {
    "--format": flag_values(["json", "text"], ["xml"]),
    "--seed": flag_values(["0", "7", "123456789012345678901234567890"], ["-7", "2.5"]),
    "--tol": thresholds,
    "--eps-iso": thresholds,
    "--c": units,
    "--epsilon0": units,
    "--gamma": complexes,
    "--z": complexes,
    "--count": flag_values(["0", "1", "3"], ["-1", "x"]),
    "--dual-check": st.one_of(text_of(st.floats(-10, 10)), text_of(anything), st.just(repr(math.pi / 2))),
    "--steps": flag_values(["4", "5", "8", "33"], ["-1", "3", "x"]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = sorted(set(cli._COMMANDS[command][1]) - {"--in"})
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
        value = draw(FLAG_VALUES[flag])
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv + draw(st.sampled_from([[]] * 18 + [["--bogus", "1"], ["extra"]]))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def test_fuzz_flags_cover_every_command():
    assert {flag for _, flags, _ in cli._COMMANDS.values() for flag in flags} == {"--in", *FLAG_VALUES}


def words(x) -> list:
    """The strings and bools of x, a value or lists of them at any depth."""
    if isinstance(x, list):
        return [w for v in x for w in words(v)]
    return [x] if isinstance(x, (str, bool)) else []


def coordinate_fields(command: str, doc: dict) -> list:
    """The fields that command reads from doc before any refusal other than
    exit 2 can come: after a theta, the antisymmetry check (exit 3)."""
    k = "theta" if "theta" in doc else "nm"
    if command == "factor":
        return ["spinor"]
    return [k, "E", "B"] if command in ("constitutive", "dual-scan") and k == "nm" else [k]


@settings(max_examples=300, deadline=None)
@given(argv=argvs(), doc=documents)
def test_fuzz_main(fuzz_file, argv, doc):
    # every input ends in a documented exit code, never in an exception:
    # a report on stdout for 0 and 1, one "ncframe: " line on stderr for 2..7
    fuzz_file.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--in", str(fuzz_file)])
    assert code in range(8)
    if code < 2:
        assert out.getvalue() and not err.getvalue()
    else:
        assert not out.getvalue() and err.getvalue().startswith("ncframe: ")
    # a string or a bool is no coordinate, wherever it sits in a field read
    if isinstance(doc, dict) and any(words(doc.get(key)) for key in coordinate_fields(argv[0], doc)):
        assert code == 2
    # so is a unit that is not a finite float > 0, in every command
    if any(not 0.0 < float_or_nan(value) < math.inf for value in unit_values(argv)):
        assert code == 2


def unit_values(argv) -> list:
    """The values of --c and --epsilon0 in argv, in either form."""
    spaced = [value for flag, value in zip(argv, argv[1:]) if flag in ("--c", "--epsilon0")]
    return spaced + [a.split("=", 1)[1] for a in argv if a.startswith(("--c=", "--epsilon0="))]


def float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _regen():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (argv, doc) in golden_cases().items():
        proc = subprocess.run(
            [sys.executable, "-m", "ncframe.cli", *argv],
            input=json.dumps(doc),
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{name}: exit {proc.returncode}\n{proc.stderr}")
        golden = {
            "argv": argv,
            "input": doc,
            "exit_code": proc.returncode,
            "output": json.loads(proc.stdout),
        }
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(golden, indent=1) + "\n")
        print(f"wrote golden/{name}.json")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        raise SystemExit("usage: python tests/test_cli.py --regen")
