import dataclasses
import json
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ncpain import cli
from ncpain.cli import (build_parser, main, parse_complex, parse_complex_list,
                        parse_range)
from ncpain.laxpair import (STENCIL_BLOCK, PiiState, SymState, build_A,
                            build_B, integrate_symmetric,
                            lax_residual_symmetric, pii_residual_exact,
                            zero_curvature_residual)
from ncpain.quasidet import BlockMatrix, determinant_ratio
from ncpain.ring import (MatrixElement, NearSingularError, random_invertible,
                         random_matrix)


def run(args, tmp_path):
    argv = list(args) + ["--out", str(tmp_path)]
    return main(argv)


def load_report(tmp_path, name):
    with open(tmp_path / name, encoding="utf-8") as fh:
        return json.load(fh)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("1") == 1
        assert parse_complex("i") == 1j
        assert parse_complex("2-3i") == 2 - 3j
        assert parse_complex("-0.5i") == -0.5j

    def test_range(self):
        z0, h, n = parse_range("1:2:0.001")
        assert (z0, h, n) == (1.0, 0.001, 1001)

    def test_bad_range_is_usage_error(self, tmp_path):
        code = run(["dress", "--N", "0", "--z", "2:1:0.1"], tmp_path)
        assert code == 1


@pytest.mark.parametrize("argv", [
    ["quasidet", "--inline", "[[1,2],[3]]", "--pos", "1", "1"],
    ["quasidet", "--inline", "[[]]", "--pos", "1", "1"],
    ["quasidet", "--file", "MISSING", "--pos", "1", "1"],
    ["quasidet", "--inline", "[[[[1, null]]]]", "--pos", "1", "1"],
    ["quasidet", "--inline", "[[true, 2], [3, false]]", "--pos", "1", "1"],
    ["zc", "--d", "0"],
    ["zc", "--trials", "0"],
    ["dress", "--N", "1", "--gamma", "i", "--d", "0", "--z", "1:1.2:0.002"],
    ["dress", "--N", "1", "--gamma", "i", "--z", "1:2:0.05"],
    ["dress", "--N", "0", "--z", "1:1.003:0.001"],
    ["dress", "--N", "0", "--z", "1:inf:0.001"],
    ["symmetric", "--t", "0:1e300:1e-300"],
    ["zc", "--seed-kind", "rational", "--C", "nan"],
    ["zc", "--seed-kind", "rational", "--C", "1e400"],
    ["symmetric", "--min-cond", "nan"],
    ["symmetric", "--min-cond", "-1"],
    ["quasidet", "--inline", "[[1e400]]", "--pos", "1", "1"],
    ["zc", "--seed-kind", "random-placeholders"],
    ["zc", "--rational-sign", "-1"],
    ["dress", "--N", "0", "--z", "1:1.1:0.001", "--dt-convention", "b-matrix"],
    # Inputs the run would ignore while its report records them.
    ["symmetric", "--v1", "7", "--normalize"],
    ["symmetric", "--v1", "1", "--normalize", "--t", "0:0.1:0.001"],
    ["symmetric", "--random-matrix", "2", "--v0", "0.1"],
    ["symmetric", "--random-matrix", "2", "--v1", "1"],
    ["symmetric", "--random-matrix", "2", "--v2", "0.3", "--normalize"],
], ids=["ragged", "empty", "missing-file", "null-cell", "bool-cells",
        "zc-d0", "zc-trials0", "dress-d0", "coarse-grid", "short-grid",
        "inf-range",
        "overflowing-range", "nan-C", "overflowing-C", "nan-min-cond",
        "negative-min-cond", "overflowing-cell", "zc-placeholders",
        "zc-rational-sign",
        "dt-convention", "normalize-v1", "normalize-default-v1",
        "random-matrix-v0", "random-matrix-v1", "random-matrix-v2"])
def test_malformed_input_is_usage_error(argv, tmp_path, capsys):
    argv = [str(tmp_path / "missing.json") if a == "MISSING" else a
            for a in argv]
    assert run(argv, tmp_path) == 1
    assert "usage error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("argv", [
    ["quasidet", "--identity", "2", "--pos", "1", "1"],
    ["dress", "--N", "1", "--gamma", "i", "--z", "1:1.2:0.002"],
], ids=["quasidet", "dress"])
def test_out_naming_a_file_is_usage_error(argv, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(argv + ["--out", str(taken)]) == 1
    assert "usage error:" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["taken"]


class TestQuasidetCommand:
    def test_inline_frozen_value(self, tmp_path, capsys):
        code = run(["quasidet", "--inline", "[[1,2],[3,4]]",
                    "--pos", "1", "1"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "-0.5" in out
        report = load_report(tmp_path, "quasidet_report.json")
        assert report["results"]["value"] == [-0.5, 0.0]
        assert report["results"]["discrepancy_rel"] <= 1e-12

    def test_file_matches_inline(self, tmp_path):
        text = '[[1, "2+i"], [3, 4]]'
        path = tmp_path / "matrix.json"
        path.write_text(text, encoding="utf-8")
        argv = ["quasidet", "--file", str(path), "--pos", "1", "1"]
        assert run(argv, tmp_path / "file") == 0
        assert run(["quasidet", "--inline", text, "--pos", "1", "1"],
                   tmp_path / "inline") == 0
        by_file = load_report(tmp_path / "file", "quasidet_report.json")
        inline = load_report(tmp_path / "inline", "quasidet_report.json")
        assert by_file["results"] == inline["results"]
        assert by_file["parameters"]["source"] == {"kind": "file",
                                                   "path": str(path)}

    def test_zero_trailing_entry_of_submatrix(self, tmp_path):
        # A^11 = [[1,1],[1,0]] is invertible; its trailing entry is 0
        rows = [[1, 2, 0], [3, 1, 1], [1, 1, 0]]
        code = run(["quasidet", "--inline", json.dumps(rows),
                    "--pos", "1", "1"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "quasidet_report.json")
        matrix = BlockMatrix([[MatrixElement.scalar(x) for x in row]
                              for row in rows])
        expected = determinant_ratio(matrix, 0, 0)
        assert expected == pytest.approx(-1.0)
        assert complex(*report["results"]["value"]) \
            == pytest.approx(expected, abs=1e-12)
        assert report["results"]["discrepancy_rel"] <= 1e-12

    def test_identity(self, tmp_path):
        code = run(["quasidet", "--identity", "3", "--pos", "2", "2"],
                   tmp_path)
        assert code == 0
        report = load_report(tmp_path, "quasidet_report.json")
        assert report["results"]["value"] == [1.0, 0.0]

    def test_random_matches_oracle(self, tmp_path):
        code = run(["quasidet", "--random", "4", "2", "--seed", "7",
                    "--pos", "1", "3"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "quasidet_report.json")
        assert report["results"]["discrepancy_rel"] <= 1e-8

    def test_singular_is_numerical_error(self, tmp_path):
        code = run(["quasidet", "--inline", "[[1,1],[1,1]]",
                    "--pos", "1", "1"], tmp_path)
        assert code == 2

    def test_position_out_of_range(self, tmp_path):
        code = run(["quasidet", "--identity", "2", "--pos", "3", "1"],
                   tmp_path)
        assert code == 1

    def test_complex_entries_via_strings(self, tmp_path):
        code = run(["quasidet", "--inline",
                    '[["1+i","0"],["0","1-i"]]', "--pos", "1", "1"],
                   tmp_path)
        assert code == 0
        report = load_report(tmp_path, "quasidet_report.json")
        assert report["results"]["value"] == [1.0, 1.0]


class TestZeroCurvatureCommand:
    def test_rational_seed(self, tmp_path):
        code = run(["zc", "--seed-kind", "rational", "--C", "4",
                    "--lambda", "1,i,2-3i"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "zc_report.json")
        assert report["results"]["overall"]["full"] <= 1e-12

    def test_random_data(self, tmp_path):
        code = run(["zc", "--seed-kind", "random", "--d", "3"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "zc_report.json")
        overall = report["results"]["overall"]
        for key in ("e11", "e22", "e12_identity", "e21_identity"):
            assert overall[key] <= 1e-12

    def test_zero_lambda_is_usage_error(self, tmp_path):
        assert run(["zc", "--lambda", "0"], tmp_path) == 1

    @pytest.mark.parametrize("C", ["1e200", "1e300"])
    def test_huge_C_with_a_representable_scale_runs(self, C, tmp_path,
                                                    capsys):
        # |A| reaches 5e199 (5e299): its entry norms are scaled before they
        # are squared, so |A| |B| is finite and the identities hold to
        # rounding.  1/z solves P-II only at C = 4, so "full" is about 1.
        code = run(["zc", "--seed-kind", "rational", "--lambda", "1",
                    "--C", C], tmp_path)
        _, err = capsys.readouterr()
        assert code == 0 and err == ""
        overall = load_report(tmp_path, "zc_report.json")["results"][
            "overall"]
        for key in ("e11", "e22", "e12_identity", "e21_identity"):
            assert 0.0 <= overall[key] <= 1e-12
        assert 0.5 <= overall["full"] <= 1.0

    @pytest.mark.parametrize("argv, lam", [
        # |A| |B| (about 2.2e308) overflows, so every relative residual
        # would read 0.
        (["--lambda", "1", "--C", "1e308"], "(1+0j)"),
        # lam ** 2 raises OverflowError in Python complex arithmetic.
        (["--lambda", "1e200"], "(1e+200+0j)"),
    ])
    def test_overflow_is_numerical_failure(self, argv, lam, tmp_path,
                                           capsys):
        code = run(["zc", "--seed-kind", "rational", *argv], tmp_path)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1 and f"lambda = {lam}" in err
        assert not (tmp_path / "zc_report.json").exists()


def _case_stats(s: PiiState) -> dict:
    res = zero_curvature_residual(s)
    scale = max(1.0, build_A(s).norm() * build_B(s.v, s.lam).norm())
    pii = pii_residual_exact(s.v, s.v_zz, s.z, s.C)
    return {
        "e11": res.entry(0, 0).norm() / scale,
        "e22": res.entry(1, 1).norm() / scale,
        "e12_identity": (res.entry(0, 1) + 1j * pii).norm() / scale,
        "e21_identity": (res.entry(1, 0) - 1j * pii).norm() / scale,
        "full": res.norm() / scale,
    }


def per_case_zc(argv) -> list:
    """zc's per-lambda results from one evaluation per case and lambda,
    with the cases drawn in zc's order."""
    # Spells the seed itself, not ncpain.solutions: zc's independent reference.
    args = build_parser().parse_args(["zc", *argv])
    cases = []
    if args.seed_kind != "random":
        sign = {"rational": 1, "rational-neg": -1}[args.seed_kind]
        c_val = parse_complex(args.C) if args.C is not None else 4.0 * sign
        eye = MatrixElement.eye(args.d)
        for z in np.linspace(1.0, 2.0, 9):
            cases.append(PiiState((sign / z) * eye, (-sign / z ** 2) * eye,
                                  (2 * sign / z ** 3) * eye, complex(z),
                                  None, c_val))
    else:
        rng = np.random.default_rng(args.seed)
        for _ in range(args.trials):
            v, v_z, v_zz = (random_matrix(rng, args.d) for _ in range(3))
            z = complex(rng.standard_normal(), rng.standard_normal())
            c_val = (parse_complex(args.C) if args.C is not None
                     else complex(rng.standard_normal(),
                                  rng.standard_normal()))
            cases.append(PiiState(v, v_z, v_zz, z, None, c_val))
    per_lambda = []
    for lam in parse_complex_list(args.lam):
        stats = [_case_stats(dataclasses.replace(c, lam=lam)) for c in cases]
        per_lambda.append({"lambda": lam, **{key: max(s[key] for s in stats)
                                             for key in stats[0]}})
    return per_lambda


def _bits(per_lambda) -> list:
    return [{key: x.hex() if isinstance(x, float) else x
             for key, x in row.items()} for row in per_lambda]


LAMBDAS_ZC = "1,i,2-3i,1e-3,1e3"


class TestZeroCurvatureBatch:
    """zc evaluates its cases in batches; each statistic must be the one a
    per-case evaluation gives, bit for bit."""

    @pytest.mark.parametrize("argv", [
        ["--d", "1", "--seed", "0"], ["--d", "1", "--seed", "1"],
        ["--d", "2", "--seed", "2"], ["--d", "2", "--seed", "3"],
        ["--d", "3", "--seed", "4"], ["--d", "3", "--seed", "5"],
        ["--d", "2", "--seed", "6", "--C", "2-1j"],
        ["--seed-kind", "rational", "--d", "1"],
        ["--seed-kind", "rational-neg", "--d", "3"],
        ["--seed-kind", "rational-neg", "--d", "2", "--C", "2-1j"],
    ], ids=["d1-s0", "d1-s1", "d2-s2", "d2-s3", "d3-s4", "d3-s5", "fixed-C",
            "rational", "rational-neg", "rational-neg-fixed-C"])
    def test_matches_per_case_evaluation(self, argv, capsys):
        argv = argv + ["--lambda", LAMBDAS_ZC]
        args = build_parser().parse_args(["zc", *argv])
        _, results, code = args.run(args)
        assert code == 0
        assert _bits(results["per_lambda"]) == _bits(per_case_zc(argv))

    # Each with C drawn per case and with one --C for every block.
    def test_cases_spanning_two_blocks(self, capsys):
        for fixed_c in ([], ["--C", "2-1j"]):
            argv = ["--d", "1", "--trials", str(STENCIL_BLOCK + 20),
                    "--lambda", "1,1e3", *fixed_c]
            args = build_parser().parse_args(["zc", *argv])
            _, results, _ = args.run(args)
            assert _bits(results["per_lambda"]) == _bits(per_case_zc(argv))

    def test_small_blocks_with_a_single_case_block(self, monkeypatch,
                                                   capsys):
        monkeypatch.setattr(cli, "STENCIL_BLOCK", 2)
        for fixed_c in ([], ["--C", "2-1j"]):
            argv = ["--d", "2", "--trials", "5", "--lambda", LAMBDAS_ZC,
                    *fixed_c]
            args = build_parser().parse_args(["zc", *argv])
            _, results, _ = args.run(args)
            assert _bits(results["per_lambda"]) == _bits(per_case_zc(argv))

    @pytest.mark.parametrize("argv, C", [
        (["--seed-kind", "rational"], [4.0, 0.0]),
        (["--seed-kind", "rational-neg"], [-4.0, 0.0]),
        (["--seed-kind", "random", "--C", "2-1j"], [2.0, -1.0]),
        (["--seed-kind", "random"], None),
    ], ids=["rational", "rational-neg", "random-fixed-C", "random"])
    def test_report_records_the_C_it_used(self, argv, C, tmp_path, capsys):
        # Random cases without --C each draw their own C: none is recorded.
        assert run(["zc", "--d", "1", "--trials", "3", *argv], tmp_path) == 0
        report = load_report(tmp_path, "zc_report.json")
        assert report["parameters"]["C"] == C


class TestDressCommand:
    def test_single_fold_rational(self, tmp_path):
        code = run(["dress", "--N", "1", "--gamma", "i", "--seed",
                    "rational", "--C", "4", "--z", "1:1.2:0.002"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "dress_report.json")
        assert report["results"]["quasidet_vs_direct"] <= 1e-10
        assert (tmp_path / "dress_v0.csv").exists()
        assert (tmp_path / "dress_v1.csv").exists()
        header = (tmp_path / "dress_v0.csv").read_text().splitlines()[0]
        assert header == "z,entry_11_re,entry_11_im"

    def test_zero_fold_reports_seed_residual(self, tmp_path):
        code = run(["dress", "--N", "0", "--seed", "rational", "--C", "4",
                    "--z", "1:2:0.001"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "dress_report.json")
        stage0 = report["results"]["stages"][0]
        assert stage0["residual_sup"] <= 1e-5
        assert stage0["masked_fraction"] == 0.0

    @pytest.mark.parametrize("seed, sign", [
        ("rational", 1), ("rational-neg", -1), ("zero", 0)],
        ids=["rational", "rational-neg", "zero"])
    def test_each_seed_defaults_to_its_own_C(self, seed, sign, tmp_path):
        # v = s/z solves P-II at C = 4s, so with no --C stage 0 is exact.
        code = run(["dress", "--N", "0", "--seed", seed,
                    "--z", "1:1.2:0.001"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "dress_report.json")
        assert report["results"]["stages"][0]["residual_sup"] <= 1e-5
        assert report["parameters"]["C"] == [4.0 * sign, 0.0]

    def test_two_fold_composition(self, tmp_path):
        code = run(["dress", "--N", "2", "--gamma", "i,2i", "--seed",
                    "rational", "--C", "4", "--z", "1:1.2:0.002"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "dress_report.json")
        assert report["results"]["quasidet_vs_direct"] <= 1e-10

    def test_duplicate_gammas_rejected(self, tmp_path):
        assert run(["dress", "--N", "2", "--gamma", "i,i"], tmp_path) == 1

    def test_n_cap(self, tmp_path):
        assert run(["dress", "--N", "5", "--gamma", "i,2i,3i,4i,5i"],
                   tmp_path) == 1

    # RK4 samples the seed between grid points, so a range that only
    # reaches z = 0 at its start or stop is refused too.
    @pytest.mark.parametrize("seed", ["rational", "rational-neg"])
    @pytest.mark.parametrize("z", ["-0.5:0.5:0.001", "0:1:0.001",
                                   "-1:0:0.001"])
    def test_rational_seed_pole_in_range_is_usage_error(self, seed, z,
                                                        tmp_path, capsys):
        code = run(["dress", "--N", "2", "--gamma", "i,2i", "--seed", seed,
                    "--C", "4", f"--z={z}"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"usage error: --seed {seed} has a pole at z = 0, "
                       f"inside --z {z}"]
        assert not list(tmp_path.iterdir())

    # The zero seed has no pole, so it dresses over z = 0, including grid
    # points that land on 0.0 exactly (-0.5 + 500 * 0.001 is 0.0).  Its
    # grid is +0.0 everywhere: 0/z would read NaN at z = 0 (a "nan"
    # residual) and -0.0 below it.
    @pytest.mark.parametrize("z", ["-0.5:0.5:0.001", "0:1:0.001",
                                   "-1:0:0.001"])
    def test_zero_seed_crosses_z_zero(self, z, tmp_path):
        code = run(["dress", "--N", "1", "--gamma", "i", "--seed", "zero",
                    f"--z={z}"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "dress_report.json")
        stages = report["results"]["stages"]
        assert len(stages) == 2
        assert stages[0]["residual_sup"] == 0.0
        assert stages[0]["masked_fraction"] == 0.0
        rows = (tmp_path / "dress_v0.csv").read_text().splitlines()[1:]
        assert len(rows) == 1001
        assert all(row.split(",")[1:] == ["0.0", "0.0"] for row in rows)


@pytest.mark.parametrize("argv, option, value", [
    (["dress", "--N", "0"], "--z", "-1:-0.99:0.001"),
    (["symmetric"], "--t", "-1:0:0.001"),
    (["zc"], "--lambda", "-1,i"),
    (["dress", "--N", "1", "--z", "1:1.2:0.002"], "--gamma", "-i"),
], ids=["dress-z", "symmetric-t", "zc-lambda", "dress-gamma"])
def test_value_with_leading_minus(argv, option, value, tmp_path):
    reports = []
    for form, args in (("spaced", [option, value]),
                       ("joined", [f"{option}={value}"])):
        assert run(argv + args, tmp_path / form) == 0
        report = load_report(tmp_path / form, f"{argv[0]}_report.json")
        report.pop("duration_s")
        reports.append(report)
    assert reports[0] == reports[1]


class TestSymmetricCommand:
    def test_fixed_point(self, tmp_path):
        code = run(["symmetric", "--v0", "1", "--v1", "1", "--v2", "0",
                    "--alpha0", "0", "--alpha1", "0",
                    "--t", "0:0.1:0.001"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "symmetric_report.json")
        assert report["results"]["first_integral_drift"] <= 1e-12

    def test_normalized_scalar_reduction(self, tmp_path):
        code = run(["symmetric", "--v0", "0.1", "--v2", "0.3",
                    "--alpha0", "0.5", "--alpha1", "1.5",
                    "--t", "0:1:0.001", "--normalize"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "symmetric_report.json")
        assert report["results"]["reduction"]["sup"] <= 1e-5
        assert report["results"]["first_integral_drift"] <= 1e-8

    def test_normalize_reports_the_v1_it_starts_from(self, tmp_path):
        code = run(["symmetric", "--v0", "0.1", "--v2", "0.3j",
                    "--alpha0", "0.5", "--alpha1", "1.5",
                    "--t", "0.25:0.3:0.001", "--normalize"], tmp_path)
        assert code == 0
        data = load_report(tmp_path, "symmetric_report.json")[
            "parameters"]["data"]
        v0, v1, v2 = (complex(*data[k]) for k in ("v0", "v1", "v2"))
        # The first integral vanishes at t0: v0 + v1 + v2^2 = 2 t0.
        assert abs(v1 - (2 * 0.25 - v0 - v2 * v2)) <= 1e-15

    def test_normalize_reports_the_random_v1(self, tmp_path):
        code = run(["symmetric", "--random-matrix", "2", "--normalize",
                    "--t", "0:0.01:0.001"], tmp_path)
        assert code == 0
        data = load_report(tmp_path, "symmetric_report.json")[
            "parameters"]["data"]
        assert np.shape(data["v1"]) == (2, 2, 2)  # [re, im] per entry

    def test_random_matrix_lax_residual(self, tmp_path):
        code = run(["symmetric", "--random-matrix", "2",
                    "--t", "0:0.2:0.001"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "symmetric_report.json")
        residuals = [s["residual"] for s in report["results"]["lax_samples"]
                     if s["residual"] is not None]
        assert residuals and max(residuals) <= 1e-12

    def test_truncated_flow_exit_code(self, tmp_path):
        code = run(["symmetric", "--v0", "-0.05", "--v1", "1", "--v2", "0",
                    "--alpha0", "1", "--alpha1", "0", "--t", "0:1:0.001",
                    "--min-cond", "1e-2"], tmp_path)
        assert code == 3
        report = load_report(tmp_path, "symmetric_report.json")
        assert report["results"]["truncated"] is True
        assert "v0" in report["results"]["truncation_reason"]

    def test_truncated_at_the_first_step(self, tmp_path):
        code = run(["symmetric", "--v0", "1e-3", "--v1", "1", "--v2", "0",
                    "--alpha0", "0", "--alpha1", "0", "--min-cond", "0.5",
                    "--t", "0:0.1:0.001"], tmp_path)
        assert code == 3
        results = load_report(tmp_path, "symmetric_report.json")["results"]
        assert results["states_covered"] == 1
        assert results["lax_samples"] == [{"t": 0.0, "residual": 0.0}]
        assert results["first_integral_drift"] == 0.0

    def test_singular_first_sample_is_reported_not_fatal(self, tmp_path):
        code = run(["symmetric", "--v0", "0", "--v1", "1", "--v2", "0.2",
                    "--t", "0:0.1:0.001"], tmp_path)
        assert code == 0
        samples = load_report(tmp_path, "symmetric_report.json")[
            "results"]["lax_samples"]
        assert samples[0] == {
            "t": 0.0, "residual": None,
            "error": "matrix is near-singular (condition ~ inf) [v0]"}
        assert len(samples) == 11
        assert all(s["residual"] <= 1e-12 for s in samples[1:])

    @pytest.mark.parametrize("d", [2, 3])
    def test_batched_lax_samples_match_each_state(self, d):
        rng = np.random.default_rng(40 + d)
        s0 = SymState(*(random_invertible(rng, d, scale=0.5)
                        for _ in range(3)), 0.5 - 0.2j, 1.5 + 0.1j, 0.1)
        flow = integrate_symmetric(s0, 1.1, 1e-3)
        idx = list(range(0, 1001, 100))
        expected = []
        for s in (flow.states[i] for i in idx):
            scale = max(1.0, s.v0.norm() + s.v1.norm() + s.v2.norm())
            expected.append({"t": s.t, "residual":
                             lax_residual_symmetric(s).norm() / scale})
        assert cli._lax_samples(flow.path.at(idx)) == expected

    def test_refused_samples_keep_their_own_errors(self):
        # Positions 1 and 4 refuse v0, position 3 refuses v1, each with its
        # own condition number; a position refused in both reports v0.
        eye, rng = np.eye(2), np.random.default_rng(8)
        fields = [[random_invertible(rng, 2).data for _ in range(5)]
                  for _ in range(3)]
        fields[0][1] = np.diag([1.0, 1e-14])
        fields[1][3] = np.diag([1e-13, 2.0])
        fields[0][4] = 0 * eye
        fields[1][4] = 0 * eye
        batch = SymState(*(MatrixElement(f) for f in fields), 0.5, 1.5,
                         np.linspace(0.0, 0.4, 5))
        samples = cli._lax_samples(batch)
        errors = {1: "matrix is near-singular (condition ~ 1.000e+14) [v0]",
                  3: "matrix is near-singular (condition ~ 2.000e+13) [v1]",
                  4: "matrix is near-singular (condition ~ inf) [v0]"}
        for k, sample in enumerate(samples):
            s = batch.at(k)
            assert sample["t"] == s.t
            if k in errors:
                assert sample == {"t": s.t, "residual": None,
                                  "error": errors[k]}
                with pytest.raises(NearSingularError) as alone:
                    lax_residual_symmetric(s)
                assert str(alone.value) == errors[k]
            else:
                scale = max(1.0, s.v0.norm() + s.v1.norm() + s.v2.norm())
                assert sample["residual"] == \
                    lax_residual_symmetric(s).norm() / scale

    def test_normalize_needs_alpha_sum_two(self, tmp_path):
        code = run(["symmetric", "--alpha0", "0", "--alpha1", "0",
                    "--normalize", "--t", "0:0.1:0.001"], tmp_path)
        assert code == 1


def readme_commands() -> list:
    """Each ``ncpain ...`` line of the README's "Command line" sh block,
    backslash continuations joined, as an argv without the program name."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("ncpain ")]
    assert commands, "no ncpain example found in the README"
    return commands


@pytest.mark.parametrize("argv", readme_commands())
def test_readme_command_line_examples_run(argv, tmp_path, capsys):
    assert run(argv, tmp_path) == 0


def _leaves(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _leaves(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _leaves(value)
    else:
        yield node


@pytest.mark.parametrize("argv", [
    ["quasidet", "--random", "4", "2", "--seed", "7", "--pos", "1", "3"],
    ["zc", "--seed-kind", "rational", "--C", "4", "--lambda", "1,i,2-3i"],
    ["zc", "--seed-kind", "random", "--d", "3", "--seed", "0"],
    ["dress", "--N", "2", "--gamma", "i,2i", "--seed", "rational", "--C", "4",
     "--z", "1:1.1:0.002"],
    ["symmetric", "--v0", "0.1", "--v2", "0.3", "--alpha0", "0.5",
     "--alpha1", "1.5", "--t", "0:0.1:0.001", "--normalize"],
    ["symmetric", "--v0", "0", "--v1", "1", "--v2", "0.2",
     "--t", "0:0.1:0.001"],
    ["symmetric", "--v0", "5", "--v1", "1", "--v2", "-300",
     "--t", "0:2:0.01"],
], ids=["quasidet", "zc-rational", "zc-random", "dress", "symmetric",
        "refused-sample", "truncated"])
def test_reports_receive_plain_python_values(argv, tmp_path, capsys):
    # reports.jsonify converts no numpy types: the commands hand over
    # Python values.
    args = build_parser().parse_args(argv + ["--out", str(tmp_path)])
    with np.errstate(all="ignore"):
        parameters, results, _ = args.run(args)
    plain = {bool, int, float, complex, str, type(None)}
    leaves = list(_leaves({"parameters": parameters, "results": results}))
    assert leaves
    assert {type(x) for x in leaves} <= plain


class TestDeterminism:
    @staticmethod
    def _strip_duration(text):
        data = json.loads(text)
        data.pop("duration_s", None)
        return json.dumps(data, sort_keys=True)

    def test_reports_identical_minus_duration(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["zc", "--seed-kind", "random", "--d", "2",
                         "--seed", "11", "--out", str(out)])
            assert code == 0
        ja = self._strip_duration((a / "zc_report.json").read_text())
        jb = self._strip_duration((b / "zc_report.json").read_text())
        assert ja == jb

    def test_csv_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["dress", "--N", "1", "--gamma", "i", "--seed",
                         "rational", "--C", "4", "--z", "1:1.1:0.002",
                         "--out", str(out)])
            assert code == 0
        assert (a / "dress_v1.csv").read_bytes() \
            == (b / "dress_v1.csv").read_bytes()

    def test_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        # A leftover NCPAIN_THREADS, even a malformed one, changes nothing.
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.delenv("NCPAIN_THREADS", raising=False)
        assert main(["zc", "--seed-kind", "rational", "--out", str(a)]) == 0
        monkeypatch.setenv("NCPAIN_THREADS", "brick")
        assert main(["zc", "--seed-kind", "rational", "--out", str(b)]) == 0
        ja = self._strip_duration((a / "zc_report.json").read_text())
        jb = self._strip_duration((b / "zc_report.json").read_text())
        assert ja == jb


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ncpain.cli", "quasidet", "--identity", "2",
         "--pos", "1", "1", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "quasideterminant" in proc.stdout


def test_truncated_blowup_prints_only_its_reason(tmp_path):
    # The flow overflows in the steps computed past the refused state; no
    # warning about it may reach stderr.
    proc = subprocess.run(
        [sys.executable, "-m", "ncpain.cli", "symmetric", "--v0", "5",
         "--v1", "1", "--v2", "-300", "--alpha0", "0.5", "--alpha1", "1.5",
         "--t", "0:2:0.01", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == ("flow truncated: v0 is no longer finite "
                           "at t = 0.06\n")


@pytest.mark.parametrize("argv, code, stderr", [
    (["symmetric", "--v0", "1e300", "--v2", "1e300", "--t", "0:0.01:0.001"],
     3, "flow truncated: v0 is no longer finite at t = 0.001\n"),
    (["symmetric", "--alpha0", "1e308", "--alpha1", "1e308",
      "--t", "0:0.01:0.001"],
     3, "flow truncated: v0 is no longer finite at t = 0.001\n"),
    (["dress", "--N", "2", "--gamma", "1e200i,2", "--z", "1:1.1:0.001"],
     0, ""),
    (["quasidet", "--inline", '[["1e308","1e308"],["1e308","-1e308"]]',
      "--pos", "1", "1"],
     2, "numerical failure: matrix is not finite "
        "[Schur complement of leading block]\n"),
], ids=["huge-v", "huge-alpha", "huge-gamma", "huge-quasidet"])
def test_overflow_prints_no_floating_point_warning(argv, code, stderr,
                                                   tmp_path, capsys):
    # Overflow shows as the exit code, a mask, a truncation or inf/nan in
    # the report; a numpy RuntimeWarning would raise here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv, tmp_path) == code
    assert capsys.readouterr().err == stderr


def test_closed_stdout_is_not_an_error(tmp_path):
    # The reader is gone before the command starts, as in `ncpain ... | true`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ncpain.cli", "zc", "--seed-kind",
             "rational", "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr
    assert (tmp_path / "zc_report.json").exists()
