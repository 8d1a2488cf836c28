import json
import os
import subprocess
import sys

import pytest

from ncpain.cli import main, parse_complex, parse_range
from ncpain.quasidet import BlockMatrix, determinant_ratio
from ncpain.ring import MatrixElement


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
], ids=["ragged", "empty", "missing-file", "null-cell", "zc-d0",
        "zc-trials0", "dress-d0", "coarse-grid", "short-grid", "inf-range",
        "overflowing-range", "nan-C", "overflowing-C", "nan-min-cond",
        "negative-min-cond", "overflowing-cell"])
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

    def test_random_placeholders(self, tmp_path):
        code = run(["zc", "--seed-kind", "random", "--d", "3"], tmp_path)
        assert code == 0
        report = load_report(tmp_path, "zc_report.json")
        overall = report["results"]["overall"]
        assert overall["e11"] <= 1e-12
        assert overall["e12_identity"] <= 1e-12

    def test_zero_lambda_is_usage_error(self, tmp_path):
        assert run(["zc", "--lambda", "0"], tmp_path) == 1

    @pytest.mark.parametrize("argv, lam", [
        # |A| |B| overflows, so every relative residual would read 0.
        (["--lambda", "1", "--C", "1e300"], "(1+0j)"),
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

    def test_normalize_needs_alpha_sum_two(self, tmp_path):
        code = run(["symmetric", "--alpha0", "0", "--alpha1", "0",
                    "--normalize", "--t", "0:0.1:0.001"], tmp_path)
        assert code == 1


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

    def test_thread_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NCPAIN_THREADS", "1")
        assert main(["zc", "--seed-kind", "rational", "--out",
                     str(tmp_path)]) == 0
        monkeypatch.setenv("NCPAIN_THREADS", "brick")
        assert main(["zc", "--seed-kind", "rational", "--out",
                     str(tmp_path)]) == 1


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
