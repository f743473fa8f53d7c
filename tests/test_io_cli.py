"""Problem generators, Matrix Market I/O, and the command-line driver."""
import hashlib
import importlib.util
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from qregparam import (
    MatrixMarketError,
    generate_problem,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
)
from qregparam import CapacityError, amplitude, search
from qregparam.cli import RunConfig, build_parser, main, run


def load_fuzz():
    """tools/fuzz_cli.py, whose strategy and check the fuzz test below shares."""
    path = Path(__file__).resolve().parents[1] / "tools" / "fuzz_cli.py"
    spec = importlib.util.spec_from_file_location("fuzz_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fuzz_cli = load_fuzz()


class TestGenerateProblem:
    def test_geometric_spectrum(self):
        prob = generate_problem("geometric-spectrum", 4, 4, 0.0, seed=0)
        s = np.linalg.svd(prob.A, compute_uv=False)
        assert np.allclose(s, [1.0, 0.5, 0.25, 0.125], atol=1e-12)

    def test_noiseless_is_consistent(self):
        prob = generate_problem("low-rank", 5, 4, 0.0, seed=1)
        assert np.linalg.norm(prob.A @ prob.x_true - prob.b) < 1e-12

    def test_seed_determinism(self):
        a = generate_problem("hilbert-like", 3, 3, 0.01, seed=7)
        b = generate_problem("hilbert-like", 3, 3, 0.01, seed=7)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)

    def test_low_rank_tail(self):
        prob = generate_problem("low-rank", 4, 4, 0.0, seed=2)
        s = np.linalg.svd(prob.A, compute_uv=False)
        assert np.allclose(s[2:], 0.0, atol=1e-12)

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            generate_problem("laplace", 2, 2, 0.0, seed=0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.1])
    def test_invalid_noise(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and nonnegative"):
            generate_problem("low-rank", 3, 2, noise, seed=0)


class TestMatrixMarket:
    def test_coordinate_identity(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.0\n2 2 1.0\n"
        )
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_duplicate_entry_names_line(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n2 2 1.0\n1 1 5.0\n"
        )
        with pytest.raises(MatrixMarketError, match="line 5"):
            load_matrix(path)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "m.mtx"
        save_matrix(path, M)
        assert np.allclose(load_matrix(path), M, atol=1e-15)

    def test_real_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 2))
        path = tmp_path / "m.mtx"
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path).real, M)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.5, -2.25, 0.0])
        path = tmp_path / "v.mtx"
        save_vector(path, v)
        assert np.array_equal(load_vector(path).real, v)

    def test_symmetric_storage(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n2 1 3.0\n2 2 1.0\n"
        )
        M = load_matrix(path)
        assert np.array_equal(M.real, [[0, 3], [3, 1]])

    def test_hermitian_storage(self, tmp_path):
        path = tmp_path / "h.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex hermitian\n"
            "2 2 1\n2 1 0.0 2.0\n"
        )
        M = load_matrix(path)
        assert M[1, 0] == 2j and M[0, 1] == -2j

    def test_packed_array_storage(self, tmp_path):
        # a symmetric array file lists the lower triangle column by column
        path = tmp_path / "p.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n3 3\n"
                        "1\n2\n3\n4\n5\n6\n")
        M = load_matrix(path)
        assert np.array_equal(M.real, [[1, 2, 3], [2, 4, 5], [3, 5, 6]])

    @pytest.mark.parametrize("body", ["array real symmetric\n3 2\n1\n2\n3\n",
                                      "coordinate real symmetric\n3 2 1\n3 1 5.0\n"],
                             ids=["array", "coordinate"])
    def test_symmetric_must_be_square(self, tmp_path, body):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix " + body)
        with pytest.raises(MatrixMarketError, match=r"line 2: a symmetric matrix must be "
                                                    r"square, size line gives 3x2"):
            load_matrix(path)

    @pytest.mark.parametrize("body,lineno", [("coordinate real general\n-2 3 0\n", 2),
                                             ("array real general\n2 -1\n", 2),
                                             ("coordinate real general\n%\n2 2 -1\n", 3),
                                             ("array real general\n0 0\n", 2)],
                             ids=["negative-m", "negative-n", "negative-nnz", "empty"])
    def test_size_line_out_of_range(self, tmp_path, body, lineno):
        # refused on the size line, before any matrix is allocated
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix " + body)
        with pytest.raises(MatrixMarketError, match=rf"^line {lineno}: size line '.*' needs "
                                                    r"m, n >= 1 and nnz >= 0$"):
            load_matrix(path)

    def test_non_square_symmetric_through_cli(self, tmp_path, capsys):
        (tmp_path / "A.mtx").write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 5.0\n")
        save_vector(tmp_path / "b.mtx", np.array([1.0, 2.0, 3.0]))
        code = main(["--method", "classical-gcv", "--matrix-file", str(tmp_path / "A.mtx"),
                     "--rhs-file", str(tmp_path / "b.mtx")])
        assert code == 1
        assert "error [MatrixMarketError]: line 2: a symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("symmetry,values", [("real symmetric", ("5.0", "7.0")),
                                                 ("complex hermitian", ("5 1", "5 -1"))],
                             ids=["symmetric", "hermitian"])
    def test_mirrored_duplicate_names_both_lines(self, tmp_path, symmetry, values):
        path = tmp_path / "dup.mtx"
        path.write_text(
            f"%%MatrixMarket matrix coordinate {symmetry}\n"
            f"2 2 2\n2 1 {values[0]}\n1 2 {values[1]}\n"
        )
        with pytest.raises(MatrixMarketError,
                           match=r"line 4: duplicate entry \(1, 2\), first seen on "
                                 r"line 3 as its mirror \(2, 1\)"):
            load_matrix(path)

    def test_array_format_column_major(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "2 2\n1\n2\n3\n4\n"
        )
        assert np.array_equal(load_matrix(path).real, [[1, 3], [2, 4]])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%MatrixMarket matrix coordinate real general\n1 1 0\n")
        with pytest.raises(MatrixMarketError, match="line 1"):
            load_matrix(path)

    def test_index_out_of_bounds(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match="out of bounds"):
            load_matrix(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n"
        )
        with pytest.raises(MatrixMarketError, match="line 3"):
            load_matrix(path)

    @pytest.mark.parametrize("field,value", [("real", "nan"), ("real", "-inf"),
                                             ("real", "1e400"), ("complex", "1.0 nan")])
    def test_non_finite_value_names_line(self, tmp_path, field, value):
        path = tmp_path / "nan.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate {field} general\n"
                        f"1 1 1\n1 1 {value}\n")
        with pytest.raises(MatrixMarketError, match=f"line 3: non-finite {field} value"):
            load_matrix(path)

    def test_non_finite_rhs_through_cli(self, tmp_path, capsys):
        save_matrix(tmp_path / "A.mtx", np.diag([1.0, 0.5]))
        (tmp_path / "b.mtx").write_text(
            "%%MatrixMarket matrix array real general\n2 1\n1.0\nnan\n")
        code = main(["--method", "lcurve", "--matrix-file", str(tmp_path / "A.mtx"),
                     "--rhs-file", str(tmp_path / "b.mtx")])
        assert code == 1
        assert ("error [MatrixMarketError]: line 4: non-finite real value 'nan'"
                in capsys.readouterr().err)

    def test_vector_shape_enforced(self, tmp_path):
        path = tmp_path / "m.mtx"
        save_matrix(path, np.eye(2))
        with pytest.raises(MatrixMarketError, match="vector"):
            load_vector(path)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            RunConfig(method="newton", problem="geometric-spectrum").validate()
        with pytest.raises(ValueError, match="rho"):
            RunConfig(method="lcurve", problem="geometric-spectrum",
                      rho=1.5).validate()
        with pytest.raises(ValueError, match="generator"):
            RunConfig(method="lcurve", problem=None).validate()
        for bits in (0, -1):
            with pytest.raises(ValueError, match="--phase-bits"):
                RunConfig(method="lcurve", problem="geometric-spectrum",
                          n_phase_bits=bits).validate()
        with pytest.raises(CapacityError, match="^--phase-bits 25 exceeds the 24-qubit"):
            RunConfig(method="lcurve", problem="geometric-spectrum",
                      n_phase_bits=25).validate()
        for repeats in (4, 0, -1):
            with pytest.raises(ValueError, match="--repeats"):
                RunConfig(method="lcurve", problem="geometric-spectrum",
                          repeats=repeats).validate()
        with pytest.raises(ValueError, match="--rank"):
            RunConfig(method="gcv", problem="geometric-spectrum", rank=0).validate()
        nan, inf = float("nan"), float("inf")
        for flag, values in (("epsilon", (nan, inf, 0.0)), ("mu0", (nan, inf, -inf, 0.0)),
                             ("noise", (nan, inf, -0.1))):
            for value in values:
                with pytest.raises(ValueError, match=f"--{flag} must be finite"):
                    RunConfig(method="lcurve", problem="geometric-spectrum",
                              **{flag: value}).validate()


class TestCli:
    def test_unknown_method_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--method", "newton"])
        assert exc.value.code == 2

    def test_omitted_flags_keep_run_config_defaults(self):
        args = build_parser().parse_args(["--method", "gcv", "--problem", "low-rank"])
        assert RunConfig(**vars(args)) == RunConfig(method="gcv", problem="low-rank")

    def test_classical_lcurve_table(self):
        config = RunConfig(method="classical-lcurve", problem="geometric-spectrum",
                           m=3, n=3, noise=0.01, mu0=0.8, rho=0.5, p=4, seed=0)
        report = run(config)
        assert len(report.rows) == 4
        for row in report.rows:
            assert {"mu", "solution_norm_oracle", "residual_norm_oracle",
                    "criterion"} <= row.keys()
        assert 0 <= report.selection["chosen_index"] < 4

    def test_quantum_agrees_with_classical_small(self):
        base = dict(problem="geometric-spectrum", m=2, n=2, noise=0.02,
                    mu0=0.8, rho=0.5, p=3, epsilon=0.02, n_phase_bits=6,
                    seed=3, repeats=3)
        quantum = run(RunConfig(method="lcurve", **base))
        classical = run(RunConfig(method="classical-lcurve", **base))
        assert abs(quantum.selection["chosen_index"]
                   - classical.selection["chosen_index"]) <= 1

    def test_tikhonov_and_tsvd_methods(self):
        r1 = run(RunConfig(method="tikhonov", problem="geometric-spectrum",
                           m=3, n=3, mu0=0.5, seed=0))
        assert r1.selection["chosen_mu"] == 0.5
        r2 = run(RunConfig(method="tsvd", problem="geometric-spectrum",
                           m=3, n=3, rank=2, seed=0))
        assert r2.selection["chosen_k"] == 2

    def test_matrix_file_input(self, tmp_path):
        save_matrix(tmp_path / "A.mtx", np.diag([1.0, 0.5]))
        save_vector(tmp_path / "b.mtx", np.array([1.0, 1.0]))
        config = RunConfig(method="classical-gcv", matrix_file=str(tmp_path / "A.mtx"),
                           rhs_file=str(tmp_path / "b.mtx"), mu0=0.8, rho=0.5, p=3)
        report = run(config)
        assert all("gcv_oracle" in row for row in report.rows)

    def test_matrix_without_rhs_fails(self, tmp_path, capsys):
        save_matrix(tmp_path / "A.mtx", np.eye(2))
        code = main(["--method", "classical-lcurve",
                     "--matrix-file", str(tmp_path / "A.mtx")])
        assert code == 1
        assert "rhs" in capsys.readouterr().err

    def test_zero_matrix_typed_error(self, tmp_path, capsys):
        save_matrix(tmp_path / "Z.mtx", np.zeros((3, 2)))
        save_vector(tmp_path / "b.mtx", np.array([1.0, 2.0, 3.0]))
        for method in ("lcurve", "gcv"):
            code = main(["--method", method, "--matrix-file", str(tmp_path / "Z.mtx"),
                         "--rhs-file", str(tmp_path / "b.mtx"), "--phase-bits", "8",
                         "--p", "4"])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error [ValueError]: A is the zero matrix")
            assert err.rstrip().endswith("(at mu = 0.9)")

    def test_report_lines_are_json_records(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["--method", "classical-lcurve", "--problem",
                     "geometric-spectrum", "--m", "3", "--n", "3",
                     "--p", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        records = [json.loads(ln) for ln in lines]
        kinds = [r["record"] for r in records]
        assert kinds[0] == "config" and kinds[-1] == "summary"
        assert kinds.count("mu") == 4

    def test_byte_identical_reports(self, tmp_path):
        args = ["--method", "lcurve", "--problem", "geometric-spectrum",
                "--m", "2", "--n", "2", "--noise", "0.02", "--mu0", "0.8",
                "--rho", "0.5", "--p", "3", "--epsilon", "0.05",
                "--phase-bits", "6", "--seed", "11", "--repeats", "3"]
        out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_file_input_report_ignores_generator_flags(self, tmp_path):
        save_matrix(tmp_path / "A.mtx", np.diag([1.0, 0.5]))
        save_vector(tmp_path / "b.mtx", np.array([1.0, 1.0]))
        args = ["--method", "classical-gcv", "--matrix-file", str(tmp_path / "A.mtx"),
                "--rhs-file", str(tmp_path / "b.mtx"), "--p", "3"]
        digests = set()
        for flags in (["--noise", "0.01"], ["--noise", "0.5", "--m", "7"]):
            out = tmp_path / "report.jsonl"
            assert main(args + flags + ["--out", str(out)]) == 0
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
            config = json.loads(out.read_text().splitlines()[0])
            assert not {"m", "n", "noise"} & config.keys()
        assert len(digests) == 1

    def test_file_input_report_names_content_not_path(self, tmp_path):
        """Two spellings and two directories of the same bytes give one report."""
        A, b = np.diag([1.0, 0.5]), np.array([1.0, 1.0])
        for folder in (tmp_path / "one", tmp_path / "two"):
            folder.mkdir()
            save_matrix(folder / "A.mtx", A)
            save_vector(folder / "b.mtx", b)
        (tmp_path / "sub").mkdir()

        def digest(matrix_file, rhs_file):
            out = tmp_path / "report.jsonl"
            assert main(["--method", "classical-gcv", "--matrix-file", str(matrix_file),
                         "--rhs-file", str(rhs_file), "--p", "3", "--out", str(out)]) == 0
            config = json.loads(out.read_text().splitlines()[0])
            assert config["rhs_sha256"] == hashlib.sha256(Path(rhs_file).read_bytes()).hexdigest()
            assert not {"matrix_file", "rhs_file"} & config.keys()
            return hashlib.sha256(out.read_bytes()).hexdigest()

        one, two = tmp_path / "one", tmp_path / "two"
        same = {digest(one / "A.mtx", one / "b.mtx"),
                digest(tmp_path / "sub" / ".." / "one" / "A.mtx", f"{one}//b.mtx"),
                digest(two / "A.mtx", two / "b.mtx")}
        assert len(same) == 1
        save_vector(two / "b.mtx", np.array([1.0, 1.5]))
        assert digest(two / "A.mtx", two / "b.mtx") not in same

    def test_ae_register_beyond_capacity_typed_error(self, monkeypatch, capsys):
        # the lowered capacity stands in for an epsilon that needs 25 or more AE bits
        monkeypatch.setattr(amplitude, "MAX_QUBITS", 6)
        code = main(["--method", "lcurve", "--problem", "geometric-spectrum", "--m", "2",
                     "--n", "2", "--p", "2", "--phase-bits", "6"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [CapacityError]: amplitude estimation on ")
        assert err.rstrip().endswith("exceeds the 6-qubit capacity (at mu = 0.9)")

    def test_phase_bits_beyond_capacity_typed_error(self, capsys):
        # refused before any 2^40-entry array is allocated
        code = main(["--method", "lcurve", "--problem", "low-rank", "--phase-bits", "40"])
        assert code == 1
        assert capsys.readouterr().err == ("error [CapacityError]: --phase-bits 40 exceeds "
                                           "the 24-qubit capacity\n")

    @pytest.mark.parametrize("argv, message", [
        (["--method", "classical-gcv", "--mu0", "1e-200"],
         "GCV denominator m - n + g(mu) = 0 at mu = 9e-201 "),
        (["--method", "classical-gcv", "--p", "300", "--rho", "0.5"],
         "GCV denominator m - n + g(mu) = 1.47605e-162 at mu = 1.31777e-82 "),
        (["--method", "tikhonov", "--mu0", "1e300"], "mu = 1e+300 is out of range"),
        (["--method", "classical-lcurve", "--mu0", "1e300"], "mu = 9e+299 is out of range"),
        (["--method", "classical-gcv", "--mu0", "1e300"], "mu = 9e+299 is out of range"),
    ], ids=["gcv-mu0-1e-200", "gcv-p300-rho0.5", "tikhonov-mu0-1e300",
            "classical-lcurve-mu0-1e300", "classical-gcv-mu0-1e300"])
    def test_extreme_mu_typed_error(self, argv, message, capsys):
        code = main(["--problem", "geometric-spectrum", *argv])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [MuRangeError]: {message}")
        assert err.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("argv, message", [
        # low-rank A: sigma_n is rounding noise and counts as 0, so C~ = mu, and
        # mu^2 underflows
        (["--problem", "low-rank", "--n", "2", "--mu0", "1e-300", "--epsilon", "1e-300"],
         "error [MuRangeError]: mu = 9e-301 is out of range: C~ = sqrt(sigma_n^2 + mu^2) "
         "underflows to 0 in float64 (at mu = 9e-301)"),
        (["--problem", "low-rank", "--mu0", "1e-300", "--epsilon", "1e-300"],
         "error [MuRangeError]: mu = 9e-301 is out of range: C~ = sqrt(sigma_n^2 + mu^2) "
         "underflows to 0 in float64 (at mu = 9e-301)"),
        (["--problem", "geometric-spectrum", "--m", "2", "--n", "4", "--mu0", "1e-300",
          "--phase-bits", "8"],
         "error [MuRangeError]: mu = 9e-301 is out of range: C~ = sqrt(sigma_n^2 + mu^2) "
         "underflows to 0 in float64 (at mu = 9e-301)"),
        # C~ = mu = 9e-151 is representable; the accuracy C~ epsilon is not
        (["--problem", "low-rank", "--mu0", "1e-150", "--epsilon", "1e-300"],
         "error [CapacityError]: amplitude estimation to 9e-151 * 1e-300 needs 1499 "
         "bits, beyond the 24-qubit capacity (at mu = 9e-151)"),
    ], ids=["ae-width-overflows", "ae-accuracy-underflows", "c-tilde-zero",
            "ae-accuracy-log-space"])
    def test_underflowing_ae_scale_typed_error(self, argv, message, capsys):
        code = main(["--method", "lcurve", *argv])
        assert code == 1
        assert capsys.readouterr().err == message + "\n"  # one line, no traceback

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(fuzz_cli.argv_strategy())
    def test_fuzzed_flags_run_or_fail_typed(self, argv):
        # tools/fuzz_cli.py runs the same strategy for as many examples as asked
        fuzz_cli.check(argv)

    def test_unknown_log_level_typed_error(self, monkeypatch, capsys):
        monkeypatch.setenv("QREGPARAM_LOG", "verbose")
        code = main(["--method", "classical-gcv", "--problem", "geometric-spectrum",
                     "--m", "3", "--n", "3", "--p", "4"])
        assert code == 1
        assert capsys.readouterr().err == ("error [ValueError]: QREGPARAM_LOG='verbose' is "
                                           "not one of DEBUG, INFO, WARNING, ERROR, CRITICAL\n")

    def test_wrong_stage_typed_error(self, monkeypatch, capsys):
        # an A x stage that hands the solver state on unchanged
        monkeypatch.setattr(search, "apply_A_state", lambda solution, ext: solution)
        code = main(["--method", "lcurve", "--problem", "geometric-spectrum", "--m", "2",
                     "--n", "2", "--p", "2", "--phase-bits", "6"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ValueError]: residual_state expects ")
        assert err.rstrip().endswith("(at mu = 0.9)")


class TestReadmeExamples:
    """The Quick start and Command line blocks of README.md run as written."""

    @staticmethod
    def block(section, lang):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        body = text.split(f"## {section}\n", 1)[1]
        return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0]

    def test_quick_start(self, capsys):
        exec(compile(self.block("Quick start", "python"), "README.md", "exec"), {})
        chosen, oracle = map(float, capsys.readouterr().out.split())
        assert chosen > 0 and oracle > 0

    def test_command_line(self, tmp_path):
        argv = shlex.split(self.block("Command line", "sh").replace("\\\n", " "))
        assert argv[0] == "qregparam" and argv[-2] == "--out"
        out = tmp_path / argv[-1]
        assert main(argv[1:-1] + [str(out)]) == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        kinds = ["config"] + ["mu"] * records[0]["p"] + ["summary"]
        assert [r["record"] for r in records] == kinds
