"""Problem generators, Matrix Market I/O, and the command-line driver."""
import json

import numpy as np
import pytest

from qregparam import (
    MatrixMarketError,
    generate_problem,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
)
from qregparam.cli import RunConfig, build_parser, main, run


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
        prob = generate_problem("low-rank", 4, 4, 0.0, seed=2, rank=2)
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

    @pytest.mark.parametrize("body", ["array real symmetric\n3 2\n1\n2\n3\n",
                                      "coordinate real symmetric\n3 2 1\n3 1 5.0\n"],
                             ids=["array", "coordinate"])
    def test_symmetric_must_be_square(self, tmp_path, body):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix " + body)
        with pytest.raises(MatrixMarketError, match=r"line 2: a symmetric matrix must be "
                                                    r"square, size line gives 3x2"):
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
