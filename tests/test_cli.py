import json

import pytest

from looplax.cli import main, parse_checks


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SOLVE_CFG = {
    "n": 2,
    "frame": {"kind": "diagonal", "scalars": [["0", "-1"]]},
    "g": {"random": {"eps": 0.1}},
    "seed": 11,
    "l": [0, 0],
    "flows": {"1,1": 0.1, "-1,1": 0.05},
}


@pytest.fixture
def cfg_file(tmp_path):
    def write(cfg, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(cfg))
        return str(p)

    return write


class TestDeriveAkns:
    def test_text_contains_pdes(self, capsys):
        code, out, _ = run(capsys, "derive-akns", "--format", "text")
        assert code == 0
        assert "i*q_t = q^2*r + (-1/2)*q_xx" in out
        assert "i*r_t = -q*r^2 + (1/2)*r_xx" in out
        assert "u12 = (1/2i)*q_x" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "derive-akns", "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert set(obj["report"]) >= {"q", "r", "u12", "u21", "pde_q", "pde_r"}


class TestSolve:
    def test_trivial_solution_json(self, capsys, cfg_file):
        cfg = dict(SOLVE_CFG, g="identity")
        code, out, _ = run(capsys, "solve", "--config", cfg_file(cfg))
        obj = json.loads(out)
        assert code == 0
        u1 = obj["u_series"][0]
        assert list(u1["coeffs"]) == ["0"]
        assert u1["coeffs"]["0"][0][0] == [0.0, -1.0]

    def test_determinism(self, capsys, cfg_file):
        path = cfg_file(SOLVE_CFG)
        _, out1, _ = run(capsys, "solve", "--config", path)
        _, out2, _ = run(capsys, "solve", "--config", path)
        assert out1 == out2

    def test_provenance_roundtrip_with_verify(self, capsys, cfg_file):
        path = cfg_file(SOLVE_CFG)
        code1, out1, _ = run(capsys, "solve", "--config", path)
        code2, out2, _ = run(capsys, "verify", "--config", path, "--checks", "lax:1,1")
        h1 = json.loads(out1)["provenance"]["config_hash"]
        h2 = json.loads(out2)["provenance"]["config_hash"]
        assert code1 == code2 == 0
        assert h1 == h2

    def test_text_mode(self, capsys, cfg_file):
        code, out, _ = run(capsys, "solve", "--config", cfg_file(SOLVE_CFG), "--format", "text")
        assert code == 0 and "U_1:" in out and "z^0:" in out


class TestVerify:
    def test_residual_report(self, capsys, cfg_file):
        code, out, _ = run(
            capsys,
            "verify",
            "--config",
            cfg_file(SOLVE_CFG),
            "--checks",
            "lax:1,1",
            "lax:2,1",
            "zc:-1,1:1,1",
        )
        obj = json.loads(out)
        assert code == 0
        assert set(obj["residuals"]) == {"lax:1,1", "lax:2,1", "zc:-1,1:1,1"}
        assert all(v <= 1e-6 for v in obj["residuals"].values())

    def test_missing_checks_is_validation_error(self, capsys, cfg_file):
        code, _, err = run(capsys, "verify", "--config", cfg_file(SOLVE_CFG))
        assert code == 2 and "checks" in err


class TestZcCheck:
    def test_symbolic_zero(self, capsys, cfg_file):
        cfg = {
            "mode": "symbolic",
            "kind": "combined",
            "n": 2,
            "depth": 4,
            "seed": 3,
            "pairs": [[-1, 1, 1, 1], [0, 1, 2, 1]],
        }
        code, out, _ = run(capsys, "zc-check", "--config", cfg_file(cfg))
        obj = json.loads(out)
        assert code == 0
        assert all(obj["zero"].values())

    def test_numeric_mode(self, capsys, cfg_file):
        cfg = dict(SOLVE_CFG, mode="numeric", pairs=[[-1, 1, 1, 1]])
        code, out, _ = run(capsys, "zc-check", "--config", cfg_file(cfg))
        obj = json.loads(out)
        assert code == 0
        assert obj["residuals"]["zc:-1,1:1,1"] <= 1e-6


class TestReduce:
    def test_standard_reduction(self, capsys, cfg_file):
        cfg = dict(SOLVE_CFG, flows={"1,1": 0.1})
        code, out, _ = run(
            capsys, "reduce", "--config", cfg_file(cfg), "--target", "standard"
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["kind"] == "standard" and obj["w_series"] is None

    def test_flow_violation_exit_code(self, capsys, cfg_file):
        code, _, err = run(
            capsys, "reduce", "--config", cfg_file(SOLVE_CFG), "--target", "standard"
        )
        assert code == 2 and "negative flows" in err


class TestExitCodes:
    def test_big_cell_exit_3(self, capsys, cfg_file):
        cfg = {
            "n": 2,
            "g": {
                "1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                "-1": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
            "l": [0, 0],
            "flows": {},
        }
        code, _, err = run(capsys, "solve", "--config", cfg_file(cfg))
        assert code == 3 and "singular" in err

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--config", "/nonexistent/cfg.json")
        assert code == 2

    def test_bad_flag_exit_2(self, capsys):
        assert main(["solve", "--format", "yaml"]) == 2

    def test_random_without_seed(self, capsys, cfg_file):
        cfg = dict(SOLVE_CFG)
        cfg.pop("seed")
        code, _, err = run(capsys, "solve", "--config", cfg_file(cfg))
        assert code == 2 and "seed" in err


class TestMalformedConfig:
    # a malformed config must exit 2 with its cause named: not a traceback,
    # a silent success or an opaque failure deep in the solver
    def test_top_level_not_an_object(self, capsys, cfg_file):
        code, out, err = run(capsys, "solve", "--config", cfg_file([1, 2]))
        assert code == 2 and "JSON object" in err and out == ""

    @pytest.mark.parametrize("g", [[1, 2], {"random": 5}])
    def test_unknown_loop_spec(self, capsys, cfg_file, g):
        code, out, err = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, g=g)))
        assert code == 2 and "g must be" in err and out == ""

    def test_tolerances_not_an_object(self, capsys, cfg_file):
        cfg = dict(SOLVE_CFG, tolerances=[1e-10])
        code, out, err = run(capsys, "solve", "--config", cfg_file(cfg))
        assert code == 2 and "tolerances" in err and out == ""

    def test_short_g_entry(self, capsys, cfg_file):
        g = {"0": [[[1], [0, 0]], [[0, 0], [1, 0]]]}
        code, out, err = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, g=g)))
        assert code == 2 and "g entry '0'" in err and out == ""

    def test_wrong_length_l(self, capsys, cfg_file):
        code, out, err = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, l=[5])))
        assert code == 2 and "exponent vector length" in err and out == ""

    @pytest.mark.parametrize(
        "change",
        [
            {"flows": {"1,1": 1e6}},
            {"flows": {"1,1": float("nan")}},
            {"flows": {"1,1": float("inf")}},
            {"g": {"random": {"eps": float("nan")}}},
        ],
        ids=["flow-1e6", "flow-nan", "flow-inf", "eps-nan"],
    )
    def test_non_finite_grid_values(self, capsys, cfg_file, change):
        code, out, err = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, **change)))
        assert code == 2 and "non-finite" in err and "SVD" not in err and out == ""


    @pytest.mark.parametrize(
        "change,needle",
        [
            ({"flows": {"a": 0.1}}, "flows key 'a' must read \"m,alpha\""),
            ({"flows": {"1,1": "x"}}, "flows['1,1'] must be a number, not 'x'"),
            ({"flows": [["1,1", 0.1]]}, "flows must be a JSON object"),
            ({"g": {"x": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}, "g key 'x' must be a whole-number"),
            ({"g": {"random": {"eps": "a"}}}, "g.random.eps must be a number, not 'a'"),
            ({"tolerances": {"fact_tol": "a"}}, "tolerances.fact_tol must be a number, not 'a'"),
            ({"frame": {"kind": "diagonal", "n": "2"}}, "frame.n must be a whole number, not '2'"),
            ({"frame": 5}, "frame must be a JSON object"),
        ],
        ids=["flow-key", "flow-value", "flows-list", "g-key", "eps", "fact-tol", "frame-n", "frame"],
    )
    def test_malformed_field_named(self, capsys, cfg_file, change, needle):
        # each of these exited 2 with a bare Python message that named no field
        code, out, err = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, **change)))
        assert code == 2 and needle in err and out == ""

    def test_non_commuting_twist(self, capsys, cfg_file):
        # delta(l) must commute with the frame; this one used to verify with
        # order-one residuals and exit 0
        cfg = dict(SOLVE_CFG, n=3, frame={"kind": "unipotent"}, l=[1, 0, -1])
        code, out, err = run(capsys, "verify", "--config", cfg_file(cfg), "--checks", "lax:1,1")
        assert code == 2 and "E_1 has a nonzero (1, 2) entry" in err and out == ""

    @pytest.mark.parametrize(
        "command,text,field",
        [
            ("solve", '"N": 1e400', "N"),
            ("solve", '"N": 16.9, "M": 12.7', "N"),
            ("solve", '"M": 12.7', "M"),
            ("solve", '"grid": 128.5', "grid"),
            ("solve", '"n": 2.5', "n"),
            ("solve", '"l": [0.5, 0]', "l[0]"),
            ("zc-check", '"depth": 1e400', "depth"),
            ("zc-check", '"pairs": [[0.5, 1, 1, 1]]', "pairs[0]"),
        ],
    )
    def test_integer_field_not_whole(self, capsys, tmp_path, command, text, field):
        # raw JSON text: 1e400 overflowed int() with a traceback, 16.9 ran as
        # 16, a flow degree 0.5 gave a NONZERO verdict with exit 1
        override = json.loads("{" + text + "}")
        base = {k: v for k, v in SOLVE_CFG.items() if k not in override}
        base["pairs"] = [[0, 1, 1, 1]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base)[:-1] + ", " + text + "}")
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 2 and f"config field {field} must be a whole number" in err and out == ""

    @pytest.mark.parametrize(
        "frame,needle",
        [
            ({"kind": "diagonal", "scalars": [["1/0", "0"]]}, "bad Q(i) scalar ['1/0', '0']"),
            ({"kind": "diagonal", "scalars": [[1e400, 0]]}, "bad Q(i) scalar [inf, 0]"),
            ({"kind": "diagonal", "scalars": ["12"]}, "must be a [re, im] pair, not '12'"),
            (
                {"kind": "custom", "basis": [[[["1/0", "0"], ["0", "0"]], [["0", "0"], ["-1", "0"]]]]},
                "bad Q(i) scalar ['1/0', '0']",
            ),
        ],
        ids=["zero-denominator", "overflow", "bare-string", "custom-basis"],
    )
    def test_malformed_frame_scalar(self, capsys, cfg_file, frame, needle):
        # "1/0" and 1e400 ended in a traceback with exit 1; "12" was read
        # as 1+2i
        code, out, err = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, frame=frame)))
        assert code == 2 and needle in err and out == ""

    def test_whole_float_fields_accepted(self, capsys, cfg_file):
        as_int = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, N=16, M=12)))
        as_float = run(capsys, "solve", "--config", cfg_file(dict(SOLVE_CFG, N=16.0, M=12.0)))
        assert as_int[0] == as_float[0] == 0 and as_int[1] == as_float[1]


class TestZeroValuedFlags:
    # a zero flag must reach validation, not fall back to the config value
    @pytest.mark.parametrize(
        "flag,needle",
        [("--depth-N", "depths"), ("--depth-M", "depths"), ("--tol-fact", "fact_tol")],
    )
    def test_solve_flag_zero_exit_2(self, capsys, cfg_file, flag, needle):
        code, out, err = run(capsys, "solve", "--config", cfg_file(SOLVE_CFG), flag, "0")
        assert code == 2 and needle in err and out == ""

    def test_fd_step_zero_exit_2(self, capsys, cfg_file):
        code, out, err = run(
            capsys, "verify", "--config", cfg_file(SOLVE_CFG), "--checks", "lax:1,1",
            "--fd-step", "0",
        )
        assert code == 2 and "step" in err and out == ""


class TestParseChecks:
    def test_grammar(self):
        assert parse_checks(["lax:2,1"]) == [("lax", 2, 1)]
        assert parse_checks(["zc:-1,1:1,2"]) == [("zc", -1, 1, 1, 2)]
        with pytest.raises(ValueError):
            parse_checks(["boom:1"])
