import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fockforge.cli
import fockforge.protocols
from fockforge.cli import FORMULA_CHECKS, PROTOCOL_CHECKS, RunConfig, _json_text, main
from fockforge.report import make_report


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigValidation:
    def test_negative_tolerance_is_config_error(self, capsys):
        # nan would fail every gate and inf would pass every gate
        for tol in ("-1", "nan", "inf"):
            code, _, err = run(["swap", "--a1", "1,0", "--a2", "0,1", "--tol", tol], capsys)
            assert code == 2
            assert "tol" in err

    def test_bad_nmax_is_config_error(self, capsys):
        code, _, _ = run(["verify-all", "--nmax", "0"], capsys)
        assert code == 2

    def test_oversize_nmax_is_config_error(self, capsys, monkeypatch):
        # 10**400 does not convert to a float; no cutoff past MAX_NMAX fits an array
        huge = str(10**400)
        code, out, err = run(["swap", "--a1", "1,0", "--a2", "0,1", "--nmax", huge], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --nmax must be at most {fockforge.cli.MAX_NMAX}\n"
        monkeypatch.setenv("FOCKFORGE_NMAX", huge)
        code, _, err = run(["clone", "--alpha", "1,0"], capsys)
        assert code == 2
        assert err == f"error: FOCKFORGE_NMAX must be at most {fockforge.cli.MAX_NMAX}\n"

    def test_margin_exceeding_nmax_is_config_error(self, capsys):
        code, _, _ = run(["swap", "--a1", "1,0", "--a2", "0,1", "--nmax", "8", "--margin", "9"], capsys)
        assert code == 2

    def test_small_nmax_caps_the_default_sss_margin(self, capsys):
        # check_SSS_commute's default margin never exceeds the cutoff, so a
        # small --nmax fails checks rather than the configuration
        code, _, err = run(["verify-all", "--nmax", "5"], capsys)
        assert code == 1
        assert "exceeds" not in err
        sweep = ["sweep", "--check", "check_SSS_commute", "--values", "0.2,0.7", "--nmax", "6"]
        assert run(sweep, capsys)[0] == 0
        assert run(sweep + ["--margin", "7"], capsys)[0] == 2

    def test_negative_seed_names_flag(self, capsys):
        code, out, err = run(["verify-all", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --seed must be non-negative, got -1\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_non_finite_delta_is_config_error(self, capsys):
        for argv in (["swap", "--a1", "1,0", "--a2", "0,1"], ["clone", "--alpha", "1,0"]):
            for delta in ("nan", "inf", "-inf"):
                code, out, err = run([*argv, "--delta", delta, "--nmax", "10"], capsys)
                assert code == 2
                assert out == ""
                assert "--delta" in err

    def test_blocked_tail_at_huge_cutoff_is_config_error(self, capsys):
        # the tail rule sums about 6.6e9 Poisson terms here in blocks; the
        # command then runs out of memory building the state and exits 2
        argv = ["swap", "--a1", "7e8,0", "--a2", "0,1", "--nmax", "490000000000000000"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: out of memory at this truncation; try a smaller --nmax\n"

    def test_out_of_memory_is_config_error(self, capsys, monkeypatch):
        # stands in for an oversize --nmax; no large array is ever allocated
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(fockforge.protocols, "apply_sectors", exhausted)
        code, out, err = run(["swap", "--a1", "1,0", "--a2", "0,1", "--nmax", "10"], capsys)
        assert code == 2
        assert out == ""
        assert "--nmax" in err

    @pytest.mark.parametrize(
        "argv",
        [["swap", "--a1", "1e200,0", "--a2", "0,1"], ["clone", "--alpha", "1e200,0"]],
        ids=["swap", "clone"],
    )
    def test_overflowing_amplitude_is_config_error(self, argv, capsys):
        # |alpha|^2 overflows a float: no cutoff can hold the state
        code, out, err = run([*argv, "--nmax", "10"], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "1e+200" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["swap", "--a1", "1e20,0", "--a2", "0,1"],
            ["clone", "--alpha", "1e20,0"],
            ["swap", "--a1", "1e150,0", "--a2", "0,1", "--nmax", "10"],
            ["clone", "--alpha", "1e150,0", "--nmax", "10"],
        ],
        ids=["swap-1e20", "clone-1e20", "swap-1e150", "clone-1e150"],
    )
    def test_non_finite_displacement_is_config_error(self, argv, capsys):
        # |alpha|^2 fits a float, but no float resolves the phases of D(alpha)'s chain
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "a float cannot resolve the chain phases" in err


@pytest.mark.parametrize("angle", ["1e6", "1e15", "1e300"])
@pytest.mark.parametrize(
    "argv",
    [
        ["swap", "--a1", "1,0", "--a2", "0,1", "--delta"],
        ["clone", "--alpha", "1,0", "--delta"],
        ["sweep", "--check", "check_phase_formula", "--values"],
    ],
    ids=["swap", "clone", "phase_formula"],
)
def test_large_finite_angle_passes(argv, angle, capsys):
    # a true identity holds at every finite angle
    code, out, err = run([*argv, angle], capsys)
    assert code == 0, out + err
    assert err == ""


class TestSwapCommand:
    def test_basic_swap_passes(self, capsys):
        code, out, _ = run(["swap", "--a1", "1,0", "--a2", "0,1"], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["fidelity"] >= 1 - 1e-6
        assert body["stages"] == ["beamsplitter", "phase_rotation"]
        assert body["report"]["passed"] is True

    def test_zero_pair_trivial(self, capsys):
        code, out, _ = run(["swap", "--a1", "0,0", "--a2", "0,0", "--nmax", "12"], capsys)
        assert code == 0

    def test_polar_syntax(self, capsys):
        code, out, _ = run(["swap", "--a1", "1@0", "--a2", "1@1.5707963267948966"], capsys)
        assert code == 0

    def test_tail_violation_warns_and_fails(self, capsys):
        code, _, err = run(["swap", "--a1", "3,0", "--a2", "0,0", "--nmax", "6"], capsys)
        assert code == 1
        assert "cutoff inadequate" in err

    def test_clone_prints_each_warning_once_in_order(self, capsys):
        code, _, err = run(["clone", "--alpha", "3,0", "--nmax", "10"], capsys)
        assert code == 1
        assert err.splitlines() == [
            "warning: cutoff inadequate for clone input: "
            "|alpha|=3 leaves Poisson tail 2.94e-01 above n_max=10",
        ]

    def test_combined_amplitude_sets_cutoff(self, capsys):
        # each amplitude alone fits n_max 26; the pair's combined amplitude
        # sqrt(8) does not, and the beamsplitter truncates by total occupation
        code, _, err = run(["swap", "--a1", "2@0", "--a2", "2@1", "--nmax", "26"], capsys)
        assert code == 1
        assert "cutoff inadequate" in err
        code, _, err = run(["swap", "--a1", "2@0", "--a2", "2@1", "--nmax", "35"], capsys)
        assert code == 0
        assert err == ""

    def test_csv_output(self, capsys):
        code, out, _ = run(["swap", "--a1", "0.5,0", "--a2", "0,0.5", "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "protocol,fidelity,mean_occupation_1,mean_occupation_2,passed"


class TestCloneCommand:
    def test_basic_clone(self, capsys):
        code, out, _ = run(["clone", "--alpha", "1,0"], capsys)
        assert code == 0
        body = json.loads(out)
        n1, n2 = body["mean_occupations"]
        assert abs(n1 - 0.5) < 1e-6 and abs(n2 - 0.5) < 1e-6

    def test_zero_clone(self, capsys):
        code, _, _ = run(["clone", "--alpha", "0,0", "--nmax", "12"], capsys)
        assert code == 0


class TestSweepCommand:
    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(["sweep", "--check", "nope", "--values", "0.1"], capsys)
        assert code == 2
        assert "unknown check" in err

    def test_non_finite_value_is_usage_error(self, capsys):
        code, out, err = run(["sweep", "--check", "check_J_rotation", "--values", "0.2,nan"], capsys)
        assert code == 2
        assert out == ""
        assert "'nan'" in err

    def test_non_numeric_value_names_flag(self, capsys):
        code, out, err = run(["sweep", "--check", "check_J_rotation", "--values", "0.2,abc"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --values must be finite numbers, got 'abc'\n"

    def test_amplitude_past_float_resolution_is_config_error(self, capsys):
        # the su(2) chain phases lose |t| max|mu| eps: at 1e12 the residual means nothing
        argv = ["sweep", "--check", "check_J_rotation", "--values", "1e12"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "a float cannot resolve the chain phases" in err

    def test_obstruction_past_float_resolution_is_config_error(self, capsys):
        # 1e6 runs; at 1e15 the su(2) chain phases stop the sweep and no body is printed
        argv = ["sweep", "--check", "squeezed_swap_obstruction", "--values", "1e6,1e15"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "a float cannot resolve the chain phases" in err

    def test_large_amplitude_within_float_resolution_runs(self, capsys):
        argv = ["sweep", "--check", "check_J_rotation", "--values", "1e5,1e6", "--format", "csv"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out.count("True") == 2

    @pytest.mark.parametrize("check", FORMULA_CHECKS + PROTOCOL_CHECKS, ids=lambda c: c.name)
    def test_registry_columns_match_reports(self, check):
        # a misspelled column would print as a silent nan in the CSV
        for value in (0.0, 0.3):
            report = check.run(check.sweep(value), RunConfig())
            assert tuple(report.residuals) == check.residuals
            assert tuple(report.fidelities) == check.fidelities

    def test_sweep_calls_the_current_module_binding(self, capsys, monkeypatch):
        # wrappers installed by rebinding fockforge.cli attributes must see every call
        calls = []
        original = fockforge.cli.check_SSS_commute

        def recording(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fockforge.cli, "check_SSS_commute", recording)
        code, _, _ = run(["sweep", "--check", "check_SSS_commute", "--values", "0.1,0.2"], capsys)
        assert code == 0
        assert [args[0].modulus for args in calls] == [0.1, 0.2]

    def test_other_warnings_are_issued_again(self, capsys, monkeypatch):
        real = fockforge.cli.check_SSS_commute
        argv = ["sweep", "--check", "check_SSS_commute", "--values", "0.3"]
        want_code, want_out, want_err = run(argv, capsys)

        def noisy(*args, **kwargs):
            warnings.warn("stand-in numerical warning", RuntimeWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(fockforge.cli, "check_SSS_commute", noisy)
        with pytest.warns(RuntimeWarning, match="stand-in numerical warning"):
            code, out, err = run(argv, capsys)
        assert (code, out, err) == (want_code, want_out, want_err)

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--check", "check_SSS_commute", "--values", "0.3"], ["verify-all"]],
        ids=["sweep", "verify-all"],
    )
    def test_nan_residual_gives_strict_json_and_fails(self, argv, capsys, monkeypatch):
        real = fockforge.cli.check_SSS_commute

        def nan_residual(*args, **kwargs):
            rep = real(*args, **kwargs)
            residuals = {key: math.nan for key in rep.residuals}
            return make_report(rep.name, rep.params, rep.cutoff, rep.margin, residuals,
                               rep.fidelities, rep.tolerance)

        def refuse(token):
            raise ValueError(f"bare {token} token")

        monkeypatch.setattr(fockforge.cli, "check_SSS_commute", nan_residual)
        code, out, _ = run(argv, capsys)
        assert code == 1
        body = json.loads(out, parse_constant=refuse)
        patched = [r for r in body["reports"] if r["name"] == "check_SSS_commute"]
        assert patched
        for report in patched:
            assert report["passed"] is False
            assert report["residuals"]["commutator"] == "NaN"

    def test_json_text_spells_out_non_finite_floats(self):
        body = {"b": [1.5, -0.0, 1e-300], "a": {"x": (2, 3.25)}, "c": "NaN"}
        assert _json_text(body) == json.dumps(body, indent=2, sort_keys=True) + "\n"
        text = _json_text({"v": [math.nan, math.inf, -math.inf]})
        assert json.loads(text) == {"v": ["NaN", "Infinity", "-Infinity"]}

    def test_sweep_prints_each_distinct_warning_once(self, capsys):
        argv = ["sweep", "--check", "check_phase_formula", "--values", "0.3,0.4", "--nmax", "6"]
        code, _, err = run(argv, capsys)
        assert code == 1
        tail = "|alpha|=1 leaves Poisson tail 8.32e-05 above n_max=6"
        assert err.splitlines() == [
            f"warning: cutoff inadequate for phase-rotated displacement: {tail}",
        ]

    def test_empty_grid_header_only(self, capsys):
        code, out, _ = run(
            ["sweep", "--check", "check_J_rotation", "--values", "", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines == [
            "check,value,a1_conjugation,a2_conjugation,su2_unitarity,su2_determinant,passed"
        ]

    def test_j_rotation_grid(self, capsys):
        code, out, _ = run(
            [
                "sweep",
                "--check",
                "check_J_rotation",
                "--values",
                "0.2,0.8,1.4",
                "--format",
                "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.endswith("True")

    def test_clone_sweep_json(self, capsys):
        code, out, _ = run(
            ["sweep", "--check", "imperfect_clone", "--values", "0.25,1.0"],
            capsys,
        )
        assert code == 0
        body = json.loads(out)
        assert body["check"] == "imperfect_clone"
        assert len(body["reports"]) == 2
        for rep in body["reports"]:
            assert rep["fidelities"]["clone"] >= 1 - 1e-6


class TestEnvironmentOverride:
    def test_env_nmax_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("FOCKFORGE_NMAX", "6")
        code, _, err = run(["swap", "--a1", "2,0", "--a2", "0,0"], capsys)
        assert code == 1
        assert "cutoff inadequate" in err

    def test_env_nmax_below_one_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FOCKFORGE_NMAX", "0")
        code, out, err = run(["verify-all"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: FOCKFORGE_NMAX must be >= 1, got 0\n"

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FOCKFORGE_NMAX", "4")
        code, _, _ = run(["swap", "--a1", "0.4,0", "--a2", "0,0.4", "--nmax", "24"], capsys)
        assert code == 0


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(
            ["swap", "--a1", "0.5,0", "--a2", "0,0.5", "--out", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        body = json.loads(path.read_text())
        assert body["report"]["name"] == "full_swap"

    def test_report_json_schema(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        code, _, _ = run(
            [
                "sweep",
                "--check",
                "check_phase_formula",
                "--values",
                "0.4",
                "--out",
                str(path),
            ],
            capsys,
        )
        assert code == 0
        body = json.loads(path.read_text())
        rep = body["reports"][0]
        assert set(rep) == {
            "value",
            "name",
            "params",
            "n_max",
            "margin",
            "residuals",
            "fidelities",
            "tolerance",
            "passed",
        }


    @pytest.mark.parametrize(
        "argv",
        [
            ["swap", "--a1", "0.5,0", "--a2", "0,0.5"],
            ["sweep", "--check", "check_J_rotation", "--values", ""],
        ],
        ids=["swap", "sweep"],
    )
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_out_is_config_error(self, argv, target, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
        code, out, err = run([*argv, "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: cannot write --out")
        assert repr(str(path)) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_out_fails_before_any_check(self, target, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            fockforge.cli, "_formulas_reports", lambda *args: calls.append(args) or []
        )
        path = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
        code, out, err = run(["verify-all", "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write --out {str(path)!r}: ")
        assert calls == []
        assert list(tmp_path.iterdir()) == []


def _json_rows(command, body) -> list[dict]:
    """Per CSV row, the columns that the command's JSON body also carries."""
    if command == "verify-all":
        return [{k: r[k] for k in ("name", "passed", "n_max", "margin")} for r in body["reports"]]
    if command == "sweep":
        return [
            {"check": body["check"], "value": r["value"], **r["residuals"], **r["fidelities"],
             "passed": r["passed"]}
            for r in body["reports"]
        ]
    n1, n2 = body["mean_occupations"]
    return [{"protocol": body["report"]["name"], "fidelity": body["fidelity"],
             "mean_occupation_1": n1, "mean_occupation_2": n2,
             "passed": body["report"]["passed"]}]


class TestCsvBody:
    @pytest.mark.parametrize(
        "argv, csv_only",
        [
            (["verify-all", "--seed", "7"], {"worst_residual", "worst_fidelity_deficit"}),
            (["swap", "--a1", "1,0", "--a2", "0,1"], set()),
            (["clone", "--alpha", "1,0"], set()),
            (["sweep", "--check", "check_SDS", "--values", "0.2,0.5"], set()),
        ],
        ids=["verify-all", "swap", "clone", "sweep"],
    )
    def test_csv_cells_equal_json_values(self, argv, csv_only, capsys):
        code, out, _ = run(argv, capsys)
        assert code == 0
        expected = _json_rows(argv[0], json.loads(out))
        code, out, _ = run([*argv, "--format", "csv"], capsys)
        assert code == 0
        header, *lines = out.splitlines()
        columns = header.split(",")
        rows = [dict(zip(columns, line.split(","))) for line in lines]
        assert len(rows) == len(expected)
        for row, carried in zip(rows, expected):
            assert set(row) - set(carried) == csv_only
            for column, value in carried.items():
                # json.dumps writes a float as its repr
                cell = repr(value) if isinstance(value, float) else str(value)
                assert row[column] == cell, column


class TestDeterminism:
    def test_identical_sweep_bodies(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                [
                    "sweep",
                    "--check",
                    "imperfect_clone",
                    "--values",
                    "0.5,1.5",
                    "--format",
                    "csv",
                    "--seed",
                    "11",
                    "--out",
                    str(path),
                ],
                capsys,
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("7", "b3bf9fe3748b2e9f6d05d7eb4b8e8b85154154d7d1c6256db116e15092f66264"),
            ("11", "1f2265dea3dd86e031bbf62062bbc57fb86ab7d1f9dae71a321b7aa41de5e959"),
        ],
    )
    def test_verify_all_draw_order(self, seed, digest, capsys):
        # params come from the rng alone, so numerical changes leave these digests alone
        code, out, _ = run(["verify-all", "--seed", seed], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 43
        drawn = json.dumps([[r["name"], r["params"], r["n_max"], r["margin"]] for r in reports])
        assert hashlib.sha256(drawn.encode()).hexdigest() == digest


# Runs commands in a fresh interpreter where any import of scipy, or of one of
# its submodules, raises ImportError; prints their exit codes and whether any
# scipy module got loaded.
NO_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from fockforge.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_commands_run_without_scipy(capsys):
    # numpy is the only runtime dependency: every command exits as it does here
    commands = [
        ["verify-all", "--seed", "7"],
        ["swap", "--a1", "1.2,0.3", "--a2", "0.4@1.0"],
        ["clone", "--alpha", "0.9,-0.2"],
        ["sweep", "--check", "check_squeeze_conjugation", "--values", "0.8", "--nmax", "16",
         "--margin", "2"],  # fails its tolerance: exit 1
        ["swap", "--a1", "1e20,0", "--a2", "0,1"],  # no float resolves the chain phases: exit 2
    ]
    commands += [
        ["sweep", "--check", c.name, "--values", "0.3,0.6"] for c in FORMULA_CHECKS + PROTOCOL_CHECKS
    ]
    want = []
    for argv in commands:
        want.append(main(argv))
        capsys.readouterr()
    src = Path(fockforge.cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, json.dumps(commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": want, "loaded": []}
