import json

import numpy as np
import pytest

from entpot import cli
from entpot.cli import run
from entpot.ket_parser import eval_ket, format_ket, parse_ket
from entpot.qstate import random_state


def test_check_hs_exit_zero(capsys):
    assert run(["check", "--state", "hs/omega"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("MMES: yes")


def test_check_eq9_exit_one(capsys):
    assert run(["check", "--state", "eq9/uniform"]) == 1
    assert capsys.readouterr().out.startswith("MMES: no")


def test_check_exit_code_independent_of_format():
    assert run(["check", "--state", "eq9/uniform", "--format", "json"]) == 1
    assert run(["check", "--state", "hs/omega", "--format", "json"]) == 0


def test_analyze_yc_signs_json(capsys):
    assert run(["analyze", "--state", "yc/signs", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["purities"]["12"] - 0.25) < 1e-12
    assert abs(data["purities"]["13"] - 0.25) < 1e-12
    assert abs(data["purities"]["14"] - 0.5) < 1e-12
    assert data["verdict"] == "mmes"


def test_text_and_json_numbers_agree(capsys):
    assert run(["analyze", "--state", "eq13/uniform"]) == 0
    text = capsys.readouterr().out
    assert run(["analyze", "--state", "eq13/uniform", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for line in text.splitlines():
        if line.startswith("pi_ME"):
            assert line.split("=")[1].strip() == f"{data['pi_me']:.12g}"
        if line.startswith("K ="):
            assert line.split("=")[1].strip() == f"{data['k_total']:.12g}"


def test_analyze_expr_and_renormalize(capsys):
    assert run(["analyze", "--expr", "|00>+|11>"]) == 2
    assert run(["analyze", "--expr", "|00>+|11>", "--renormalize"]) == 0
    out = capsys.readouterr().out
    assert "pi_ME = 0.5" in out


def test_parse_expr_json(capsys):
    expr = "(|0011>+|1100>+w*(|0101>+|1010>)+w*w*(|0110>+|1001>))/sqrt(6)"
    assert run(["parse", "--expr", expr, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    assert abs(amps[3] - 1 / np.sqrt(6)) < 1e-15


def test_parse_error_has_span_and_exit_two(capsys):
    assert run(["parse", "--expr", "|01>+|0011>"]) == 2
    err = capsys.readouterr().err
    assert "width" in err and "at 5..11" in err


def test_states_listing(capsys):
    assert run(["states"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 11
    assert any(line.startswith("hs/omega") and "mmes" in line for line in lines)


def test_states_emit_round_trips(capsys):
    assert run(["states", "--state", "brown/phases"]) == 0
    expr = capsys.readouterr().out.strip()
    state = eval_ket(parse_ket(expr), "renormalize")
    expected = np.zeros(16, complex)
    expected[0] = expected[13] = 0.5
    expected[3] = expected[14] = 1 / (2 * np.sqrt(2))
    expected[6] = expected[11] = 1j / (2 * np.sqrt(2))
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)


def test_minimize_json(capsys, tmp_path):
    trace_path = tmp_path / "t.csv"
    assert run([
        "minimize", "--n", "2", "--restarts", "3", "--seed", "11",
        "--format", "json", "--trace-csv", str(trace_path),
    ]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["best_value"] - 0.5) < 1e-9
    assert data["seed"] == 11
    assert data["method"] == "projected_gradient"
    assert len(data["converged"]) == 3
    assert trace_path.exists()
    state = eval_ket(parse_ket(data["expr"]), "renormalize")
    assert state.n_qubits == 2


def test_state_files(tmp_path, capsys):
    json_path = tmp_path / "bell.json"
    json_path.write_text(json.dumps({
        "n": 2,
        "amplitudes": [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]],
    }))
    assert run(["analyze", "--file", str(json_path)]) == 0
    assert "pi_ME = 0.5" in capsys.readouterr().out

    ket_path = tmp_path / "bell.ket"
    ket_path.write_text("# comment line\n(|00>+|11>)/sqrt(2)\n")
    assert run(["analyze", "--file", str(ket_path)]) == 0
    assert "pi_ME = 0.5" in capsys.readouterr().out


def test_formatted_ten_qubit_state_file(tmp_path, capsys):
    """format_ket of a generic state lists all 1024 terms; both commands read it back."""
    state = random_state(10, np.random.default_rng(10))
    path = tmp_path / "s10.ket"
    path.write_text(format_ket(state) + "\n")
    assert run(["parse", "--file", str(path), "--format", "json"]) == 0
    captured = capsys.readouterr()
    amps = np.array([complex(re, im) for re, im in json.loads(captured.out)["amplitudes"]])
    assert np.max(np.abs(amps - state.amplitudes)) < 1e-12
    assert run(["analyze", "--file", str(path)]) == 0
    captured = capsys.readouterr()
    assert "pi_ME = " in captured.out
    assert "Traceback" not in captured.err


def test_boolean_json_amplitudes_exit_two(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"n": 1, "amplitudes": [[true, false], [false, false]]}')
    assert run(["analyze", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("entpot:") and "true or false" in captured.err


def test_unsupported_extension(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text("|00>")
    assert run(["analyze", "--file", str(path)]) == 2
    assert "extension" in capsys.readouterr().err


def test_missing_file_exit_three(capsys):
    assert run(["analyze", "--file", "/nonexistent/state.json"]) == 3
    capsys.readouterr()


def test_catalog_miss_exit_two(capsys):
    assert run(["check", "--state", "nope/nada"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["analyze"],                                         # no input source
    ["analyze", "--state", "hs/omega", "--expr", "|0>"],  # two input sources
])
def test_usage_errors_exit_64(argv, capsys):
    assert run(argv) == 64
    capsys.readouterr()


def test_unknown_flag_exit_64(capsys):
    assert run(["analyze", "--state", "hs/omega", "--frobnicate"]) == 64
    capsys.readouterr()


def test_removed_method_flag_exit_64(capsys):
    assert run(["minimize", "--method", "projected_gradient"]) == 64
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_subcommand_exit_64(capsys):
    assert run(["explode"]) == 64
    capsys.readouterr()


def test_bad_minimize_config_exit_two(capsys):
    assert run(["minimize", "--n", "1"]) == 2
    capsys.readouterr()


def test_nan_json_amplitudes_exit_two(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 1, "amplitudes": [[NaN, 0], [0, 0]]}')
    assert run(["check", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("entpot:") and "finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exit_two(tol, capsys):
    assert run(["check", "--state", "hs/omega", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("entpot:") and "Traceback" not in captured.err


@pytest.mark.parametrize("name, data", [
    ("bad.ket", b"\xff\xfe|01>"),
    ("bad.json", b'{"n": 1, \xff}'),
], ids=["ket", "json"])
def test_non_utf8_state_file_exit_two(name, data, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(data)
    assert run(["analyze", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("entpot:") and "UTF-8" in err and "Traceback" not in err


def test_overflowing_expression_with_renormalize_exit_two(capsys):
    assert run(["analyze", "--expr", "exp(1000)*|00>+|11>", "--renormalize"]) == 2
    captured = capsys.readouterr()
    assert "pi_ME" not in captured.out
    assert captured.err.startswith("entpot:") and "finite" in captured.err


@pytest.mark.filterwarnings("error")
def test_subnormal_expression_with_renormalize_exit_zero(capsys):
    assert run(["analyze", "--expr", "1e-320*|01>+1e-320*|10>", "--renormalize"]) == 0
    captured = capsys.readouterr()
    assert "pi_ME = 0.5" in captured.out
    assert captured.err == ""


@pytest.mark.filterwarnings("error")
def test_subnormal_json_state_with_renormalize_exit_zero(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": [[0, 0], [1e-320, 0], [0, 1e-320], [0, 0]]}))
    assert run(["analyze", "--file", str(path), "--renormalize"]) == 0
    assert capsys.readouterr().err == ""


def test_boolean_qubit_count_in_json_exit_two(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"n": True, "amplitudes": [[1, 0], [0, 0]]}))
    assert run(["parse", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("entpot:") and "Traceback" not in err


def test_consecutive_runs_share_no_state(capsys):
    """run builds its parser once; calls in a row must not see each other."""
    assert run(["check", "--state", "hs/omega", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "mmes"
    assert captured.err == ""

    assert run(["check", "--expr", "|01>+|0011>", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("entpot:") and "width" in captured.err

    assert run(["analyze", "--state", "hs/omega", "--frobnicate"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and "--frobnicate" in captured.err

    assert run(["analyze", "--expr", "(|00>+|11>)/sqrt(2)", "--format", "json"]) == 0
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["n"] == 2 and abs(data["pi_me"] - 0.5) < 1e-12
    assert "k_total" not in data
    assert captured.err == ""


def test_minimize_json_reports_stop_reasons_and_evaluations(capsys):
    assert run(["minimize", "--n", "3", "--restarts", "4", "--seed", "5",
                "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["stop_reasons"]) == len(data["evaluations"]) == 4
    assert set(data["stop_reasons"]) <= {"grad_tol", "step_tol", "ftol", "max_iters"}
    assert data["converged"] == [r != "max_iters" for r in data["stop_reasons"]]
    assert all(isinstance(e, int) and e >= 1 for e in data["evaluations"])


@pytest.mark.parametrize("argv", [
    ["analyze", "--expr", "|" + "0" * 15 + ">"],
    ["minimize", "--n", "15"],
    ["minimize", "--n", "40"],
    ["minimize", "--n", "11"],
])
def test_too_many_qubits_exit_two(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    # analyze takes up to qstate.MAX_QUBITS, the minimizer up to its cached index
    limit = "2..10" if argv[0] == "minimize" else "14"
    assert err.startswith("entpot:") and limit in err and "Traceback" not in err
    if argv[0] == "minimize":
        assert "analyze or pi_me" in err


def test_too_many_qubits_json_file_exit_two(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"n": 15, "amplitudes": []}')
    assert run(["analyze", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("entpot:") and "limit of 14" in err


def test_memory_error_exit_two(monkeypatch, capsys):
    def exhausted(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 256 GiB")

    monkeypatch.setattr(cli, "analyze", exhausted)
    assert run(["analyze", "--state", "hs/omega"]) == 2
    err = capsys.readouterr().err
    assert err == "entpot: out of memory: Unable to allocate 256 GiB\n"


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--expr=--"], 2),          # '--' is the expression, a syntax error
    (["minimize", "--n=--"], 64),           # and not an integer
])
def test_double_dash_option_value(argv, code, capsys):
    assert run(argv) == code
    assert "Traceback" not in capsys.readouterr().err


BELL = "(|00>+|11>)/sqrt(2)"


def test_check_bell_state_not_claimed_text(capsys):
    """No lower bound is registered at n = 2, so check makes no claim either way."""
    assert run(["check", "--expr", BELL]) == cli.EXIT_NOT_CLAIMED == 4
    out = capsys.readouterr().out
    assert out.startswith("MMES: unclaimed (")
    assert "no known pi_ME lower bound for n=2; verdict not claimed" in out
    assert "MMES: no" not in out


def test_check_bell_state_not_claimed_json(capsys):
    assert run(["check", "--expr", BELL, "--format", "json"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "not_claimed"
    assert abs(data["pi_me"] - 0.5) < 1e-12
    assert "n=2" in data["note"]


def test_check_three_qubit_state_not_claimed(tmp_path, capsys):
    state = random_state(3, np.random.default_rng(83))
    path = tmp_path / "three.ket"
    path.write_text(format_ket(state, precision=17))
    assert run(["check", "--file", str(path)]) == 4
    out = capsys.readouterr().out
    assert out.startswith("MMES: unclaimed (") and "n=3" in out
    assert run(["check", "--file", str(path), "--format", "json"]) == 4
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 3 and data["verdict"] == "not_claimed" and "n=3" in data["note"]


def test_analyze_bell_state_reports_not_claimed_with_exit_zero(capsys):
    assert run(["analyze", "--expr", BELL]) == 0
    out = capsys.readouterr().out
    assert "verdict: not_claimed" in out and "note: no known pi_ME lower bound" in out
