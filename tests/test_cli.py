import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qldp
from qldp import cli, errors
from qldp.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REGIME,
    EXIT_USAGE,
    EXIT_VIOLATED,
    load_kraus_file,
    main,
    parse_observable,
    parse_state,
)
from qldp.errors import ChannelParseError, InvalidInputError, QldpError
from test_pauli import pauli_labels
from test_privacy import bench_false_satisfied_member
from qldp.utility import optimal_fidelity_utility
from qldp.privacy import PrivacyBudget, depolarizing_privacy_profile


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_utility_curve_outputs(tmp_path):
    out = tmp_path / "curve"
    rc = main(["utility-curve", "--d", "10", "--deltas", "0,0.1,0.3",
               "--eps-start", "0", "--eps-stop", "5", "--eps-points", "11",
               "--output-dir", str(out)])
    assert rc == EXIT_OK
    header, rows = read_csv(out / "utility_curve.csv")
    assert header == ["epsilon", "delta", "optimal_fidelity", "optimal_trace"]
    assert len(rows) == 33
    # values are the exact closed forms at 12 significant digits
    for eps_s, delta_s, f_s, t_s in rows:
        b = PrivacyBudget(float(eps_s), float(delta_s))
        assert float(f_s) == pytest.approx(optimal_fidelity_utility(10, b), abs=1e-11)
        assert abs(float(f_s) + float(t_s) - 1.0) < 1e-10
    # monotone in epsilon for each delta
    for delta in ("0", "0.1", "0.3"):
        fids = [float(r[2]) for r in rows if r[1] == delta]
        assert fids == sorted(fids)
    assert (out / "utility_curve_dims.csv").exists()
    assert (out / "fig_optimal_fidelity_by_delta.svg").read_text().startswith("<svg")
    assert (out / "fig_optimal_fidelity_by_dimension.svg").exists()


def test_utility_curve_dimension_ordering(tmp_path):
    out = tmp_path / "curve"
    rc = main(["utility-curve", "--dims", "2,10,100", "--delta-fixed", "0.1",
               "--eps-points", "5", "--output-dir", str(out)])
    assert rc == EXIT_OK
    _, rows = read_csv(out / "utility_curve_dims.csv")
    by_dim = {d: [float(r[2]) for r in rows if r[1] == d] for d in ("2", "10", "100")}
    for small, large in (("2", "10"), ("10", "100")):
        assert all(a >= b - 1e-15 for a, b in zip(by_dim[small], by_dim[large]))


def test_utility_curve_empty_grid_writes_nothing(tmp_path):
    out = tmp_path / "nothing"
    rc = main(["utility-curve", "--eps-points", "0", "--output-dir", str(out)])
    assert rc == EXIT_USAGE
    assert not out.exists()


def test_certify_full_depolarizing(capsys):
    rc = main(["certify", "--channel", "depolarizing 2 1.0", "--epsilon", "0.5"])
    assert rc == EXIT_OK
    assert "SATISFIED" in capsys.readouterr().out


def test_certify_undershooting_channel(capsys):
    rc = main(["certify", "--channel", "depolarizing 2 0.4",
               "--epsilon", str(math.log(3)), "--delta", "0",
               "--restarts", "16", "--local-steps", "60"])
    assert rc == EXIT_VIOLATED
    assert "VIOLATED" in capsys.readouterr().out


def test_certify_boundary_case(capsys):
    rc = main(["certify", "--channel", "depolarizing 4 0.4",
               "--epsilon", str(math.log(2)), "--delta", "0.5",
               "--restarts", "16", "--local-steps", "60"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "SATISFIED" in out and "borderline" in out


def test_certify_prints_no_satisfied_from_a_lower_bound(tmp_path, capsys):
    # the seesaw's value is a lower bound: at seeds 2 and 3 it stays under delta, but seed 0's
    # witness reaches 0.999923 > delta, so no seed may print SATISFIED
    path = tmp_path / "member.txt"
    kraus = bench_false_satisfied_member().kraus
    lines = [f"dims {kraus.shape[1]} {kraus.shape[2]}"]
    for op in kraus:
        lines += ["kraus"] + [" ".join(repr(complex(x)) for x in row) for row in op]
    path.write_text("\n".join(lines) + "\n")
    for seed, code in [(0, EXIT_VIOLATED), (1, EXIT_VIOLATED), (2, EXIT_INCONCLUSIVE),
                       (3, EXIT_INCONCLUSIVE), (4, EXIT_VIOLATED)]:
        rc = main(["certify", "--channel", f"file:{path}", "--epsilon", "1", "--delta", "0.9995",
                   "--seed", str(seed)])
        out = capsys.readouterr().out
        assert rc == code and "SATISFIED" not in out, (seed, out)
        assert "witness phi1 =" in out and "witness phi2 =" in out
        verdict = "VIOLATED" if code == EXIT_VIOLATED else "INCONCLUSIVE (lower bound only)"
        assert out.endswith(f"verdict: {verdict}\n")


def test_certify_kraus_file(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    s = 1 / math.sqrt(2)
    path.write_text(
        "# amplitude-symmetric pair\n"
        "dims 2 2\n"
        "kraus\n"
        f"{s} 0\n0 {s}\n"
        "kraus\n"
        f"0 {s}\n{s} 0\n"
    )
    rc = main(["certify", "--channel", f"file:{path}", "--epsilon", "1",
               "--restarts", "8", "--local-steps", "40"])
    assert rc in (EXIT_OK, EXIT_VIOLATED)  # parses and certifies
    assert "sup_estimate" in capsys.readouterr().out


def test_kraus_file_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dims 2 2\nkraus\n1 0\n0 oops\n")
    with pytest.raises(ChannelParseError, match="line 4") as exc:
        load_kraus_file(str(path))
    assert exc.value.path == str(path) and exc.value.line == 4


def test_kraus_file_requires_dims_header(tmp_path):
    path = tmp_path / "bad2.txt"
    path.write_text("kraus\n1 0\n0 1\n")
    with pytest.raises(ChannelParseError, match="line 1"):
        load_kraus_file(str(path))


_CERTIFY = ["certify", "--channel"]
_ESTIMATE = ["estimate", "--trials", "1", "--observable"]


@pytest.mark.parametrize("argv, text, message", [
    (_CERTIFY, "dims 2 2\nkraus\n1 0\n0 oops\n", "{path}: line 4: bad complex literal"),
    (_ESTIMATE, "# header\n1 0\n\n0 oops\n", "{path}: line 4: bad complex literal"),
    (_CERTIFY, "# nothing but a comment\n", "{path}: line 1: empty channel file"),
    (_CERTIFY, "dims 2 two\nkraus\n1 0\n0 1\n", "{path}: line 1: bad dimensions in 'dims 2 two'"),
    (_CERTIFY, "dims 2 2\nkraus\n1 0\n0 1\nkrause\n", "{path}: line 5: expected 'kraus', got 'krause'"),
    (_CERTIFY, "dims 2 2\nkraus\n1 0\n", "{path}: line 2: kraus block needs 2 rows"),
    (_CERTIFY, "dims 2 2\n", "{path}: line 1: no kraus blocks found"),
    (_CERTIFY, "dims 2 2\nkraus\n1 0\n0 0.5\n", "{path}: line 1: Kraus set is not trace preserving"),
    (_ESTIMATE, "1 0 0\n0 1 0\n0 0 -1\n", "observable dimension 3 is not a power of two"),
], ids=["channel", "observable", "empty", "dims-not-integer", "not-kraus", "short-block", "no-blocks",
        "not-trace-preserving", "observable-3x3"])
def test_file_parse_errors_name_the_file_and_line(tmp_path, capsys, argv, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    rc = main(argv + [f"file:{path}"] + (["--output-dir", str(tmp_path / "out")] if argv[0] == "estimate" else []))
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.count("\n") == 1 and err.startswith("error: " + message.format(path=path))


@pytest.mark.parametrize("spec, field", [("depolarizing 2 x", "P: could not convert string to float: 'x'"),
                                         ("depolarizing x 0.5", "D: invalid literal for int() with base 10: 'x'"),
                                         ("depolarizing 2.5 0.5", "D: invalid literal for int() with base 10: '2.5'")])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_malformed_depolarizing_spec_names_the_spec_and_field(tmp_path, capsys, spec, field, route):
    if route == "flag":
        argv = ["certify", "--channel", spec]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"channel = {spec}\n")
        argv = ["certify", "--config", str(cfg)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: channel spec {spec!r}: {field}\n"


def test_estimate_command_runs_and_is_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["estimate", "--observable", "Z", "--state", "zero",
            "--epsilon", "1", "--beta", "0.1", "--eta", "0.05",
            "--trials", "60", "--seed", "7"]
    rc = main(args + ["--output-dir", str(out1)])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "n_upper = 3455" in text
    assert "coverage" in text
    rc = main(args + ["--output-dir", str(out2)])
    assert rc == EXIT_OK
    assert (out1 / "estimate_trials.csv").read_bytes() == (out2 / "estimate_trials.csv").read_bytes()


def test_estimate_flags_unavailable_lower_bound(tmp_path, capsys):
    rc = main(["estimate", "--observable", "Z", "--beta", "0.6", "--eta", "0.05",
               "--trials", "30", "--n", "400", "--output-dir", str(tmp_path / "c")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "unavailable" in text
    assert "n_upper" in text


def test_estimate_infeasible_budget_exits_3(tmp_path):
    rc = main(["estimate", "--epsilon", "0", "--delta", "0",
               "--output-dir", str(tmp_path / "d")])
    assert rc == EXIT_REGIME
    assert not (tmp_path / "d").exists()


def test_shadows_command_reports_clamped_p_hat(tmp_path, capsys):
    rc = main(["shadows", "--m", "1", "--observable", "Z", "--epsilon", "1",
               "--beta", "0.4", "--eta", "0.2", "--trials", "40",
               "--output-dir", str(tmp_path / "s")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "p_hat = 0 " in text or "p_hat = 0\n" in text.replace("   ", "\n")


def test_shadows_command_high_privacy_p_hat(tmp_path, capsys):
    rc = main(["shadows", "--m", "1", "--epsilon", "0.1", "--beta", "1.2",
               "--eta", "0.2", "--trials", "30", "--output-dir", str(tmp_path / "s2")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "p_hat = 0.8501" in text


def test_shadows_infeasible_exits_3(tmp_path):
    rc = main(["shadows", "--epsilon", "0", "--delta", "0",
               "--output-dir", str(tmp_path / "s3")])
    assert rc == EXIT_REGIME


@pytest.mark.parametrize("m, label, beta", [(3, "ZIZ:-1", "9"), (4, "XIZY", "17")])
def test_shadows_command_runs_at_three_and_four_qubits(tmp_path, capsys, m, label, beta):
    out = tmp_path / f"m{m}"
    rc = main(["shadows", "--m", str(m), "--observable", label, "--state", "random-pure",
               "--beta", beta, "--eta", "0.5", "--trials", "30", "--seed", "5",
               "--output-dir", str(out)])
    assert rc == EXIT_OK
    header, rows = read_csv(out / "shadow_trials.csv")
    assert len(rows) == 30
    assert "coverage = " in capsys.readouterr().out


def test_shadows_command_lifts_the_qubit_cap_for_one_pauli_term(tmp_path, capsys):
    out = tmp_path / "m8"
    rc = main(["shadows", "--m", "8", "--observable", "ZZZZZZZZ", "--state", "random-pure",
               "--output-dir", str(out)])
    assert rc == EXIT_OK
    header, rows = read_csv(out / "shadow_trials.csv")
    assert len(rows) == 500
    assert "coverage = " in capsys.readouterr().out
    rc = main(["shadows", "--m", "5", "--observable", "ZZZZZ,XIIII", "--trials", "3",
               "--output-dir", str(tmp_path / "m5")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.count("\n") == 1 and "more than one non-identity Pauli term" in err
    assert "m in 1..4" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag", [("estimate", "--trials"), ("shadows", "--trials"),
                                           ("estimate", "--n"), ("shadows", "--ell")])
def test_zero_count_is_a_usage_error(tmp_path, command, flag):
    rc = main([command, flag, "0", "--output-dir", str(tmp_path / "t")])
    assert rc == EXIT_USAGE
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, option", [
    ("utility-curve", "dims"), ("utility-curve", "deltas"), ("bounds", "eps_list"),
    ("bounds", "beta_list"), ("cost-report", "m_list"),
])
def test_empty_list_option_is_a_usage_error(tmp_path, capsys, command, option, via):
    # utility-curve wrote 3 files before failing, bounds raised a TypeError
    # (exit 1), and cost-report wrote an empty table with exit 0
    argv = [command, "--output-dir", str(tmp_path / "out")]
    if via == "flag":
        argv += [f"--{option.replace('_', '-')}", ","]
    else:
        (tmp_path / "run.cfg").write_text(f"{option} = ,\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_observable_file_without_rows_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "obs.txt"
    path.write_text(text)
    rc = main(["estimate", "--observable", f"file:{path}", "--output-dir", str(tmp_path / "e")])
    assert rc == EXIT_USAGE
    assert "no matrix rows" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_certify_rejects_non_finite_epsilon(capsys, epsilon):
    rc = main(["certify", "--epsilon", epsilon])
    assert rc == EXIT_USAGE
    assert "epsilon" in capsys.readouterr().err


def test_cost_report_values(capsys, tmp_path):
    rc = main(["cost-report", "--m-list", "1,3", "--output-dir", str(tmp_path / "cost")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and ln.strip()[0].isdigit()]
    table = {int(row[0]): row for row in lines}
    assert table[1][1] == "3"       # 2m+1 bits
    assert table[3][1] == "7"
    assert table[3][2] == "64"      # d^2 complex entries
    header, rows = read_csv(tmp_path / "cost" / "cost_report.csv")
    assert header == ["m", "pauli_bits", "shadow_complex_entries", "shadow_bits"]


def test_bounds_table(capsys, tmp_path):
    rc = main(["bounds", "--observable", "Z", "--eps-list", "0.25,0.5,1",
               "--beta-list", "0.05,0.1", "--eta", "0.1",
               "--output-dir", str(tmp_path / "bounds")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "VIOLATED" not in text
    header, rows = read_csv(tmp_path / "bounds" / "bounds.csv")
    assert "lower_qht" in header and "upper_shadow" in header
    assert len(rows) == 6


def test_bounds_marks_out_of_regime_epsilon(capsys):
    rc = main(["bounds", "--eps-list", "2", "--beta-list", "0.1", "--eta", "0.1",
               "--output-dir", ""])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    assert "out-of-regime (eps > 1)" in text
    # the explicit-formula cell is still present for eps > 1
    row = [ln for ln in text.splitlines() if ln.startswith("2")][0]
    assert "out-of-regime (eps > 1)" in row


def test_config_file_and_cli_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nd = 4\neps_points = 3\ndeltas = 0\n")
    out = tmp_path / "cfgout"
    rc = main(["utility-curve", "--config", str(cfg), "--d", "6",
               "--output-dir", str(out)])
    assert rc == EXIT_OK
    _, rows = read_csv(out / "utility_curve.csv")
    assert len(rows) == 3  # eps_points from config
    b = PrivacyBudget(float(rows[0][0]), 0.0)
    assert float(rows[0][2]) == pytest.approx(optimal_fidelity_utility(6, b), abs=1e-11)  # d from CLI


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    base = ["estimate", "--trials", "30", "--output-dir", str(tmp_path / "e")]
    assert main(base + ["--n", "5"]) in (EXIT_OK, EXIT_VIOLATED)
    assert "n_used = 5\n" in capsys.readouterr().out
    main(base)
    text = capsys.readouterr().out
    n_upper = text.split("n_upper = ")[1].split()[0]
    assert f"n_used = {n_upper}\n" in text and n_upper != "5"

    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 4\neps_points = 3\n")
    assert main(["utility-curve", "--config", str(cfg), "--output-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(["utility-curve", "--output-dir", str(tmp_path / "b")]) == EXIT_OK
    _, rows = read_csv(tmp_path / "b" / "utility_curve.csv")
    assert len(rows) == 3 * 51  # three default deltas on the default 51-point grid


@pytest.mark.parametrize("argv, name", [
    (["utility-curve", "--eps-points", "3"], "utility_curve.csv"),
    (["estimate", "--trials", "3"], "estimate_trials.csv"),
    (["shadows", "--trials", "3"], "shadow_trials.csv"),
    (["cost-report"], "cost_report.csv"),
    (["bounds"], "bounds.csv"),
])
def test_failed_output_write_is_a_one_line_usage_error(tmp_path, capsys, argv, name):
    (tmp_path / name).mkdir()  # a directory where the output file goes
    assert main([*argv, "--output-dir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / name}: ") and err.count("\n") == 1


def test_config_errors_name_the_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nd = 4\n\nbogus line  # trailing comment\n")
    assert main(["utility-curve", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{cfg}:4: expected 'key = value', got 'bogus line'" in err
    assert main(["utility-curve", "--config", str(tmp_path / "missing.cfg")]) == EXIT_USAGE
    assert f"cannot read {tmp_path / 'missing.cfg'}" in capsys.readouterr().err


@pytest.mark.parametrize("bits", ["-5", "0"])
def test_cost_report_rejects_non_positive_bits_per_complex(bits, capsys, tmp_path):
    rc = main(["cost-report", "--bits-per-complex", bits, "--output-dir", str(tmp_path / "cost")])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "bits per complex entry must be >= 1" in err
    assert not (tmp_path / "cost").exists()


@pytest.mark.skipif(sys.get_int_max_str_digits() != 4300, reason="needs the default integer print limit")
@pytest.mark.parametrize("m", ["7139", "100000000000000000"])
def test_cost_report_rejects_an_m_whose_entry_python_cannot_print(m, capsys, tmp_path):
    # 4^7139 * 128 has 4301 decimal digits, one past the default limit, and
    # 4^(10^17) is never built: the usage error names m before any output
    rc = main(["cost-report", "--m-list", f"1,{m}", "--output-dir", str(tmp_path / "cost")])
    assert rc == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and f"m = {m} makes shadow_bits" in err
    assert not (tmp_path / "cost").exists()


@pytest.mark.skipif(sys.get_int_max_str_digits() != 4300, reason="needs the default integer print limit")
def test_cost_report_prints_an_entry_of_the_longest_printable_length(capsys, tmp_path):
    assert main(["cost-report", "--m-list", "7138", "--output-dir", str(tmp_path)]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[0] == "7138" and row[3] == str(4**7138 * 128) and len(row[3]) == 4300


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    rc = main(["utility-curve", "--config", str(cfg)])
    assert rc == EXIT_USAGE


def test_parse_observable_forms(tmp_path):
    dec = parse_observable("Z")
    assert dec.weight == 1.0
    dec2 = parse_observable("Z:1.0,X:0.5")
    assert abs(dec2.weight - 1.5) < 1e-12
    path = tmp_path / "obs.txt"
    path.write_text("1 0\n0 -1\n")
    dec3 = parse_observable(f"file:{path}")
    assert np.abs(dec3.matrix - dec.matrix).max() < 1e-12


def test_parse_observable_builds_a_pauli_list_matrix_once(monkeypatch):
    calls = []
    pauli_sum = qldp.pauli.pauli_sum
    monkeypatch.setattr(qldp.pauli, "pauli_sum", lambda c, m: calls.append(m) or pauli_sum(c, m))
    dec = parse_observable("ZI:0.5,XX:-0.3")
    obs = dec.matrix
    assert calls == [2]
    assert obs is dec.matrix and not obs.flags.writeable
    x, z = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
    expected = 0.5 * np.kron(z, np.eye(2)) - 0.3 * np.kron(x, x)
    assert np.abs(obs - expected).max() < 1e-15


@pytest.mark.parametrize("argv, solves", [
    (["shadows", "--m", "6", "--observable", "ZZZZZZ", "--trials", "3"], 0),
    (["estimate", "--observable", "ZI:0.5,XX:-0.3", "--trials", "3", "--n", "50"], 1),
    (["bounds", "--observable", "ZI:0.5,XX:-0.3", "--eps-list", "0.25,0.5,1", "--beta-list", "0.05,0.1"], 1),
])
def test_each_command_solves_the_observable_spectrum_at_most_once(tmp_path, monkeypatch, capsys, argv, solves):
    # shadows never reads the spectrum; estimate and bounds read the cached one
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *rest: calls.append(a.shape) or eigvalsh(a, *rest))
    assert main(argv + ["--output-dir", str(tmp_path)]) in (EXIT_OK, EXIT_VIOLATED)
    assert len(calls) == solves, calls


@pytest.mark.parametrize("argv, sums, traces", [
    (["shadows", "--m", "6", "--observable", "ZZZZZZ", "--trials", "3"], 0, 2),
    (["estimate", "--observable", "ZI:0.5,XX:-0.3", "--trials", "3", "--n", "50"], 1, 0),
    (["bounds", "--observable", "ZI:0.5,XX:-0.3", "--eps-list", "0.5", "--beta-list", "0.1"], 1, 0),
])
def test_each_command_reads_the_observable_through_its_coefficients(tmp_path, monkeypatch, capsys,
                                                                    argv, sums, traces):
    # no command transforms a matrix: the state meets a Pauli string only in
    # pauli_trace.  A one-term observable builds no matrix: its true value and
    # its three-cell shadow law read one pauli_trace each.  Two terms need one
    # pauli_sum, for the true value or the spectrum
    calls = {"pauli_coefficients": [], "pauli_sum": [], "pauli_trace": []}
    for name, seen in calls.items():
        original = getattr(qldp.pauli, name)

        def spy(*args, original=original, seen=seen):
            seen.append(args[-1])
            return original(*args)
        for module in [mod for key, mod in sys.modules.items() if key.startswith("qldp")]:
            if getattr(module, name, None) is original:  # every module that binds the name
                monkeypatch.setattr(module, name, spy)
    assert main(argv + ["--output-dir", str(tmp_path)]) in (EXIT_OK, EXIT_VIOLATED)
    assert len(calls["pauli_coefficients"]) == 0, calls
    assert len(calls["pauli_sum"]) == sums, calls
    assert len(calls["pauli_trace"]) == traces, calls


def test_a_non_finite_spectrum_surfaces_in_the_lower_bound_lines(tmp_path, monkeypatch, capsys):
    # S is finite, so only the eigen-solve can give this; it is read in try blocks.  A
    # one-term observable solves nothing, so this one has two non-identity terms
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), np.nan))
    message = "observable has an eigenvalue that is not a finite float"
    assert main(["estimate", "--observable", "Z,X", "--trials", "3", "--n", "50",
                 "--output-dir", str(tmp_path)]) in (EXIT_OK, EXIT_VIOLATED)
    assert f"n_lower = unavailable ({message})" in capsys.readouterr().out
    assert main(["bounds", "--observable", "Z,X", "--eps-list", "0.5", "--beta-list", "0.1",
                 "--output-dir", str(tmp_path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "bounds.csv")
    for col in ("lower_qht", "lower_fidelity"):
        assert rows[0][header.index(col)] == f"out-of-regime ({message})"


def test_true_value_is_the_trace_of_the_product(tmp_path):
    rng = np.random.default_rng(26)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    path = tmp_path / "obs.txt"
    rows = (" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in g + g.conj().T)
    path.write_text("\n".join(rows))
    opts = {"trials": 1, "observable": f"file:{path}", "state": "random-pure", "seed": 4,
            "epsilon": 1.0, "delta": 0.0, "beta": 0.1, "eta": 0.05}
    _, rho, true_value, _, _ = cli._trial_inputs(opts)
    assert abs(true_value - np.trace((g + g.conj().T) @ rho).real) < 1e-12


def test_parse_state_forms():
    rng = np.random.default_rng(0)
    assert parse_state("zero", 2, rng)[0, 0] == 1.0
    assert np.abs(parse_state("mixed", 4, rng) - np.eye(4) / 4).max() < 1e-15
    rho = parse_state("random-pure", 2, rng)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10
    diag = parse_state("diag:0.8,0.2", 2, rng)
    assert np.abs(diag - np.diag([0.8, 0.2])).max() < 1e-15
    with pytest.raises(InvalidInputError):
        parse_state("diag:0.5,0.1", 2, rng)
    with pytest.raises(InvalidInputError):
        parse_state("squeezed", 2, rng)


@pytest.mark.parametrize("spec", ["diag:nan,1", "diag:inf,0"])
def test_non_finite_diag_state_is_a_usage_error(tmp_path, capsys, spec):
    rc = main(["estimate", "--state", spec, "--trials", "3", "--output-dir", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.count("\n") == 1 and spec in err and "non-finite" in err


@pytest.mark.parametrize("argv", [
    ["estimate", "--epsilon", "800", "--trials", "3"],
    ["shadows", "--epsilon", "800", "--trials", "3"],
    ["certify", "--epsilon", "800"],
    ["bounds", "--eps-list", "800"],
    ["shadows", "--beta", "1e-170", "--trials", "3"],
], ids=["estimate", "shadows", "certify", "bounds", "shadows-beta"])
def test_overflowing_budget_or_underflowing_beta_exits_3_with_one_line(capsys, argv):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and err.startswith("out of regime:")


def test_zero_weight_observable_exits_3_with_one_line(tmp_path, capsys):
    # the runner's zero-weight check raises DegenerateObservableError, a package error
    rc = main(["estimate", "--observable", "Z:0", "--n", "5", "--trials", "3",
               "--output-dir", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and err.startswith("out of regime:") and "zero Pauli weight" in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("command", ["estimate", "shadows"])
def test_zero_observable_at_the_computed_sample_size_exits_3_with_one_line(tmp_path, capsys, command):
    # a zero Tr[O^2] or Pauli weight once gave a sufficient size of 0, and the
    # runners' "n must be >= 1" usage error instead of the zero-weight line
    rc = main([command, "--observable", "Z:0", "--trials", "3", "--output-dir", str(tmp_path / "z")])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and err.startswith("out of regime:") and "zero Pauli weight" in err
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("argv", [
    ["estimate", "--beta", "1e200"],
    ["shadows", "--beta", "1e200"],
    ["bounds", "--beta-list", "1e155"],
    ["estimate", "--observable", "Z:1e155", "--beta", "1e154"],
    ["estimate", "--epsilon", "400"],
    ["bounds", "--eps-list", "400"],
], ids=["estimate-beta", "shadows-beta", "bounds-beta", "estimate-gap", "estimate-epsilon",
        "bounds-epsilon"])
def test_squares_past_the_float_range_give_no_traceback(tmp_path, capsys, argv):
    # beta^2, (lambda_max - lambda_min)^2 or (e^eps - 1)^2 overflows: a Python float's
    # ** raised OverflowError, a traceback with the "violated" exit code 1
    rc = main([*argv, "--output-dir", str(tmp_path / "b")])
    assert rc == EXIT_OK
    assert capsys.readouterr().err == ""


def test_overflowing_shadow_privacy_factor_exits_3_with_one_line(tmp_path, capsys):
    # eps = 0 and delta = 1e-300: ((e^eps + d - 1)/((e^eps - 1 + d delta)(d + 1)))^2 overflows
    rc = main(["shadows", "--epsilon", "0", "--delta", "1e-300", "--output-dir", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and "sample size overflows a float" in err


_PACKAGE_ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, QldpError)]


@pytest.mark.parametrize("cls", _PACKAGE_ERRORS, ids=lambda c: c.__name__)
def test_every_package_error_maps_to_a_documented_exit_code(monkeypatch, capsys, cls):
    def fail(opts):
        raise cls("ch.txt", 7, "boom") if cls is ChannelParseError else cls("boom")

    monkeypatch.setitem(cli._COMMANDS, "cost-report", fail)
    rc = main(["cost-report"])
    err = capsys.readouterr().err
    # a parse error is an invalid input: main maps every ValueError to the usage exit
    assert issubclass(ChannelParseError, InvalidInputError)
    assert rc == (EXIT_USAGE if issubclass(cls, InvalidInputError) else EXIT_REGIME)
    assert err.count("\n") == 1 and "boom" in err and "Traceback" not in err


def test_seed_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QLDP_SEED", "123")
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    base = ["estimate", "--trials", "20", "--n", "100", "--beta", "0.5"]
    assert main(base + ["--output-dir", str(out1)]) == EXIT_OK
    assert main(base + ["--output-dir", str(out2)]) == EXIT_OK
    assert (out1 / "estimate_trials.csv").read_bytes() == (out2 / "estimate_trials.csv").read_bytes()


@pytest.mark.parametrize("command, extra", [
    ("estimate", ["--trials", "3", "--n", "50"]),
    ("shadows", ["--trials", "3"]),
    ("bounds", []),
])
@pytest.mark.parametrize("observable, label", [
    ("Z:1,Z:-1", "Z"), ("Z,Z", "Z"), ("X:0.5, Z:1 ,X :0.5", "X"), ("ZI:1,XX,ZI", "ZI"),
])
def test_a_repeated_pauli_label_is_a_usage_error(tmp_path, capsys, command, extra, observable, label):
    # a dict keeps the last coefficient, so Z:1,Z:-1 would estimate -Z instead of the zero operator
    if command == "shadows" and len(label) == 2:
        extra = [*extra, "--m", "2"]
    rc = main([command, "--observable", observable, *extra, "--output-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert f"Pauli label {label!r} appears more than once" in err and "Traceback" not in err
    assert "true value" not in out and not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, extra", [
    ("certify", []),
    ("estimate", ["--trials", "3", "--n", "50"]),
    ("shadows", ["--trials", "3"]),
])
@pytest.mark.parametrize("flag, env, source", [
    (["--seed", "-1"], None, "--seed"),
    (["--seed", "1.5"], None, "--seed"),
    (["--seed", "abc"], None, "--seed"),
    ([], "-3", "QLDP_SEED"),
    ([], "abc", "QLDP_SEED"),
    ([], "", "QLDP_SEED"),
])
def test_a_negative_or_malformed_seed_is_a_usage_error_naming_its_source(
        tmp_path, monkeypatch, capsys, command, extra, flag, env, source):
    # certify of a depolarizing channel runs no search, so only the parser can catch it
    if env is not None:
        monkeypatch.setenv("QLDP_SEED", env)
    output = [] if command == "certify" else ["--output-dir", str(tmp_path)]
    rc = main([command, *flag, *extra, *output])
    out, err = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert f"{source}: must be a non-negative integer" in err and "Traceback" not in err
    assert out == ""


def test_a_seed_from_a_config_file_is_checked_as_the_flag_is(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -2\n")
    assert main(["certify", "--config", str(cfg)]) == EXIT_USAGE
    assert f"{cfg}: seed: must be a non-negative integer, got '-2'" in capsys.readouterr().err
    cfg.write_text("seed = 7\n")
    assert main(["certify", "--config", str(cfg)]) in (EXIT_OK, EXIT_VIOLATED)
    assert "sup_estimate" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--observable", "Z:inf"], "coefficient of 'Z' is not finite"),
    (["--observable", "Z:nan"], "coefficient of 'Z' is not finite"),
    (["--observable", "Z:1,X:-inf"], "coefficient of 'X' is not finite"),
    (["--beta", "nan"], "beta must be finite"),
    (["--beta", "inf"], "beta must be finite"),
    (["--eta", "nan"], "eta must be in (0, 1)"),
])
def test_estimate_rejects_non_finite_inputs(tmp_path, capsys, flags, message):
    rc = main(["estimate", *flags, "--trials", "3", "--output-dir", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--observable", "Z:1e200"], "sample size overflows a float"),
    (["estimate", "--observable", "Z:1e10", "--beta", "0.01"], "exceed the 2**63 - 1"),
    (["shadows", "--m", "1", "--observable", "Z:1e10", "--beta", "0.0001"],
     "exceed the 2**63 - 1"),
])
def test_sample_sizes_beyond_int64_are_out_of_regime(tmp_path, capsys, argv, message):
    rc = main([*argv, "--trials", "3", "--output-dir", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["estimate", "shadows", "bounds"])
def test_overflowing_sample_size_exits_3_with_one_line(tmp_path, capsys, command):
    rc = main([command, "--observable", "Z:1e200", "--output-dir", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and "sample size overflows a float" in err


@pytest.mark.parametrize("entry", ["nan", "inf", "nan+1j"])
def test_estimate_rejects_non_finite_observable_file(tmp_path, capsys, entry):
    path = tmp_path / "obs.txt"
    path.write_text(f"1 0\n0 {entry}\n")
    rc = main(["estimate", "--observable", f"file:{path}", "--trials", "3",
               "--output-dir", str(tmp_path / "e")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert str(path) in err and "non-finite" in err and "Traceback" not in err


def test_observable_file_comments_and_line_numbers(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("# Pauli Z\n1 0  # first row\n\n0 -1  # second row\n")
    dec = parse_observable(f"file:{path}")
    assert np.array_equal(dec.matrix, np.diag([1.0, -1.0]).astype(complex))
    assert dec.coeffs[pauli_labels(1).index("Z")] == 1.0
    path.write_text("# header\n\n1 0\n0 oops\n")
    with pytest.raises(ChannelParseError, match="line 4"):
        parse_observable(f"file:{path}")
    path.write_text("# header\n1 0\n0 1 1\n")
    with pytest.raises(ChannelParseError, match="line 3"):
        parse_observable(f"file:{path}")


def test_kraus_file_comments_inside_a_block(tmp_path):
    path = tmp_path / "ch.txt"
    path.write_text("dims 2 2\nkraus  # identity\n1 0  # row 0\n# row 1 follows\n0 1\n")
    ch = load_kraus_file(str(path))
    assert np.array_equal(ch.kraus[0], np.eye(2))
    path.write_text("dims 2 2\nkraus\n1 0\n# row 1 follows\n0 oops\n")
    with pytest.raises(ChannelParseError, match="line 5"):
        load_kraus_file(str(path))


@pytest.mark.parametrize("argv", [["estimate", "--eta", "0.5"], ["shadows"]])
def test_too_few_trials_give_no_coverage_verdict(tmp_path, capsys, argv):
    # one trial: 1 - eta - 3 sqrt(eta (1 - eta)) <= 0 at eta = 0.5 and at the shadows default 0.1
    rc = main([*argv, "--trials", "1", "--output-dir", str(tmp_path / "t")])
    out = capsys.readouterr().out
    assert rc == EXIT_REGIME
    assert "insufficient trials for a coverage verdict" in out
    assert "target" not in out


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(qldp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "qldp", "estimate", "--epsilon", "0",
                           "--output-dir", str(tmp_path / "e")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_REGIME
    assert "out of regime" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("observable", ["Z:1e308,I:1e308", "file:{tmp}/obs.txt"],
                         ids=["pauli-list", "dense-file"])
def test_overflowing_observable_prints_one_stderr_line(tmp_path, observable):
    # Z:1e308 + I:1e308 overflows while the matrix is built, and the dense file's
    # a + a^dag overflows unless it is halved first; numpy must not warn on either
    (tmp_path / "obs.txt").write_text("1e308 1e308\n1e308 -1e308\n")
    src = Path(qldp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "qldp", "estimate", "--observable",
                           observable.format(tmp=tmp_path), "--trials", "1",
                           "--output-dir", str(tmp_path / "e")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_REGIME
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("out of regime:")


_EDGE_FLOATS = [1e308, -1e308, 1e200, 1e154, 5e-324, -5e-324, 2.2250738585072014e-308,
                0.0, math.nan, math.inf, -math.inf]


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()),
                       min_size=1, max_size=4),
       two_qubits=st.booleans())
@example(coeffs=[1e200], two_qubits=False)
@example(coeffs=[1e308, 1e308, -1e308], two_qubits=True)
@example(coeffs=[0.0], two_qubits=False)
def test_numeric_observable_specs_give_documented_exit_codes(tmp_path_factory, coeffs, two_qubits):
    labels = ["ZI", "XY", "IZ", "YY"] if two_qubits else ["Z", "X", "Y", "I"]
    spec = ",".join(f"{lab}:{a!r}" for lab, a in zip(labels, coeffs))
    out = str(tmp_path_factory.mktemp("fuzz"))
    m = "2" if two_qubits else "1"
    for argv in (["estimate", "--observable", spec, "--trials", "1"],
                 ["estimate", "--observable", spec, "--n", "5", "--trials", "1"],
                 ["shadows", "--m", m, "--observable", spec, "--trials", "1"],
                 ["bounds", "--observable", spec]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([*argv, "--output-dir", out])
        assert rc in (EXIT_OK, EXIT_VIOLATED, EXIT_USAGE, EXIT_REGIME), (argv, rc)
        assert "Traceback" not in err.getvalue()


def test_certify_depolarizing_prints_the_exact_profile_without_search(capsys):
    rc = main(["certify", "--channel", "depolarizing 16 0.5", "--epsilon", "1"])
    out = capsys.readouterr().out
    assert rc == EXIT_VIOLATED
    head = out.splitlines()[0]
    assert head.endswith("restarts = 0)")
    sup = float(head.split("=")[1].split()[0])
    assert abs(sup - depolarizing_privacy_profile(16, 0.5, math.e)) < 1e-12


def test_certify_one_dimensional_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    path.write_text("dims 2 1\nkraus\n1\n0\n")
    rc = main(["certify", "--channel", f"file:{path}"])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.count("\n") == 1 and err.startswith("error:") and "orthogonal" in err


def test_out_of_memory_exits_3_with_one_line(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("cannot allocate the test array")

    monkeypatch.setattr(cli, "certify_qldp", refuse)
    rc = main(["certify"])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and err.startswith("out of memory:") and "test array" in err


def test_unallocatable_channel_exits_3_with_one_line(capsys):
    # the first d x d array of depolarizing(10^7) needs 1.6 PB, more than any address
    # space holds, so numpy refuses it before touching memory
    rc = main(["certify", "--channel", "depolarizing 10000000 0.5"])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and err.startswith("out of memory:")


def test_certify_depolarizing_128_stays_at_d_squared_memory(capsys):
    # its Kraus stack alone would take 4.3 GB and its superoperator 4.3 GB
    import tracemalloc

    tracemalloc.start()
    try:
        rc = main(["certify", "--channel", "depolarizing 128 0.5", "--epsilon", "1", "--delta", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    head = capsys.readouterr().out.splitlines()[0]
    assert rc == EXIT_VIOLATED and head.endswith("restarts = 0)")
    sup = float(head.split("=")[1].split()[0])
    assert abs(sup - depolarizing_privacy_profile(128, 0.5, math.e)) < 1e-12
    assert peak < 16 * 2**20


@pytest.mark.parametrize("dims", ["-1 2", "2 0", "0 0"])
def test_kraus_file_with_a_non_positive_dimension_is_a_usage_error(tmp_path, dims):
    # a zero-row block once advanced the parser by nothing, so it looped until killed: run
    # it in a subprocess under a time limit and a 1 GiB address-space cap
    path = tmp_path / "chan.txt"
    path.write_text(f"dims {dims}\nkraus\n1 0\n")
    src = Path(qldp.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from qldp.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, "certify", "--channel", f"file:{path}"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.count("\n") == 1 and "line 1" in proc.stderr and f"dims {dims}" in proc.stderr


def test_tiny_epsilon_lower_bound_cell_is_out_of_regime(capsys):
    # e^1e-300 rounds to 1, so the testing bound's (e^eps - 1)^2 is 0
    rc = main(["bounds", "--eps-list", "1e-300", "--beta-list", "0.1", "--delta", "0.1",
               "--output-dir", ""])
    assert rc == EXIT_OK
    row = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("1e-300")][0]
    assert "out-of-regime (e^epsilon - 1 is 0 in floating point at epsilon = 1e-300)" in row


@pytest.mark.parametrize("command", ["estimate", "shadows"])
def test_tiny_epsilon_sample_size_names_the_budget(tmp_path, capsys, command):
    rc = main([command, "--epsilon", "1e-300", "--trials", "3", "--output-dir", str(tmp_path / "t")])
    err = capsys.readouterr().err
    assert rc == EXIT_REGIME
    assert err.count("\n") == 1 and "epsilon = 1e-300 and delta = 0 admit no finite sample size" in err


@pytest.mark.parametrize("command, option", [
    ("utility-curve", "seed"), ("cost-report", "seed"), ("bounds", "seed"), ("certify", "output_dir"),
])
def test_options_a_command_does_not_read_are_not_settable(tmp_path, capsys, command, option):
    # none of utility-curve, cost-report and bounds draws a random number, and certify writes no file
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{option.replace('_', '-')}", "1"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    (tmp_path / "run.cfg").write_text(f"{option} = 1\n")
    rc = main([command, "--config", str(tmp_path / "run.cfg")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.count("\n") == 1 and f"unknown config keys for {command}: ['{option}']" in err


@pytest.mark.parametrize("text, argv, message", [
    # sum_k K_k^dag K_k overflows: numpy printed two RuntimeWarnings before the error line
    ("dims 2 2\nkraus\n1e200 0\n0 1\n", ["certify", "--channel", "file:{path}"],
     "line 1: Kraus set is not trace preserving (max deviation inf)"),
    # O - O^dag overflows
    ("0 1.7e308\n-1.7e308 0\n",
     ["estimate", "--trials", "1", "--observable", "file:{path}", "--output-dir", "{tmp}/e"],
     "matrix is not Hermitian (max deviation inf)"),
], ids=["kraus-file", "observable-file"])
def test_huge_file_entries_print_one_stderr_line(tmp_path, text, argv, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    src = Path(qldp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "qldp", *(a.format(path=path, tmp=tmp_path) for a in argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error:") and message in proc.stderr


# malformed values for each converter an option table uses; str never fails
MALFORMED = {int: ["abc", "1.5"], float: ["abc", "1,5"], cli._seed: ["-1", "1.5"],
             cli._float_list: ["0.5,abc", ","], cli._int_list: ["2,1.5", ","]}
CONVERTED_OPTIONS = [(command, name) for command, table in cli._OPTS.items()
                     for name, (conv, _default, _help) in table.items() if conv is not str]


@pytest.mark.parametrize("command, name", CONVERTED_OPTIONS)
def test_a_malformed_option_is_a_usage_error_led_by_its_source(tmp_path, monkeypatch, capsys, command, name):
    # the converter's own message follows the source once: _convert alone names it
    monkeypatch.chdir(tmp_path)  # the default output directory is relative
    monkeypatch.delenv("QLDP_SEED", raising=False)
    conv = cli._OPTS[command][name][0]
    flag = f"--{name.replace('_', '-')}"
    cfg = tmp_path / "run.cfg"
    for value in MALFORMED[conv]:
        with pytest.raises(ValueError) as exc:
            conv(value)
        runs = [([command, flag, value], flag)]
        cfg.write_text(f"{name} = {value}\n")
        runs.append(([command, "--config", str(cfg)], f"{cfg}: {name}"))
        for argv, source in runs:
            assert main(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert err == f"error: {source}: {exc.value}\n" and out == ""
        if name == "seed":
            monkeypatch.setenv("QLDP_SEED", value)
            assert main([command]) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert err == f"error: QLDP_SEED: {exc.value}\n" and out == ""
            monkeypatch.delenv("QLDP_SEED")
    # the options are read before any command runs, so nothing is written
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_a_kraus_file_is_a_channel_spec_from_the_flag_or_a_config_file(tmp_path, capsys):
    assert all("kraus_file" not in table for table in cli._OPTS.values())
    path = tmp_path / "chan.txt"
    path.write_text("dims 2 2\nkraus\n1 0\n0 1\n")  # the identity: d_in = 2 > r^2 = 1, exactly 1
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--kraus-file", str(path)])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --kraus-file" in capsys.readouterr().err
    assert main(["certify", "--channel", f"file:{path}"]) == EXIT_VIOLATED
    out = capsys.readouterr().out
    assert out.startswith("sup_estimate = 1  (delta = 0, restarts = 0)")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"channel = file:{path}\n")
    assert main(["certify", "--config", str(cfg)]) == EXIT_VIOLATED
    assert capsys.readouterr().out == out
    assert main(["certify", "--channel", "amplitude-damping 0.5"]) == EXIT_USAGE
    assert "use 'depolarizing D P' or 'file:PATH'" in capsys.readouterr().err


def test_shadows_reads_m_off_the_observable_and_checks_a_given_m(tmp_path, capsys):
    argv = ["shadows", "--observable", "ZZ", "--trials", "20", "--seed", "3"]
    assert main([*argv, "--output-dir", str(tmp_path / "a")]) in (EXIT_OK, EXIT_VIOLATED)
    assert main([*argv, "--m", "2", "--output-dir", str(tmp_path / "b")]) in (EXIT_OK, EXIT_VIOLATED)
    out = capsys.readouterr().out
    assert out.count("p_hat = ") == 2
    csv_a, csv_b = ((tmp_path / d / "shadow_trials.csv").read_bytes() for d in "ab")
    assert csv_a == csv_b
    assert main([*argv, "--m", "3", "--output-dir", str(tmp_path / "c")]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err == "error: observable acts on 2 qubits, expected 3\n" and out == ""
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command", ["estimate", "shadows"])
@pytest.mark.parametrize("m", [30, 33])
def test_a_label_observable_past_the_addressable_size_exits_3_with_one_line(tmp_path, capsys, command, m):
    # 4^m float64 coefficients exceed the largest array numpy can index, and numpy's own
    # errors for that ("array is too big", "Maximum allowed dimension exceeded") are
    # ValueErrors, which the CLI reports as usage errors: from_coeffs refuses m first
    rc = main([command, "--observable", "Z" * m, "--output-dir", str(tmp_path / "t")])
    out, err = capsys.readouterr()
    assert rc == EXIT_REGIME and out == ""
    assert err.count("\n") == 1 and err.startswith("out of regime:") and f"m = {m} " in err
