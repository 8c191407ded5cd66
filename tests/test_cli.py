import csv
import io
import re
from contextlib import redirect_stdout

import pytest

from metricvoting import adversarial, save_space
from metricvoting.cli import main


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def line_file(tmp_path, line_space):
    path = tmp_path / "line.space"
    save_space(line_space, path)
    return str(path)


def test_estimate_happy_path():
    code, out = run_cli(
        "estimate", "--random", "20,uniform-box-L2", "--family", "borda",
        "--n", "8", "--trials", "200", "--seed", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# family=borda n=8 trials=200 seed=7")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["scenario", "n", "trials", "mean", "stderr",
                       "ci95_low", "ci95_high", "max", "infinite_count"]
    assert rows[1][8] == "0"
    assert 1.0 <= float(rows[1][3]) <= 9.0


def test_estimate_requires_exactly_one_source(line_file):
    code, _ = run_cli("estimate", "--family", "borda", "--n", "4",
                      "--trials", "10", "--seed", "1")
    assert code == 2
    code, _ = run_cli("estimate", "--space", line_file, "--random", "5,uniform-box-L2",
                      "--family", "borda", "--n", "4", "--trials", "10", "--seed", "1")
    assert code == 2


def test_bad_family_is_input_error():
    code, _ = run_cli("estimate", "--random", "5,uniform-box-L2", "--family",
                      "kapproval:0", "--n", "2", "--trials", "5", "--seed", "1")
    assert code == 2


def test_unknown_flag_is_input_error():
    code, _ = run_cli("classify", "--family", "borda", "--frobnicate")
    assert code == 2


def test_generated_seed_is_echoed():
    code, out = run_cli("estimate", "--random", "6,uniform-box-L2",
                        "--family", "plurality", "--n", "3", "--trials", "20")
    assert code == 0
    match = re.search(r"seed=(\d+)", out)
    assert match, out
    # rerunning with the echoed seed reproduces the numbers
    code2, out2 = run_cli("estimate", "--random", "6,uniform-box-L2",
                          "--family", "plurality", "--n", "3", "--trials", "20",
                          "--seed", match.group(1))
    assert out2.splitlines()[-1] == out.splitlines()[-1]


def test_jobs_do_not_change_output():
    args = ("estimate", "--random", "12,uniform-box-L2", "--family", "veto",
            "--n", "4", "--trials", "60", "--seed", "5")
    _, serial = run_cli(*args, "--jobs", "1")
    _, parallel = run_cli(*args, "--jobs", "2")
    assert serial.replace("jobs=1", "jobs=") == parallel.replace("jobs=2", "jobs=")


def test_scan_verdict_lines():
    code, out = run_cli("scan", "--family", "veto", "--n-max", "2000")
    assert code == 0
    assert out.strip().splitlines()[-1] == "FailsEverywhereOnGrid"
    code, out = run_cli("scan", "--family", "borda", "--n-max", "400")
    assert out.strip().splitlines()[-1].startswith("CertifiedConstantWithinHorizon y=2/3 n0=")


def test_scan_csv_schema(tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _ = run_cli("scan", "--family", "borda", "--y-grid", "9/10",
                      "--n-min", "11", "--n-max", "11", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[1] == "family,y_num,y_den,n,lhs,rhs,holds"
    assert lines[2] == "borda,9,10,11,81/20,27/50,1"
    # a single-n horizon can never certify (it needs n0 <= n_max/2)
    assert lines[3] == "Mixed"


def test_classify_output():
    code, out = run_cli("classify", "--family", "borda")
    assert code == 0 and out.strip().splitlines()[-1] == "ConstantByLimit"
    code, out = run_cli("classify", "--family", "veto")
    assert out.strip().splitlines()[-1] == "IndeterminateLimit"


def test_oracle_command():
    code, out = run_cli("oracle", "--trials", "40", "--seed", "1")
    assert code == 0
    assert "40/40 oracle matches" in out


def test_validate_ok_and_violation(tmp_path, line_file):
    code, out = run_cli("validate", "--space", line_file)
    assert code == 0 and "ok=True" in out
    bad = tmp_path / "bad.space"
    bad.write_text("version 1\npoints 3\nmass 1/3 1/3 1/3\nmatrix\n1\n5 1\n")
    code, out = run_cli("validate", "--space", str(bad))
    assert code == 3
    assert "ok=False" in out and "triangle" in out


def test_cost_command(line_file):
    code, out = run_cli("cost", "--space", line_file)
    assert code == 0
    assert "0,0.9" in out
    assert "one_median=0" in out


def test_election_with_slate_and_rankings(line_file):
    code, out = run_cli("election", "--space", line_file, "--family", "borda",
                        "--slate", "0,1,2", "--seed", "0", "--rankings")
    assert code == 0
    assert "winner=0" in out and "distortion=1.0" in out
    assert "0.65" in out  # the tied top scores
    assert "1,1,0,2" in out  # voter at location 1 ranks candidate 1 first


def test_election_needs_slate_or_n(line_file):
    code, _ = run_cli("election", "--space", line_file, "--family", "borda", "--seed", "1")
    assert code == 2


def test_invalid_space_file_rejected(tmp_path):
    bad = tmp_path / "bad.space"
    bad.write_text("version 1\npoints 2\nmass 0.9 0.2\nmatrix\n1\n")
    code, _ = run_cli("cost", "--space", str(bad))
    assert code == 2
    code, _ = run_cli("cost", "--space", str(bad), "--no-validate")
    assert code == 0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_adversarial_command(tmp_path):
    out_path = tmp_path / "trials.csv"
    code, out = run_cli("adversarial", "--rho", "1.25", "--family", "plurality",
                        "--trials", "8", "--seed", "3", "--n", "12",
                        "--big-n", "256", "--m-atoms", "32", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[1] == "trial,E,winner_cluster,distortion"
    assert len(lines) == 2 + 8 + 1
    assert lines[-1].startswith("pr_event=")


def test_probe_output(line_file, tmp_path):
    probe_path = tmp_path / "probe.csv"
    code, out = run_cli("estimate", "--space", line_file, "--family", "borda",
                        "--n", "6", "--trials", "50", "--seed", "2",
                        "--probe-z", "3/4", "--probe-out", str(probe_path))
    assert code == 0
    lines = probe_path.read_text().strip().splitlines()
    assert lines[1] == "r,outside_mass,event_count,winner_outside_count,violation_count"


@pytest.mark.parametrize("row, code", [("1 1e-3 0", 0), ("1 1.0e400 0", 2)])
def test_scan_table_file_numbers(tmp_path, capsys, row, code):
    path = tmp_path / "scores.table"
    path.write_text(f"3: {row}\n")
    got, out = run_cli("scan", "--family", f"table:{path}", "--n-min", "3", "--n-max", "3")
    assert got == code
    if code:
        assert out == "" and capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("scan", "--family", "borda", "--y-grid", "1/2,1/0", "--n-max", "20"),
    ("estimate", "--random", "6,uniform-box-L2", "--family", "borda", "--n", "3",
     "--trials", "5", "--seed", "1", "--probe-z", "1/0"),
])
def test_zero_denominator_flags_are_input_errors(capsys, argv):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert "error:" in capsys.readouterr().err


def test_probe_z_out_of_range_fails_before_any_output(capsys, line_file):
    code, out = run_cli("estimate", "--space", line_file, "--family", "borda",
                        "--n", "3", "--trials", "10", "--seed", "1", "--probe-z", "2")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: z must lie in (1/2, 1)\n"


def test_decimal_y_grid_is_exact():
    code, out = run_cli("scan", "--family", "borda", "--y-grid", "0.9",
                        "--n-min", "11", "--n-max", "11")
    assert code == 0
    assert out.splitlines()[2] == "borda,9,10,11,81/20,27/50,1"


@pytest.mark.parametrize("argv, message", [
    (("--rho", "nan"), "error: rho must satisfy 1 < rho < inf\n"),
    (("--rho", "inf"), "error: rho must satisfy 1 < rho < inf\n"),
    (("--rho", "1.25", "--n", "64", "--big-n", "5000000000"),
     "error: near-location and far-atom counts must be at most 2^32\n"),
    (("--rho", "1.25", "--n", "64", "--big-n", "64", "--m-atoms", str(2**32 + 1)),
     "error: near-location and far-atom counts must be at most 2^32\n"),
])
def test_adversarial_bad_parameters_are_input_errors(capsys, argv, message):
    code, out = run_cli("adversarial", *argv, "--family", "plurality",
                        "--trials", "4", "--seed", "1")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == message


def test_memory_error_is_input_error(capsys, monkeypatch):
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setattr(adversarial, "run_experiment", too_big)
    code, out = run_cli("adversarial", "--rho", "1.25", "--family", "plurality",
                        "--trials", "4", "--seed", "1")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: Unable to allocate 32.0 GiB\n"


@pytest.mark.parametrize("command", [
    ("estimate", "--random", "6,uniform-box-L2", "--family", "borda", "--n", "3"),
    ("adversarial", "--rho", "1.25", "--family", "plurality", "--n", "12", "--big-n", "64"),
])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_input_error(capsys, command, jobs):
    code, out = run_cli(*command, "--trials", "5", "--seed", "1", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs: must be a positive integer" in capsys.readouterr().err
