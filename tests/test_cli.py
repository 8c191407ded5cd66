import argparse
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from metricvoting import adversarial, save_space
from metricvoting.cli import build_parser, main, positive_int, word64


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


# sha256 of `scan --family F --n-max 2000` stdout as first recorded, when
# every scan cell was computed in Fraction arithmetic
SCAN_STDOUT_SHA256 = {
    "plurality": "d18f27c0bd2cedc9c1c5540706b976e0f5be5e32e28d0d1c7032528ac21bdfd7",
    "veto": "df2e9a069cfbddaf35c59c216a670baf67220db2a6004eaec3bb4606b5a001bf",
    "kapproval:3": "4a9ba33b2cb63d605e69825831421c0ccba504d1602139e818fe4be6778e70ed",
    "gapproval:1/2": "e6cb5aac8034abdf958384e14d1675588791510d6297fc8640d33a6045471cef",
    "borda": "76d8c96c46ee28900c138c6411bee7865878674749e911f36501683b332d681d",
    "dowdall": "a3e2ab93d82bf6cd23ff325f5287e7e598baf3cdf52283f6e37e0462e29b8c85",
}


@pytest.mark.parametrize("family", list(SCAN_STDOUT_SHA256))
def test_scan_stdout_is_pinned(family):
    code, out = run_cli("scan", "--family", family, "--n-max", "2000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_STDOUT_SHA256[family]


def test_empty_y_grid_is_input_error(capsys):
    code, out = run_cli("scan", "--family", "borda", "--y-grid", "", "--n-max", "20")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: empty y grid\n"


def test_classify_output():
    code, out = run_cli("classify", "--family", "borda")
    assert code == 0 and out.strip().splitlines()[-1] == "ConstantByLimit"
    code, out = run_cli("classify", "--family", "veto")
    assert out.strip().splitlines()[-1] == "IndeterminateLimit"


def test_oracle_command():
    code, out = run_cli("oracle", "--trials", "40", "--seed", "1")
    assert code == 0
    assert "40/40 oracle matches" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_oracle_trials_below_one_is_input_error(capsys, trials):
    code, out = run_cli("oracle", "--trials", trials, "--seed", "1")
    assert code == 2 and out == ""
    assert "--trials: must be a positive integer" in capsys.readouterr().err


def test_validate_ok_and_violation(tmp_path, line_file):
    code, out = run_cli("validate", "--space", line_file)
    assert code == 0 and "ok=True" in out
    bad = tmp_path / "bad.space"
    bad.write_text("version 1\npoints 3\nmass 1/3 1/3 1/3\nmatrix\n1\n5 1\n")
    code, out = run_cli("validate", "--space", str(bad))
    assert code == 3
    assert "ok=False" in out and "triangle" in out


def test_validate_samples_an_exact_file_in_exact_arithmetic(tmp_path):
    # a 301-point line whose far end is 2^-50 too long: above the triple
    # cap the sampled triples must see the excess a float sum rounds away
    lines = ["version 1", "points 301", "mass " + " ".join(["1/301"] * 301), "matrix"]
    lines += [" ".join(str(i - j) for j in range(i)) for i in range(1, 301)]
    lines[-1] = f"{300 * 2**50 + 1}/{2**50} " + lines[-1].split(" ", 1)[1]
    path = tmp_path / "line301.space"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli("validate", "--space", str(path))
    assert code == 3
    assert out.splitlines()[0] == f"# space={path} points=301 exhaustive=False"
    assert out.splitlines()[1].startswith("ok=False") and "kind=triangle" in out
    code, _ = run_cli("cost", "--space", str(path))
    assert code == 2


def test_cost_command(line_file):
    code, out = run_cli("cost", "--space", line_file)
    assert code == 0
    assert "0,0.9" in out
    assert "one_median=0" in out


@pytest.mark.parametrize("location", ["9", "-1"])
def test_cost_location_out_of_range_fails_before_any_output(capsys, line_file, location):
    code, out = run_cli("cost", "--space", line_file, "--location", location)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: location {location} out of range for P=3\n"


def test_election_with_slate_and_rankings(line_file):
    code, out = run_cli("election", "--space", line_file, "--family", "borda",
                        "--slate", "0,1,2", "--seed", "0", "--rankings")
    assert code == 0
    assert "winner=0" in out and "distortion=1.0" in out
    assert "0.65" in out  # the tied top scores
    assert "1,1,0,2" in out  # voter at location 1 ranks candidate 1 first


def test_election_candidate_costs_are_the_outcome_costs():
    # a candidate's printed cost is its location's social cost, the same
    # bits as the outcome's winner and optimum costs
    code, out = run_cli("election", "--random", "20,uniform-box-L2", "--family", "borda",
                        "--n", "5", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    rows = list(csv.reader(line for line in lines if line[:1].isdigit()))
    summary = dict(token.split("=") for token in lines[-1].split())
    assert len(rows) == 5
    assert rows[int(summary["winner"])][3] == summary["winner_cost"]
    assert rows[int(summary["optimum"])][3] == summary["optimum_cost"]


def test_election_needs_slate_or_n(line_file):
    code, _ = run_cli("election", "--space", line_file, "--family", "borda", "--seed", "1")
    assert code == 2


def test_election_slate_and_n_exclude_each_other(capsys, line_file):
    code, out = run_cli("election", "--space", line_file, "--family", "borda",
                        "--slate", "0,1", "--n", "3", "--seed", "1")
    assert code == 2 and out == ""
    assert "argument --n: not allowed with argument --slate" in capsys.readouterr().err


def test_validate_prints_exact_sizes_exactly(tmp_path):
    # an exact file's violation sizes print as rationals, a float file's as before
    for body, size in (("mass 1/3 1/3 1/3\nmatrix\n1/3\n1 1/3\n", "1/3"),
                       ("mass 0.25 0.25 0.5\nmatrix\n0.25\n1.0 0.25\n", "0.5")):
        path = tmp_path / "bad.space"
        path.write_text("version 1\npoints 3\n" + body)
        code, out = run_cli("validate", "--space", str(path))
        assert code == 3
        assert out.splitlines()[2] == f"violation kind=triangle witness=(0, 1, 2) magnitude={size}"


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


def test_probe_out_without_probe_z_fails_before_any_output(capsys, line_file, tmp_path):
    probe_path = tmp_path / "probe.csv"
    code, out = run_cli("estimate", "--space", line_file, "--family", "borda", "--n", "3",
                        "--trials", "20", "--seed", "1", "--probe-out", str(probe_path))
    assert code == 2 and out == "" and not probe_path.exists()
    assert capsys.readouterr().err == "error: --probe-out needs --probe-z\n"


def test_probe_on_a_space_short_of_mass_is_an_input_error(capsys, tmp_path):
    # an unvalidated space whose masses sum to 1/2 holds no ball of mass
    # tilde_y: the probe fails with a message and writes no file
    space_path, probe_path = tmp_path / "short.space", tmp_path / "probe.csv"
    space_path.write_text("version 1\npoints 3\nmass 1/4 1/8 1/8\nmatrix\n1\n3 2\n")
    code, _ = run_cli("estimate", "--space", str(space_path), "--no-validate", "--family", "borda",
                      "--n", "3", "--trials", "20", "--seed", "1", "--probe-z", "3/4",
                      "--probe-out", str(probe_path))
    assert code == 2 and not probe_path.exists()
    assert capsys.readouterr().err.startswith("error: no ball around the 1-median holds mass")


def test_probe_mass_is_checked_before_the_estimate(capsys, tmp_path):
    # the same short space: the mass check comes before any trial or output
    space_path, probe_path = tmp_path / "short.space", tmp_path / "probe.csv"
    space_path.write_text("version 1\npoints 3\nmass 1/4 1/8 1/8\nmatrix\n1\n3 2\n")
    code, out = run_cli("estimate", "--space", str(space_path), "--no-validate", "--family", "borda",
                        "--n", "3", "--trials", "20", "--seed", "1", "--probe-z", "3/4",
                        "--probe-out", str(probe_path))
    assert code == 2 and out == "" and not probe_path.exists()
    assert capsys.readouterr().err == \
        "error: no ball around the 1-median holds mass 0.90803: the masses sum to 0.5\n"


def test_histogram_output(line_file, tmp_path):
    # one row per distinct distance from the 1-median, location 0 of the
    # line's points 0, 1 and 3
    hist_path = tmp_path / "hist.csv"
    code, _ = run_cli("estimate", "--space", line_file, "--family", "borda", "--n", "3",
                      "--trials", "20", "--seed", "1", "--histogram-out", str(hist_path))
    assert code == 0
    rows = list(csv.reader(hist_path.read_text().splitlines()))
    assert rows[0] == ["r", "pr_winner_distance_ge_r"]
    assert [r for r, _ in rows[1:]] == ["0.0", "1.0", "3.0"]
    pr = [float(p) for _, p in rows[1:]]
    assert pr[0] == 1.0 and pr == sorted(pr, reverse=True)


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


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_jobs_environment_is_input_error(capsys, monkeypatch, value):
    monkeypatch.setenv("METRICVOTING_JOBS", value)
    code, out = run_cli("estimate", "--random", "6,uniform-box-L2", "--family", "borda", "--n", "3",
                        "--trials", "3", "--seed", "1")
    assert code == 2 and out == ""
    assert "argument --jobs:" in capsys.readouterr().err


def test_jobs_environment_sets_the_default(monkeypatch):
    monkeypatch.setenv("METRICVOTING_JOBS", "2")
    code, out = run_cli("estimate", "--random", "6,uniform-box-L2", "--family", "borda", "--n", "3",
                        "--trials", "3", "--seed", "1")
    assert code == 0 and " jobs=2 " in out.splitlines()[0]


@pytest.mark.parametrize("argv", [
    # trial -1 would draw the slate of trial 2^64 - 1
    ("election", "--family", "borda", "--n", "2", "--seed", "1", "--trial", "-1"),
    # a negative cap would skip the exhaustive scan of a 3-point space
    ("validate", "--triple-cap", "-1"),
])
def test_negative_trial_or_triple_cap_is_input_error(capsys, line_file, argv):
    code, out = run_cli(argv[0], "--space", line_file, *argv[1:])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "error:" in err and f"{argv[-2]}: must be a non-negative integer" in err


def test_zero_trial_and_triple_cap_are_accepted(line_file):
    code, out = run_cli("election", "--space", line_file, "--family", "borda", "--n", "2",
                        "--seed", "1", "--trial", "0")
    assert code == 0 and "trial=0" in out
    code, out = run_cli("validate", "--space", line_file, "--triple-cap", "0")
    assert code == 0 and "exhaustive=False" in out


_SMALL = ("--random", "20,uniform-box-L2", "--family", "borda", "--n", "2")


@pytest.mark.parametrize("argv", [
    # seed -1 would draw what seed 2^64 - 1 draws, trial 2^64 what trial 0 does
    ("election", *_SMALL, "--seed", "-1"),
    ("election", *_SMALL, "--seed", str(2**64)),
    ("election", *_SMALL, "--seed", "1", "--trial", str(2**64)),
    ("estimate", *_SMALL, "--trials", "5", "--seed", "-1"),
    ("adversarial", "--rho", "1.25", "--family", "borda", "--trials", "2", "--n", "4",
     "--big-n", "256", "--m-atoms", "32", "--seed", "-1"),
    ("oracle", "--trials", "1", "--seed", "-1"),
    ("oracle", "--trials", "1", "--seed", str(2**64)),
])
def test_seed_or_trial_outside_64_bits_is_input_error(capsys, argv):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "error:" in err and f"argument {argv[-2]}: must be" in err


def test_every_seed_and_jobs_option_is_bounded():
    # walks every subcommand, so a new one cannot take a wrapping seed or a
    # job count below one
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    kinds = {"--seed": word64, "--jobs": positive_int}
    seen = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            for option in set(action.option_strings) & kinds.keys():
                assert action.type is kinds[option], (command, option)
                seen.add(option)
    assert seen == kinds.keys()


def test_largest_seed_and_trial_are_accepted():
    last = str(2**64 - 1)
    code, out = run_cli("election", *_SMALL, "--seed", last, "--trial", last)
    assert code == 0 and f"seed={last} trial={last}" in out


SRC = Path(__file__).resolve().parents[1] / "src"


def _cli_stdout(argv, blas_threads):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-m", "metricvoting.cli", *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


@pytest.mark.parametrize("argv", [
    ("estimate", "--random", "300,uniform-box-L2", "--family", "borda", "--n", "13",
     "--trials", "200", "--seed", "4"),
    ("adversarial", "--rho", "1.25", "--family", "borda", "--n", "12", "--big-n", "70000",
     "--trials", "8", "--seed", "3", "--jobs", "2"),
], ids=["estimate", "adversarial"])
def test_blas_thread_count_changes_no_output(argv):
    # no election calls BLAS, so its thread count reaches no output bit
    assert _cli_stdout(argv, 1) == _cli_stdout(argv, 2)
