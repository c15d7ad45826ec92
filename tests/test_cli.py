import hashlib
import json

import pytest

from mxplus1.cli import main
from mxplus1.density import MAX_SERIES_K


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trajectory_example(capsys):
    code, out, _ = run(capsys, "trajectory", "--m", "3", "--n", "3", "--steps", "2")
    assert code == 0
    assert out == "3 5 8\n"


def test_trajectory_negative_start(capsys):
    code, out, _ = run(capsys, "trajectory", "--m", "3", "--n", "-5", "--steps", "3")
    assert code == 0
    assert out == "-5 -7 -10 -5\n"


def test_vector_example(capsys):
    code, out, _ = run(capsys, "vector", "--m", "3", "--n", "5", "--k", "2")
    assert code == 0
    assert out.splitlines() == [
        "bits 10",
        "equation 1 = 4y - 3x",
        "residue 1 mod 4",
        "classification falling",
    ]


def test_stopping_both_notions(capsys):
    code, out, _ = run(capsys, "stopping", "--m", "3", "--n", "1", "--cap", "100")
    assert code == 0
    assert out == "actual: exceeded cap 100\ncoefficient: k=2\n"
    code, out, _ = run(capsys, "stopping", "--m", "3", "--n", "5")
    assert out == "actual: k=2\ncoefficient: k=2\n"


def test_cycles_text_and_json(capsys):
    code, out, _ = run(capsys, "cycles", "--m", "5", "--k-max", "12")
    assert code == 0
    assert "1 3 8 4 2\n" in out
    code, out, _ = run(capsys, "cycles", "--m", "3", "--k-max", "12", "--format", "json")
    recs = [json.loads(line) for line in out.splitlines()]
    assert {"m": 3, "length": 2, "values": ["1", "2"]} in recs


def test_oracle_match_exit_zero(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "3", "--k", "10")
    assert code == 0
    assert "count_coefficient_gt 64" in out
    assert "match yes" in out


def test_oracle_offset_invariance(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "3", "--k", "10", "--offset", "977")
    assert code == 0
    assert "count_coefficient_gt 64" in out


def test_oracle_over_budget_usage_error(capsys):
    code, _, err = run(capsys, "oracle", "--m", "3", "--k", "30")
    assert code == 2
    assert "--k" in err


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "3", "--k", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["table_N"] == "4"


def test_density_kmax_zero(capsys):
    code, out, _ = run(capsys, "density", "--m", "5", "--k-max", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0,1,1,0,1.00000000,")


def test_density_csv_golden(capsys):
    code, out, _ = run(capsys, "density", "--m", "3", "--k-max", "10", "--every", "10")
    assert code == 0
    assert out.splitlines()[-1] == "10,64,1024,12,6.25000000e-2,7.42187500e-2,0.937500000"


def test_density_table_matches_paper_precision(capsys):
    code, out, _ = run(capsys, "density", "--m", "3", "--k-max", "100",
                       "--every", "10", "--format", "table")
    assert code == 0
    rows = {}
    for line in out.splitlines()[1:]:
        k, terras, new = line.split()
        rows[int(k)] = (float(terras), float(new))
    assert f"{rows[10][0]:.4e}" == "7.4219e-02"
    assert f"{rows[10][1]:.4e}" == "6.2500e-02"
    assert f"{rows[100][1]:.4e}" == "2.3868e-04"


def test_density_plot_format(capsys):
    code, out, _ = run(capsys, "density", "--m", "3", "--k-max", "10",
                       "--every", "10", "--format", "plot")
    assert code == 0
    assert "10 -1.2041" in out


# sha256 of the full stdout of three table runs; any byte change in the
# counts, the floats or the layout fails.
DENSITY_STDOUT_SHA256 = {
    ("--m", "3", "--k-max", "300", "--every", "1", "--format", "csv"):
        "5e54719314bb87f06eb5d49f0f1d9ccbc33bc955c8d219a982f0e5c3c858463f",
    ("--m", "3", "--k-max", "300", "--every", "1", "--format", "json"):
        "5c895e63d9283c643c0b151b6d2c2bdbe9cb1978d43841b21432103dee1da443",
    ("--m", "5", "--k-max", "300", "--every", "100", "--format", "table"):
        "19127f7040c06e5b29b9210b7e7cc59fdc40b827b27332e62f249345542f396b",
}


@pytest.mark.parametrize("argv", list(DENSITY_STDOUT_SHA256), ids=["csv", "json", "table"])
def test_density_stdout_byte_golden(capsys, argv):
    code, out, _ = run(capsys, "density", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == DENSITY_STDOUT_SHA256[argv]


def test_density_invalid_flags(capsys):
    code, _, err = run(capsys, "density", "--m", "3", "--k-max", "-1")
    assert code == 2 and "--k-max" in err
    code, _, err = run(capsys, "density", "--m", "3", "--k-max", "5", "--every", "0")
    assert code == 2 and "--every" in err
    code, _, err = run(capsys, "density", "--m", "4", "--k-max", "5")
    assert code == 2
    code, _, err = run(capsys, "density", "--m", "3", "--k-max", str(MAX_SERIES_K + 1))
    assert code == 2 and "--k-max" in err and "practical bound" in err


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["density"])  # missing required --k-max
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_determinism_byte_identical(capsys):
    argv = ["density", "--m", "3", "--k-max", "40", "--every", "5"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, out, _ = run(capsys, "density", "--m", "3", "--k-max", "10",
                       "--every", "10", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "k,N,pow2k,shaded,F_new,F_terras,G"
    assert "\r" not in text


def test_verify_periodicity_pass(capsys):
    code, out, _ = run(capsys, "verify-periodicity", "--m", "3", "--k", "8")
    assert code == 0
    assert "distinct 256 of 256" in out
    assert "PASS" in out
    code, _, err = run(capsys, "verify-periodicity", "--m", "3", "--k", "25")
    assert code == 2 and "--k" in err


def test_jobs_flag_output_independent(capsys):
    _, seq, _ = run(capsys, "oracle", "--m", "3", "--k", "12", "--jobs", "1")
    _, par, _ = run(capsys, "oracle", "--m", "3", "--k", "12", "--jobs", "3")
    assert seq == par
