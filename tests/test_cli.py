import argparse
import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mxplus1
from mxplus1 import bigmath, density, diophantine, oracle
from mxplus1.cli import _COMMANDS, _SHARED, _parse, build_parser, main
from mxplus1.density import MAX_SERIES_K
from parser_grid import EVERY_SUBCOMMAND, PARSER_GRID, parse_outcome
from procs import children


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


# sha256 of the full stdout of the table runs, one per format and
# variant; any byte change in the counts, the floats or the layout fails.
# The last three were frozen from the in-memory serializers, before the
# command wrote each line as its column was computed.
DENSITY_STDOUT_SHA256 = {
    ("--m", "3", "--k-max", "300", "--every", "1", "--format", "csv"):
        "5e54719314bb87f06eb5d49f0f1d9ccbc33bc955c8d219a982f0e5c3c858463f",
    ("--m", "3", "--k-max", "300", "--every", "1", "--format", "json"):
        "5c895e63d9283c643c0b151b6d2c2bdbe9cb1978d43841b21432103dee1da443",
    ("--m", "5", "--k-max", "300", "--every", "100", "--format", "table"):
        "19127f7040c06e5b29b9210b7e7cc59fdc40b827b27332e62f249345542f396b",
    ("--m", "3", "--k-max", "300", "--every", "1", "--format", "plot"):
        "c9bc4f3eacb7422dc4e0c4c687d8928ddf112160dcbaa6ecf4df1fa46869f9fb",
    ("--m", "5", "--k-max", "300", "--every", "1", "--format", "json", "--variant", "new"):
        "52b00260d66dc30ab002bc223955a1133f14cf8543b8d220c956c1534d03cf70",
    ("--m", "3", "--k-max", "300", "--every", "1", "--format", "table",
     "--variant", "terras"):
        "53cff8838ba5c3ecf3a11d82865203be2fe6c8eefbc46b39f1ffc109a91a6fec",
}


@pytest.mark.parametrize("argv", list(DENSITY_STDOUT_SHA256),
                         ids=["csv", "json", "table", "plot", "json-new", "table-terras"])
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


@pytest.mark.parametrize("argv", PARSER_GRID, ids=lambda argv: " ".join(argv) or "no-argv")
def test_main_reads_each_grid_argv_as_the_full_parser(argv, monkeypatch, capsys):
    # main prints the parser's help and usage errors byte for byte and
    # exits with its code; an argv the parser reads, the plain reader takes
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err, _ = parse_outcome(build_parser(), argv)
    if code is None:
        assert _plain_path_agrees(argv)
        return
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert (exc.value.code, *capsys.readouterr()) == (code, out, err)


def test_help_lists_every_subcommand_with_its_help(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(f"    {name}" in out and help_ in out for name, (help_, _, _) in _COMMANDS.items())


def _plain_path_agrees(argv):
    """True when the plain reader takes argv, which it may only do where
    argparse parses argv to the same namespace and prints nothing."""
    plain = _parse(argv)
    if plain is not None:
        assert parse_outcome(build_parser(), argv) == (None, "", "", vars(plain))
    return plain is not None


def test_plain_reader_takes_every_valid_argv_of_the_grid_and_no_other():
    taken = [argv for argv in PARSER_GRID if _plain_path_agrees(argv)]
    assert taken == list(EVERY_SUBCOMMAND.values())


def _flags(name):
    return _SHARED + _COMMANDS[name][2]


# values of every kind a flag meets: valid and negative numbers, ones
# int() reads only in part or not at all, and every choice, valid or not
VALUES = st.one_of(st.integers(-3, 30).map(str), st.sampled_from(
    ["x", "3.5", "", " 7", "+4", "1_0", "-", "--", "-h", "-x", "csv", "json", "plot", "table",
     "text", "xml", "new", "terras", "both", "old"]))


def _value(options):
    valid = st.sampled_from(options.get("choices", ("0", "5", "12")))
    return st.one_of(valid, VALUES)


@st.composite
def argv_near_the_plain_form(draw):
    name = draw(st.sampled_from([*_COMMANDS, "cyc", "-h", "--help", "--m"]))
    own = _flags(name if name in _COMMANDS else "cycles")
    pieces = [[flag, draw(_value(options))] for flag, options in own
              if draw(st.booleans()) or options.get("required") and draw(st.booleans())]
    noise = st.one_of(st.sampled_from([flag for flag, _ in own]), st.sampled_from(
        [flag for flag, _ in _flags("oracle")] + ["--k-ma", "--ev", "--m3", "-h", "--help"]))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        flag, value = draw(noise), draw(VALUES)
        pieces.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"], [flag]])))
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@given(argv=argv_near_the_plain_form())
@example(argv=["cycles", "--k-max", "x", "--k-max", "5"])  # argparse converts both
@example(argv=["cycles", "--k-max", "5", "--out", "-h"])
@example(argv=["trajectory", "--n", "-5", "--steps", "2"])
@example(argv=["cycles", "--k-ma", "5"])
@example(argv=["cycles", "--k-max=5"])
@settings(max_examples=500, deadline=None)
def test_plain_reader_returns_none_or_the_namespace_of_argparse(argv):
    # repeats, "=" forms, abbreviations, negative numbers, help, bad
    # values and missing flags all go to argparse
    _plain_path_agrees(argv)


def test_main_builds_a_parser_only_for_argv_the_plain_reader_refuses(monkeypatch, capsys):
    # a well-formed argv builds no parser; one that argparse must read
    # builds every subparser once
    built, add_parser = [], argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name) or add_parser(self, name, **kw))
    assert run(capsys, "cycles", "--k-max", "5")[0] == 0
    assert built == []
    assert run(capsys, "cycles", "--k-max=5")[0] == 0
    assert built == list(_COMMANDS)
    with pytest.raises(SystemExit) as exc:
        main(["cycles", "--k-max", "x"])
    assert exc.value.code == 2 and built == list(_COMMANDS) * 2


def test_library_error_through_argparse_names_its_flag(capsys):
    argv = ["density", "--k-max=5", "--every", "0"]
    assert _parse(argv) is None
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: --every ")


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


@pytest.mark.parametrize("fmt", ["csv", "json", "plot", "table"])
def test_density_out_file_equals_stdout(tmp_path, capsys, fmt):
    argv = ["density", "--m", "5", "--k-max", "150", "--every", "7", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    target = tmp_path / f"series.{fmt}"
    code_out, out_out, _ = run(capsys, *argv, "--out", str(target))
    assert (code, code_out, out_out) == (0, 0, "")
    assert target.read_bytes() == out.encode("ascii")


# Every usage error of every subcommand, with the start of its message:
# the flag that set the rejected parameter, or, where the library's
# message starts with no parameter, that message as written.
BAD_FLAGS = {
    "m": (("density", "--m", "4", "--k-max", "5"), "--m"),
    "k-max-bound": (("density", "--m", "3", "--k-max", str(MAX_SERIES_K + 1)), "--k-max"),
    "k-max-negative": (("density", "--m", "3", "--k-max", "-1"), "--k-max"),
    "every": (("density", "--m", "3", "--k-max", "5", "--every", "0"), "--every"),
    "oracle-m": (("oracle", "--m", "4", "--k", "5"), "--m"),
    "oracle-k-zero": (("oracle", "--k", "0"), "--k"),
    "oracle-k-bound": (("oracle", "--k", "27"), "--k"),
    "oracle-offset": (("oracle", "--k", "5", "--offset", "0"), "--offset"),
    "oracle-jobs": (("oracle", "--k", "5", "--jobs", "0"), "--jobs"),
    "trajectory-m": (("trajectory", "--m", "2", "--n", "3", "--steps", "2"), "--m"),
    "trajectory-steps": (("trajectory", "--n", "3", "--steps", "-1"), "--steps"),
    "stopping-m": (("stopping", "--m", "6", "--n", "7"), "--m"),
    "stopping-n": (("stopping", "--n", "0"), "--n"),
    "stopping-cap": (("stopping", "--n", "7", "--cap", "0"), "--cap"),
    "vector-k-negative": (("vector", "--n", "5", "--k", "-3"), "--k must be >= 1"),
    "vector-k-zero": (("vector", "--n", "5", "--k", "0"), "--k must be >= 1"),
    "cycles-m": (("cycles", "--m", "4", "--k-max", "5"), "--m"),
    "cycles-k-max-zero": (("cycles", "--k-max", "0"), "--k-max"),
    "cycles-k-max-bound": (("cycles", "--k-max", "29"), "--k-max"),
    "periodicity-k-zero": (("verify-periodicity", "--k", "0"), "--k"),
    "periodicity-k-bound": (("verify-periodicity", "--k", "21"), "--k"),
    "periodicity-start": (("verify-periodicity", "--k", "5", "--start", "-1"), "--start"),
}


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("argv,expected", list(BAD_FLAGS.values()), ids=list(BAD_FLAGS))
def test_density_usage_error_writes_nothing(tmp_path, capsys, argv, expected, to_file):
    # A usage error is found before any output sink is opened: nothing
    # reaches stdout, an existing --out file keeps every byte, and the
    # message names the flag at fault.
    target = tmp_path / "kept.csv"
    target.write_bytes(b"earlier run\r\n")
    code, out, err = run(capsys, *argv, *(("--out", str(target)) if to_file else ()))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {expected}")
    assert target.read_bytes() == b"earlier run\r\n"


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("argv", list(EVERY_SUBCOMMAND.values()), ids=list(EVERY_SUBCOMMAND))
def test_out_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, argv, where):
    # Exit 1 would claim a failed property; the path is what is wrong.
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: --out") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# Lines before the first data line, per density format.
HEADER_LINES = {"csv": 1, "json": 0, "plot": 2, "table": 1}


@pytest.mark.parametrize("fmt", list(HEADER_LINES))
def test_density_streams_lines_as_columns_are_computed(monkeypatch, fmt):
    # The series walks the band's diagonals, the last of them the one on
    # which row top = max{i : 3**i < 2**400} is shaded, at k = bits(3**top).
    top = max(i for i in range(401) if 3**i < 2**400)
    diagonals = (3**top).bit_length() - top
    steps = [0]
    diagonal_steps = density._diagonals

    def counted(*args):
        for step in diagonal_steps(*args):
            steps[0] += 1
            yield step

    steps_at = []  # the steps taken when each line was written

    class Stdout(io.StringIO):
        def write(self, text):
            steps_at.extend([steps[0]] * text.count("\n"))
            return super().write(text)

    stdout = Stdout()
    monkeypatch.setattr(density, "_diagonals", counted)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["density", "--m", "3", "--k-max", "400", "--every", "1",
                 "--format", fmt]) == 0
    assert steps[0] == diagonals
    data_at = steps_at[HEADER_LINES[fmt]:]
    assert len(data_at) == 401 and stdout.getvalue().count("\n") == len(steps_at)
    # the first data line, and the one half-way, before the last step
    assert data_at[0] < diagonals and data_at[200] < diagonals


def _run_script(script: str) -> subprocess.Popen:
    # the package and the tests' own helpers (procs.children) importable
    src = os.path.dirname(os.path.dirname(mxplus1.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.path.dirname(__file__), os.environ.get("PYTHONPATH"))))}
    return subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)


# Makes every density run of a script cut its band into three stripes,
# however small.
FORCE_SPLIT = "mxplus1.density._cuts = lambda lim, top: [top // 3, 2 * top // 3]\n"


def test_density_and_cycles_do_not_import_numpy():
    # Only the brute-force scans need numpy; the table and the cycle
    # search run without loading it, in every output format and with a
    # split band.  Neither the import nor a split band loads
    # multiprocessing, and decimal loads only for the exact counts of csv
    # and json, so neither the import nor the table format pays for it.
    script = (
        "import sys\n"
        "import mxplus1.cli\n"
        "print('multiprocessing' in sys.modules, 'decimal' in sys.modules, file=sys.stderr)\n"
        + FORCE_SPLIT +
        "assert mxplus1.cli.main(['density', '--m', '5', '--k-max', '60',\n"
        "                         '--format', 'table']) == 0\n"
        "print('decimal' in sys.modules, file=sys.stderr)\n"
        "for argv in (['density', '--m', '3', '--k-max', '60', '--format', 'json'],\n"
        "             ['cycles', '--m', '3', '--k-max', '10'],\n"
        "             ['cycles', '--m', '5', '--k-max', '10', '--format', 'json']):\n"
        "    assert mxplus1.cli.main(argv) == 0\n"
        "print('numpy' in sys.modules, 'multiprocessing' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_script(script)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err.decode().split() == ["False", "False", "False", "False", "False"]


def test_oracle_import_does_not_load_the_pool():
    # The oracle imports its process pool, and so multiprocessing, only
    # where it starts workers.
    script = (
        "import sys\n"
        "import mxplus1.oracle\n"
        "print('multiprocessing' in sys.modules,\n"
        "      'concurrent.futures.process' in sys.modules, file=sys.stderr)\n"
    )
    proc = _run_script(script)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err.decode().split() == ["False", "False"]


def test_a_plain_run_does_not_load_argparse(monkeypatch):
    # argparse, and the gettext it loads on first use, wait for help and
    # usage errors: a well-formed argv is read from the subcommand table
    monkeypatch.setenv("COLUMNS", "80")  # the help's width, here and in the script
    script = (
        "import sys\n"
        "from mxplus1.cli import main\n"
        "assert main(['cycles', '--k-max', '5']) == 0\n"
        "print('argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)\n"
        "main(['--help'])\n"
    )
    proc = _run_script(script)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err.decode().split() == ["False", "False"]
    help_ = parse_outcome(build_parser(), ["--help"])[1]
    assert out.decode() == "-1\n0\n1 2\n-5 -7 -10\n" + help_


def test_density_into_a_closed_pipe_exits_141_quietly():
    # `mxplus1 density ... | head`: once the reader is gone the run ends
    # with the status a shell gives SIGPIPE, prints no traceback and
    # leaves no stripe process behind.
    script = (
        "import sys\n"
        "import mxplus1.cli\n"
        "from procs import children\n"
        + FORCE_SPLIT +
        "code = mxplus1.cli.main(['density', '--m', '3', '--k-max', '1000'])\n"
        "print(code, children(), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = _run_script(script)
    assert proc.stdout.readline() == b"k,N,pow2k,shaded,F_new,F_terras,G\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"141 []\n")


def _stopped(pid: int) -> bool:
    """Whether a process has ended: gone, or a zombie not yet reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_stripes_of_a_killed_caller_end_on_their_own():
    # The caller of a split run is killed with SIGKILL: no finally block
    # runs, so its stripes learn it only from their pipes.  The lowest
    # writes its next pairs into a pipe with no reader (EPIPE), and each
    # stripe above then finds its feed at its end (EOF).  Slowed to
    # 20 ms a diagonal, they would step for 15 s.
    script = (
        "import sys, time\n"
        "import mxplus1.cli\n"
        "from mxplus1 import density\n"
        + FORCE_SPLIT +
        "diagonals = density._diagonals\n"
        "def slow(*args):\n"
        "    for step in diagonals(*args):\n"
        "        time.sleep(0.02)\n"
        "        yield step\n"
        "density._diagonals = slow\n"
        "mxplus1.cli.main(['density', '--m', '3', '--k-max', '2000'])\n"
    )
    proc = _run_script(script)
    try:
        assert proc.stdout.readline() == b"k,N,pow2k,shaded,F_new,F_terras,G\n"
        deadline = time.monotonic() + 10
        while len(stripes := children(proc.pid)) < 3:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.communicate(timeout=60)
    deadline = time.monotonic() + 10
    while not all(map(_stopped, stripes)):
        assert time.monotonic() < deadline, "a stripe outlived its caller by 10 s"
        time.sleep(0.05)


@pytest.mark.parametrize("fail,slow", [((84, 80), None), ((168, 1), (84, 65))])
def test_a_stripe_that_fails_raises_before_a_wrong_point(tmp_path, fail, slow):
    # A stripe raises on a diagonal (first row, diagonal): it prints its
    # traceback once and exits 1.  The middle of three stripes failing
    # after its first batch is reported itself.  When the top one fails
    # on its first diagonal, the middle, held 0.5 s after its first batch,
    # finds it gone on its next write and exits 1 quietly, and that is the
    # stripe the caller reports.  Either way the caller raises
    # RuntimeError naming code 1 after the points that batch decides.
    # What the caller wrote before the fork goes out once: the csv header
    # on stdout, and a line on a block-buffered stderr, which a stripe's
    # traceback would carry again had it not been flushed.
    assert main(["density", "--m", "3", "--k-max", "400", "--out", str(tmp_path / "want")]) == 0
    want = (tmp_path / "want").read_bytes().splitlines(True)
    script = (
        "import sys, time\n"
        "import mxplus1.cli\n"
        "from mxplus1 import density\n"
        "from procs import children\n"
        + FORCE_SPLIT +
        "diagonals = density._diagonals\n"
        "def failing(lim, lo, hi, fed):\n"
        "    for e, step in enumerate(diagonals(lim, lo, hi, fed), 1):\n"
        f"        if (lo, e) == {fail}:\n"
        "            raise ZeroDivisionError('planted')\n"
        f"        if (lo, e) == {slow}:\n"
        "            time.sleep(0.5)\n"
        "        yield step\n"
        "density._diagonals = failing\n"
        "sys.stderr = open(2, 'w', closefd=False)\n"
        "print('written before the fork', file=sys.stderr)\n"
        "try:\n"
        "    mxplus1.cli.main(['density', '--m', '3', '--k-max', '400'])\n"
        "except RuntimeError as exc:\n"
        "    print('raised:', exc, children(), file=sys.stderr)\n"
    )
    proc = _run_script(script)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    lines = out.splitlines(True)
    assert lines.count(want[0]) == 1 and 1 < len(lines) < len(want)
    assert lines == want[:len(lines)]
    err = err.decode()
    assert err.count("written before the fork") == 1
    assert err.count("Traceback") == err.count("ZeroDivisionError: planted") == 1
    assert err.endswith("raised: the stripe process exited with code 1 []\n")


def test_every_public_name_resolves():
    # the oracle's names are served on first use; the rest are imported
    for name in mxplus1.__all__:
        assert getattr(mxplus1, name) is not None
    with pytest.raises(AttributeError):
        mxplus1.no_such_name


# the references the tests check the package against, by their old homes
MOVED_TO_REFERENCE = {
    density: ("ShadedCell", "DensityColumn", "MAX_BINOMIAL_K", "initial_column",
              "next_column", "binomial_reference"),
    bigmath: ("LESS", "EQUAL", "GREATER", "cmp_pow"),
    diophantine: ("cycle_candidate", "_walk"),
}


def test_references_live_in_the_tests_apart_from_what_they_check():
    for module, names in MOVED_TO_REFERENCE.items():
        for name in names:
            assert not hasattr(module, name)
            assert not hasattr(mxplus1, name)
    # no reference may be built on the kernel or the power table it checks
    checked = {"mxplus1.density", "mxplus1.bigmath"}
    with open(os.path.join(os.path.dirname(__file__), "reference.py")) as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not {alias.name for alias in node.names} & checked
        elif isinstance(node, ast.ImportFrom):
            assert node.module not in checked
            if node.module == "mxplus1":
                for alias in node.names:
                    imported = getattr(mxplus1, alias.name)
                    assert getattr(imported, "__name__", None) not in checked
                    assert getattr(imported, "__module__", None) not in checked


def test_verify_periodicity_pass(capsys):
    code, out, _ = run(capsys, "verify-periodicity", "--m", "3", "--k", "8")
    assert code == 0
    assert "distinct 256 of 256" in out
    assert "PASS" in out
    code, _, err = run(capsys, "verify-periodicity", "--m", "3", "--k", "25")
    assert code == 2 and "--k" in err


@pytest.mark.parametrize("shifted,want", [
    (False, "distinct 255 of 256\nrepetition ok\n"),
    (True, "distinct 256 of 256\nrepetition violated\n"),
], ids=["one-vector-missing", "shifted-window-differs"])
def test_verify_periodicity_fail(capsys, monkeypatch, shifted, want):
    # One interior code of a chunk is set to its neighbour's and the
    # chunk's ends are kept, so the spot check against the map passes.
    # Changed in the window and in the window 2**k above it alike, one
    # vector is missing but every one repeats; changed in the window
    # above only, all are distinct but one does not repeat.
    parity_codes = oracle._parity_codes

    def codes(m, k, start, size):
        out = parity_codes(m, k, start, size)
        if not shifted or start > 1 << k:
            out[size // 2] = out[size // 2 - 1]
        return out

    monkeypatch.setattr(oracle, "_parity_codes", codes)
    code, out, _ = run(capsys, "verify-periodicity", "--m", "3", "--k", "8")
    assert (code, out) == (1, "m 3 k 8 start 1\n" + want + "FAIL\n")


def test_jobs_flag_output_independent(capsys):
    _, seq, _ = run(capsys, "oracle", "--m", "3", "--k", "12", "--jobs", "1")
    _, par, _ = run(capsys, "oracle", "--m", "3", "--k", "12", "--jobs", "3")
    assert seq == par


# Full stdout and exit code of brute-force checks far past the int64
# bound, frozen from the per-start Python loops these runs used before
# they were vectorized; and of a wide parity vector and capped stopping
# times, frozen from the bit-forcing residue loop and the two separate
# stopping-time walks used before each was derived once.
CHECK_STDOUT = {
    ("verify-periodicity", "--m", "3", "--k", "16", "--start", "103694312"): (
        0, "m 3 k 16 start 103694312\ndistinct 65536 of 65536\nrepetition ok\nPASS\n"),
    ("verify-periodicity", "--m", "5", "--k", "10", "--start", str(2**70)): (
        0, "m 5 k 10 start 1180591620717411303424\ndistinct 1024 of 1024\n"
           "repetition ok\nPASS\n"),
    ("oracle", "--m", "5", "--k", "14", "--offset", str(2**61 + 3)): (
        0, "m 5 k 14 offset 2305843009213693955\ntable_N 3830\n"
           "count_coefficient_gt 3830\ncount_coefficient_ge 4032\n"
           "count_actual_gt 3830\ndiscrepancy 0\nmatch yes\n"),
    ("vector", "--m", "5", "--n", str(2**100 + 7), "--k", "300"): (
        0, "bits 101101110111101010101110011000111000101111011100000010101000111"
           "10101010101001110011100110000001010110000011000001010101110100100011"
           "10110111000010100101100010110100000011101110101000001111111010010111"
           "10100111000001101000001110000001000101011011011000110111100111101101"
           "110011110100001011100010100010111\n"
           "equation 36144219966592488562311990695028573030188535961127198577462"
           "6475868085171823470671289877972928064990728833 = 2037035976334486086"
           "26844568840937816105146839366593625063614044935438129976333670618339"
           "7376y - 700649232162408535461864791644958065640130970938257885878534"
           "141944895541342930300743319094181060791015625x\n"
           "residue 1267650600228229401496703205383 mod 203703597633448608626844"
           "5688409378161051468393665936250636140449354381299763336706183397376\n"
           "classification rising\n"),
    ("stopping", "--m", "5", "--n", "7", "--cap", "2000"): (
        0, "actual: exceeded cap 2000\ncoefficient: exceeded cap 2000\n"),
    ("stopping", "--m", "3", "--n", "1", "--cap", "5000"): (
        0, "actual: exceeded cap 5000\ncoefficient: k=2\n"),
}


@pytest.mark.parametrize("argv", list(CHECK_STDOUT),
                         ids=["periodicity-m3-k16", "periodicity-m5-2e70", "oracle-m5-2e61",
                              "vector-m5-2e100", "stopping-m5-n7", "stopping-m3-n1"])
def test_check_stdout_byte_golden(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == CHECK_STDOUT[argv]
