"""argv on which `main` must print and exit as the parser, and on which
the plain reader must return None or the parser's namespace; and what
parsing one of them prints, exits with and yields.
Standard library only, so that an interpreter without numpy or pytest
can run the comparison too."""

import contextlib
import io

# One valid run of each subcommand, short enough to repeat.
EVERY_SUBCOMMAND = {
    "density": ("density", "--k-max", "10"),
    "oracle": ("oracle", "--k", "5"),
    "trajectory": ("trajectory", "--n", "3", "--steps", "2"),
    "stopping": ("stopping", "--n", "7"),
    "vector": ("vector", "--n", "5", "--k", "2"),
    "cycles": ("cycles", "--k-max", "5"),
    "verify-periodicity": ("verify-periodicity", "--k", "5"),
}

PARSER_GRID = (
    ("--help",), ("-h",), *((name, "--help") for name in EVERY_SUBCOMMAND),
    (),
    ("no-such-command",), ("cyc", "--k-max", "5"), ("--m", "3", "cycles"),
    ("density",), ("oracle", "--offset", "3"),  # a required flag missing
    ("cycles", "--k-max", "x"), ("oracle", "--k", "3.5"),
    ("density", "--k-max", "5", "--format", "xml"),
    ("cycles", "--k-max", "5", "--format", "csv"),
    ("density", "--k-max", "5", "--variant", "old"),
    ("cycles", "--k-max", "5", "--jobs", "2"), ("vector", "--n", "5", "--k", "2", "9"),
    ("trajectory", "--n", "3", "--steps"), ("stopping", "--n"),
    *EVERY_SUBCOMMAND.values(),
)


def parse_outcome(parser, argv):
    """(exit code, stdout, stderr, namespace) of parser.parse_args(argv);
    the code is None when parsing returns, and the namespace None when it
    exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parser.parse_args(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), None
    return None, out.getvalue(), err.getvalue(), ns
