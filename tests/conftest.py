import faulthandler
import os

import pytest

from mxplus1 import MapParams, density_series


@pytest.fixture(scope="session")
def t3():
    return MapParams(3)


@pytest.fixture(scope="session")
def t5():
    return MapParams(5)


# Full-resolution series to k=900 are shared across tests; they carry
# every per-k total and shaded count the golden checks need.

@pytest.fixture(scope="session")
def series3_full():
    return density_series(MapParams(3), 900, 1)


@pytest.fixture(scope="session")
def series5_full():
    return density_series(MapParams(5), 900, 1)


# Far above the slowest test, 13 s on a 2-core Xeon VM (the suite 49 s).
HANG_LIMIT_S = 300
_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures fd 2 while a test runs, and the guard below ends the
    # process, which loses that capture: keep a copy of stderr as it is now
    config.stash[_STDERR_FD] = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard(request):
    """Ends the run with every thread's traceback when a test outlives
    HANG_LIMIT_S (a stripe chain in deadlock, a walk that never ends),
    where it would hang the suite."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True,
                                      file=request.config.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
