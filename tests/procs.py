"""The child processes of this process, for the tests that check that no
stripe process outlives its series."""

import glob


def children(pid: int | str = "self") -> list[int]:
    """The pids of the children of this process, or of process pid,
    running or exited but not yet reaped, over all its threads (Linux
    /proc)."""
    pids = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path) as fh:
            pids += map(int, fh.read().split())
    return sorted(pids)
