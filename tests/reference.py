"""Pure-integer references the vectorized oracle is tested against.

Not a test module: pytest collects only test_*.py files.
"""

from mxplus1.trajectory import _first_drops


def scan_exact(m: int, k: int, start: int, stop: int):
    """The tallies of oracle._scan_limbs, start by start; exact for any
    m, k and start >= 1.

    Each start's first drops come from the scalar walk behind the public
    stopping times.
    """
    gt = ge = agt = 0
    mismatches = []
    for n in range(start, stop):
        fc, fa = _first_drops(m, n, k)
        if fc == 0:
            gt += 1
            ge += 1
        elif fc == k:
            ge += 1
        if fa == 0:
            agt += 1
        if (fa == 0) != (fc == 0):
            mismatches.append(n)
    return gt, ge, agt, mismatches
