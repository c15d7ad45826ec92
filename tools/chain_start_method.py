"""Write the m=3 series to k=6000 through the chain of stripe processes
started by one multiprocessing start method.

Usage (from the root of a checkout, with mxplus1 importable):

    python tools/chain_start_method.py {fork,forkserver,spawn} OUT.csv

The file holds the bytes of `mxplus1 density --m 3 --k-max 6000
--every 1`, whose sha256 the k=6000 step of the CI workflow pins.  On
one usable core the band would run unsplit, so the script refuses to
run there.
"""

import multiprocessing
import sys

from mxplus1 import density
from mxplus1.bigmath import _coefficient_limits
from mxplus1.cli import main

if __name__ == "__main__":
    method, out = sys.argv[1:]
    multiprocessing.set_start_method(method)
    lim = _coefficient_limits(3, 6000)
    if not density._cuts(lim, lim[-1] - 1):
        sys.exit("one usable core: the band would not run as a chain")
    sys.exit(main(["density", "--m", "3", "--k-max", "6000", "--every", "1", "--out", out]))
