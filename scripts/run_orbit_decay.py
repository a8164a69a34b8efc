"""``horolab orbit-decay``: the orbit bound's decay over a random ensemble.

Usage: python3 scripts/run_orbit_decay.py --count 50 --times 1e2,1e3,1e4
"""
import sys

from horolab.cli import run

if __name__ == "__main__":
    sys.exit(run(["orbit-decay", *sys.argv[1:]]))
