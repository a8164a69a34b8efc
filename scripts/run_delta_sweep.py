"""``horolab delta-sweep``: the majorant decay slope at four torus points.

Usage: python3 scripts/run_delta_sweep.py --min-exp 1 --max-exp 6 --points 11
"""
import sys

from horolab.cli import run

if __name__ == "__main__":
    sys.exit(run(["delta-sweep", *sys.argv[1:]]))
