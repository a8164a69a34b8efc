"""``horolab cancellation``: twisted against untwisted growth of weighted coset sums.

Usage: python3 scripts/run_cancellation.py --scales 25,50,100,200,400
"""
import sys

from horolab.cli import run

if __name__ == "__main__":
    sys.exit(run(["cancellation", *sys.argv[1:]]))
