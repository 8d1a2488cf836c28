#!/usr/bin/env python3
"""Run the five standard verification experiments into one output directory.

Usage: python scripts/run_verification_suite.py [OUT_DIR]
"""

import sys

from ncpain.cli import main

EXPERIMENTS = [
    ["quasidet", "--random", "4", "2", "--seed", "7", "--pos", "1", "3"],
    ["zc", "--seed-kind", "rational", "--C", "4", "--lambda", "1,i,2-3i"],
    ["zc", "--seed-kind", "random", "--d", "3", "--seed", "0"],
    ["dress", "--N", "2", "--gamma", "i,2i", "--seed", "rational",
     "--C", "4", "--z", "1:2:0.001"],
    ["symmetric", "--v0", "0.1", "--v2", "0.3", "--alpha0", "0.5",
     "--alpha1", "1.5", "--t", "0:1:0.001", "--normalize"],
]


def run(out_dir: str) -> int:
    worst = 0
    for argv in EXPERIMENTS:
        print(f"$ ncpain {' '.join(argv)}")
        code = main(argv + ["--out", out_dir])
        print(f"  -> exit {code}\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "out"
    sys.exit(run(out))
