"""One benchmark set-up in a fresh interpreter, for timing it from process start.

    python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Imports simqwalk (with numpy and scipy), writes the workload's inputs into
WORKDIR and prints ``ready``; run.py times the interval from starting this
process until that line arrives.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.setup(Path(__file__).resolve().parent.parent / "src", name, seed, workdir)
    print("ready", flush=True)
