"""Run one workload in this (fresh) interpreter and print raw observations.

Started by ``run.py`` with a cleaned environment; prints one JSON object
as its last line of output.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os

import live
import sim


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if args.workload in sim.CELLS:
        raw = sim.run(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        raw = live.run(args.seed, args.seconds,
                       os.path.join(args.workdir, f"live-{os.getpid()}"),
                       bool(args.trace))
    print(json.dumps(raw))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
