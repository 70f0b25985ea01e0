#!/usr/bin/env python3
"""One fresh-process start of a workload: import ``supdev.harness``, generate
the cases and run the warm-up case, then exit.  ``run.py`` times this whole
process from spawn to exit as the set-up cost a CLI user pays every run.

Usage: python3 perfbench/setup_probe.py --workload vector-sweep --seed 1
"""

import argparse

import program


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    program.load()
    import cases

    cases.run_case(cases.warmup_case(cases.generate(args.workload, args.seed)))


if __name__ == "__main__":
    main()
