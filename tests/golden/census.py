"""Census of the benchmark's loss_scan outputs, one line per setting.

Run from the repository root:

    PYTHONPATH=src python tests/golden/census.py > tests/golden/census.txt
    PYTHONPATH=src python tests/golden/census.py --deep > tests/golden/census_deep.txt

For loss_scan seeds 1-10, 3001 and 3002, rounds 0-2 (288 settings), it
replays LossScan.execute and LossScan.check from perfbench/, which it
imports and never edits. After the Python, numpy and scipy versions, as
cli.txt's header gives them, each line names the setting and gives a digest
of the sweep rows' repr, the window's repr (success region, crossover) and
the number of check failures; a last line gives the total. Two trees whose
census outputs are identical print the same sweep rows and windows on every
setting. census.txt holds the output; CI compares it in exact mode, with the
numpy and scipy that made it. A run takes about 40 s on 2 cores.

A 20 s benchmark run reaches rounds 10-25, beyond the census. --deep
replays seeds 1-10, rounds 3-25 (1 840 settings) the same way and prints
one line per (seed, round): a digest of its eight settings' sweep rows,
window reprs and failure strings, the number of failures and the indices of
the settings that fail their check. census_deep.txt holds that output, and
CI compares it in exact mode too. It runs on 2 worker processes, and the
lines keep the (seed, round) order, so the output does not depend on the
worker count. A run takes about 2.5 min on 2 cores.

The deep census records the one known check failure as it stands: seed 7,
round 9, setting 78 (measured USD with errors enforced, mu 0.4689, nu
0.1239), where the printed r_upper at 50.5 dB is 5.5% above the exact
optimum.
"""
import argparse
import hashlib
import multiprocessing
import pathlib
import sys

from make_golden import versions  # this script's directory is on sys.path

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402  (found through the path set above)

SEEDS = (*range(1, 11), 3001, 3002)
ROUNDS = range(3)
DEEP_SEEDS = range(1, 11)
DEEP_ROUNDS = range(3, 26)
WORKERS = 2


def replay(seed, r):
    """(setting index, sweep op, window op) of every setting of one loss_scan round, checked."""
    scan = workloads.LossScan(seed, str(ROOT))
    for item in scan.round(r):
        ops = scan.execute(item)
        scan.check(ops)
        yield item[0], *ops


def census():
    total = 0
    for seed in SEEDS:
        for r in ROUNDS:
            for index, sweep, window in replay(seed, r):
                failures = len(sweep.failures) + len(window.failures)
                total += failures
                digest = hashlib.sha256(repr(sweep.output).encode()).hexdigest()[:16]
                print(f"seed {seed} round {r} setting {index} sweep {digest} "
                      f"window {window.output!r} failures {failures}", flush=True)
    print(f"failures {total}")


def deep_line(task):
    """(failures, line) of one (seed, round) of the deep census."""
    seed, r = task
    digest, failures, failing = hashlib.sha256(), 0, []
    for index, sweep, window in replay(seed, r):
        for op in (sweep, window):
            digest.update(repr((op.output, op.failures)).encode())
            failures += len(op.failures)
        if sweep.failures or window.failures:
            failing.append(str(index))
    return failures, (f"seed {seed} round {r} digest {digest.hexdigest()[:16]} "
                      f"failures {failures} failing {','.join(failing) or '-'}")


def deep_census():
    tasks = [(seed, r) for seed in DEEP_SEEDS for r in DEEP_ROUNDS]
    total = 0
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        for failures, line in pool.imap(deep_line, tasks):
            total += failures
            print(line, flush=True)
    print(f"failures {total}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--deep", action="store_true", help="seeds 1-10, rounds 3-25")
    args = parser.parse_args()
    print(*(f"{name} {version}" for name, version in versions().items()), "", sep="\n")
    if args.deep:
        deep_census()
    else:
        census()


if __name__ == "__main__":
    main()
