"""Census of the benchmark's loss_scan outputs, one line per setting.

Run from the repository root:

    PYTHONPATH=src python tests/golden/census.py > tests/golden/census.txt

For loss_scan seeds 1-10, 3001 and 3002, rounds 0-2 (288 settings), it
replays LossScan.execute and LossScan.check from perfbench/, which it
imports and never edits. After the Python, numpy and scipy versions, as
cli.txt's header gives them, each line names the setting and gives a digest
of the sweep rows' repr, the window's repr (success region, crossover) and
the number of check failures; a last line gives the total. Two trees whose
census outputs are identical print the same sweep rows and windows on every
setting. census.txt holds the output; CI compares it in exact mode, with the
numpy and scipy that made it. A run takes about 40 s on 2 cores.

The census covers rounds 0-2 only, while a 20 s benchmark run reaches
rounds 10-25, so it does not see every setting the benchmark checks. One
known check failure lies outside it: seed 7, round 9, setting 78 (measured
USD with errors enforced, mu 0.4689, nu 0.1239), where the printed r_upper
at 50.5 dB is 5.5% above the exact optimum.
"""
import hashlib
import pathlib
import sys

from make_golden import versions  # this script's directory is on sys.path

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.append(str(ROOT / "perfbench"))

import workloads  # noqa: E402  (found through the path set above)

SEEDS = (*range(1, 11), 3001, 3002)
ROUNDS = range(3)


def main():
    print(*(f"{name} {version}" for name, version in versions().items()), "", sep="\n")
    total = 0
    for seed in SEEDS:
        scan = workloads.LossScan(seed, str(ROOT))
        for r in ROUNDS:
            for item in scan.round(r):
                ops = scan.execute(item)
                scan.check(ops)
                sweep, window = ops
                failures = sum(len(op.failures) for op in ops)
                total += failures
                digest = hashlib.sha256(repr(sweep.output).encode()).hexdigest()[:16]
                print(f"seed {seed} round {r} setting {item[0]} sweep {digest} "
                      f"window {window.output!r} failures {failures}", flush=True)
    print(f"failures {total}")


if __name__ == "__main__":
    main()
