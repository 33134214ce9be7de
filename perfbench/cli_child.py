"""Run the qkdattack command line once under the benchmark's tracer.

Usage: python3 perfbench/cli_child.py <qkdattack arguments>

Prints what the command prints. The span totals follow on stderr, after
tracer.CHILD_MARKER, as one JSON object.
"""
import json
import sys

import tracer


def main() -> int:
    spans = tracer.Tracer()
    spans.install()
    from qkdattack import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(tracer.CHILD_MARKER + json.dumps(spans.snapshot()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
